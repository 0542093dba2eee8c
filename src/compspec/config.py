"""Process-wide numeric defaults."""

import os

DEFAULT_PRECISION = 256
PRECISION_ENV_VAR = "COMPSPEC_PRECISION"
_MIN_PRECISION = 16


def default_precision() -> int:
    """The working precision in bits: ``COMPSPEC_PRECISION`` when set,
    else 256.  A value that is not an integer of at least 16 raises
    ValueError rather than being replaced silently."""
    raw = os.environ.get(PRECISION_ENV_VAR)
    if not raw:
        return DEFAULT_PRECISION
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < _MIN_PRECISION:
        raise ValueError(f"{PRECISION_ENV_VAR}={raw!r} is not an integer "
                         f"precision of at least {_MIN_PRECISION} bits")
    return value
