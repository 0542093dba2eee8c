"""Process-wide numeric defaults."""

import os

DEFAULT_PRECISION = 256
PRECISION_ENV_VAR = "COMPSPEC_PRECISION"
_MIN_PRECISION = 16


def parse_precision(raw: str, name: str) -> int:
    """``raw`` as a precision in bits.  A value that is not an integer of
    at least 16 raises ValueError naming its source ``name``, rather than
    being replaced silently."""
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < _MIN_PRECISION:
        raise ValueError(f"{name}={raw!r} is not an integer "
                         f"precision of at least {_MIN_PRECISION} bits")
    return value


def default_precision() -> int:
    """The working precision in bits: ``COMPSPEC_PRECISION`` when set
    (``parse_precision``), else 256."""
    raw = os.environ.get(PRECISION_ENV_VAR)
    return parse_precision(raw, PRECISION_ENV_VAR) if raw else DEFAULT_PRECISION
