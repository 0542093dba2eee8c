"""Spans and counters recorded from outside the program.

The tracer replaces public functions of the compspec modules with wrappers
that count calls and time the outermost call of each name.  Every module
(and class) that binds the original function object gets the wrapper, so
calls made through ``from .x import name`` bindings are seen too.  Nothing
inside ``src/`` changes.

Records are kept per operation and merged only when the operation did not
time out, so counters of a fixed operation list repeat exactly.  Distinct
inputs are counted within each operation: a repeated input inside one
request is wasted work; the same input in another request is not.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (module, attribute path, metric name, distinct-input key or None)
TARGETS = [
    ("symbols", "parse_symbol", "symbols.parse_symbol", None),
    ("symbols", "AnalyticSymbol.jet", "symbols.jet",
     lambda args, kw: (str(args[0]), str(args[0].domain), repr(args[1]),
                       args[2], kw.get("precision", args[3] if len(args) > 3 else None))),
    ("symbols", "AnalyticSymbol.eval", "symbols.eval", None),
    ("sturm", "sturm_chain", "sturm.sturm_chain",
     lambda args, kw: tuple(args[0])),
    ("sturm", "count_roots_open", "sturm.count_roots_open", None),
    ("sturm", "sign_variations", "sturm.sign_variations", None),
    ("sturm", "isolate_roots", "sturm.isolate_roots", None),
    ("sturm", "poly_maps_into", "sturm.poly_maps_into", None),
    ("rootwork", "find_fixed_points", "rootwork.find_fixed_points", None),
    ("rootwork", "find_fixed_points_second_iterate",
     "rootwork.find_fixed_points_second_iterate", None),
    ("rootwork", "find_critical_points", "rootwork.find_critical_points", None),
    ("rootwork", "is_diffeomorphism", "rootwork.is_diffeomorphism", None),
    ("rootwork", "critical_set_bounded_away",
     "rootwork.critical_set_bounded_away", None),
    ("rootwork", "analyze_symbol", "rootwork.analyze_symbol", None),
    ("rootwork", "attraction_basin_check", "rootwork.attraction_basin_check", None),
    ("taxonomy", "spectrum", "taxonomy.spectrum", None),
    ("taxonomy", "covering_obstruction", "taxonomy.covering_obstruction", None),
    ("power_series", "TruncatedSeries.__mul__", "power_series.mul", None),
    ("power_series", "estimate_radius", "power_series.estimate_radius", None),
    ("solver", "solve_formal", "solver.solve_formal", None),
    ("solver", "koenigs", "solver.koenigs", None),
    ("solver", "eigenfunction", "solver.eigenfunction", None),
    ("continuation", "globalize", "continuation.globalize", None),
    ("continuation", "evaluate", "continuation.evaluate", None),
    ("continuation", "_dispatch", "continuation.dispatch", None),
    ("continuation", "_residual_exact", "continuation.residual", None),
    ("continuation", "_residual_numeric", "continuation.residual", None),
    ("continuation", "extend_forward", "continuation.extend_forward", None),
    ("cli", "main", "cli.main", None),
]

# Time of the inner span spent inside outermost calls of the outer span,
# not counting inner calls made under the excluded span.  The dispatch of
# evaluate's residual belongs to the residual, not to the value's dispatch.
NESTED = [
    ("taxonomy.spectrum", "rootwork.analyze_symbol", None),
    ("solver.solve_formal", "power_series.estimate_radius", None),
    ("continuation.evaluate", "continuation.dispatch", "continuation.residual"),
]


class _Record:
    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.keys: dict[str, set] = {}   # distinct inputs of one operation
        self.distinct = Counter()
        self.extra = Counter()

    def merge(self, op: "_Record"):
        self.calls.update(op.calls)
        self.seconds.update(op.seconds)
        self.extra.update(op.extra)
        for name, keys in op.keys.items():
            self.distinct[name] += len(keys)


class Tracer:
    """Install with ``install()``; records only between begin_op/end_op."""

    def __init__(self):
        self.total = _Record()
        self._op = None
        self._depth = Counter()
        self._patches = []

    # -- recording ------------------------------------------------------------

    def begin_op(self):
        self._op = _Record()
        self._depth.clear()

    def end_op(self, keep: bool):
        if keep and self._op is not None:
            self.total.merge(self._op)
        self._op = None

    def reset(self):
        self.total = _Record()

    def add(self, name: str, amount):
        """Add a computed quantity (a work size, say) to the current op."""
        if self._op is not None:
            self._op.extra[name] += amount

    def _wrap(self, original, name, key_fn):
        tracer = self
        nested_in = [(outer, excluded) for outer, inner, excluded in NESTED
                     if inner == name]
        self_map = name == "symbols.parse_symbol"

        def wrapper(*args, **kwargs):
            rec = tracer._op
            if rec is None:
                return original(*args, **kwargs)
            rec.calls[name] += 1
            if key_fn is not None:
                rec.keys.setdefault(name, set()).add(key_fn(args, kwargs))
            depth = tracer._depth
            depth[name] += 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[name] -= 1
                if depth[name] == 0:
                    rec.seconds[name] += elapsed
                    for outer, excluded in nested_in:
                        if depth[outer] > 0 and not (excluded and depth[excluded]):
                            rec.seconds[f"{outer}>{name}"] += elapsed
                    if self_map and kwargs.get("require_self_map", True):
                        # Parse again without the self-map check; the
                        # difference is the check's cost.
                        plain = dict(kwargs, require_self_map=False)
                        start = time.perf_counter()
                        original(*args, **plain)
                        rec.seconds["symbols.parse_symbol.no_self_map"] += \
                            time.perf_counter() - start

        wrapper.__wrapped__ = original
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "compspec" or n.startswith("compspec.")]
        for mod_name, path, name, key_fn in TARGETS:
            module = importlib.import_module(f"compspec.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, name, key_fn)
                for slot, value in list(owner.__dict__.items()):
                    if value is original:  # __rmul__ = __mul__, say
                        self._patch(owner, slot, original, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, key_fn)
            for mod in modules:
                for slot, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, slot, original, wrapper)

    def _patch(self, owner, slot, original, wrapper):
        setattr(owner, slot, wrapper)
        self._patches.append((owner, slot, original))

    def uninstall(self):
        for owner, slot, original in reversed(self._patches):
            setattr(owner, slot, original)
        self._patches.clear()

    # -- reporting ------------------------------------------------------------

    def counters(self) -> dict:
        """Exact counts of the recorded operations."""
        rec = self.total
        out = {f"{name}.calls": rec.calls[name]
               for name in ("sturm.sturm_chain", "sturm.count_roots_open",
                            "sturm.sign_variations", "sturm.isolate_roots",
                            "sturm.poly_maps_into", "symbols.jet",
                            "symbols.eval", "rootwork.find_critical_points",
                            "rootwork.analyze_symbol", "power_series.mul")}
        for name in ("sturm.sturm_chain", "symbols.jet"):
            calls = rec.calls[name]
            out[f"{name}.distinct_ratio"] = rec.distinct[name] / calls if calls else 0.0
        out["power_series.coeff_bits"] = rec.extra["power_series.coeff_bits"]
        return out

    def spans(self) -> dict:
        """Seconds per layer of the recorded operations (outermost calls)."""
        s = self.total.seconds
        out = {f"{name}.s": s[name] for name in (
            "symbols.parse_symbol", "rootwork.find_fixed_points",
            "rootwork.find_fixed_points_second_iterate",
            "rootwork.find_critical_points", "rootwork.is_diffeomorphism",
            "rootwork.critical_set_bounded_away", "rootwork.analyze_symbol",
            "taxonomy.covering_obstruction", "symbols.jet",
            "power_series.estimate_radius", "solver.koenigs",
            "solver.eigenfunction", "continuation.globalize",
            "rootwork.attraction_basin_check", "continuation.evaluate",
            "continuation.extend_forward", "cli.main")}
        out["symbols.self_map_check.s"] = (
            s["symbols.parse_symbol"] - s["symbols.parse_symbol.no_self_map"])
        out["taxonomy.spectrum_leaf.s"] = (
            s["taxonomy.spectrum"] - s["taxonomy.spectrum>rootwork.analyze_symbol"])
        out["solver.solve_formal.s"] = (
            s["solver.solve_formal"]
            - s["solver.solve_formal>power_series.estimate_radius"])
        out["continuation.evaluate.residual.s"] = (
            s["continuation.evaluate"]
            - s["continuation.evaluate>continuation.dispatch"])
        return out
