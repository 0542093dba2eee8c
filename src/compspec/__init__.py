"""Spectra of composition operators on real analytic functions.

Certified classification of sigma(C) and sigma_p(C) for C f = f o phi,
exact formal solutions of f(phi(x)) - lambda*f(x) = gamma(x) at fixed
points, Koenigs linearization, dynamical continuation of local solutions,
and covering obstructions to surjectivity.

The public names load their module on first use (PEP 562), so importing
the package, or one of its modules, loads only what is asked for.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "continuation": ("GlobalSolution", "evaluate", "extend_forward",
                     "extend_inverse_branch", "extend_mirror", "globalize",
                     "orbit_sum_check", "preimage_orbit", "prop45_witness_demo",
                     "telescoping_check"),
    "intervals": ("Interval",),
    "numbers": ("GaussianRational", "QuadraticNumber", "parse_gaussian"),
    "power_series": ("Converges", "Diverges", "Inconclusive", "TruncatedSeries",
                     "estimate_radius"),
    "rootwork": ("AllFixed", "BasinVerdict", "DiffeoVerdict", "FixedPointRecord",
                 "SymbolAnalysis", "analyze_symbol", "attraction_basin_check",
                 "critical_set_bounded_away", "find_critical_points",
                 "find_fixed_points", "find_fixed_points_second_iterate",
                 "is_diffeomorphism"),
    "solver": ("LocalSolution", "eigenfunction", "koenigs",
               "quadratic_id_recurrence", "smajdor_condition", "solve_formal"),
    "symbols": ("AnalyticSymbol", "Diffeomorphism", "NoFixedPoints",
                "QuadraticNormalForm", "conjugate", "identity_symbol",
                "normalize_quadratic", "parse_change", "parse_rhs",
                "parse_symbol"),
    "taxonomy": ("ClassificationReport", "CoverPiece", "CoveringObstruction",
                 "KernelDimLabel", "covering_obstruction", "kernel_dim",
                 "point_spectrum", "quadratic_spectrum", "spectrum",
                 "spectrum_lower_bound"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("config", "continuation", "errors", "intervals", "numbers",
               "polynomials", "power_series", "rootwork", "solver", "sturm",
               "symbols", "taxonomy")

__all__ = sorted([*_MODULE_OF, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
