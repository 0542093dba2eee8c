"""Start-up: a process loads only the modules its work needs."""
import os
import pathlib
import subprocess
import sys

import pytest

import compspec

SRC = str(pathlib.Path(compspec.__file__).parent.parent)

# compspec.__all__ as it was when the package imported every module eagerly.
PUBLIC_NAMES = [
    'AllFixed', 'AnalyticSymbol', 'BasinVerdict', 'ClassificationReport', 'Converges',
    'CoverPiece', 'CoveringObstruction', 'DiffeoVerdict', 'Diffeomorphism', 'Diverges',
    'FixedPointRecord', 'GaussianRational', 'GlobalSolution', 'Inconclusive', 'Interval',
    'KernelDimLabel', 'LocalSolution', 'NoFixedPoints', 'QuadraticNormalForm',
    'QuadraticNumber', 'SymbolAnalysis', 'TruncatedSeries', 'analyze_symbol',
    'attraction_basin_check', 'config', 'conjugate', 'continuation', 'covering_obstruction',
    'critical_set_bounded_away', 'eigenfunction', 'errors', 'estimate_radius', 'evaluate',
    'extend_forward', 'extend_inverse_branch', 'extend_mirror', 'find_critical_points',
    'find_fixed_points', 'find_fixed_points_second_iterate', 'globalize', 'identity_symbol',
    'intervals', 'is_diffeomorphism', 'kernel_dim', 'koenigs', 'normalize_quadratic',
    'numbers', 'orbit_sum_check', 'parse_change', 'parse_gaussian', 'parse_rhs',
    'parse_symbol', 'point_spectrum', 'polynomials', 'power_series', 'preimage_orbit',
    'prop45_witness_demo', 'quadratic_id_recurrence', 'quadratic_spectrum', 'rootwork',
    'smajdor_condition', 'solve_formal', 'solver', 'spectrum', 'spectrum_lower_bound',
    'sturm', 'symbols', 'taxonomy', 'telescoping_check']


def run_fresh(code: str) -> str:
    """The last line a fresh interpreter prints after running code."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.splitlines()[-1]


def loaded_after(code: str) -> set:
    """The compspec modules a fresh interpreter holds after running code."""
    return set(run_fresh(code + "\nimport sys\nprint(' '.join(m for m in sys.modules "
                                "if m.startswith('compspec')))").split())


def test_import_loads_no_submodule():
    assert loaded_after("import compspec") == {"compspec"}


@pytest.mark.parametrize("argv,absent", [
    (["classify", "--symbol", "x^2"], {"compspec.continuation", "compspec.solver"}),
    (["obstruct", "--symbol", "x^3", "--lambda", "2", "--pieces", "(-inf,0);(-1,1);(0,inf)"],
     {"compspec.continuation", "compspec.solver"}),
    (["solve", "--symbol", "-x^2+x", "--lambda", "2", "--gamma", "x", "--order", "6"],
     {"compspec.taxonomy", "compspec.continuation"}),
    (["koenigs", "--symbol", "1/2*x-x^2", "--order", "6"],
     {"compspec.taxonomy", "compspec.continuation"}),
])
def test_subcommand_loads_only_its_pipeline(argv, absent):
    loaded = loaded_after(f"from compspec import cli\nassert cli.main({argv!r}) == 0")
    assert "compspec.symbols" in loaded
    assert loaded & absent == set()


def test_public_names():
    assert compspec.__all__ == PUBLIC_NAMES
    fresh_dir = run_fresh("import compspec\n"
                          "print(' '.join(n for n in dir(compspec) if n[0] != '_'))")
    assert fresh_dir.split() == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(compspec, name) is not None
    from compspec import Interval, spectrum, taxonomy
    assert spectrum is taxonomy.spectrum and Interval.__module__ == "compspec.intervals"
    with pytest.raises(AttributeError):
        compspec.no_such_name
