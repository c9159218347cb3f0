"""The package's public names: the same objects as their home modules'
own, resolved on first use, so a bare ``import equicolor`` loads nothing
else."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equicolor

# The public surface of 0.4.0, by home module.
HOMES = {
    "closed_forms": [
        "GammaResult", "Params", "ThresholdCase", "ThresholdResult", "Trichotomy",
        "ceil_div", "equ_bound", "gamma", "kronecker_colorable", "kronecker_verdict",
        "multipartite_colorable", "multipartite_verdict", "theta_balanced", "theta_min",
        "threshold_kronecker", "threshold_multipartite",
    ],
    "construct": ["color_kronecker", "color_multipartite", "split_sizes"],
    "errors": [
        "BudgetExceededError", "ColoringFileError", "EquicolorError", "GridBoundsError",
        "InfeasibleWindowError", "InternalCheckError", "NotColorableError",
        "ParameterDomainError",
    ],
    "files": ["format_coloring", "parse_coloring", "read_coloring", "write_coloring"],
    "grid": ["Coloring", "VerificationReport", "Violation", "ViolationKind", "verify"],
    "oracle": [
        "DEFAULT_BUDGET", "OracleBudget", "oracle_kronecker_colorable",
        "oracle_multipartite_colorable", "oracle_threshold",
    ],
}


def test_all_lists_the_public_surface():
    assert len(equicolor.__all__) == 42
    assert set(equicolor.__all__) == {n for names in HOMES.values() for n in names} | {
        "__version__"
    }
    assert dir(equicolor) == sorted(equicolor.__all__)


@pytest.mark.parametrize("module", sorted(HOMES))
def test_each_name_is_its_home_modules_object(module):
    home = importlib.import_module(f"equicolor.{module}")
    for name in HOMES[module]:
        assert getattr(equicolor, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from equicolor import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(equicolor.__all__)


def test_a_bare_import_loads_no_submodule_until_one_is_used():
    script = (
        "import sys, equicolor\n"
        "print(sorted(m for m in sys.modules if m.startswith('equicolor')))\n"
        "print(equicolor.grid.verify is equicolor.verify)\n"
    )
    src = str(Path(equicolor.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.splitlines() == ["['equicolor']", "True"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        equicolor.nope  # noqa: B018
