"""The CI workflow parses, its quick job runs README's quick suite, the
sources stay inside the Python 3.10 floor, and the package version lives
in one place."""

import ast
import re
import warnings
from pathlib import Path

import pytest
import yaml

import equicolor

ROOT = Path(__file__).resolve().parent.parent


def _readme_quick_suite() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (line,) = [ln for ln in readme.splitlines() if "# quick suite" in ln]
    return line.partition("#")[0].strip()


def test_workflow_is_valid_yaml_with_both_jobs():
    # An unquoted step holding ": " once made the file invalid YAML, so no
    # job could start.
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())
    jobs = workflow["jobs"]
    assert {"quick", "full"} <= set(jobs)
    runs = [step["run"] for step in jobs["quick"]["steps"] if "run" in step]
    assert [run for run in runs if run.startswith("pytest")] == [_readme_quick_suite()]


def test_pyproject_takes_its_version_from_the_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():  # [tool.setuptools] is "beta" in 65.x
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(ROOT / "pyproject.toml")
    assert config["project"]["version"] == equicolor.__version__


def test_sources_parse_at_the_python_3_10_floor():
    # The quick job also runs on 3.10, which a newer local interpreter does
    # not: check the grammar, and the regex syntax only 3.11 compiles.
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        for part in ("src", "tests", "bench")
        for path in (ROOT / part).rglob("*.py")
    }
    patterns = [
        node.args[0].value
        for path, tree in trees.items()
        if path.is_relative_to(ROOT / "src")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "re"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ]
    newer = re.compile(r"\(\?>|(?<!\\)[*+?}]\+")  # an atomic group, a possessive quantifier
    assert patterns
    assert [p for p in patterns if newer.search(p)] == []
