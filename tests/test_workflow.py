"""The CI workflow parses, its quick job runs README's quick suite, the
sources stay inside the Python 3.10 floor, and the package version lives
in one place."""

import ast
import importlib.util
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


def test_every_job_has_a_timeout_and_the_weekly_job_runs_the_mutants():
    # Without timeout-minutes a hung test holds a runner for GitHub's
    # 360-minute default.
    jobs = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())["jobs"]
    assert [name for name, job in jobs.items() if "timeout-minutes" not in job] == []
    assert "python3 tools/mutate.py" in [step.get("run") for step in jobs["full"]["steps"]]
    # Both jobs also run the bench self-test.
    for job in jobs.values():
        assert "python3 bench/run.py --selftest" in [step.get("run") for step in job["steps"]]


def test_a_push_or_pull_request_runs_the_mutants_once():
    # A surviving mutant fails the change that let it survive, on the
    # quick job's 3.11 leg only.
    quick = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())["jobs"]["quick"]
    assert quick["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    mutants = [step for step in quick["steps"] if step.get("run") == "python3 tools/mutate.py"]
    assert mutants == [{"if": "matrix.python-version == '3.11'",
                        "run": "python3 tools/mutate.py"}]


def test_every_mutant_applies_at_exactly_one_site():
    # The mutants run on one leg of the quick job only, so a mutant a
    # source edit has orphaned is caught here on every leg.
    path = ROOT / "tools/mutate.py"
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    spec = importlib.util.spec_from_file_location("mutate", path)
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    assert len(mutate.MUTANTS) >= 8
    for mutant in mutate.MUTANTS:
        source = (ROOT / "src/equicolor" / mutant.module).read_text(encoding="utf-8")
        assert mutate.mutate(source, mutant) != ast.unparse(ast.parse(source)), mutant.name


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
