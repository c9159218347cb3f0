"""The CI workflow parses, its quick job runs README's quick suite, and
the package version lives in one place."""

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
