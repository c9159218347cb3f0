"""Mutation check: do the tests kill small, plausible bugs in the rules?

Each mutant names one expression in one function of ``src/equicolor``, the
code that replaces it, and the test files that should catch it.  The tool
copies the repository to a temporary directory (the checkout is never
edited), rewrites the module there with the stdlib ``ast`` module, runs
the mutant's test files, and counts the mutant as killed when they fail.
A run of every listed test file on the unmutated (re-printed) copy comes
first, so a failure is the mutant's.

A mutant no test can kill is listed in ``EQUIVALENT`` with the reason;
any other survivor makes the exit status 1.

Run from anywhere, with the test dependencies installed:

    python3 tools/mutate.py
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent
CLOSED_FORMS = ("tests/test_closed_forms.py",)
CONSTRUCT = ("tests/test_construct.py",)
GRID = ("tests/test_grid.py",)
FILES = ("tests/test_files.py",)
ORACLE = ("tests/test_oracle.py",)
CLI = ("tests/test_cli.py",)
RECORDS = ("tests/test_records.py",)


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/equicolor
    function: str
    old: str  # an expression, matched by its AST
    new: str
    owners: tuple[str, ...]  # the test files run against the mutant


MUTANTS = (
    Mutant("residue-test-at-gamma", "closed_forms.py", "threshold_kronecker",
           "g.value - 1", "g.value", CLOSED_FORMS),
    Mutant("theta-min-starts-one-late", "closed_forms.py", "threshold_kronecker",
           "ceil_div(p.n, g.value // p.m) - p.r",
           "ceil_div(p.n, g.value // p.m) - p.r + 1", CLOSED_FORMS),
    Mutant("gamma-test-strict", "closed_forms.py", "kronecker_verdict",
           "k >= min(_gamma_sides(p))", "k > min(_gamma_sides(p))", CLOSED_FORMS),
    Mutant("verdict-gamma-larger-side", "closed_forms.py", "kronecker_verdict",
           "min(_gamma_sides(p))", "max(_gamma_sides(p))", CLOSED_FORMS),
    Mutant("gamma-second-side-floored", "closed_forms.py", "_gamma_sides",
           "ceil_div(p.n, p.m + p.r)", "p.n // (p.m + p.r)", CLOSED_FORMS),
    Mutant("orientation-unchecked", "closed_forms.py", "_require_canonical",
           "p.m > p.n", "False", CLOSED_FORMS),
    Mutant("multipartite-gap-strict", "closed_forms.py", "_multipartite_rule",
           "ceil_div(p.n, k // p.m) - p.n // ceil_div(k, p.m) <= p.r",
           "ceil_div(p.n, k // p.m) - p.n // ceil_div(k, p.m) < p.r", CLOSED_FORMS),
    Mutant("theta-test-loose", "closed_forms.py", "_least_balanced",
           "n // (theta + 1) < ceil_div(n, theta + r)",
           "n // (theta + 1) <= ceil_div(n, theta + r)", CLOSED_FORMS),
    Mutant("ceil-div-off-by-one", "closed_forms.py", "ceil_div",
           "-(-a // b)", "(a + b) // b", CLOSED_FORMS),
    Mutant("split-remainder-last", "construct.py", "_realize",
           "[keep + 1] * longer + [keep] * (m - longer)",
           "[keep] * (m - longer) + [keep + 1] * longer", CONSTRUCT),
    Mutant("donor-walk-one-row-later", "construct.py", "_realize",
           "m - cells % m", "(m - cells % m + 1) % m", CONSTRUCT),
    Mutant("column-load-past-m", "construct.py", "_realize", "min(w, m)", "w", CONSTRUCT),
    Mutant("larger-run-last", "construct.py", "_realize",
           "[(base + 1, extra), (base, c - extra)]",
           "[(base, c - extra), (base + 1, extra)]", CONSTRUCT),
    Mutant("short-rows-counted-full", "construct.py", "_scatter_layout",
           "ceil_div(y - 1, w)", "ceil_div(y, w)", CONSTRUCT),
    Mutant("least-column-classes-shifted", "construct.py", "_scatter_layout",
           "min(w, m)", "w", CONSTRUCT),
    Mutant("base-size-one-lower-when-exact", "construct.py", "_scatter_layout",
           "m * n // k", "(m * n - 1) // k", CONSTRUCT),
    Mutant("least-offset-rounded-down", "construct.py", "_scatter_layout",
           "ceil_div(c, a)", "c // a", CONSTRUCT),
    Mutant("partial-round-to-highest-rows", "construct.py", "_realize",
           "(x, c + 1, first), (x, c, rows - first)",
           "(x, c, rows - first), (x, c + 1, first)", CONSTRUCT),
    Mutant("imbalance-unchecked", "grid.py", "verify", "hi - lo > r", "False", GRID),
    Mutant("partition-blind-to-double-cover", "grid.py", "verify",
           "counts.count(1) != m * n", "0 in counts", GRID),
    Mutant("adjacent-pair-row-and-column-swapped", "grid.py", "_first_adjacent_pair",
           "cls.index(off_row) < cls.index(off_col)",
           "cls.index(off_col) < cls.index(off_row)", GRID),
    Mutant("class-index-off-by-one", "files.py", "_check_line",
           "got != index", "got != index + 1", FILES),
    Mutant("name-table-one-too-long", "files.py", "parse_coloring",
           "islice(names.items(), side)", "islice(names.items(), side + 1)", FILES),
    Mutant("row-prune-dropped", "oracle.py", "extend", "sz + pot < lo_dyn", "False", ORACLE),
    Mutant("deficit-prune-loose", "oracle.py", "extend",
           "deficit > remaining", "deficit > remaining + 1", ORACLE),
    Mutant("deficit-decrement-at-floor", "oracle.py", "extend",
           "sz < lo_dyn", "sz <= lo_dyn", ORACLE),
    Mutant("capacity-prune-loose", "oracle.py", "extend",
           "capacity < remaining", "capacity < remaining - 1", ORACLE),
    Mutant("join-needs-row-and-column", "oracle.py", "extend",
           "sz and old_fr != vi and old_fc != vj",
           "sz and (old_fr != vi or old_fc != vj)", ORACLE),
    Mutant("join-test-on-empty-class", "oracle.py", "extend",
           "sz and old_fr != vi and old_fc != vj",
           "old_fr != vi and old_fc != vj", ORACLE),
    Mutant("input-limit-exclusive", "cli.py", "_check_limit",
           "value > limit", "value >= limit", CLI),
    Mutant("oracle-disagreement-ignored", "cli.py", "_cmd_decide",
           "oracle_says != colorable", "False", CLI),
    Mutant("color-self-check-skipped", "cli.py", "_cmd_color",
           "not report.valid", "False", CLI),
    Mutant("record-equal-across-classes", "errors.py", "__eq__",
           "other.__class__ is self.__class__", "True", RECORDS),
    Mutant("budget-default-node-limit-lower", "oracle.py", "__init__",
           "10_000_000", "1_000_000", RECORDS),
)

EQUIVALENT: dict[str, str] = {}  # mutant name -> why no test can kill it


class _Replace(ast.NodeTransformer):
    def __init__(self, old: str, new: str) -> None:
        self.old = ast.dump(ast.parse(old, mode="eval").body)
        self.new = new
        self.hits = 0

    def visit(self, node: ast.AST) -> ast.AST:
        if isinstance(node, ast.expr) and ast.dump(node) == self.old:
            self.hits += 1
            return ast.parse(self.new, mode="eval").body
        return self.generic_visit(node)


def mutate(source: str, mutant: Mutant) -> str:
    """``source`` re-printed with the mutant applied at its one site."""
    tree = ast.parse(source)
    functions = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == mutant.function
    ]
    if len(functions) != 1:
        raise LookupError(f"{mutant.name}: {len(functions)} functions {mutant.function}")
    replace = _Replace(mutant.old, mutant.new)
    replace.visit(functions[0])
    if replace.hits != 1:
        raise LookupError(f"{mutant.name}: {replace.hits} sites match {mutant.old!r}")
    return ast.unparse(ast.fix_missing_locations(tree))


def _tests_pass(copy: Path, owners: Sequence[str]) -> bool:
    """Do the ``owners`` tests pass in ``copy``?  A run past 10 minutes fails."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *owners],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=600,
        )
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main() -> int:
    sources = {
        mutant.module: (ROOT / "src/equicolor" / mutant.module).read_text(encoding="utf-8")
        for mutant in MUTANTS
    }
    plain = {module: ast.unparse(ast.parse(source)) for module, source in sources.items()}
    mutated = {mutant.name: mutate(sources[mutant.module], mutant) for mutant in MUTANTS}
    verdicts: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="equicolor-mutate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        probe = subprocess.run(
            [sys.executable, "-c", "import equicolor; print(equicolor.__file__)"],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True, text=True, check=True,
        )
        if not Path(probe.stdout.strip()).is_relative_to(copy):
            print(f"equicolor imports from {probe.stdout.strip()}, not the copy")
            return 2
        for module, text in plain.items():
            (copy / "src/equicolor" / module).write_text(text, encoding="utf-8")
        if not _tests_pass(copy, sorted({f for m in MUTANTS for f in m.owners})):
            print("the mutants' tests fail on the unmutated copy")
            return 2
        for mutant in MUTANTS:
            target = copy / "src/equicolor" / mutant.module
            target.write_text(mutated[mutant.name], encoding="utf-8")
            start = time.perf_counter()
            if not _tests_pass(copy, mutant.owners):
                verdicts[mutant.name] = "killed"
            else:
                verdicts[mutant.name] = "equivalent" if mutant.name in EQUIVALENT else "SURVIVED"
            target.write_text(plain[mutant.module], encoding="utf-8")
            print(f"{verdicts[mutant.name]:10} {mutant.name} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    tally = list(verdicts.values())
    print(f"killed {tally.count('killed')}/{len(MUTANTS)}, "
          f"equivalent {tally.count('equivalent')}, survived {tally.count('SURVIVED')}")
    return 1 if "SURVIVED" in tally else 0


if __name__ == "__main__":
    sys.exit(main())
