"""The five benchmark workloads.

Each workload turns a seed into a pool of inputs (``generate``), runs one
op per input through the library (``op``) and checks the op's output
(``check``).  The runner cycles through the pool, one op at a time in one
process (a closed loop with a single client), until its time is up.
Only ``op`` is inside an op's latency; checks run between ops.

Why each workload exists, and which layer it loads:

* ``thresholds_bign``: the theta scans are O(sqrt(n*r)), so closed_forms
  is nearly all of the time and every other layer is idle.
* ``witness_large``: a few big witnesses; the quadratic pairwise verify
  dominates, then parse, construct and format.
* ``sweep_small``: the same layers as ``witness_large`` as thousands of
  tiny calls, so per-call overhead shows; a proxy for the acceptance sweep.
* ``oracle_crosscheck``: the only place the brute-force oracles run.
* ``cli_mix``: ``python -m equicolor.cli`` children, the end-to-end
  surface; small commands are dominated by interpreter start-up.

Pools are designed rather than drawn freely: the seed moves every input
inside a fixed design (r crossed with n bins, equal counts per constructor
shape, Latin-hypercube sizes, a large uniform sample), so the cost profile
of a pool, and with it throughput and tail latency, barely depends on the
seed while the inputs do.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

SHAPES = ("multipartite_rows", "columns_rows", "scatter", "singletons")

# thresholds_bign checks that every k in [T, T + WINDOW) is accepted.
WINDOW = 8

# sha256 over every value thresholds_bign computes for the default seed,
# in pool order.  It changes only if a threshold, verdict or equ_bound
# changes, or if the generator below changes.
THRESHOLDS_DIGEST = {
    1: "da6625ea60bdff7ad595b412dd1cc5b4cc05a6c8ebce8ce15bdd62f53ef05410",
}


def shape_of(lib: Any, p: Any, k: int) -> str:
    """The constructor shape for (p, k), by the rule in construct's docstring."""
    if k < lib.gamma(p).value:
        return "multipartite_rows"
    if k <= p.n:
        return "columns_rows"
    if k <= p.m * p.n:
        return "scatter"
    return "singletons"


def move_one_cell(lib: Any, coloring: Any) -> Any:
    """The same coloring with one cell moved into a class it is adjacent to."""
    classes = [list(c) for c in coloring.classes]
    src = next(i for i, c in enumerate(classes) if c)
    cell = classes[src][-1]
    dst = next(
        i for i, c in enumerate(classes)
        if i != src and any(v[0] != cell[0] and v[1] != cell[1] for v in c)
    )
    classes[src].pop()
    classes[dst].append(cell)
    return lib.Coloring(coloring.m, coloring.n, tuple(tuple(c) for c in classes))


def _pair_checks(coloring: Any) -> int:
    return sum(len(c) * (len(c) - 1) // 2 for c in coloring.classes)


class Workload:
    """A pool generator, an op and its checks; see the module docstring."""

    name = ""
    faults: tuple[str, ...] = ()
    # The work runs in child processes (peak RSS is the largest child's).
    in_children = False
    # Stop only between passes over the pool.  Needed where a few heavy
    # items carry much of a pool's cost; a pool of many light, shuffled
    # items is sampled fairly by any prefix.
    whole_passes = True

    @staticmethod
    def clock() -> int:
        """The clock ops are timed on, in ns: this thread's CPU time.

        On shared cores wall time also counts stretches when another
        tenant holds the core; in-process ops neither sleep nor wait on
        I/O, so CPU time is their whole cost.
        """
        return time.thread_time_ns()

    def __init__(self, lib: Any, seed: int, root: Path, tiny: bool = False,
                 fault: str | None = None) -> None:
        self.lib = lib
        self.seed = seed
        self.root = root
        self.tiny = tiny
        self.fault = fault
        self.rng = random.Random(f"{self.name}:{seed}")

    def generate(self) -> list:
        raise NotImplementedError

    def op(self, item: Any, tr: Any) -> Any:
        raise NotImplementedError

    def check(self, item: Any, out: Any, tr: Any) -> str | None:
        """None when the output is right, else the layer to blame."""
        raise NotImplementedError

    def on_error(self, exc: Exception, tr: Any) -> None:
        """Count an exception an op raised (every one is a failure)."""

    def finish(self) -> list[str]:
        """Run-level problems found after the last op."""
        return []

    def close(self) -> None:
        pass


# ============================================================
# thresholds_bign
# ============================================================


@dataclass(frozen=True)
class ThresholdItem:
    index: int
    p: Any
    k: int


class ThresholdsBigN(Workload):
    """Both thresholds plus single-k verdicts at n up to 1e10.

    The pool crosses every r in [1, 8] with log10(n) bins over [3, 10];
    the seed jitters n inside each bin and draws m in [2, 60] and k
    log-uniform in [1, n].
    """

    name = "thresholds_bign"
    faults = ("flip",)

    def generate(self) -> list:
        lib, rng = self.lib, self.rng
        bins = 1 if self.tiny else 60
        items = []
        for r in range(1, 9):
            for b in range(bins):
                n = int(10 ** (3 + 7 * (b + rng.random()) / bins))
                m = rng.randint(2, 60)
                k = max(1, int(n ** rng.random()))
                items.append((lib.Params(m, n, r), k))
        rng.shuffle(items)
        self.values: list = [None] * len(items)
        self.traced: set[int] = set()
        return [ThresholdItem(i, p, k) for i, (p, k) in enumerate(items)]

    def op(self, it: ThresholdItem, tr: Any) -> Any:
        lib, p = self.lib, it.p
        tk = tr.call("closed_forms.threshold_kronecker", lib.threshold_kronecker, p)
        tm = tr.call("closed_forms.threshold_multipartite", lib.threshold_multipartite, p)
        vk = tr.call("closed_forms.verdict", lib.kronecker_verdict, p, it.k)
        vm = tr.call("closed_forms.verdict", lib.multipartite_colorable, p, it.k)
        eb = tr.call("closed_forms.equ_bound", lib.equ_bound, p.m, p.r) if p.r >= 2 else None
        return tk, tm, vk, vm, eb

    def check(self, it: ThresholdItem, out: Any, tr: Any) -> str | None:
        lib, p = self.lib, it.p
        tk, tm, vk, vm, eb = out
        t = tk.value
        if tr.enabled and it.index not in self.traced:
            self.traced.add(it.index)
            tr.count("closed_forms.theta_sum", tk.theta or 0)
        if self.values[it.index] is None:
            self.values[it.index] = (
                p.m, p.n, p.r, it.k, t, tk.case.value, tk.theta, tm,
                vk[0], vk[1], vm, eb,
            )
        if t > tk.gamma.value:
            return "closed_forms"
        verdict = lib.kronecker_verdict
        if tr.call("closed_forms.verdict", verdict, p, t - 1)[0]:
            return "closed_forms"
        if not all(tr.call("closed_forms.verdict", verdict, p, k)[0]
                   for k in range(t, t + WINDOW)):
            return "closed_forms"
        colorable = lib.multipartite_colorable
        if tr.call("closed_forms.verdict", colorable, p, tm - 1):
            return "closed_forms"
        if not all(tr.call("closed_forms.verdict", colorable, p, k)
                   for k in range(tm, tm + WINDOW)):
            return "closed_forms"
        if (it.k >= t and not vk[0]) or (it.k >= tm and not vm):
            return "closed_forms"
        if eb is not None and p.n >= eb and t != tm:
            return "closed_forms"
        return None

    def digest(self) -> str:
        text = "\n".join(json.dumps(v) for v in self.values)
        return hashlib.sha256(text.encode()).hexdigest()

    def finish(self) -> list[str]:
        want = None if self.tiny else THRESHOLDS_DIGEST.get(self.seed)
        got = self.digest()
        if want is not None and got != want:
            return [f"thresholds digest {got} != committed {want}"]
        return []


# ============================================================
# witness_large and sweep_small
# ============================================================


@dataclass(frozen=True)
class WitnessItem:
    p: Any
    k: int
    shape: str


def _witness_counts(tr: Any, it: WitnessItem, coloring: Any) -> None:
    cells = it.p.m * it.p.n
    tr.count("construct.cells", cells)
    tr.count("verify.cells", cells)
    tr.count("verify.pair_checks_computed", _pair_checks(coloring))


def _round_trip(lib: Any, tr: Any, coloring: Any) -> bool:
    """format(parse(format(c))) is byte-identical to format(c)."""
    text = tr.call("files.format", lib.format_coloring, coloring)
    tr.count("files.format.bytes", len(text))
    back = tr.call("files.parse", lib.parse_coloring, text)
    again = tr.call("files.format", lib.format_coloring, back)
    tr.count("files.parse.bytes", len(text))
    tr.count("files.format.bytes", len(again))
    return again == text


class WitnessLarge(Workload):
    """color -> verify -> format -> parse -> verify on grids of 100-250 a side.

    Every constructor shape gets the same number of pool items, and each
    item is sized to cost about the same (some 0.15 s): the cost of an op
    is roughly cells * (a + b * class size), the pairwise verify being the
    b term.  Row-class shapes keep m (their class size) near 100, scatter
    draws its class size and sizes the grid to match, and singletons fix
    the cell count.  The two size parameters of each shape are Latin-
    hypercube stratified, so a pool's cost profile, and with it the tail,
    is nearly the same for every seed.
    """

    name = "witness_large"
    faults = ("corrupt",)

    def _draw(self, shape: str, u: float, v: float) -> tuple[int, int, int, int] | None:
        lib, rng = self.lib, self.rng
        scale = 4 if self.tiny else 1
        r = rng.randint(1, 3)
        if shape == "multipartite_rows":
            m = (100 + int(10 * u)) // scale
            n = m + r + int(12 * v) // scale
        elif shape == "columns_rows":
            m = (100 + int(10 * u)) // scale
            n = m + int(15 * v) // scale
        elif shape == "scatter":
            size = 20 + int(30 * v)
            m = (100 + int(60 * u)) // scale
            n = max(m, int(140_000 / (4 + 0.09 * size)) // scale**2 // m)
        else:
            m = (100 + int(20 * u)) // scale
            n = max(m, 15_000 // scale**2 // m + rng.randint(0, 5))
        p = lib.Params(m, n, r)
        g = lib.gamma(p).value
        if shape == "multipartite_rows":
            ks = [k for k in range(m, g) if lib.multipartite_colorable(p, k)]
            return (m, n, r, rng.choice(ks)) if ks else None
        if shape == "columns_rows":
            return (m, n, r, rng.randint(g, n))
        if shape == "scatter":
            k = (m * n) // size
            return (m, n, r, k) if n < k <= m * n else None
        return (m, n, r, m * n + rng.randint(1, 50))

    def generate(self) -> list:
        lib, rng = self.lib, self.rng
        per_shape = 1 if self.tiny else 5
        items = []
        for shape in SHAPES:
            vs = [(j + rng.random()) / per_shape for j in range(per_shape)]
            rng.shuffle(vs)
            for j, v in enumerate(vs):
                u = (j + rng.random()) / per_shape
                drawn = self._draw(shape, u, v)
                while drawn is None:
                    drawn = self._draw(shape, u, rng.random())
                m, n, r, k = drawn
                p = lib.Params(m, n, r)
                if shape_of(lib, p, k) != shape or not lib.kronecker_colorable(p, k):
                    raise RuntimeError(f"witness_large drew {shape} wrongly: {p} k={k}")
                items.append(WitnessItem(p, k, shape))
        rng.shuffle(items)
        return items

    def op(self, it: WitnessItem, tr: Any) -> Any:
        lib, r = self.lib, it.p.r
        coloring = tr.call(f"construct.{it.shape}", lib.color_kronecker, it.p, it.k)
        first = tr.call("verify", lib.verify, r, coloring)
        text = tr.call("files.format", lib.format_coloring, coloring)
        back = tr.call("files.parse", lib.parse_coloring, text)
        second = tr.call("verify", lib.verify, r, back)
        return coloring, first, text, back, second

    def check(self, it: WitnessItem, out: Any, tr: Any) -> str | None:
        coloring, first, text, back, second = out
        if tr.enabled:
            _witness_counts(tr, it, coloring)
            tr.count("verify.cells", it.p.m * it.p.n)
            tr.count("verify.pair_checks_computed", _pair_checks(back))
            tr.count("files.format.bytes", len(text))
            tr.count("files.parse.bytes", len(text))
        if coloring.k != it.k or not first.valid:
            return "construct"
        if back.k != it.k or not second.valid:
            return "files"
        again = tr.call("files.format", self.lib.format_coloring, back)
        tr.count("files.format.bytes", len(again))
        return None if again == text else "files"


class SweepSmall(Workload):
    """verdict -> construct -> verify on witnesses of the acceptance sweep.

    The acceptance sweep builds a witness for every colorable k of every
    2 <= m <= n <= 30, r <= 5 (532,996 of them).  The pool is a uniform
    seeded sample of those witnesses: a triple is drawn with weight
    m*n + 1, then k uniformly from [1, m*n + 1], keeping colorable k only.
    Sampling witnesses rather than whole triples keeps the op mix, and so
    throughput, close to the sweep's for every seed.
    """

    name = "sweep_small"
    faults = ("corrupt", "flip")
    whole_passes = False

    def generate(self) -> list:
        lib, rng = self.lib, self.rng
        top = 4 if self.tiny else 30
        triples = [(m, n, r) for m in range(2, top + 1) for n in range(m, top + 1)
                   for r in range(1, 6)]
        weights = [m * n + 1 for m, n, _ in triples]
        want = 40 if self.tiny else 8000
        items: list[WitnessItem] = []
        while len(items) < want:
            for m, n, r in rng.choices(triples, weights, k=want):
                p, k = lib.Params(m, n, r), rng.randint(1, m * n + 1)
                if lib.kronecker_colorable(p, k) and len(items) < want:
                    items.append(WitnessItem(p, k, shape_of(lib, p, k)))
        return items

    def op(self, it: WitnessItem, tr: Any) -> Any:
        lib = self.lib
        ok, _ = tr.call("closed_forms.verdict", lib.kronecker_verdict, it.p, it.k)
        coloring = tr.call(f"construct.{it.shape}", lib.color_kronecker, it.p, it.k)
        report = tr.call("verify", lib.verify, it.p.r, coloring)
        return ok, coloring, report

    def check(self, it: WitnessItem, out: Any, tr: Any) -> str | None:
        ok, coloring, report = out
        if tr.enabled:
            _witness_counts(tr, it, coloring)
        if not ok:
            return "closed_forms"
        if coloring.k != it.k or not report.valid:
            return "construct"
        return None if _round_trip(self.lib, tr, coloring) else "files"


# ============================================================
# oracle_crosscheck
# ============================================================


class OracleCrosscheck(Workload):
    """Both oracles against both closed-form verdicts on every small instance.

    Every 2 <= m <= n with m*n <= 20, r in [1, 4] and k in [1, m*n + 1]:
    852 decisions.  The seed only orders them.
    """

    name = "oracle_crosscheck"
    faults = ("flip",)

    def generate(self) -> list:
        cap = 6 if self.tiny else 20
        items = [
            (self.lib.Params(m, n, r), k)
            for m in range(2, cap + 1)
            for n in range(m, cap + 1)
            if m * n <= cap
            for r in range(1, 5)
            for k in range(1, m * n + 2)
        ]
        self.rng.shuffle(items)
        return items

    def op(self, item: Any, tr: Any) -> Any:
        lib = self.lib
        p, k = item
        kron = tr.call("oracle.kronecker", lib.oracle_kronecker_colorable, p, k)
        multi = tr.call("oracle.multipartite", lib.oracle_multipartite_colorable, p, k)
        kron_f = tr.call("closed_forms.verdict", lib.kronecker_colorable, p, k)
        multi_f = tr.call("closed_forms.verdict", lib.multipartite_colorable, p, k)
        return kron, multi, kron_f, multi_f

    def check(self, item: Any, out: Any, tr: Any) -> str | None:
        kron, multi, kron_f, multi_f = out
        return None if (kron == kron_f and multi == multi_f) else "closed_forms"

    def on_error(self, exc: Exception, tr: Any) -> None:
        if isinstance(exc, self.lib.BudgetExceededError):
            tr.count("oracle.budget_exceeded")


# ============================================================
# cli_mix
# ============================================================


@dataclass(frozen=True)
class CliItem:
    sub: str  # metric label: threshold, decide, decide_oracle, color, verify, table
    argv: tuple[str, ...]
    params: tuple


class CliMix(Workload):
    """One fixed round of ``python -m equicolor.cli`` children, repeated.

    The round: threshold for each family, decide, decide --oracle on a
    small instance, color --out on about 200x250, verify of that file,
    and a small table.  One child runs at a time.
    """

    name = "cli_mix"
    faults = ("corrupt", "flip")
    in_children = True

    @staticmethod
    def clock() -> int:
        """CPU time (user + system, ns) of all waited-for children."""
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return int((usage.ru_utime + usage.ru_stime) * 1e9)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        out_dir = self.root / "bench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path = out_dir / f"cli_mix-{os.getpid()}.eqc"
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.expected: dict[tuple, Any] = {}

    def generate(self) -> list:
        lib, rng = self.lib, self.rng
        scale = 10 if self.tiny else 1
        mnr = lambda m, n, r: ("-m", str(m), "-n", str(n), "-r", str(r))  # noqa: E731
        t = (rng.randint(3, 9), rng.randint(1_000, 100_000), rng.randint(2, 5))
        d = (rng.randint(3, 9), rng.randint(20, 1_000), rng.randint(1, 4))
        dk = rng.randint(1, 2 * d[1])
        o = (2, rng.randint(3, 6), rng.randint(1, 3))
        ok = rng.randint(1, o[0] * o[1] + 1)
        m, n = rng.randint(195, 205) // scale, rng.randint(245, 255) // scale
        c = lib.Params(m, n, rng.randint(1, 3))
        ck = (m * n) // rng.randint(90, 110) if not self.tiny else n + 3
        while not lib.kronecker_colorable(c, ck):
            ck += 1
        tm, tn = rng.randint(2, 3), rng.randint(5, 8)
        path = str(self.path)
        return [
            CliItem("threshold", ("threshold", *mnr(*t), "--family", "kronecker"),
                    ("kronecker", t)),
            CliItem("threshold", ("threshold", *mnr(*t), "--family", "multipartite"),
                    ("multipartite", t)),
            CliItem("decide", ("decide", *mnr(*d), "-k", str(dk)), (d, dk)),
            CliItem("decide_oracle", ("decide", *mnr(*o), "-k", str(ok), "--oracle"),
                    (o, ok)),
            CliItem("color", ("color", *mnr(c.m, c.n, c.r), "-k", str(ck), "--out", path),
                    (c, ck)),
            CliItem("verify", ("verify", "-r", str(c.r), path), (c, ck)),
            CliItem("table", ("table", "-m", f"2..{tm}", "-n", f"5..{tn}", "-r", "1..3"),
                    (tm, tn)),
        ]

    def op(self, it: CliItem, tr: Any) -> Any:
        argv = [sys.executable, "-m", "equicolor.cli", *it.argv, "--format", "json"]
        return tr.call(f"cli.{it.sub}", self._run, argv)

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, capture_output=True, text=True, env=self.env,
                              cwd=self.root, timeout=120, check=False)

    def probe(self, code: str) -> float:
        """Wall time (ms) of ``python -c <code>`` with the package on the path."""
        start = time.perf_counter()
        self._run([sys.executable, "-c", code])
        return (time.perf_counter() - start) * 1e3

    def _expect(self, it: CliItem) -> Any:
        """The library's own answer for this command, computed once."""
        key = (it.sub, it.params)
        if key in self.expected:
            return self.expected[key]
        lib = self.lib
        if it.sub == "threshold":
            family, (m, n, r) = it.params
            p = lib.Params(m, n, r)
            if family == "kronecker":
                t = lib.threshold_kronecker(p)
                value = {"value": t.value, "case": t.case.value, "theta": t.theta,
                         "gamma": t.gamma.value}
            else:
                value = {"value": lib.threshold_multipartite(p)}
        elif it.sub in ("decide", "decide_oracle"):
            (m, n, r), k = it.params
            colorable, reason = lib.kronecker_verdict(lib.Params(m, n, r), k)
            value = {"colorable": colorable, "reason": reason}
        elif it.sub == "color":
            p, k = it.params
            coloring = lib.color_kronecker(p, k)
            value = {"sizes": [len(c) for c in coloring.classes],
                     "bytes": lib.format_coloring(coloring).encode("ascii")}
        elif it.sub == "verify":
            p, k = it.params
            value = {"valid": True, "m": p.m, "n": p.n, "k": k}
        else:
            tm, tn = it.params
            value = []
            for mm in range(2, tm + 1):
                for nn in range(5, tn + 1):
                    for r in range(1, 4):
                        p = lib.Params(mm, nn, r)
                        value.append((lib.threshold_kronecker(p.canonical()).value,
                                      lib.threshold_multipartite(p)))
        self.expected[key] = value
        return value

    def check(self, it: CliItem, proc: Any, tr: Any) -> str | None:
        if proc.returncode != 0:
            return "cli"
        try:
            result = json.loads(proc.stdout)["result"]
        except (ValueError, KeyError, TypeError):
            return "cli"
        want = self._expect(it)
        if it.sub == "threshold":
            got = {key: result.get(key) for key in want}
            return None if got == want else "cli"
        if it.sub == "decide":
            ok = result.get("colorable") == want["colorable"] and result.get("reason") == want["reason"]
            return None if ok else "cli"
        if it.sub == "decide_oracle":
            oracle = result.get("oracle") or {}
            ok = (result.get("colorable") == want["colorable"]
                  and oracle.get("colorable") == want["colorable"]
                  and oracle.get("agrees") is True)
            return None if ok else "cli"
        if it.sub == "color":
            if result.get("sizes") != want["sizes"] or self.path.read_bytes() != want["bytes"]:
                return "cli"
            if self.fault == "corrupt":
                lib = self.lib
                bad = move_one_cell(lib, lib.parse_coloring(want["bytes"].decode("ascii")))
                self.path.write_text(lib.format_coloring(bad), encoding="ascii")
            return None
        if it.sub == "verify":
            got = {key: result.get(key) for key in want}
            return None if got == want else "cli"
        rows = [(row["kronecker"], row["multipartite"]) for row in result.get("rows", [])]
        return None if rows == want else "cli"

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


WORKLOADS = {
    cls.name: cls
    for cls in (ThresholdsBigN, WitnessLarge, SweepSmall, OracleCrosscheck, CliMix)
}
