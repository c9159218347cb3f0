#!/usr/bin/env python3
"""equicolor benchmark: seeded workloads, checked outputs, per-layer trace.

Run from the repository root (the package is imported from ``src/``)::

    python3 bench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --selftest     # tiny run of every workload + fault checks
    python3 bench/run.py --baseline     # the ROADMAP baseline rows, one run each

A run sets the workload up several times (fresh import of ``equicolor``
plus input generation) and reports the median as ``setup_s``.  With
``--trace 0`` it then cycles through the workload's pool for ``--seconds``
seconds and prints the end-to-end metrics.  With ``--trace 1`` it runs
untraced for half the time, replays exactly those ops traced, prints the
per-layer metrics and writes the spans to ``bench/out/``.  The last line
of stdout is the result object; the line before it is run metadata.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402
from workloads import SHAPES, WORKLOADS, move_one_cell  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPS = 11
PROBE_REPS = 5
# Ops per throughput chunk where a workload does not run in whole passes.
CHUNK = 500
LAYERS = ("closed_forms", "construct", "verify", "files", "oracle", "cli")
CLI_SUBS = ("threshold", "decide", "decide_oracle", "color", "verify", "table")


def require_source() -> None:
    """Exit 2 unless the package source sits in ``src/`` next to ``bench/``."""
    if not (SRC / "equicolor" / "__init__.py").is_file():
        print(f"error: no equicolor package under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_library() -> SimpleNamespace:
    """Import ``equicolor`` afresh from ``src/`` and collect what workloads call."""
    for name in [n for n in sys.modules if n == "equicolor" or n.startswith("equicolor.")]:
        del sys.modules[name]
    eq = importlib.import_module("equicolor")
    if not Path(eq.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"equicolor imported from {eq.__file__}, not {SRC}")
    names = (
        "Params", "Coloring", "gamma", "threshold_kronecker", "threshold_multipartite",
        "kronecker_verdict", "kronecker_colorable", "multipartite_colorable",
        "equ_bound", "color_kronecker", "verify", "format_coloring", "parse_coloring",
        "oracle_kronecker_colorable", "oracle_multipartite_colorable",
        "BudgetExceededError",
    )
    return SimpleNamespace(**{n: getattr(eq, n) for n in names})


def inject(lib: SimpleNamespace, fault: str | None) -> SimpleNamespace:
    """A copy of ``lib`` whose program is broken in one known way (self-test)."""
    bad = SimpleNamespace(**vars(lib))
    if fault == "corrupt":
        bad.color_kronecker = lambda p, k: move_one_cell(lib, lib.color_kronecker(p, k))
    elif fault == "flip":
        def verdict(p, k):
            ok, reason = lib.kronecker_verdict(p, k)
            return not ok, reason
        bad.kronecker_verdict = verdict
        bad.kronecker_colorable = lambda p, k: not lib.kronecker_colorable(p, k)
        bad.multipartite_colorable = lambda p, k: not lib.multipartite_colorable(p, k)
    return bad


# ============================================================
# The measuring loop
# ============================================================


@dataclass
class Phase:
    latencies_ns: list[int] = field(default_factory=list)
    starts_ns: list[int] = field(default_factory=list)
    failed: int = 0
    wall_s: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)


def measure(wl, pool, tr, seconds: float | None = None, max_ops: int | None = None,
            probe: SpeedProbe | None = None) -> Phase:
    """Run ops from the start of ``pool``, cyclically, one at a time.

    Stops after ``max_ops`` ops, or once ``seconds`` have passed; a
    workload with ``whole_passes`` set stops only between passes over its
    pool, so every pool item is measured equally often.  A ``probe`` times
    its reference work between ops.
    """
    clock = wl.clock
    phase = Phase()
    reported = False
    start = time.perf_counter()
    deadline = start + (seconds or 0.0)
    stride = len(pool) if wl.whole_passes else 1
    i = 0
    while True:
        if max_ops is not None:
            if i >= max_ops:
                break
        elif i % stride == 0 and time.perf_counter() >= deadline:
            break
        if probe is not None:
            probe.tick(phase.latencies_ns[-1] if phase.latencies_ns else 0)
        item = pool[i % len(pool)]
        tr.op_id = i
        tr.failed_layer = None
        token = tr.begin("harness.op")
        start_ns = time.perf_counter_ns()
        t0 = clock()
        try:
            out = wl.op(item, tr)
            t1 = clock()
            tr.end(token)
        except Exception as exc:  # any exception is a failed op
            t1 = clock()
            tr.end(token)
            wl.on_error(exc, tr)
            bad, out = tr.failed_layer or "harness", None
            if not reported:
                traceback.print_exc(file=sys.stderr)
                reported = True
        else:
            token = tr.begin("harness.check")
            try:
                bad = wl.check(item, out, tr)
            except Exception:
                bad = tr.failed_layer or "harness"
                if not reported:
                    traceback.print_exc(file=sys.stderr)
                    reported = True
            tr.end(token)
        phase.latencies_ns.append(t1 - t0)
        phase.starts_ns.append(start_ns)
        if bad is not None:
            phase.failed += 1
            tr.count(f"{bad}.failures")
        i += 1
    phase.wall_s = time.perf_counter() - start
    if probe is not None:
        probe.tick(force=True)
    return phase


# ============================================================
# Metrics
# ============================================================


def tail_index(count: int) -> int:
    """Index of the highest sample with at least ten samples beyond it."""
    return max(0, count - 11)


def end_to_end(phase: Phase, chunk: int, setup_s: float, rss_mb: float,
               probe: SpeedProbe | None = None) -> dict:
    """End-to-end metrics; with a probe, op times are scaled to reference speed.

    Throughput is ``chunk`` ops (a pass over the pool, or CHUNK ops) over
    the median time of the run's whole chunks, times the share of ops that
    passed their checks: a median, so one slow stretch of the machine
    does not carry the figure.
    """
    lat = phase.latencies_ns
    if probe is not None:
        lat = [d * probe.factor(t, t + d) for d, t in zip(lat, phase.starts_ns)]
    chunk = min(chunk, len(lat))
    per_chunk = statistics.median(
        sum(lat[i:i + chunk]) for i in range(0, len(lat) - chunk + 1, chunk))
    ok_share = (phase.ops - phase.failed) / phase.ops
    lat = sorted(lat)
    idx = tail_index(len(lat))
    return {
        "throughput_ops_per_s": (ok_share * chunk / (per_chunk / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "latency_tail_ms": (lat[idx] / 1e6, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tr: Tracer, wall_s: float, overhead: float, fail_ratio: float,
              probes: dict[str, float]) -> dict:
    durations: dict[str, list[float]] = defaultdict(list)
    for name, start, end, _, _ in tr.spans:
        durations[name].append((end - start) / 1e9)
    counts = tr.counts

    def busy(name: str) -> float:
        return sum(durations.get(name, ()))

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    def layer_busy(layer: str) -> float:
        return sum(sum(v) for k, v in durations.items() if k.split(".", 1)[0] == layer)

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["closed_forms.busy_s"] = (layer_busy("closed_forms"), "s")
    for what in ("threshold_kronecker", "threshold_multipartite", "verdict"):
        m[f"closed_forms.{what}.busy_s"] = (busy(f"closed_forms.{what}"), "s")
        m[f"closed_forms.{what}.calls"] = (calls(f"closed_forms.{what}"), "count")
    m["closed_forms.theta_sum"] = (counts["closed_forms.theta_sum"], "count")

    construct_s = layer_busy("construct")
    cells = counts["construct.cells"]
    m["construct.busy_s"] = (construct_s, "s")
    m["construct.calls"] = (sum(calls(f"construct.{s}") for s in SHAPES), "count")
    m["construct.cells"] = (cells, "count")
    m["construct.us_per_cell"] = (rate(construct_s * 1e6, cells), "us")
    for shape in SHAPES:
        m[f"construct.{shape}.busy_s"] = (busy(f"construct.{shape}"), "s")
        m[f"construct.{shape}.calls"] = (calls(f"construct.{shape}"), "count")

    verify_s = busy("verify")
    vcells = counts["verify.cells"]
    m["verify.busy_s"] = (verify_s, "s")
    m["verify.calls"] = (calls("verify"), "count")
    m["verify.cells"] = (vcells, "count")
    m["verify.ns_per_cell"] = (rate(verify_s * 1e9, vcells), "ns")
    m["verify.pair_checks_computed"] = (counts["verify.pair_checks_computed"], "count")

    for what in ("format", "parse"):
        seconds = busy(f"files.{what}")
        m[f"files.{what}.busy_s"] = (seconds, "s")
        m[f"files.{what}.mb_per_s"] = (rate(counts[f"files.{what}.bytes"] / 1e6, seconds), "MB/s")
    m["files.bytes"] = (counts["files.format.bytes"] + counts["files.parse.bytes"], "bytes")

    m["oracle.kronecker.busy_s"] = (busy("oracle.kronecker"), "s")
    m["oracle.kronecker.calls"] = (calls("oracle.kronecker"), "count")
    m["oracle.kronecker.max_call_s"] = (max(durations.get("oracle.kronecker", [0.0])), "s")
    m["oracle.multipartite.busy_s"] = (busy("oracle.multipartite"), "s")
    m["oracle.multipartite.calls"] = (calls("oracle.multipartite"), "count")
    m["oracle.budget_exceeded"] = (counts["oracle.budget_exceeded"], "count")

    for sub in CLI_SUBS:
        d = durations.get(f"cli.{sub}")
        m[f"cli.{sub}.p50_ms"] = (statistics.median(d) * 1e3 if d else 0.0, "ms")
    m["cli.interpreter_floor_ms"] = (probes.get("floor", 0.0), "ms")
    m["cli.import_ms"] = (probes.get("import", 0.0), "ms")

    for layer in LAYERS:
        m[f"{layer}.failures"] = (counts[f"{layer}.failures"], "count")
    layer_s = sum(layer_busy(layer) for layer in LAYERS)
    m["harness.self_s"] = (wall_s - layer_s, "s")
    m["harness.check_s"] = (busy("harness.check"), "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace_overhead_ratio"] = (overhead, "ratio")
    m["fail_ratio"] = (fail_ratio, "ratio")
    return m


def cli_probes(wl) -> dict[str, float]:
    """Median interpreter floor and package import cost, in ms."""
    floor = statistics.median(wl.probe("pass") for _ in range(PROBE_REPS))
    full = statistics.median(wl.probe("import equicolor.cli") for _ in range(PROBE_REPS))
    return {"floor": floor, "import": full - floor}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


# ============================================================
# Metadata
# ============================================================


def git_sha() -> str | None:
    """HEAD's commit id read from ``.git`` directly; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def metadata(args, phase: Phase, nproc: int) -> dict:
    idx = tail_index(phase.ops)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": nproc,
        "git_sha": git_sha(),
        "src_lines": src_lines(),
        "ops": phase.ops,
        "fail_ratio": phase.failed / phase.ops if phase.ops else None,
        "tail_percentile": 100.0 * (idx + 1) / phase.ops if phase.ops else None,
        "tail_samples": phase.ops,
    }


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# ============================================================
# Modes
# ============================================================


def run(args) -> int:
    require_source()
    nproc = len(os.sched_getaffinity(0))
    # One core for the run and its children, so the reference samples in
    # speed.py come from the core the ops (and CLI children) run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cls = WORKLOADS[args.workload]
    setups = []
    wl = pool = None
    probe = SpeedProbe()
    for _ in range(SETUP_REPS):
        if wl is not None:
            wl.close()
        wl = pool = None
        probe.tick(force=True)
        t0 = time.perf_counter_ns()
        wl = cls(load_library(), args.seed, ROOT)
        pool = wl.generate()
        setups.append((time.perf_counter_ns() - t0, t0))
    probe.tick(force=True)
    setup_s = statistics.median(d * probe.factor(t, t + d) for d, t in setups) / 1e9
    # The pool is the harness's own state: freeze it out of the cyclic
    # collector, or every full collection during an op scans it and
    # charges the op several milliseconds.
    gc.collect()
    gc.freeze()

    try:
        if args.trace:
            untraced = measure(wl, pool, NullTracer(), seconds=args.seconds / 2)
            tr = Tracer()
            traced = measure(wl, pool, tr, max_ops=untraced.ops)
            problems = wl.finish()
            probes = cli_probes(wl) if wl.in_children else {}
            attempted = untraced.ops + traced.ops
            failed = untraced.failed + traced.failed + len(problems)
            overhead = sum(traced.latencies_ns) / sum(untraced.latencies_ns)
            metrics = per_layer(tr, traced.wall_s, overhead, failed / attempted, probes)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.tsv"
            tr.write(trace_path)
            phase = untraced
        else:
            probe = SpeedProbe(time.thread_time_ns)
            phase = measure(wl, pool, NullTracer(), seconds=args.seconds, probe=probe)
            problems = wl.finish()
            attempted = phase.ops
            failed = phase.failed + len(problems)
            chunk = len(pool) if wl.whole_passes else CHUNK
            metrics = end_to_end(phase, chunk, setup_s, peak_rss_mb(wl.in_children), probe)
            raw = end_to_end(phase, chunk, setup_s, 0.0)
    finally:
        wl.close()

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    meta = metadata(args, phase, nproc)
    meta["setup_raw_s"] = [d / 1e9 for d, _ in setups]
    meta["reference_ms"] = probe.reference_ms()
    if not args.trace:
        meta["unscaled"] = {k: raw[k][0] for k in ("throughput_ops_per_s", "latency_p50_ms",
                                                    "latency_tail_ms")}
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": as_json(metrics),
    }))
    return 0


def selftest() -> int:
    """Tiny run of every workload: names complete, checks not vacuous."""
    require_source()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    bad = 0
    for name, cls in WORKLOADS.items():
        for fault in (None, *cls.faults):
            lib = load_library()
            wl = cls(lib, DEFAULT_SEED, ROOT, tiny=True, fault=fault)
            pool = wl.generate()
            wl.lib = inject(lib, fault)
            try:
                plain = measure(wl, pool, NullTracer(), max_ops=len(pool))
                tr = Tracer()
                traced = measure(wl, pool, tr, max_ops=len(pool))
                problems = wl.finish()
                probes = cli_probes(wl) if wl.in_children else {}
            finally:
                wl.close()
            failed = plain.failed + traced.failed + len(problems)
            ratio = failed / (plain.ops + traced.ops)
            e2e = set(end_to_end(plain, len(pool), 0.0, peak_rss_mb(False)))
            layer = set(per_layer(tr, traced.wall_s, 1.0, ratio, probes))
            names_ok = e2e == want_e2e and layer == want_layer
            ratio_ok = ratio == 0 if fault is None else ratio > 0
            verdict = "ok" if names_ok and ratio_ok else "WRONG"
            bad += verdict != "ok"
            print(f"{name:18} {fault or 'clean':8} ops={plain.ops + traced.ops:5d} "
                  f"fail_ratio={ratio:.3f} names={'ok' if names_ok else 'MISMATCH'} {verdict}")
            if not names_ok:
                print(f"  end_to_end missing {sorted(want_e2e - e2e)} extra {sorted(e2e - want_e2e)}")
                print(f"  per_layer missing {sorted(want_layer - layer)} extra {sorted(layer - want_layer)}")
    print("selftest", "passed" if not bad else f"FAILED ({bad} cases)")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.baseline:
        require_source()
        import baseline

        return baseline.main(load_library(), ROOT)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
