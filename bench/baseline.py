"""The ROADMAP's per-layer baseline rows, measured once each.

Run as ``python3 bench/run.py --baseline`` from the repository root.  Each
row times one call (or one loop of calls) on the ROADMAP's instance and
prints it next to the ROADMAP figure; a ratio outside [0.5, 2] is flagged.
The whole table takes about a minute and needs about 300 MB.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

# ROADMAP rows "construct 150x160" time only the layout scan; from outside
# the package the scan cannot be separated from building the coloring, so
# these rows include the build.  Every STRIDE-th k stands in for all k.
STRIDE = 16


def _timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def main(lib: Any, root: Path) -> int:
    P = lib.Params
    rows: list[tuple[str, float, float]] = []

    def row(label: str, roadmap_s: float, seconds: float) -> None:
        rows.append((label, roadmap_s, seconds))
        ratio = seconds / roadmap_s
        flag = "  <-- differs by more than 2x" if not 0.5 <= ratio <= 2 else ""
        print(f"{label:58} {roadmap_s:8.3f} {seconds:8.3f} {ratio:6.2f}{flag}", flush=True)

    print(f"{'row':58} {'roadmap':>8} {'here':>8} {'ratio':>6}")
    for r, want in ((2, 0.036), (5, 0.060)):
        _, s = _timed(lambda: lib.threshold_kronecker(P(7, 10**10, r)))
        row(f"threshold_kronecker m=7 n=1e10 r={r}", want, s)

    p = P(150, 160, 3)
    per_k = [_timed(lambda: lib.color_kronecker(p, k))[1]
             for k in range(p.n + 1, 6 * p.n + 1, STRIDE)]
    row("construct 150x160 r=3, worst sampled k (scan+build)", 0.047, max(per_k))
    row(f"construct 150x160 r=3, all k in (n,6n] (1/{STRIDE} sampled)", 12.7,
        sum(per_k) * STRIDE)

    p = P(700, 800, 1)
    big, s = _timed(lambda: lib.color_kronecker(p, 2000))
    row("construct 700x800 r=1 k=2000", 0.71, s)
    report, s = _timed(lambda: lib.verify(1, big))
    row("verify 700x800 r=1 k=2000", 6.60, s)
    text, s = _timed(lambda: lib.format_coloring(big))
    row(f"format 700x800 ({len(text) / 1e6:.1f} MB)", 0.21, s)
    back, s = _timed(lambda: lib.parse_coloring(text))
    row("parse 700x800", 1.09, s)
    if not report.valid or back.k != big.k:
        print("error: the 700x800 witness did not check out", file=sys.stderr)
        return 1
    del big, back, text

    p = P(300, 300, 2)
    mid, s = _timed(lambda: lib.color_kronecker(p, 300))
    row("construct 300x300 r=2 k=300", 0.05, s)
    _, s = _timed(lambda: lib.verify(2, mid))
    row("verify 300x300 r=2 k=300", 0.90, s)
    del mid

    built = 0
    construct_s = verify_s = 0.0
    for m in range(2, 17):
        for n in range(m, 17):
            for r in range(1, 4):
                q = P(m, n, r)
                for k in range(1, m * n + 2):
                    if not lib.kronecker_colorable(q, k):
                        continue
                    c, s = _timed(lambda: lib.color_kronecker(q, k))
                    construct_s += s
                    rep, s = _timed(lambda: lib.verify(r, c))
                    verify_s += s
                    built += rep.valid
    row(f"sweep m,n<=16 r<=3 construct ({built} witnesses)", 5.5, construct_s)
    row("sweep m,n<=16 r<=3 verify", 3.2, verify_s)

    env_path = str(root / "src")
    out = root / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    eqc = out / "baseline-400x500.eqc"

    def cli(*argv: str) -> float:
        cmd = [sys.executable, *argv]
        proc, s = _timed(lambda: subprocess.run(
            cmd, capture_output=True, env={"PYTHONPATH": env_path}, cwd=root, check=False))
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr!r}")
        return s

    try:
        row("python -c pass", 0.064, cli("-c", "pass"))
        row("CLI threshold 3x7 r=2", 0.126,
            cli("-m", "equicolor.cli", "threshold", "-m", "3", "-n", "7", "-r", "2",
                "--family", "kronecker"))
        row("CLI color --out 400x500 r=1 k=600", 3.31,
            cli("-m", "equicolor.cli", "color", "-m", "400", "-n", "500", "-r", "1",
                "-k", "600", "--out", str(eqc)))
        row("CLI verify of that file", 3.16,
            cli("-m", "equicolor.cli", "verify", "-r", "1", str(eqc)))
    finally:
        eqc.unlink(missing_ok=True)

    (out / "baseline.json").write_text(json.dumps(
        [{"row": label, "roadmap_s": want, "seconds": got} for label, want, got in rows],
        indent=2) + "\n")
    return 0
