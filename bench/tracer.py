"""In-memory spans around the benchmark's calls into equicolor.

A workload never calls a library function directly; it goes through
``tracer.call(name, fn, *args)``.  With tracing off that is a plain call.
With tracing on, each call becomes a span (name, start, end, parent span,
op id) kept in memory and written out once the run ends, plus named
counters that the workloads bump at the same boundaries.

Span names are ``<layer>.<what>`` (``verify`` alone for the verifier);
the layer is the part before the first dot.  Layer spans never nest in
one another, so a layer span's self time is its duration, and the
harness self time is the traced wall time minus all layer time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter_ns


class NullTracer:
    """Tracing off: calls go straight through and counters are dropped."""

    enabled = False
    op_id = -1
    failed_layer = None

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, key, amount=1):
        pass

    def begin(self, name):
        return None

    def end(self, token):
        pass


class Tracer:
    """Tracing on: every call and harness phase becomes a span."""

    enabled = True

    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1, op id)
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self.failed_layer: str | None = None
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        """Open a harness span (an op or a check); returns its index."""
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, _now(), 0, parent, self.op_id))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, token: int) -> None:
        name, start, _, parent, op = self.spans[token]
        self.spans[token] = (name, start, _now(), parent, op)
        self._open.pop()

    def call(self, name, fn, *args):
        parent = self._open[-1] if self._open else -1
        start = _now()
        try:
            return fn(*args)
        except BaseException:
            if self.failed_layer is None:
                self.failed_layer = name.split(".", 1)[0]
            raise
        finally:
            self.spans.append((name, start, _now(), parent, self.op_id))

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def write(self, path: Path) -> None:
        """Write spans as tab-separated lines: name start end parent op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")
