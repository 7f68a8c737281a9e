"""Pass clocks, operation accounting and in-memory spans.

A pass times the library calls a workload makes.  Oracle checks run
between calls with the pass clocks stopped, so wall and CPU figures
cover library work (plus the benchmark's own glue) and never the gate.
When a pass is traced, each call and each check also leaves a span
(name, start, end, parent, pass id); spans stay in memory until the
worker writes them out at exit.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass


def clock() -> float:
    """System-wide monotonic seconds, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int

    def as_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent, self.pass_id]


class Ledger:
    """Attempted and failed operations per module, plus the first few reasons."""

    MAX_REASONS = 20

    def __init__(self) -> None:
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.reasons: list[str] = []

    def attempt(self, module: str) -> None:
        self.attempted[module] = self.attempted.get(module, 0) + 1

    def fail(self, module: str, reason: str) -> None:
        self.failed[module] = self.failed.get(module, 0) + 1
        if len(self.reasons) < self.MAX_REASONS:
            self.reasons.append(f"{module}: {reason}")

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


class Pass:
    """One timed pass of a workload.

    ``call`` runs a library function inside the pass clocks.  ``check``
    runs an oracle comparison outside them and records the outcome as one
    operation of ``module``.  A call that raises is a failed operation;
    its result is None and the workload skips the checks that need it.
    """

    def __init__(self, ledger: Ledger, pass_id: int, spans: list[Span] | None) -> None:
        self.ledger = ledger
        self.pass_id = pass_id
        self.spans = spans
        self._root: int | None = None
        self._paused_wall = 0.0
        self._paused_cpu = 0.0
        self.wall = self.cpu = 0.0
        self.counts: dict[str, int] = {}

    def __enter__(self) -> "Pass":
        self._t0, self._c0 = clock(), time.process_time()
        if self.spans is not None:
            self._root = self._open("pass", self._t0, None)
        return self

    def __exit__(self, *exc) -> None:
        t1, c1 = clock(), time.process_time()
        if self._root is not None:
            self.spans[self._root].end = t1
        self.wall = (t1 - self._t0) - self._paused_wall
        self.cpu = (c1 - self._c0) - self._paused_cpu

    def _open(self, name: str, start: float, parent: int | None) -> int:
        sid = len(self.spans)
        self.spans.append(Span(sid, name, start, start, parent, self.pass_id))
        return sid

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as the library operation ``name`` ("module.function")."""
        sid = None
        if self.spans is not None:
            sid = self._open(name, clock(), self._root)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation
            self._outside(lambda: self._record_raise(name, exc))
            return None
        finally:
            if sid is not None:
                self.spans[sid].end = clock()

    def _record_raise(self, name: str, exc: Exception) -> None:
        module = name.split(".", 1)[0]
        self.ledger.attempt(module)
        tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
        self.ledger.fail(module, f"{name} raised {tb}")

    def count(self, name: str, n: int) -> None:
        """Add ``n`` to a work counter of this pass."""
        self.counts[name] = self.counts.get(name, 0) + n

    def check(self, module: str, what: str, predicate) -> bool:
        """Record one operation of ``module``, failed if ``predicate()``
        is false or raises."""

        def run() -> bool:
            self.ledger.attempt(module)
            try:
                ok = bool(predicate())
            except Exception as exc:  # an oracle mismatch that raised
                ok = False
                what_ = f"{what} ({type(exc).__name__}: {exc})"
            else:
                what_ = what
            if not ok:
                self.ledger.fail(module, what_)
            return ok

        return self._outside(run, f"check.{module}")

    def _outside(self, fn, span_name: str | None = None):
        t0, c0 = clock(), time.process_time()
        sid = self._open(span_name, t0, self._root) if span_name and self.spans is not None else None
        try:
            return fn()
        finally:
            t1 = clock()
            self._paused_wall += t1 - t0
            self._paused_cpu += time.process_time() - c0
            if sid is not None:
                self.spans[sid].end = t1


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its direct children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out
