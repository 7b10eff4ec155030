"""In-memory span recorder for the traced benchmark run.

A span is recorded by wrapping a public function at the module attribute its
caller resolves (``wbanet.model.wave_attention``, ``wbanet.tensor.matmul``,
``Tensor.backward`` ...), so the program itself is not edited. Spans are kept
in a list and analysed after the run; nothing is written while timing.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable

ROOT = -1   # parent index of a span that has no parent


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index into the span list, or ROOT
    run_id: int


@dataclass
class Tracer:
    """Records nested spans from wrapped callables while ``active`` is set."""
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    run_id: int = 0
    active: bool = False
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code that is not a call."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else ROOT
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent,
                               self.run_id))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str,
             count: Callable[[object], dict[str, float]] | None = None):
        """Replace ``owner.attr`` by a recording wrapper until ``unwrap_all``.

        ``count`` maps the call's return value to counter increments, for
        work that is visible only in a result (e.g. FCM iterations).
        """
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            if not self.active:
                return inner(*args, **kwargs)
            idx = self._enter(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self._exit(idx)
            if count is not None:
                for key, inc in count(result).items():
                    self.counters[key] = self.counters.get(key, 0) + inc
            return result

        self._undo.append((owner, attr, inner))
        setattr(owner, attr, wrapper)

    def unwrap_all(self):
        while self._undo:
            owner, attr, inner = self._undo.pop()
            setattr(owner, attr, inner)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent != ROOT:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


# Percentiles tried for a tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it.

    Nearest-rank percentile: the value at rank ``ceil(p/100 * n)`` of the
    sorted samples, which leaves ``n - rank`` samples above it. Returns
    ``(percentile, value)``, or None when fewer than 20 samples exist.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(round(p * n / 100.0, 9)))
        if n - rank >= 10:
            return p, xs[rank - 1]
    return None
