"""In-memory spans around calls into the package's modules.

A span records its name, start, end and parent, plus the rise in the
process's peak RSS while it ran and any counts taken from the call's return
value. Spans are kept in a list and handed back when the run ends.

Wrapping replaces a module attribute, so it traces every call that looks the
name up there at call time: the benchmark's own ``io.build_index(...)`` and
the calls ``io.build_index`` makes to the functions ``io`` imported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


def peak_rss_mb() -> float:
    """Peak resident set size of this process image so far.

    Read from VmHWM: ``ru_maxrss`` would carry the parent's peak over into a
    child started by fork and exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("/proc/self/status reports no VmHWM")


@dataclass
class Span:
    name: str
    parent: int | None        # index of the enclosing span
    start: float
    end: float = 0.0
    rss_rise_mb: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class TracingError(RuntimeError):
    """The package no longer has, or no longer calls, a traced function."""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, counts=None) -> None:
        """Trace calls to ``module.attr``; ``counts(result)`` may return a
        dict of counts to attach to the span."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise TracingError(f"{module.__name__}.{attr} is gone; cannot trace it")
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            span = Span(name=name, parent=self._stack[-1] if self._stack else None,
                        start=0.0)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            rss0 = peak_rss_mb()
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss_rise_mb = peak_rss_mb() - rss0
                self._stack.pop()
            if counts is not None:
                span.counts = counts(out)
            return out

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def one(self, name: str) -> Span:
        """The single span with this name; fails loudly if it never ran."""
        found = [s for s in self.spans if s.name == name]
        if len(found) != 1:
            raise TracingError(f"expected one {name} span, recorded {len(found)}")
        return found[0]

    def self_time(self, idx: int) -> float:
        """Duration of span ``idx`` minus the part its children cover."""
        span = self.spans[idx]
        kids = sorted((max(s.start, span.start), min(s.end, span.end))
                      for s in self.spans if s.parent == idx)
        covered, reach = 0.0, span.start
        for b, e in kids:
            b = max(b, reach)
            if e > b:
                covered += e - b
                reach = e
        return span.duration - covered

    def report(self) -> list[dict]:
        return [{"name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
                 "self_s": self.self_time(k), "rss_rise_mb": s.rss_rise_mb, **s.counts}
                for k, s in enumerate(self.spans)]
