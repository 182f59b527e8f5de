"""In-memory span tracer that instruments a library from outside.

`Tracer.wrap` replaces a module-level function or a class method with a
wrapper that records one span per call: its name, start, end, the span that
was open in the same thread when it started (its parent), the root of that
chain, and an optional note computed from the call's arguments and result.
Nothing inside the traced library changes, and `Tracer.restore` puts every
original back.

Self time of a span is its duration minus the time its direct children
cover. Children of a span run in the same thread and nest inside it, so
the self times of a root's tree add up to the root's duration.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    root: int
    thread: int
    note: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = Span(name, 0.0, 0.0, parent, -1, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        span.root = self.spans[parent].root if parent >= 0 else index
        stack.append(index)
        span.start = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Trace calls of ``owner.attr`` under ``name``.

        ``owner`` is a module or a class that defines ``attr`` itself.
        ``note(args, result)`` may return a dict stored on the span; it runs
        after the call, outside the span's interval.
        """
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                self.spans[index].note = note(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped original, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]
