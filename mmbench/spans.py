"""In-memory call spans recorded around functions of the program under test.

A span holds its name, start and end (``time.perf_counter`` seconds), the
index of the span that was open when it began, and optional extras: the
``tracemalloc`` peak of the call and facts noted from its arguments and
result.  Spans stay in memory; the caller serialises ``Tracer.spans`` when
the run ends.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Any, Callable

Note = Callable[[tuple, dict, Any], dict]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args: tuple = (), kwargs: dict | None = None,
             memory: bool = False, note: Note | None = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        With ``memory`` the span records the peak of memory allocated during
        the call, in MB, as seen by ``tracemalloc``; such spans must not nest.
        """
        kwargs = kwargs or {}
        span = {"name": name, "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(span)
        started = False
        if memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                started = True
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            if memory:
                span["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                if started:
                    tracemalloc.stop()
            self._open.pop()
        if note is not None:
            span.update(note(args, kwargs, result))
        return result

    def wrap(self, owner: object, attr: str, name: str, memory: bool = False,
             note: Note | None = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until ``restore``."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, memory=memory, note=note)

        self._restore.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def children(spans: list[dict], parent: int) -> list[dict]:
    return [s for s in spans if s["parent"] == parent]


def self_time(spans: list[dict], index: int) -> float:
    """The span's duration minus the time its direct children cover.

    Children of one span run one after another (the program is single
    threaded), so their durations do not overlap and can be summed.
    """
    return duration(spans[index]) - sum(duration(s) for s in children(spans, index))
