"""In-memory span recorder and the call wrappers of the traced run.

The traced run wraps public calls of each layer *where they are looked
up* -- a module global, a class attribute, or an instance attribute --
so the wrapper is the object the caller actually reaches.  Every wrapped
call records one :class:`Span` (name, start, end, parent, tag); spans
stay in memory and are written out once, at the end, as Chrome
trace-event JSON (Perfetto and ``chrome://tracing`` open it as is).

Time comes from an injected clock (a zero-argument callable returning
seconds), so the self-tests drive the recorder with a fake clock.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Marks an attribute that was not in the owner's own ``__dict__`` before
#: it was wrapped (restoring deletes the wrapper instead of re-setting).
_ABSENT = object()


@dataclass
class Span:
    """One wrapped call: ``[start, end]`` on the tracer clock."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    tag: object = None
    stacked: bool = True

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls and restores the originals on exit.

    Synchronous spans nest through a stack: a span opened while another
    is open becomes its child.  Coroutine spans (``wrap_async``) overlap
    freely on the event loop, so they never join the stack and have no
    parent.  ``after`` hooks run once the span has closed, so the counting
    they do is charged to tracing overhead, not to the layer.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patches: List[tuple] = []

    # -- spans -------------------------------------------------------------------

    def open(self, name: str, tag: object = None, stacked: bool = True) -> Span:
        parent = self._stack[-1].id if (stacked and self._stack) else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, tag, stacked)
        self.spans.append(span)
        if stacked:
            self._stack.append(span)
        return span

    def close(self, span: Span, stacked: bool = True) -> None:
        span.end = self.clock()
        if stacked:
            top = self._stack.pop()
            if top is not span:
                raise RuntimeError(f"span {span.name!r} closed out of order")

    # -- wrapping ----------------------------------------------------------------

    def _install(self, owner, attr: str, wrapper) -> None:
        previous = vars(owner).get(attr, _ABSENT)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, previous))

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
        tag: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``tag(args, kwargs)`` labels the span (batch or request id);
        ``after(args, kwargs, result, span)`` sees the call's outcome.
        A missing attribute raises: a renamed layer must fail the run,
        not silently drop out of the breakdown.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name, tag(args, kwargs) if tag else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(args, kwargs, result, span)
            return result

        self._install(owner, attr, wrapper)

    def wrap_async(
        self,
        owner,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        tag: Optional[Callable] = None,
    ) -> None:
        """Like :meth:`wrap` for a coroutine method; spans are unstacked.

        ``before(args, kwargs, span)`` runs when the call starts (before
        the first await), while the caller's order is still the
        submission order.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            span = self.open(
                name, tag(args, kwargs) if tag else None, stacked=False
            )
            if before is not None:
                before(args, kwargs, span)
            try:
                return await original(*args, **kwargs)
            finally:
                self.close(span, stacked=False)

        self._install(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus the time of its children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span.duration - child_time[span.id]
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def nesting_errors(self) -> List[str]:
        """Spans that are open, end before they start, or leak out of
        their parent's interval (an empty list means they nest)."""
        errors: List[str] = []
        if self._stack:
            errors.append(f"{len(self._stack)} spans still open")
        for span in self.spans:
            if span.end < span.start:
                errors.append(f"span {span.id} {span.name} ends before it starts")
            if span.parent is None:
                continue
            if not 0 <= span.parent < span.id:
                errors.append(f"span {span.id} {span.name} has bad parent")
                continue
            parent = self.spans[span.parent]
            if span.start < parent.start or span.end > parent.end:
                errors.append(
                    f"span {span.id} {span.name} leaks out of parent "
                    f"{parent.id} {parent.name}"
                )
        return errors

    def chrome_trace(self, metadata: Optional[dict] = None) -> dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                # Unstacked (coroutine) spans overlap, so they get a row
                # of their own; stacked spans nest on row 0.
                "tid": 0 if span.stacked else 1,
                "args": {"id": span.id, "parent": span.parent, "tag": span.tag},
            }
            for span in self.spans
        ]
        return {"traceEvents": events, "metadata": metadata or {}}

    def write(self, path, metadata: Optional[dict] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(metadata), handle, default=str)
