"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own code: around the calls it makes
into a layer, and by wrapping a layer's public callable on the object (or
module) the layer above looks it up from.  Nothing inside the program is
edited.  Each span carries a name, start, end, parent and request id; spans
of one request nest under its ``request`` span.  The recorder keeps every
span in memory and writes them out once, at the end of the run.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end", "attrs", "child_time")

    def __init__(self, span_id: int, parent: Optional["Span"], request: Optional[int], name: str):
        self.id = span_id
        self.parent = parent
        self.request = request
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.attrs: Dict[str, object] = {}
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part of it the child spans cover."""
        return self.duration - self.child_time

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": None if self.parent is None else self.parent.id,
            "request": self.request,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans; wraps callables so that calls into them become spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []
        self.gc_pauses: List[float] = []
        self._gc_started: Optional[float] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, request: bool = False) -> Iterator[Span]:
        """A span under the current one; ``request=True`` opens a new request."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request:
            request_id: Optional[int] = next(self._requests)
        else:
            request_id = parent.request if parent is not None else None
        span = Span(next(self._ids), parent, request_id, name)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_time += span.duration
            self.spans.append(span)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        annotate: Optional[Callable[[Span, object], None]] = None,
    ) -> bool:
        """Replace ``owner.attr`` with a traced version; ``False`` if absent.

        ``owner`` is an instance (the wrapper shadows the class attribute) or
        a module (the wrapper replaces the global callers look up).
        ``annotate(span, result)`` records counts taken from the result.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return False
        had_own = attr in getattr(owner, "__dict__", {})

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(span, result)
                return result

        setattr(owner, attr, traced)

        def undo() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(undo)
        return True

    def unwrap_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- garbage collector pauses --------------------------------------- #
    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pauses.append(time.perf_counter() - self._gc_started)
            self._gc_started = None

    @contextmanager
    def gc_watch(self) -> Iterator[None]:
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    # -- queries over the recorded spans --------------------------------- #
    def named(self, name: str, kind: Optional[str] = None) -> List[Span]:
        """Spans called ``name``; with ``kind``, only those inside a request
        span whose ``kind`` attribute is ``kind``."""
        found = [span for span in self.spans if span.name == name]
        if kind is None:
            return found
        return [span for span in found if _request_kind(span) == kind]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.id):
                out.write(json.dumps(span.as_dict(), separators=(",", ":")) + "\n")


def _request_kind(span: Span) -> Optional[str]:
    node: Optional[Span] = span
    while node is not None:
        if node.name == "request":
            return node.attrs.get("kind")  # type: ignore[return-value]
        node = node.parent
    return None
