"""In-memory spans recorded around the calls ``cli.run_pipeline`` makes into each layer.

The wrappers replace module attributes (and ``PromptBundle.sha256``) for the
duration of a traced call and restore them afterwards; the program's files
are not touched. A query span opens when a worker thread enters
``extract_subgraph`` and closes when that thread's ``PromptBundle.sha256``
returns, or when a wrapped call raises. Spans of one query share its id.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

QUERY_OPEN = "kg_store.extract"
QUERY_CLOSE = "generation.sha256"


@dataclass
class Span:
    span_id: int
    parent: int | None
    query: int | None
    name: str
    start: float
    end: float
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "query": self.query,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "ok": self.ok,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans; ``diagnose`` adds per-call counts computed outside the spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.diagnose = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._patched: list[tuple[object, str, Callable]] = []

    # -- span bookkeeping -----------------------------------------------

    def _query(self) -> Span | None:
        return getattr(self._local, "query", None)

    def _open_query(self, start: float) -> None:
        span = Span(next(self._ids), self._root, None, "cli.query", start, start)
        span.query = span.span_id
        self._local.query = span

    def _close_query(self, end: float, ok: bool) -> None:
        span = self._query()
        if span is not None:
            span.end = end
            span.ok = ok
            self.spans.append(span)
            self._local.query = None

    def root(self, fn: Callable, *args):
        """Call ``fn(*args)`` under the root span ``cli.run_pipeline``."""
        self._root = next(self._ids)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append(
                Span(self._root, None, None, "cli.run_pipeline", start, time.perf_counter())
            )
            self._root = None

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, diag: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper until ``restore()``.

        ``diag(args, kwargs, result)`` returns counts for the span; it runs only
        when ``diagnose`` is set, after the span's end time is taken.
        """
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            if name == QUERY_OPEN:
                tracer._open_query(start)
            query = tracer._query()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                tracer._record(name, query, start, end, False, {})
                tracer._close_query(end, ok=False)
                raise
            end = time.perf_counter()
            attrs = {}
            if diag is not None and tracer.diagnose:
                attrs = diag(args, kwargs, result)
            tracer._record(name, query, start, end, True, attrs)
            if name == QUERY_CLOSE:
                tracer._close_query(end, ok=True)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def _record(self, name, query, start, end, ok, attrs) -> None:
        parent = query.span_id if query is not None else self._root
        self.spans.append(
            Span(
                next(self._ids),
                parent,
                query.span_id if query is not None else None,
                name,
                start,
                end,
                ok,
                attrs,
            )
        )

    def restore(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)
