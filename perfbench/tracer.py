"""In-memory spans recorded around calls into manipsem's public functions.

Spans are recorded from outside the program: the tracer swaps module
attributes for timing wrappers while a traced run is active and puts the
originals back afterwards, so no file under ``src/`` changes.  Each span
carries its name, start and end (``perf_counter`` seconds), the id of the
enclosing span and the id of the request it belongs to, plus optional
counts.  Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder with a stack of open spans (single-threaded use)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.request: int | None = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                  self.request, attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, attrs_of=None):
        """``fn`` with every call recorded as a span called ``name``.

        ``attrs_of(args, kwargs, result)`` may return counts to attach.
        """
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if attrs_of is not None:
                sp.attrs.update(attrs_of(args, kwargs, result))
            return result
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for ``(owner, attr, span_name, attrs_of)`` targets.

        ``owner`` is a module or a class; classmethods are re-wrapped as
        classmethods.  The originals are restored on exit.
        """
        saved = []
        try:
            for owner, attr, name, attrs_of in targets:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, attrs_of)))
                else:
                    setattr(owner, attr, self.wrap(raw, name, attrs_of))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request, **s.attrs}) + "\n")

