"""Span recording around the program's public entry points.

Only the traced run installs a :class:`Tracer`. It replaces each named
entry point (a class method or module function) with a wrapper that
records ``(request, span, parent, name, start, end, note)``; the
originals are put back by :meth:`Tracer.uninstall`. Spans of one
request share the request's id, including spans recorded on executor
threads, which inherit the submitter's context through
:meth:`Tracer.carry`. Spans are kept in memory and dumped at the end.

A span's self time is its duration minus the part of its interval that
its children cover. Summed over a request's tree, self times add up to
the root's duration; the root's own self time is the part no layer
span accounts for (the unattributed remainder).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[object, int, Optional[int], str, float, float, object]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _context(self) -> Optional[Tuple[object, int]]:
        return getattr(self._local, "context", None)

    def _open(self, request: object = None) -> Tuple[object, Optional[int], int]:
        parent = self._context()
        span = next(self._ids)
        if parent is not None:
            request = parent[0]
        self._local.context = (request, span)
        return request, parent[1] if parent is not None else None, span

    def _close(self, opened, name: str, start: float, end: float, note=None) -> None:
        request, parent, span = opened
        self._local.context = (request, parent) if parent is not None else None
        self.spans.append((request, span, parent, name, start, end, note))

    def wrap(self, owner, attribute: str, name: str,
             note: Optional[Callable[[tuple, object], object]] = None) -> None:
        """Record a ``name`` span around every call of ``owner.attribute``.

        ``note(args, result)``, when given, is stored with the span.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            opened = tracer._open()
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._close(opened, name, start, end,
                              None if note is None else note(args, result))

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def carry(self, owner, attribute: str, wait_name: str) -> None:
        """Trace a ``submit(fn, *args)`` hand-off to another thread.

        The task inherits the submitter's context; the interval from
        submission to the task starting is recorded as ``wait_name``.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def submit(instance, fn, *args):
            context = tracer._context()
            if not tracer.enabled or context is None:
                return original(instance, fn, *args)
            submitted = time.perf_counter()

            @functools.wraps(fn)
            def task(*task_args):
                started = time.perf_counter()
                request, parent = context
                tracer.spans.append(
                    (request, next(tracer._ids), parent, wait_name, submitted, started, None)
                )
                tracer._local.context = context
                try:
                    return fn(*task_args)
                finally:
                    tracer._local.context = None

            return original(instance, task, *args)

        setattr(owner, attribute, submit)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        self.enabled = False
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def root(self, request: object, name: str, start: float):
        """Open a root span that started at ``start`` (e.g. a due time)."""
        self._local.context = None
        return self._open(request), name, start

    def end_root(self, token, end: Optional[float] = None) -> None:
        opened, name, start = token
        self._close(opened, name, start, time.perf_counter() if end is None else end)

    def child(self, token, name: str, start: float, end: float) -> None:
        """Record an already-measured child of an open root."""
        (request, _parent, span), _name, _start = token
        self.spans.append((request, next(self._ids), span, name, start, end, None))

    def rooted(self, name: str, fn: Callable) -> Callable:
        """``fn`` run as its own root span, keyed by a running count."""
        counter = itertools.count()

        def run(*args):
            token = self.root(f"{name}-{next(counter)}", name, time.perf_counter())
            try:
                return fn(*args)
            finally:
                self.end_root(token)

        return run

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {"request": str(request), "span": span, "parent": parent,
                     "name": name, "start": start, "end": end, "note": note}
                    for request, span, parent, name, start, end, note in self.spans
                ],
                handle,
            )


def _covered(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, start
    for left, right in sorted(intervals):
        left, right = max(left, reach), min(right, end)
        if right > left:
            total += right - left
            reach = right
    return total


class Analysis:
    """Self and inclusive time per span name.

    ``self_s``/``total_s``/``count`` cover every span; ``request_self_s``
    only spans under ``request`` roots, so that it adds up to the
    requests' latency.
    """

    def __init__(self, spans: List[Span]) -> None:
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        parent_of: Dict[int, Optional[int]] = {}
        name_of: Dict[int, str] = {}
        for _request, span, parent, name, start, end, _note in spans:
            parent_of[span] = parent
            name_of[span] = name
            if parent is not None:
                children[parent].append((start, end))

        def root_name(span: int) -> str:
            while parent_of.get(span) is not None:
                span = parent_of[span]
            return name_of.get(span, "orphan")

        self.self_s: Dict[str, float] = defaultdict(float)
        self.request_self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        self.notes: Dict[str, List[Tuple[object, float]]] = defaultdict(list)
        self.roots: Dict[str, List[float]] = defaultdict(list)
        for _request, span, parent, name, start, end, note in spans:
            duration = end - start
            own = duration - _covered(start, end, children.get(span, []))
            self.total_s[name] += duration
            self.self_s[name] += own
            if root_name(span) == "request":
                self.request_self_s[name] += own
            self.count[name] += 1
            if note is not None:
                self.notes[name].append((note, duration))
            if parent is None:
                self.roots[name].append(duration)

    def per(self, name: str, divisor: int, own: bool = False) -> float:
        """Milliseconds of ``name`` (self time if ``own``) per ``divisor``."""
        table = self.self_s if own else self.total_s
        return table.get(name, 0.0) * 1e3 / divisor if divisor else 0.0
