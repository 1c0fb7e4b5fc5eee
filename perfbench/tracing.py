"""Span recorder for the traced benchmark run.

Spans are opened by the benchmark around its calls into ``diexact``; nothing
inside the package is instrumented.  Where the package calls a function
itself, ``Tracer.instrument`` swaps the name the caller looks it up by for a
wrapper that opens a span, for as long as the traced pass lasts, so the
traced and untraced runs go through the same code.  Each span keeps its name, start, end,
parent and the op it belongs to (-1 outside any op), in memory, until the
pass is summarised.  A span's self time is its duration minus the time its
direct children cover; calls are sequential, so that is the sum of the
children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    traced = True

    def __init__(self) -> None:
        # [name, start, end, parent index, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def instrument(self, targets):
        """Wrap each ``(module, attribute, span name)`` target in a span
        until the block ends."""
        saved = [(module, attribute, getattr(module, attribute)) for module, attribute, _ in targets]
        for (module, attribute, original), (_, _, name) in zip(saved, targets):
            setattr(module, attribute, self._wrap(name, original))
        try:
            yield
        finally:
            for module, attribute, original in saved:
                setattr(module, attribute, original)

    def _wrap(self, name: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return wrapper

    def summary(self) -> tuple[dict[str, float], float, float]:
        """Self time per span name; the summed duration of the ops' root
        spans; and the part of it that no named layer span covers (the
        roots' self time)."""
        covered: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        per_name: dict[str, float] = defaultdict(float)
        op_time = uncovered = 0.0
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            own = (end - start) - covered[index]
            per_name[name] += own
            if op >= 0 and parent < 0:
                op_time += end - start
                uncovered += own
        return dict(per_name), op_time, uncovered


class NullTracer:
    """Stands in for ``Tracer`` in the untraced run; every span is a no-op."""

    traced = False
    op_id = -1
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def instrument(self, targets):
        return self._null
