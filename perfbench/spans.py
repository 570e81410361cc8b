"""Function wrappers that time calls into the library from outside.

A :class:`Tracer` records one span per wrapped call: its layer name, its
start and end on ``time.perf_counter`` and the index of the span that was
open when it started.  Spans stay in memory until the run ends; the
self time of a span is its duration minus the durations of its direct
children.  Wrappers also add per-call counts (Newton iterations, QP
iterations, ...) read from the wrapped function's result.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict

__all__ = ["Tracer", "patched"]


@contextlib.contextmanager
def patched(wrappers):
    """Replace ``owner.attr`` by ``wrap(owner.attr)`` for each triple, then restore.

    A later triple for the same attribute wraps the earlier wrapper; the
    originals are restored in reverse order.
    """
    saved = []
    try:
        for owner, attr, wrap in wrappers:
            current = owner.__dict__[attr]
            saved.append((owner, attr, current))
            setattr(owner, attr, wrap(current))
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder for wrapped library functions.

    Spans live in flat arrays, which the garbage collector does not scan,
    so that a long run's spans do not slow the code being traced.
    """

    def __init__(self):
        self.names = []  # layer names; spans refer to them by index
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._stack = []
        self.counts = defaultdict(float)

    @property
    def spans(self):
        """``(name, start, end, parent index)`` of every span, in start order."""
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self._name, self._start, self._end, self._parent)
        ]

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(result)`` may return a dict of counts to add under
        ``name.<key>`` for every call.
        """
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        names, starts, ends, parents = self._name, self._start, self._end, self._parent
        stack, counts = self._stack, self.counts
        keys = {}
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(result).items():
                    full = keys.get(key) or keys.setdefault(key, f"{name}.{key}")
                    counts[full] += value
            return result

        return traced

    def summary(self):
        """Per layer name: ``(calls, total self seconds)``."""
        duration = [e - s for s, e in zip(self._start, self._end)]
        own = duration[:]
        for d, p in zip(duration, self._parent):
            if p >= 0:
                own[p] -= d
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for n, t in zip(self._name, own):
            calls[n] += 1
            self_s[n] += t
        return {self.names[n]: (calls[n], self_s[n]) for n in calls}
