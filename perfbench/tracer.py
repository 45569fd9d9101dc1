"""In-memory span tracer that wraps spikedcov functions from outside.

Each wrapped callable is replaced where its callers look it up: a module
attribute, a name another module imported, or a class attribute. A span
records name, start, end, parent span, job id and replicate id, plus an
optional amount of work computed from the call's arguments (values drawn,
GFLOP, MB). Parents are tracked per thread. A span opened on a pool thread
with no open span of its own takes the main thread's innermost open span as
its parent: while replicates run on the pool, that is the run_experiment
call waiting for them.

Spans stay in memory until ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "rep", "amount")

    def __init__(self, name, parent, job, rep):
        self.name = name
        self.parent = parent
        self.job = job
        self.rep = rep
        self.start = self.end = 0.0
        self.amount = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = None  # set by the job runner on the main thread
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, amount=None, rep_arg=None):
        """Replace ``owner.attr`` with a traced version.

        ``amount(args, kwargs, result)`` computes the span's work amount;
        ``rep_arg`` is the index of the positional argument holding the
        replicate id, which child spans inherit.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            if rep_arg is not None:
                rep = args[rep_arg]
            else:
                rep = self.spans[parent].rep if parent is not None else None
            span = Span(name, parent, self.job, rep)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if amount is not None:
                span.amount = amount(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "job": s.job,
                            "rep": s.rep,
                            "amount": s.amount,
                        }
                    )
                )
                fh.write("\n")


class SpanStats:
    """Per-name aggregates of a finished trace: calls, busy, self, amount."""

    def __init__(self, spans: list[Span]):
        children = defaultdict(list)
        for i, s in enumerate(spans):
            if s.parent is not None:
                children[s.parent].append(i)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.amount = defaultdict(float)
        self.durations = defaultdict(list)
        for i, s in enumerate(spans):
            duration = s.end - s.start
            covered = _covered(s, [spans[c] for c in children[i]])
            self.calls[s.name] += 1
            self.busy[s.name] += duration
            self.self_time[s.name] += max(duration - covered, 0.0)
            self.amount[s.name] += s.amount
            self.durations[s.name].append(duration)

    def module_self(self) -> dict:
        """Self time summed by module, the first component of a span name."""
        out = defaultdict(float)
        for name, value in self.self_time.items():
            out[name.split(".", 1)[0]] += value
        return out


def _covered(span: Span, kids: list[Span]) -> float:
    """Length of the part of ``span`` that the union of ``kids`` covers.

    Children on pool threads overlap one another, so their durations are
    merged as intervals rather than summed.
    """
    intervals = sorted(
        (max(k.start, span.start), min(k.end, span.end)) for k in kids
    )
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
