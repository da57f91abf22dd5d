"""In-process span tracer for the benchmark's traced run.

The tracer replaces chosen functions with timing wrappers. Each call becomes a
span: the span that was open when it started (its parent), a name, a start and
an end. A span's self time is its duration minus the time its direct children
cover, so the self times of all spans sum to the time spent inside any span.

Nothing under src/ knows about the tracer: wrappers are installed on module
and class attributes from outside and removed again by uninstall().
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        # one entry per span, in start order; flat arrays keep the cyclic
        # garbage collector from walking millions of small span objects
        self.parents = array("q")  # index of the enclosing span, -1 at top level
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter = Counter()
        self.open: Counter = Counter()  # names of the spans open right now
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, hook=None):
        """Return a wrapper that records one span per call of fn.

        name is a string or a function of (args, kwargs) giving one. hook, if
        given, is called as hook(tracer, args, kwargs, result) after the span
        closes, to add counts; its cost falls outside the span.
        """
        name_of = name if callable(name) else (lambda args, kwargs: name)
        parents, names, starts, ends = self.parents, self.names, self.starts, self.ends
        stack, open_names, clock = self._stack, self.open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs)
            index = len(names)
            parents.append(stack[-1] if stack else -1)
            names.append(span_name)
            ends.append(0.0)
            stack.append(index)
            open_names[span_name] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                open_names[span_name] -= 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def patch_function(self, fn, name, modules, hook=None) -> None:
        """Wrap fn at every attribute of the given modules that refers to it.

        Modules import each other's functions by name, so wrapping only the
        defining module would let those calls escape the trace.
        """
        wrapper = self.wrap(fn, name, hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, attr: str, name, hook=None) -> None:
        """Wrap a plain method or a staticmethod on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(raw.__func__, name, hook))
        else:
            replacement = self.wrap(raw, name, hook)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self time and call count per span name."""
        child_time = [0.0] * len(self.names)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, child in zip(self.names, self.starts, self.ends, child_time):
            totals[name] += end - start - child
            calls[name] += 1
        return dict(totals), calls

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart\tend\n")
            for index, row in enumerate(zip(self.parents, self.names, self.starts, self.ends)):
                parent, name, start, end = row
                fh.write(f"{index}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
