"""Spans and counts recorded around gradba's layer functions.

The wrappers replace a function where its callers look it up (a module
attribute or a class attribute), so a call from inside gradba is seen as
well as a call from the benchmark. Each span holds its name, start, end, its
parent span and the phase (a set-up or a timed operation) it ran in. Spans
and counts stay in memory until the run writes them out.
"""

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, phase]
        self.counts = Counter()  # (phase, name) -> count
        self.phases = []         # (phase, kind)
        self._stack = []
        self._phase = None
        self._installed = []

    # -- recording -----------------------------------------------------------

    def begin_phase(self, kind):
        self._phase = len(self.phases)
        self.phases.append((self._phase, kind))
        return self._phase

    def end_phase(self):
        self._phase = None

    def add(self, name, value=1):
        if self._phase is not None:
            self.counts[(self._phase, name)] += value

    def span(self, name, fn, on_result=None):
        """``fn`` wrapped to record a span; ``on_result(tracer, result)``
        may add counts taken from the return value."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._phase is None:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), None,
                   self._stack[-1] if self._stack else -1, self._phase]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            self.counts[(self._phase, name + "_calls")] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    def counter(self, name, fn):
        """``fn`` wrapped to count its calls only; its time stays with the
        caller's span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name + "_calls")
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, targets):
        """targets: (owner, attribute, name, kind, on_result) tuples, where
        owner is a module or a class and kind is "span" or "count"."""
        for owner, attr, name, kind, on_result in targets:
            original = owner.__dict__[attr]
            if kind == "span":
                wrapped = self.span(name, original, on_result)
            else:
                wrapped = self.counter(name, original)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def self_times(self):
        """{(phase, name): self seconds}; self time is a span's duration
        minus the durations of its direct children (spans nest, since the
        run has one thread)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for k, (name, start, end, parent, phase) in enumerate(self.spans):
            out[(phase, name)] += (end - start) - child[k]
        return out

    def dump(self):
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        return {
            "span_names": names,
            "spans": [[index[n], s, e, p, ph] for n, s, e, p, ph in self.spans],
            "phases": self.phases,
            "counts": [[ph, n, c] for (ph, n), c in sorted(self.counts.items())],
        }
