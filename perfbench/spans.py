"""Spans recorded from outside the program, by wrapping module functions.

`Tracer.patch` replaces a function with a timing wrapper in every `pmu`
module that binds it, so calls made through `from .x import f` names are
caught as well.  A wrapper made with `layer=True` records only while
`Tracer.layers` is on; the others always record.  Spans are kept in memory
as (name, start, end, parent, op, count, traced) and written out once, when
the run ends.  A layer's self time is its span minus the spans of its
direct children.  After each span that always records, the tracer's
`HostClock`, if it has one, gets a chance to calibrate.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=None):
        self.clock = clock
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []
        self.op = None
        self.layers = False

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, count=None, on_enter=None, layer=False):
        """`count(args, kwargs, result)` gives the span's work count;
        `on_enter(args, kwargs)` may set `self.op`, the step or utterance
        id that later spans carry.  A `layer` span records only while
        `self.layers` is on."""
        tracer = self

        def wrapper(*args, **kwargs):
            if layer and not tracer.layers:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args, kwargs)
            idx, traced = len(tracer.spans), tracer.layers
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            result, n = None, 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                if count is not None and result is not None:
                    n = count(args, kwargs, result)
                tracer.spans[idx] = (name, t0, t1, parent, tracer.op, n,
                                     traced)
                if not layer and tracer.clock is not None:
                    tracer.clock.tick()

        return wrapper

    def patch(self, owner, attr: str, name: str, **kw):
        """Time `owner.attr` as spans called `name`."""
        self.replace(owner, attr, lambda fn: self.wrap(name, fn, **kw))

    def replace(self, owner, attr: str, make):
        """Swap `owner.attr` for `make(original)` wherever a loaded `pmu`
        module binds that same object; a class attribute is replaced on the
        class alone."""
        original = getattr(owner, attr)
        new = make(original)
        targets = [owner] if isinstance(owner, type) else [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "pmu" or n.startswith("pmu."))
            and getattr(m, attr, None) is original]
        for target in targets:
            setattr(target, attr, new)
            self._patches.append((target, attr, original))

    def unpatch(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------

    def closed(self) -> list:
        return [s for s in self.spans if s is not None]

    def traced(self) -> "Tracer":
        """A view holding only the spans recorded while `layers` was on;
        span indices, and so parents, are kept."""
        view = Tracer()
        view.spans = [s if s is not None and s[6] else None for s in self.spans]
        return view

    def durations(self, name: str, parent_name: str | None = None) -> list[float]:
        """Inclusive durations in seconds of every span called `name`,
        optionally only those whose direct parent is called `parent_name`."""
        out = []
        for s in self.closed():
            if s[0] != name:
                continue
            if parent_name is not None:
                if s[3] < 0 or self.spans[s[3]] is None \
                        or self.spans[s[3]][0] != parent_name:
                    continue
            out.append(s[2] - s[1])
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        child = defaultdict(float)
        for s in self.closed():
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        total = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s is not None:
                total[s[0]] += (s[2] - s[1]) - child[i]
        return dict(total)

    def counts(self, name: str) -> int:
        return sum(s[5] for s in self.closed() if s[0] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.closed() if s[0] == name)

    def clear(self):
        self.spans.clear()
        self._stack.clear()

    def write(self, path: str, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            base = min((s[1] for s in self.closed()), default=0.0)
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, t0, t1, parent, op, n, traced = s
                fh.write(json.dumps({
                    "id": i, "name": name, "start_s": t0 - base,
                    "end_s": t1 - base, "parent": parent, "op": op,
                    "count": n, "traced": traced}) + "\n")
