"""In-memory spans around calls into the library, for the traced run.

``Tracer.instrument`` replaces each listed public function, in every loaded
``depcalc`` module that holds a reference to it, with a wrapper that records a
span (name, start, end, parent span, op id).  Calls the library makes to
those functions internally are wrapped too, so a span's self time is its
duration minus the time of the spans it caused.  In a memory pass, for the
spans flagged ``mem``, tracemalloc runs while the span is open and the
span's peak allocation above its starting point is kept.  Nothing is
changed inside the library's source; ``restore`` puts the original
functions back.  ``own_s`` sums the tracer's own time inside ops: each
wrapper's time minus the duration of the span it records.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Frame:
    __slots__ = ("index", "name", "start", "inner", "mem", "mem_base", "mem_peak")

    def __init__(self, index: int, name: str, mem: bool):
        self.index = index
        self.name = name
        self.mem = mem
        self.inner = 0.0  # time covered by child spans and tracer bookkeeping
        self.mem_base = 0
        self.mem_peak = 0
        self.start = 0.0


class Tracer:
    """Spans and counters of one traced run.  With track_memory off, spans
    flagged ``mem`` are timed like the others (tracemalloc would slow them)."""

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.spans: list[tuple] = []
        self.stack: list[Frame] = []
        self.op = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.peak_kb: dict[str, float] = {}
        self.own_s = 0.0
        self._patched: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str, mem: bool) -> Frame:
        frame = Frame(len(self.spans), name, mem)
        self.spans.append(None)  # filled in on exit, keeps start order
        if mem:
            holders = [f for f in self.stack if f.mem]
            if not holders:
                tracemalloc.start()
                frame.mem_base = tracemalloc.get_traced_memory()[0]
            else:
                current, peak = tracemalloc.get_traced_memory()
                holders[-1].mem_peak = max(holders[-1].mem_peak, peak)
                frame.mem_base = current
            tracemalloc.reset_peak()
        self.stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _exit(self, frame: Frame, outer_start: float) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame.start
        self.calls[frame.name] += 1
        self.self_s[frame.name] += duration - frame.inner
        parent = self.stack[-1].index if self.stack else -1
        self.spans[frame.index] = (frame.name, frame.start, end, parent, self.op)
        if frame.mem:
            peak = max(tracemalloc.get_traced_memory()[1], frame.mem_peak)
            kb = (peak - frame.mem_base) / 1024
            self.peak_kb[frame.name] = max(self.peak_kb.get(frame.name, 0.0), kb)
            if not any(f.mem for f in self.stack):
                tracemalloc.stop()
        if self.stack:
            # The parent's self time excludes this span and its bookkeeping.
            self.stack[-1].inner += perf_counter() - outer_start

    def _charge(self, frame: Frame, entered: float) -> None:
        """Add a wrapper's time outside its span to the tracer's own time."""
        _, start, end, _, _ = self.spans[frame.index]
        self.own_s += perf_counter() - entered - (end - start)

    @contextmanager
    def span(self, name: str):
        outer_start = perf_counter()
        frame = self._enter(name, False)
        try:
            yield
        finally:
            self._exit(frame, outer_start)
            self._charge(frame, outer_start)

    def exclude(self, seconds: float) -> None:
        """Charge benchmark-side work done inside an open span to no one."""
        if self.stack:
            self.stack[-1].inner += seconds

    # -- instrumentation ----------------------------------------------------

    def wrap(self, name, fn, mem=False, post=None, pre=None, on_error=None):
        tracer = self

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            if pre is not None:
                args = pre(args)
            outer_start = perf_counter()
            frame = tracer._enter(name, mem)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                tracer._exit(frame, outer_start)
                if on_error is not None:
                    on_error(tracer, err)
                tracer._charge(frame, entered)
                raise
            tracer._exit(frame, outer_start)
            if post is not None:
                hook_start = perf_counter()
                post(tracer, args, result)
                tracer.exclude(perf_counter() - hook_start)
            tracer._charge(frame, entered)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def instrument(self, package: str, specs) -> None:
        """specs: (module, function, span name, mem, post, pre, on_error)."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module, func, name, mem, post, pre, on_error in specs:
            original = getattr(sys.modules[f"{package}.{module}"], func)
            wrapper = self.wrap(name, original, mem and self.track_memory, post, pre, on_error)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._patched.append((holder, attr, original))

    def restore(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                if record is not None:
                    out.write(json.dumps(record, separators=(",", ":")) + "\n")
