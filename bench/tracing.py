"""Spans around calls into asymdynkin, kept in memory and reduced to self times.

A span is opened by the benchmark around one call into a package layer.
Spans nest; a span's self time is its duration minus the duration of its
direct children, so a layer that calls another layer is charged only for its
own work.  Nothing is written while the work runs: ``take`` reduces the spans
recorded since the previous call and clears them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Callable

_NULL = nullcontext()


class Tracer:
    """Records nested spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._counts: dict[str, float] = {}

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextmanager
    def _span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self._spans))
        self._spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def patched(self, owner, names: dict[str, str], counters: dict[str, Callable] | None = None):
        """Wrap ``owner.<attr>`` in a span named ``names[attr]`` while the block runs.

        ``owner`` is a module or a class.  Used for functions that a public
        call reaches through a module global or a method, such as the rule
        enumeration inside ``solve_scenario``.  ``counters[attr]`` maps the
        call's result to ``{counter name: amount}`` to add up.
        """
        if not self.enabled:
            yield
            return
        saved = {attr: getattr(owner, attr) for attr in names}
        counters = counters or {}

        def wrap(attr, fn):
            def traced(*args, **kwargs):
                with self.span(names[attr]):
                    result = fn(*args, **kwargs)
                for counter, amount in counters[attr](result).items() if attr in counters else ():
                    self._counts[counter] = self._counts.get(counter, 0) + amount
                return result

            return traced

        for attr in names:
            setattr(owner, attr, wrap(attr, saved[attr]))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(owner, attr, fn)

    def take(self) -> tuple[dict[str, float], float, dict[str, float]]:
        """Self time per span name, the time covered by top-level spans, and
        the counters added up since the previous call."""
        child = [0.0] * len(self._spans)
        covered = 0.0
        for _, start, end, parent in self._spans:
            if parent is None:
                covered += end - start
            else:
                child[parent] += end - start
        self_time: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self._spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i]
        counts, self._counts = self._counts, {}
        self._spans.clear()
        return self_time, covered, counts


OFF = Tracer(enabled=False)
