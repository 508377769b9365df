"""Span timing from outside the program.

The harness may not edit ``src/``, so a traced run times each layer by
setting a wrapper as an *instance attribute* over a public method of the
object that forms the layer's boundary (an engine's ``get``, a cache's
``access``, a disk's ``background_write``).  None of those classes use
``__slots__``, and every caller reaches them through an attribute lookup
at call time, so the wrapper is what runs.

One :class:`Tracer` serves all cells of a workload.  It keeps, per span
name, the call count, the total time and the *self* time (total minus
the part covered by child spans), and for one tick in
``sample_every`` the full span tree.
"""

from __future__ import annotations

import json
from time import perf_counter

#: Full span trees are kept for one tick in this many.
SAMPLE_EVERY = 200


class Tracer:
    """Accumulates wrapped-call timings; see the module docstring."""

    def __init__(self, sample_every: int = SAMPLE_EVERY) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: Seconds spent inside outermost spans (nothing above them).
        self.root_s = 0.0
        #: Sampled spans: (cell, name, start, end, parent index, tick).
        self.spans: list[tuple] = []
        self.cell = ""
        self.tick = 0
        self.sample_every = sample_every
        self._sampling = True  # Tick 0 is sampled.
        #: Child-time accumulators of the open spans, innermost last.
        self._stack: list[list[float]] = []
        #: Indices into ``spans`` of the open *sampled* spans.
        self._open: list[int] = []

    # ------------------------------------------------------------------
    # Tick and cell boundaries.
    # ------------------------------------------------------------------
    def start_cell(self, name: str) -> None:
        self.cell = name
        self.tick = 0
        self._sampling = True

    def end_tick(self) -> None:
        self.tick += 1
        self._sampling = self.tick % self.sample_every == 0

    def tick_on(self, obj: object, attr: str) -> None:
        """Count a tick each time ``obj.attr`` returns (not timed)."""
        inner = getattr(obj, attr)
        end_tick = self.end_tick

        def hook(*args, **kwargs):
            value = inner(*args, **kwargs)
            end_tick()
            return value

        setattr(obj, attr, hook)

    # ------------------------------------------------------------------
    # Wrapping.
    # ------------------------------------------------------------------
    def timed(self, inner, name: str):
        """``inner`` wrapped in a span called ``name``."""
        acc = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        open_ids = self._open
        tracer = self

        def span(*args, **kwargs):
            sampled = tracer._sampling
            if sampled:
                index = len(spans)
                spans.append(None)
                parent = open_ids[-1] if open_ids else -1
                open_ids.append(index)
            children = [0.0]
            stack.append(children)
            started = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.root_s += elapsed
                if sampled:
                    open_ids.pop()
                    spans[index] = (
                        tracer.cell, name, started, started + elapsed,
                        parent, tracer.tick,
                    )

        return span

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Time ``obj.attr`` as span ``name`` from now on."""
        # object.__setattr__ also reaches frozen dataclasses (the specs).
        object.__setattr__(obj, attr, self.timed(getattr(obj, attr), name))

    def call(self, name: str, inner, *args, **kwargs):
        """Run ``inner`` once inside a span called ``name``."""
        return self.timed(inner, name)(*args, **kwargs)

    # ------------------------------------------------------------------
    # Read-out.
    # ------------------------------------------------------------------
    def calls(self, *names: str) -> int:
        return sum(self.totals[n][0] for n in names if n in self.totals)

    def self_s(self, *names: str) -> float:
        return sum(self.totals[n][2] for n in names if n in self.totals)

    def total_s(self, *names: str) -> float:
        return sum(self.totals[n][1] for n in names if n in self.totals)

    def write_jsonl(self, path) -> None:
        """One line per sampled span; times are ``perf_counter`` seconds."""
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                if span is None:  # Still open when the run ended.
                    continue
                cell, name, start, end, parent, tick = span
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "cell": cell,
                            "name": name,
                            "start_s": start,
                            "end_s": end,
                            "parent": parent,
                            "tick": tick,
                        }
                    )
                    + "\n"
                )
