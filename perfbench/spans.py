"""Span tracer that wraps hawk's layer functions from outside the package.

Wrapping rebinds names where the caller looks them up: the engine calls
``build_candidate_tree``, ``sequential_verify``, ``commit_token`` and friends
as module globals of ``hawk.engine``, so rebinding ``hawk.engine.<name>``
intercepts every call without touching the package. Methods are wrapped on
their class. ``Tracer.install`` returns a restore callback that puts every
original back.

Spans (name, mode, parent, start, end) are kept in flat ``array`` buffers
while the run is going and written out once it ends. A span's self time is
its duration minus the time its child spans cover; calls are single
threaded, so children never overlap. Counts that need a function's arguments
or return value (verification steps, tree widths, cache occupancy) are
gathered by hooks that run after the wrapped call returns.
"""

from __future__ import annotations

import logging
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

import hawk.cli
import hawk.engine
import hawk.models
import hawk.verifier

SETUP = "setup"


class Tracer:
    def __init__(self, modes: tuple[str, ...]) -> None:
        self.mode_names = (SETUP,) + modes
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names = array("h")
        self.modes = array("h")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.mode_id = 0
        # (counter, mode) -> value; filled by hooks and count-only wrappers.
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.peaks: dict[tuple[str, str], float] = defaultdict(float)
        self.residual_exhausted = _CountingHandler()
        self._missing: set[str] = set()

    @property
    def mode(self) -> str:
        return self.mode_names[self.mode_id]

    def set_mode(self, mode: str) -> None:
        self.mode_id = self.mode_names.index(mode)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as a span; ``after(tracer, args, result)`` runs on return."""
        name_id = self._name_id(name)
        names, modes, parents = self.names, self.modes, self.parents
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            modes.append(tracer.mode_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        """``fn`` counted per mode, without a span (for cheap, very frequent calls)."""
        counters = self.counters
        tracer = self

        def counted(*args, **kwargs):
            counters[(name, tracer.mode)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def call(self, name, fn, *args, **kwargs):
        """Run one call of ``fn`` inside a span, for calls made by the benchmark itself."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        """Wrap hawk's layer boundaries; returns a callback that restores them."""
        saved = []

        def rebind(owner, attr, make):
            # Methods are looked up in the class's own dict, so an inherited
            # one is never wrapped (and later restored) on the subclass.
            if isinstance(owner, type):
                original = owner.__dict__.get(attr)
            else:
                original = getattr(owner, attr, None)
            if original is None:
                where = f"{owner.__name__}.{attr}"
                if where not in self._missing:
                    self._missing.add(where)
                    print(f"trace: {where} not found; its metrics read 0")
                return
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

        def span(name, after=None):
            return lambda fn: self.wrap(name, fn, after)

        engine = hawk.engine
        rebind(engine, "decode_round", span("engine.decode_round"))
        rebind(engine, "build_pool", span("engine.build_pool"))
        rebind(engine, "build_candidate_tree", span("engine.build_candidate_tree", _after_tree))
        rebind(engine, "commit_token", span("engine.commit_token", _after_commit))
        rebind(engine, "sequential_verify", span("verifier.verify", _after_verify))
        rebind(engine, "lantern_sequential_verify", span("verifier.verify", _after_verify))
        rebind(engine, "sample_index", span("core.sample_index"))
        rebind(engine, "apply_sampling_config", span("core.apply_sampling_config"))
        rebind(engine.DecodingContext, "target_dist", span("engine.target_dist"))
        rebind(engine.DecodingContext, "draft_dist", span("engine.draft_dist"))
        rebind(hawk.verifier, "sample_index", span("core.sample_index"))
        rebind(hawk.cli, "fit_tabular_draft_heads", span("models.fit_tabular_draft_heads"))
        rebind(hawk.models.GridMarkovModel, "sample_grid", span("models.sample_grid"))
        rebind(hawk.models.GridMarkovModel, "conditional",
               lambda fn: self.count("models.conditional", fn))
        rebind(hawk.models.TabularDraftHead, "predict",
               lambda fn: self.count("models.head_predict", fn))

        verifier_logger = logging.getLogger(hawk.verifier.__name__)
        verifier_logger.addHandler(self.residual_exhausted)

        def restore() -> None:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            verifier_logger.removeHandler(self.residual_exhausted)

        return restore

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)

    def write(self, path: Path) -> None:
        """Write every span (ids plus the name and mode tables) as one .npz file."""
        np.savez_compressed(
            path,
            name=np.asarray(self.names, dtype=np.int16),
            mode=np.asarray(self.modes, dtype=np.int16),
            parent=np.asarray(self.parents, dtype=np.int64),
            start_ns=np.asarray(self.starts, dtype=np.int64),
            end_ns=np.asarray(self.ends, dtype=np.int64),
            span_names=np.asarray(self.span_names),
            mode_names=np.asarray(self.mode_names),
        )


class _CountingHandler(logging.Handler):
    """Counts records logged by ``hawk.verifier`` (residual exhaustion warnings)."""

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.records = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.records += 1


def _after_tree(tracer: Tracer, args, tree) -> None:
    # The kept paths are the first node_budget entries of the Cartesian
    # product, so their count follows from the layer widths alone.
    budget = args[1].node_budget
    product = 1
    drawn = 0
    for layer in tree.layers:
        product *= len(layer)
        drawn += len(layer)
    mode = tracer.mode
    counters = tracer.counters
    counters[("tree.rounds", mode)] += 1
    counters[("tree.paths", mode)] += min(product, budget)
    counters[("tree.truncated", mode)] += product > budget
    counters[("tree.drawn", mode)] += drawn


def _after_verify(tracer: Tracer, args, outcome) -> None:
    mode = tracer.mode
    counters = tracer.counters
    if outcome.accepted_index is None:
        counters[("verify.resamples", mode)] += 1
        counters[("verify.steps", mode)] += len(args[1])
    else:
        counters[("verify.accepts", mode)] += 1
        counters[("verify.steps", mode)] += outcome.accepted_index + 1


def _after_commit(tracer: Tracer, args, _result) -> None:
    cache = args[0].cache
    if cache.capacity:
        key = ("cache.peak_over_capacity", tracer.mode)
        tracer.peaks[key] = max(tracer.peaks[key], cache.peak_occupancy / cache.capacity)


class SpanSummary:
    """Per (span name, mode) totals: call count, total and self time in ns."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        names = np.asarray(tracer.names, dtype=np.int64)
        modes = np.asarray(tracer.modes, dtype=np.int64)
        parents = np.asarray(tracer.parents, dtype=np.int64)
        duration = (np.asarray(tracer.ends, dtype=np.int64)
                    - np.asarray(tracer.starts, dtype=np.int64)).astype(np.float64)
        child = np.zeros_like(duration)
        nested = parents >= 0
        np.add.at(child, parents[nested], duration[nested])
        self_time = duration - child
        width = len(tracer.mode_names)
        key = names * width + modes
        size = max(len(tracer.span_names), 1) * width
        self._calls = np.bincount(key, minlength=size)
        self._total = np.bincount(key, weights=duration, minlength=size)
        self._self = np.bincount(key, weights=self_time, minlength=size)
        self._width = width

    def _key(self, name: str, mode: str) -> int | None:
        name_id = self.tracer._name_ids.get(name)
        if name_id is None:
            return None
        return name_id * self._width + self.tracer.mode_names.index(mode)

    def calls(self, name: str, mode: str = SETUP) -> int:
        key = self._key(name, mode)
        return 0 if key is None else int(self._calls[key])

    def total_ns(self, name: str, mode: str = SETUP) -> float:
        key = self._key(name, mode)
        return 0.0 if key is None else float(self._total[key])

    def self_ns(self, name: str, mode: str = SETUP) -> float:
        key = self._key(name, mode)
        return 0.0 if key is None else float(self._self[key])
