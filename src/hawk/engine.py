"""Raster-order decoding loop with spatial speculation.

Round structure (speculative modes): a round's shape is a function of its
frontier alone. :func:`round_plans` gives every frontier's :class:`RoundPlan`
for depths n = 1..H: each depth's pool as :func:`~hawk.models.pool_slots`
lays it out (the vertical predictions targeting position T+n, made from the
prefix through a token rows above, then the horizontal head's), cut to its
first b_k candidates, the widths tapering with depth to at most
``node_budget`` nodes. The walk verifies each layer in turn against the
current target conditional; :func:`build_pool` computes the layer's kept
drafts when the walk reaches it, and each candidate draws its token when
reached. The first rejection resamples, commits, and ends the round, so a
later layer costs no head call; a round that accepts through every layer
commits a bonus token from the target. A round thus commits 1 to H+1 tokens
and is accounted as one target-model pass, which is what a batched tree
verification would cost.

A slot reaches its head by position: ``Slot.head`` indexes the tuple of
heads that each context builds once from its own head set. Plans hold no
heads, so they stay cached per shape and no head set outlives its batches.

A draft is a pure function of the committed prefix, read in place by
``predict(tokens, length)``, so nothing is stored between rounds. Drafts
that depend on the committed prefix alone are independent of the
verifier's randomness, so any tree shape fixed before it draws is exact.
The (target, depth) pairs ahead of a frontier whose source is behind it
number at most ``width * vsd * (vsd + 1) / 2``.

Draw order, for reproducibility: every random choice goes through the
context's :class:`~hawk.verifier.Draws`. A round takes one draft uniform
per kept candidate (layers in depth order, within a layer the vertical
candidates by depth, then the horizontal ones) before its walk, in one
``draws.uniforms`` call that each depth slices (``RoundPlan.cuts``), so a
layer the walk never reaches still consumes its uniforms. The verify stream
supplies one uniform per verification step plus one categorical draw per
resample, bonus token or vanilla token.

One batch is one :class:`DecodingContext`: its sessions run back to back,
strictly sequentially, on one pair of streams, and its result is one
:class:`BatchResult`. The context counts, per depth, the rounds whose walk
ended there, and the result derives from those lists each depth's attempts
and accepts, reported as dicts keyed by depth. A context made
with a ``trace`` list gets one row per verification step
(``TRACE_COLUMNS``), appended by each round as it ends: its alpha from
:func:`~hawk.verifier.chain_alphas`, and its ``source:depth`` label from
the plan's slots.
Batches over shared immutable models may run concurrently.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import (
    GridSpec,
    SamplingConfig,
    StateError,
    TokenDistribution,
    apply_sampling_config,
    json_value,
    sample_index,  # unused here: the benchmark's tracer rebinds hawk.engine.sample_index
)
from .models import DraftHeadSet, Slot, TargetModel, pool_slots
from .rng import stream
from .verifier import (
    Draws,
    chain_alphas,
    lantern_sequential_verify,
    sequential_verify,
    token_neighborhoods,
)

MODE_VANILLA = "vanilla"
MODE_MEDUSA = "medusa"
MODE_HAWK = "hawk"
MODE_LANTERN = "lantern"
MODES = (MODE_VANILLA, MODE_MEDUSA, MODE_HAWK, MODE_LANTERN)

# Kind and least value of each number field of EngineConfig; a config file's
# engine section reads the same fields, naming lantern_lam lantern_lambda.
# Row 0 has no vertical drafts, so every first-row layer rests on the
# horizontal candidates alone: samples_per_horizontal >= 1.
ENGINE_MINIMUMS = {
    "horizontal_depth": (int, 1),
    "vertical_depth": (int, 0),
    "samples_per_horizontal": (int, 1),
    "samples_per_vertical": (int, 0),
    "node_budget": (int, 1),
    "lantern_k": (int, 1),
    "lantern_lam": (float, 1.0),
    "draft_overhead_ratio": (float, 0),  # read only by the benchmark; see EngineConfig
}


@dataclass(frozen=True)
class EngineConfig:
    """Decoding configuration.

    ``samples_per_horizontal`` / ``samples_per_vertical`` are per-pool
    candidate counts (the latter applies to each vertical draft a pool holds).
    ``transform`` shapes the effective target conditional before
    verification, and head outputs get the same transform, which keeps
    drafts aligned with what they are verified against. Numbers are checked
    by :func:`~hawk.core.json_value`, as a config file's are.
    ``draft_overhead_ratio`` is read by nothing in hawk, only by the
    benchmark's reports; it goes when the benchmark stops reading it.
    """

    mode: str
    horizontal_depth: int = 1
    vertical_depth: int = 0
    samples_per_horizontal: int = 1
    samples_per_vertical: int = 1
    node_budget: int = 64
    transform: SamplingConfig = field(default_factory=SamplingConfig)
    lantern_k: int = 10
    lantern_lam: float = 2.0
    draft_overhead_ratio: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name, (kind, minimum) in ENGINE_MINIMUMS.items():
            json_value(getattr(self, name), name, kind, minimum)
        if self.mode == MODE_HAWK and self.vertical_depth < 1:
            raise ValueError("hawk mode requires vertical_depth >= 1")
        if self.mode in (MODE_VANILLA, MODE_MEDUSA, MODE_LANTERN) and self.vertical_depth != 0:
            raise ValueError(f"{self.mode} mode requires vertical_depth == 0")


def cache_capacity(image_width: int, vertical_depth: int) -> int:
    """Bound on the live vertical drafts of a session: width * vsd * (vsd+1) / 2."""
    if image_width < 1:
        raise ValueError(f"image_width must be >= 1, got {image_width}")
    if vertical_depth < 0:
        raise ValueError(f"vertical_depth must be >= 0, got {vertical_depth}")
    return image_width * (vertical_depth * (vertical_depth + 1)) // 2


@functools.lru_cache(maxsize=None)
def peak_live_drafts(width: int, size: int, vertical_depth: int) -> int:
    """The most (target, depth) pairs live at any frontier f, those with target
    >= f and source target - d * width in [0, f): the max over f of
    sum_d |[max(f, d * width), min(f + d * width, size))|."""
    return max(
        sum(max(0, min(f + d * width, size) - max(f, d * width))
            for d in range(1, vertical_depth + 1))
        for f in range(size + 1)
    )


class CacheBounds(NamedTuple):
    """The live-draft ``capacity`` of a session and the ``peak_occupancy`` its
    frontiers reach. Nothing in the engine reads them; they are kept because
    the benchmark's tracer reports peak_occupancy / capacity per mode."""

    capacity: int
    peak_occupancy: int


def tree_nodes(widths: Sequence[int]) -> int:
    """Nodes of the product tree with these layer widths: sum_k prod_{j<=k} b_j."""
    return int(np.cumprod(widths).sum())


@functools.lru_cache(maxsize=None)
def tree_widths(lengths: tuple[int, ...], node_budget: int) -> tuple[int, ...]:
    """Width b_k = max(1, b - k + 1) of depth k, capped by the layer's length, for
    the largest b whose tree has at most ``node_budget`` nodes (a chain if none has)."""
    widths = (1,) * len(lengths)
    for b in itertools.count(2):
        wider = tuple(min(n, max(1, b - k)) for k, n in enumerate(lengths))
        if widths == lengths or tree_nodes(wider) > node_budget:
            return widths
        widths = wider


class RoundPlan(NamedTuple):
    """Per depth of a round, the kept slots of its pool and their candidate
    count b_k (:func:`tree_widths`); ``truncated``: the budget cut a pool;
    ``cuts``: per depth, the slice of the round's uniforms its candidates take."""

    layers: tuple[tuple[Slot, ...], ...]
    widths: tuple[int, ...]
    truncated: bool
    cuts: tuple[slice, ...]


@functools.lru_cache(maxsize=None)
def round_plans(
    width: int, height: int, horizontal_depth: int, vertical_depth: int,
    samples_per_horizontal: int, samples_per_vertical: int, node_budget: int,
) -> tuple[RoundPlan, ...]:
    """The :class:`RoundPlan` of every frontier 0..size-1 of a grid: depths
    1..min(H, size - frontier), each keeping the first b_k candidates of its
    pool's :func:`~hawk.models.pool_slots`."""
    size = width * height
    plans = []
    for frontier in range(size):
        pools = [pool_slots(width, frontier, n, vertical_depth, samples_per_horizontal,
                            samples_per_vertical)
                 for n in range(1, min(horizontal_depth, size - frontier) + 1)]
        lengths = tuple(sum(slot.copies for slot in pool) for pool in pools)
        widths = tree_widths(lengths, node_budget)
        layers = []
        for pool, left in zip(pools, widths):  # the slots of the first b_k candidates
            kept = []
            for slot in pool:
                if left > 0:
                    kept.append(slot._replace(copies=min(slot.copies, left)))
                left -= slot.copies
            layers.append(tuple(kept))
        ends = tuple(itertools.accumulate(widths))
        cuts = tuple(map(slice, (0,) + ends, ends))
        plans.append(RoundPlan(tuple(layers), widths, widths != lengths, cuts))
    return tuple(plans)


class CandidateTree:
    """A round's draft uniforms, one per kept candidate in plan order, cut per
    depth by ``cuts``; a candidate's draft is computed, and its token drawn,
    only when the walk reaches it."""

    __slots__ = ("uniforms", "cuts")

    def __init__(self, uniforms: list[float], cuts: tuple[slice, ...]) -> None:
        self.uniforms, self.cuts = uniforms, cuts

    @property
    def layers(self) -> tuple[list[float], ...]:
        return tuple(map(self.uniforms.__getitem__, self.cuts))


TraceRow = tuple[int, int, int, str, float, bool, int]

TRACE_COLUMNS = (
    "round",
    "frontier_index",
    "depth",
    "source",
    "alpha",
    "accepted",
    "committed_this_round",
)


class DecodingContext:
    """One batch of decode sessions: run inputs, session state and counters.

    One object per batch holds everything a run mutates: the committed
    prefix of the current session, ``draws`` (the
    :class:`~hawk.verifier.Draws` on the seed's draft and verify streams),
    the counters (rounds, per-depth attempts and accepts) and the optional
    trace. Its sessions run back to back: between them only the prefix is
    reset. Every draft is computed from the prefix when the walk reaches
    its layer, so there is no draft store to reset.

    It holds no distribution cache: the effective target and draft
    distributions are the transform of what the model or head returns, and
    the transform is memoized on the returned distribution itself (see
    :func:`~hawk.core.apply_sampling_config`), so it stays warm across
    batches for persistent tables and is freed with per-call head outputs.
    """

    def __init__(
        self,
        model: TargetModel,
        heads: Optional[DraftHeadSet],
        config: EngineConfig,
        seed: int,
        *,
        trace: Optional[list[TraceRow]] = None,
    ) -> None:
        if config.mode != MODE_VANILLA:
            if heads is None:
                raise ValueError(f"{config.mode} mode requires draft heads")
            heads.check_grid(model.grid)
            for direction in ("horizontal", "vertical"):
                want = getattr(config, f"{direction}_depth")
                have = getattr(heads, f"{direction}_depth")
                if have < want:
                    raise ValueError(f"config wants {direction} depth {want}, heads provide {have}")
        self.model = model
        self.heads = heads
        self.config = config
        self.grid = model.grid
        self.committed: list[int] = []
        depth = config.vertical_depth if config.samples_per_vertical else 0
        self.cache = CacheBounds(cache_capacity(self.grid.width, depth),
                                 peak_live_drafts(self.grid.width, self.grid.size, depth))
        self.draws = Draws(stream(seed, "draft"), stream(seed, "verify"))
        # Only a speculative round follows the plan of its frontier.
        self.plans = self.slot_heads = None
        if config.mode != MODE_VANILLA:
            self.plans = round_plans(self.grid.width, self.grid.height, config.horizontal_depth,
                                     depth, config.samples_per_horizontal,
                                     config.samples_per_vertical, config.node_budget)
            self.slot_heads = heads.vertical[:depth] + heads.horizontal
        self.rounds = 0
        self.truncated_rounds = 0
        self.trace = trace
        # Entry d - 1 counts the rounds whose walk ended at depth d: by a
        # rejection there, or by accepting the last layer of their plan there.
        self.rejected_at = [0] * config.horizontal_depth
        self.accepted_through = [0] * config.horizontal_depth
        self._identity = config.transform.is_identity
        if config.mode == MODE_LANTERN:
            self.neighborhoods = token_neighborhoods(model.token_embeddings, config.lantern_k)
        else:
            self.neighborhoods = None

    def target_dist(self, prefix: Sequence[int]) -> TokenDistribution:
        dist = self.model.conditional(prefix)
        if self._identity:
            return dist
        return apply_sampling_config(dist, self.config.transform)

    def draft_dist(self, head, tokens: Sequence[int], length: int) -> TokenDistribution:
        base = head.predict(tokens, length)
        if self._identity:
            return base
        return apply_sampling_config(base, self.config.transform)


def build_pool(ctx: DecodingContext, slots: tuple[Slot, ...]) -> tuple[TokenDistribution, ...]:
    """The drafts of one kept layer of a :class:`RoundPlan`, in slot order: each
    slot's head on the committed prefix of its length, ``copies`` times."""
    heads, committed, draft = ctx.slot_heads, ctx.committed, ctx.draft_dist
    layer = ()
    for _, _, length, copies, _, head in slots:
        layer += (draft(heads[head], committed, length),) * copies
    return layer


def build_candidate_tree(plan: RoundPlan, config: EngineConfig, draws: Draws) -> CandidateTree:
    """One draft uniform per kept candidate of ``plan``, in order, taken in one
    ``draws.uniforms`` call. ``config`` is unused here; the benchmark's tracer
    reads it."""
    return CandidateTree(draws.uniforms(sum(plan.widths)), plan.cuts)


def commit_token(ctx: DecodingContext, token: int) -> None:
    """Append one token to the committed prefix."""
    ctx.committed.append(token)


def decode_round(ctx: DecodingContext) -> None:
    """Run one decoding round, one target pass that commits between 1 and H+1
    tokens; if the context keeps a trace, the round appends its rows to it."""
    total = ctx.grid.size
    committed = ctx.committed
    if len(committed) >= total:
        raise StateError("decode already finished")

    if ctx.config.mode == MODE_VANILLA:
        dist = ctx.target_dist(committed)
        commit_token(ctx, ctx.draws.sample(dist))
        ctx.rounds += 1
        return

    config = ctx.config
    frontier = len(committed)
    plan = ctx.plans[frontier]
    draws = ctx.draws
    uniforms = build_candidate_tree(plan, config, draws).uniforms
    ctx.truncated_rounds += plan.truncated
    trace = ctx.trace
    lantern = config.mode == MODE_LANTERN
    cuts = plan.cuts
    walked = []  # (slots, target, drafts, outcome) per layer, when tracing
    for depth, slots in enumerate(plan.layers):
        drafts = build_pool(ctx, slots)
        target = ctx.target_dist(committed)
        if lantern:
            outcome = lantern_sequential_verify(target, drafts, uniforms[cuts[depth]], draws,
                                                ctx.neighborhoods, config.lantern_lam)
        else:
            outcome = sequential_verify(target, drafts, uniforms[cuts[depth]], draws)
        if trace is not None:
            walked.append((slots, target, drafts, outcome))
        commit_token(ctx, outcome.emitted_token)
        if outcome.accepted_index is None:
            ctx.rejected_at[depth] += 1
            break
    else:
        ctx.accepted_through[depth] += 1
        if len(committed) < total:
            commit_token(ctx, draws.sample(ctx.target_dist(committed)))
    if trace is not None:
        count = len(committed) - frontier
        for depth, (slots, target, drafts, outcome) in enumerate(walked, start=1):
            accepted = outcome.accepted_index
            if accepted is not None:  # the walk stopped at the accepted candidate
                drafts = drafts[: accepted + 1]
            sources = []
            for slot in slots:
                sources += [slot.label] * slot.copies
            for i, alpha in enumerate(chain_alphas(target, drafts)):
                trace.append((ctx.rounds, frontier, depth, sources[i], alpha, i == accepted,
                              count))
    ctx.rounds += 1


@dataclass
class BatchResult:
    """The result of one batch: one or more decode sessions on one context.
    ``truncated_rounds`` counts the rounds whose tree the node budget cut."""

    mode: str
    grid_counts: Counter
    rounds: int
    truncated_rounds: int
    committed: int
    depth_attempts: dict[int, int]
    depth_accepts: dict[int, int]
    wall_clock_ms: float

    @property
    def accept_length(self) -> float:
        return self.committed / self.rounds

    @property
    def depth_accept_rates(self) -> dict[int, float]:
        return {
            d: self.depth_accepts.get(d, 0) / attempts
            for d, attempts in sorted(self.depth_attempts.items())
        }


def _depth_counts(
    rejected_at: list[int], accepted_through: list[int]
) -> tuple[dict[int, int], dict[int, int]]:
    """Per depth from 1, where nonzero, the rounds that reached it and the rounds
    that accepted there: a round whose walk ended at depth e reached depths
    1..e and accepted at each of them, at e only if it did not reject there."""
    attempts, accepts = {}, {}
    reached = sum(rejected_at) + sum(accepted_through)
    for depth, (rejected, accepted) in enumerate(zip(rejected_at, accepted_through), start=1):
        if reached:
            attempts[depth] = reached
        if reached - rejected:
            accepts[depth] = reached - rejected
        reached -= rejected + accepted
    return attempts, accepts


def decode_batch(
    model: TargetModel,
    heads: Optional[DraftHeadSet],
    config: EngineConfig,
    seed: int,
    count: int,
    *,
    trace: Optional[list[TraceRow]] = None,
) -> BatchResult:
    """Run ``count`` decode sessions back to back on one pair of streams from the seed.

    The whole batch is reproducible from the seed. Pass a list as ``trace``
    to collect one row per verification step (``TRACE_COLUMNS``).
    """
    json_value(count, "count", int, 1)
    ctx = DecodingContext(model, heads, config, seed, trace=trace)
    grid = ctx.grid
    counts: Counter = Counter()
    start = time.perf_counter()
    for _ in range(count):
        while len(ctx.committed) < grid.size:
            decode_round(ctx)
        counts[tuple(ctx.committed)] += 1
        ctx.committed = []
    wall_clock_ms = (time.perf_counter() - start) * 1000.0
    depth_attempts, depth_accepts = _depth_counts(ctx.rejected_at, ctx.accepted_through)
    return BatchResult(
        mode=config.mode,
        grid_counts=counts,
        rounds=ctx.rounds,
        truncated_rounds=ctx.truncated_rounds,
        committed=count * grid.size,
        depth_attempts=depth_attempts,
        depth_accepts=depth_accepts,
        wall_clock_ms=wall_clock_ms,
    )


def decode_image(
    model: TargetModel,
    heads: Optional[DraftHeadSet],
    config: EngineConfig,
    seed: int,
    *,
    trace: Optional[list[TraceRow]] = None,
) -> tuple[np.ndarray, BatchResult]:
    """Decode one full grid: the height-by-width token array and the result
    of :func:`decode_batch` with a count of one."""
    result = decode_batch(model, heads, config, seed, 1, trace=trace)
    (tokens,) = result.grid_counts
    grid = model.grid
    return np.array(tokens, dtype=np.int64).reshape(grid.height, grid.width), result


def export_grid_image(
    tokens: Union[np.ndarray, Sequence[int]], grid: GridSpec, path: Union[str, Path]
) -> None:
    """Write the token grid as a binary 8-bit portable graymap.

    Token values map linearly onto 0..255, so token 0 is black and the top
    of the vocabulary is white.
    """
    flat = np.asarray(tokens, dtype=np.int64).reshape(-1)
    if flat.size != grid.size:
        raise ValueError(f"expected {grid.size} tokens, got {flat.size}")
    if flat.min() < 0 or flat.max() >= grid.vocab_size:
        raise ValueError("token values outside vocabulary range")
    levels = np.rint(flat * (255.0 / (grid.vocab_size - 1))).astype(np.uint8)
    header = f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + levels.tobytes())
