"""Raster-order decoding loop with spatial speculation.

Round structure (speculative modes): a round's shape is a function of its
frontier alone. :func:`round_plans` gives every frontier's :class:`RoundPlan`
for depths n = 1..H: each depth's pool as :func:`pool_slots` lays it out
(the vertical predictions targeting position T+n, made from the prefix
through a token rows above, then the horizontal head's), cut to its
first b_k candidates, the widths tapering with depth to at most
``node_budget`` nodes. The walk verifies each layer in turn against the
current target conditional; :func:`build_pool` computes the layer's kept
drafts when the walk reaches it, and each candidate draws its token when
reached. The first rejection resamples, commits, and ends the round, so a
later layer costs no head call; a round that accepts through every layer
commits a bonus token from the target. A round thus commits 1 to H+1 tokens.
It reads the target once per layer it reaches and once more for a bonus
token, so every mode reads the target once per committed token; a round is
one target pass, as accept length counts it, only in accounting, until one
batched call scores the tree's nodes.

A slot reaches its head by position: ``Slot.head`` indexes the tuple
``vertical[:vsd] + horizontal`` that each context takes once from its heads.
Plans hold three ints per slot and no heads, so they stay cached per shape
and no head set outlives its batches.

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
resample, bonus token or vanilla token. ``Draws`` reads both streams in
blocks, which changes no value it hands out, nor their order.

One batch is one :class:`DecodingContext`: its sessions run back to back,
strictly sequentially, on one pair of streams, and its result is one
:class:`BatchResult`. The context counts, per depth, the rounds whose walk
ended there, and the result derives from those lists each depth's attempts
and accepts, reported as dicts keyed by depth. A context made
with a ``trace`` list keeps the walk: each speculative round, as it ends,
appends one :class:`LayerRecord` per layer its walk reached, and computes
nothing from it. The reports are reductions of these records in
:mod:`hawk.cli`: ``decode`` writes each walked step's alpha from
:func:`~hawk.verifier.chain_alphas` to ``trace.csv``, and ``bench`` writes
per-depth acceptance terms to ``acceptance.csv``.
Batches over shared immutable models may run concurrently.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    SamplingConfig,
    StateError,
    TokenDistribution,
    apply_sampling_config,
    json_value,
    sample_index,  # unused here: the benchmark's tracer rebinds hawk.engine.sample_index
)
from .models import DraftHeadSet, TargetModel
from .rng import stream
from .verifier import (
    Draws,
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
# engine section reads the same fields.
# Row 0 has no vertical drafts, so every first-row layer rests on the
# horizontal candidates alone: samples_per_horizontal >= 1. A hawk round
# without vertical candidates would be medusa's: samples_per_vertical >= 1.
ENGINE_MINIMUMS = {
    "horizontal_depth": (int, 1),
    "vertical_depth": (int, 0),
    "samples_per_horizontal": (int, 1),
    "samples_per_vertical": (int, 1),
    "node_budget": (int, 1),
    "lantern_k": (int, 1),
    "lantern_lambda": (float, 1.0),
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
    lantern_lambda: float = 2.0
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


class Slot(NamedTuple):
    """``copies`` candidates of a pool sharing one draft: head ``head`` of the
    context's ``vertical[:vertical_depth] + horizontal``, on the first
    ``length`` committed tokens."""

    head: int
    length: int
    copies: int


def pool_slots(
    width: int, frontier: int, n: int, vertical_depth: int,
    samples_per_horizontal: int, samples_per_vertical: int,
) -> tuple[Slot, ...]:
    """The slots of the depth-n pool of a round that starts at ``frontier``, the
    one statement of what a pool holds: for every depth d up to
    ``vertical_depth`` whose source d rows above position frontier + n - 1 is
    committed, the vertical head's draft from the prefix through the source,
    ``samples_per_vertical`` times, in depth order; then the horizontal head's
    draft from the whole prefix ``samples_per_horizontal`` times."""
    slots = []
    # The shallowest depth whose source is behind the frontier.
    d = (n - 1) // width + 1
    source = frontier + n - 1 - d * width
    while d <= vertical_depth and source >= 0:
        slots.append(Slot(d - 1, source + 1, samples_per_vertical))
        d += 1
        source -= width
    slots.append(Slot(vertical_depth + n - 1, frontier, samples_per_horizontal))
    return tuple(slots)


class RoundPlan(NamedTuple):
    """Per depth of a round, the kept slots of its pool and their candidate
    count b_k (:func:`tree_widths`); ``truncated``: the budget cut a pool;
    ``cuts``: per depth, the slice of the round's uniforms its candidates take;
    ``lengths``: per depth, the pool's candidate count before the cut."""

    layers: tuple[tuple[Slot, ...], ...]
    widths: tuple[int, ...]
    truncated: bool
    cuts: tuple[slice, ...]
    lengths: tuple[int, ...]


@functools.lru_cache(maxsize=None)
def round_plans(
    width: int, height: int, horizontal_depth: int, vertical_depth: int,
    samples_per_horizontal: int, samples_per_vertical: int, node_budget: int,
) -> tuple[RoundPlan, ...]:
    """The :class:`RoundPlan` of every frontier 0..size-1 of a grid: depths
    1..min(H, size - frontier), each keeping the first b_k candidates of its
    pool's :func:`pool_slots`."""
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
        plans.append(RoundPlan(tuple(layers), widths, widths != lengths, cuts, lengths))
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


class LayerRecord(NamedTuple):
    """One layer that a traced round's walk reached: the kept candidates'
    ``source:depth`` labels and drafts in verification order, the accepting
    candidate's index (None: the layer resampled), the pool's candidate count
    before the node budget cut, and the tokens the round committed."""

    round: int
    frontier: int
    depth: int
    sources: tuple[str, ...]
    target: TokenDistribution
    drafts: tuple[TokenDistribution, ...]
    accepted: Optional[int]
    pool: int
    committed: int


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
    ``target_dist`` and ``draft_dist`` read that memo inline, as the
    ``(config, result)`` pair that :func:`~hawk.core.apply_sampling_config`
    stores, when it holds the context's own transform, and call the
    transform only on a miss.
    """

    def __init__(
        self,
        model: TargetModel,
        heads: Optional[DraftHeadSet],
        config: EngineConfig,
        seed: int,
        *,
        trace: Optional[list[LayerRecord]] = None,
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
        depth = config.vertical_depth
        self.cache = CacheBounds(cache_capacity(self.grid.width, depth),
                                 peak_live_drafts(self.grid.width, self.grid.size, depth))
        self.draws = Draws(stream(seed, "draft"), stream(seed, "verify"))
        # Only a speculative round follows the plan of its frontier.
        self.plans = self.slot_heads = self.slot_labels = None
        if config.mode != MODE_VANILLA:
            self.plans = round_plans(self.grid.width, self.grid.height, config.horizontal_depth,
                                     depth, config.samples_per_horizontal,
                                     config.samples_per_vertical, config.node_budget)
            # Slot.head indexes these heads, each labelled source:depth.
            self.slot_heads = heads.vertical[:depth] + heads.horizontal
            labels = [f"vertical:{d}" for d in range(1, depth + 1)]
            labels += [f"horizontal:{n}" for n in range(1, heads.horizontal_depth + 1)]
            self.slot_labels = tuple(labels)
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
        memo = dist._memo  # apply_sampling_config's (config, result) pair
        if memo is not None and memo[0] is self.config.transform:
            return memo[1]
        return apply_sampling_config(dist, self.config.transform)

    def draft_dist(self, head, tokens: Sequence[int], length: int) -> TokenDistribution:
        base = head.predict(tokens, length)
        if self._identity:
            return base
        memo = base._memo  # apply_sampling_config's (config, result) pair
        if memo is not None and memo[0] is self.config.transform:
            return memo[1]
        return apply_sampling_config(base, self.config.transform)


def build_pool(ctx: DecodingContext, slots: tuple[Slot, ...]) -> tuple[TokenDistribution, ...]:
    """The drafts of one kept layer of a :class:`RoundPlan`, in slot order: each
    slot's head on the committed prefix of its length, ``copies`` times."""
    heads, committed, draft = ctx.slot_heads, ctx.committed, ctx.draft_dist
    layer = ()
    for head, length, copies in slots:
        layer += (draft(heads[head], committed, length),) * copies
    return layer


def build_candidate_tree(plan: RoundPlan, config: EngineConfig, draws: Draws) -> CandidateTree:
    """One draft uniform per kept candidate of ``plan``, in order, taken in one
    ``draws.uniforms`` call. ``config`` is unused here; the benchmark's tracer
    reads it."""
    return CandidateTree(draws.uniforms(plan.cuts[-1].stop), plan.cuts)


def commit_token(ctx: DecodingContext, token: int) -> None:
    """Append one token to the committed prefix."""
    ctx.committed.append(token)


def decode_round(ctx: DecodingContext) -> None:
    """Run one decoding round, which commits between 1 and H+1 tokens; if the
    context keeps a trace, the round appends a record of each layer it reached."""
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
    neighborhoods = ctx.neighborhoods  # set in LANTERN mode only
    target_dist = ctx.target_dist
    cuts = plan.cuts
    if trace is not None:
        walked = []  # (slots, target, drafts, accepted index) per layer
    for depth, slots in enumerate(plan.layers):
        drafts = build_pool(ctx, slots)
        target = target_dist(committed)
        if neighborhoods is None:
            outcome = sequential_verify(target, drafts, uniforms[cuts[depth]], draws)
        else:
            outcome = lantern_sequential_verify(target, drafts, uniforms[cuts[depth]], draws,
                                                neighborhoods, config.lantern_lambda)
        if trace is not None:
            walked.append((slots, target, drafts, outcome.accepted_index))
        commit_token(ctx, outcome.emitted_token)
        if outcome.accepted_index is None:
            ctx.rejected_at[depth] += 1
            break
    else:
        ctx.accepted_through[depth] += 1
        if len(committed) < total:
            commit_token(ctx, draws.sample(target_dist(committed)))
    if trace is not None:
        count, labels = len(committed) - frontier, ctx.slot_labels
        for depth, (slots, target, drafts, accepted) in enumerate(walked, start=1):
            sources = ()
            for head, _, copies in slots:
                sources += (labels[head],) * copies
            trace.append(LayerRecord(ctx.rounds, frontier, depth, sources, target, drafts,
                                     accepted, plan.lengths[depth - 1], count))
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
    trace: Optional[list[LayerRecord]] = None,
) -> BatchResult:
    """Run ``count`` decode sessions back to back on one pair of streams from the seed.

    The whole batch is reproducible from the seed. Pass a list as ``trace``
    to collect, in walk order, one :class:`LayerRecord` per layer a round's
    walk reached; tracing draws nothing. ``hawk decode`` reduces the records
    to ``trace.csv``, one row per verification step, and ``hawk bench`` to
    ``acceptance.csv``, per-depth acceptance terms.
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
    trace: Optional[list[LayerRecord]] = None,
) -> tuple[np.ndarray, BatchResult]:
    """Decode one full grid: the height-by-width token array and the result
    of :func:`decode_batch` with a count of one."""
    result = decode_batch(model, heads, config, seed, 1, trace=trace)
    (tokens,) = result.grid_counts
    grid = model.grid
    return np.array(tokens, dtype=np.int64).reshape(grid.height, grid.width), result

