"""Raster-order decoding loop with spatial speculation.

Round structure (speculative modes): for each speculation depth n = 1..H,
:func:`build_pool` lays out one layer of draft distributions, one per
candidate, from the round-start committed prefix: the cached vertical
predictions targeting position T+n, written rows earlier, then the
horizontal head's. The candidate tree keeps the first b_k candidates of
layer k, its widths tapering with depth to at most ``node_budget`` nodes;
any shape fixed before the verifier draws is exact, since every layer comes
from the round-start prefix. The walk verifies each layer's candidates in
turn against the current target conditional, each drawing its token when
reached; the first rejection resamples, commits, and ends the round, and a
round that accepts through every layer commits a bonus token from the
target. A round thus commits 1 to H+1 tokens and is accounted as one
target-model pass, which is what a batched tree verification would cost.

Vertical head outputs are computed when a token commits, conditioned on the
committed prefix only, and written to the speculation cache's slot for their
target position, one slot row per depth, until decoding reaches it; a
context without vertical candidates keeps no rows. Writing at commit time
(rather than while drafting) keeps every cached draft independent of the
verifier's randomness, which the exactness argument requires. Nothing is
evicted: a slot behind the frontier is never read again, and the rows are
cleared between sessions. Live occupancy (slots written and not yet
committed) never exceeds ``width * vsd * (vsd + 1) / 2``.

Draw order, for reproducibility: the draft stream supplies one uniform per
kept candidate, round after round (layers in depth order, within a layer
the vertical candidates by depth, then the horizontal ones), read through
:class:`~hawk.rng.UniformReader` in blocks; the verify stream supplies one
uniform per verification step plus one categorical draw per resample or
bonus token. A candidate's token is the index its uniform selects from its
draft, computed only when the walk reaches it, so a candidate after the
accepted one consumes its uniform and never gets a token.

One batch is one :class:`DecodingContext`: its sessions run back to back,
strictly sequentially, on one pair of streams, and its result is one
:class:`BatchResult`. A context made with a ``trace`` list gets one row per
verification step (``TRACE_COLUMNS``), appended by each round as it ends:
its alpha from :func:`~hawk.verifier.chain_alphas`, and its ``source:depth``
label from the pool layout, read when the pool is built.
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
    sample_index,
)
from .models import DraftHeadSet, TargetModel
from .oracle_metrics import modeled_speedup
from .rng import UniformReader, stream
from .verifier import (
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
# Row 0 has no cached vertical entries, so every first-row layer rests on the
# horizontal candidates alone: samples_per_horizontal >= 1.
ENGINE_MINIMUMS = {
    "horizontal_depth": (int, 1),
    "vertical_depth": (int, 0),
    "samples_per_horizontal": (int, 1),
    "samples_per_vertical": (int, 0),
    "node_budget": (int, 1),
    "lantern_k": (int, 1),
    "lantern_lam": (float, 1.0),
    "draft_overhead_ratio": (float, 0),
}


@dataclass(frozen=True)
class EngineConfig:
    """Decoding configuration.

    ``samples_per_horizontal`` / ``samples_per_vertical`` are per-pool
    candidate counts (the latter applies to each cached vertical entry).
    ``transform`` shapes the effective target conditional before
    verification, and head outputs get the same transform, which keeps
    drafts aligned with what they are verified against. Numbers are checked
    by :func:`~hawk.core.json_value`, as a config file's are.
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
    """Live-slot bound for the speculation cache: width * vsd * (vsd+1) / 2."""
    if image_width < 1:
        raise ValueError(f"image_width must be >= 1, got {image_width}")
    if vertical_depth < 0:
        raise ValueError(f"vertical_depth must be >= 0, got {vertical_depth}")
    return image_width * (vertical_depth * (vertical_depth + 1)) // 2


class SpeculationCache:
    """Vertical draft distributions in one slot row per depth.

    ``rows[d - 1][target]`` holds what the commit of raster index
    target - d * width wrote for the depth-d head: its draft,
    ``samples_per_vertical`` times, as the tuple :func:`build_pool` splices
    into a layer. An empty tuple marks a slot no commit of the session has
    written, so a filled slot of depth d always originates exactly d rows
    above its target. ``occupancy`` counts the live slots, written and not
    yet committed, as :func:`commit_token` keeps it; exceeding capacity
    raises, because more live drafts than the closed form allows would be an
    engine bug.
    """

    __slots__ = ("rows", "capacity", "occupancy", "peak_occupancy")

    def __init__(self, grid: GridSpec, vertical_depth: int) -> None:
        self.rows = [[()] * grid.size for _ in range(vertical_depth)]
        self.capacity = cache_capacity(grid.width, vertical_depth)
        self.occupancy = 0
        self.peak_occupancy = 0

    def clear(self) -> None:
        """Empty every slot, between the sessions of a batch."""
        for row in self.rows:
            row[:] = [()] * len(row)
        self.occupancy = 0


class CandidateTree(NamedTuple):
    """Per depth, the first b_k drafts of its pool (:func:`tree_widths`) and one
    uniform each; ``truncated`` says the node budget cut some pool."""

    layers: tuple[tuple[TokenDistribution, ...], ...]
    uniforms: tuple[list[float], ...]
    truncated: bool


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
    prefix and speculation cache of the current session, the draft and
    verify streams made from the seed, the counters (rounds, per-depth
    attempts and accepts) and the optional trace. Its sessions run back to back:
    between them only the prefix and the cache are reset.

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
            if heads.horizontal_depth < config.horizontal_depth:
                raise ValueError(
                    f"config wants horizontal depth {config.horizontal_depth}, "
                    f"heads provide {heads.horizontal_depth}"
                )
            if heads.vertical_depth < config.vertical_depth:
                raise ValueError(
                    f"config wants vertical depth {config.vertical_depth}, "
                    f"heads provide {heads.vertical_depth}"
                )
        self.model = model
        self.heads = heads
        self.config = config
        self.grid = model.grid
        self.committed: list[int] = []
        depth = config.vertical_depth if config.samples_per_vertical else 0
        self.cache = SpeculationCache(self.grid, depth)
        self.draft_rng = stream(seed, "draft")
        self.verify_rng = stream(seed, "verify")
        # Only a speculative round draws draft uniforms, a block at a time.
        self.draft_uniforms = None if config.mode == MODE_VANILLA else UniformReader(self.draft_rng)
        self.rounds = 0
        self.truncated_rounds = 0
        self.trace = trace
        self.depth_attempts: dict[int, int] = {}
        self.depth_accepts: dict[int, int] = {}
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

    def draft_dist(self, head, prefix: Sequence[int]) -> TokenDistribution:
        base = head.predict(prefix)
        if self._identity:
            return base
        return apply_sampling_config(base, self.config.transform)


def build_pool(
    ctx: DecodingContext, n: int, horizontal_output: TokenDistribution
) -> tuple[TokenDistribution, ...]:
    """Draft layer for speculation depth n, one draft per candidate.

    Each cached vertical draft targeting the position, by depth,
    ``samples_per_vertical`` times, then the horizontal draft
    ``samples_per_horizontal`` times, so no layer is empty.
    """
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    position = len(ctx.committed) + n - 1
    if position >= ctx.grid.size:
        raise ValueError(f"speculation position {position} beyond grid end")
    layer = ()
    for row in ctx.cache.rows:
        layer += row[position]
    return layer + (horizontal_output,) * ctx.config.samples_per_horizontal


def _pool_labels(ctx: DecodingContext, n: int) -> list[str]:
    """The ``source:depth`` label of each draft :func:`build_pool` lays out
    for depth n, read from the same slots, so before any commit of the round."""
    labels = []
    position = len(ctx.committed) + n - 1
    for d, row in enumerate(ctx.cache.rows, start=1):
        labels += [f"vertical:{d}"] * len(row[position])
    return labels + [f"horizontal:{n}"] * ctx.config.samples_per_horizontal


def build_candidate_tree(
    layers: Sequence[tuple[TokenDistribution, ...]], config: EngineConfig, reader: UniformReader
) -> CandidateTree:
    """The first b_k drafts of each :func:`build_pool` layer under ``config.node_budget``
    (:func:`tree_widths`), with their uniforms off the context's draft reader, in order."""
    lengths = tuple(map(len, layers))
    widths = tree_widths(lengths, config.node_budget)
    truncated = widths != lengths
    kept = tuple(layer[:b] for layer, b in zip(layers, widths)) if truncated else tuple(layers)
    return CandidateTree(kept, tuple(map(reader.take, widths)), truncated)


def commit_token(ctx: DecodingContext, token: int) -> None:
    """Append one token and write its vertical drafts to the cache.

    For each vertical depth d the head is evaluated on the now-committed
    prefix and written to slot commit_index + d * width of row d - 1; writes
    whose target falls past the grid end are skipped. The commit also ends
    the life of each slot targeting its own position, one per depth d with
    commit_index >= d * width, so occupancy stays within capacity.
    """
    t = len(ctx.committed)
    ctx.committed.append(token)
    cache = ctx.cache
    if cache.rows:
        vertical_depth = len(cache.rows)
        width = ctx.grid.width
        total = ctx.grid.size
        copies = ctx.config.samples_per_vertical
        heads = ctx.heads.vertical
        occupancy = cache.occupancy - min(vertical_depth, t // width)
        target = t
        for d, row in enumerate(cache.rows):
            target += width
            if target < total:
                row[target] = (ctx.draft_dist(heads[d], ctx.committed),) * copies
                occupancy += 1
        if occupancy > cache.capacity:
            raise RuntimeError(
                f"speculation cache occupancy {occupancy} exceeds capacity {cache.capacity}"
            )
        cache.occupancy = occupancy
        if occupancy > cache.peak_occupancy:
            cache.peak_occupancy = occupancy


def decode_round(ctx: DecodingContext) -> None:
    """Run one decoding round, one target pass that commits between 1 and H+1
    tokens; if the context keeps a trace, the round appends its rows to it."""
    total = ctx.grid.size
    committed = ctx.committed
    if len(committed) >= total:
        raise StateError("decode already finished")

    if ctx.config.mode == MODE_VANILLA:
        dist = ctx.target_dist(committed)
        commit_token(ctx, sample_index(dist, ctx.verify_rng))
        ctx.rounds += 1
        return

    config = ctx.config
    frontier = len(committed)
    trace = ctx.trace
    layers = []
    labels = []  # per layer, when tracing
    for n in range(1, min(config.horizontal_depth, total - frontier) + 1):
        horizontal = ctx.draft_dist(ctx.heads.horizontal[n - 1], committed)
        layers.append(build_pool(ctx, n, horizontal))
        if trace is not None:
            labels.append(_pool_labels(ctx, n))
    tree = build_candidate_tree(layers, config, ctx.draft_uniforms)
    ctx.truncated_rounds += tree.truncated
    rng = ctx.verify_rng
    walked = []  # (depth, target, drafts, outcome) per layer, when tracing
    for depth, (drafts, uniforms) in enumerate(zip(tree.layers, tree.uniforms), start=1):
        ctx.depth_attempts[depth] = ctx.depth_attempts.get(depth, 0) + 1
        target = ctx.target_dist(committed)
        if config.mode == MODE_LANTERN:
            outcome = lantern_sequential_verify(target, drafts, uniforms, rng,
                                                ctx.neighborhoods, config.lantern_lam)
        else:
            outcome = sequential_verify(target, drafts, uniforms, rng)
        if trace is not None:
            walked.append((depth, target, drafts, outcome))
        commit_token(ctx, outcome.emitted_token)
        if outcome.accepted_index is None:
            break
        ctx.depth_accepts[depth] = ctx.depth_accepts.get(depth, 0) + 1
    else:
        if len(committed) < total:
            commit_token(ctx, sample_index(ctx.target_dist(committed), rng))
    if trace is not None:
        count = len(committed) - frontier
        for depth, target, drafts, outcome in walked:
            accepted = outcome.accepted_index
            if accepted is not None:  # the walk stopped at the accepted candidate
                drafts = drafts[: accepted + 1]
            sources = labels[depth - 1]
            for i, alpha in enumerate(chain_alphas(target, drafts)):
                trace.append((ctx.rounds, frontier, depth, sources[i], alpha, i == accepted,
                              count))
    ctx.rounds += 1


@dataclass
class BatchResult:
    """The result of one batch: one or more decode sessions on one context.

    ``draft_overhead_ratio`` is the one the batch's cost model uses: the
    config's, or 0 for vanilla, which drafts nothing. ``truncated_rounds``
    counts the rounds whose tree the node budget cut.
    """

    mode: str
    draft_overhead_ratio: float
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
    def modeled_speedup(self) -> float:
        return modeled_speedup(self.accept_length, self.draft_overhead_ratio)

    @property
    def depth_accept_rates(self) -> dict[int, float]:
        return {
            d: self.depth_accepts.get(d, 0) / attempts
            for d, attempts in sorted(self.depth_attempts.items())
        }


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
        # Only hawk has slots to clear; the call alone costs a 2x2 vanilla session 2%.
        if ctx.cache.rows:
            ctx.cache.clear()
    wall_clock_ms = (time.perf_counter() - start) * 1000.0
    return BatchResult(
        mode=config.mode,
        draft_overhead_ratio=0.0 if config.mode == MODE_VANILLA else config.draft_overhead_ratio,
        grid_counts=counts,
        rounds=ctx.rounds,
        truncated_rounds=ctx.truncated_rounds,
        committed=count * grid.size,
        depth_attempts=dict(ctx.depth_attempts),
        depth_accepts=dict(ctx.depth_accepts),
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
