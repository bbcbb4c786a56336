"""Decoding loop: vertical-draft law, pools, candidate tree, round structure, exports."""

import dataclasses
import gc
import hashlib
import itertools
import multiprocessing
import weakref
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hawk.cli
import hawk.engine
import hawk.models
import hawk.verifier
from hawk.cli import export_grid_image
from hawk.core import (
    GridSpec,
    SamplingConfig,
    StateError,
    TokenDistribution,
    apply_sampling_config,
    index_at,
    sample_index,
)
from hawk.engine import (
    DecodingContext,
    EngineConfig,
    Slot,
    commit_token,
    build_candidate_tree,
    build_pool,
    cache_capacity,
    decode_batch,
    decode_image,
    decode_round,
    round_plans,
    tree_nodes,
    tree_widths,
)
from hawk.models import (
    DraftHead,
    DraftHeadSet,
    TabularDraftHead,
    fit_tabular_draft_heads,
    make_grid_markov_target,
)
from hawk.oracle_metrics import (
    JointTable,
    empirical_joint_from_counts,
    enumerate_draws,
    enumerate_joint,
    joint_tv,
)
from hawk.rng import stream
from hawk.verifier import (
    Draws,
    VerificationOutcome,
    chain_alphas,
    sequential_verify,
)
from test_models import iid_oracle

# The pool law as the engine stated it before rounds were planned by
# frontier, kept as the reference for the plans: vertical_drafts and
# build_pool from the sliced committed prefix, then the first tree_widths
# candidates of each pool.


def _vertical_drafts(draft, heads, config, tokens, position, frontier, labels=None):
    """The vertical drafts a pool for ``position`` holds in a round that starts
    at ``frontier``, each label appended to ``labels`` when given: for every
    depth d up to ``config.vertical_depth`` with 0 <= source = position -
    d * width < frontier, ``draft(heads.vertical[d - 1], tokens[:source + 1])``
    ``samples_per_vertical`` times, in depth order."""
    width, copies = heads.width, config.samples_per_vertical
    d = max(1, (position - frontier) // width + 1)
    source = position - d * width
    drafts = ()
    while d <= config.vertical_depth and source >= 0:
        drafts += (draft(heads.vertical[d - 1], tokens[: source + 1]),) * copies
        if labels is not None:
            labels += [f"vertical:{d}"] * copies
        d += 1
        source -= width
    return drafts


def _build_pool(draft, heads, config, tokens, frontier, n, labels):
    """The depth-n pool of a round that starts at ``frontier``: its vertical
    drafts, then the horizontal draft ``samples_per_horizontal`` times."""
    layer = ()
    if config.vertical_depth:
        layer = _vertical_drafts(draft, heads, config, tokens, frontier + n - 1, frontier, labels)
    labels += [f"horizontal:{n}"] * config.samples_per_horizontal
    return layer + (draft(heads.horizontal[n - 1], tokens[:frontier]),) * config.samples_per_horizontal


def _reference_round(draft, heads, config, tokens, frontier, size):
    """(kept drafts per depth, their labels, widths, pool lengths) of the round
    that starts at ``frontier``: the first tree_widths drafts of each pool."""
    pools, labels = [], []
    for n in range(1, min(config.horizontal_depth, size - frontier) + 1):
        labels.append([])
        pools.append(_build_pool(draft, heads, config, tokens, frontier, n, labels[-1]))
    lengths = tuple(map(len, pools))
    widths = tree_widths(lengths, config.node_budget)
    kept = [list(pool[:b]) for pool, b in zip(pools, widths)]
    return kept, [names[:b] for names, b in zip(labels, widths)], widths, lengths


def _prefix_draft(ctx):
    """``ctx.draft_dist`` as a function of a head and a sliced prefix."""
    return lambda head, prefix: ctx.draft_dist(head, prefix, len(prefix))


def _ctx_round(ctx, frontier):
    """:func:`_reference_round` on the context's committed prefix."""
    return _reference_round(_prefix_draft(ctx), ctx.heads, ctx.config, ctx.committed, frontier,
                            ctx.grid.size)


def _direction_depth(head, vsd):
    """The (direction, depth) of ``Slot.head`` in a pool laid out with ``vsd``
    vertical depths: the vertical heads by depth come first, then the
    horizontal ones."""
    return ("vertical", head + 1) if head < vsd else ("horizontal", head - vsd + 1)


def _slot_head(heads, slot, vsd):
    """The head of ``heads`` that ``slot`` of a pool laid out with ``vsd`` reads."""
    direction, depth = _direction_depth(slot.head, vsd)
    return getattr(heads, direction)[depth - 1]


def _labels(slots, vsd):
    """The ``source:depth`` label of each candidate of a plan layer laid out with ``vsd``."""
    return ["%s:%d" % _direction_depth(slot.head, vsd) for slot in slots
            for _ in range(slot.copies)]


class TestCacheFormulas:
    def test_capacity_values(self):
        assert cache_capacity(48, 2) == 144
        assert cache_capacity(48, 1) == 48
        assert cache_capacity(48, 0) == 0
        assert cache_capacity(4, 3) == 24

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            cache_capacity(0, 1)
        with pytest.raises(ValueError):
            cache_capacity(4, -1)


def _live(ctx, frontier):
    """The vertical drafts pools may hold ahead of ``frontier``, given the
    committed prefix, as {(target, depth): [draft, ...]}."""
    live = {}
    for target in range(frontier, ctx.grid.size):
        labels = []
        drafts = _vertical_drafts(
            _prefix_draft(ctx), ctx.heads, ctx.config, ctx.committed, target, frontier, labels
        )
        for draft, label in zip(drafts, labels):
            live.setdefault((target, int(label.split(":")[1])), []).append(draft)
    return live


class TestSpeculationCache:
    """The drafts a speculation cache would hold: every vertical draft some pool
    may read ahead of the frontier, computed from the committed prefix."""

    def test_empty_slot_rows(self):
        # Before any commit no pool holds a vertical draft. The context keeps
        # only the closed-form bounds: on a 3-row grid no frontier has both
        # depths' rows of drafts live, so the peak stays below capacity.
        grid = GridSpec(4, 3, 2)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 2, 2, 50, 5)
        config = EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=2)
        ctx = DecodingContext(model, heads, config, 3)
        assert _live(ctx, 0) == {}
        assert ctx.cache == (12, 8)

    def test_commit_writes_one_slot_per_depth(self):
        # The commit of t makes one (target, depth) pair live per depth,
        # target t + d * width, holding samples_per_vertical copies of the
        # depth-d draft of the committed prefix; it ends the pairs targeting
        # t, and every other pair keeps its draft.
        grid = GridSpec(4, 3, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 2, 2, 300, 5)
        config = EngineConfig(
            mode="hawk", horizontal_depth=2, vertical_depth=2, samples_per_vertical=2
        )
        ctx = DecodingContext(model, heads, config, 3)
        for t, token in enumerate([0, 1, 2, 0, 1, 2, 0, 1]):
            want = {key: slot for key, slot in _live(ctx, t).items() if key[0] > t}
            commit_token(ctx, token)
            assert ctx.committed[-1] == token and len(ctx.committed) == t + 1
            for d in (1, 2):
                if t + d * grid.width < grid.size:
                    draft = ctx.draft_dist(heads.vertical[d - 1], ctx.committed, t + 1)
                    want[(t + d * grid.width, d)] = [draft, draft]
            got = _live(ctx, t + 1)
            assert got.keys() == want.keys()
            for key, slot in got.items():
                assert len(slot) == 2 and all(a is b for a, b in zip(slot, want[key]))

    def test_occupancy_counts_live_slots(self):
        # The live pairs at every frontier stay within capacity and reach
        # it; their most is the context's closed-form peak, and none is live
        # once the grid is full.
        grid = GridSpec(4, 4, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 2, 2, 300, 5)
        config = EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=2)
        ctx = DecodingContext(model, heads, config, 3)
        counts = []
        for t in range(grid.size):
            commit_token(ctx, t % 3)
            counts.append(len(_live(ctx, t + 1)))
        assert max(counts) == ctx.cache.peak_occupancy == ctx.cache.capacity == 12
        assert counts[-1] == 0

    def test_heads_called_only_for_pool_drafts(self, monkeypatch):
        # A vertical head runs once for each vertical slot of a layer the walk
        # reaches (its samples_per_vertical copies are one call) and for
        # nothing else: no draft is computed when its source commits, nor for
        # a layer the walk stops before.
        grid = GridSpec(5, 5, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 3, 2, 300, 5, 0.5)
        config = EngineConfig(
            mode="hawk", horizontal_depth=3, vertical_depth=2, samples_per_vertical=2
        )
        calls = Counter()
        for d, head in enumerate(heads.vertical, start=1):
            predict = head.predict
            monkeypatch.setattr(
                head, "predict",
                lambda tokens, length, d=d, predict=predict:
                    calls.update([d]) or predict(tokens, length),
            )
        pools = _PoolSpy(monkeypatch)
        trace = []
        decode_batch(model, heads, config, 3, 4, trace=trace)
        held = Counter(
            f"vertical:{slot.head + 1}" for slots, _ in pools.calls for slot in slots
            if slot.head < config.vertical_depth
        )
        assert held == {f"vertical:{d}": n for d, n in calls.items()}
        assert set(held) == {"vertical:1", "vertical:2"}
        assert any(row[3].startswith("vertical:") for row in hawk.cli._trace_rows(trace))


class TestEngineConfig:
    def test_mode_constraints(self):
        with pytest.raises(ValueError):
            EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=0)
        with pytest.raises(ValueError):
            EngineConfig(mode="medusa", horizontal_depth=2, vertical_depth=1)
        with pytest.raises(ValueError):
            EngineConfig(mode="vanilla", vertical_depth=1)
        with pytest.raises(ValueError):
            EngineConfig(mode="warp")

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            EngineConfig(mode="vanilla", node_budget=0)
        with pytest.raises(ValueError):
            EngineConfig(mode="lantern", lantern_lambda=0.5)
        with pytest.raises(ValueError):
            EngineConfig(mode="medusa", samples_per_vertical=0)


def _hawk_setup(grid=None, seed=11):
    grid = grid or GridSpec(4, 4, 3)
    model = make_grid_markov_target(grid, seed, 0.8)
    heads = fit_tabular_draft_heads(model, 2, 1, 300, 5, 0.5)
    config = EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=1)
    return grid, model, heads, config


class TestLivePairsAfterCommit:
    def test_first_commit_writes_one_entry(self):
        # A commit only appends; the first one makes one pair live, the
        # depth-1 draft of index 0 for the position one row down.
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        commit_token(ctx, 1)
        assert ctx.committed == [1]
        ((key, (dist,)),) = _live(ctx, 1).items()
        assert key == (4, 1)
        assert dist is ctx.draft_dist(heads.vertical[0], [1], 1)  # computed from index 0

    def test_vsd_zero_cache_untouched(self):
        grid = GridSpec(4, 4, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 2, 0, 200, 5)
        config = EngineConfig(mode="medusa", horizontal_depth=2)
        ctx = DecodingContext(model, heads, config, 3)
        for t in range(grid.size):
            commit_token(ctx, 1)
            assert _live(ctx, t + 1) == {}
        assert ctx.cache == (0, 0)

    def test_writes_near_grid_end_are_clipped(self):
        # No pair targets past the grid end: with the last row's source
        # tokens committed, only the last row's positions are live, and none
        # once the grid is full.
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        for _ in range(grid.size - 1):
            commit_token(ctx, 0)
        assert set(_live(ctx, grid.size - 1)) == {(grid.size - 1, 1)}
        commit_token(ctx, 1)  # commit index 15; target 19 beyond grid
        assert _live(ctx, grid.size) == {}


class TestBuildPool:
    def test_first_row_has_no_vertical(self):
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        (slot,) = ctx.plans[0].layers[0]
        assert slot == Slot(1, 0, 1)  # after vertical:1
        assert _labels((slot,), 1) == ["horizontal:1"]
        assert build_pool(ctx, (slot,)) == (ctx.draft_dist(heads.horizontal[0], [], 0),)

    def test_interior_position_gathers_vertical(self):
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        for token in (0, 1, 2, 0):
            commit_token(ctx, token)
        horizontal = ctx.draft_dist(heads.horizontal[0], ctx.committed, 4)
        vertical = ctx.draft_dist(heads.vertical[0], [0], 1)  # for row 1, col 0
        slots = ctx.plans[4].layers[0]
        assert build_pool(ctx, slots) == (vertical, horizontal)
        assert _labels(slots, 1) == ["vertical:1", "horizontal:1"]

    def test_beyond_grid_rejected(self):
        # Plans cover the frontiers of an unfinished grid, and no layer of
        # one targets a position past the grid end; decode_round refuses a
        # finished grid before it looks for a plan.
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        assert len(ctx.plans) == grid.size
        for frontier, plan in enumerate(ctx.plans):
            assert len(plan.layers) == min(config.horizontal_depth, grid.size - frontier)
        ctx.committed = [0] * grid.size
        with pytest.raises(StateError):
            decode_round(ctx)

    def test_row_two_with_full_cache_gathers_both_depths(self):
        grid = GridSpec(4, 4, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 2, 2, 300, 5)
        config = EngineConfig(
            mode="hawk", horizontal_depth=2, vertical_depth=2, samples_per_horizontal=2,
            samples_per_vertical=2,
        )
        ctx = DecodingContext(model, heads, config, 3)
        tokens = [0, 1, 2, 0, 1, 2, 0, 1]  # rows 0 and 1 committed
        for token in tokens:
            commit_token(ctx, token)
        horizontal = ctx.draft_dist(heads.horizontal[0], ctx.committed, 8)
        one_up = ctx.draft_dist(heads.vertical[0], tokens, 5)
        two_up = ctx.draft_dist(heads.vertical[1], tokens, 1)
        # Row 2, col 0: each depth's draft samples_per_vertical times, by
        # depth, then the horizontal draft samples_per_horizontal times.
        slots = ctx.plans[8].layers[0]
        assert build_pool(ctx, slots) == (one_up,) * 2 + (two_up,) * 2 + (horizontal,) * 2
        want = ["vertical:1", "vertical:2", "horizontal:1"]
        assert _labels(slots, 2) == [label for label in want for _ in range(2)]


class TestCandidateTree:
    def test_single_chain(self):
        grid, model, heads, _ = _hawk_setup()
        config = EngineConfig(mode="medusa", horizontal_depth=2, samples_per_horizontal=1)
        ctx = DecodingContext(model, heads, config, 3)
        tree = build_candidate_tree(ctx.plans[0], config, ctx.draws)
        assert [len(layer) for layer in tree.layers] == [1, 1]

    def test_cartesian_product_at_interior(self):
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        tree = build_candidate_tree(ctx.plans[4], config, ctx.draws)
        assert [len(layer) for layer in tree.layers] == [2, 2]
        assert [len(slots) for slots in ctx.plans[4].layers] == [2, 2]

    def test_node_budget_tapers_layer_widths(self, monkeypatch):
        # Two 2-wide layers: budget 6 keeps the whole product (2 + 4 nodes),
        # 4 and 5 keep (2, 1) and 3 keeps a chain; depth 2 verifies the same
        # kept candidates whichever candidate depth 1 accepts.
        grid, model, heads, _ = _hawk_setup()
        for budget, kept in ((6, [2, 2]), (5, [2, 1]), (4, [2, 1]), (3, [1, 1])):
            config = EngineConfig(
                mode="hawk", horizontal_depth=2, vertical_depth=1, node_budget=budget
            )
            for first in range(kept[0]):
                widths = []

                def accept(p, drafts, uniforms, draws, choice=first):
                    widths.append(len(drafts))
                    index = choice if len(widths) == 1 else 0
                    return VerificationOutcome(index_at(drafts[index], uniforms[index]), index)

                monkeypatch.setattr(hawk.engine, "sequential_verify", accept)
                ctx = DecodingContext(model, heads, config, 3)
                for token in (0, 1, 2, 0):
                    commit_token(ctx, token)
                decode_round(ctx)
                assert widths == kept
                assert ctx.truncated_rounds == (kept != [2, 2])

    def test_vertical_first_layer_order(self):
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        for token in (0, 1, 2, 0):
            commit_token(ctx, token)
        hdist = ctx.draft_dist(heads.horizontal[0], ctx.committed, 4)
        vdist = ctx.draft_dist(heads.vertical[0], [0], 1)
        plan = ctx.plans[4]
        tree = build_candidate_tree(plan, config, ctx.draws)
        assert build_pool(ctx, plan.layers[0]) == (vdist, hdist)
        assert len(tree.layers[0]) == 2

    def test_candidates_view(self):
        # A layer's live candidates are a prefix of it, each with its own
        # uniform: verified against its own draft, candidate i is accepted at
        # once and the walk emits the token uniforms[i] draws from it.
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        for token in (0, 1, 2, 0):
            commit_token(ctx, token)
        plan = ctx.plans[4]
        layer = build_pool(ctx, plan.layers[0])
        uniforms = build_candidate_tree(plan, config, ctx.draws).layers[0]
        assert len(layer) == len(uniforms) == 2
        draws = Draws(stream(0, "draft"), stream(0, "accept"))
        for i, (q, u) in enumerate(zip(layer, uniforms)):
            outcome = sequential_verify(q, layer[i:], uniforms[i:], draws)
            assert outcome.accepted_index == 0
            assert outcome.emitted_token == index_at(q, u)

    def test_no_candidates_at_depth_one(self):
        # Row 0 has no cached vertical entries, so without horizontal
        # candidates the first layer would be empty: the config is refused.
        for mode, vertical_depth in (("hawk", 1), ("medusa", 0), ("lantern", 0)):
            with pytest.raises(ValueError, match="samples_per_horizontal"):
                EngineConfig(
                    mode=mode, horizontal_depth=1, vertical_depth=vertical_depth,
                    samples_per_horizontal=0, samples_per_vertical=1,
                )


def _tapered(lengths, b):
    return tuple(min(n, max(1, b - k)) for k, n in enumerate(lengths))


class TestTreeWidths:
    @given(st.lists(st.integers(1, 7), min_size=1, max_size=5), st.integers(1, 300))
    @example([6, 6, 6, 6], 64)
    @example([1, 3], 3)
    @example([2, 2, 2], 2)
    @settings(max_examples=300, deadline=None)
    def test_width_rule(self, lengths, budget):
        widths = tree_widths(tuple(lengths), budget)
        assert len(widths) == len(lengths)
        assert all(1 <= b <= n for b, n in zip(widths, lengths))
        assert tree_nodes(widths) == _nodes(widths)
        if budget < len(lengths):
            assert widths == (1,) * len(lengths)
        else:
            assert _nodes(widths) <= budget
        # The widths are the tapered ones of some b, and every larger b
        # either exceeds the budget or changes nothing.
        top = max(lengths) + len(lengths)
        b = min(c for c in range(1, top + 1) if _tapered(lengths, c) == widths)
        for c in range(b + 1, top + 1):
            wider = _tapered(lengths, c)
            assert wider == widths or _nodes(wider) > budget
        assert list(widths) == _widths_by_brute_force(lengths, budget)
        if _nodes(lengths) <= budget:
            assert widths == tuple(lengths)

    def test_known_shapes(self):
        # wide_tree_16x16's interior pools of 6 at budget 64; the 2x3 oracle's
        # pools of 3 at budgets 3 and 4; the shipped configs' pools of 2.
        assert tree_widths((6, 6, 6, 6), 64) == (4, 3, 2, 1)
        assert tree_nodes((4, 3, 2, 1)) == 64
        assert tree_widths((3, 3), 3) == (1, 1)
        assert tree_widths((3, 3), 4) == (2, 1)
        assert tree_widths((2, 2), 64) == (2, 2)
        assert tree_widths((1, 2), 64) == (1, 2)


def _symbolic_draft(head, prefix):
    """A symbolic head's draft of a sliced prefix: (direction, depth, length)."""
    return head + (len(prefix),)


def _symbolic(slots, vsd):
    """A plan layer's candidates as :func:`_symbolic_draft` gives them."""
    return [_direction_depth(slot.head, vsd) + (slot.length,) for slot in slots
            for _ in range(slot.copies)]


@st.composite
def plan_shapes(draw):
    """(width, height, config) over odd shapes: 1xN, Nx1, width <= H, vertical
    depth at or past the height, budget 1, no vertical samples."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    vertical_depth = draw(st.integers(0, 7))
    config = EngineConfig(
        mode="hawk" if vertical_depth else "medusa",
        horizontal_depth=draw(st.integers(1, 5)),
        vertical_depth=vertical_depth,
        samples_per_horizontal=draw(st.integers(1, 3)),
        samples_per_vertical=draw(st.integers(1, 3)),
        node_budget=draw(st.sampled_from([1, 2, 3, 5, 9, 20, 64, 400])),
    )
    return width, height, config


def _plan_case(width, height, **fields):
    base = dict(mode="hawk", horizontal_depth=3, vertical_depth=2, samples_per_vertical=2,
                node_budget=20)
    return width, height, EngineConfig(**{**base, **fields})


class TestRoundPlans:
    @given(plan_shapes())
    @example(_plan_case(1, 7))
    @example(_plan_case(7, 1))
    @example(_plan_case(2, 5, horizontal_depth=4))
    @example(_plan_case(3, 4, node_budget=1))
    @example(_plan_case(3, 3, vertical_depth=5))
    @example(_plan_case(16, 16, horizontal_depth=4, samples_per_horizontal=2, node_budget=64))
    @settings(max_examples=150, deadline=None)
    def test_matches_pool_law(self, shape):
        # Every frontier's plan keeps exactly the candidates, labels and
        # widths the old pool law and tree_widths slicing give, cuts where it
        # cut, and takes one uniform per kept candidate.
        width, height, config = shape
        size = width * height
        heads = SimpleNamespace(
            width=width,
            horizontal=tuple(("horizontal", n) for n in range(1, config.horizontal_depth + 1)),
            vertical=tuple(("vertical", d) for d in range(1, config.vertical_depth + 1)),
        )
        plans = round_plans(width, height, config.horizontal_depth, config.vertical_depth,
                            config.samples_per_horizontal, config.samples_per_vertical,
                            config.node_budget)
        assert len(plans) == size
        tokens = list(range(size))
        for frontier, plan in enumerate(plans):
            kept, labels, widths, lengths = _reference_round(
                _symbolic_draft, heads, config, tokens, frontier, size
            )
            assert [_symbolic(slots, config.vertical_depth) for slots in plan.layers] == kept
            assert [_labels(slots, config.vertical_depth) for slots in plan.layers] == labels
            assert all(slot.copies >= 1 for slots in plan.layers for slot in slots)
            assert plan.widths == widths
            assert plan.truncated == (widths != lengths)
            draws = Draws(stream(frontier, "plan"), stream(frontier, "verify"))
            tree = build_candidate_tree(plan, config, draws)
            assert sum(map(len, tree.layers)) == sum(map(len, kept))

    def test_context_reads_its_shape(self):
        # A context looks its plans up once, by the grid and the config's
        # shape numbers; contexts of one shape share the same plans.
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        assert ctx.plans is round_plans(4, 4, 2, 1, 1, 1, 64)
        assert DecodingContext(model, heads, config, 4).plans is ctx.plans
        assert DecodingContext(model, None, EngineConfig(mode="vanilla"), 3).plans is None


class TestLazyLayers:
    def test_unreached_layer_makes_no_head_call(self, monkeypatch):
        # Every walk resamples at depth 1, so no round reaches depth 2: each
        # round calls a head once per slot of its first layer and for nothing
        # else, yet takes the uniforms of every kept candidate, so each round
        # starts at the next uniform of an eager stream.
        grid = GridSpec(4, 4, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 3, 2, 300, 5, 0.5)
        config = EngineConfig(
            mode="hawk", horizontal_depth=3, vertical_depth=2, samples_per_horizontal=2,
            samples_per_vertical=2, node_budget=20,
            transform=SamplingConfig(top_k=2, temperature=0.8),
        )
        calls = []
        predict = TabularDraftHead.predict
        monkeypatch.setattr(
            TabularDraftHead, "predict",
            lambda head, tokens, length:
                calls.append((head, length)) or predict(head, tokens, length),
        )

        def resample(p, drafts, uniforms, draws):
            return VerificationOutcome(draws.sample(p), None)

        monkeypatch.setattr(hawk.engine, "sequential_verify", resample)
        spy = _VerifySpy(monkeypatch)
        ctx = DecodingContext(model, heads, config, 3)
        eager_rng = stream(3, "draft")
        while len(ctx.committed) < grid.size:
            calls.clear()
            decode_round(ctx)
            plan, tree, verified = spy.rounds[-1]
            assert len(verified) == 1 and len(ctx.committed) == len(spy.rounds)
            assert calls == [(_slot_head(heads, slot, 2), slot.length)
                             for slot in plan.layers[0]]
            assert sum(tree.layers, []) == eager_rng.random(sum(plan.widths)).tolist()
        assert ctx.draws.uniforms(1) == [eager_rng.random()]
        assert sum(len(plan.layers) > 1 for plan, _, _ in spy.rounds) > grid.size // 2
        assert any(plan.truncated for plan, _, _ in spy.rounds)


class _VerifySpy:
    """Records each round's plan and tree and every verify call made by ``decode_round``."""

    def __init__(self, monkeypatch):
        self.rounds = []  # (plan, tree, [(candidates, outcome), ...]) per speculative round
        build = hawk.engine.build_candidate_tree

        def spy_tree(plan, config, draws):
            tree = build(plan, config, draws)
            self.rounds.append((plan, tree, []))
            return tree

        def spying(verify):
            def spy_verify(p, candidates, *args, **kwargs):
                outcome = verify(p, candidates, *args, **kwargs)
                self.rounds[-1][2].append((candidates, outcome))
                return outcome

            return spy_verify

        monkeypatch.setattr(hawk.engine, "build_candidate_tree", spy_tree)
        for name in ("sequential_verify", "lantern_sequential_verify"):
            monkeypatch.setattr(hawk.engine, name, spying(getattr(hawk.engine, name)))


class _PoolSpy:
    """Records every ``build_pool`` call made by ``decode_round`` as (slots, layer)."""

    def __init__(self, monkeypatch):
        self.calls = []
        build = hawk.engine.build_pool

        def spy_pool(ctx, slots):
            layer = build(ctx, slots)
            self.calls.append((slots, layer))
            return layer

        monkeypatch.setattr(hawk.engine, "build_pool", spy_pool)


def _nodes(widths):
    """Nodes of the product tree: one per kept path prefix, sum_k prod_{j<=k} b_j."""
    return sum(int(np.prod(widths[: k + 1])) for k in range(len(widths)))


def _widths_by_brute_force(lengths, budget):
    """The tapered widths of the largest b that fits the budget, trying every b
    up to the one that makes every layer whole; all ones if none fits."""
    best = [1] * len(lengths)
    for b in range(1, max(lengths) + len(lengths) + 1):
        widths = [min(n, max(1, b - k)) for k, n in enumerate(lengths)]
        if _nodes(widths) <= budget:
            best = widths
    return best


# (horizontal_depth, vertical_depth, samples_per_horizontal, samples_per_vertical)
LIVE_SHAPES = [(3, 1, 1, 1), (2, 2, 2, 1), (3, 0, 3, 1)]


def _budgets(shape):
    h, v, sph, spv = shape
    product = (sph + spv * v) ** h  # widest tree, reached in rows below the first
    return [1, 3, product - 1, product + 1]


class TestLiveContinuations:
    @pytest.mark.parametrize(
        "shape, budget", [(shape, b) for shape in LIVE_SHAPES for b in _budgets(shape)]
    )
    def test_matches_truncated_product(self, monkeypatch, shape, budget):
        # Every round keeps the first b_k drafts of each pool, with the widths
        # the tapering rule gives by brute force, and each depth verifies all
        # of its kept drafts; a tree is cut (and counted) only when the whole
        # product of its pools has more nodes than the budget.
        h, v, sph, spv = shape
        grid = GridSpec(4, 4, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, h, v, 300, 5, 0.5)
        config = EngineConfig(
            mode="hawk" if v else "medusa", horizontal_depth=h, vertical_depth=v,
            samples_per_horizontal=sph, samples_per_vertical=spv,
            node_budget=budget,
        )
        spy = _VerifySpy(monkeypatch)
        ctx = DecodingContext(model, heads, config, 5)
        truncated = 0
        for _ in range(8):
            ctx.committed = []
            while len(ctx.committed) < grid.size:
                kept, _, widths, lengths = _ctx_round(ctx, len(ctx.committed))
                decode_round(ctx)
                plan, tree, calls = spy.rounds[-1]
                assert list(plan.widths) == _widths_by_brute_force(lengths, budget)
                assert [len(uniforms) for uniforms in tree.layers] == list(widths)
                assert plan.truncated == (widths != lengths)
                assert not plan.truncated or _nodes(lengths) > budget
                truncated += plan.truncated
                for k, (candidates, outcome) in enumerate(calls):
                    assert list(candidates) == kept[k]
                    if outcome.accepted_index is None:
                        break
        assert spy.rounds
        assert ctx.truncated_rounds == truncated
        assert truncated or _nodes([sph + spv * v] * h) <= budget

    def test_every_depth_verifies_its_whole_kept_layer(self, monkeypatch):
        # Every depth accepts, alternately its last candidate and its first,
        # and whichever it was, the next depth verifies exactly its kept layer.
        grid = GridSpec(5, 5, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 4, 2, 300, 5, 0.5)
        config = EngineConfig(
            mode="hawk", horizontal_depth=4, vertical_depth=2, samples_per_horizontal=2,
            samples_per_vertical=2, node_budget=40,
        )
        steps = []

        def accept_in_turn(p, drafts, uniforms, draws):
            steps.append(len(drafts))
            index = (len(drafts) - 1) * (len(steps) % 2)
            return VerificationOutcome(index_at(drafts[index], uniforms[index]), index)

        monkeypatch.setattr(hawk.engine, "sequential_verify", accept_in_turn)
        spy = _VerifySpy(monkeypatch)
        pools = _PoolSpy(monkeypatch)
        decode_batch(model, heads, config, 5, 3)
        verified = [candidates for _, _, calls in spy.rounds for candidates, _ in calls]
        assert verified == [layer for _, layer in pools.calls]
        for plan, _, calls in spy.rounds:
            assert [len(candidates) for candidates, _ in calls] == list(plan.widths)
        assert [slots for slots, _ in pools.calls] == [
            slots for plan, _, _ in spy.rounds for slots in plan.layers
        ]
        assert any(plan.truncated for plan, _, _ in spy.rounds)
        assert {o.accepted_index for _, _, calls in spy.rounds for _, o in calls} > {0, 1}

    def test_builds_only_the_candidates_walked(self, monkeypatch):
        # A wide tree (H=4, V=2, interior pools 4 wide) cut by the budget to
        # (2, 1, 1, 1): each verification step draws one candidate's token,
        # and no other kept candidate's token is drawn.
        grid = GridSpec(6, 6, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 4, 2, 300, 5, 0.5)
        config = EngineConfig(
            mode="hawk", horizontal_depth=4, vertical_depth=2, samples_per_horizontal=2,
            node_budget=20, transform=SamplingConfig(top_k=2, temperature=0.8),
        )
        drawn = []

        def counting(dist, u):
            drawn.append(u)
            return index_at(dist, u)

        monkeypatch.setattr(hawk.verifier, "index_at", counting)
        spy = _VerifySpy(monkeypatch)
        trace = []
        decode_batch(model, heads, config, 5, 4, trace=trace)
        kept = [list(plan.widths) for plan, _, _ in spy.rounds]
        assert [2, 1, 1, 1] in kept
        assert any(plan.truncated for plan, _, _ in spy.rounds)
        assert len(drawn) == len(hawk.cli._trace_rows(trace)) < sum(map(sum, kept))


# (vertical_depth, node_budget); vertical depth 0 is medusa
DRAW_ORDER_CASES = [(1, 64), (0, 64), (2, 3)]


class TestDrawOrder:
    @pytest.mark.parametrize("vsd, budget", DRAW_ORDER_CASES)
    def test_block_draw_matches_eager_draws(self, vsd, budget):
        # The round's uniforms come off the context's draft reader, which
        # fetches them in blocks; every token the walk draws from them must
        # equal the one an eager sample_index call per kept candidate on the
        # draft stream gives in the documented order (rounds in turn, depth
        # order, then within a layer the vertical candidates by depth before
        # the horizontal ones), and after each round the next uniform the
        # reader hands out must be the next eager draw.
        grid = GridSpec(4, 4, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 3, 2, 300, 5, 0.5)
        config = EngineConfig(
            mode="hawk" if vsd else "medusa", horizontal_depth=3, vertical_depth=vsd,
            samples_per_horizontal=2, samples_per_vertical=2, node_budget=budget,
            transform=SamplingConfig(top_k=2, temperature=0.8),
        )
        ctx = DecodingContext(model, heads, config, 3)
        eager_rng = stream(3, "draft")
        sample = model.sample_grid(stream(4, "draw-order"), 1)[0].tolist()
        for frontier in range(grid.size):
            plan = ctx.plans[frontier]
            kept, labels, widths, lengths = _ctx_round(ctx, frontier)
            accept = Draws(stream(frontier, "draft"), stream(frontier, "accept"))
            tree = build_candidate_tree(plan, config, ctx.draws)
            assert list(plan.widths) == _widths_by_brute_force(lengths, budget)
            for k, slots in enumerate(plan.layers):
                layer = build_pool(ctx, slots)
                assert list(layer) == kept[k]
                assert _labels(slots, config.vertical_depth) == labels[k]
                # Verified against its own draft, a candidate is accepted at
                # once, so the walk emits the token it drew.
                walked = [
                    sequential_verify(q, [q], [u], accept).emitted_token
                    for q, u in zip(layer, tree.layers[k])
                ]
                assert walked == [sample_index(q, eager_rng) for q in kept[k]]
            assert len(tree.layers) == len(kept)
            assert ctx.draws.uniforms(1) == [eager_rng.random()]
            commit_token(ctx, sample[frontier])

    @pytest.mark.parametrize("vsd, budget", DRAW_ORDER_CASES)
    def test_each_round_takes_one_uniform_per_kept_candidate(self, monkeypatch, vsd, budget):
        # Decoded by decode_round, each round takes sum_k b_k uniforms off the
        # draft stream, the next ones in order, whatever its walk accepted.
        grid = GridSpec(4, 4, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 3, 2, 300, 5, 0.5)
        config = EngineConfig(
            mode="hawk" if vsd else "medusa", horizontal_depth=3, vertical_depth=vsd,
            samples_per_horizontal=2, samples_per_vertical=2, node_budget=budget,
        )
        spy = _VerifySpy(monkeypatch)
        ctx = DecodingContext(model, heads, config, 3)
        eager_rng = stream(3, "draft")
        while len(ctx.committed) < grid.size:
            _, _, widths, lengths = _ctx_round(ctx, len(ctx.committed))
            decode_round(ctx)
            _, tree, _ = spy.rounds[-1]
            assert list(widths) == _widths_by_brute_force(lengths, budget)
            assert [len(uniforms) for uniforms in tree.layers] == list(widths)
            assert sum(tree.layers, []) == eager_rng.random(sum(widths)).tolist()
        assert ctx.draws.uniforms(1) == [eager_rng.random()]
        assert any(plan.truncated for plan, _, _ in spy.rounds) == (budget < 64 or vsd > 0)


def _forward_law(ctx, one_round=decode_round):
    """Exact law of a grid decoded on ``ctx``: prefix masses pushed, in length
    order, through each prefix's one-round kernel, ``enumerate_draws`` over
    one ``one_round(ctx)`` from that prefix."""
    model = ctx.model
    masses = [Counter() for _ in range(model.grid.size + 1)]
    masses[0][()] = 1.0
    for by_prefix in masses[:-1]:
        for prefix, mass in by_prefix.items():
            def run(draws, prefix=prefix):
                ctx.draws, ctx.committed = draws, list(prefix)
                one_round(ctx)
                return tuple(ctx.committed)

            for block, p in enumerate_draws(run).items():
                masses[len(block)][block] += mass * p
    return JointTable(model.grid, dict(masses[-1]))


class TestEveryChoiceDraws:
    @pytest.mark.parametrize("config", [
        EngineConfig(mode="vanilla"),
        EngineConfig(mode="medusa", horizontal_depth=2, samples_per_horizontal=2),
        EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=1),
    ], ids=lambda config: config.mode)
    def test_session_under_the_twin_is_the_joint(self, config):
        # Every random choice of a session goes through ctx.draws, so whole
        # sessions replayed on the enumerating twin give the exact law of the
        # decoded grid, which is the target's joint for the exact modes.
        grid = GridSpec(2, 2, 3)
        model = make_grid_markov_target(grid, 1009, 0.9)
        heads = fit_tabular_draft_heads(model, 2, 1, 500, 2003, 1.0)

        def session(draws):
            ctx = DecodingContext(model, heads, config, 0)
            ctx.draws = draws
            while len(ctx.committed) < grid.size:
                decode_round(ctx)
            return tuple(ctx.committed)

        law = enumerate_draws(session)
        exact = enumerate_joint(model, grid, SamplingConfig()).probs
        assert law.keys() == exact.keys()
        assert max(abs(law[key] - p) for key, p in exact.items()) <= 1e-12

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)], ids=lambda shape: "%dx%d" % shape)
    def test_forward_pass_is_the_joint(self, shape):
        # The exact modes match enumerate_joint in every cell, without a
        # sampling transform and under one (whose memo the context reads
        # inline); LANTERN's relaxed acceptance visibly does not.
        grid = GridSpec(*shape, 3)
        model = make_grid_markov_target(grid, 1009, 0.9)
        heads = fit_tabular_draft_heads(model, 2, 1, 500, 2003, 1.0)
        for transform in (SamplingConfig(), SamplingConfig(top_k=2, temperature=0.8)):
            exact = enumerate_joint(model, grid, transform)
            medusa = EngineConfig(mode="medusa", horizontal_depth=2, samples_per_horizontal=2,
                                  transform=transform)
            for config in (EngineConfig(mode="vanilla", transform=transform), medusa,
                           EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=1,
                                        transform=transform)):
                law = _forward_law(DecodingContext(model, heads, config, 0)).probs
                assert law.keys() == exact.probs.keys()
                assert max(abs(law[key] - p) for key, p in exact.probs.items()) <= 1e-12
            lantern = _forward_law(DecodingContext(
                model, heads, dataclasses.replace(medusa, mode="lantern"), 0))
            assert joint_tv(lantern, exact) > 0.05

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)], ids=lambda shape: "%dx%d" % shape)
    def test_layer_acceptance_is_the_walks_accepting_mass(self, shape, monkeypatch):
        # Every layer that medusa and hawk walk from every reachable prefix,
        # with and without a transform: the layer acceptance that
        # ``hawk.cli._layer_terms`` reduces from its trace record is the chance
        # that its walk, enumerated over every choice, accepts a draft, and
        # the multi-draft bound is not below it.
        grid = GridSpec(*shape, 3)
        model = make_grid_markov_target(grid, 1009, 0.9)
        heads = fit_tabular_draft_heads(model, 2, 1, 500, 2003, 1.0)
        walked = []
        verify = hawk.engine.sequential_verify
        monkeypatch.setattr(hawk.engine, "sequential_verify", lambda p, drafts, *args: (
            walked.append((p, drafts)) or verify(p, drafts, *args)))
        masses = {}

        def checked_round(ctx):
            # A replay that runs past its script ends mid-round, before the
            # round appends its records, so only finished rounds are checked.
            walked.clear()
            start = len(ctx.trace)
            decode_round(ctx)
            for (p, drafts), record in zip(walked, ctx.trace[start:], strict=True):
                key = (p.probs.tobytes(), *(q.probs.tobytes() for q in drafts))
                if key not in masses:
                    masses[key] = enumerate_draws(lambda draws: sequential_verify(
                        p, drafts, draws.uniforms(len(drafts)), draws
                    ).accepted_index is not None).get(True, 0.0)
                assert (record.target, record.drafts) == (p, drafts)
                _, _, acceptance, bound, width, _ = hawk.cli._layer_terms(record)
                assert width == len(drafts)
                assert abs(acceptance - masses[key]) <= 1e-12
                assert bound >= acceptance - 1e-12

        for transform in (SamplingConfig(), SamplingConfig(top_k=2, temperature=0.8)):
            for config in (
                EngineConfig(mode="medusa", horizontal_depth=2, samples_per_horizontal=2,
                             transform=transform),
                EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=1,
                             transform=transform),
            ):
                ctx = DecodingContext(model, heads, config, 0, trace=[])
                _forward_law(ctx, checked_round)
                assert ctx.trace
        assert len(masses) > 100


class TestDecodeRound:
    @pytest.mark.parametrize("fn", [
        decode_round, commit_token, build_pool, build_candidate_tree,
        hawk.verifier.sequential_verify, hawk.verifier.Draws.accept,
        hawk.verifier.Draws.uniforms,
        DecodingContext.target_dist, DecodingContext.draft_dist,
        hawk.models.TabularDraftHead.predict,
    ], ids=lambda fn: fn.__qualname__)
    def test_hot_path_has_no_cells(self, fn):
        # A local that a nested function, a generator expression or (before
        # Python 3.12) a comprehension reads becomes a cell, made on every
        # call and read through on every use; a comprehension in commit_token
        # cost vanilla 4-5% per round in paired in-process runs.
        assert fn.__code__.co_cellvars == ()

    def test_vanilla_commits_exactly_one(self):
        grid = GridSpec(2, 2, 3)
        model = make_grid_markov_target(grid, 7, 0.5)
        config = EngineConfig(mode="vanilla")
        ctx = DecodingContext(model, None, config, 1)
        decode_round(ctx)
        assert len(ctx.committed) == 1
        assert ctx.rounds == 1

    def test_single_draft_commits_one_or_two(self):
        grid = GridSpec(4, 4, 3)
        model = make_grid_markov_target(grid, 7, 0.5)
        heads = fit_tabular_draft_heads(model, 1, 0, 200, 5)
        config = EngineConfig(mode="medusa", horizontal_depth=1)
        ctx = DecodingContext(model, heads, config, 1)
        while len(ctx.committed) < grid.size:
            frontier = len(ctx.committed)
            decode_round(ctx)
            assert len(ctx.committed) - frontier in (1, 2)

    def test_finished_state_rejected(self):
        grid = GridSpec(2, 2, 3)
        model = make_grid_markov_target(grid, 7, 0.5)
        config = EngineConfig(mode="vanilla")
        ctx = DecodingContext(model, None, config, 1)
        ctx.committed = [0] * grid.size
        with pytest.raises(StateError):
            decode_round(ctx)

    def test_all_accept_round_pattern(self):
        grid = GridSpec(4, 4, 4)
        model, heads = iid_oracle(grid, 9, 2, 1)
        config = EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=1)
        ctx = DecodingContext(model, heads, config, 1)
        while len(ctx.committed) < grid.size:
            frontier = len(ctx.committed)
            decode_round(ctx)
            want = min(config.horizontal_depth + 1, grid.size - frontier)
            assert len(ctx.committed) - frontier == want


@st.composite
def round_cases(draw):
    """(grid, config) over odd shapes: 1xN, Nx1, width <= H, tiny budgets, top-k."""
    grid = GridSpec(draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(2, 4)))
    mode = draw(st.sampled_from(["medusa", "hawk", "lantern"]))
    config = EngineConfig(
        mode=mode,
        horizontal_depth=draw(st.integers(1, 4)),
        vertical_depth=draw(st.integers(1, 2)) if mode == "hawk" else 0,
        samples_per_horizontal=draw(st.integers(1, 2)),
        samples_per_vertical=draw(st.integers(1, 2)),
        node_budget=draw(st.sampled_from([1, 2, 5, 64])),
        transform=SamplingConfig(
            top_k=draw(st.sampled_from(["all", 1, 2])),
            temperature=draw(st.sampled_from([1.0, 0.7])),
        ),
    )
    return grid, config


def _hawk_case(width, height, **overrides):
    fields = dict(mode="hawk", horizontal_depth=3, vertical_depth=2, node_budget=64)
    return GridSpec(width, height, 3), EngineConfig(**{**fields, **overrides})


class TestRoundProperties:
    @given(round_cases(), st.integers(0, 2**16))
    @example(_hawk_case(1, 5), 0)
    @example(_hawk_case(5, 1), 0)
    @example(_hawk_case(2, 3, node_budget=1), 0)
    @example(_hawk_case(3, 3, transform=SamplingConfig(top_k=1, temperature=0.7)), 0)
    @settings(max_examples=60, deadline=None)
    def test_round_invariants(self, case, seed):
        grid, config = case
        h, v = config.horizontal_depth, config.vertical_depth
        model = make_grid_markov_target(grid, seed, 0.8)
        heads = fit_tabular_draft_heads(model, h, v, 30, seed, 0.5)
        trace = []
        ctx = DecodingContext(model, heads, config, seed, trace=trace)
        capacity = cache_capacity(grid.width, v)
        peak = 0
        truncated = 0
        with pytest.MonkeyPatch.context() as patch:
            spy = _VerifySpy(patch)
            while len(ctx.committed) < grid.size:
                assert ctx.rounds < grid.size  # every round commits at least one token
                frontier, first_row = len(ctx.committed), len(trace)
                live = len(_live(ctx, frontier))
                assert live <= capacity
                peak = max(peak, live)
                decode_round(ctx)
                committed = ctx.committed[frontier:]
                assert 1 <= len(committed) <= h + 1
                assert len(spy.rounds) == ctx.rounds
                plan, tree, calls = spy.rounds[-1]
                kept, labels, widths, lengths = _ctx_round(ctx, frontier)
                # The plan keeps the first b_k drafts of each pool, and every
                # depth the walk reaches verifies all of them.
                assert list(plan.widths) == _widths_by_brute_force(lengths, config.node_budget)
                assert [_labels(slots, config.vertical_depth) for slots in plan.layers] == labels
                assert [len(uniforms) for uniforms in tree.layers] == list(widths)
                assert [list(candidates) for candidates, _ in calls] == kept[: len(calls)]
                truncated += plan.truncated
                assert ctx.truncated_rounds == truncated
                outcomes = [outcome for _, outcome in calls]
                assert [o.emitted_token for o in outcomes] == committed[: len(outcomes)]
                accepted = [o.accepted_index is not None for o in outcomes]
                assert all(accepted[:-1])
                # A round that accepts through every layer adds a bonus token
                # unless the grid is full.
                bonus = accepted[-1] and frontier + len(outcomes) < grid.size
                assert len(committed) == len(outcomes) + bonus
                # The round's own records, one per layer its walk reached,
                # reduce to its rows: one per verification step, in walk
                # order, through the accepted candidate or all of them, each
                # with its alpha on the residual chain of its layer's target
                # and its label from the layout of the pool at round start.
                assert len(trace) - first_row == len(calls)
                rows = hawk.cli._trace_rows(trace[first_row:])
                want = []
                for depth, (drafts, o) in enumerate(calls, start=1):
                    if o.accepted_index is not None:
                        drafts = drafts[: o.accepted_index + 1]
                    target = ctx.target_dist(ctx.committed[: frontier + depth - 1])
                    alphas = chain_alphas(target, drafts)
                    assert len(alphas) == len(drafts)
                    names = labels[depth - 1]
                    want += [
                        (ctx.rounds - 1, frontier, depth, names[i], alpha,
                         i == o.accepted_index, len(committed))
                        for i, alpha in enumerate(alphas)
                    ]
                assert rows == want
                assert all(0.0 <= row[4] <= 1.0 + 1e-12 for row in rows)
                assert sum(row[5] for row in rows) == sum(accepted)

        assert peak <= ctx.cache.peak_occupancy <= capacity
        # The same seed traced through decode_image writes the same rows.
        image_trace = []
        tokens, report = decode_image(model, heads, config, seed, trace=image_trace)
        assert tokens.reshape(-1).tolist() == ctx.committed
        assert (report.rounds, report.truncated_rounds) == (ctx.rounds, ctx.truncated_rounds)
        assert hawk.cli._trace_rows(image_trace) == hawk.cli._trace_rows(trace)


class TestDecodeImage:
    def test_heads_of_another_grid_rejected(self):
        # Heads fitted on a 4-wide grid used to decode a 2-wide one, caching
        # the offset-4 vertical head as a one-row-down draft.
        model = make_grid_markov_target(GridSpec(2, 8, 3), 11, 0.8)
        wide_model = make_grid_markov_target(GridSpec(4, 4, 3), 11, 0.8)
        wide = fit_tabular_draft_heads(wide_model, 2, 1, 200, 5)
        config = EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=1)
        with pytest.raises(ValueError, match="head set width 4 does not match grid width 2"):
            decode_image(model, wide, config, 3)
        other_vocab = make_grid_markov_target(GridSpec(2, 8, 4), 11, 0.8)
        with pytest.raises(ValueError, match="vocab_size does not match grid vocab_size 3"):
            decode_image(model, fit_tabular_draft_heads(other_vocab, 2, 1, 20, 5), config, 3)

    def test_vanilla_2x2(self):
        grid = GridSpec(2, 2, 3)
        model = make_grid_markov_target(grid, 7, 0.5)
        tokens, report = decode_image(model, None, EngineConfig(mode="vanilla"), 1)
        assert tokens.shape == (2, 2)
        assert report.rounds == 4
        assert report.accept_length == 1.0

    def test_exact_heads_3x3_three_rounds(self):
        grid = GridSpec(3, 3, 4)
        model, heads = iid_oracle(grid, 9, 2, 1)
        config = EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=1)
        tokens, report = decode_image(model, heads, config, 1)
        assert report.rounds == 3
        assert report.accept_length == 3.0

    def test_deterministic_across_calls(self):
        grid, model, heads, config = _hawk_setup()
        a_tokens, a_report = decode_image(model, heads, config, 42)
        b_tokens, b_report = decode_image(model, heads, config, 42)
        assert np.array_equal(a_tokens, b_tokens)
        assert a_report.rounds == b_report.rounds
        c_tokens, _ = decode_image(model, heads, config, 43)
        assert not np.array_equal(a_tokens, c_tokens)

    def test_accept_length_is_committed_over_rounds(self):
        grid, model, heads, config = _hawk_setup()
        _, report = decode_image(model, heads, config, 5)
        assert report.accept_length == report.committed / report.rounds
        assert 1.0 <= report.accept_length <= config.horizontal_depth + 1

    def test_trace_rows_shape(self):
        grid, model, heads, config = _hawk_setup()
        trace = []
        decode_image(model, heads, config, 5, trace=trace)
        rows = hawk.cli._trace_rows(trace)
        assert rows
        for row in rows:
            assert len(row) == len(hawk.cli.TRACE_COLUMNS)
            rnd, frontier, depth, source, alpha, accepted, committed = row
            assert 0 <= alpha <= 1.0 + 1e-12
            assert source.split(":")[0] in ("horizontal", "vertical")
            assert committed >= 1

    def test_vanilla_heads_optional(self):
        grid = GridSpec(2, 2, 3)
        model = make_grid_markov_target(grid, 7, 0.5)
        decode_image(model, None, EngineConfig(mode="vanilla"), 1)
        with pytest.raises(ValueError):
            decode_image(model, None, EngineConfig(mode="medusa"), 1)


class TestSlotHeadOrder:
    @pytest.mark.parametrize("config", [
        EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=1),
        EngineConfig(mode="hawk", horizontal_depth=3, vertical_depth=1, samples_per_vertical=2),
        EngineConfig(mode="medusa", horizontal_depth=2, samples_per_horizontal=2),
    ])
    def test_deeper_heads_keep_the_layout_order(self, config):
        # The heads reach two vertical depths, deeper than every layout here:
        # a slot's head index counts only the layout's vertical depths, then
        # the horizontal heads, so each slot reads the head its label names
        # and every record's sources are its plan layer's labels.
        grid = GridSpec(4, 4, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 3, 2, 200, 5, 0.5)
        ctx = DecodingContext(model, heads, config, 0)
        vsd = config.vertical_depth
        assert len(ctx.slot_heads) == vsd + heads.horizontal_depth
        for plan in ctx.plans:
            for slot in itertools.chain.from_iterable(plan.layers):
                assert ctx.slot_heads[slot.head] is _slot_head(heads, slot, vsd)
        trace = []
        batch = decode_batch(model, heads, config, 3, 5, trace=trace)
        assert len(trace) == sum(batch.depth_attempts.values())
        for record in trace:
            slots = ctx.plans[record.frontier].layers[record.depth - 1]
            assert list(record.sources) == _labels(slots, vsd)


class TestPoolDraftsFromTheGrid:
    def test_cached_drafts_are_the_rebuilt_ones(self, monkeypatch):
        # The analysis code rebuilds the drafts the engine held from the
        # decoded grid alone. Every draft of every round's pools must be that
        # rebuild, vertical and horizontal; the transform is not the
        # identity, so a dropped transform shows too.
        grid = GridSpec(4, 5, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 2, 2, 300, 5, 0.5)
        transform = SamplingConfig(top_k=2, temperature=0.8)
        config = EngineConfig(
            mode="hawk", horizontal_depth=2, vertical_depth=2, transform=transform
        )
        def draft(head, prefix):
            return apply_sampling_config(head.predict(prefix, len(prefix)), transform)

        pools = _PoolSpy(monkeypatch)
        checked = Counter()
        for seed in range(3):
            pools.calls.clear()
            tokens, _ = decode_image(model, heads, config, seed, trace=[])
            tokens = tokens.reshape(-1).tolist()
            for slots, layer in pools.calls:
                # No pool is cut here, so each ends in its horizontal slot,
                # whose prefix is the round's.
                frontier, (_, n) = slots[-1].length, _direction_depth(slots[-1].head, 2)
                labels = []
                want = _build_pool(draft, heads, config, tokens, frontier, n, labels)
                assert _labels(slots, 2) == labels and len(layer) == len(want)
                for got, rebuilt in zip(layer, want):
                    np.testing.assert_array_equal(got.probs, rebuilt.probs)
                checked.update(label.split(":")[0] for label in labels)
        assert checked["vertical"] > 0 and checked["horizontal"] > 0


# Grids narrower than the horizontal depth, node budget 5: (width, height,
# engine fields) and, per speculative mode, the SHA-256 of 40 traced sessions
# (grid counts, rounds, per-depth attempts and accepts, trace rows), recorded
# when the node budget became a tapered tree. Here a commit can write slot
# frontier + width in the middle of a round whose pools were built from it
# empty, so a label read after the round, or a slot left over from the
# previous session, changes the rows.
NARROW_GRIDS = {
    "2x5_h3_v1": ((2, 5, dict(horizontal_depth=3, vertical_depth=1)), {
        "medusa": "a9c5603d53d3a10d79bc8d313e3ccb8cda7170d7fbb48acd5f2b2732114fd632",
        "hawk": "5088ab24053707acc4c8d561c04033d96b99b6ad4376b882f26d130237f11ec2",
        "lantern": "41b8d1d3aaf2c6aed3b233f4c86bc69cc2a4d5a171f5e805004d62f245f9df60",
    }),
    "1x6_h3_v2_spv2": ((1, 6, dict(horizontal_depth=3, vertical_depth=2,
                                   samples_per_vertical=2)), {
        "medusa": "27763435d36434be2d124c08d9ab9c96f34cff26f7b3a59c435c02f1b9b35a16",
        "hawk": "9c750811a98af97da47e6f98e5bb76d4716239eb1871aaeddcfa80053aafeb57",
        "lantern": "db388eb4c7c8a84ff925acfb7ba2dd43a4e8e0c0b1a682968a19e37055db7002",
    }),
    "2x4_h4_v2_sph2": ((2, 4, dict(horizontal_depth=4, vertical_depth=2,
                                   samples_per_horizontal=2)), {
        "medusa": "ff712f96dac7d5a002eaab2209cfd352e7b8c1c79760628eb00979fed5ef3f8d",
        "hawk": "74d3d57b9ad60bea3ca795fdf675fc6a4792ee771717a29560a2e05213b48f41",
        "lantern": "bcba41cbcf9e97469908aa2a1a169a9ec6e7ba84a9f40fd5b09de529acdadafb",
    }),
}


class TestNarrowGrids:
    @pytest.mark.parametrize("name", sorted(NARROW_GRIDS))
    def test_traced_batches_unchanged(self, name):
        (width, height, fields), pinned = NARROW_GRIDS[name]
        grid = GridSpec(width, height, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(
            model, fields["horizontal_depth"], fields["vertical_depth"], 200, 5, 0.5
        )
        variants = hawk.cli._mode_variants(EngineConfig(mode="hawk", node_budget=5, **fields))
        digests = {}
        for mode in pinned:
            trace = []
            batch = decode_batch(model, heads, variants[mode], 7, 40, trace=trace)
            record = (sorted(batch.grid_counts.items()), batch.rounds,
                      sorted(batch.depth_attempts.items()), sorted(batch.depth_accepts.items()),
                      hawk.cli._trace_rows(trace))
            digests[mode] = hashlib.sha256(repr(record).encode()).hexdigest()
        assert digests == pinned


class TestMedusaEqualsHawkWithoutVerticalInfo:
    def test_one_row_grid_identical_outputs(self):
        # On a single-row grid every vertical write clips, so hawk mode
        # degenerates to the medusa path; identical seeds must give
        # identical grids.
        grid = GridSpec(6, 1, 4)
        model = make_grid_markov_target(grid, 13, 0.0)
        heads = fit_tabular_draft_heads(model, 2, 1, 300, 5)
        medusa = EngineConfig(mode="medusa", horizontal_depth=2)
        hawk = EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=1)
        for seed in (1, 2, 3, 17):
            m_tokens, m_report = decode_image(model, heads, medusa, seed)
            h_tokens, h_report = decode_image(model, heads, hawk, seed)
            assert np.array_equal(m_tokens, h_tokens)
            assert m_report.rounds == h_report.rounds


class TestBatch:
    @pytest.mark.parametrize("count", [True, 2.5, "3", 0])
    def test_count_is_never_coerced(self, count):
        grid, model, heads, config = _hawk_setup()
        with pytest.raises(ValueError, match="field 'count' must be"):
            decode_batch(model, heads, config, 21, count)

    def test_batch_of_one_matches_image(self):
        grid, model, heads, _ = _hawk_setup()
        config = EngineConfig(
            mode="hawk", horizontal_depth=2, vertical_depth=1, draft_overhead_ratio=0.105
        )
        tokens, result = decode_image(model, heads, config, 21)
        batch = decode_batch(model, heads, config, 21, 1)
        assert batch.grid_counts == {tuple(tokens.reshape(-1).tolist()): 1}
        assert tokens.shape == (grid.height, grid.width)
        # Every field but the wall clock (grid counts, rounds, committed,
        # per-depth attempts and accepts, mode) is equal.
        same = dataclasses.replace(result, wall_clock_ms=batch.wall_clock_ms)
        assert same == batch
        assert batch.depth_attempts and batch.committed == grid.size

    def test_batch_validation(self):
        grid, model, heads, config = _hawk_setup()
        with pytest.raises(ValueError):
            decode_batch(model, heads, config, 21, 0)

    def test_report_invariants(self):
        grid, model, heads, config = _hawk_setup()
        result = decode_batch(model, heads, config, 21, 25)
        assert result.mode == "hawk"
        assert result.committed == 25 * grid.size
        assert sum(result.grid_counts.values()) == 25
        assert result.accept_length >= 1.0
        assert list(result.depth_accept_rates) == sorted(result.depth_attempts)
        for rate in result.depth_accept_rates.values():
            assert 0.0 <= rate <= 1.0


# Two head sets of one plan shape, fitted on one model with these seeds, and
# the batch seeds each decodes: alternated in one process, each batch must be
# what a process that never saw the other head set decodes.
BINDING_FIT_SEEDS = (5, 6)
BINDING_BATCH_SEEDS = (21, 22)


def _binding_case(fit_seed):
    grid = GridSpec(4, 4, 3)
    model = make_grid_markov_target(grid, 11, 0.8)
    heads = fit_tabular_draft_heads(model, 2, 1, 300, fit_seed, 0.5)
    config = EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=1,
                          samples_per_horizontal=2, node_budget=6)
    return model, heads, config


def _binding_batch(model, heads, config, seed):
    trace = []
    batch = decode_batch(model, heads, config, seed, 6, trace=trace)
    return (batch.grid_counts, batch.rounds, batch.depth_attempts, batch.depth_accepts,
            hawk.cli._trace_rows(trace))


def _fresh_binding_batches(fit_seed):
    """Every batch of one head set, decoded in a process where no other head set ran."""
    model, heads, config = _binding_case(fit_seed)
    return [_binding_batch(model, heads, config, seed) for seed in BINDING_BATCH_SEEDS]


class TestHeadBinding:
    def test_alternating_head_sets_never_share_a_binding(self):
        # Slots reach their heads by position in a tuple of the context's own
        # head set, so a head set decoded after another of the same plan
        # shape still uses its own heads, and nothing keeps a head set alive
        # once its last batch is done.
        # A worker that cannot start breaks the pool, which fails the test.
        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn"),
                                 max_tasks_per_child=1) as pool:
            fresh = dict(zip(BINDING_FIT_SEEDS, pool.map(_fresh_binding_batches, BINDING_FIT_SEEDS)))
        assert fresh[BINDING_FIT_SEEDS[0]] != fresh[BINDING_FIT_SEEDS[1]]
        cases = {fit_seed: _binding_case(fit_seed) for fit_seed in BINDING_FIT_SEEDS}
        assert len({config for _, _, config in cases.values()}) == 1  # one plan shape
        refs = {fit_seed: weakref.ref(heads) for fit_seed, (_, heads, _) in cases.items()}
        for i, seed in enumerate(BINDING_BATCH_SEEDS):
            for fit_seed in BINDING_FIT_SEEDS:
                assert _binding_batch(*cases[fit_seed], seed) == fresh[fit_seed][i], fit_seed
        for fit_seed in BINDING_FIT_SEEDS:
            del cases[fit_seed]
            gc.collect()
            assert refs[fit_seed]() is None, fit_seed


class _FreshCopyHead(DraftHead):
    """Returns a new distribution object on every call, as a learned head would."""

    def __init__(self, inner):
        self.inner = inner
        self.offset = inner.offset

    def predict(self, tokens, length):
        return TokenDistribution(self.inner.predict(tokens, length).probs)

    def true_token_logs(self, keys, grids):
        return self.inner.true_token_logs(keys, grids)


class TestPerCallDrafts:
    def test_per_call_distributions_never_hit_stale_entries(self):
        grid, model, fitted, _ = _hawk_setup()
        heads = DraftHeadSet(
            width=grid.width,
            horizontal=tuple(_FreshCopyHead(h) for h in fitted.horizontal),
            vertical=tuple(_FreshCopyHead(h) for h in fitted.vertical),
        )
        transform = SamplingConfig(top_k=2, temperature=0.7)
        config = EngineConfig(
            mode="hawk", horizontal_depth=2, vertical_depth=1, transform=transform
        )
        ctx = DecodingContext(model, heads, config, 0)
        gen = stream(8, "draft-cache")
        for sample in model.sample_grid(gen, 20).tolist():
            for t in range(grid.size):
                for head in heads.horizontal + heads.vertical:
                    got = ctx.draft_dist(head, sample, t)
                    want = apply_sampling_config(head.inner.predict(sample, t), transform)
                    np.testing.assert_array_equal(got.probs, want.probs)


class _WeakReferableDistribution(TokenDistribution):
    __slots__ = ("__weakref__",)


class _RecordingHead(_FreshCopyHead):
    """A per-call-allocating head that keeps weak references to what it returned."""

    def __init__(self, inner, refs):
        super().__init__(inner)
        self.refs = refs

    def predict(self, tokens, length):
        out = _WeakReferableDistribution(self.inner.predict(tokens, length).probs)
        self.refs.append(weakref.ref(out))
        return out


class TestTransformMemoLifetime:
    def test_per_call_outputs_freed_after_batch(self, monkeypatch):
        grid, model, fitted, _ = _hawk_setup()
        refs = []
        heads = DraftHeadSet(
            width=grid.width,
            horizontal=tuple(_RecordingHead(h, refs) for h in fitted.horizontal),
            vertical=tuple(_RecordingHead(h, refs) for h in fitted.vertical),
        )
        transform = SamplingConfig(top_k=2, temperature=0.7)
        config = EngineConfig(
            mode="hawk", horizontal_depth=2, vertical_depth=1, transform=transform
        )
        draft_dist = DecodingContext.draft_dist
        checked = []
        alive_at_session_start = []

        def checked_draft_dist(ctx, head, tokens, length):
            if not length and head is heads.horizontal[0]:
                # A session's first draft: nothing drafted earlier may survive.
                gc.collect()
                alive_at_session_start.append(sum(ref() is not None for ref in refs))
            got = draft_dist(ctx, head, tokens, length)
            # A fresh copy has an empty memo, so this recomputes the transform.
            fresh = TokenDistribution(head.inner.predict(tokens, length).probs)
            np.testing.assert_array_equal(
                got.probs, apply_sampling_config(fresh, transform).probs
            )
            checked.append(1)
            return got

        monkeypatch.setattr(DecodingContext, "draft_dist", checked_draft_dist)
        decode_batch(model, heads, config, 9, 5)
        gc.collect()
        assert alive_at_session_start == [0] * 5
        assert len(checked) == len(refs) > 0
        assert all(ref() is None for ref in refs)


class TestTransformMemoRead:
    def test_lookups_read_the_memo_and_transform_only_on_a_miss(self, monkeypatch):
        # A repeated lookup returns the memoized object without calling the
        # transform; a context whose config holds an equal but distinct
        # SamplingConfig misses the inline read and gets an equal result.
        # The single transform call fails if the memo layout that
        # apply_sampling_config writes and the inline read diverge.
        grid, model, heads, config = _hawk_setup()
        transform = SamplingConfig(top_k=2, temperature=0.7)
        ctx = DecodingContext(model, heads, dataclasses.replace(config, transform=transform), 0)
        twin = DecodingContext(model, heads, dataclasses.replace(
            config, transform=SamplingConfig(top_k=2, temperature=0.7)), 0)
        calls = []

        def counted(dist, config):
            calls.append(config)
            return apply_sampling_config(dist, config)

        monkeypatch.setattr(hawk.engine, "apply_sampling_config", counted)
        prefix = [0, 1, 2, 1, 0]
        head = heads.horizontal[0]
        for lookup, base in (
            (lambda c: c.target_dist(prefix), model.conditional(prefix)),
            (lambda c: c.draft_dist(head, prefix, len(prefix)), head.predict(prefix, len(prefix))),
        ):
            calls.clear()
            first = lookup(ctx)
            fresh = apply_sampling_config(TokenDistribution(base.probs), transform)
            np.testing.assert_array_equal(first.probs, fresh.probs)
            assert base._memo == (transform, first)
            assert lookup(ctx) is first
            assert len(calls) == 1
            np.testing.assert_array_equal(lookup(twin).probs, first.probs)
            assert len(calls) == 2 and calls[1] is twin.config.transform


class TestTransformedExactness:
    def test_joint_matches_oracle_under_transforms(self):
        # Non-identity transforms define the effective target; decoded joints
        # must match its enumeration at Monte Carlo accuracy for every exact
        # mode. Tolerance is calibrated from the vanilla run.
        grid = GridSpec(2, 2, 3)
        model = make_grid_markov_target(grid, 101, 0.9)
        heads = fit_tabular_draft_heads(model, 2, 1, 400, 5)
        transform = SamplingConfig(top_k=2, temperature=0.7)
        exact = enumerate_joint(model, grid, transform)
        n = 40_000

        configs = {
            "vanilla": EngineConfig(mode="vanilla", transform=transform),
            "medusa": EngineConfig(
                mode="medusa", horizontal_depth=2, samples_per_horizontal=2,
                transform=transform,
            ),
            "hawk": EngineConfig(
                mode="hawk", horizontal_depth=2, vertical_depth=1, transform=transform
            ),
        }
        tvs = {}
        for mode, config in configs.items():
            h = None if mode == "vanilla" else heads
            batch = decode_batch(model, h, config, 77, n)
            tvs[mode] = joint_tv(exact, empirical_joint_from_counts(batch.grid_counts, grid))
        floor = tvs["vanilla"]
        assert tvs["medusa"] <= 3 * floor
        assert tvs["hawk"] <= 3 * floor


class TestGraymapExport:
    def test_black_and_white_extremes(self, tmp_path):
        grid = GridSpec(3, 2, 2)
        path = tmp_path / "black.pgm"
        export_grid_image([0] * 6, grid, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 2\n255\n")
        assert data[11:] == bytes([0] * 6)

        export_grid_image([1] * 6, grid, tmp_path / "white.pgm")
        assert (tmp_path / "white.pgm").read_bytes()[11:] == bytes([255] * 6)

    def test_header_round_trip(self, tmp_path):
        grid = GridSpec(5, 4, 7)
        tokens = np.arange(20).reshape(4, 5) % 7
        path = tmp_path / "grid.pgm"
        export_grid_image(tokens, grid, path)
        magic, dims, maxval = path.read_bytes().split(b"\n", 3)[:3]
        assert magic == b"P5"
        width, height = map(int, dims.split())
        assert (width, height) == (grid.width, grid.height)
        assert int(maxval) == 255

    def test_validation(self, tmp_path):
        grid = GridSpec(2, 2, 3)
        with pytest.raises(ValueError):
            export_grid_image([0, 1], grid, tmp_path / "short.pgm")
        with pytest.raises(ValueError):
            export_grid_image([0, 1, 2, 3], grid, tmp_path / "range.pgm")
