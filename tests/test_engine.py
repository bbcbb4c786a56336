"""Decoding loop: cache law, pools, candidate tree, round structure, exports."""

import dataclasses
import gc
import hashlib
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hawk.cli
import hawk.engine
import hawk.verifier
from hawk.core import (
    GridSpec,
    SamplingConfig,
    StateError,
    TokenDistribution,
    apply_sampling_config,
    index_at,
    kl_divergence,
    sample_index,
)
from hawk.engine import (
    DecodingContext,
    EngineConfig,
    SpeculationCache,
    TRACE_COLUMNS,
    _pool_labels,
    commit_token,
    build_candidate_tree,
    build_pool,
    cache_capacity,
    decode_batch,
    decode_image,
    decode_round,
    export_grid_image,
    tree_nodes,
    tree_widths,
)
from hawk.models import (
    DraftHead,
    DraftHeadSet,
    fit_tabular_draft_heads,
    make_exact_heads,
    make_grid_markov_target,
    make_independent_target,
)
from hawk.oracle_metrics import (
    _engine_drafts,
    empirical_joint_from_counts,
    enumerate_joint,
    joint_tv,
    kl_trace,
)
from hawk.rng import stream
from hawk.verifier import (
    VerificationOutcome,
    chain_alphas,
    sequential_verify,
)

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


def _filled(cache):
    """Every written slot of the cache, as {(target, depth): slot}."""
    return {
        (target, d): slot
        for d, row in enumerate(cache.rows, start=1)
        for target, slot in enumerate(row)
        if slot
    }


class TestSpeculationCache:
    def test_empty_slot_rows(self):
        # One row per depth, one empty slot per raster index.
        cache = SpeculationCache(GridSpec(4, 3, 2), 2)
        assert cache.rows == [[()] * 12, [()] * 12]
        assert (cache.capacity, cache.occupancy, cache.peak_occupancy) == (12, 0, 0)
        assert SpeculationCache(GridSpec(4, 3, 2), 0).rows == []

    def test_commit_writes_one_slot_per_depth(self):
        # The commit of t writes slot t + d * width of row d - 1 with
        # samples_per_vertical copies of the depth-d draft of the committed
        # prefix, and leaves every other slot as it was.
        grid = GridSpec(4, 3, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 2, 2, 300, 5)
        config = EngineConfig(
            mode="hawk", horizontal_depth=2, vertical_depth=2, samples_per_vertical=2
        )
        ctx = DecodingContext(model, heads, config, 3)
        for t, token in enumerate([0, 1, 2, 0, 1, 2, 0, 1]):
            want = _filled(ctx.cache)
            commit_token(ctx, token)
            for d in (1, 2):
                if t + d * grid.width < grid.size:
                    draft = ctx.draft_dist(heads.vertical[d - 1], ctx.committed)
                    want[(t + d * grid.width, d)] = (draft, draft)
            got = _filled(ctx.cache)
            assert got.keys() == want.keys()
            for key, slot in got.items():
                assert len(slot) == 2 and all(a is b for a, b in zip(slot, want[key]))

    def test_occupancy_counts_live_slots(self):
        # Occupancy is the count of written slots not yet committed; it
        # reaches capacity, drains to 0 by the end of the session, and
        # clearing empties every slot but keeps the peak.
        grid = GridSpec(4, 4, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 2, 2, 300, 5)
        config = EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=2)
        ctx = DecodingContext(model, heads, config, 3)
        for t in range(grid.size):
            commit_token(ctx, t % 3)
            live = [key for key in _filled(ctx.cache) if key[0] > t]
            assert ctx.cache.occupancy == len(live) <= ctx.cache.capacity == 12
        assert ctx.cache.occupancy == 0
        assert ctx.cache.peak_occupancy == 12
        assert _filled(ctx.cache)
        ctx.cache.clear()
        assert _filled(ctx.cache) == {}
        assert (ctx.cache.occupancy, ctx.cache.peak_occupancy) == (0, 12)
        assert [len(row) for row in ctx.cache.rows] == [grid.size] * 2

    def test_overflow_raises(self):
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        ctx.cache.capacity = 1
        commit_token(ctx, 0)
        with pytest.raises(RuntimeError, match="occupancy 2 exceeds capacity 1"):
            commit_token(ctx, 1)


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
            EngineConfig(mode="lantern", lantern_lam=0.5)
        with pytest.raises(ValueError):
            EngineConfig(mode="medusa", samples_per_vertical=-1)


def _hawk_setup(grid=None, seed=11):
    grid = grid or GridSpec(4, 4, 3)
    model = make_grid_markov_target(grid, seed, 0.8)
    heads = fit_tabular_draft_heads(model, 2, 1, 300, 5, 0.5)
    config = EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=1)
    return grid, model, heads, config


class TestCommitCachePolicy:
    def test_first_commit_writes_one_entry(self):
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        commit_token(ctx, 1)
        ((key, (dist,)),) = _filled(ctx.cache).items()
        assert key == (4, 1)
        assert dist is ctx.draft_dist(heads.vertical[0], [1])  # computed from index 0
        assert ctx.cache.occupancy == 1

    def test_vsd_zero_cache_untouched(self):
        grid = GridSpec(4, 4, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 2, 0, 200, 5)
        config = EngineConfig(mode="medusa", horizontal_depth=2)
        ctx = DecodingContext(model, heads, config, 3)
        commit_token(ctx, 1)
        assert ctx.cache.rows == []
        assert ctx.cache.occupancy == 0

    def test_writes_near_grid_end_are_clipped(self):
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        for _ in range(grid.size - 1):
            commit_token(ctx, 0)
        before = _filled(ctx.cache)
        commit_token(ctx, 1)  # commit index 15; target 19 beyond grid
        assert _filled(ctx.cache) == before
        assert ctx.cache.occupancy == 0


class TestBuildPool:
    def test_first_row_has_no_vertical(self):
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        horizontal = ctx.draft_dist(heads.horizontal[0], [])
        assert build_pool(ctx, 1, horizontal) == (horizontal,)
        assert _pool_labels(ctx, 1) == ["horizontal:1"]

    def test_interior_position_gathers_vertical(self):
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        for token in (0, 1, 2, 0):
            commit_token(ctx, token)
        horizontal = ctx.draft_dist(heads.horizontal[0], ctx.committed)
        vertical = ctx.draft_dist(heads.vertical[0], [0])  # for row 1, col 0
        assert build_pool(ctx, 1, horizontal) == (vertical, horizontal)
        assert _pool_labels(ctx, 1) == ["vertical:1", "horizontal:1"]

    def test_beyond_grid_rejected(self):
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        ctx.committed = [0] * grid.size
        with pytest.raises(ValueError):
            build_pool(ctx, 1, ctx.draft_dist(heads.horizontal[0], []))

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
        horizontal = ctx.draft_dist(heads.horizontal[0], ctx.committed)
        one_up = ctx.draft_dist(heads.vertical[0], tokens[:5])
        two_up = ctx.draft_dist(heads.vertical[1], tokens[:1])
        # Row 2, col 0: each depth's draft samples_per_vertical times, by
        # depth, then the horizontal draft samples_per_horizontal times.
        assert build_pool(ctx, 1, horizontal) == (one_up,) * 2 + (two_up,) * 2 + (horizontal,) * 2
        labels = ["vertical:1", "vertical:2", "horizontal:1"]
        assert _pool_labels(ctx, 1) == [label for label in labels for _ in range(2)]


class TestCandidateTree:
    def test_single_chain(self):
        grid, model, heads, _ = _hawk_setup()
        config = EngineConfig(
            mode="hawk",
            horizontal_depth=2,
            vertical_depth=1,
            samples_per_horizontal=1,
            samples_per_vertical=0,
        )
        ctx = DecodingContext(model, heads, config, 3)
        layers = [
            build_pool(ctx, n, ctx.draft_dist(heads.horizontal[n - 1], []))
            for n in (1, 2)
        ]
        tree = build_candidate_tree(layers, config, ctx.draft_uniforms)
        assert [len(layer) for layer in tree.layers] == [1, 1]

    def test_cartesian_product_at_interior(self):
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        for token in (0, 1, 2, 0):
            commit_token(ctx, token)
        layers = [
            build_pool(ctx, n, ctx.draft_dist(heads.horizontal[n - 1], ctx.committed))
            for n in (1, 2)
        ]
        tree = build_candidate_tree(layers, config, ctx.draft_uniforms)
        assert [len(layer) for layer in tree.layers] == [2, 2]

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

                def accept(p, drafts, uniforms, rng, choice=first):
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
        hdist = ctx.draft_dist(heads.horizontal[0], ctx.committed)
        vdist = ctx.draft_dist(heads.vertical[0], [0])
        tree = build_candidate_tree([build_pool(ctx, 1, hdist)], config, ctx.draft_uniforms)
        assert tree.layers[0] == (vdist, hdist)
        assert len(tree.uniforms[0]) == 2

    def test_candidates_view(self):
        # A layer's live candidates are a prefix of it, each with its own
        # uniform: verified against its own draft, candidate i is accepted at
        # once and the walk emits the token uniforms[i] draws from it.
        grid, model, heads, config = _hawk_setup()
        ctx = DecodingContext(model, heads, config, 3)
        for token in (0, 1, 2, 0):
            commit_token(ctx, token)
        hdist = ctx.draft_dist(heads.horizontal[0], ctx.committed)
        tree = build_candidate_tree([build_pool(ctx, 1, hdist)], config, ctx.draft_uniforms)
        (layer,), (uniforms,) = tree.layers, tree.uniforms
        assert len(layer) == len(uniforms) == 2
        rng = stream(0, "accept")
        for i, (q, u) in enumerate(zip(layer, uniforms)):
            outcome = sequential_verify(q, layer[i:], uniforms[i:], rng)
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


class _VerifySpy:
    """Records each round's pools and tree and every verify call made by ``decode_round``."""

    def __init__(self, monkeypatch):
        self.rounds = []  # (pools, tree, [(candidates, outcome), ...]) per speculative round
        build = hawk.engine.build_candidate_tree

        def spy_tree(layers, config, reader):
            tree = build(layers, config, reader)
            self.rounds.append((tuple(layers), tree, []))
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
LIVE_SHAPES = [(3, 1, 1, 1), (2, 2, 2, 1), (3, 0, 3, 0)]


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
        batch = decode_batch(model, heads, config, 5, 8)
        truncated = 0
        for pools, tree, calls in spy.rounds:
            lengths = [len(pool) for pool in pools]
            widths = _widths_by_brute_force(lengths, budget)
            assert [len(layer) for layer in tree.layers] == widths
            assert [len(uniforms) for uniforms in tree.uniforms] == widths
            assert tree.layers == tuple(pool[:b] for pool, b in zip(pools, widths))
            assert tree.truncated == (widths != lengths)
            assert not tree.truncated or _nodes(lengths) > budget
            truncated += tree.truncated
            for k, (candidates, outcome) in enumerate(calls):
                assert candidates == tree.layers[k]
                if outcome.accepted_index is None:
                    break
        assert spy.rounds
        assert batch.truncated_rounds == truncated
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

        def accept_in_turn(p, drafts, uniforms, rng):
            steps.append(len(drafts))
            index = (len(drafts) - 1) * (len(steps) % 2)
            return VerificationOutcome(index_at(drafts[index], uniforms[index]), index)

        monkeypatch.setattr(hawk.engine, "sequential_verify", accept_in_turn)
        spy = _VerifySpy(monkeypatch)
        decode_batch(model, heads, config, 5, 3)
        for _, tree, calls in spy.rounds:
            assert [candidates for candidates, _ in calls] == list(tree.layers)
        assert any(tree.truncated for _, tree, _ in spy.rounds)
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
        kept = [[len(layer) for layer in tree.layers] for _, tree, _ in spy.rounds]
        assert [2, 1, 1, 1] in kept
        assert any(tree.truncated for _, tree, _ in spy.rounds)
        assert len(drawn) == len(trace) < sum(map(sum, kept))


def _pool_from_prefix(ctx, frontier, n):
    """The drafts and labels of the depth-n pool of a round that starts at
    ``frontier``, rebuilt from the committed prefix: each vertical draft of a
    position committed before the round, by depth, ``samples_per_vertical``
    times, then the horizontal draft ``samples_per_horizontal`` times."""
    config, heads, width = ctx.config, ctx.heads, ctx.grid.width
    drafts, labels = [], []
    for d in range(1, config.vertical_depth + 1):
        source = frontier + n - 1 - d * width
        if 0 <= source < frontier:
            draft = ctx.draft_dist(heads.vertical[d - 1], ctx.committed[: source + 1])
            drafts += [draft] * config.samples_per_vertical
            labels += [f"vertical:{d}"] * config.samples_per_vertical
    horizontal = ctx.draft_dist(heads.horizontal[n - 1], ctx.committed[:frontier])
    drafts += [horizontal] * config.samples_per_horizontal
    labels += [f"horizontal:{n}"] * config.samples_per_horizontal
    return drafts, labels


# (samples_per_vertical, node_budget)
DRAW_ORDER_CASES = [(1, 64), (0, 64), (2, 3)]


class TestDrawOrder:
    @pytest.mark.parametrize("spv, budget", DRAW_ORDER_CASES)
    def test_block_draw_matches_eager_draws(self, spv, budget):
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
            mode="hawk", horizontal_depth=3, vertical_depth=2, samples_per_horizontal=2,
            samples_per_vertical=spv, node_budget=budget,
            transform=SamplingConfig(top_k=2, temperature=0.8),
        )
        ctx = DecodingContext(model, heads, config, 3)
        eager_rng = stream(3, "draft")
        sample = model.sample_grid(stream(4, "draw-order"), 1)[0].tolist()
        for frontier in range(grid.size):
            depths = range(1, min(config.horizontal_depth, grid.size - frontier) + 1)
            drafts = [ctx.draft_dist(heads.horizontal[n - 1], ctx.committed) for n in depths]
            layers = [build_pool(ctx, n, drafts[n - 1]) for n in depths]
            accept_rng = stream(frontier, "accept")
            tree = build_candidate_tree(layers, config, ctx.draft_uniforms)
            widths = _widths_by_brute_force([len(layer) for layer in layers], budget)
            for k, b in enumerate(widths):
                want, labels = _pool_from_prefix(ctx, frontier, k + 1)
                assert list(layers[k]) == want
                want = want[:b]
                assert list(tree.layers[k]) == want
                assert _pool_labels(ctx, k + 1) == labels
                # Verified against its own draft, a candidate is accepted at
                # once, so the walk emits the token it drew.
                walked = [
                    sequential_verify(q, [q], [u], accept_rng).emitted_token
                    for q, u in zip(tree.layers[k], tree.uniforms[k])
                ]
                assert walked == [sample_index(q, eager_rng) for q in want]
            assert len(tree.layers) == len(layers)
            assert ctx.draft_uniforms.take(1) == [eager_rng.random()]
            commit_token(ctx, sample[frontier])

    @pytest.mark.parametrize("spv, budget", DRAW_ORDER_CASES)
    def test_each_round_takes_one_uniform_per_kept_candidate(self, monkeypatch, spv, budget):
        # Decoded by decode_round, each round takes sum_k b_k uniforms off the
        # draft stream, the next ones in order, whatever its walk accepted.
        grid = GridSpec(4, 4, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 3, 2, 300, 5, 0.5)
        config = EngineConfig(
            mode="hawk", horizontal_depth=3, vertical_depth=2, samples_per_horizontal=2,
            samples_per_vertical=spv, node_budget=budget,
        )
        spy = _VerifySpy(monkeypatch)
        ctx = DecodingContext(model, heads, config, 3)
        eager_rng = stream(3, "draft")
        while len(ctx.committed) < grid.size:
            decode_round(ctx)
            pools, tree, _ = spy.rounds[-1]
            widths = _widths_by_brute_force([len(pool) for pool in pools], budget)
            assert [len(uniforms) for uniforms in tree.uniforms] == widths
            assert sum(tree.uniforms, []) == eager_rng.random(sum(widths)).tolist()
        assert ctx.draft_uniforms.take(1) == [eager_rng.random()]
        assert any(tree.truncated for _, tree, _ in spy.rounds) == (budget < 64 or spv > 0)


class TestDecodeRound:
    @pytest.mark.parametrize("fn", [
        decode_round, commit_token, build_pool, build_candidate_tree,
        hawk.verifier._walk, hawk.verifier.sequential_verify,
        DecodingContext.target_dist, DecodingContext.draft_dist,
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
        model = make_independent_target(grid, 9)
        heads = make_exact_heads(model, 2, 1)
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
        samples_per_vertical=draw(st.integers(0, 2)),
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
    @example(_hawk_case(3, 3, samples_per_vertical=0), 0)
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
        truncated = 0
        with pytest.MonkeyPatch.context() as patch:
            spy = _VerifySpy(patch)
            while len(ctx.committed) < grid.size:
                assert ctx.rounds < grid.size  # every round commits at least one token
                frontier, first_row = len(ctx.committed), len(trace)
                decode_round(ctx)
                committed = ctx.committed[frontier:]
                assert 1 <= len(committed) <= h + 1
                assert ctx.cache.occupancy <= capacity
                assert len(spy.rounds) == ctx.rounds
                layers, tree, calls = spy.rounds[-1]
                pools = [_pool_from_prefix(ctx, frontier, n) for n in range(1, len(layers) + 1)]
                assert list(layers) == [tuple(drafts) for drafts, _ in pools]
                # The tree keeps the first b_k drafts of each pool, and every
                # depth the walk reaches verifies all of them.
                widths = _widths_by_brute_force([len(layer) for layer in layers],
                                                config.node_budget)
                assert tree.layers == tuple(layer[:b] for layer, b in zip(layers, widths))
                assert [candidates for candidates, _ in calls] == list(tree.layers[: len(calls)])
                truncated += tree.truncated
                assert ctx.truncated_rounds == truncated
                outcomes = [outcome for _, outcome in calls]
                assert [o.emitted_token for o in outcomes] == committed[: len(outcomes)]
                accepted = [o.accepted_index is not None for o in outcomes]
                assert all(accepted[:-1])
                # A round that accepts through every layer adds a bonus token
                # unless the grid is full.
                bonus = accepted[-1] and frontier + len(outcomes) < grid.size
                assert len(committed) == len(outcomes) + bonus
                # The round's own rows: one per verification step, in walk
                # order, through the accepted candidate or all of them, each
                # with its alpha on the residual chain of its layer's target
                # and its label from the layout of the pool at round start.
                rows = trace[first_row:]
                want = []
                for depth, (drafts, o) in enumerate(calls, start=1):
                    if o.accepted_index is not None:
                        drafts = drafts[: o.accepted_index + 1]
                    target = ctx.target_dist(ctx.committed[: frontier + depth - 1])
                    alphas = chain_alphas(target, drafts)
                    assert len(alphas) == len(drafts)
                    labels = pools[depth - 1][1]
                    want += [
                        (ctx.rounds - 1, frontier, depth, labels[i], alpha,
                         i == o.accepted_index, len(committed))
                        for i, alpha in enumerate(alphas)
                    ]
                assert rows == want
                assert all(0.0 <= row[4] <= 1.0 + 1e-12 for row in rows)
                assert sum(row[5] for row in rows) == sum(accepted)

        # The same seed traced through decode_image writes the same rows.
        image_trace = []
        tokens, report = decode_image(model, heads, config, seed, trace=image_trace)
        assert tokens.reshape(-1).tolist() == ctx.committed
        assert (report.rounds, report.truncated_rounds) == (ctx.rounds, ctx.truncated_rounds)
        assert image_trace == trace


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

    def test_exact_heads_of_another_grid_rejected(self):
        # Exact heads of a 4x4 vocab-3 model used to fail mid-decode on a
        # 4x8 grid (position 16 out of range) and on a 4x4 vocab-4 grid
        # (length mismatch); they are refused before the first round.
        heads = make_exact_heads(make_independent_target(GridSpec(4, 4, 3), 9), 2, 1)
        config = EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=1)
        for grid in (GridSpec(4, 8, 3), GridSpec(4, 4, 4)):
            with pytest.raises(ValueError, match="exact heads are for grid"):
                decode_image(make_independent_target(grid, 9), heads, config, 3)

    def test_vanilla_2x2(self):
        grid = GridSpec(2, 2, 3)
        model = make_grid_markov_target(grid, 7, 0.5)
        tokens, report = decode_image(model, None, EngineConfig(mode="vanilla"), 1)
        assert tokens.shape == (2, 2)
        assert report.rounds == 4
        assert report.accept_length == 1.0
        assert report.modeled_speedup == 1.0

    def test_exact_heads_3x3_three_rounds(self):
        grid = GridSpec(3, 3, 4)
        model = make_independent_target(grid, 9)
        heads = make_exact_heads(model, 2, 1)
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
        assert trace
        for row in trace:
            assert len(row) == len(TRACE_COLUMNS)
            rnd, frontier, depth, source, alpha, accepted, committed = row
            assert 0 <= alpha <= 1.0 + 1e-12
            assert source.split(":")[0] in ("horizontal", "vertical")
            assert committed >= 1

    def test_kl_trace_only_on_hawk(self, monkeypatch):
        # Reference: at each commit, the KL between the cached depth-1
        # vertical entry for the position and the horizontal draft of the
        # committed prefix. The trace computed from the decoded grid must
        # equal it; only hawk caches vertical entries, so only hawk has one.
        grid, model, heads, _ = _hawk_setup()
        config = EngineConfig(
            mode="hawk", horizontal_depth=2, vertical_depth=1,
            transform=SamplingConfig(top_k=2, temperature=0.8),
        )
        reference = {}
        commit = hawk.engine.commit_token

        def recording_commit(ctx, token):
            t = len(ctx.committed)
            for row in ctx.cache.rows[:1]:  # depth 1, when there is one
                if row[t]:
                    h1 = ctx.draft_dist(ctx.heads.horizontal[0], ctx.committed)
                    reference.setdefault(ctx.config.mode, []).append(
                        (t, kl_divergence(row[t][0], h1))
                    )
            commit(ctx, token)

        monkeypatch.setattr(hawk.engine, "commit_token", recording_commit)
        tokens, _ = decode_image(model, heads, config, 5)
        assert kl_trace(heads, config, tokens) == reference["hawk"]
        assert [pos for pos, _ in reference["hawk"]] == list(range(grid.width, grid.size))
        medusa = EngineConfig(mode="medusa", horizontal_depth=2, samples_per_horizontal=2)
        decode_image(model, heads, medusa, 5)
        assert list(reference) == ["hawk"]

    def test_vanilla_heads_optional(self):
        grid = GridSpec(2, 2, 3)
        model = make_grid_markov_target(grid, 7, 0.5)
        decode_image(model, None, EngineConfig(mode="vanilla"), 1)
        with pytest.raises(ValueError):
            decode_image(model, None, EngineConfig(mode="medusa"), 1)


class TestZeroVerticalSamples:
    def test_no_vertical_head_calls(self, monkeypatch):
        # With samples_per_vertical 0 no pool holds a vertical draft, so the
        # cache keeps no rows and no vertical head is ever called; the decodes
        # are the ones recorded when every commit still computed them (300
        # vertical head calls for these 10 grids).
        grid = GridSpec(6, 6, 4)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 2, 1, 300, 5, 0.5)
        calls = []
        head = heads.vertical[0]
        predict = head.predict
        monkeypatch.setattr(head, "predict", lambda prefix: calls.append(prefix) or predict(prefix))
        config = EngineConfig(
            mode="hawk", horizontal_depth=2, vertical_depth=1, samples_per_vertical=0
        )
        trace = []
        batch = decode_batch(model, heads, config, 3, 10, trace=trace)
        record = (sorted(batch.grid_counts.items()), batch.rounds,
                  sorted(batch.depth_attempts.items()), sorted(batch.depth_accepts.items()),
                  trace)
        assert calls == []
        assert DecodingContext(model, heads, config, 3).cache.rows == []
        assert hashlib.sha256(repr(record).encode()).hexdigest() == (
            "ab5904269476044d387673d5c7dbc8ede86df9eb7eb3dfba44e0f6c5ba7e6331"
        )


class TestDraftRebuild:
    def test_cached_drafts_are_the_rebuilt_ones(self):
        # The analysis code rebuilds the drafts the engine held from the
        # decoded grid alone. Every live cache entry, after every round, must
        # be that rebuild, and so must the frontier's horizontal draft; the
        # transform is not the identity, so a dropped transform shows too.
        grid = GridSpec(4, 5, 3)
        model = make_grid_markov_target(grid, 11, 0.8)
        heads = fit_tabular_draft_heads(model, 2, 2, 300, 5, 0.5)
        transform = SamplingConfig(top_k=2, temperature=0.8)
        config = EngineConfig(
            mode="hawk", horizontal_depth=2, vertical_depth=2, transform=transform
        )
        for seed in range(3):
            ctx = DecodingContext(model, heads, config, seed)
            snapshots = []
            while len(ctx.committed) < grid.size:
                decode_round(ctx)
                frontier = len(ctx.committed)
                horizontal = None
                if frontier < grid.size:
                    horizontal = ctx.draft_dist(heads.horizontal[0], ctx.committed)
                live = {key: slot for key, slot in _filled(ctx.cache).items()
                        if key[0] >= frontier}
                assert len(live) == ctx.cache.occupancy
                snapshots.append((frontier, horizontal, live))
            tokens = ctx.committed
            for frontier, horizontal, entries in snapshots:
                if horizontal is not None:
                    rebuilt, _ = _engine_drafts(heads, config, tokens, frontier, 0)
                    np.testing.assert_array_equal(horizontal.probs, rebuilt.probs)
                for (t, d), (dist,) in entries.items():
                    _, verticals = _engine_drafts(heads, config, tokens, t, d)
                    np.testing.assert_array_equal(dist.probs, verticals[d - 1].probs)
            assert sum(len(entries) for _, _, entries in snapshots) > 0


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
                      trace)
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
        # per-depth attempts and accepts, mode and overhead ratio) is equal.
        same = dataclasses.replace(result, wall_clock_ms=batch.wall_clock_ms)
        assert same == batch
        assert batch.depth_attempts and batch.committed == grid.size
        assert batch.modeled_speedup == result.modeled_speedup == batch.accept_length / 1.105

    def test_batch_validation(self):
        grid, model, heads, config = _hawk_setup()
        with pytest.raises(ValueError):
            decode_batch(model, heads, config, 21, 0)

    def test_vanilla_report_has_no_draft_overhead(self):
        grid, model, heads, _ = _hawk_setup()
        vanilla = EngineConfig(mode="vanilla", draft_overhead_ratio=0.105)
        batch = decode_batch(model, None, vanilla, 21, 3)
        assert (batch.mode, batch.draft_overhead_ratio) == ("vanilla", 0.0)
        assert batch.modeled_speedup == 1.0
        assert decode_image(model, None, vanilla, 21)[1].modeled_speedup == 1.0
        config = EngineConfig(
            mode="hawk", horizontal_depth=2, vertical_depth=1, draft_overhead_ratio=0.105
        )
        result = decode_batch(model, heads, config, 21, 3)
        assert result.modeled_speedup == result.accept_length / 1.105

    def test_report_invariants(self):
        grid, model, heads, config = _hawk_setup()
        result = decode_batch(model, heads, config, 21, 25)
        assert result.mode == "hawk"
        assert result.committed == 25 * grid.size
        assert sum(result.grid_counts.values()) == 25
        assert result.accept_length >= 1.0
        assert result.modeled_speedup == result.accept_length  # no overhead configured
        assert list(result.depth_accept_rates) == sorted(result.depth_attempts)
        for rate in result.depth_accept_rates.values():
            assert 0.0 <= rate <= 1.0


class _FreshCopyHead(DraftHead):
    """Returns a new distribution object on every call, as a learned head would."""

    def __init__(self, inner):
        self.inner = inner
        self.offset = inner.offset

    def predict(self, prefix):
        return TokenDistribution(self.inner.predict(prefix).probs)


class TestDraftCache:
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
                    got = ctx.draft_dist(head, sample[:t])
                    want = apply_sampling_config(head.inner.predict(sample[:t]), transform)
                    np.testing.assert_array_equal(got.probs, want.probs)


class _WeakReferableDistribution(TokenDistribution):
    __slots__ = ("__weakref__",)


class _RecordingHead(_FreshCopyHead):
    """A per-call-allocating head that keeps weak references to what it returned."""

    def __init__(self, inner, refs):
        super().__init__(inner)
        self.refs = refs

    def predict(self, prefix):
        out = _WeakReferableDistribution(self.inner.predict(prefix).probs)
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

        def checked_draft_dist(ctx, head, prefix):
            if not prefix and head is heads.horizontal[0]:
                # A session's first draft: nothing drafted earlier may survive.
                gc.collect()
                alive_at_session_start.append(sum(ref() is not None for ref in refs))
            got = draft_dist(ctx, head, prefix)
            # A fresh copy has an empty memo, so this recomputes the transform.
            fresh = TokenDistribution(head.inner.predict(prefix).probs)
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
