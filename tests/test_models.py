"""Target models, draft-head fitting, and the saved heads file."""

import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hawk.models
from hawk.cli import build_heads, build_model, load_run_config
from hawk.core import GridSpec, TokenDistribution, sample_index
from hawk.models import (
    _BLOCK_GRIDS,
    DraftHead,
    DraftHeadSet,
    GridMarkovModel,
    TabularDraftHead,
    _code_count,
    _random_rows,
    _sample_blocks,
    _signature_codes,
    _signature_of,
    fit_tabular_draft_heads,
    head_offsets,
    held_out_nll,
    make_grid_markov_target,
    save_head_set,
)
from hawk.rng import stream

ROOT = Path(__file__).resolve().parent.parent
GRID = GridSpec(4, 4, 3)


def iid_oracle(grid, seed, horizontal_depth, vertical_depth):
    """(target, heads) of the all-accept oracle on ``grid``.

    The target is a GridMarkovModel with one seeded random row at every
    (left, above) pair, so each token is drawn from that row whatever precedes
    it. Every head maps every signature code to that row, so each draft is
    bitwise equal to its target, also after a transform (both go through
    ``apply_sampling_config``): p / q is 1.0 and every verification accepts.
    """
    k = grid.vocab_size
    row = _random_rows(stream(seed, "independent-tables"), 1, k)[0]
    model = GridMarkovModel(grid, np.tile(row, (k + 1, k + 1, 1)), np.zeros((k, 2)))
    table = dict.fromkeys(range(_code_count(grid.width, k)), model.conditional([]))
    heads = [tuple(TabularDraftHead(d, grid.width, k, 0.0, table) for d in offsets)
             for offsets in head_offsets(grid.width, horizontal_depth, vertical_depth)]
    return model, DraftHeadSet(grid.width, *heads)


class TestGridMarkovModel:
    def test_deterministic_construction(self):
        a = make_grid_markov_target(GRID, 77, 0.5)
        b = make_grid_markov_target(GRID, 77, 0.5)
        assert np.array_equal(a.tables, b.tables)
        assert np.array_equal(a.token_embeddings, b.token_embeddings)

    def test_different_seeds_differ(self):
        a = make_grid_markov_target(GRID, 77, 0.5)
        b = make_grid_markov_target(GRID, 78, 0.5)
        assert not np.array_equal(a.tables, b.tables)

    def test_weight_zero_ignores_above(self):
        model = make_grid_markov_target(GRID, 5, 0.0)
        k = GRID.vocab_size
        for left in range(k + 1):
            rows = [model.tables[left, above] for above in range(k + 1)]
            for row in rows[1:]:
                np.testing.assert_array_equal(row, rows[0])

    def test_weight_one_ignores_left(self):
        model = make_grid_markov_target(GRID, 5, 1.0)
        k = GRID.vocab_size
        for above in range(k + 1):
            rows = [model.tables[left, above] for left in range(k + 1)]
            for row in rows[1:]:
                np.testing.assert_array_equal(row, rows[0])

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            make_grid_markov_target(GRID, 5, 1.5)
        with pytest.raises(ValueError):
            make_grid_markov_target(GRID, 5, -0.1)

    def test_empty_prefix_uses_boundary_row(self):
        model = make_grid_markov_target(GRID, 5, 0.5)
        got = model.conditional([])
        np.testing.assert_array_equal(got.probs, model.tables[-1, -1])

    def test_row_start_uses_boundary_left(self):
        model = make_grid_markov_target(GRID, 5, 0.5)
        prefix = [1, 2, 0, 1]  # length == width, frontier at row 1 col 0
        got = model.conditional(prefix)
        np.testing.assert_array_equal(got.probs, model.tables[-1, prefix[0]])

    def test_vertical_weight_one_selects_by_above(self):
        model = make_grid_markov_target(GRID, 5, 1.0)
        prefix = [2, 0, 1, 2]
        got = model.conditional(prefix)
        np.testing.assert_array_equal(got.probs, model.tables[prefix[-1], prefix[0]])

    def test_conditionals_are_distributions(self):
        model = make_grid_markov_target(GRID, 9, 0.3)
        gen = stream(0, "probe")
        prefix = []
        for _ in range(GRID.size - 1):
            d = model.conditional(prefix)
            assert abs(d.probs.sum() - 1.0) < 1e-9
            prefix.append(int(gen.integers(GRID.vocab_size)))

    def test_sample_grid_matches_conditional_chain(self):
        model = make_grid_markov_target(GRID, 5, 0.5)
        fast = model.sample_grid(stream(123, "x"), 1)[0]
        slow = []
        gen = stream(123, "x")
        for _ in range(GRID.size):
            slow.append(sample_index(model.conditional(slow), gen))
        assert fast.tolist() == slow

    def test_vertical_only_dependency_by_enumeration(self):
        # With vertical_weight 1 on a 2x2 grid, the second-row conditional
        # depends only on the token directly above, not the rest of row 0.
        grid = GridSpec(2, 2, 3)
        model = make_grid_markov_target(grid, 31, 1.0)
        for above in range(3):
            seen = {
                tuple(model.conditional([above, other]).probs) for other in range(3)
            }
            # prefix [above, other]: frontier (1,0) has above == prefix[0]
            assert len({tuple(model.conditional([above, other]).probs) for other in range(3)}) == 1
            assert len(seen) == 1


def _scalar_sample(model, gen):
    """An ancestral sample drawn one ``sample_index`` call per position."""
    out = []
    for _ in range(model.grid.size):
        out.append(sample_index(model.conditional(out), gen))
    return tuple(out)


class TestSampleGridStream:
    def test_block_draw_is_the_scalar_chain(self):
        # One call of n grids consumes exactly n * size uniforms, and every
        # token is the one the scalar chain draws.
        grid = GridSpec(16, 16, 6)
        model = make_grid_markov_target(grid, 2024, 0.9)
        block, scalar = stream(31, "draw"), stream(31, "draw")
        for n in (5, 1, 0, 12):
            grids = model.sample_grid(block, n)
            assert grids.shape == (n, grid.size) and grids.dtype == np.int64
            assert grids.flags.c_contiguous
            assert [tuple(g) for g in grids.tolist()] == [
                _scalar_sample(model, scalar) for _ in range(n)
            ]
            assert block.random() == scalar.random()


@st.composite
def sparse_models(draw):
    """A GridMarkovModel of 1-5 by 1-5 over 2-5 tokens whose rows have
    zero-probability tokens, trailing ones included."""
    grid = GridSpec(draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(2, 5)))
    k = grid.vocab_size
    tables = np.zeros((k + 1, k + 1, k))
    for row in tables.reshape(-1, k):
        top = draw(st.integers(0, k - 1))
        weights = draw(st.lists(st.integers(0, 3), min_size=top, max_size=top))
        weights.append(draw(st.integers(1, 3)))
        row[: top + 1] = np.array(weights) / sum(weights)
    return GridMarkovModel(grid, tables, np.zeros((k, 2)))


class _FixedUniforms:
    """Hands out the given uniforms in order, as ``Generator.random`` would."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, shape=None):
        n = 1 if shape is None else int(np.prod(shape))
        out, self.values = self.values[:n], self.values[n:]
        return out[0] if shape is None else np.array(out).reshape(shape)


class TestBlockSampler:
    @given(
        sparse_models(),
        st.sampled_from([1, 2, _BLOCK_GRIDS - 1, _BLOCK_GRIDS, _BLOCK_GRIDS + 1]),
        st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_are_the_scalar_chain(self, model, count, seed):
        block, scalar = stream(seed, "blocks"), stream(seed, "blocks")
        blocks = list(_sample_blocks(model, count, block))
        assert all(len(b) <= _BLOCK_GRIDS for b in blocks)
        rows = [tuple(g) for b in blocks for g in b.tolist()]
        assert rows == [_scalar_sample(model, scalar) for _ in range(count)]
        assert block.random() == scalar.random()

    def test_ties_and_the_clamp_are_bisect_right(self):
        # Every row is [0.5, 0.25, 0.25 - 1e-10, 0]: its sampling table is
        # [0.5, 0.75]. A uniform equal to a cut selects the token after it,
        # and one past the row's cumulative sum, the last positive token.
        grid = GridSpec(3, 2, 4)
        row = [0.5, 0.25, 0.25 - 1e-10, 0.0]
        embeddings = np.zeros((4, 2))
        uniforms = [0.0, 0.5, 0.75, 1 - 2**-53, 0.4999, 0.7500001] * 2
        model = GridMarkovModel(grid, np.tile(row, (5, 5, 1)), embeddings)
        grids = model.sample_grid(_FixedUniforms(uniforms), 2)
        assert grids.tolist() == [[0, 1, 2, 2, 0, 2]] * 2
        scalar = _FixedUniforms(uniforms)
        want = [_scalar_sample(model, scalar) for _ in range(2)]
        assert [tuple(g) for g in grids.tolist()] == want


class TestOffsetClassification:
    def test_default_split(self):
        assert head_offsets(4, 2, 2) == ((1, 2), (4, 8))
        assert head_offsets(4, 3, 0) == ((1, 2, 3), ())
        heads = fit_tabular_draft_heads(make_grid_markov_target(GRID, 5, 0.5), 2, 2, 5, 9)
        assert [h.offset for h in heads.horizontal] == [1, 2]
        assert [h.offset for h in heads.vertical] == [4, 8]

    def test_narrow_grid_directions_share_offsets(self):
        # A 2-wide grid's horizontal depth 2 and vertical depth 1 both predict
        # offset 2, and a 1-wide grid's every vertical depth equals a horizontal
        # one; they are still separate heads, fitted on the same table.
        assert head_offsets(2, 2, 1) == ((1, 2), (2,))
        assert head_offsets(1, 2, 2) == ((1, 2), (1, 2))
        grid = GridSpec(2, 2, 3)
        heads = fit_tabular_draft_heads(make_grid_markov_target(grid, 5, 0.5), 2, 1, 20, 9)
        assert (heads.horizontal_depth, heads.vertical_depth) == (2, 1)
        assert heads.vertical[0].offset == heads.horizontal[1].offset == 2
        assert heads.vertical[0] is not heads.horizontal[1]
        assert heads.vertical[0].table == heads.horizontal[1].table

    def test_depths_validated(self):
        with pytest.raises(ValueError):
            head_offsets(4, 0, 1)
        with pytest.raises(ValueError):
            head_offsets(4, 1, -1)


class TestFitting:
    def test_deterministic(self):
        model = make_grid_markov_target(GRID, 5, 0.5)
        a = fit_tabular_draft_heads(model, 1, 1, 50, 9)
        b = fit_tabular_draft_heads(model, 1, 1, 50, 9)
        for ha, hb in zip(a.horizontal + a.vertical, b.horizontal + b.vertical):
            assert ha.table.keys() == hb.table.keys()
            for sig in ha.table:
                np.testing.assert_array_equal(ha.table[sig].probs, hb.table[sig].probs)

    def test_huge_smoothing_tends_to_uniform(self):
        model = make_grid_markov_target(GRID, 5, 0.5)
        heads = fit_tabular_draft_heads(model, 1, 0, 20, 9, smoothing=1e9)
        for dist in heads.horizontal[0].table.values():
            np.testing.assert_allclose(dist.probs, [1 / 3] * 3, atol=1e-6)

    def test_constant_target_recovered(self):
        # Prefix- and position-independent target: fitted conditionals
        # approach the single true row at Monte Carlo rate. The empty-context
        # signature sees every sample, so it converges tightly; rare
        # signatures only get a loose bound.
        grid = GridSpec(4, 3, 4)
        model = iid_oracle(grid, 21, 1, 0)[0]
        truth = model.conditional([])
        heads = fit_tabular_draft_heads(model, 1, 1, 4000, 13, smoothing=0.1)
        empty_code = _signature_codes(np.zeros((1, 1), dtype=np.int64), grid.width,
                                      grid.vocab_size)[0, 0]
        for head in heads.horizontal + heads.vertical:
            assert 0.5 * np.abs(head.table[empty_code].probs - truth.probs).sum() < 0.05

    def test_convergence_trend(self):
        grid = GridSpec(4, 3, 4)
        model = iid_oracle(grid, 21, 1, 0)[0]
        truth = model.conditional([])
        errs = []
        for n in (100, 1000, 10000):
            heads = fit_tabular_draft_heads(model, 1, 0, n, 13, smoothing=0.1)
            head = heads.horizontal[0]
            errs.append(
                float(np.mean([0.5 * np.abs(d.probs - truth.probs).sum()
                               for d in head.table.values()]))
            )
        assert errs[0] > errs[1] > errs[2]

    def test_zero_samples_rejected(self):
        model = make_grid_markov_target(GRID, 5, 0.5)
        with pytest.raises(ValueError):
            fit_tabular_draft_heads(model, 1, 0, 0, 9)

    def test_empty_offsets_rejected(self):
        model = make_grid_markov_target(GRID, 5, 0.5)
        with pytest.raises(ValueError):
            fit_tabular_draft_heads(model, 0, 1, 10, 9)

    def test_outputs_are_distributions_with_full_support(self):
        model = make_grid_markov_target(GRID, 5, 0.5)
        heads = fit_tabular_draft_heads(model, 2, 1, 100, 9, smoothing=0.5)
        for head in heads.horizontal + heads.vertical:
            for dist in head.table.values():
                assert (dist.probs > 0).all()
                assert abs(dist.probs.sum() - 1.0) < 1e-9

    def test_predict_reads_only_the_first_length_tokens(self):
        # predict(tokens, L) is the prediction from tokens[:L], whatever
        # follows it: on a whole grid, the same object as on the sliced prefix.
        model = make_grid_markov_target(GRID, 5, 0.5)
        heads = fit_tabular_draft_heads(model, 2, 1, 100, 9)
        exact = iid_oracle(GRID, 3, 2, 1)[1]
        grid = model.sample_grid(stream(4, "predict"), 1)[0].tolist()
        for head in heads.horizontal + heads.vertical + exact.horizontal + exact.vertical:
            for length in range(GRID.size - head.offset + 1):
                assert head.predict(grid, length) is head.predict(grid[:length], length)


class TestHeadSetValidation:
    def test_contiguous_horizontal_required(self):
        heads = iid_oracle(GRID, 3, 2, 0)[1]
        with pytest.raises(ValueError):
            DraftHeadSet(width=4, horizontal=(heads.horizontal[1],))

    def test_vertical_offsets_checked(self):
        good = iid_oracle(GRID, 3, 1, 2)[1]
        assert good.vertical_depth == 2
        with pytest.raises(ValueError):
            DraftHeadSet(width=4, horizontal=good.horizontal, vertical=(good.vertical[1],))

    def test_requires_horizontal(self):
        with pytest.raises(ValueError):
            DraftHeadSet(width=4, horizontal=())


class TestHeldOutNll:
    def test_vertical_beats_horizontal_at_equal_rank(self):
        # Pure vertical dependency: the depth-1 vertical head's context
        # contains the true parent token; the depth-1 horizontal head's
        # context cannot.
        grid = GridSpec(6, 6, 4)
        model = make_grid_markov_target(grid, 17, 1.0)
        heads = fit_tabular_draft_heads(model, 1, 1, 2000, 23)
        nll = held_out_nll(model, heads, 300, 99)
        assert nll[("vertical", 1)] < nll[("horizontal", 1)]

    @pytest.mark.parametrize("count", [True, 2.5, "3", 0])
    def test_sample_count_is_never_coerced(self, count):
        model = make_grid_markov_target(GRID, 5, 0.5)
        heads = fit_tabular_draft_heads(model, 1, 1, 5, 9)
        with pytest.raises(ValueError, match="field 'sample_count' must be"):
            held_out_nll(model, heads, count, 1)

    def test_codes_computed_once_per_block_for_any_number_of_heads(self, monkeypatch):
        model = make_grid_markov_target(GRID, 5, 0.5)
        few = fit_tabular_draft_heads(model, 1, 0, 20, 9)
        many = fit_tabular_draft_heads(model, 3, 2, 20, 9)
        blocks = []
        codes = hawk.models._signature_codes

        def counted(grids, width, vocab_size):
            blocks.append(len(grids))
            return codes(grids, width, vocab_size)

        monkeypatch.setattr(hawk.models, "_signature_codes", counted)
        for heads in (few, many):
            blocks.clear()
            held_out_nll(model, heads, _BLOCK_GRIDS + 1, 5)
            assert blocks == [_BLOCK_GRIDS, 1]


def _want_logs(head, grids):
    """``log(max(p, 1e-300))`` of ``predict``'s probability of each true token."""
    span = max(0, grids.shape[1] - head.offset + 1)
    probs = [
        [head.predict(grid, L).prob(grid[L - 1 + head.offset]) for L in range(span)]
        for grid in grids.tolist()
    ]
    return np.log(np.maximum(np.array(probs).reshape(len(grids), span), 1e-300))


class TestTrueTokenLogs:
    @staticmethod
    def _assert_bitwise(heads, grids, grid):
        keys = _signature_codes(grids, grid.width, grid.vocab_size) * grid.vocab_size
        for head in heads.horizontal + heads.vertical:
            got, want = head.true_token_logs(keys, grids), _want_logs(head, grids)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_tabular_heads_with_unseen_codes_and_zero_counts(self):
        grid = GridSpec(4, 3, 3)
        model = make_grid_markov_target(grid, 11, 0.7)
        grids = model.sample_grid(stream(3, "scored"), 40)
        # One fitting sample leaves most held-out codes unseen, scored by the
        # uniform fallback row; without smoothing, a seen row's unseen tokens
        # have probability 0 and score the floor.
        sparse = fit_tabular_draft_heads(model, 2, 1, 1, 23, 0.5)
        unsmoothed = fit_tabular_draft_heads(model, 2, 1, 30, 23, 0.0)
        for heads in (sparse, unsmoothed):
            self._assert_bitwise(heads, grids, grid)
        head = sparse.horizontal[0]
        assert (_want_logs(head, grids) == np.log(1.0 / 3)).any()
        head = unsmoothed.vertical[0]
        assert (_want_logs(head, grids) == np.log(1e-300)).any()

    def test_offsets_past_the_grid_score_no_position(self):
        # On a 3x1 grid offset 3 scores one position and offsets 4 to 6 none.
        grid = GridSpec(3, 1, 3)
        model = make_grid_markov_target(grid, 11, 0.7)
        heads = fit_tabular_draft_heads(model, 5, 2, 30, 23)
        grids = model.sample_grid(stream(3, "scored"), 7)
        self._assert_bitwise(heads, grids, grid)
        keys = _signature_codes(grids, grid.width, grid.vocab_size) * grid.vocab_size
        shapes = [h.true_token_logs(keys, grids).shape for h in heads.horizontal + heads.vertical]
        assert shapes == [(7, 3), (7, 2), (7, 1), (7, 0), (7, 0), (7, 1), (7, 0)]


class _FixedHead(DraftHead):
    """Drafts one distribution after every prefix: an exact head for the i.i.d.
    target whose row it is, of no serializable kind."""

    def __init__(self, offset, dist):
        self.offset, self.dist = offset, dist

    def predict(self, tokens, length):
        return self.dist

    def true_token_logs(self, keys, grids):
        return np.log(self.dist.probs)[grids[:, self.offset - 1 :]]


class TestSerialization:
    def test_saved_entries_are_the_table_bit_for_bit(self, tmp_path):
        # Each head's entries, sorted by (column, context), spell out each
        # table code's signature once, with its row's floats exactly: repr
        # round-trips binary64.
        model = make_grid_markov_target(GRID, 5, 0.5)
        heads = fit_tabular_draft_heads(model, 2, 1, 80, 9)
        path = tmp_path / "heads.json"
        save_head_set(heads, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        header = {key: payload[key] for key in ("format_version", "kind", "width", "vocab_size")}
        assert header == {"format_version": 1, "kind": "tabular_heads", "width": 4, "vocab_size": 3}
        for direction in ("horizontal", "vertical"):
            saved = payload[direction]
            assert len(saved) == len(getattr(heads, direction))
            for head, obj in zip(getattr(heads, direction), saved):
                assert (obj["offset"], obj["smoothing"]) == (head.offset, head.smoothing)
                codes = {_signature_of(code, 3): code for code in head.table}
                assert len(codes) == len(head.table)
                signatures = [(tuple(entry["context"]), entry["column"])
                              for entry in obj["entries"]]
                assert signatures == sorted(signatures, key=lambda sig: (sig[1], sig[0]))
                assert sorted(signatures) == sorted(codes)
                for sig, entry in zip(signatures, obj["entries"]):
                    assert entry["probs"] == head.table[codes[sig]].probs.tolist()

    def test_exact_heads_do_not_serialize(self, tmp_path):
        # Only tabular heads have a file format.
        model = iid_oracle(GRID, 3, 1, 0)[0]
        heads = DraftHeadSet(width=4, horizontal=(_FixedHead(1, model.conditional([])),))
        with pytest.raises(ValueError, match="tabular heads"):
            save_head_set(heads, tmp_path / "heads.json")

# ---------------------------------------------------------------------------
# Block fitting and scoring against the per-position loops they replace
# ---------------------------------------------------------------------------


def _signature_at(seq, length, width):
    """Context signature: the last up-to-2 tokens before ``length`` plus the column."""
    return tuple(seq[max(0, length - 2) : length]), length % width


def _reference_fit(model, horizontal_depth, vertical_depth, sample_count, seed, smoothing):
    """Per-position fitting loop over scalar-drawn samples: table per offset."""
    grid = model.grid
    horizontal, vertical = head_offsets(grid.width, horizontal_depth, vertical_depth)
    counts = {d: {} for d in sorted(set(horizontal) | set(vertical))}
    gen = stream(seed, "head-fit")
    for _ in range(sample_count):
        sample = _scalar_sample(model, gen)
        for d, table in counts.items():
            for length in range(0, grid.size - d + 1):
                sig = _signature_at(sample, length, grid.width)
                row = table.get(sig)
                if row is None:
                    row = np.zeros(grid.vocab_size)
                    table[sig] = row
                row[sample[length - 1 + d]] += 1.0
    tables = {}
    for d, table in counts.items():
        tables[d] = {}
        for sig, row in table.items():
            smoothed = row + smoothing
            tables[d][sig] = smoothed / smoothed.sum()
    return tables


def _reference_held_out_nll(model, heads, sample_count, seed):
    """Per-position scoring loop with ``predict`` over scalar-drawn samples."""
    gen = stream(seed, "head-holdout")
    labeled = [("horizontal", i + 1, h) for i, h in enumerate(heads.horizontal)]
    labeled += [("vertical", i + 1, h) for i, h in enumerate(heads.vertical)]
    totals = {(direction, depth): [0.0, 0] for direction, depth, _ in labeled}
    size = model.grid.size
    for _ in range(sample_count):
        sample = _scalar_sample(model, gen)
        for direction, depth, head in labeled:
            acc = totals[(direction, depth)]
            for length in range(0, size - head.offset + 1):
                q = head.predict(sample, length)
                acc[0] -= float(np.log(max(q.prob(sample[length - 1 + head.offset]), 1e-300)))
                acc[1] += 1
    return {key: acc[0] / acc[1] for key, acc in totals.items() if acc[1]}


# (width, height, vocab, horizontal depth, vertical depth, samples, smoothing).
# 1x1: horizontal depth 2 predicts past the grid; 5x1: the vertical offsets 5
# and 10 are the grid size (one position) and past it (none); vocabulary 12
# with smoothing 0.1 makes each row sum inexact and more than 8 terms long,
# so its summation order shows; 300 and _BLOCK_GRIDS + 1 samples end in a
# partial block.
REFERENCE_CASES = [
    (1, 1, 3, 2, 1, 40, 0.5),
    (1, 5, 3, 2, 2, 60, 0.5),
    (5, 1, 3, 2, 2, 60, 0.5),
    (3, 3, 2, 2, 1, 50, 0.5),
    (3, 3, 12, 2, 1, 80, 0.1),
    (2, 3, 17, 2, 1, 60, 0.3),
    (4, 3, 3, 2, 1, 50, 0.0),
    (4, 4, 3, 2, 1, 1, 0.5),
    (4, 4, 3, 3, 2, 300, 1.0),
    (3, 4, 3, 2, 1, _BLOCK_GRIDS + 1, 0.5),
]


class TestBlockFitting:
    @pytest.mark.parametrize("case", REFERENCE_CASES, ids=lambda c: "x".join(map(str, c)))
    def test_matches_per_position_loop(self, case):
        width, height, k, h, v, n, smoothing = case
        model = make_grid_markov_target(GridSpec(width, height, k), 11, 0.7)
        heads = fit_tabular_draft_heads(model, h, v, n, 19, smoothing)
        want = _reference_fit(model, h, v, n, 19, smoothing)
        for head in heads.horizontal + heads.vertical:
            table = {_signature_of(code, k): dist for code, dist in head.table.items()}
            assert table.keys() == want[head.offset].keys()
            for sig, dist in table.items():
                assert np.array_equal(dist.probs, want[head.offset][sig])
            assert all(type(code) is int for code in head.table)

        # Scored fresh, and for a head fitted on one sample (most held-out
        # signatures unseen, so scored by the uniform fallback).
        sparse = fit_tabular_draft_heads(model, h, v, 1, 23, smoothing)
        for scored in (heads, sparse):
            got = held_out_nll(model, scored, 30, 5)
            ref = _reference_held_out_nll(model, scored, 30, 5)
            assert got.keys() == ref.keys()
            assert all(got[key] == ref[key] for key in ref), (got, ref)

    def test_signature_codes_match_signatures(self):
        # Every prefix's code is its signature's, and predict returns the
        # very row that table.get names at that code, the fallback where the
        # table has none (every third code here), on every width and height 1-5.
        in_table = set()
        for width, height in itertools.product(range(1, 6), repeat=2):
            k = 2 + (width + height) % 2
            grids = stream(width * 10 + height, "codes").integers(k, size=(20, width * height))
            codes = _signature_codes(grids, width, k)
            table = {code: TokenDistribution(np.full(k, 1.0 / k))
                     for code in range(_code_count(width, k)) if code % 3}
            head = TabularDraftHead(1, width, k, 0.5, table)
            seen = set()
            for row, sample in zip(codes, grids.tolist()):
                for length, code in enumerate(row.tolist()):
                    sig = _signature_at(sample, length, width)
                    assert _signature_of(code, k) == sig
                    assert head.predict(sample, length) is table.get(code, head._fallback)
                    in_table.add(code in table)
                    seen.add(code)
            assert max(seen) < _code_count(width, k)
        assert in_table == {False, True}

    def test_mismatched_heads_rejected(self):
        model = make_grid_markov_target(GRID, 5, 0.5)
        for grid, message in [
            (GridSpec(2, 8, 3), "width 2 does not match grid width 4"),
            (GridSpec(4, 4, 2), "vocab_size does not match grid vocab_size 3"),
        ]:
            heads = fit_tabular_draft_heads(make_grid_markov_target(grid, 5, 0.5), 1, 1, 5, 9)
            with pytest.raises(ValueError, match=message):
                held_out_nll(model, heads, 5, 1)


class TestMemoryPeaks:
    # tracemalloc peaks on bench_16x16 (3,000 grids of 16x16, vocabulary 6),
    # measured with numpy 2.4: fitting 1.64 MiB, of which the heads it
    # returns hold 0.56, and saving 1.00 MiB above the heads. The bounds give
    # each about 50% headroom. Blocks of 256 grids (a 3.1 MiB fit) or building
    # the whole heads file as one string before writing it (3.5 MiB) exceed them.
    def test_fit_and_save_stay_under_measured_peaks(self, tmp_path):
        config = load_run_config(ROOT / "configs" / "bench_16x16.json")
        model = build_model(config)
        tracemalloc.start()
        try:
            heads = build_heads(config, model)
            held, fit_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            save_head_set(heads, tmp_path / "heads.json")
            save_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert fit_peak < 2.5 * 2**20, fit_peak
        assert save_peak < 1.5 * 2**20, save_peak
