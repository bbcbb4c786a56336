"""Grid shape, distribution arithmetic, and sampling transforms."""

import dataclasses
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hawk.core import (
    GridSpec,
    SamplingConfig,
    TokenDistribution,
    apply_sampling_config,
    index_at,
    sample_index,
    sampling_table,
)
from hawk.rng import stream
from hawk.verifier import READ_BLOCK, Draws


def dist(*probs):
    return TokenDistribution(list(probs))


def warm(d, temperature):
    return apply_sampling_config(d, SamplingConfig(temperature=temperature))


def top(d, k):
    return apply_sampling_config(d, SamplingConfig(top_k=k))


@st.composite
def distributions(draw, min_size=2, max_size=8):
    n = draw(st.integers(min_size, max_size))
    weights = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n).filter(
            lambda w: sum(w) > 1e-6
        )
    )
    arr = np.array(weights)
    return TokenDistribution(arr / arr.sum())


class TestGridAddressing:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 3, 4)
        with pytest.raises(ValueError):
            GridSpec(3, 0, 4)
        with pytest.raises(ValueError):
            GridSpec(3, 3, 1)

    def test_size_is_stored_and_outside_equality(self):
        grid = GridSpec(4, 3, 5)
        assert grid.size == 12 and vars(grid)["size"] == 12
        assert repr(grid) == "GridSpec(width=4, height=3, vocab_size=5)"
        assert grid == GridSpec(4, 3, 5) and hash(grid) == hash((4, 3, 5))
        assert dataclasses.replace(grid, height=2).size == 8


class TestTokenDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            TokenDistribution([0.5, 0.4])
        with pytest.raises(ValueError):
            TokenDistribution([float("nan"), 0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TokenDistribution([1.1, -0.1])

    def test_clamps_rounding_noise(self):
        d = TokenDistribution([1.0 + 5e-13, -5e-13])
        assert d.prob(1) == 0.0

    def test_immutable(self):
        d = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestTemperature:
    def test_identity(self):
        d = dist(0.5, 0.3, 0.2)
        assert warm(d, 1.0) is d

    def test_half_temperature_squares(self):
        # scalar oracle: p_i^2 renormalized
        p = [0.5, 0.3, 0.2]
        expected = np.array([x * x for x in p])
        expected /= expected.sum()
        out = warm(dist(*p), 0.5)
        np.testing.assert_allclose(out.probs, expected, atol=1e-12)
        np.testing.assert_allclose(out.probs, [0.6579, 0.2368, 0.1053], atol=1e-4)

    def test_symmetric_fixed_point(self):
        for tau in (0.2, 0.7, 1.0, 3.5):
            out = warm(dist(0.5, 0.5), tau)
            np.testing.assert_allclose(out.probs, [0.5, 0.5])

    def test_cold_limit_concentrates_on_argmax(self):
        out = warm(dist(0.5, 0.3, 0.2), 1e-3)
        assert out.prob(0) > 0.999
        # Below about 1e-308 every scaled log overflows to -inf: the result is
        # the T -> 0 limit, uniform over the argmax ties, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tau in (1e-320, 5e-324):
                np.testing.assert_array_equal(warm(dist(0.5, 0.3, 0.2), tau).probs, [1, 0, 0])
                np.testing.assert_array_equal(warm(dist(0.5, 0.5, 0), tau).probs, [0.5, 0.5, 0])

    def test_invalid_temperature(self):
        with pytest.raises(ValueError, match="temperature must be > 0, got 0.0"):
            warm(dist(0.5, 0.5), 0.0)
        with pytest.raises(ValueError, match="temperature must be > 0, got -1.0"):
            warm(dist(0.5, 0.5), -1.0)


class TestTopK:
    def test_keeps_top_two(self):
        out = top(dist(0.5, 0.3, 0.2), 2)
        np.testing.assert_allclose(out.probs, [0.625, 0.375, 0.0])

    def test_full_k_is_identity(self):
        d = dist(0.5, 0.3, 0.2)
        assert top(d, 3) is d
        assert top(d, 10) is d

    def test_tie_broken_by_lowest_index(self):
        # oracle for the stated rule: sort by (-prob, index), keep first k
        p = [0.4, 0.4, 0.2]
        order = sorted(range(3), key=lambda i: (-p[i], i))
        assert order[0] == 0
        out = top(dist(*p), 1)
        np.testing.assert_allclose(out.probs, [1.0, 0.0, 0.0])

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="field 'top_k' must be >= 1, got 0"):
            top(dist(0.5, 0.5), 0)

    @given(distributions(), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_properties(self, d, k):
        out = top(d, k)
        assert abs(out.probs.sum() - 1.0) < 1e-9
        assert (out.probs >= 0).all()
        # dropped tokens stay at zero; retained tokens keep relative order
        kept = np.nonzero(out.probs)[0]
        assert len(kept) <= k
        for i in kept:
            for j in kept:
                if d.probs[i] > d.probs[j]:
                    assert out.probs[i] > out.probs[j]


class TestSamplingConfig:
    def test_identity_flag(self):
        assert SamplingConfig().is_identity
        assert not SamplingConfig(top_k=2).is_identity
        assert not SamplingConfig(temperature=0.5).is_identity

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(top_k=0)
        with pytest.raises(ValueError):
            SamplingConfig(top_k="some")
        with pytest.raises(ValueError):
            SamplingConfig(temperature=0.0)

    def test_apply_order_temperature_then_topk(self):
        d = dist(0.5, 0.3, 0.2)
        out = apply_sampling_config(d, SamplingConfig(top_k=2, temperature=0.5))
        # scalar oracle: square and renormalize, then keep the top two and renormalize
        squared = np.array([0.25, 0.09, 0.04]) / 0.38
        expected = np.array([squared[0], squared[1], 0.0]) / (squared[0] + squared[1])
        np.testing.assert_allclose(out.probs, expected)
        np.testing.assert_allclose(out.probs, [0.7353, 0.2647, 0.0], atol=1e-4)

    def test_result_memoized_for_last_config(self):
        d = dist(0.5, 0.3, 0.2)
        config = SamplingConfig(top_k=2, temperature=0.5)
        out = apply_sampling_config(d, config)
        assert d._memo == (config, out)  # the layout DecodingContext reads inline
        assert apply_sampling_config(d, config) is out
        assert apply_sampling_config(d, SamplingConfig(top_k=2, temperature=0.5)) is out
        warmer = apply_sampling_config(d, SamplingConfig(temperature=0.5))
        np.testing.assert_array_equal(warmer.probs, warm(dist(0.5, 0.3, 0.2), 0.5).probs)
        again = apply_sampling_config(d, config)
        assert again is not out
        np.testing.assert_array_equal(again.probs, out.probs)

    def test_identity_results_not_memoized(self):
        d = dist(0.5, 0.5)
        assert apply_sampling_config(d, SamplingConfig()) is d
        assert apply_sampling_config(d, SamplingConfig(top_k=2)) is d
        assert d._memo is None


class TestSampleIndex:
    def test_index_at_boundaries(self):
        d = dist(0.0, 0.5, 0.5, 0.0)
        assert index_at(d, 0.0) == 1
        assert index_at(d, 0.5) == 2
        assert index_at(d, np.nextafter(1.0, 0.0)) == 2
        short = dist(0.5, 0.5 - 1e-10, 0.0)  # cumulative shortfall at the upper end
        assert index_at(short, 1.0 - 5e-11) == 1

    @given(distributions(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8))
    @example(dist(0.0, 0.5, 0.5, 0.0), [])
    @example(dist(0.5, 0.5 - 1e-10, 0.0), [])  # cumulative shortfall at the upper end
    @example(dist(1.0, 0.0), [])
    @example(dist(1.0, 0.0, 0.0), [])  # a point mass at token 0: no cuts at all
    @example(dist(0.0, 0.0, 1.0), [])  # a point mass at the last token
    @example(dist(0.2, 0.5, 0.3), [])
    def test_sampling_table_bisects_to_index_at(self, d, uniforms):
        # The reference rule: bisect the whole cumulative table, then clamp
        # to the last positive-probability token.
        cum = np.cumsum(d.probs).tolist()
        last = int(np.nonzero(d.probs)[0][-1])
        table = sampling_table(d)
        assert sampling_table(d) is table and len(table) == last
        steps = [np.nextafter(c, side) for c in cum for side in (0.0, 1.0)]
        for u in [0.0, 0.2, 0.5, 0.7, 1.0 - 5e-11, np.nextafter(1.0, 0.0), *cum, *steps,
                  *uniforms]:
            want = min(bisect_right(cum, u), last)
            assert bisect_right(table.tolist(), u) == index_at(d, u) == want, (d, u)

    def test_sample_index_is_index_at_of_next_uniform(self):
        d = dist(0.2, 0.5, 0.3)
        a, b = stream(4, "index-at"), stream(4, "index-at")
        assert [sample_index(d, a) for _ in range(50)] == [index_at(d, b.random()) for _ in range(50)]

    def test_never_emits_zero_probability_token(self):
        d = dist(0.5, 0.0, 0.5)
        gen = stream(1, "sample-test")
        draws = {sample_index(d, gen) for _ in range(2000)}
        assert draws == {0, 2}

    def test_frequencies_match(self):
        d = dist(0.2, 0.5, 0.3)
        gen = stream(2, "sample-test")
        counts = np.zeros(3)
        n = 50_000
        for _ in range(n):
            counts[sample_index(d, gen)] += 1
        np.testing.assert_allclose(counts / n, d.probs, atol=0.01)

    @given(distributions())
    @settings(max_examples=30, deadline=None)
    def test_in_range(self, d):
        gen = stream(3, "sample-prop")
        for _ in range(20):
            idx = sample_index(d, gen)
            assert 0 <= idx < len(d)
            assert d.prob(idx) > 0


class TestDrawsUniforms:
    def test_hands_out_the_scalar_stream(self):
        # Requests below, at and above the block, some of them empty, so
        # refills land inside requests and after partly used blocks; then
        # single draws across a refill.
        draws, eager = Draws(stream(6, "reader"), stream(6, "verify")), stream(6, "reader")
        for n in (1, READ_BLOCK - 1, 2, READ_BLOCK, 0, 3 * READ_BLOCK + 5, 7):
            assert draws.uniforms(n) == [eager.random() for _ in range(n)]
        for _ in range(READ_BLOCK + 1):
            assert draws.uniforms(1) == [eager.random()]


class TestDrawsVerifyStream:
    def test_hands_out_the_scalar_stream(self):
        # Accept tests, samples and bare draws, interleaved over two refills,
        # each take the next verify-stream scalar; an accept test passes a
        # ratio just above its uniform and fails a ratio equal to it. Draft
        # uniforms come from the other stream in between.
        draws = Draws(stream(7, "draft"), stream(7, "verify"))
        eager, eager_draft = stream(7, "verify"), stream(7, "draft")
        d = dist(0.2, 0.5, 0.3)
        for i in range(2 * READ_BLOCK + 7):
            u = eager.random()
            kind = i % 4
            if kind == 0:
                assert draws.random() == u
            elif kind == 1:
                assert draws.accept(np.nextafter(u, 1.0))
            elif kind == 2:
                assert not draws.accept(u)
            else:
                assert draws.sample(d) == index_at(d, u)
                assert draws.uniforms(3) == [eager_draft.random() for _ in range(3)]
