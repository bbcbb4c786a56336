"""Grid shape, distribution arithmetic, and sampling transforms."""

import dataclasses
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawk.core import (
    GridSpec,
    SamplingConfig,
    TokenDistribution,
    apply_sampling_config,
    apply_temperature,
    apply_top_k,
    index_at,
    kl_divergence,
    sample_index,
    sampling_table,
    total_variation,
)
from hawk.rng import stream
from hawk.verifier import READ_BLOCK, Draws


def dist(*probs):
    return TokenDistribution(list(probs))


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
        assert apply_temperature(d, 1.0) is d

    def test_half_temperature_squares(self):
        # scalar oracle: p_i^2 renormalized
        p = [0.5, 0.3, 0.2]
        expected = np.array([x * x for x in p])
        expected /= expected.sum()
        out = apply_temperature(dist(*p), 0.5)
        np.testing.assert_allclose(out.probs, expected, atol=1e-12)
        np.testing.assert_allclose(out.probs, [0.6579, 0.2368, 0.1053], atol=1e-4)

    def test_symmetric_fixed_point(self):
        for tau in (0.2, 0.7, 1.0, 3.5):
            out = apply_temperature(dist(0.5, 0.5), tau)
            np.testing.assert_allclose(out.probs, [0.5, 0.5])

    def test_cold_limit_concentrates_on_argmax(self):
        out = apply_temperature(dist(0.5, 0.3, 0.2), 1e-3)
        assert out.prob(0) > 0.999

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            apply_temperature(dist(0.5, 0.5), 0.0)
        with pytest.raises(ValueError):
            apply_temperature(dist(0.5, 0.5), -1.0)


class TestTopK:
    def test_keeps_top_two(self):
        out = apply_top_k(dist(0.5, 0.3, 0.2), 2)
        np.testing.assert_allclose(out.probs, [0.625, 0.375, 0.0])

    def test_full_k_is_identity(self):
        d = dist(0.5, 0.3, 0.2)
        assert apply_top_k(d, 3) is d
        assert apply_top_k(d, 10) is d

    def test_tie_broken_by_lowest_index(self):
        # oracle for the stated rule: sort by (-prob, index), keep first k
        p = [0.4, 0.4, 0.2]
        order = sorted(range(3), key=lambda i: (-p[i], i))
        assert order[0] == 0
        out = apply_top_k(dist(*p), 1)
        np.testing.assert_allclose(out.probs, [1.0, 0.0, 0.0])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            apply_top_k(dist(0.5, 0.5), 0)

    @given(distributions(), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_properties(self, d, k):
        out = apply_top_k(d, k)
        assert abs(out.probs.sum() - 1.0) < 1e-9
        assert (out.probs >= 0).all()
        # dropped tokens stay at zero; retained tokens keep relative order
        kept = np.nonzero(out.probs)[0]
        assert len(kept) <= k
        for i in kept:
            for j in kept:
                if d.probs[i] > d.probs[j]:
                    assert out.probs[i] > out.probs[j]


class TestDivergences:
    def test_kl_self_is_zero(self):
        d = dist(0.5, 0.3, 0.2)
        assert kl_divergence(d, d) == 0.0

    def test_kl_hand_value(self):
        # 0.5*ln(2) + 0.5*ln(2/3)
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        got = kl_divergence(dist(0.5, 0.5), dist(0.25, 0.75))
        assert abs(got - expected) < 1e-12
        assert abs(got - 0.1438) < 1e-3

    def test_kl_disjoint_support(self):
        assert kl_divergence(dist(1.0, 0.0), dist(0.0, 1.0)) == math.inf

    def test_kl_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(dist(0.5, 0.5), dist(0.5, 0.3, 0.2))

    def test_tv_examples(self):
        d = dist(0.5, 0.5)
        assert total_variation(d, d) == 0.0
        assert abs(total_variation(d, dist(0.25, 0.75)) - 0.25) < 1e-12
        assert total_variation(dist(1.0, 0.0), dist(0.0, 1.0)) == 1.0

    @given(distributions(min_size=3, max_size=3), distributions(3, 3), distributions(3, 3))
    @settings(max_examples=80, deadline=None)
    def test_tv_symmetry_and_triangle(self, a, b, c):
        assert abs(total_variation(a, b) - total_variation(b, a)) < 1e-12
        assert total_variation(a, c) <= total_variation(a, b) + total_variation(b, c) + 1e-12


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
        expected = apply_top_k(apply_temperature(d, 0.5), 2)
        np.testing.assert_allclose(out.probs, expected.probs)

    def test_result_memoized_for_last_config(self):
        d = dist(0.5, 0.3, 0.2)
        config = SamplingConfig(top_k=2, temperature=0.5)
        out = apply_sampling_config(d, config)
        assert apply_sampling_config(d, config) is out
        assert apply_sampling_config(d, SamplingConfig(top_k=2, temperature=0.5)) is out
        warmer = apply_sampling_config(d, SamplingConfig(temperature=0.5))
        np.testing.assert_array_equal(warmer.probs, apply_temperature(d, 0.5).probs)
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

    def test_sampling_table_bisects_to_index_at(self):
        for d in (
            dist(0.0, 0.5, 0.5, 0.0),
            dist(0.5, 0.5 - 1e-10, 0.0),  # cumulative shortfall at the upper end
            dist(1.0, 0.0),
            dist(0.2, 0.5, 0.3),
        ):
            table = sampling_table(d)
            cum = np.cumsum(d.probs).tolist()
            for u in [0.0, 0.2, 0.5, 0.7, 1.0 - 5e-11, np.nextafter(1.0, 0.0), *cum]:
                assert bisect_right(table, u) == index_at(d, u), (d, u)

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
