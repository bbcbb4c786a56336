"""Acceptance mathematics: ratios, residual chains, sequential verification."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawk.core import TokenDistribution, total_variation
from hawk.oracle_metrics import EnumeratingDraws, enumerate_draws
from hawk.rng import stream
from hawk.verifier import (
    Draws,
    chain_alphas,
    lantern_acceptance,
    lantern_sequential_verify,
    rejection_mass,
    residual_update,
    sequential_verify,
    token_neighborhoods,
)


def dist(*probs):
    return TokenDistribution(list(probs))


def selecting(q, token):
    """The uniform that index_at maps to ``token`` under q: the middle of its cumulative step."""
    return float(np.cumsum(q.probs)[token] - q.probs[token] / 2)


def draws_on(rng):
    """A Draws whose verify stream is ``rng``; the walks here are handed their
    draft uniforms, so its draft stream goes unread."""
    return Draws(stream(0, "draft"), rng)


def standard_ratio(p, q, token):
    return min(1.0, p.prob(token) / q.prob(token))


def accept_probability(p, q, token):
    """The chance the walk accepts ``token`` drafted from q against p: the weight
    of that acceptance over every choice its draws make, over q(token)."""

    def outcome(draws):
        walked = sequential_verify(p, [q], draws.uniforms(1), draws)
        return walked.emitted_token, walked.accepted_index

    return enumerate_draws(outcome).get((token, 0), 0.0) / q.prob(token)


def random_dist(gen, k, floor=1e-3):
    w = gen.random(k) + floor
    return TokenDistribution(w / w.sum())


@st.composite
def dist_pairs(draw, k=4):
    def vec():
        w = np.array(
            draw(st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=k, max_size=k))
        )
        return TokenDistribution(w / w.sum())

    return vec(), vec()


class TestAcceptanceRatio:
    # The walk's own accept rule, min(1, p(t) / q(t)), read off its enumeration.
    def test_identical_is_one(self):
        p = dist(0.5, 0.3, 0.2)
        for token in range(3):
            assert accept_probability(p, p, token) == 1.0

    def test_clipping(self):
        p = dist(0.5, 0.3, 0.2)
        q = dist(0.2, 0.5, 0.3)
        assert accept_probability(p, q, 0) == 1.0  # ratio 2.5 clipped

    def test_plain_ratio(self):
        p = dist(0.5, 0.3, 0.2)
        q = dist(0.2, 0.5, 0.3)
        assert abs(accept_probability(p, q, 1) - 0.6) < 1e-12

    def test_zero_draft_probability_rejected(self):
        # Draws that propose a token the draft cannot produce are refused.
        proposing = SimpleNamespace(token=lambda q, u: 1, accept=lambda ratio: pytest.fail())
        with pytest.raises(ValueError, match="token 1 has zero draft probability"):
            sequential_verify(dist(0.5, 0.5), [dist(1.0, 0.0)], [0.5], proposing)


class TestResidualUpdate:
    def test_basic(self):
        residual, degenerate = residual_update(dist(0.5, 0.3, 0.2), dist(0.2, 0.5, 0.3))
        assert not degenerate
        np.testing.assert_allclose(residual.probs, [1.0, 0.0, 0.0])

    def test_identical_degenerates_to_itself(self):
        # No mass is left, so p stands as its own residual: the walk and the
        # alpha chain keep the last non-degenerate residual.
        p = dist(0.5, 0.3, 0.2)
        residual, degenerate = residual_update(p, p)
        assert degenerate
        assert residual is p

    def test_disjoint_support_unchanged(self):
        p = dist(0.6, 0.4, 0.0)
        q = dist(0.0, 0.0, 1.0)
        residual, degenerate = residual_update(p, q)
        assert not degenerate
        np.testing.assert_allclose(residual.probs, p.probs)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            residual_update(dist(0.5, 0.5), dist(0.5, 0.3, 0.2))


class TestSequentialVerify:
    def test_self_draft_always_accepts(self):
        p = dist(0.5, 0.3, 0.2)
        gen = stream(1, "verify")
        for _ in range(200):
            token = int(gen.integers(3))
            outcome = sequential_verify(p, [p], [selecting(p, token)], draws_on(gen))
            assert outcome.emitted_token == token
            assert outcome.accepted_index == 0

    def test_never_proposes_a_zero_probability_token(self):
        # The walk draws each token itself, so no uniform, not even one at
        # either end of [0, 1), can propose a token its draft cannot produce.
        q = dist(0.0, 0.5, 0.0, 0.5, 0.0)
        gen = stream(6, "verify")
        for u in (0.0, 0.25, 0.5, np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0)):
            outcome = sequential_verify(q, [q], [u], draws_on(gen))
            assert q.prob(outcome.emitted_token) > 0.0

    def test_acceptance_leaves_later_candidates_untouched(self):
        p = dist(0.5, 0.3, 0.2)
        gen, reference = stream(2, "verify"), stream(2, "verify")
        q = dist(0.1, 0.8, 0.1)
        drafts = [p, q]
        outcome = sequential_verify(p, drafts, [selecting(p, 0), selecting(q, 1)], draws_on(gen))
        assert outcome.accepted_index == 0
        # One verification draw, for the accepting step alone.
        reference.random()
        assert gen.random() == reference.random()

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            sequential_verify(dist(0.5, 0.5), [], [], draws_on(stream(0, "x")))

    def test_alpha_recorded_as_overlap_mass(self):
        p = dist(0.5, 0.3, 0.2)
        q = dist(0.2, 0.5, 0.3)
        (alpha,) = chain_alphas(p, [q])
        assert abs(alpha - 0.7) < 1e-12

    def test_resample_reached_and_recorded(self):
        p = dist(1.0, 0.0)
        q = dist(0.01, 0.99)
        gen = stream(5, "verify")
        saw_resample = False
        for _ in range(200):
            outcome = sequential_verify(p, [q], [selecting(q, 1)], draws_on(gen))
            if outcome.accepted_index is None:
                saw_resample = True
                assert outcome.emitted_token == 0
        assert saw_resample
        assert chain_alphas(p, [q]) == [pytest.approx(0.01)]

    def test_residual_exhaustion(self, caplog):
        # q1 exceeds p by one ulp at token 1, so rejecting it leaves no
        # residual mass. The walk then rejects q2 without drawing and
        # resamples from p, the last non-degenerate residual; alphas after
        # the exhaustion are taken against p as well.
        p = dist(0.5, 0.5)
        q1 = dist(0.5, 0.5000000000000001)
        q2 = dist(0.9, 0.1)
        drafts = [q1, q2]
        rng = ScriptedRng([0.9999999999999999, 0.25])
        with caplog.at_level("WARNING", logger="hawk.verifier"):
            outcome = sequential_verify(p, drafts, [0.75, 0.95], draws_on(rng))
        assert (outcome.emitted_token, outcome.accepted_index) == (0, None)
        assert rng._uniforms == []  # the rejection of q1 and the resample
        assert [r.message for r in caplog.records] == [
            "residual mass exhausted at step 0; keeping last residual"
        ]
        alphas = chain_alphas(p, [q1, q2])
        assert alphas == [1.0, 0.6]
        assert rejection_mass(p, [q1, q2]) == [
            1.0 - alphas[0], (1.0 - alphas[0]) * (1.0 - alphas[1])
        ]

    def test_exhaustion_logged_per_real_walk_never_per_replay(self, caplog, monkeypatch):
        # test_residual_exhaustion's round. Enumerated, three of its replays
        # reach the exhaustion and none logs; walked for real three times on
        # scripted verify uniforms (reject q1 and resample, accept q1, reject
        # q1 and resample), it logs once per exhausted walk.
        p = dist(0.5, 0.5)
        drafts = [dist(0.5, 0.5000000000000001), dist(0.9, 0.1)]
        replays = []
        silent = EnumeratingDraws.exhausted
        monkeypatch.setattr(EnumeratingDraws, "exhausted",
                            lambda draws, step: replays.append(step) or silent(draws, step))
        with caplog.at_level("WARNING", logger="hawk.verifier"):
            law = enumerate_draws(lambda draws: sequential_verify(p, drafts, [None] * 2,
                                                                  draws).emitted_token)
        assert replays == [0, 0, 0] and caplog.records == []
        assert sum(law.values()) == pytest.approx(1.0)
        rng = ScriptedRng([0.9999999999999999, 0.25, 0.5, 0.9999999999999999, 0.75])
        with caplog.at_level("WARNING", logger="hawk.verifier"):
            outcomes = [sequential_verify(p, drafts, [0.75, 0.95], draws_on(rng))
                        for _ in range(3)]
        assert [(o.emitted_token, o.accepted_index) for o in outcomes] == [
            (0, None), (1, 0), (1, None)
        ]
        assert rng._uniforms == []
        assert [r.message for r in caplog.records] == [
            "residual mass exhausted at step 0; keeping last residual"
        ] * 2

    def test_monte_carlo_exactness_heterogeneous(self):
        # Emitted-token law equals the target regardless of draft identity.
        k = 5
        gen = stream(11, "mc")
        p = random_dist(gen, k)
        q1 = random_dist(gen, k)
        q2 = random_dist(gen, k)
        q3 = random_dist(gen, k)
        trials = 1_000_000
        counts = np.zeros(k)
        drafts = [q1, q2, q3]
        draws = draws_on(gen)
        for _ in range(trials):
            outcome = sequential_verify(p, drafts, gen.random(3).tolist(), draws)
            counts[outcome.emitted_token] += 1
        empirical = TokenDistribution(counts / trials)
        assert total_variation(empirical, p) <= 0.01

    @pytest.mark.parametrize("order", ["vertical_first", "horizontal_first"])
    def test_exactness_holds_for_both_orders(self, order):
        k = 3
        gen = stream(13, "order", order)
        p = random_dist(gen, k)
        qv = random_dist(gen, k)
        qh = random_dist(gen, k)
        first, second = (qv, qh) if order == "vertical_first" else (qh, qv)
        trials = 100_000
        counts = np.zeros(k)
        drafts = [first, second]
        draws = draws_on(gen)
        for _ in range(trials):
            outcome = sequential_verify(p, drafts, gen.random(2).tolist(), draws)
            counts[outcome.emitted_token] += 1
        assert total_variation(TokenDistribution(counts / trials), p) <= 0.02


class ScriptedRng:
    """Replays a fixed uniform sequence; stands in for a Draws's verify stream."""

    def __init__(self, uniforms):
        self._uniforms = list(uniforms)

    def random(self):
        return self._uniforms.pop(0)


def classic_multidraft_reference(p, q, tokens, uniforms):
    """Independent textbook multi-draft sampler for a single draft distribution.

    Returns (accept_index, emitted_token). Plain-array arithmetic; the final
    resample walks the cumulative sum by hand.
    """
    p_cur = np.array(p, dtype=float)
    q = np.array(q, dtype=float)
    used = 0
    for i, token in enumerate(tokens):
        ratio = min(1.0, p_cur[token] / q[token])
        if uniforms[used] < ratio:
            return i, token
        used += 1
        p_cur = np.maximum(p_cur - q, 0.0)
        p_cur = p_cur / p_cur.sum()
    u = uniforms[used]
    acc = 0.0
    for token, mass in enumerate(p_cur):
        acc += mass
        if u < acc:
            return None, token
    return None, int(np.nonzero(p_cur)[0][-1])


class TestMedusaSpecialCase:
    def test_matches_textbook_implementation(self):
        # All candidates from one horizontal draft == classic speculative
        # sampling; drive both implementations with identical uniforms.
        gen = stream(17, "medusa-ref")
        for _ in range(500):
            k = int(gen.integers(2, 6))
            p = random_dist(gen, k)
            q = random_dist(gen, k)
            m = int(gen.integers(1, 4))
            tokens = [int(gen.integers(k)) for _ in range(m)]
            uniforms = [gen.random() for _ in range(m + 1)]
            ref_idx, ref_token = classic_multidraft_reference(
                p.probs, q.probs, tokens, uniforms
            )
            drafts = [q] * m
            drafted = [selecting(q, t) for t in tokens]
            outcome = sequential_verify(p, drafts, drafted, draws_on(ScriptedRng(uniforms)))
            assert outcome.accepted_index == ref_idx
            assert outcome.emitted_token == ref_token


class TestRejectionMass:
    def test_self_draft_zero(self):
        p = dist(0.5, 0.3, 0.2)
        assert rejection_mass(p, [p]) == [0.0]

    def test_single_draft(self):
        p = dist(0.5, 0.3, 0.2)
        q = dist(0.2, 0.5, 0.3)
        assert abs(rejection_mass(p, [q])[-1] - 0.3) < 1e-12

    def test_repeated_draft_chains_residual(self):
        # After one rejection the residual is [1,0,0]; the same draft still
        # overlaps it with mass 0.2, so the chain value is 0.3 * 0.8.
        p = dist(0.5, 0.3, 0.2)
        q = dist(0.2, 0.5, 0.3)
        assert abs(rejection_mass(p, [q, q])[-1] - 0.24) < 1e-12

    def test_monotone_in_chain_length(self):
        gen = stream(19, "chains")
        for _ in range(300):
            k = int(gen.integers(2, 6))
            p = random_dist(gen, k)
            drafts = [random_dist(gen, k) for _ in range(5)]
            values = rejection_mass(p, drafts)
            # Entry m - 1 is the mass of the first m drafts alone.
            assert values == [rejection_mass(p, drafts[:m])[-1] for m in range(1, 6)]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_zero_overlap_append_is_noop(self):
        # A draft entirely outside the current residual's support removes
        # nothing: min(residual, q) has zero mass, so the factor is 1.
        p = dist(0.5, 0.0, 0.5)
        q_first = dist(0.0, 0.0, 1.0)  # residual after: [1, 0, 0]
        q_outside = dist(0.0, 1.0, 0.0)
        base, appended = rejection_mass(p, [q_first, q_outside])
        assert appended == pytest.approx(base)

    @given(dist_pairs())
    @settings(max_examples=100, deadline=None)
    def test_alpha_bounds(self, pair):
        p, q = pair
        alpha = float(np.minimum(p.probs, q.probs).sum())
        assert 0.0 <= alpha <= 1.0 + 1e-12
        # alpha hits 1 only when the distributions coincide
        if abs(alpha - 1.0) < 1e-12:
            np.testing.assert_allclose(p.probs, q.probs, atol=1e-9)


class TestLantern:
    def test_singleton_reduces_to_standard_ratio(self):
        gen = stream(23, "lantern")
        for _ in range(200):
            k = int(gen.integers(2, 6))
            p = random_dist(gen, k)
            q = random_dist(gen, k)
            token = int(gen.integers(k))
            got = lantern_acceptance(p, q, token, [token], 1.0)
            assert got == pytest.approx(standard_ratio(p, q, token))

    def test_full_vocabulary_always_accepts(self):
        p = dist(0.5, 0.3, 0.2)
        q = dist(0.2, 0.5, 0.3)
        for token in range(3):
            assert lantern_acceptance(p, q, token, [0, 1, 2], 1.0) == 1.0

    def test_dominates_standard_ratio(self):
        gen = stream(29, "lantern-dom")
        for _ in range(500):
            k = int(gen.integers(2, 8))
            p = random_dist(gen, k)
            q = random_dist(gen, k)
            token = int(gen.integers(k))
            size = int(gen.integers(1, k + 1))
            others = [t for t in range(k) if t != token]
            neighborhood = [token] + others[: size - 1]
            lam = 1.0 + float(gen.random()) * 3.0
            relaxed = lantern_acceptance(p, q, token, neighborhood, lam)
            assert relaxed >= standard_ratio(p, q, token) - 1e-12

    def test_validation(self):
        p = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            lantern_acceptance(p, p, 0, [1], 1.0)  # token not in neighborhood
        with pytest.raises(ValueError):
            lantern_acceptance(p, p, 0, [0], 0.5)  # lam below 1

    def test_zero_draft_probability_rejected(self):
        # The same refusal as the standard rule's.
        with pytest.raises(ValueError, match="token 1 has zero draft probability"):
            lantern_acceptance(dist(0.5, 0.5), dist(1.0, 0.0), 1, [0, 1], 1.0)

    def test_sequential_walk_keeps_structure(self):
        p = dist(0.5, 0.3, 0.2)
        q = dist(0.2, 0.5, 0.3)
        neighborhoods = [(0, 1, 2)] * 3
        gen = stream(31, "lantern-walk")
        outcome = lantern_sequential_verify(
            p, [q], [selecting(q, 1)], draws_on(gen), neighborhoods, 2.0
        )
        # full-vocabulary neighborhood accepts unconditionally
        assert outcome.accepted_index == 0
        assert outcome.emitted_token == 1


class TestTokenNeighborhoods:
    def test_self_membership_and_clipping(self):
        embeddings = np.array([[0.0, 0.0], [1.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        hoods = token_neighborhoods(embeddings, 2)
        assert len(hoods) == 4
        for token, hood in enumerate(hoods):
            assert token in hood
            assert len(hood) == 2
        assert set(token_neighborhoods(embeddings, 99)[0]) == {0, 1, 2, 3}

    def test_nearest_is_chosen(self):
        embeddings = np.array([[0.0, 0.0], [1.0, 0.0], [0.1, 0.0]])
        hoods = token_neighborhoods(embeddings, 2)
        assert set(hoods[0]) == {0, 2}


class TestCsvRows:
    def test_row_shape(self):
        p = dist(0.5, 0.5)
        outcome = sequential_verify(p, [p], [selecting(p, 0)], draws_on(stream(0, "csv")))
        (alpha,) = chain_alphas(p, [p])
        assert (alpha, outcome.accepted_index == 0) == (1.0, True)
