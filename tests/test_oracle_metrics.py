"""Enumeration oracle, statistical distances, and benchmark reporting."""

import itertools
from collections import Counter

import numpy as np
import pytest

from hawk.cli import write_csv, write_metrics_csv
from hawk.core import GridSpec, SamplingConfig, TokenDistribution
from hawk.engine import BatchResult
from hawk.models import make_grid_markov_target
from hawk.oracle_metrics import (
    EnumeratingDraws,
    JointTable,
    _PastScript,
    empirical_joint_from_counts,
    enumerate_draws,
    enumerate_joint,
    joint_tv,
)
from hawk.rng import stream
from hawk.verifier import chain_alphas, sequential_verify
from test_models import iid_oracle

IDENTITY = SamplingConfig()


class TestEnumerateJoint:
    def test_single_cell_grid(self):
        grid = GridSpec(1, 1, 4)
        model = make_grid_markov_target(grid, 3, 0.5)
        joint = enumerate_joint(model, grid, IDENTITY)
        for token in range(4):
            assert joint.probs[(token,)] == pytest.approx(model.conditional([]).prob(token))

    def test_2x2_k3_has_81_entries_summing_to_one(self):
        grid = GridSpec(2, 2, 3)
        model = make_grid_markov_target(grid, 5, 0.5)
        joint = enumerate_joint(model, grid, IDENTITY)
        assert len(joint.probs) == 81
        assert joint.total() == pytest.approx(1.0, abs=1e-9)

    def test_independent_model_factorizes(self):
        # Each token's probability read straight from the table at its left
        # and above neighbors, k at the boundary.
        grid = GridSpec(2, 2, 3)
        model = iid_oracle(grid, 8, 1, 0)[0]
        joint = enumerate_joint(model, grid, IDENTITY)
        k = grid.vocab_size
        for key, value in joint.probs.items():
            product = 1.0
            for idx, token in enumerate(key):
                left = key[idx - 1] if idx % grid.width else k
                above = key[idx - grid.width] if idx >= grid.width else k
                product *= model.tables[left, above, token]
            assert value == pytest.approx(product, rel=1e-12)

    def test_agrees_with_prefix_probability_chain(self):
        grid = GridSpec(2, 2, 3)
        model = make_grid_markov_target(grid, 5, 0.7)
        joint = enumerate_joint(model, grid, IDENTITY)
        gen = stream(0, "probe")
        for sample in map(tuple, model.sample_grid(gen, 10).tolist()):
            chained = 1.0
            for idx in range(grid.size):
                chained *= model.conditional(list(sample[:idx])).prob(sample[idx])
            assert joint.probs[sample] == pytest.approx(chained, rel=1e-12)

    def test_transform_shrinks_support(self):
        grid = GridSpec(1, 2, 3)
        model = make_grid_markov_target(grid, 5, 0.5)
        joint = enumerate_joint(model, grid, SamplingConfig(top_k=1))
        assert len(joint.probs) == 1

    def test_other_grid_refused(self):
        model = make_grid_markov_target(GridSpec(2, 2, 3), 1009, 0.9)
        for grid in (GridSpec(4, 1, 3), GridSpec(2, 1, 3)):
            with pytest.raises(ValueError, match="is not the model's grid"):
                enumerate_joint(model, grid, IDENTITY)

    def test_size_bound_refused(self):
        grid = GridSpec(5, 5, 4)
        model = make_grid_markov_target(grid, 3, 0.5)
        with pytest.raises(ValueError):
            enumerate_joint(model, grid, IDENTITY)


class TestEmpiricalJoint:
    def test_identical_samples_single_entry(self):
        grid = GridSpec(2, 1, 3)
        table = empirical_joint_from_counts(Counter({(1, 2): 10}), grid)
        assert table.probs == {(1, 2): 1.0}

    def test_rejects_mismatched_sizes(self):
        grid = GridSpec(2, 1, 3)
        with pytest.raises(ValueError):
            empirical_joint_from_counts(Counter({(1, 2): 1, (1, 2, 0): 1}), grid)
        with pytest.raises(ValueError):
            empirical_joint_from_counts(Counter(), grid)

    def test_merge_by_counts_averages(self):
        grid = GridSpec(2, 1, 3)
        a = Counter({(0, 0): 3, (1, 1): 1})
        b = Counter({(0, 0): 1, (2, 2): 3})
        merged = empirical_joint_from_counts(a + b, grid)
        assert merged.probs[(0, 0)] == pytest.approx(0.5)
        assert merged.probs[(1, 1)] == pytest.approx(0.125)
        assert merged.probs[(2, 2)] == pytest.approx(0.375)

    def test_tv_to_exact_decreases_with_samples(self):
        grid = GridSpec(2, 2, 3)
        model = make_grid_markov_target(grid, 5, 0.7)
        exact = enumerate_joint(model, grid, IDENTITY)
        gen = stream(1, "trend")
        errors = []
        for n in (10_000, 100_000, 1_000_000):
            # Drawn 10,000 grids a call, so no call holds a million.
            counts = Counter()
            for _ in range(n // 10_000):
                grids = model.sample_grid(gen, 10_000)
                keys, repeats = np.unique(grids, axis=0, return_counts=True)
                counts.update(dict(zip(map(tuple, keys.tolist()), repeats.tolist())))
            errors.append(joint_tv(exact, empirical_joint_from_counts(counts, grid)))
        assert errors[0] > errors[1] > errors[2]


class TestJointTv:
    def test_identity_zero(self):
        grid = GridSpec(2, 1, 3)
        a = JointTable(grid, {(0, 0): 0.5, (1, 1): 0.5})
        assert joint_tv(a, a) == 0.0

    def test_disjoint_supports(self):
        grid = GridSpec(2, 1, 3)
        a = JointTable(grid, {(0, 0): 1.0})
        b = JointTable(grid, {(1, 1): 1.0})
        assert joint_tv(a, b) == 1.0

    def test_symmetric(self):
        grid = GridSpec(2, 1, 3)
        a = JointTable(grid, {(0, 0): 0.7, (1, 1): 0.3})
        b = JointTable(grid, {(0, 0): 0.2, (2, 2): 0.8})
        assert joint_tv(a, b) == joint_tv(b, a)

    def test_grid_mismatch(self):
        a = JointTable(GridSpec(2, 1, 3), {(0, 0): 1.0})
        b = JointTable(GridSpec(1, 2, 3), {(0, 0): 1.0})
        with pytest.raises(ValueError):
            joint_tv(a, b)


def emitted_law(p, drafts):
    """The exact law of the token sequential_verify emits, over every choice it makes."""
    outcomes = enumerate_draws(
        lambda draws: sequential_verify(p, drafts, draws.uniforms(len(drafts)), draws)
        .emitted_token
    )
    law = np.zeros(len(p))
    for token, weight in outcomes.items():
        law[token] += weight
    return law


class TestEmittedLaw:
    def test_matches_target_exactly(self):
        gen = stream(2, "law")
        for _ in range(50):
            k = int(gen.integers(2, 5))

            def rand():
                w = gen.random(k) + 1e-3
                return TokenDistribution(w / w.sum())

            p = rand()
            law = emitted_law(p, [rand(), rand(), rand()])
            np.testing.assert_allclose(law, p.probs, atol=1e-12)

    def test_zero_support_drafts_handled(self):
        p = TokenDistribution([0.5, 0.5, 0.0])
        q = TokenDistribution([0.0, 1.0, 0.0])
        law = emitted_law(p, [q])
        np.testing.assert_allclose(law, p.probs, atol=1e-12)


class TestEnumerateDraws:
    def test_choices_replay_their_script(self):
        # A token's options are its support in index order; an accept test's
        # are accept then reject. A one-option choice takes no script entry.
        q = TokenDistribution([0.25, 0.0, 0.75])
        draws = EnumeratingDraws((1, 1, 0))
        assert draws.uniforms(2) == [None, None]
        assert draws.token(q, None) == 2
        assert draws.accept(0.4) is False
        assert draws.token(TokenDistribution([0.0, 1.0]), None) == 1
        assert draws.accept(2.0) is True and draws.accept(0.0) is False
        assert draws.sample(q) == 0
        assert draws.weight == pytest.approx(0.75 * 0.6 * 0.25)
        with pytest.raises(_PastScript):
            draws.sample(q)

    def test_law_of_a_run(self):
        # Two samples and an accept test between them: every path once, each
        # with the product of its weights, summed by outcome.
        p = TokenDistribution([0.5, 0.3, 0.2])

        def run(draws):
            first = draws.sample(p)
            return first, draws.sample(p) if draws.accept(0.25) else None

        law = enumerate_draws(run)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-15)
        assert law[(1, None)] == pytest.approx(0.3 * 0.75)
        assert law[(2, 0)] == pytest.approx(0.2 * 0.25 * 0.5)
        assert len(law) == 3 + 3 * 3


class TestRejectionCurve:
    def test_double_entry_against_reference_chain(self):
        # Independent residual-chain implementation; the chained rejection
        # mass prod (1 - alpha_i) over chain_alphas must match it at every
        # chain length on random instances.
        def reference_mass(p, drafts):
            p_cur = np.array(p.probs, dtype=float)
            product = 1.0
            for q in drafts:
                overlap = float(np.minimum(p_cur, q.probs).sum())
                product *= 1.0 - overlap
                left = np.clip(p_cur - q.probs, 0.0, None)
                if left.sum() > 0:
                    p_cur = left / left.sum()
            return product

        gen = stream(4, "double-entry")
        for _ in range(300):
            k = int(gen.integers(2, 6))

            def rand():
                w = gen.random(k) + 1e-3
                return TokenDistribution(w / w.sum())

            p = rand()
            drafts = [rand() for _ in range(int(gen.integers(1, 5)))]
            masses = itertools.accumulate(chain_alphas(p, drafts), lambda m, a: m * (1.0 - a),
                                          initial=1.0)
            for m, mass in enumerate(masses):
                assert mass == pytest.approx(reference_mass(p, drafts[:m]), abs=1e-12)


def _result(mode, rounds, committed, attempts, accepts):
    return BatchResult(
        mode=mode, grid_counts=Counter(), rounds=rounds,
        truncated_rounds=0, committed=committed, depth_attempts=attempts,
        depth_accepts=accepts, wall_clock_ms=12.5,
    )


class TestReportAndCsv:
    def test_metrics_csv_layout(self, tmp_path):
        result = _result("hawk", 7, 16, {2: 4, 1: 4}, {1: 3, 2: 2})
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [result])
        lines = path.read_text().splitlines()
        assert lines[0] == "mode,rounds,committed,accept_length,depth_accept_rates"
        cells = lines[1].split(",")
        assert cells[:3] == ["hawk", "7", "16"]
        assert float(cells[3]) == 16 / 7
        assert cells[4] == "1:0.75|2:0.5"
        assert "wall" not in lines[0]  # timings never enter the CSV

    def test_pairs_csv(self, tmp_path):
        path = tmp_path / "pairs.csv"
        write_csv(path, ("m", "mass"), [(1, 0.5), (2, 0.25)])
        assert path.read_text() == "m,mass\n1,0.5\n2,0.25\n"

    def test_float_cells_round_trip(self, tmp_path):
        result = _result("hawk", 3, 4, {1: 3}, {1: 1})
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [result])
        cells = path.read_text().splitlines()[1].split(",")
        assert float(cells[3]) == 4 / 3
        assert cells[4] == f"1:{1 / 3!r}"
