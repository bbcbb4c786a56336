"""Acceptance criteria for the decoding artifact.

Each test covers one numbered criterion and prints a PASS line with the
measured values (run pytest with -s to see them). The heavy Monte Carlo
batches for the exactness criteria are shared through module-scoped
fixtures.
"""

import dataclasses
import itertools
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from hawk.cli import main
from hawk.core import GridSpec, SamplingConfig, TokenDistribution
from hawk.engine import (
    DecodingContext,
    EngineConfig,
    build_pool,
    cache_capacity,
    decode_batch,
    decode_round,
    tree_widths,
)
from hawk.models import fit_tabular_draft_heads, make_grid_markov_target
from hawk.oracle_metrics import (
    empirical_joint_from_counts,
    enumerate_draws,
    enumerate_joint,
    joint_tv,
)
from hawk.rng import derive_seed, stream
from hawk.verifier import chain_alphas, lantern_sequential_verify, sequential_verify
from test_models import iid_oracle

# Fixed identities for the exactness runs; configs/verify_2x2.json mirrors them.
EXACTNESS_GRID = GridSpec(2, 2, 3)
MODEL_SEED = 1009
HEADS_SEED = 2003
MASTER_SEED = 4242
DECODES_PER_MODE = 500_000
TOLERANCE_FACTOR = 3.0
G_TEST_LEVEL = 1e-3

EXACTNESS_CONFIGS = {
    "vanilla": EngineConfig(mode="vanilla"),
    "medusa": EngineConfig(mode="medusa", horizontal_depth=2, samples_per_horizontal=2),
    "hawk": EngineConfig(
        mode="hawk",
        horizontal_depth=2,
        vertical_depth=1,
        samples_per_horizontal=1,
        samples_per_vertical=1,
    ),
}
LANTERN_CONFIG = EngineConfig(
    mode="lantern",
    horizontal_depth=2,
    samples_per_horizontal=2,
    lantern_k=10,
    lantern_lambda=2.0,
)


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def g_statistic(counts, exact, min_expected=0.0):
    """G = 2 * sum O * ln(O / E) of observed grid counts against an enumerated
    joint, and its degrees of freedom. Every cell whose expected count is
    below ``min_expected`` is pooled into one, so the chi-square law holds."""
    n = sum(counts.values())
    small = {key for key, p in exact.probs.items() if n * p < min_expected}
    cells = [(counts.get(key, 0), n * p) for key, p in exact.probs.items() if key not in small]
    if small:
        cells.append(
            (sum(counts.get(key, 0) for key in small), n * sum(exact.probs[key] for key in small))
        )
    return 2.0 * sum(o * math.log(o / e) for o, e in cells if o), len(cells) - 1


def chi2_tail(x, dof):
    """P(X > x) for X chi-square with ``dof`` degrees of freedom (Wilson-Hilferty)."""
    v = 2.0 / (9.0 * dof)
    z = ((x / dof) ** (1.0 / 3.0) - (1.0 - v)) / math.sqrt(v)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def random_dist(gen, k, floor=1e-3):
    w = gen.random(k) + floor
    return TokenDistribution(w / w.sum())


def sparse_dist(gen, k):
    """A random distribution with zero-probability tokens, or a point mass."""
    w = gen.random(k) + 1e-3
    w[gen.random(k) < 0.5] = 0.0
    if not w.any():
        w[gen.integers(k)] = 1.0
    return TokenDistribution(w / w.sum())


def verifier_instances(gen, count):
    """``count`` (p, drafts) rounds of 1-4 drafts over 2-4 tokens. Each draft is a
    dense one, one with zero-probability tokens, or, after the first, a repeat
    of the draft before it, as medusa's equal-budget layers repeat one q."""
    instances = []
    for _ in range(count):
        k = int(gen.integers(2, 5))
        p = random_dist(gen, k)
        drafts = []
        for _ in range(int(gen.integers(1, 5))):
            kind = int(gen.integers(3 if drafts else 2))
            drafts.append(random_dist(gen, k) if kind == 0
                          else sparse_dist(gen, k) if kind == 1 else drafts[-1])
        instances.append((p, drafts))
    return instances


def emitted_law(p, drafts, verify=sequential_verify, *rule):
    """The exact law of the token ``verify`` emits: the walk itself, run under
    :func:`~hawk.oracle_metrics.enumerate_draws` over every choice it makes."""
    outcomes = enumerate_draws(
        lambda draws: verify(p, drafts, draws.uniforms(len(drafts)), draws, *rule).emitted_token
    )
    law = np.zeros(len(p))
    for token, weight in outcomes.items():
        law[token] += weight
    return law


def _exactness_batch(mode):
    """One mode's exactness run: its ``grid_counts`` and ``accept_length``.

    Built from the module constants in the calling process, so a worker
    receives only the mode's name and no model or heads are pickled.
    """
    model = make_grid_markov_target(EXACTNESS_GRID, MODEL_SEED, 0.9)
    heads = None
    if mode != "vanilla":
        heads = fit_tabular_draft_heads(model, 2, 1, 500, HEADS_SEED, 1.0)
    config = LANTERN_CONFIG if mode == "lantern" else EXACTNESS_CONFIGS[mode]
    batch = decode_batch(
        model, heads, config, derive_seed(MASTER_SEED, "acceptance", mode), DECODES_PER_MODE
    )
    return batch.grid_counts, batch.accept_length


@pytest.fixture(scope="module")
def exactness_runs():
    # The four batches run in up to two fresh worker processes, longest
    # first; each batch has its own seed, so its counts do not depend on
    # where it runs. The pool is shut down before the fixture returns.
    exact = enumerate_joint(
        make_grid_markov_target(EXACTNESS_GRID, MODEL_SEED, 0.9), EXACTNESS_GRID, SamplingConfig()
    )
    modes = ("lantern", "hawk", "medusa", "vanilla")
    workers = min(2, len(os.sched_getaffinity(0)))
    start = time.perf_counter()
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = {mode: pool.submit(_exactness_batch, mode) for mode in modes}
        batches = {mode: futures[mode].result() for mode in EXACTNESS_CONFIGS}
        exact_mode_seconds = time.perf_counter() - start
        batches["lantern"] = futures["lantern"].result()

    results = {}
    for mode, (counts, accept_length) in batches.items():
        results[mode] = {
            "tv": joint_tv(exact, empirical_joint_from_counts(counts, EXACTNESS_GRID)),
            "g": g_statistic(counts, exact),
            "accept_length": accept_length,
        }
    results["_exact_mode_seconds"] = exact_mode_seconds
    return results


def test_criterion_1_exactness(exactness_runs):
    """Decoded joints match the enumerated target within the calibrated floor."""
    floor = exactness_runs["vanilla"]["tv"]
    tolerance = TOLERANCE_FACTOR * floor
    elapsed = exactness_runs["_exact_mode_seconds"]
    details = []
    ok = True
    for mode in ("vanilla", "medusa", "hawk"):
        tv = exactness_runs[mode]["tv"]
        details.append(f"{mode} tv={tv:.5f}")
        ok = ok and tv <= tolerance
    ok = ok and elapsed < 300.0
    report(
        1, ok,
        f"{', '.join(details)}, tolerance={tolerance:.5f}, "
        f"N={DECODES_PER_MODE}, runtime={elapsed:.0f}s<300s",
    )


def test_criterion_1_g_test(exactness_runs):
    """The same counts pass a G-test against the enumerated joint, whatever the seed's draw.

    The TV gate above scales with one vanilla draw; this one compares each
    exact mode with the chi-square law of G at a fixed level. Lantern, which
    is not exact, must fail it, which shows the test has power at this size.
    """
    details = []
    ok = True
    for mode in ("vanilla", "medusa", "hawk", "lantern"):
        g, dof = exactness_runs[mode]["g"]
        p = chi2_tail(g, dof)
        details.append(f"{mode} G={g:.2f} p={p:.3g}")
        ok = ok and (p < G_TEST_LEVEL if mode == "lantern" else p >= G_TEST_LEVEL)
    report("1 (G-test)", ok, f"{', '.join(details)}, dof={dof}, level={G_TEST_LEVEL}")


# Two vertical depths, a truncated candidate tree and transformed drafts
# against the enumerated joint. Vertical depth 2 needs three rows, so the
# grid is 2x3 at vocabulary 2 (64 outcomes); at vocabulary 2 only the
# temperature transforms. Medusa and lantern get hawk's three candidates
# per layer, and each test sets the node budget: 3 nodes cut every tree of
# two layers to a chain, and 4 keep two candidates at depth 1 and one at
# depth 2, so pools of 3 become (2, 1).
ORACLE_2X3_GRID = GridSpec(2, 3, 2)
ORACLE_2X3_DECODES = 40_000
ORACLE_2X3_TRANSFORM = SamplingConfig(temperature=0.8)
ORACLE_2X3_CONFIGS = {
    "hawk": EngineConfig(
        mode="hawk", horizontal_depth=2, vertical_depth=2, samples_per_horizontal=1,
        samples_per_vertical=1, transform=ORACLE_2X3_TRANSFORM,
    ),
    "medusa": EngineConfig(
        mode="medusa", horizontal_depth=2, samples_per_horizontal=3,
        transform=ORACLE_2X3_TRANSFORM,
    ),
    "lantern": EngineConfig(
        mode="lantern", horizontal_depth=2, samples_per_horizontal=3,
        transform=ORACLE_2X3_TRANSFORM, lantern_k=10, lantern_lambda=2.0,
    ),
}


def _g_test_2x3(budget, *seed_tags):
    """G-test each mode's decodes at this node budget against the 2x3
    enumerated joint; report ``(ok, details)``."""
    model = make_grid_markov_target(ORACLE_2X3_GRID, MODEL_SEED, 0.9)
    heads = fit_tabular_draft_heads(model, 2, 2, 500, HEADS_SEED, 1.0)
    exact = enumerate_joint(model, ORACLE_2X3_GRID, ORACLE_2X3_TRANSFORM)
    assert len(exact.probs) == 64
    details = []
    ok = True
    for mode, config in ORACLE_2X3_CONFIGS.items():
        seed = derive_seed(MASTER_SEED, "acceptance-2x3", mode, *seed_tags)
        config = dataclasses.replace(config, node_budget=budget)
        batch = decode_batch(model, heads, config, seed, ORACLE_2X3_DECODES)
        assert batch.truncated_rounds > 0
        g, dof = g_statistic(batch.grid_counts, exact, min_expected=5.0)
        p = chi2_tail(g, dof)
        details.append(f"{mode} G={g:.2f} dof={dof} p={p:.3g}")
        ok = ok and (p < G_TEST_LEVEL if mode == "lantern" else p >= G_TEST_LEVEL)
    return ok, f"{', '.join(details)}, N={ORACLE_2X3_DECODES}, level={G_TEST_LEVEL}"


def test_criterion_1_g_test_two_vertical_depths():
    """Hawk at vertical depth 2 and medusa pass the G-test on a truncated,
    transformed 2x3 oracle whose trees the budget cuts to chains; lantern
    fails it."""
    report("1 (G-test, 2x3)", *_g_test_2x3(3))


def test_criterion_1_g_test_wide_top():
    """The same gate on trees that are wider at the top than below: a budget
    of 4 nodes cuts pools of 3 to (2, 1)."""
    assert tree_widths((3, 3), 4) == (2, 1)
    report("1 (G-test, 2x3, budget 4)", *_g_test_2x3(4, "budget", 4))


def test_chi2_tail_matches_tabulated_quantiles():
    # Chi-square quantiles at 80 degrees of freedom, from standard tables.
    for x, tail in ((124.839, 0.001), (112.329, 0.01), (101.879, 0.05), (79.334, 0.5)):
        assert chi2_tail(x, 80) == pytest.approx(tail, rel=0.02)


def test_criterion_2_verifier_exactness():
    """The law of the token sequential_verify emits, enumerated over every choice
    its draws make, equals the target; lantern's relaxed walk fails the check."""
    gen = stream(MASTER_SEED, "acceptance", "verifier-exactness")
    instances = verifier_instances(gen, 999)
    # test_residual_exhaustion's round: rejecting q1 leaves no residual mass.
    instances.append((TokenDistribution([0.5, 0.5]),
                      [TokenDistribution([0.5, 0.5000000000000001]), TokenDistribution([0.9, 0.1])]))
    repeated = sum(any(a is b for a, b in zip(drafts, drafts[1:])) for _, drafts in instances)
    sparse = sum(any(q.probs.min() == 0.0 for q in drafts) for _, drafts in instances)
    worst = max(float(np.max(np.abs(emitted_law(p, drafts) - p.probs))) for p, drafts in instances)
    # Every neighborhood the whole vocabulary: lantern accepts its first draft.
    lantern = max(
        float(np.max(np.abs(emitted_law(p, drafts, lantern_sequential_verify,
                                        [tuple(range(len(p)))] * len(p),
                                        LANTERN_CONFIG.lantern_lambda) - p.probs)))
        for p, drafts in instances
    )
    ok = worst <= 1e-12 and lantern > 1e-3 and repeated > 0 and sparse > 0
    report(2, ok, f"{len(instances)} instances ({repeated} with a repeated draft, {sparse} "
                  f"with zero-probability tokens), max entrywise error {worst:.2e} <= 1e-12; "
                  f"lantern {lantern:.3f} > 1e-3")


def test_criterion_3_rejection_monotonicity():
    """Each chain's acceptance 1 - prod(1 - alpha_i) over chain_alphas is the
    chance that sequential_verify, enumerated over every choice its draws
    make, accepts a draft; it never falls as drafts are appended, so the
    chained rejection mass never rises."""
    gen = stream(MASTER_SEED, "acceptance", "monotone")
    instances = verifier_instances(gen, 999)
    # test_residual_exhaustion's round: the walk stops at q1, and so does the chain.
    instances.append((TokenDistribution([0.5, 0.5]),
                      [TokenDistribution([0.5, 0.5000000000000001]), TokenDistribution([0.9, 0.1])]))
    worst, falls, chains = 0.0, 0, 0
    for p, drafts in instances:
        acceptance = []
        for m in range(1, len(drafts) + 1):
            chain = drafts[:m]
            law = enumerate_draws(lambda draws: sequential_verify(
                p, chain, draws.uniforms(m), draws).accepted_index is not None)
            acceptance.append(1.0 - math.prod(1.0 - alpha for alpha in chain_alphas(p, chain)))
            worst = max(worst, abs(acceptance[-1] - law.get(True, 0.0)))
        chains += len(drafts)
        falls += any(b < a - 1e-15 for a, b in zip(acceptance, acceptance[1:]))
    ok = worst <= 1e-12 and falls == 0
    report(3, ok, f"{chains} chains of {len(instances)} rounds, max error {worst:.2e} <= 1e-12; "
                  f"{falls} rounds whose acceptance fell as drafts were appended")


def test_criterion_4_dual_source_advantage(tmp_path):
    """Hawk's depth-1 layer acceptance in bench's acceptance.csv is above
    medusa's, whose equal-budget pools repeat the horizontal draft: in the
    interior, and over every round, row 0 included."""
    import json

    config = {
        "schema_version": 1,
        "seed": MASTER_SEED,
        "output_dir": str(tmp_path / "out"),
        "grid": {"width": 12, "height": 12, "vocab_size": 6},
        "model": {"kind": "grid_markov", "seed": 2024, "vertical_weight": 0.9},
        "heads": {"kind": "tabular", "sample_count": 3000, "seed": 55, "smoothing": 0.5},
        "engine": {"mode": "hawk", "horizontal_depth": 2, "vertical_depth": 1},
        "bench": {"images": 40},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["bench", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "acceptance.csv").read_text().splitlines()
    depth_1 = {}  # (mode, region): (reached, layer acceptance)
    for line in lines[1:]:
        mode, region, depth, reached, _, _, acceptance, *_ = line.split(",")
        if depth == "1":
            depth_1[mode, region] = (int(reached), float(acceptance))

    def mean(mode):
        rows = [row for (m, _), row in depth_1.items() if m == mode]
        return sum(n * a for n, a in rows) / sum(n for n, _ in rows)

    interior = {mode: depth_1[mode, "interior"][1] for mode in ("hawk", "medusa")}
    overall = {mode: mean(mode) for mode in ("hawk", "medusa")}
    ok = interior["hawk"] > interior["medusa"] and overall["hawk"] > overall["medusa"]
    report(4, ok, f"depth 1, interior: hawk={interior['hawk']:.4f} > "
                  f"medusa={interior['medusa']:.4f} ({depth_1['hawk', 'interior'][0]} and "
                  f"{depth_1['medusa', 'interior'][0]} rounds); every round: "
                  f"hawk={overall['hawk']:.4f} > medusa={overall['medusa']:.4f}")


def test_criterion_5_accept_length_ordering():
    """Dual-direction drafting commits more tokens per pass than horizontal-only."""
    grid = GridSpec(16, 16, 6)
    model = make_grid_markov_target(grid, 2024, 0.9)
    heads = fit_tabular_draft_heads(model, 2, 1, 3000, 55, 0.5)
    images = 40  # 40 * 256 = 10240 committed tokens per mode
    lengths = {}
    for mode, config in {
        "vanilla": EngineConfig(mode="vanilla"),
        "medusa": EngineConfig(mode="medusa", horizontal_depth=2, samples_per_horizontal=2),
        "hawk": EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=1),
    }.items():
        mode_heads = None if mode == "vanilla" else heads
        batch = decode_batch(
            model, mode_heads, config,
            derive_seed(MASTER_SEED, "acceptance", "accept-length", mode), images,
        )
        lengths[mode] = batch.accept_length
    ok = (
        lengths["vanilla"] == 1.0
        and lengths["medusa"] > 1.0
        and lengths["hawk"] > lengths["medusa"]
    )
    report(
        5, ok,
        f"hawk={lengths['hawk']:.3f} > medusa={lengths['medusa']:.3f} > 1.0, "
        f"vanilla={lengths['vanilla']:.3f}, tokens/mode={images * grid.size}",
    )


@pytest.mark.parametrize("width,vsd,height", [(4, 1, 4), (4, 2, 6), (8, 3, 8)])
def test_criterion_6_cache_law(width, vsd, height):
    """At every round's frontier, the (target, depth) pairs ahead of it whose
    vertical draft a pool may hold, those whose source depth rows above the
    target is committed, number at most the closed-form capacity and reach
    it; each vertical draft of the round's pools is computed from the prefix
    through its source, exactly depth rows above its target."""
    grid = GridSpec(width, height, 4)
    model, heads = iid_oracle(grid, 77, 2, vsd)
    config = EngineConfig(mode="hawk", horizontal_depth=2, vertical_depth=vsd)
    ctx = DecodingContext(model, heads, config, 5)
    capacity = cache_capacity(width, vsd)
    assert ctx.cache.capacity == capacity
    peak = 0
    while len(ctx.committed) < grid.size:
        committed = ctx.committed
        frontier = len(committed)
        live = sum(
            0 <= target - depth * width < frontier
            for target in range(frontier, grid.size) for depth in range(1, vsd + 1)
        )
        for n, slots in enumerate(ctx.plans[frontier].layers, start=1):
            drafts = iter(build_pool(ctx, slots))
            for slot in slots:
                copies = [next(drafts) for _ in range(slot.copies)]
                if slot.head < vsd:  # the vertical head of depth slot.head + 1
                    d = slot.head + 1
                    source = frontier + n - 1 - d * width
                    assert 0 <= source < frontier and slot.length == source + 1
                    draft = ctx.draft_dist(heads.vertical[d - 1], committed[: source + 1],
                                           source + 1)
                    assert all(copy is draft for copy in copies)
        assert live <= capacity
        peak = max(peak, live)
        decode_round(ctx)
    ok = peak == capacity == ctx.cache.peak_occupancy
    report(
        6, ok,
        f"IW={width} VSD={vsd}: peak live drafts {peak} == capacity {capacity}, "
        f"depth law held",
    )


def test_criterion_7_all_accept_bound():
    """Heads that draft an i.i.d. target exactly accept everything every round,
    also at temperature 1.5, where a draft left untransformed would not be
    its target and rounds would reject."""
    h = 2
    grids = (GridSpec(3, 3, 4), GridSpec(4, 4, 4), GridSpec(5, 3, 6))
    transforms = (SamplingConfig(), SamplingConfig(temperature=1.5))
    checked = 0
    for grid, transform in itertools.product(grids, transforms):
        model, heads = iid_oracle(grid, 9, h, 1)
        config = EngineConfig(mode="hawk", horizontal_depth=h, vertical_depth=1,
                              transform=transform)
        trace = []
        ctx = DecodingContext(model, heads, config, 13, trace=trace)
        per_round = []
        while len(ctx.committed) < grid.size:
            frontier = len(ctx.committed)
            decode_round(ctx)
            per_round.append(len(ctx.committed) - frontier)
            assert per_round[-1] == min(h + 1, grid.size - frontier)
        assert all(c == h + 1 for c in per_round[:-1])
        # Every draft of every layer is its target, so the first candidate
        # is accepted.
        assert all(np.array_equal(d.probs, r.target.probs) for r in trace for d in r.drafts)
        assert [r.accepted for r in trace] == [0] * len(trace)
        checked += 1
    report(7, checked == 6, f"every round committed min(H+1, remaining) on {checked} "
                            f"grid and transform pairs")


def test_criterion_8_lantern_non_exactness(exactness_runs):
    """The relaxed baseline accepts at least as much but visibly distorts the joint."""
    hawk_tv = exactness_runs["hawk"]["tv"]
    lantern_tv = exactness_runs["lantern"]["tv"]
    hawk_al = exactness_runs["hawk"]["accept_length"]
    lantern_al = exactness_runs["lantern"]["accept_length"]
    ok = lantern_tv >= 3.0 * hawk_tv and lantern_al >= hawk_al
    report(
        8, ok,
        f"lantern tv={lantern_tv:.5f} >= 3x hawk tv={hawk_tv:.5f}; "
        f"lantern accept={lantern_al:.3f} >= hawk accept={hawk_al:.3f}",
    )


def test_criterion_9_determinism(tmp_path):
    """Reruns with identical manifests produce byte-identical CSV outputs."""
    import json

    config = {
        "schema_version": 1,
        "seed": MASTER_SEED,
        "output_dir": str(tmp_path / "unused"),
        "grid": {"width": 4, "height": 4, "vocab_size": 4},
        "model": {"kind": "grid_markov", "seed": 11, "vertical_weight": 0.9},
        "heads": {"kind": "tabular", "sample_count": 300, "seed": 5, "smoothing": 0.5},
        "engine": {"mode": "hawk", "horizontal_depth": 2, "vertical_depth": 1},
        "oracle": {"decode_count": 2000, "tolerance_factor": 3.0},
        "bench": {"images": 3},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    mismatches = []
    for command in ("decode", "bench"):
        dirs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{command}-{run}"
            assert main([command, "--config", str(config_path), "--out", str(out)]) == 0
            dirs.append(out)
        m1 = json.loads((dirs[0] / "manifest.json").read_text())
        m2 = json.loads((dirs[1] / "manifest.json").read_text())
        if m1 != m2:
            mismatches.append(f"{command}: manifest differs")
        for name, digest in m1["outputs"].items():
            if m2["outputs"].get(name) != digest:
                mismatches.append(f"{command}: {name}")
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                mismatches.append(f"{command}: {name} bytes")
    report(9, not mismatches, f"decode+bench reruns byte-identical; mismatches={mismatches or 'none'}")
