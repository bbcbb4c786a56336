"""Outside-in benchmark of hawk: per-mode decode throughput and set-up cost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload image_16x16 --seed 1 --seconds 15 --trace 0

The harness drives hawk's public API (``load_run_config``, ``build_model``,
``build_heads``, ``held_out_nll``, ``decode_batch``, ``enumerate_joint``) in
one single-threaded process, importing the package from ``src/`` of the
checkout. Each workload is a closed loop: every ``decode_batch`` call starts
after the previous one returned. Modes are interleaved in cycles of one
batch per mode, with the first mode rotating from cycle to cycle, so a slow
spell on a shared machine hits every mode alike. Times and rates are scaled
to a reference core speed (see ``pace.py``).

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` runs a fixed amount of work (the reference cycles), each batch
once untraced and once with spans around hawk's layer boundaries, and prints
the per-layer metrics; its counts repeat exactly for a given seed. Either
way the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count correctness checks. ``NOTES.md`` says what each metric means.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from pace import REFERENCE_STEPS_PER_S, SpeedSampler, kernel_rate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MODES = ("vanilla", "medusa", "hawk", "lantern")
SPECULATIVE = ("medusa", "hawk", "lantern")
EXACT = ("vanilla", "medusa", "hawk")
# Calibration steps run between decode batches (about 1 ms).
BRACKET_STEPS = 300


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    chunk: int  # grids per decode_batch call
    reference_cycles: int  # always run; accept lengths, the TV check and tracing use these
    setups: int  # set-up repetitions per run; medians are reported
    heads_sha256: str  # save_head_set output for the config's fixed head seed
    oracle: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oracle_2x2",
            "2x2 grid, 4-token sessions: per-session and per-round fixed costs dominate",
            chunk=100,
            reference_cycles=100,
            setups=9,
            heads_sha256="eb91365100ec1ded34673183b13c88901bf0a6dff80b21a847b37d89bcf26615",
            oracle=True,
        ),
        Workload(
            "image_16x16",
            "256-token sessions: the steady-state round loop, cache inserts and evictions",
            chunk=2,
            reference_cycles=50,
            setups=3,
            heads_sha256="f04304d4f6529064e1014a2f24d6b6981a3f6aaaf51b9dda5ef39e654aa9598b",
        ),
        Workload(
            "wide_tree_16x16",
            "H=4, two vertical depths, top-k/temperature: truncated trees and draft transforms",
            chunk=1,
            reference_cycles=80,
            setups=3,
            heads_sha256="aa4a90f15977aeec84e9904f19af96c7002f363182293c3be3e56df9be18a70b",
        ),
    )
}


def import_hawk():
    """Import hawk from ``src/`` of this checkout, and refuse any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import hawk
    import hawk.cli
    import hawk.rng

    origin = Path(hawk.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"hawk imported from {origin}, not from {ROOT / 'src'}")
    return hawk


class Checks:
    """Correctness checks; ``failed`` over ``attempted`` is the failed share."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)


class Stopwatch:
    """``call(name, fn, *args)`` runs fn and keeps its reference-speed seconds by name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def call(self, name: str, fn, *args):
        with SpeedSampler() as sampler:
            result = fn(*args)
        self.seconds[name] = sampler.reference_seconds
        return result


def plain_call(_name: str, fn, *args):
    return fn(*args)


def mode_variants(engine):
    """Equal-budget configs, by the rule the README states for verify and bench.

    medusa and lantern drop the vertical heads and draw
    samples_per_horizontal + samples_per_vertical * vertical_depth horizontal
    candidates; vanilla drafts nothing. The rule is restated here rather than
    taken from the CLI's private helper so that the workloads stay fixed when
    the CLI changes.
    """
    width = engine.samples_per_horizontal + engine.samples_per_vertical * engine.vertical_depth
    medusa = dataclasses.replace(
        engine, mode="medusa", vertical_depth=0, samples_per_horizontal=width
    )
    return {
        "vanilla": dataclasses.replace(engine, mode="vanilla", vertical_depth=0),
        "medusa": medusa,
        "hawk": dataclasses.replace(engine, mode="hawk"),
        "lantern": dataclasses.replace(medusa, mode="lantern"),
    }


@dataclass
class SetUp:
    config: object
    model: object
    heads: object
    exact: object  # enumerated joint on oracle workloads, else None


def set_up(hawk, workload: Workload, call) -> SetUp:
    """Config load, build_model, build_heads (+ enumerate_joint on oracle workloads).

    Each step runs as ``call(name, fn, *args)``, which times or traces it.
    """
    cli = hawk.cli
    config = call("cli.load_run_config", cli.load_run_config,
                  BENCH_DIR / "configs" / f"{workload.name}.json")
    model = call("cli.build_model", cli.build_model, config)
    heads = call("cli.build_heads", cli.build_heads, config, model)
    exact = None
    if workload.oracle:
        exact = call("oracle_metrics.enumerate_joint", hawk.enumerate_joint,
                     model, config.grid, config.engine.transform)
    return SetUp(config, model, heads, exact)


def holdout(hawk, setup: SetUp, seed: int, call) -> dict:
    """held_out_nll on sample_count // 4 fresh grids, the rule ``hawk fit`` uses."""
    samples = max(1, int(setup.config.heads_spec["sample_count"]) // 4)
    return call("models.held_out_nll", hawk.held_out_nll, setup.model, setup.heads, samples,
                hawk.rng.derive_seed(seed, "holdout"))


def heads_digest(hawk, heads, name: str) -> str:
    path = OUT_DIR / f"heads-{name}.json"
    hawk.save_head_set(heads, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def set_up_repeatedly(hawk, workload: Workload, seed: int, checks: Checks):
    """Set up ``workload.setups`` times; check that heads and held-out NLL reproduce.

    Returns the last set-up and the per-repetition seconds of set-up,
    head fitting (``build_heads``) and held-out NLL.
    """
    times = {"setup_s": [], "fit_s": [], "holdout_s": []}
    first_nll = None
    for _ in range(workload.setups):
        watch = Stopwatch()
        setup = set_up(hawk, workload, watch.call)
        nll = holdout(hawk, setup, seed, watch.call)
        seconds = watch.seconds
        times["holdout_s"].append(seconds.pop("models.held_out_nll"))
        times["fit_s"].append(seconds["cli.build_heads"])
        times["setup_s"].append(sum(seconds.values()))
        digest = heads_digest(hawk, setup.heads, workload.name)
        checks.check(digest == workload.heads_sha256,
                     f"heads sha256 {digest} != pinned {workload.heads_sha256}")
        first_nll = first_nll or nll
        checks.check(nll == first_nll, "held_out_nll differs between repetitions")
        if setup.exact is not None:
            checks.check(abs(setup.exact.total() - 1.0) < 1e-9, "enumerated joint mass != 1")
    return setup, times


def check_batch(checks: Checks, batch, grid, engine, count: int, mode: str) -> None:
    ok_grids = all(
        len(g) == grid.size and all(0 <= t < grid.vocab_size for t in g)
        for g in batch.grid_counts
    )
    checks.check(ok_grids and sum(batch.grid_counts.values()) == count,
                 f"{mode}: decoded grids malformed")
    checks.check(batch.committed == count * grid.size,
                 f"{mode}: committed {batch.committed} != {count} * {grid.size}")
    limit = 1 if mode == "vanilla" else engine.horizontal_depth + 1
    checks.check(1 <= batch.accept_length <= limit,
                 f"{mode}: accept length {batch.accept_length} outside [1, {limit}]")


def check_exactness(hawk, checks: Checks, setup: SetUp, counts: dict, call) -> None:
    """The ``hawk verify`` rule: each exact mode's TV <= tolerance_factor * vanilla TV."""
    tv = {
        mode: call("oracle_metrics.joint_tv", hawk.joint_tv, setup.exact,
                   hawk.empirical_joint_from_counts(counts[mode], setup.config.grid))
        for mode in MODES
    }
    tolerance = setup.config.tolerance_factor * tv["vanilla"]
    for mode in EXACT:
        checks.check(tv[mode] <= tolerance, f"{mode}: TV {tv[mode]} > tolerance {tolerance}")
    status = "expected_fail" if tv["lantern"] > tolerance else "unexpected_pass"
    for mode in MODES:
        note = f" {status} (not gated)" if mode == "lantern" else ""
        print(f"oracle: mode={mode} decodes={sum(counts[mode].values())} tv={tv[mode]:.6f} "
              f"tolerance={tolerance:.6f}{note}")


class Batches:
    """Runs the decode batches of one workload; (cycle, mode) derives the batch seed."""

    def __init__(self, hawk, setup: SetUp, workload: Workload, seed: int, checks: Checks):
        self.hawk, self.setup, self.workload, self.seed, self.checks = (
            hawk, setup, workload, seed, checks)
        self.variants = mode_variants(setup.config.engine)

    def run(self, mode: str, cycle: int, call=plain_call):
        heads = None if mode == "vanilla" else self.setup.heads
        seed = self.hawk.rng.derive_seed(self.seed, "decode", mode, cycle)
        start = time.perf_counter()
        batch = call("engine.session", self.hawk.decode_batch, self.setup.model, heads,
                     self.variants[mode], seed, self.workload.chunk)
        elapsed = time.perf_counter() - start
        check_batch(self.checks, batch, self.setup.config.grid, self.variants[mode],
                    self.workload.chunk, mode)
        return batch, elapsed


def decode_cycles(batches: Batches, seconds: float):
    """Interleaved closed-loop decoding: the reference cycles, then on until ``seconds``.

    Each batch is bracketed by calibration runs; its rate is scaled by the
    reference speed over the mean of the two. Returns per-mode lists of
    scaled and raw rates (grids/s), accept lengths over the reference cycles,
    and the reference cycles' grid counts.
    """
    workload = batches.workload
    scaled = {mode: [] for mode in MODES}
    raw = {mode: [] for mode in MODES}
    reference = {mode: [0, 0] for mode in MODES}  # committed, rounds
    counts = {mode: Counter() for mode in MODES}
    deadline = time.perf_counter() + seconds
    before = kernel_rate(BRACKET_STEPS)
    cycle = 0
    while cycle < workload.reference_cycles or time.perf_counter() < deadline:
        first = cycle % len(MODES)
        for mode in MODES[first:] + MODES[:first]:
            batch, elapsed = batches.run(mode, cycle)
            after = kernel_rate(BRACKET_STEPS)
            rate = workload.chunk / elapsed
            raw[mode].append(rate)
            scaled[mode].append(rate * 2.0 * REFERENCE_STEPS_PER_S / (before + after))
            before = after
            if cycle < workload.reference_cycles:
                reference[mode][0] += batch.committed
                reference[mode][1] += batch.rounds
                counts[mode].update(batch.grid_counts)
        cycle += 1
    accept = {mode: committed / rounds for mode, (committed, rounds) in reference.items()}
    return scaled, raw, accept, counts


def quantile_line(values: list[float]) -> str:
    deciles = statistics.quantiles(values, n=10)
    return (f"median={statistics.median(values):.6g} p10={deciles[0]:.6g} "
            f"p90={deciles[-1]:.6g} n={len(values)}")


def provenance() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(hawk, workload: Workload, seed: int, seconds: float, checks: Checks) -> dict:
    setup, times = set_up_repeatedly(hawk, workload, seed, checks)
    for name, values in times.items():
        print(f"{name} (reference speed): {quantile_line(values)}")
    gc.collect()
    batches = Batches(hawk, setup, workload, seed, checks)
    scaled, raw, accept, counts = decode_cycles(batches, seconds)
    if setup.exact is not None:
        check_exactness(hawk, checks, setup, counts, plain_call)
    speedups = [h / v for h, v in zip(raw["hawk"], raw["vanilla"])]
    metrics = {"setup_s": metric(statistics.median(times["setup_s"]), "s")}
    for mode in MODES:
        metrics[f"decodes_per_s.{mode}"] = metric(statistics.median(scaled[mode]), "grids/s")
        print(f"decodes_per_s.{mode}: reference speed {quantile_line(scaled[mode])}; "
              f"raw {quantile_line(raw[mode])} grids/s")
    metrics["wall_speedup.hawk"] = metric(statistics.median(speedups), "ratio")
    metrics["accept_length.medusa"] = metric(accept["medusa"], "tokens/pass")
    metrics["accept_length.hawk"] = metric(accept["hawk"], "tokens/pass")
    metrics["fit_s"] = metric(statistics.median(times["fit_s"]), "s")
    metrics["holdout_s"] = metric(statistics.median(times["holdout_s"]), "s")
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    ratio = setup.config.engine.draft_overhead_ratio
    print(f"wall_speedup.hawk: {quantile_line(speedups)}; "
          f"modeled_speedup.hawk={accept['hawk'] / (1.0 + ratio):.4f} "
          f"(accept_length {accept['hawk']:.4f} / (1 + draft_overhead_ratio {ratio}))")
    return metrics


def run_traced(hawk, workload: Workload, seed: int, checks: Checks) -> dict:
    from spans import SETUP, Tracer

    tracer = Tracer(MODES)
    restore = tracer.install()
    try:
        setup = set_up(hawk, workload, tracer.call)
        holdout(hawk, setup, seed, tracer.call)
    finally:
        restore()
    batches = Batches(hawk, setup, workload, seed, checks)
    plain, traced = {m: [] for m in MODES}, {m: [] for m in MODES}
    wall = {(flag, m): 0.0 for flag in (False, True) for m in MODES}
    for cycle in range(workload.reference_cycles):
        for mode in MODES:
            batch, elapsed = batches.run(mode, cycle)
            plain[mode].append(batch)
            wall[(False, mode)] += elapsed
            tracer.set_mode(mode)
            restore = tracer.install()
            try:
                batch, elapsed = batches.run(mode, cycle, tracer.call)
            finally:
                restore()
                tracer.set_mode(SETUP)
            traced[mode].append(batch)
            wall[(True, mode)] += elapsed
    for mode in MODES:
        checks.check(all(a.grid_counts == b.grid_counts and a.rounds == b.rounds
                         for a, b in zip(plain[mode], traced[mode])),
                     f"{mode}: traced decode differs from untraced decode")
    if setup.exact is not None:
        counts = {mode: sum((b.grid_counts for b in plain[mode]), Counter()) for mode in MODES}
        check_exactness(hawk, checks, setup, counts, tracer.call)
    tracer.write(OUT_DIR / f"spans-{workload.name}.npz")
    rounds = {mode: sum(b.rounds for b in plain[mode]) for mode in MODES}
    return layer_metrics(tracer, workload, setup, wall, rounds)


def layer_metrics(tracer, workload: Workload, setup: SetUp, wall: dict, rounds: dict) -> dict:
    """Per-layer metrics from the spans and counters of a traced run (raw, not scaled)."""
    spans = tracer.summary()
    grids = workload.reference_cycles * workload.chunk
    counters = tracer.counters
    out = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = metric(float(value), unit)

    def per_grid_us(span: str, mode: str) -> float:
        return spans.self_ns(span, mode) / 1000.0 / grids

    for span in ("cli.build_model", "cli.build_heads", "models.fit_tabular_draft_heads",
                 "models.held_out_nll", "oracle_metrics.enumerate_joint",
                 "oracle_metrics.joint_tv"):
        put(f"{span}.s", spans.total_ns(span) / 1e9, "s")
    put("models.sample_grid.calls", spans.calls("models.sample_grid"), "count")
    put("models.sample_grid.self_us", spans.self_ns("models.sample_grid") / 1000.0, "us")

    target_calls = conditional_calls = 0
    for mode in MODES:
        put(f"engine.session.self_us_per_decode.{mode}", per_grid_us("engine.session", mode),
            "us/grid")
        put(f"trace.coverage.{mode}", 1.0 - spans.self_ns("engine.session", mode)
            / spans.total_ns("engine.session", mode), "fraction")
        put(f"engine.decode_round.calls.{mode}", spans.calls("engine.decode_round", mode) / grids,
            "count/grid")
        put(f"core.sample_index.calls.{mode}", spans.calls("core.sample_index", mode) / grids,
            "count/grid")
        for span in ("engine.decode_round", "engine.commit_token", "engine.target_dist",
                     "core.sample_index"):
            put(f"{span}.self_us.{mode}", per_grid_us(span, mode), "us/grid")
        target_calls += spans.calls("engine.target_dist", mode)
        conditional_calls += counters[("models.conditional", mode)]
    for mode in SPECULATIVE:
        for span in ("engine.build_pool", "engine.build_candidate_tree", "engine.draft_dist",
                     "verifier.verify"):
            put(f"{span}.self_us.{mode}", per_grid_us(span, mode), "us/grid")
        put(f"models.head_predict.calls.{mode}", counters[("models.head_predict", mode)] / grids,
            "count/grid")
        tree_rounds = max(counters[("tree.rounds", mode)], 1)
        put(f"engine.tree.paths_per_round.{mode}", counters[("tree.paths", mode)] / tree_rounds,
            "paths/round")
        put(f"engine.tree.truncated_share.{mode}", counters[("tree.truncated", mode)] / tree_rounds,
            "fraction")
        put(f"engine.tree.verified_over_drawn.{mode}",
            counters[("verify.steps", mode)] / max(counters[("tree.drawn", mode)], 1), "fraction")
        verify_calls = spans.calls("verifier.verify", mode)
        put(f"verifier.verify.calls.{mode}", verify_calls / grids, "count/grid")
        calls = max(verify_calls, 1)
        put(f"verifier.steps_per_call.{mode}", counters[("verify.steps", mode)] / calls,
            "steps/call")
        put(f"verifier.accept_share.{mode}", counters[("verify.accepts", mode)] / calls, "fraction")
        put(f"verifier.resample_share.{mode}", counters[("verify.resamples", mode)] / calls,
            "fraction")
    put("verifier.residual_exhausted", tracer.residual_exhausted.records, "count")
    put("engine.cache.peak_over_capacity", tracer.peaks[("cache.peak_over_capacity", "hawk")],
        "fraction")
    put("engine.target_dist.hit_ratio", 1.0 - conditional_calls / max(target_calls, 1), "fraction")
    all_grids = grids * len(MODES)
    put("core.apply_sampling_config.calls",
        sum(spans.calls("core.apply_sampling_config", m) for m in MODES) / all_grids, "count/grid")
    put("core.apply_sampling_config.self_us",
        sum(spans.self_ns("core.apply_sampling_config", m) for m in MODES) / 1000.0 / all_grids,
        "us/grid")
    put("trace.overhead", sum(wall[(True, m)] for m in MODES)
        / sum(wall[(False, m)] for m in MODES), "ratio")

    # Derived draft overhead: the extra time of a hawk round over a vanilla
    # round, which is one target pass here. Untraced per-round times are
    # batch wall time over rounds, so they include the session's own cost.
    accept = grids * setup.config.grid.size / rounds["hawk"]
    traced_round = {m: spans.total_ns("engine.decode_round", m) / 1000.0 / rounds[m] for m in MODES}
    plain_round = {m: wall[(False, m)] * 1e6 / rounds[m] for m in MODES}
    print("us/round traced: " + " ".join(f"{m}={v:.2f}" for m, v in traced_round.items()))
    print("us/round untraced: " + " ".join(f"{m}={v:.2f}" for m, v in plain_round.items()))
    for label, per_round in (("traced", traced_round), ("untraced", plain_round)):
        ratio = per_round["hawk"] / per_round["vanilla"] - 1.0
        print(f"draft_overhead_ratio ({label} hawk vs vanilla us/round): {ratio:.4f} "
              f"(hand-set {setup.config.engine.draft_overhead_ratio}); "
              f"modeled_speedup.hawk={accept / (1.0 + ratio):.4f}")
    print(f"wall_speedup.hawk (untraced batches): "
          f"{wall[(False, 'vanilla')] / wall[(False, 'hawk')]:.4f}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        hawk = import_hawk()
    except ImportError as exc:
        print(f"error: cannot import hawk from this checkout: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    info = provenance()
    print(f"provenance: {json.dumps(info, sort_keys=True)}")
    print(f"workload: {workload.name} ({workload.why}); seed={args.seed} trace={args.trace}")
    checks = Checks()
    if args.trace:
        metrics = run_traced(hawk, workload, args.seed, checks)
    else:
        metrics = run_untraced(hawk, workload, args.seed, args.seconds, checks)
    print(f"failed_share: {checks.failed / checks.attempted} "
          f"({checks.failed} of {checks.attempted} checks)")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "provenance": info, **result}
    (OUT_DIR / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
