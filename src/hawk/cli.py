"""Operator surface: config files, subcommands, deterministic run manifests.

Subcommands: decode (one grid to image + trace + metrics), verify (the
distribution-preservation report against the enumeration oracle), bench
(metrics CSV across modes plus rejection/KL curves), fit (train and save
tabular draft heads).

Configs are strict JSON: a schema_version field, fixed sections, and unknown
keys are errors so typos in experiment files cannot pass silently. All
randomness flows from the config's single master seed; subcommands derive
purpose-tagged child streams from it. Every run writes a manifest echoing
the effective config and the SHA-256 digest of each output file; rerunning
with an identical manifest reproduces the outputs byte for byte (wall-clock
timings are printed, never written to CSV).

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 verification
criteria failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import __version__
from .core import GridSpec, SamplingConfig
from .engine import (
    MODE_HAWK,
    MODE_VANILLA,
    EngineConfig,
    TRACE_COLUMNS,
    decode_batch,
    decode_image,
    export_grid_image,
)
from .models import (
    DraftHeadSet,
    TargetModel,
    fit_tabular_draft_heads,
    held_out_nll,
    load_head_set,
    make_exact_heads,
    make_grid_markov_target,
    make_independent_target,
    save_head_set,
)
from .oracle_metrics import (
    empirical_joint_from_counts,
    enumerate_joint,
    joint_tv,
    kl_trace,
    rejection_curve,
    require_two_rows,
    write_csv,
    write_metrics_csv,
)
from .rng import derive_seed

SCHEMA_VERSION = 1

VERIFY_COLUMNS = ("mode", "decodes", "tv", "tolerance", "accept_length", "status")
FIT_COLUMNS = ("direction", "depth", "offset", "held_out_nll")

ENGINE_KEYS = {
    "mode",
    "horizontal_depth",
    "vertical_depth",
    "samples_per_horizontal",
    "samples_per_vertical",
    "node_budget",
    "top_k",
    "temperature",
    "lantern_k",
    "lantern_lambda",
    "draft_overhead_ratio",
}
# The keys each model and heads kind reads; a key of another kind is an error.
MODEL_KEYS = {
    "grid_markov": {"kind", "seed", "vertical_weight"},
    "independent": {"kind", "seed", "constant"},
}
HEADS_KEYS = {
    "tabular": {"kind", "sample_count", "seed", "smoothing"},
    "exact": {"kind"},
    "file": {"kind", "path"},
}


@dataclass
class RunConfig:
    seed: int
    output_dir: Path
    grid: GridSpec
    model_spec: dict
    heads_spec: dict
    engine: EngineConfig
    oracle_decode_count: int
    tolerance_factor: float
    bench_images: int
    rejection_positions: int
    rejection_m_max: int
    echo: dict  # effective config as echoed into the manifest


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ValueError(f"missing required config field '{where}.{key}'")
    return section[key]


def _integer(
    section: dict, key: str, where: str, default: Optional[int] = None, minimum: int | None = None
) -> int:
    """A JSON integer field (not ``true`` or ``2.0``) >= ``minimum``; required without default."""
    value = _require(section, key, where) if default is None else section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"config field '{where}.{key}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{where}.{key} must be >= {minimum}, got {value}")
    return value


def _number(section: dict, key: str, where: str, default: Optional[float] = None) -> float:
    """A finite JSON number field (not ``true``, ``"3"`` or ``NaN``); required without default."""
    value = _require(section, key, where) if default is None else section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"config field '{where}.{key}' must be a number, got {value!r}")
    return float(value)


def _boolean(section: dict, key: str, where: str, default: bool) -> bool:
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"config field '{where}.{key}' must be true or false, got {value!r}")
    return value


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ValueError(f"unknown config key '{where}.{unknown[0]}'")


def _kind(section: dict, keys: dict[str, set[str]], where: str) -> str:
    """The section's kind, after rejecting unknown keys and keys the kind does not read."""
    _check_keys(section, set().union(*keys.values()), where)
    kind = _require(section, "kind", where)
    if not isinstance(kind, str) or kind not in keys:
        raise ValueError(f"unknown {where}.kind {kind!r}")
    extra = sorted(set(section) - keys[kind])
    if extra:
        raise ValueError(
            f"config field '{where}.{extra[0]}' does not apply to {where}.kind {kind!r}"
        )
    return kind


def _parse_engine(section: dict) -> EngineConfig:
    _check_keys(section, ENGINE_KEYS, "engine")
    top_k = section.get("top_k", "all")
    transform = SamplingConfig(
        top_k=top_k if top_k == "all" else _integer(section, "top_k", "engine"),
        temperature=_number(section, "temperature", "engine", 1.0),
    )
    return EngineConfig(
        mode=str(_require(section, "mode", "engine")),
        horizontal_depth=_integer(section, "horizontal_depth", "engine", 1),
        vertical_depth=_integer(section, "vertical_depth", "engine", 0),
        samples_per_horizontal=_integer(section, "samples_per_horizontal", "engine", 1),
        samples_per_vertical=_integer(section, "samples_per_vertical", "engine", 1),
        node_budget=_integer(section, "node_budget", "engine", 64),
        transform=transform,
        lantern_k=_integer(section, "lantern_k", "engine", 10),
        lantern_lam=_number(section, "lantern_lambda", "engine", 2.0),
        draft_overhead_ratio=_number(section, "draft_overhead_ratio", "engine", 0.0),
    )


def load_run_config(
    path: str | Path,
    *,
    seed_override: Optional[int] = None,
    out_override: Optional[str] = None,
) -> RunConfig:
    """Parse and validate a run config file; unknown keys are errors."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config root must be a JSON object")
    _check_keys(
        raw,
        {"schema_version", "seed", "output_dir", "grid", "model", "heads", "engine",
         "oracle", "bench"},
        "config",
    )
    version = _require(raw, "schema_version", "config")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema_version {version!r}")

    grid_raw = _require(raw, "grid", "config")
    _check_keys(grid_raw, {"width", "height", "vocab_size"}, "grid")
    grid = GridSpec(
        _integer(grid_raw, "width", "grid"),
        _integer(grid_raw, "height", "grid"),
        _integer(grid_raw, "vocab_size", "grid"),
    )

    model_raw = _require(raw, "model", "config")
    if _kind(model_raw, MODEL_KEYS, "model") == "grid_markov":
        _number(model_raw, "vertical_weight", "model")
    else:
        _boolean(model_raw, "constant", "model", False)
    _integer(model_raw, "seed", "model")

    heads_raw = _require(raw, "heads", "config")
    heads_kind = _kind(heads_raw, HEADS_KEYS, "heads")
    if heads_kind == "tabular":
        _integer(heads_raw, "sample_count", "heads")
        _integer(heads_raw, "seed", "heads")
        _number(heads_raw, "smoothing", "heads", 0.5)
    elif heads_kind == "file":
        _require(heads_raw, "path", "heads")

    engine = _parse_engine(_require(raw, "engine", "config"))

    oracle_raw = raw.get("oracle", {})
    _check_keys(oracle_raw, {"decode_count", "tolerance_factor"}, "oracle")
    decode_count = _integer(oracle_raw, "decode_count", "oracle", 20000, minimum=1)
    tolerance_factor = _number(oracle_raw, "tolerance_factor", "oracle", 3.0)
    if tolerance_factor <= 0:
        raise ValueError("oracle.tolerance_factor must be > 0")

    bench_raw = raw.get("bench", {})
    _check_keys(bench_raw, {"images", "rejection_positions", "rejection_m_max"}, "bench")

    seed = _integer(raw, "seed", "config")
    if seed_override is not None:
        seed = seed_override
    output_dir = Path(out_override if out_override is not None else _require(raw, "output_dir", "config"))

    echo = {k: v for k, v in raw.items() if k != "output_dir"}
    echo["seed"] = seed

    return RunConfig(
        seed=seed,
        output_dir=output_dir,
        grid=grid,
        model_spec=dict(model_raw),
        heads_spec=dict(heads_raw),
        engine=engine,
        oracle_decode_count=decode_count,
        tolerance_factor=tolerance_factor,
        bench_images=_integer(bench_raw, "images", "bench", 4, minimum=1),
        rejection_positions=_integer(bench_raw, "rejection_positions", "bench", 2000, minimum=1),
        rejection_m_max=_integer(bench_raw, "rejection_m_max", "bench", 4, minimum=1),
        echo=echo,
    )


def build_model(config: RunConfig) -> TargetModel:
    spec = config.model_spec
    if spec["kind"] == "grid_markov":
        return make_grid_markov_target(
            config.grid, spec["seed"], float(spec["vertical_weight"])
        )
    return make_independent_target(
        config.grid, spec["seed"], constant=spec.get("constant", False)
    )


def build_heads(config: RunConfig, model: TargetModel) -> DraftHeadSet:
    spec = config.heads_spec
    engine = config.engine
    if spec["kind"] == "tabular":
        return fit_tabular_draft_heads(
            model,
            engine.horizontal_depth,
            engine.vertical_depth,
            spec["sample_count"],
            spec["seed"],
            float(spec.get("smoothing", 0.5)),
        )
    if spec["kind"] == "exact":
        return make_exact_heads(model, engine.horizontal_depth, engine.vertical_depth)
    heads = load_head_set(spec["path"])
    # The engine makes the same check; making it here too lets verify and
    # bench refuse the file before their vanilla decodes.
    heads.check_grid(config.grid)
    return heads


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(config: RunConfig, outputs: list[Path]) -> Path:
    manifest = {
        "artifact_version": __version__,
        "master_seed": config.seed,
        "config": config.echo,
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    path = config.output_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _mode_variants(engine: EngineConfig) -> dict[str, EngineConfig]:
    """Equal-budget engine configs for the four-mode comparison.

    The hawk row uses the config as given. The medusa/lantern rows drop the
    vertical heads and widen the horizontal candidate count so every
    speculative mode draws the same number of candidates per interior pool.
    """
    if engine.vertical_depth < 1:
        raise ValueError("mode comparison requires engine.vertical_depth >= 1")
    medusa_width = (
        engine.samples_per_horizontal + engine.samples_per_vertical * engine.vertical_depth
    )
    hawk = dataclasses.replace(engine, mode="hawk")
    medusa = dataclasses.replace(
        engine, mode="medusa", vertical_depth=0, samples_per_horizontal=medusa_width
    )
    lantern = dataclasses.replace(medusa, mode="lantern")
    vanilla = dataclasses.replace(engine, mode="vanilla", vertical_depth=0)
    return {"vanilla": vanilla, "medusa": medusa, "hawk": hawk, "lantern": lantern}


def cmd_decode(config: RunConfig) -> int:
    model = build_model(config)
    heads = None if config.engine.mode == MODE_VANILLA else build_heads(config, model)
    trace: list = []
    tokens, result = decode_image(model, heads, config.engine, config.seed, trace=trace)

    out = config.output_dir
    outputs = []
    pgm = out / "grid.pgm"
    export_grid_image(tokens, config.grid, pgm)
    outputs.append(pgm)
    trace_path = out / "trace.csv"
    write_csv(trace_path, TRACE_COLUMNS, trace)
    outputs.append(trace_path)
    metrics_path = out / "metrics.csv"
    write_metrics_csv(metrics_path, [result])
    outputs.append(metrics_path)
    if result.mode == MODE_HAWK:
        kl_path = out / "kl_trace.csv"
        write_csv(kl_path, ("position", "kl_vert_horiz"), kl_trace(heads, config.engine, tokens))
        outputs.append(kl_path)
    _write_manifest(config, outputs)

    print(f"mode={result.mode} accept_length={result.accept_length:.3f} "
          f"modeled_speedup={result.modeled_speedup:.3f}")
    print(f"wall_clock_ms={result.wall_clock_ms:.1f}")
    return 0


def cmd_verify(config: RunConfig) -> int:
    model = build_model(config)
    heads = build_heads(config, model)
    exact = enumerate_joint(model, config.grid, config.engine.transform)
    variants = _mode_variants(config.engine)
    n = config.oracle_decode_count

    results = {}
    for mode, engine in variants.items():
        mode_heads = None if mode == "vanilla" else heads
        batch = decode_batch(model, mode_heads, engine, derive_seed(config.seed, "verify", mode), n)
        empirical = empirical_joint_from_counts(batch.grid_counts, config.grid)
        results[mode] = (joint_tv(exact, empirical), batch.accept_length)

    tolerance = config.tolerance_factor * results["vanilla"][0]
    rows = []
    failed = False
    for mode in ("vanilla", "medusa", "hawk", "lantern"):
        tv, accept_length = results[mode]
        if mode == "lantern":
            status = "expected_fail" if tv > tolerance else "unexpected_pass"
        elif tv <= tolerance:
            status = "PASS"
        else:
            status = "FAIL"
            failed = True
        rows.append((mode, n, tv, tolerance, accept_length, status))
        print(f"mode={mode} decodes={n} tv={tv:.6f} tolerance={tolerance:.6f} "
              f"accept_length={accept_length:.3f} {status}")

    report_path = config.output_dir / "verify_report.csv"
    write_csv(report_path, VERIFY_COLUMNS, rows)
    _write_manifest(config, [report_path])
    return 3 if failed else 0


def cmd_bench(config: RunConfig) -> int:
    require_two_rows(config.grid)
    model = build_model(config)
    heads = build_heads(config, model)
    variants = _mode_variants(config.engine)
    out = config.output_dir
    outputs = []

    results = []
    for mode, engine in variants.items():
        mode_heads = None if mode == "vanilla" else heads
        batch = decode_batch(
            model, mode_heads, engine, derive_seed(config.seed, "bench", mode),
            config.bench_images,
        )
        results.append(batch)
        print(f"mode={mode} accept_length={batch.accept_length:.3f} "
              f"modeled_speedup={batch.modeled_speedup:.3f} "
              f"wall_clock_ms={batch.wall_clock_ms:.1f}")

    metrics_path = out / "metrics.csv"
    write_metrics_csv(metrics_path, results)
    outputs.append(metrics_path)

    curves = rejection_curve(
        model,
        heads,
        variants["hawk"],
        config.rejection_positions,
        config.rejection_m_max,
        derive_seed(config.seed, "bench", "rejection"),
    )
    dual_path = out / "rejection_curve_dual.csv"
    write_csv(dual_path, ("candidates", "mean_rejection_mass"), curves.dual)
    outputs.append(dual_path)
    horiz_path = out / "rejection_curve_horizontal.csv"
    write_csv(horiz_path, ("candidates", "mean_rejection_mass"), curves.horizontal_only)
    outputs.append(horiz_path)

    hawk = variants["hawk"]
    hawk_tokens, _ = decode_image(model, heads, hawk, derive_seed(config.seed, "bench", "kl"))
    kl_path = out / "kl_trace.csv"
    write_csv(kl_path, ("position", "kl_vert_horiz"), kl_trace(heads, hawk, hawk_tokens))
    outputs.append(kl_path)

    _write_manifest(config, outputs)
    return 0


def cmd_fit(config: RunConfig) -> int:
    if config.heads_spec["kind"] != "tabular":
        raise ValueError("fit requires heads.kind == 'tabular'")
    model = build_model(config)
    started = time.perf_counter()
    heads = build_heads(config, model)
    fit_s = time.perf_counter() - started
    out = config.output_dir
    heads_path = out / "heads.json"
    save_head_set(heads, heads_path)

    started = time.perf_counter()
    holdout = held_out_nll(
        model, heads, max(1, config.heads_spec["sample_count"] // 4),
        derive_seed(config.seed, "fit", "holdout"),
    )
    holdout_s = time.perf_counter() - started
    rows = []
    for (direction, depth), nll in sorted(holdout.items()):
        offset = getattr(heads, direction)[depth - 1].offset
        rows.append((direction, depth, offset, nll))
        print(f"head={direction} depth={depth} offset={offset} held_out_nll={nll:.4f}")
    # Wall times go to stdout only, so fit_report.csv stays byte-identical.
    print(f"fit_s={fit_s:.3f} holdout_s={holdout_s:.3f}")
    report_path = out / "fit_report.csv"
    write_csv(report_path, FIT_COLUMNS, rows)
    _write_manifest(config, [heads_path, report_path])
    return 0


_COMMANDS = {
    "decode": cmd_decode,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "fit": cmd_fit,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hawk",
        description="Spatial speculative decoding over raster-order token grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_text = {
        "decode": "decode one grid; write image, trace, and metrics",
        "verify": "compare decoded joints against the enumeration oracle",
        "bench": "accept-length and speedup metrics across modes",
        "fit": "fit tabular draft heads and report held-out NLL",
    }
    for name, text in help_text.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        config = load_run_config(args.config, seed_override=args.seed, out_override=args.out)
        config.output_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
