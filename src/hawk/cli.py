"""Operator surface: config files, subcommands, deterministic run manifests.

Subcommands: decode (one grid to image + trace + metrics), verify (the
distribution-preservation report against the enumeration oracle), bench
(metrics CSV across modes plus rejection/KL curves), fit (train and save
tabular draft heads).

Configs are strict JSON: a schema_version field, fixed sections, and unknown
keys are errors so typos in experiment files cannot pass silently. Each
field is read once, by ``hawk.core.json_field`` (the reader heads files use
too), into the values the builders pass on. All randomness flows from the
config's single master seed; subcommands derive purpose-tagged child
streams from it. A command computes all its outputs first and hands them
to ``_write_manifest``, the one writer of a run: it creates the output
directory and writes the files, then a manifest echoing the effective
config and the SHA-256 digest of each output, so a refused run leaves
nothing behind. Rerunning with an identical manifest reproduces the outputs
byte for byte (wall-clock timings are printed, never written to CSV).

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 verification
criteria failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from . import __version__
from .core import GRID_MINIMUMS, GridSpec, SamplingConfig, json_field
from .engine import (
    MODE_HAWK,
    MODE_VANILLA,
    ENGINE_MINIMUMS,
    BatchResult,
    EngineConfig,
    TRACE_COLUMNS,
    decode_batch,
    decode_image,
    export_grid_image,
    tree_nodes,
    tree_widths,
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
KL_COLUMNS = ("position", "kl_vert_horiz")
CURVE_COLUMNS = ("candidates", "mean_rejection_mass")

# The fields each section reads, as (JSON kind, default[, minimum]); a field
# without a default is required, and a key no field names is an error. The
# grid and engine numbers take their minimums, and the engine numbers their
# defaults, from the classes that enforce them.
GRID_FIELDS = {name: (int, None, minimum) for name, minimum in GRID_MINIMUMS.items()}
ENGINE_FIELDS = {
    "mode": (str, None),
    "temperature": (float, 1.0),
    **{
        "lantern_lambda" if name == "lantern_lam" else name:
            (kind, getattr(EngineConfig, name), minimum)
        for name, (kind, minimum) in ENGINE_MINIMUMS.items()
    },
}
ENGINE_KEYS = {"top_k", *ENGINE_FIELDS}  # top_k is "all" or an integer
ORACLE_FIELDS = {"decode_count": (int, 20000, 1), "tolerance_factor": (float, 3.0)}
BENCH_FIELDS = {
    "images": (int, 4, 1), "rejection_positions": (int, 2000, 1), "rejection_m_max": (int, 4, 1),
}
# The same for each model and heads kind; a field of another kind is an error.
MODEL_FIELDS = {
    "grid_markov": {"seed": (int, None), "vertical_weight": (float, None)},
    "independent": {"seed": (int, None), "constant": (bool, False)},
}
HEADS_FIELDS = {
    "tabular": {"sample_count": (int, None), "seed": (int, None), "smoothing": (float, 0.5)},
    "exact": {},
    "file": {"path": (str, None)},
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


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ValueError(f"unknown config key '{where}.{unknown[0]}'")


def _section(raw: dict, key: str, fields: dict, default: Optional[dict] = None) -> dict:
    """Config section ``key``, each of its ``fields`` read once."""
    section = json_field(raw, key, "config", dict, default)
    _check_keys(section, set(fields), key)
    return {name: json_field(section, name, key, *spec) for name, spec in fields.items()}


def _kind(raw: dict, key: str, fields: dict[str, dict]) -> dict:
    """Kinded config section ``key``: its ``kind`` and the fields that kind
    reads, each read once, after rejecting unknown keys and keys of other kinds."""
    section = json_field(raw, key, "config", dict)
    _check_keys(section, {"kind"}.union(*fields.values()), key)
    kind = json_field(section, "kind", key, str)
    if kind not in fields:
        raise ValueError(f"unknown {key}.kind {kind!r}")
    extra = sorted(set(section) - {"kind"} - set(fields[kind]))
    if extra:
        raise ValueError(f"field '{key}.{extra[0]}' does not apply to {key}.kind {kind!r}")
    read = {name: json_field(section, name, key, *spec) for name, spec in fields[kind].items()}
    return {"kind": kind, **read}


def _parse_engine(raw: dict) -> EngineConfig:
    section = json_field(raw, "engine", "config", dict)
    _check_keys(section, ENGINE_KEYS, "engine")
    read = {key: json_field(section, key, "engine", *spec) for key, spec in ENGINE_FIELDS.items()}
    top_k = section.get("top_k", "all")
    transform = SamplingConfig(
        top_k=top_k if top_k == "all" else json_field(section, "top_k", "engine", int),
        temperature=read.pop("temperature"),
    )
    return EngineConfig(transform=transform, lantern_lam=read.pop("lantern_lambda"), **read)


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
    version = json_field(raw, "schema_version", "config", int)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema_version {version!r}")

    grid = GridSpec(**_section(raw, "grid", GRID_FIELDS))
    model_spec = _kind(raw, "model", MODEL_FIELDS)
    heads_spec = _kind(raw, "heads", HEADS_FIELDS)
    engine = _parse_engine(raw)
    oracle = _section(raw, "oracle", ORACLE_FIELDS, {})
    if oracle["tolerance_factor"] <= 0:
        raise ValueError(
            f"field 'oracle.tolerance_factor' must be > 0, got {oracle['tolerance_factor']}"
        )
    bench = _section(raw, "bench", BENCH_FIELDS, {})

    seed = json_field(raw, "seed", "config", int)
    if seed_override is not None:
        seed = seed_override
    output_dir = json_field(raw, "output_dir", "config", str, out_override)

    echo = {k: v for k, v in raw.items() if k != "output_dir"}
    echo["seed"] = seed

    return RunConfig(
        seed=seed,
        output_dir=Path(output_dir if out_override is None else out_override),
        grid=grid,
        model_spec=model_spec,
        heads_spec=heads_spec,
        engine=engine,
        oracle_decode_count=oracle["decode_count"],
        tolerance_factor=oracle["tolerance_factor"],
        bench_images=bench["images"],
        rejection_positions=bench["rejection_positions"],
        rejection_m_max=bench["rejection_m_max"],
        echo=echo,
    )


def build_model(config: RunConfig) -> TargetModel:
    spec = config.model_spec
    if spec["kind"] == "grid_markov":
        return make_grid_markov_target(config.grid, spec["seed"], spec["vertical_weight"])
    return make_independent_target(config.grid, spec["seed"], constant=spec["constant"])


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
            spec["smoothing"],
        )
    if spec["kind"] == "exact":
        return make_exact_heads(model, engine.horizontal_depth, engine.vertical_depth)
    heads = load_head_set(spec["path"])
    # The engine makes the same check; making it here too lets verify and
    # bench refuse the file before their vanilla decodes.
    heads.check_grid(config.grid)
    return heads


def _write_manifest(config: RunConfig, outputs: dict[str, Callable[[Path], None]]) -> None:
    """Write a run: create the output directory, write each named output with
    its writer, then the manifest of their digests."""
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, write in outputs.items():
        write(out / name)
        digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    manifest = {
        "artifact_version": __version__,
        "master_seed": config.seed,
        "config": config.echo,
        "outputs": digests,
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _pool_width(engine: EngineConfig) -> int:
    """Candidates in an interior pool: the horizontal ones plus those of each vertical depth."""
    return engine.samples_per_horizontal + engine.samples_per_vertical * engine.vertical_depth


def _mode_variants(engine: EngineConfig) -> dict[str, EngineConfig]:
    """Equal-budget engine configs for the four-mode comparison.

    The hawk row uses the config as given. The medusa/lantern rows drop the
    vertical heads and widen the horizontal candidate count so every
    speculative mode draws the same number of candidates per interior pool.
    """
    if engine.vertical_depth < 1:
        raise ValueError("mode comparison requires engine.vertical_depth >= 1")
    hawk = dataclasses.replace(engine, mode="hawk")
    medusa = dataclasses.replace(
        engine, mode="medusa", vertical_depth=0, samples_per_horizontal=_pool_width(engine)
    )
    lantern = dataclasses.replace(medusa, mode="lantern")
    vanilla = dataclasses.replace(engine, mode="vanilla", vertical_depth=0)
    return {"vanilla": vanilla, "medusa": medusa, "hawk": hawk, "lantern": lantern}


def _tree_fields(engine: EngineConfig, result: BatchResult) -> str:
    """The interior tree's shape and nodes, and the rounds the budget cut, for stdout."""
    if engine.mode == MODE_VANILLA:
        return ""
    widths = tree_widths((_pool_width(engine),) * engine.horizontal_depth, engine.node_budget)
    return (f" tree={'x'.join(map(str, widths))} nodes={tree_nodes(widths)}"
            f" truncated_rounds={result.truncated_rounds}")


def cmd_decode(config: RunConfig) -> int:
    model = build_model(config)
    heads = None if config.engine.mode == MODE_VANILLA else build_heads(config, model)
    trace: list = []
    tokens, result = decode_image(model, heads, config.engine, config.seed, trace=trace)

    outputs = {
        "grid.pgm": lambda path: export_grid_image(tokens, config.grid, path),
        "trace.csv": lambda path: write_csv(path, TRACE_COLUMNS, trace),
        "metrics.csv": lambda path: write_metrics_csv(path, [result]),
    }
    if result.mode == MODE_HAWK and config.engine.samples_per_vertical:
        kl = kl_trace(heads, config.engine, tokens)
        outputs["kl_trace.csv"] = lambda path: write_csv(path, KL_COLUMNS, kl)
    _write_manifest(config, outputs)

    print(f"mode={result.mode} accept_length={result.accept_length:.3f}"
          f"{_tree_fields(config.engine, result)}")
    print(f"wall_clock_ms={result.wall_clock_ms:.1f}")
    return 0


def cmd_verify(config: RunConfig) -> int:
    variants = _mode_variants(config.engine)
    model = build_model(config)
    exact = enumerate_joint(model, config.grid, config.engine.transform)
    heads = build_heads(config, model)
    n = config.oracle_decode_count

    results = {}
    for mode, engine in variants.items():
        batch = decode_batch(model, heads, engine, derive_seed(config.seed, "verify", mode), n)
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

    _write_manifest(
        config, {"verify_report.csv": lambda path: write_csv(path, VERIFY_COLUMNS, rows)}
    )
    return 3 if failed else 0


def cmd_bench(config: RunConfig) -> int:
    require_two_rows(config.grid)
    if config.engine.samples_per_vertical < 1:
        raise ValueError("the dual rejection curve requires engine.samples_per_vertical >= 1")
    variants = _mode_variants(config.engine)
    model = build_model(config)
    heads = build_heads(config, model)

    results = []
    for mode, engine in variants.items():
        batch = decode_batch(
            model, heads, engine, derive_seed(config.seed, "bench", mode), config.bench_images
        )
        results.append(batch)
        # The measured speedup over vanilla, whose batch is results[0].
        print(f"mode={mode} accept_length={batch.accept_length:.3f} "
              f"wall_speedup={results[0].wall_clock_ms / batch.wall_clock_ms:.3f} "
              f"wall_clock_ms={batch.wall_clock_ms:.1f}{_tree_fields(engine, batch)}")

    hawk = variants["hawk"]
    curves = rejection_curve(
        model,
        heads,
        hawk,
        config.rejection_positions,
        config.rejection_m_max,
        derive_seed(config.seed, "bench", "rejection"),
    )
    hawk_tokens, _ = decode_image(model, heads, hawk, derive_seed(config.seed, "bench", "kl"))
    kl = kl_trace(heads, hawk, hawk_tokens)

    _write_manifest(config, {
        "metrics.csv": lambda path: write_metrics_csv(path, results),
        "rejection_curve_dual.csv": lambda path: write_csv(path, CURVE_COLUMNS, curves.dual),
        "rejection_curve_horizontal.csv":
            lambda path: write_csv(path, CURVE_COLUMNS, curves.horizontal_only),
        "kl_trace.csv": lambda path: write_csv(path, KL_COLUMNS, kl),
    })
    return 0


def cmd_fit(config: RunConfig) -> int:
    if config.heads_spec["kind"] != "tabular":
        raise ValueError("fit requires heads.kind == 'tabular'")
    model = build_model(config)
    started = time.perf_counter()
    heads = build_heads(config, model)
    fit_s = time.perf_counter() - started

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
    _write_manifest(config, {
        "heads.json": lambda path: save_head_set(heads, path),
        "fit_report.csv": lambda path: write_csv(path, FIT_COLUMNS, rows),
    })
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
        return _COMMANDS[args.command](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
