"""Operator surface: config files, subcommands, deterministic run manifests.

Subcommands: decode (one grid to image + trace + metrics), verify (the
distribution-preservation report against the enumeration oracle), bench
(metrics CSV across modes plus the per-depth acceptance table of the exact
speculative modes), fit (train and save tabular draft heads). Every output
file is written here, and the two reports of a traced batch are reductions
of the engine's walk records (:class:`~hawk.engine.LayerRecord`): each
command computes only the one it writes.

Configs are strict JSON: a schema_version field, fixed sections, and
unknown keys are errors so typos in experiment files cannot pass silently.
Each field is read once, by ``hawk.core.json_field``, into the values the
builders pass on. Numbers are range-checked as the config is read, so a bad
one is refused under its config name before anything is built, whether or
not the command would build it.
All randomness flows from the config's single master seed; subcommands
derive purpose-tagged child streams from it. A command computes all its
outputs first and hands them to ``_write_manifest``, the one writer of a
run: it creates the output directory and writes the files, then a manifest
echoing the effective config and the SHA-256 digest of each output, so a
refused run leaves nothing behind. Rerunning with an identical manifest
reproduces the outputs byte for byte (wall-clock timings are printed, never
written to CSV).

Exit codes: 0 success, 1 validation error (malformed arguments included),
2 runtime error, 3 verification criteria failed.
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
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .core import GRID_MINIMUMS, GridSpec, SamplingConfig, json_field
from .engine import (
    MODE_HAWK,
    MODE_MEDUSA,
    MODE_VANILLA,
    ENGINE_MINIMUMS,
    BatchResult,
    DecodingContext,
    EngineConfig,
    LayerRecord,
    decode_batch,
    decode_image,
    tree_nodes,
)
from .models import (
    DraftHeadSet,
    TargetModel,
    fit_tabular_draft_heads,
    held_out_nll,
    make_grid_markov_target,
    save_head_set,
)
from .oracle_metrics import empirical_joint_from_counts, enumerate_joint, joint_tv
from .rng import check_seed, derive_seed
from .verifier import chain_alphas

SCHEMA_VERSION = 1

METRICS_COLUMNS = ("mode", "rounds", "committed", "accept_length", "depth_accept_rates")
VERIFY_COLUMNS = ("mode", "decodes", "tv", "tolerance", "accept_length", "status")
FIT_COLUMNS = ("direction", "depth", "offset", "held_out_nll")
TRACE_COLUMNS = ("round", "frontier_index", "depth", "source", "alpha", "accepted",
                 "committed_this_round")
ACCEPTANCE_COLUMNS = ("mode", "region", "depth", "reached", "accepted", "first_alpha",
                      "layer_acceptance", "bound", "kept_width", "pool_length")

# The keys of a config's top level, and the fields each section reads, as
# (JSON kind, default[, minimum]); a field without a default is required, and
# a key no field names is an error. The grid and engine numbers take their
# minimums, and the engine numbers their defaults, from the classes that
# enforce them.
CONFIG_KEYS = {"schema_version", "seed", "output_dir", "grid", "model", "heads", "engine",
               "oracle", "bench"}
GRID_FIELDS = {name: (int, None, minimum) for name, minimum in GRID_MINIMUMS.items()}
ENGINE_FIELDS = {
    "mode": (str, None),
    "temperature": (float, 1.0),
    **{name: (kind, getattr(EngineConfig, name), minimum)
       for name, (kind, minimum) in ENGINE_MINIMUMS.items()},
}
ENGINE_KEYS = {"top_k", *ENGINE_FIELDS}  # top_k is "all" or an integer
ORACLE_FIELDS = {"decode_count": (int, 20000, 1), "tolerance_factor": (float, 3.0)}
BENCH_FIELDS = {"images": (int, 4, 1)}
# The same for each model and heads kind.
MODEL_FIELDS = {"grid_markov": {"seed": (int, None), "vertical_weight": (float, None, 0)}}
HEADS_FIELDS = {
    "tabular": {"sample_count": (int, None, 1), "seed": (int, None),
                "smoothing": (float, 0.5, 0)},
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
    reads, each read once, after rejecting unknown keys."""
    section = json_field(raw, key, "config", dict)
    _check_keys(section, {"kind"}.union(*fields.values()), key)
    kind = json_field(section, "kind", key, str)
    if kind not in fields:
        raise ValueError(f"unknown {key}.kind {kind!r}")
    read = {name: json_field(section, name, key, *spec) for name, spec in fields[kind].items()}
    return {"kind": kind, **read}


def _parse_engine(raw: dict) -> EngineConfig:
    section = json_field(raw, "engine", "config", dict)
    _check_keys(section, ENGINE_KEYS, "engine")
    read = {key: json_field(section, key, "engine", *spec) for key, spec in ENGINE_FIELDS.items()}
    temperature = read.pop("temperature")
    if temperature <= 0:
        raise ValueError(f"field 'engine.temperature' must be > 0, got {temperature}")
    top_k = section.get("top_k", "all")
    transform = SamplingConfig(
        top_k=top_k if top_k == "all" else json_field(section, "top_k", "engine", int, None, 1),
        temperature=temperature,
    )
    return EngineConfig(transform=transform, **read)


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
    _check_keys(raw, CONFIG_KEYS, "config")
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
    if model_spec["vertical_weight"] > 1:
        raise ValueError(
            f"field 'model.vertical_weight' must be <= 1, got {model_spec['vertical_weight']}"
        )
    bench = _section(raw, "bench", BENCH_FIELDS, {})

    seed = check_seed(json_field(raw, "seed", "config", int), "config.seed")
    for key, spec in (("model", model_spec), ("heads", heads_spec)):
        if "seed" in spec:
            check_seed(spec["seed"], f"{key}.seed")
    if seed_override is not None:
        seed = check_seed(seed_override, "--seed")
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
        echo=echo,
    )


def build_model(config: RunConfig) -> TargetModel:
    spec = config.model_spec
    return make_grid_markov_target(config.grid, spec["seed"], spec["vertical_weight"])


def build_heads(config: RunConfig, model: TargetModel) -> DraftHeadSet:
    spec = config.heads_spec
    engine = config.engine
    return fit_tabular_draft_heads(
        model,
        engine.horizontal_depth,
        engine.vertical_depth,
        spec["sample_count"],
        spec["seed"],
        spec["smoothing"],
    )


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(path: Path, columns: Sequence[str], rows: Iterable[tuple]) -> None:
    """Header line plus one line per row; floats as repr, so the file is
    byte-stable across runs and platforms, and bools as true/false."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_metrics_csv(path: Path, results: Sequence[BatchResult]) -> None:
    """One ``METRICS_COLUMNS`` row per batch result; its depth acceptance
    rates are one cell of ``depth:rate`` pairs joined by ``|``."""
    write_csv(path, METRICS_COLUMNS, (
        (r.mode, r.rounds, r.committed, r.accept_length,
         "|".join(f"{d}:{rate!r}" for d, rate in r.depth_accept_rates.items()))
        for r in results))


def export_grid_image(tokens: np.ndarray | Sequence[int], grid: GridSpec, path: str | Path) -> None:
    """Write the token grid as a binary 8-bit portable graymap.

    Token values map linearly onto 0..255, so token 0 is black and the top
    of the vocabulary is white.
    """
    flat = np.asarray(tokens, dtype=np.int64).reshape(-1)
    if flat.size != grid.size:
        raise ValueError(f"expected {grid.size} tokens, got {flat.size}")
    if flat.min() < 0 or flat.max() >= grid.vocab_size:
        raise ValueError("token values outside vocabulary range")
    levels = np.rint(flat * (255.0 / (grid.vocab_size - 1))).astype(np.uint8)
    header = f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + levels.tobytes())


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


def _mode_variants(engine: EngineConfig) -> dict[str, EngineConfig]:
    """Equal-budget engine configs for the four-mode comparison.

    The hawk row uses the config as given. The medusa/lantern rows drop the
    vertical heads and widen the horizontal candidate count so every
    speculative mode draws the same number of candidates per interior pool.
    """
    if engine.vertical_depth < 1:
        raise ValueError("mode comparison requires engine.vertical_depth >= 1")
    hawk = dataclasses.replace(engine, mode="hawk")
    pool = engine.samples_per_horizontal + engine.samples_per_vertical * engine.vertical_depth
    medusa = dataclasses.replace(engine, mode="medusa", vertical_depth=0,
                                 samples_per_horizontal=pool)
    lantern = dataclasses.replace(medusa, mode="lantern")
    vanilla = dataclasses.replace(engine, mode="vanilla", vertical_depth=0)
    return {"vanilla": vanilla, "medusa": medusa, "hawk": hawk, "lantern": lantern}


def _tree_fields(model: TargetModel, heads: Optional[DraftHeadSet], engine: EngineConfig,
                 result: BatchResult) -> str:
    """The widest round's tree shape and nodes among the plans a decoding context
    on these inputs runs, and the rounds the budget cut, for stdout."""
    if engine.mode == MODE_VANILLA:
        return ""
    plans = DecodingContext(model, heads, engine, 0).plans
    widths = max((plan.widths for plan in plans), key=tree_nodes)
    return (f" tree={'x'.join(map(str, widths))} nodes={tree_nodes(widths)}"
            f" truncated_rounds={result.truncated_rounds}")


def _trace_rows(trace: list[LayerRecord]) -> list[tuple]:
    """The ``TRACE_COLUMNS`` rows of a traced decode: one per verification step
    its walks took, through the accepted candidate or the whole layer, each
    with its alpha from :func:`~hawk.verifier.chain_alphas`."""
    rows = []
    for r in trace:  # a walk stops at its accepted candidate
        steps = r.drafts if r.accepted is None else r.drafts[: r.accepted + 1]
        rows += [(r.round, r.frontier, r.depth, r.sources[i], alpha, i == r.accepted, r.committed)
                 for i, alpha in enumerate(chain_alphas(r.target, steps))]
    return rows


def cmd_decode(config: RunConfig) -> int:
    model = build_model(config)
    heads = None if config.engine.mode == MODE_VANILLA else build_heads(config, model)
    trace: list[LayerRecord] = []
    tokens, result = decode_image(model, heads, config.engine, config.seed, trace=trace)
    rows = _trace_rows(trace)

    outputs = {
        "grid.pgm": lambda path: export_grid_image(tokens, config.grid, path),
        "trace.csv": lambda path: write_csv(path, TRACE_COLUMNS, rows),
        "metrics.csv": lambda path: write_metrics_csv(path, [result]),
    }
    _write_manifest(config, outputs)

    print(f"mode={result.mode} accept_length={result.accept_length:.3f}"
          f"{_tree_fields(model, heads, config.engine, result)}")
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
    for mode, (tv, accept_length) in results.items():
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


def _layer_terms(record: LayerRecord) -> tuple[bool, float, float, float, int, int]:
    """A walked layer's acceptance terms: whether it accepted, the first kept
    draft's alpha, the layer acceptance 1 - prod(1 - alpha_i) over the kept
    drafts' :func:`~hawk.verifier.chain_alphas` (the walk's chance to accept),
    the multi-draft bound sum_x min(p(x), 1 - prod_i(1 - q_i(x))) of the kept
    drafts q_i on the target p, the kept width and the pool's length."""
    alphas = chain_alphas(record.target, record.drafts)
    missed = 1.0 - record.drafts[0].probs  # prod_i (1 - q_i(x)): no draft proposes x
    for q in record.drafts[1:]:
        missed *= 1.0 - q.probs
    return (record.accepted is not None, alphas[0],
            1.0 - math.prod(1.0 - alpha for alpha in alphas),
            float(np.add.reduce(np.minimum(record.target.probs, 1.0 - missed))),
            len(record.drafts), record.pool)


def _acceptance_rows(traces: dict[str, list[LayerRecord]], grid: GridSpec,
                     horizontal_depth: int) -> list[tuple]:
    """The ``ACCEPTANCE_COLUMNS`` rows of traced batches: per mode, region and
    depth, the rounds that reached the depth and accepted there, and the means
    of the other :func:`_layer_terms` of their records. A round's region is
    ``end`` if its plan has fewer than H layers, else ``row0`` if its
    frontier is in the first row, else ``interior``."""
    rows = []
    for mode, trace in traces.items():
        sums: dict[tuple[str, int], list] = {}
        for record in trace:
            frontier = record.frontier
            region = ("end" if grid.size - frontier < horizontal_depth
                      else "row0" if frontier < grid.width else "interior")
            total = sums.setdefault((region, record.depth), [0] * (len(ACCEPTANCE_COLUMNS) - 3))
            for i, term in enumerate((1, *_layer_terms(record))):
                total[i] += term
        for region in ("row0", "interior", "end"):
            for depth in sorted(d for r, d in sums if r == region):
                reached, accepted, *totals = sums[region, depth]
                rows.append((mode, region, depth, reached, accepted,
                             *(total / reached for total in totals)))
    return rows


def cmd_bench(config: RunConfig) -> int:
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
              f"wall_clock_ms={batch.wall_clock_ms:.1f}{_tree_fields(model, heads, engine, batch)}")

    # Each exact speculative mode's timed batch again, traced: tracing draws
    # nothing, so acceptance.csv explains the grids metrics.csv reports.
    traces: dict[str, list[LayerRecord]] = {MODE_MEDUSA: [], MODE_HAWK: []}
    for mode, trace in traces.items():
        decode_batch(model, heads, variants[mode], derive_seed(config.seed, "bench", mode),
                     config.bench_images, trace=trace)
    rows = _acceptance_rows(traces, config.grid, config.engine.horizontal_depth)

    _write_manifest(config, {
        "metrics.csv": lambda path: write_metrics_csv(path, results),
        "acceptance.csv": lambda path: write_csv(path, ACCEPTANCE_COLUMNS, rows),
    })
    return 0


def cmd_fit(config: RunConfig) -> int:
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
    "decode": (cmd_decode, "decode one grid; write image, trace, and metrics"),
    "verify": (cmd_verify, "compare decoded joints against the enumeration oracle"),
    "bench": (cmd_bench, "accept-length and speedup metrics across modes"),
    "fit": (cmd_fit, "fit tabular draft heads and report held-out NLL"),
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hawk",
        description="Spatial speculative decoding over raster-order token grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0

    try:
        config = load_run_config(args.config, seed_override=args.seed, out_override=args.out)
        return _COMMANDS[args.command][0](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
