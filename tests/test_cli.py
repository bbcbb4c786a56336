"""Config parsing, subcommand behavior, manifests, and exit codes."""

import dataclasses
import hashlib
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hawk.cli
from hawk.cli import (
    METRICS_COLUMNS, TRACE_COLUMNS, build_heads, build_model, load_run_config, main,
)
from hawk.core import GridSpec, SamplingConfig
from hawk.engine import DecodingContext, EngineConfig, decode_batch
from hawk.models import fit_tabular_draft_heads, load_head_set, make_grid_markov_target
from hawk.rng import derive_seed

ROOT = Path(__file__).resolve().parent.parent

GRID_MARKOV = {"kind": "grid_markov", "seed": 1009, "vertical_weight": 0.9}
TABULAR = {"kind": "tabular", "sample_count": 300, "seed": 2003, "smoothing": 1.0}
FILE = {"kind": "file", "path": "heads.json"}


def write_config(tmp_path, **overrides):
    config = {
        "schema_version": 1,
        "seed": 4242,
        "output_dir": str(tmp_path / "out"),
        "grid": {"width": 2, "height": 2, "vocab_size": 3},
        "model": GRID_MARKOV,
        "heads": TABULAR,
        "engine": {"mode": "hawk", "horizontal_depth": 2, "vertical_depth": 1},
        "oracle": {"decode_count": 2000, "tolerance_factor": 3.0},
        "bench": {"images": 3},
    }
    # A section override is merged into the default section, unless it names
    # a kind: then it is the whole section, since other kinds read other keys.
    for key, value in overrides.items():
        if isinstance(value, dict) and key in config and "kind" not in value:
            config[key] = {**config[key], **value}
        else:
            config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestConfigLoading:
    def test_valid_config(self, tmp_path):
        config = load_run_config(write_config(tmp_path))
        assert config.seed == 4242
        assert config.grid.vocab_size == 3
        assert config.engine.mode == "hawk"

    def test_unknown_key_is_error(self, tmp_path):
        path = write_config(tmp_path, engine={"mode": "hawk", "vertical_depth": 1, "tempo": 3})
        with pytest.raises(ValueError, match="engine.tempo"):
            load_run_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, extras={"x": 1})
        with pytest.raises(ValueError, match="config.extras"):
            load_run_config(path)

    def test_missing_field_named(self, tmp_path):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        del raw["model"]["seed"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="model.seed"):
            load_run_config(path)

    def test_schema_version_checked(self, tmp_path):
        path = write_config(tmp_path, schema_version=2)
        with pytest.raises(ValueError, match="schema_version"):
            load_run_config(path)

    def test_zero_decode_count_rejected(self, tmp_path):
        path = write_config(tmp_path, oracle={"decode_count": 0})
        with pytest.raises(ValueError, match="decode_count"):
            load_run_config(path)

    @pytest.mark.parametrize("key", ["images"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_bench_counts_below_one_rejected(self, tmp_path, capsys, monkeypatch, key, value):
        fitted = []
        monkeypatch.setattr(hawk.cli, "fit_tabular_draft_heads", lambda *args: fitted.append(args))
        path = write_config(tmp_path, bench={key: value})
        assert main(["bench", "--config", str(path)]) == 1
        assert f"field 'bench.{key}' must be >= 1, got {value}" in capsys.readouterr().err
        assert fitted == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, minimum",
        [
            ("horizontal_depth", 0, 1),
            ("vertical_depth", -1, 0),
            ("samples_per_horizontal", 0, 1),
            ("samples_per_vertical", 0, 1),
            ("node_budget", 0, 1),
            ("lantern_k", 0, 1),
            ("lantern_lambda", 0.5, 1.0),
            ("draft_overhead_ratio", -0.5, 0),
        ],
    )
    def test_engine_fields_below_minimum_rejected(
        self, tmp_path, capsys, monkeypatch, key, value, minimum
    ):
        # Refused by the reader under the config's own key, before fitting.
        fitted = []
        monkeypatch.setattr(hawk.cli, "fit_tabular_draft_heads", lambda *args: fitted.append(args))
        path = write_config(tmp_path, engine={key: value})
        assert main(["decode", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"field 'engine.{key}' must be >= {minimum}, got {value}" in err
        assert fitted == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key, value, refusal",
        [
            ("heads", "sample_count", 0, "must be >= 1"),
            ("heads", "smoothing", -1, "must be >= 0"),
            ("model", "vertical_weight", -0.5, "must be >= 0"),
            ("model", "vertical_weight", 1.5, "must be <= 1"),
            ("model", "seed", -1, "must be in [0, 2**64)"),
            ("model", "seed", 2**64, "must be in [0, 2**64)"),
            ("heads", "seed", -1, "must be in [0, 2**64)"),
            ("heads", "seed", 2**64, "must be in [0, 2**64)"),
        ],
    )
    def test_model_and_heads_numbers_out_of_range_rejected(
        self, tmp_path, capsys, section, key, value, refusal
    ):
        # Refused by the reader under the config's own key, so also by a
        # vanilla decode, which builds no heads.
        path = write_config(tmp_path, engine={"mode": "vanilla", "vertical_depth": 0},
                            **{section: {key: value}})
        assert main(["decode", "--config", str(path)]) == 1
        assert f"field '{section}.{key}' {refusal}, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path)
        config = load_run_config(path, seed_override=7, out_override=str(tmp_path / "elsewhere"))
        assert config.seed == 7
        assert config.echo["seed"] == 7
        assert config.output_dir == tmp_path / "elsewhere"

    def test_output_dir_not_echoed(self, tmp_path):
        config = load_run_config(write_config(tmp_path))
        assert "output_dir" not in config.echo

    @pytest.mark.parametrize(
        "key, value", [("verification_order", "vertical_first"), ("transform_drafts", True)]
    )
    def test_removed_engine_keys_rejected(self, tmp_path, capsys, key, value):
        # Both options are gone: their old default values are unknown keys now.
        path = write_config(tmp_path, engine={key: value})
        assert main(["decode", "--config", str(path)]) == 1
        assert f"unknown config key 'engine.{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_non_bool_transform_drafts_rejected(self, tmp_path, capsys, value):
        path = write_config(tmp_path, engine={"transform_drafts": value})
        assert main(["decode", "--config", str(path)]) == 1
        assert "unknown config key 'engine.transform_drafts'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("engine", "horizontal_depth", 2.7),
            ("engine", "vertical_depth", True),
            ("engine", "samples_per_horizontal", "2"),
            ("engine", "samples_per_vertical", 1.0),
            ("engine", "node_budget", 64.5),
            ("engine", "lantern_k", 10.0),
            ("engine", "top_k", 2.0),
            ("engine", "top_k", True),
            ("grid", "width", 2.0),
            ("grid", "height", "2"),
            ("grid", "vocab_size", 3.5),
            ("oracle", "decode_count", 2000.7),
            ("bench", "images", 3.2),
            ("model", "seed", 1009.0),
            ("heads", "sample_count", 300.5),
            ("heads", "seed", True),
        ],
    )
    def test_non_integer_fields_rejected(self, tmp_path, capsys, section, key, value):
        path = write_config(tmp_path, **{section: {key: value}})
        assert main(["decode", "--config", str(path)]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_non_integer_seed_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, seed=4242.0)
        assert main(["decode", "--config", str(path)]) == 1
        assert "config.seed" in capsys.readouterr().err

    def test_json_integers_and_bools_accepted(self, tmp_path):
        path = write_config(tmp_path, engine={"top_k": 2, "node_budget": 5})
        config = load_run_config(path)
        assert config.engine.transform.top_k == 2
        assert config.engine.node_budget == 5

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("engine", "temperature", "0.7"),
            ("engine", "temperature", float("nan")),
            ("engine", "lantern_lambda", True),
            ("engine", "draft_overhead_ratio", "0.1"),
            ("oracle", "tolerance_factor", "3"),
            ("oracle", "tolerance_factor", float("inf")),
            ("model", "vertical_weight", False),
            ("model", "vertical_weight", None),
            ("heads", "smoothing", "0.5"),
            ("engine", "temperature", 10**400),  # an integer past the float range
        ],
    )
    def test_non_number_fields_rejected(self, tmp_path, capsys, section, key, value):
        path = write_config(tmp_path, **{section: {key: value}})
        assert main(["decode", "--config", str(path)]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, heads, field",
        [
            ({**GRID_MARKOV, "constant": False}, TABULAR, "model.constant"),
            ({**GRID_MARKOV, "smoothing": 1.0}, TABULAR, "model.smoothing"),
            (GRID_MARKOV, {**FILE, "sample_count": 300}, "heads.sample_count"),
            (GRID_MARKOV, {**FILE, "seed": None}, "heads.seed"),  # present, even as null
            (GRID_MARKOV, {**FILE, "smoothing": 1.0}, "heads.smoothing"),
            (GRID_MARKOV, {**TABULAR, "path": "heads.json"}, "heads.path"),
            (GRID_MARKOV, {"kind": "file", "path": "heads.json", "seed": 2003}, "heads.seed"),
        ],
    )
    def test_fields_of_another_kind_rejected(self, tmp_path, capsys, model, heads, field):
        # grid_markov is the one model kind, so a model key it does not read
        # is unknown.
        path = write_config(tmp_path, model=model, heads=heads)
        assert main(["decode", "--config", str(path)]) == 1
        refusal = (f"unknown config key '{field}'" if field.startswith("model.")
                   else f"'{field}' does not apply")
        assert refusal in capsys.readouterr().err

    def test_no_horizontal_candidates_rejected_before_fitting(
        self, tmp_path, capsys, monkeypatch
    ):
        fitted = []
        monkeypatch.setattr(hawk.cli, "fit_tabular_draft_heads", lambda *args: fitted.append(args))
        path = write_config(tmp_path, engine={"samples_per_horizontal": 0})
        assert main(["decode", "--config", str(path)]) == 1
        assert "samples_per_horizontal" in capsys.readouterr().err
        assert fitted == []

    def test_json_numbers_accepted(self, tmp_path):
        path = write_config(
            tmp_path,
            engine={"temperature": 1, "lantern_lambda": 3, "draft_overhead_ratio": 0.25},
            oracle={"tolerance_factor": 2},
        )
        config = load_run_config(path)
        assert config.engine.transform == SamplingConfig()
        assert config.engine.lantern_lambda == 3.0
        assert config.engine.draft_overhead_ratio == 0.25
        assert config.tolerance_factor == 2.0


NAN, INF = float("nan"), float("inf")
SMALL_MODEL = make_grid_markov_target(GridSpec(2, 2, 3), 1, 0.5)

# (library call, its field name, config section and key, value)
LIBRARY_REFUSALS = [
    (lambda v: GridSpec(v, 2, 3), "width", "grid", "width", 2.0),
    (lambda v: GridSpec(2, 2, v), "vocab_size", "grid", "vocab_size", True),
    (lambda v: SamplingConfig(temperature=v), "temperature", "engine", "temperature", NAN),
    (lambda v: SamplingConfig(temperature=v), "temperature", "engine", "temperature", INF),
    (lambda v: SamplingConfig(top_k=v), "top_k", "engine", "top_k", 2.5),
    (lambda v: SamplingConfig(top_k=v), "top_k", "engine", "top_k", True),
    (lambda v: EngineConfig(mode="lantern", lantern_k=1, lantern_lambda=v), "lantern_lambda",
     "engine", "lantern_lambda", NAN),
    (lambda v: EngineConfig(mode="hawk", vertical_depth=1, node_budget=v), "node_budget",
     "engine", "node_budget", 2.5),
    (lambda v: EngineConfig(mode="hawk", vertical_depth=1, samples_per_vertical=v),
     "samples_per_vertical", "engine", "samples_per_vertical", 0),
    (lambda v: EngineConfig(mode="medusa", draft_overhead_ratio=v), "draft_overhead_ratio",
     "engine", "draft_overhead_ratio", -INF),
    (lambda v: fit_tabular_draft_heads(SMALL_MODEL, 1, 0, 10, 9, smoothing=v), "smoothing",
     "heads", "smoothing", NAN),
    (lambda v: fit_tabular_draft_heads(SMALL_MODEL, 1, 0, v, 9), "sample_count",
     "heads", "sample_count", 10.0),
    (lambda v: make_grid_markov_target(GridSpec(2, 2, 3), 1, v), "vertical_weight",
     "model", "vertical_weight", True),
    (lambda v: make_grid_markov_target(GridSpec(2, 2, 3), 1, v), "vertical_weight",
     "model", "vertical_weight", 1.5),
]


class TestLibraryRefusals:
    @pytest.mark.parametrize(
        "build, name, section, key, value", LIBRARY_REFUSALS,
        ids=[f"{case[1]}={case[4]}" for case in LIBRARY_REFUSALS],
    )
    def test_library_refuses_what_the_cli_refuses(
        self, tmp_path, capsys, build, name, section, key, value
    ):
        # The constructors read their numbers with the config reader. Let
        # through, a NaN temperature decodes every grid as zeros, a NaN
        # lantern_lambda accepts every draft, and a top_k of 2.5 or True acts
        # as 2 or 1.
        with pytest.raises(ValueError, match=f"field '{name}' must be"):
            build(value)
        path = write_config(tmp_path, **{section: {key: value}})
        assert main(["decode", "--config", str(path)]) == 1
        assert f"field '{section}.{key}' must be" in capsys.readouterr().err


class TestBuilders:
    def test_build_grid_markov(self, tmp_path):
        config = load_run_config(write_config(tmp_path))
        model = build_model(config)
        assert model.grid == config.grid

    def test_build_heads_covers_engine_depths(self, tmp_path):
        config = load_run_config(write_config(tmp_path))
        model = build_model(config)
        heads = build_heads(config, model)
        assert heads.horizontal_depth == 2
        assert heads.vertical_depth == 1



DELETE = object()


def _edit_heads(payload, path, value):
    """Set (or, for ``DELETE``, delete) the field at a dotted path such as ``vertical.0.offset``."""
    *parents, last = (int(key) if key.isdigit() else key for key in path.split("."))
    for key in parents:
        payload = payload[key]
    if value is DELETE:
        del payload[last]
    else:
        payload[last] = value


class TestHeadsFile:
    @pytest.fixture
    def heads_path(self, tmp_path):
        assert main(["fit", "--config", str(write_config(tmp_path)), "--out", str(tmp_path)]) == 0
        return tmp_path / "heads.json"

    def test_saved_heads_decode(self, tmp_path, heads_path):
        path = write_config(tmp_path, heads={"kind": "file", "path": str(heads_path)})
        assert main(["decode", "--config", str(path)]) == 0

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("width", "2", "'width' must be an integer"),
            ("vocab_size", 3.0, "'vocab_size' must be an integer"),
            ("horizontal.0.offset", 1.7, "'horizontal[0].offset' must be an integer"),
            ("vertical.0.smoothing", "1.0", "'vertical[0].smoothing' must be a number"),
            ("horizontal.1.entries.0.column", True, "'horizontal[1].entries[0].column'"),
            ("vertical.0.entries.1.context.0", 0.5, "'vertical[0].entries[1].context[0]'"),
            ("horizontal.0.entries.0.probs.0", None, "'horizontal[0].entries[0].probs[0]'"),
            ("horizontal.0.entries.0.probs.1", "0.5", "'horizontal[0].entries[0].probs[1]'"),
            ("vertical.0.entries.0.probs.2", float("nan"),
             "'vertical[0].entries[0].probs[2]' must be a number, got nan"),
            ("width", DELETE, "'width' must be an integer, got None"),
            ("vertical", DELETE, "'vertical' must be a list"),
            ("horizontal.0.entries.0.probs", DELETE, "'horizontal[0].entries[0].probs'"),
            ("horizontal.0.entries.0.probs", [0.5, 0.5], "'horizontal[0].entries[0].probs'"),
            # Signatures that no prefix of the 2-wide, vocab-3 grid has, and
            # a repeated one (entry 0 is ((), 0), entry 1 ((0, 0), 0)).
            ("horizontal.0.entries.1.context", [0, 0, 0], "'horizontal[0].entries[1]' has"),
            ("horizontal.0.entries.1.context.1", 3, "'horizontal[0].entries[1]' has"),
            ("vertical.0.entries.1.column", 2, "'vertical[0].entries[1]' has"),
            ("horizontal.1.entries.0.column", 1, "'horizontal[1].entries[0]' has"),
            ("horizontal.0.entries.0.context", [0], "'horizontal[0].entries[0]' has"),
            ("horizontal.0.entries.1.context", [], "'horizontal[0].entries[1]' repeats"),
            # Sizes no grid has.
            ("width", -2, "'width' must be >= 1, got -2"),
            ("width", 0, "'width' must be >= 1, got 0"),
            ("vocab_size", 1, "'vocab_size' must be >= 2, got 1"),
            # Numbers that are not finite, and a smoothing below 0.
            ("vertical.0.smoothing", float("nan"), "'vertical[0].smoothing' must be a number"),
            ("horizontal.1.smoothing", float("-inf"),
             "'horizontal[1].smoothing' must be a number, got -inf"),
            ("horizontal.0.smoothing", -5.0, "'horizontal[0].smoothing' must be >= 0, got -5.0"),
            ("horizontal.0.offset", 0, "'horizontal[0].offset' must be >= 1, got 0"),
        ],
    )
    def test_malformed_fields_named(self, tmp_path, capsys, heads_path, field, value, named):
        payload = json.loads(heads_path.read_text())
        _edit_heads(payload, field, value)
        heads_path.write_text(json.dumps(payload))
        path = write_config(tmp_path, heads={"kind": "file", "path": str(heads_path)})
        assert main(["decode", "--config", str(path)]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unreadable_file_is_validation_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        garbled = tmp_path / "garbled.json"
        garbled.write_text("not json")
        for heads, named in ((missing, f"cannot read head set {missing}"),
                             (garbled, f"head set {garbled} is not valid JSON: Expecting value")):
            path = write_config(tmp_path, heads={"kind": "file", "path": str(heads)})
            assert main(["decode", "--config", str(path)]) == 1
            assert named in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_vocab_size_must_match_grid(self, tmp_path, capsys, heads_path):
        path = write_config(
            tmp_path, grid={"width": 2, "height": 2, "vocab_size": 4},
            heads={"kind": "file", "path": str(heads_path)},
        )
        assert main(["decode", "--config", str(path)]) == 1
        assert "head set vocab_size does not match grid vocab_size 4" in capsys.readouterr().err

    def test_width_must_match_grid(self, tmp_path, capsys, heads_path, monkeypatch):
        path = write_config(
            tmp_path, grid={"width": 4, "height": 2, "vocab_size": 3},
            heads={"kind": "file", "path": str(heads_path)},
        )
        assert main(["decode", "--config", str(path)]) == 1
        assert "head set width 2 does not match grid width 4" in capsys.readouterr().err
        decoded = []
        monkeypatch.setattr(hawk.cli, "decode_batch", lambda *args: decoded.append(args))
        for command in ("verify", "bench"):
            assert main([command, "--config", str(path)]) == 1
            assert "head set width 2 does not match grid width 4" in capsys.readouterr().err
        assert decoded == []  # refused before the vanilla decodes


def _read_acceptance(out_dir):
    """The rows of a bench run's acceptance.csv, as dicts of strings."""
    lines = (out_dir / "acceptance.csv").read_text().splitlines()
    assert tuple(lines[0].split(",")) == hawk.cli.ACCEPTANCE_COLUMNS
    return [dict(zip(hawk.cli.ACCEPTANCE_COLUMNS, line.split(","))) for line in lines[1:]]


class TestDecodeCommand:
    def test_outputs_and_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["decode", "--config", str(path)]) == 0
        out_dir = tmp_path / "out"
        for name in ("grid.pgm", "trace.csv", "metrics.csv", "manifest.json"):
            assert (out_dir / name).exists()
        printed = capsys.readouterr().out
        assert "accept_length=" in printed

    def test_prints_tree_shape_and_truncated_rounds(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["decode", "--config", str(path)]) == 0
        assert "tree=2x2 nodes=6 truncated_rounds=0" in capsys.readouterr().out

    @pytest.mark.parametrize("grid, depth, shape", [
        ({"width": 3, "height": 3, "vocab_size": 3}, 4, "tree=2x2x2x1 nodes=22"),
        ({"width": 1, "height": 4, "vocab_size": 3}, 2, "tree=2x1 nodes=4"),
    ])
    def test_prints_widest_planned_tree_past_the_width(self, tmp_path, capsys, grid, depth,
                                                       shape):
        # A pool whose target is a row or more past the frontier has no
        # committed depth-1 vertical source, so it holds the horizontal
        # draft alone.
        path = write_config(tmp_path, grid=grid, engine={"horizontal_depth": depth})
        assert main(["decode", "--config", str(path)]) == 0
        assert f"{shape} truncated_rounds=0" in capsys.readouterr().out

    def test_vanilla_prints_unit_accept_length(self, tmp_path, capsys):
        path = write_config(tmp_path, engine={"mode": "vanilla", "vertical_depth": 0})
        assert main(["decode", "--config", str(path)]) == 0
        assert "accept_length=1.000" in capsys.readouterr().out

    def test_missing_output_dir_created(self, tmp_path):
        nested = tmp_path / "a" / "b" / "c"
        path = write_config(tmp_path, output_dir=str(nested))
        assert main(["decode", "--config", str(path)]) == 0
        assert (nested / "grid.pgm").exists()

    def test_rerun_reproduces_digests(self, tmp_path):
        path = write_config(tmp_path)
        before = path.read_bytes()
        main(["decode", "--config", str(path), "--out", str(tmp_path / "r1")])
        main(["decode", "--config", str(path), "--out", str(tmp_path / "r2")])
        m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
        assert m1 == m2
        for name in m1["outputs"]:
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
        assert path.read_bytes() == before  # input config never mutated

    def test_subnormal_temperature_decodes_the_cold_limit(self, tmp_path):
        # Below about 1e-308 every scaled log overflows to -inf: the decode is
        # the T -> 0 limit, which 1e-300 already reaches, not a grid of zeros.
        outputs = []
        for temperature in (1e-300, 1e-320):
            out = tmp_path / repr(temperature)
            path = write_config(tmp_path, grid={"width": 4, "height": 4, "vocab_size": 3},
                                engine={"temperature": temperature})
            assert main(["decode", "--config", str(path), "--out", str(out)]) == 0
            outputs.append(json.loads((out / "manifest.json").read_text())["outputs"])
        assert set(outputs[0]) == {"grid.pgm", "trace.csv", "metrics.csv"}
        assert outputs[0] == outputs[1]

    def test_seed_override_changes_output(self, tmp_path):
        # big enough grid that distinct seeds cannot collide by luck
        path = write_config(tmp_path, grid={"width": 8, "height": 8, "vocab_size": 4})
        main(["decode", "--config", str(path), "--out", str(tmp_path / "s1")])
        main(["decode", "--config", str(path), "--out", str(tmp_path / "s2"), "--seed", "999"])
        m1 = json.loads((tmp_path / "s1" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "s2" / "manifest.json").read_text())
        assert m1["master_seed"] != m2["master_seed"]
        assert m1["outputs"]["grid.pgm"] != m2["outputs"]["grid.pgm"]


class TestVerifyCommand:
    def test_exact_modes_pass(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["verify", "--config", str(path)])
        printed = capsys.readouterr().out
        assert code == 0
        report = (tmp_path / "out" / "verify_report.csv").read_text().splitlines()
        assert report[0] == "mode,decodes,tv,tolerance,accept_length,status"
        statuses = {line.split(",")[0]: line.split(",")[-1] for line in report[1:]}
        assert statuses["vanilla"] == "PASS"
        assert statuses["medusa"] == "PASS"
        assert statuses["hawk"] == "PASS"
        assert statuses["lantern"] in ("expected_fail", "unexpected_pass")
        assert "mode=hawk" in printed

    def test_enumeration_bound_refused(self, tmp_path, capsys, monkeypatch):
        # Enumerating draws nothing, so it runs before the heads are fitted.
        fitted = []
        monkeypatch.setattr(hawk.cli, "fit_tabular_draft_heads", lambda *a: fitted.append(a))
        path = write_config(tmp_path, grid={"width": 8, "height": 8, "vocab_size": 6})
        assert main(["verify", "--config", str(path)]) == 1
        assert "enumeration of 6**64 outcomes exceeds bound" in capsys.readouterr().err
        assert fitted == []
        assert not (tmp_path / "out").exists()


class TestBenchCommand:
    def test_outputs(self, tmp_path):
        path = write_config(
            tmp_path,
            grid={"width": 4, "height": 4, "vocab_size": 4},
            model={"kind": "grid_markov", "seed": 11, "vertical_weight": 0.9},
        )
        assert main(["bench", "--config", str(path)]) == 0
        out_dir = tmp_path / "out"
        metrics = (out_dir / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 5  # header + four modes
        modes = [line.split(",")[0] for line in metrics[1:]]
        assert modes == ["vanilla", "medusa", "hawk", "lantern"]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["acceptance.csv", "metrics.csv"]
        rows = _read_acceptance(out_dir)
        assert {row["mode"] for row in rows} == {"medusa", "hawk"}
        assert {row["region"] for row in rows} == {"row0", "interior", "end"}

    def test_one_row_grid_has_no_interior_rows(self, tmp_path):
        # Every round of a one-row grid starts in row 0, or near its end.
        path = write_config(tmp_path, grid={"width": 4, "height": 1, "vocab_size": 3})
        assert main(["bench", "--config", str(path)]) == 0
        rows = _read_acceptance(tmp_path / "out")
        assert rows and {row["region"] for row in rows} == {"row0", "end"}

    def test_prints_wall_speedup_over_vanilla(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["bench", "--config", str(path)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("mode=")]
        fields = [dict(item.split("=") for item in line.split()) for line in lines]
        assert [f["mode"] for f in fields] == ["vanilla", "medusa", "hawk", "lantern"]
        assert fields[0]["wall_speedup"] == "1.000"
        assert all(float(f["wall_speedup"]) > 0 for f in fields)

    def test_prints_tree_shape_and_truncated_rounds(self, tmp_path, capsys):
        # Pools of 2 at H=2 make a 6-node tree: within the default budget it
        # is whole, and a budget of 3 cuts it to a chain wherever two layers
        # hold two drafts. A hawk round from the first row's last column has
        # one draft at depth 1 and two at depth 2, a 3-node tree that budget
        # 3 keeps whole, so hawk prints that one. Vanilla has no tree.
        grid = {"width": 4, "height": 4, "vocab_size": 4}
        for budget, shape, hawk_shape, cut in ((64, "2x2 nodes=6", "2x2 nodes=6", False),
                                               (3, "1x1 nodes=2", "1x2 nodes=3", True)):
            path = write_config(tmp_path, grid=grid, engine={"node_budget": budget})
            assert main(["bench", "--config", str(path)]) == 0
            lines = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("mode=")]
            assert "tree=" not in lines[0] and "truncated_rounds" not in lines[0]
            for line in lines[1:]:
                assert f"tree={hawk_shape if line.startswith('mode=hawk') else shape} " in line
                assert (int(line.rsplit("truncated_rounds=", 1)[1]) > 0) == cut

    def test_deterministic_rerun(self, tmp_path):
        path = write_config(
            tmp_path,
            grid={"width": 4, "height": 4, "vocab_size": 4},
            model={"kind": "grid_markov", "seed": 11, "vertical_weight": 0.9},
        )
        main(["bench", "--config", str(path), "--out", str(tmp_path / "b1")])
        main(["bench", "--config", str(path), "--out", str(tmp_path / "b2")])
        m1 = json.loads((tmp_path / "b1" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "b2" / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]


class TestFitCommand:
    def test_fit_round_trip(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["fit", "--config", str(path)]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "fit_report.csv").exists()
        printed = capsys.readouterr().out
        assert "held_out_nll" in printed
        assert re.search(r"^fit_s=\d+\.\d{3} holdout_s=\d+\.\d{3}$", printed, re.M)

        config = load_run_config(path)
        model = build_model(config)
        expected = build_heads(config, model)
        loaded = load_head_set(out_dir / "heads.json")
        probes = [[], [1], [0, 2], [1, 1, 0, 2]]
        for direction in ("horizontal", "vertical"):
            for ha, hb in zip(getattr(expected, direction), getattr(loaded, direction)):
                for prefix in probes:
                    np.testing.assert_array_equal(
                        ha.predict(prefix, len(prefix)).probs,
                        hb.predict(prefix, len(prefix)).probs,
                    )

    def test_fit_requires_tabular(self, tmp_path, capsys):
        path = write_config(tmp_path, heads=FILE)
        assert main(["fit", "--config", str(path)]) == 1
        assert "fit requires heads.kind == 'tabular'" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_config_is_validation_error(self, tmp_path):
        assert main(["decode", "--config", str(tmp_path / "absent.json")]) == 1

    def test_invalid_json_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["decode", "--config", str(bad)]) == 1

    def test_invalid_mode_is_validation_error(self, tmp_path):
        path = write_config(tmp_path, engine={"mode": "warp", "vertical_depth": 0})
        assert main(["decode", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"grid": 5}, "field 'config.grid' must be an object, got 5"),
            ({"engine": 5}, "field 'config.engine' must be an object, got 5"),
            ({"oracle": 5}, "field 'config.oracle' must be an object, got 5"),
            ({"output_dir": 5}, "field 'config.output_dir' must be a string, got 5"),
            ({"heads": {"kind": "file", "path": 5}}, "field 'heads.path' must be a string, got 5"),
            ({"engine": {"mode": 3}}, "field 'engine.mode' must be a string, got 3"),
            ({"bench": [1]}, "field 'config.bench' must be an object, got [1]"),
            ({"model": "x"}, "field 'config.model' must be an object, got 'x'"),
            ({"model": {"kind": "independent", "seed": 5}}, "unknown model.kind 'independent'"),
            ({"heads": {"kind": "exact"}}, "unknown heads.kind 'exact'"),
            ({"seed": -1}, "field 'config.seed' must be in [0, 2**64), got -1"),
            ({"seed": 2**64}, f"field 'config.seed' must be in [0, 2**64), got {2**64}"),
        ],
        ids=["grid", "engine", "oracle", "output_dir", "heads.path", "engine.mode", "bench",
             "model", "model.kind", "heads.kind", "seed=-1", "seed=2**64"],
    )
    def test_mistyped_field_named_and_nothing_written(self, tmp_path, capsys, override, message):
        path = write_config(tmp_path, **override)
        assert main(["decode", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_override_refused_and_nothing_written(self, tmp_path, capsys, seed):
        # Seeds used to be masked to 64 bits: --seed -1 wrote the outputs of
        # --seed 18446744073709551615 under another master_seed.
        path = write_config(tmp_path)
        assert main(["decode", "--config", str(path), "--seed", str(seed)]) == 1
        assert f"field '--seed' must be in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["verify", "bench"])
    def test_mode_comparison_without_vertical_heads_refused_first(
        self, tmp_path, capsys, monkeypatch, command
    ):
        called = []
        monkeypatch.setattr(hawk.cli, "fit_tabular_draft_heads", lambda *a: called.append("fit"))
        monkeypatch.setattr(hawk.cli, "enumerate_joint", lambda *a: called.append("enumerate"))
        path = write_config(tmp_path, engine={"mode": "medusa", "vertical_depth": 0})
        assert main([command, "--config", str(path)]) == 1
        assert "mode comparison requires engine.vertical_depth >= 1" in capsys.readouterr().err
        assert called == []
        assert not (tmp_path / "out").exists()


class TestShippedConfigs:
    def test_repo_configs_parse(self):
        paths = sorted((ROOT / "configs").glob("*.json"))
        assert len(paths) >= 3
        for path in paths:
            config = load_run_config(path)
            assert config.engine.mode == "hawk"

    @pytest.mark.parametrize(
        "name", sorted(path.stem for path in (ROOT / "perfbench" / "configs").glob("*.json"))
    )
    def test_benchmark_configs_parse(self, name):
        # The benchmark loads its configs through this parser, so a stricter
        # schema must keep every one of them loading and building.
        config = load_run_config(ROOT / "perfbench" / "configs" / f"{name}.json")
        assert build_model(config).grid == config.grid
        variants = hawk.cli._mode_variants(config.engine)
        assert list(variants) == ["vanilla", "medusa", "hawk", "lantern"]

    def test_lantern_accepts_every_draft_at_shipped_k(self):
        # Every shipped config sets lantern_k 10, past the vocabulary, so each
        # neighbourhood is the whole vocabulary and min(1, lambda * sum p / q)
        # is 1: lantern accepts every draft. Below the vocabulary it need not.
        config = load_run_config(ROOT / "configs" / "verify_quick.json")
        model = build_model(config)
        heads = build_heads(config, model)
        lantern = hawk.cli._mode_variants(config.engine)["lantern"]
        assert lantern.lantern_k == 10 > config.grid.vocab_size
        for k, lam, all_accepted in [(10, 2.0, True), (1, 1.0, False)]:
            engine = dataclasses.replace(lantern, lantern_k=k, lantern_lambda=lam)
            rates = decode_batch(model, heads, engine, 17, 200).depth_accept_rates
            assert (set(rates.values()) == {1.0}) == all_accepted, (k, lam, rates)

    def test_readme_schema_matches_parser(self, tmp_path):
        # The README's schema block, its comments stripped, is a valid config
        # that names every engine key the parser reads and no other, and each
        # name its comments quote is a model or heads kind or field the
        # parser reads.
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n### Config schema", 1)[1]
        block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.json"
        path.write_text(re.sub(r"//.*", "", block))
        load_run_config(path)
        assert set(json.loads(path.read_text())["engine"]) == hawk.cli.ENGINE_KEYS
        quoted = set(re.findall(r'"(\w+)"', " ".join(re.findall(r"//.*", block))))
        kinds = {**hawk.cli.MODEL_FIELDS, **hawk.cli.HEADS_FIELDS}
        assert quoted and quoted <= set(kinds).union(*kinds.values())

    def test_readme_output_schemas_match_columns(self):
        # Each row of the README's output-schema table spells out the column
        # constant its writer uses, and the table names every CSV output.
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Output schemas", 1)[1].split("\n\n")
        table = next(block for block in section if block.startswith("| file |"))
        rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)`", table, re.MULTILINE)
        columns = {
            "metrics.csv": METRICS_COLUMNS,
            "trace.csv": TRACE_COLUMNS,
            "verify_report.csv": hawk.cli.VERIFY_COLUMNS,
            "acceptance.csv": hawk.cli.ACCEPTANCE_COLUMNS,
            "fit_report.csv": hawk.cli.FIT_COLUMNS,
        }
        assert {name: tuple(cells.split(",")) for name, cells in rows} == columns


# Per-file SHA-256s of the outputs of the shipped configs, and of one
# perfbench config. A change that claims to keep behaviour must leave every
# one of them as it is.
PINNED_OUTPUTS = {
    ("verify_quick", "decode"): {
        "grid.pgm": "58d366c32dac002a5f63bd164b3d56db925c5568d96a1ba80f85460e35b5cc61",
        "metrics.csv": "d99c1c283802d4a2d7caa1dfc2045758e63427f831a3307896335c6f844035ad",
        "trace.csv": "cffbb7529bc52a2a5490944bdc5a8c55ec150ca0fd29d4145e2cf7c11956c71a",
    },
    ("verify_quick", "bench"): {
        "acceptance.csv": "a87a73742c1b30c487df6a71ec11e0e054c742f09073463d0d3d9c789b79fd1e",
        "metrics.csv": "0f4998e9e477092c04922c4a073f5bf0fafbe357313299a1098da5ee2194893d",
    },
    ("verify_quick", "fit"): {
        "fit_report.csv": "2616b3a6137e2f1f180fc5124bddd9299781b9d4874da8e5f2dad460204ee78d",
        "heads.json": "eb91365100ec1ded34673183b13c88901bf0a6dff80b21a847b37d89bcf26615",
    },
    ("bench_16x16", "decode"): {
        "grid.pgm": "183b9a26fcb1138b0da22db6c66e7a276d5f8f7b7ab53a43f30b369ddea10bed",
        "metrics.csv": "3224fb4f8278b557593eb2841c55db851e0177a89630edb0c4fdf908064e6b2c",
        "trace.csv": "e2743b1853190c88162dd53e6978e7918316bf4900a46b4c2073796c49bccced",
    },
    ("verify_quick", "verify"): {
        "verify_report.csv": "66b552304f32775aa3f13f40370f782a463e20958fac009d8bf671a825b4da04",
    },
    ("bench_16x16", "bench"): {
        "acceptance.csv": "60d6d400e60addff9b00cc885b6e3497cb09ff4606542f9a16a62bf5d04ac520",
        "metrics.csv": "8be9e0fb6fa0dbf9abb48a1ab50f4fbf02a00d1a524cdbffbbddad93916950a8",
    },
    ("bench_16x16", "fit"): {
        "fit_report.csv": "df719d0cbb46762c37e8ece5592df66a0a6ec15e8d1d3edae33f3a051d857d8d",
        "heads.json": "f04304d4f6529064e1014a2f24d6b6981a3f6aaaf51b9dda5ef39e654aa9598b",
    },
    # The one config with a transform (top-k 4, temperature 0.8).
    ("wide_tree_16x16", "bench"): {
        "acceptance.csv": "b5ac532220e3ff671c5960140182106e8a562aefd9695204a8b152eb8b343828",
        "metrics.csv": "c24a010f6e6c43823e843a4e772fb24a9eb7e587b5ec958de195296a6da05e77",
    },
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("config, command", sorted(PINNED_OUTPUTS))
    def test_output_digests_unchanged(self, tmp_path, config, command):
        out = tmp_path / "out"
        path = ROOT / "configs" / f"{config}.json"
        if not path.exists():
            path = ROOT / "perfbench" / "configs" / f"{config}.json"
        args = [command, "--config", str(path), "--out", str(out)]
        assert main(args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == PINNED_OUTPUTS[(config, command)]


# SHA-256 of each mode's decodes on the perfbench configs, which, unlike the
# shipped ones, cover H=4, two vertical depths, repeated slots, a tree cut by
# the node budget and a transform. Recorded before the speculative round was
# restructured, and for wide_tree_16x16 again when the node budget became a
# tapered tree; a change that claims to keep every draw keeps these.
PINNED_DECODES = {
    "oracle_2x2": {
        "vanilla": "36a96e2f600e581f8d5bc82f88e3587a6aff3b533e85f328d1d2fc355d8c5b7c",
        "medusa": "7b591e1cdb200aba2b7e9b8812efa87115835bda4881cb369aceccc7b9e98fdc",
        "hawk": "1a9ccf3e6ef51afcc2cd944b202f014606079374212621dccb91a60542d5968e",
        "lantern": "c50b3c2db3fb2d0a0fcd8417cc7df6080e41db1fdd08b72f350ae434af7654b0",
    },
    "image_16x16": {
        "vanilla": "3138bd06bd32ab4c5a519258abb2022e2e024ed270f45740b54d954c137011a7",
        "medusa": "b461c106f45f9291ecbad661f09c606964a8b1c8636f59055653e191187e65a8",
        "hawk": "cc560b352027866fb027fd01833150e67f1ceca2111a1d120672ba06c290c201",
        "lantern": "948af61a891cbbb0c099580eef7eee8c2f035eb9894220f83d16a4b165067d00",
    },
    "wide_tree_16x16": {
        "vanilla": "090eaca9a71f624a0d5ce0770b13173ab151eb9b44b267629898455f7f51f1c4",
        "medusa": "a9a23c47f8676cfe80e9ff1d777b54a0bb78fad3a0b3e8d53256ba86104d645e",
        "hawk": "91a336c5123b4e33b196e4ee90ea6819118e4b72ba05bc8c0f3034ce107eae3b",
        "lantern": "7773b2476397cef611b52419419b5b54a6f2d0d7c236616ab3ab8f8cf7f73685",
    },
}

PINNED_DECODE_GRIDS = {"oracle_2x2": 100, "image_16x16": 2, "wide_tree_16x16": 2}


def _decode_digests(name: str) -> dict[str, str]:
    """Per mode: the digest of the sorted grid counts, the rounds, the depth
    attempts and accepts, and the trace rows of a few decodes."""
    config = load_run_config(ROOT / "perfbench" / "configs" / f"{name}.json")
    model = build_model(config)
    heads = build_heads(config, model)
    digests = {}
    for mode, engine in hawk.cli._mode_variants(config.engine).items():
        trace = []
        batch = decode_batch(model, heads, engine, derive_seed(config.seed, "pinned", mode),
                             PINNED_DECODE_GRIDS[name], trace=trace)
        record = (sorted(batch.grid_counts.items()), batch.rounds,
                  sorted(batch.depth_attempts.items()), sorted(batch.depth_accepts.items()),
                  hawk.cli._trace_rows(trace))
        digests[mode] = hashlib.sha256(repr(record).encode()).hexdigest()
    return digests


class TestPinnedPerfbenchDecodes:
    @pytest.mark.parametrize("name", sorted(PINNED_DECODES))
    def test_decode_digests_unchanged(self, name):
        assert _decode_digests(name) == PINNED_DECODES[name]


class TestTruncatedRounds:
    @pytest.mark.parametrize("path", [
        "configs/bench_16x16.json", "configs/verify_quick.json", "configs/verify_2x2.json",
        "perfbench/configs/wide_tree_16x16.json",
    ])
    def test_counted_only_where_the_budget_binds(self, path):
        # The shipped configs' trees fit their budget whole; wide_tree_16x16
        # cuts its interior pools of 6 to (4, 3, 2, 1). Reruns count the same.
        config = load_run_config(ROOT / path)
        model = build_model(config)
        heads = build_heads(config, model)
        binds = path.startswith("perfbench")
        for mode, engine in hawk.cli._mode_variants(config.engine).items():
            seed = derive_seed(config.seed, "truncated", mode)
            first, again = (decode_batch(model, heads, engine, seed, 2).truncated_rounds
                            for _ in range(2))
            assert first == again
            assert (first > 0) == (binds and mode != "vanilla"), mode


class TestTargetReads:
    @pytest.mark.parametrize("path", [
        "configs/verify_quick.json", "perfbench/configs/wide_tree_16x16.json",
    ])
    def test_one_read_per_committed_token(self, monkeypatch, path):
        # Every mode reads the target once per committed token, at that
        # token's prefix: a speculative round reads it once per layer its walk
        # reaches and once more for a bonus token. wide_tree_16x16 cuts its
        # trees and transforms its drafts.
        config = load_run_config(ROOT / path)
        model = build_model(config)
        heads = build_heads(config, model)
        reads = []
        target_dist = DecodingContext.target_dist
        monkeypatch.setattr(DecodingContext, "target_dist",
                            lambda ctx, prefix: reads.append(len(prefix)) or target_dist(ctx, prefix))
        grids = 5
        for mode, engine in hawk.cli._mode_variants(config.engine).items():
            reads.clear()
            batch = decode_batch(model, heads, engine, derive_seed(config.seed, "reads", mode), grids)
            assert len(reads) == batch.committed, mode
            assert Counter(reads) == dict.fromkeys(range(config.grid.size), grids), mode


class TestTracingDrawsNothing:
    @pytest.mark.parametrize("path", [
        "configs/verify_quick.json", "perfbench/configs/wide_tree_16x16.json",
    ])
    def test_traced_batch_is_the_untraced_batch(self, path):
        # A traced round only records its walk, so every mode decodes the same
        # grids in the same rounds with a trace as without one. wide_tree_16x16
        # cuts its trees and transforms its drafts.
        config = load_run_config(ROOT / path)
        model = build_model(config)
        heads = build_heads(config, model)
        for mode, engine in hawk.cli._mode_variants(config.engine).items():
            seed = derive_seed(config.seed, "traced", mode)
            trace = []
            plain, traced = (decode_batch(model, heads, engine, seed, 3, trace=t)
                             for t in (None, trace))
            assert ((plain.grid_counts, plain.rounds, plain.truncated_rounds,
                     plain.depth_attempts, plain.depth_accepts)
                    == (traced.grid_counts, traced.rounds, traced.truncated_rounds,
                        traced.depth_attempts, traced.depth_accepts)), mode
            # One record per layer a walk reached: vanilla rounds walk none.
            assert len(trace) == (0 if mode == "vanilla" else sum(traced.depth_attempts.values()))


class TestAcceptanceTable:
    @pytest.mark.parametrize("path", [
        "configs/bench_16x16.json", "perfbench/configs/wide_tree_16x16.json",
    ])
    def test_accepts_within_the_layer_acceptances(self, path):
        # bench's traced batches: per mode and depth, the layers reached and
        # accepted are the batch's depth counts, and the accepts lie within
        # 3.3 standard deviations of the summed layer acceptances, with the
        # Poisson-binomial variance sum a (1 - a) of independent accept tests.
        config = load_run_config(ROOT / path)
        model = build_model(config)
        heads = build_heads(config, model)
        variants = hawk.cli._mode_variants(config.engine)
        for mode in ("medusa", "hawk"):
            trace = []
            batch = decode_batch(model, heads, variants[mode],
                                 derive_seed(config.seed, "bench", mode),
                                 config.bench_images, trace=trace)
            reached, accepted, expected, variance = Counter(), Counter(), Counter(), Counter()
            for record in trace:
                depth = record.depth
                accept, _, acceptance, *_ = hawk.cli._layer_terms(record)
                reached[depth] += 1
                accepted[depth] += accept
                expected[depth] += acceptance
                variance[depth] += acceptance * (1.0 - acceptance)
            assert reached == batch.depth_attempts and accepted == batch.depth_accepts
            for depth in reached:
                gap = abs(accepted[depth] - expected[depth])
                assert gap <= 3.3 * math.sqrt(variance[depth]), (mode, depth, gap)

    def test_table_explains_the_metrics_grids(self, tmp_path):
        # bench traces each mode's timed batch again, so per mode and depth the
        # table's accepts over reached, summed over regions, are metrics.csv's
        # depth accept rates to the last bit.
        config = ROOT / "configs" / "bench_16x16.json"
        assert main(["bench", "--config", str(config), "--out", str(tmp_path)]) == 0
        reached, accepted = Counter(), Counter()
        for line in (tmp_path / "acceptance.csv").read_text().splitlines()[1:]:
            mode, _, depth, rounds, accepts, *_ = line.split(",")
            reached[mode, int(depth)] += int(rounds)
            accepted[mode, int(depth)] += int(accepts)
        rates = {}
        for line in (tmp_path / "metrics.csv").read_text().splitlines()[1:]:
            mode, *_, cell = line.split(",")
            if mode in ("medusa", "hawk"):
                for pair in cell.split("|"):
                    depth, rate = pair.split(":")
                    rates[mode, int(depth)] = float(rate)
        assert {key: accepted[key] / reached[key] for key in reached} == rates
