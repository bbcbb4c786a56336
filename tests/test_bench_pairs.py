"""``tools/bench_pairs.summarize`` and ``resolved_gain``, which write every paired
BENCH file's verdicts, on synthetic records, and its ``main`` on a stubbed
``subprocess.run``."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "decodes_per_s.hawk", "unit": "grids/s", "better": "higher", "bound": 0.2},
]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def summarize(bench_pairs):
    return bench_pairs.summarize


def _runs(parent: dict[str, list[float]], change: dict[str, list[float]]) -> dict:
    """Per side, one perfbench record per pair with the given metric values."""
    def records(values):
        count = len(next(iter(values.values())))
        return [{"metrics": {name: {"value": series[i]} for name, series in values.items()}}
                for i in range(count)]
    return {"parent": records(parent), "change": records(change)}


def test_lower_is_better_counts_a_fall_as_a_win(summarize):
    runs = _runs({"setup_s": [1.0, 1.0, 1.0, 1.0], "decodes_per_s.hawk": [100.0] * 4},
                 {"setup_s": [0.5, 0.6, 0.7, 1.5], "decodes_per_s.hawk": [100.0] * 4})
    setup = summarize(runs, METRICS)["setup_s"]
    assert (setup["change_wins"], setup["change_losses"]) == (3, 1)
    assert setup["median_change"] < 0  # the change's median fell
    assert setup["better"] == "lower" and setup["unit"] == "s"


def test_higher_is_better_counts_a_rise_as_a_win(summarize):
    runs = _runs({"setup_s": [1.0] * 3, "decodes_per_s.hawk": [100.0, 100.0, 100.0]},
                 {"setup_s": [1.0] * 3, "decodes_per_s.hawk": [120.0, 130.0, 90.0]})
    rate = summarize(runs, METRICS)["decodes_per_s.hawk"]
    assert (rate["change_wins"], rate["change_losses"]) == (2, 1)
    assert rate["median_change"] == pytest.approx(0.2)
    assert rate["parent"]["values"] == [100.0, 100.0, 100.0]
    assert rate["change"]["median"] == 120.0


def test_ties_count_for_neither_side(summarize):
    runs = _runs({"setup_s": [1.0, 2.0, 3.0], "decodes_per_s.hawk": [10.0, 20.0, 30.0]},
                 {"setup_s": [1.0, 2.0, 3.0], "decodes_per_s.hawk": [10.0, 20.0, 30.0]})
    for summary in summarize(runs, METRICS).values():
        assert (summary["change_wins"], summary["change_losses"]) == (0, 0)
        assert summary["median_change"] == 0.0


def test_pairs_are_matched_by_position(summarize):
    # The same values in another order: every pair differs, the medians do not.
    runs = _runs({"setup_s": [1.0, 2.0, 3.0], "decodes_per_s.hawk": [1.0] * 3},
                 {"setup_s": [3.0, 2.0, 1.0], "decodes_per_s.hawk": [1.0] * 3})
    setup = summarize(runs, METRICS)["setup_s"]
    assert (setup["change_wins"], setup["change_losses"]) == (1, 1)
    assert setup["median_change"] == 0.0
    assert list(summarize(runs, METRICS)) == sorted(m["name"] for m in METRICS)


# Ten parent runs of decodes/s with quartiles 98.25 / 100 / 101.75: an IQR of
# 3.5, 3.5% of the median.
PARENT_RATES = [95.0, 97.0, 98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 103.0, 105.0]


def _rates(change):
    return _runs({"setup_s": [1.0] * 10, "decodes_per_s.hawk": PARENT_RATES},
                 {"setup_s": [1.0] * 10, "decodes_per_s.hawk": change})


def test_parent_relative_iqr(summarize):
    rate = summarize(_rates(PARENT_RATES), METRICS)["decodes_per_s.hawk"]
    assert (rate["parent"]["q1"], rate["parent"]["q3"]) == (98.25, 101.75)
    assert rate["parent_relative_iqr"] == pytest.approx(0.035)


def test_a_resolved_gain(bench_pairs):
    # +10% in every pair: 10 of 10 wins, the medians 10 apart against an IQR of 3.5.
    rate = bench_pairs.summarize(_rates([v * 1.1 for v in PARENT_RATES]),
                                 METRICS)["decodes_per_s.hawk"]
    assert rate["change_wins"] == 10 and not rate["beyond_bound"]
    assert bench_pairs.resolved_gain(rate)


def test_eight_of_ten_wins_is_not_resolved(bench_pairs):
    change = [v * 1.1 for v in PARENT_RATES[:8]] + [v * 0.99 for v in PARENT_RATES[8:]]
    rate = bench_pairs.summarize(_rates(change), METRICS)["decodes_per_s.hawk"]
    assert (rate["change_wins"], rate["change_losses"]) == (8, 2)
    assert rate["change"]["median"] - rate["parent"]["median"] > 3.5
    assert not bench_pairs.resolved_gain(rate)


def test_a_gain_inside_the_parent_iqr_is_not_resolved(bench_pairs):
    # +3% in every pair wins 10 of 10, but the medians are 3 apart, inside the IQR.
    rate = bench_pairs.summarize(_rates([v * 1.03 for v in PARENT_RATES]),
                                 METRICS)["decodes_per_s.hawk"]
    assert rate["change_wins"] == 10
    assert not bench_pairs.resolved_gain(rate)


def test_beyond_bound_in_the_worse_direction(summarize):
    # decodes/s falls 25% against a bound of 0.2; setup_s rises 20% against
    # 0.25, and a 50% fall of setup_s is a gain, never beyond its bound.
    runs = _runs({"setup_s": [1.0] * 4, "decodes_per_s.hawk": [100.0] * 4},
                 {"setup_s": [1.2] * 4, "decodes_per_s.hawk": [75.0] * 4})
    summary = summarize(runs, METRICS)
    assert summary["decodes_per_s.hawk"]["beyond_bound"]
    assert not summary["setup_s"]["beyond_bound"]
    fall = _runs({"setup_s": [2.0] * 4, "decodes_per_s.hawk": [100.0] * 4},
                 {"setup_s": [1.0] * 4, "decodes_per_s.hawk": [81.0] * 4})
    summary = summarize(fall, METRICS)
    assert not summary["setup_s"]["beyond_bound"]
    assert not summary["decodes_per_s.hawk"]["beyond_bound"]


def test_a_revision_against_itself(bench_pairs, monkeypatch, tmp_path, capsys):
    # An A/A run exports one SHA twice, each side into its own tree.
    sha = "f" * 40
    benchmark = {"workloads": [{"name": "w"}], "end_to_end": METRICS}
    record = {"failed": 0, "attempted": 3,
              "metrics": {spec["name"]: {"value": 1.0} for spec in METRICS}}
    trees, runs = [], []

    def run(command, cwd=None, **kwargs):
        stdout = b""
        if command[:2] == ("git", "rev-parse"):
            stdout = sha
        elif command[0] == "tar":
            trees.append(Path(command[-1]))
            (trees[-1] / "BENCHMARK.json").write_text(json.dumps(benchmark))
        elif command[0] != "git":  # perfbench/run.py
            runs.append(Path(cwd).name)
            stdout = "provenance: {\"cpu\": \"x\"}\n" + json.dumps(record)
        return subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["HEAD", "HEAD", "--pairs", "2", "--seconds", "1",
                             "--out", str(out)]) == 0
    assert [tree.name for tree in trees] == ["parent", "change"]
    assert runs == ["parent", "change", "change", "parent"]
    bench = json.loads(out.read_text())
    assert bench["parent"] == bench["change"] == {"git_sha": sha}
    assert bench["provenance"] == {"cpu": "x"}
    pairs = bench["pairs"]["w"]
    assert pairs["attempted"] == {"parent": 6, "change": 6}
    for summary in pairs["metrics"].values():
        assert summary["median_change"] == 0.0 and not summary["resolved_gain"]
    assert capsys.readouterr().out.splitlines() == [
        "w decodes_per_s.hawk median  +0.00% wins  0 losses  0 beyond_bound false "
        "resolved_gain false",
        "w setup_s            median  +0.00% wins  0 losses  0 beyond_bound false "
        "resolved_gain false",
    ]


def test_verdicts_one_line_per_workload_and_metric(bench_pairs):
    # A resolved +10% and a 25% fall beyond its bound, on two workloads.
    gain = bench_pairs.summarize(_rates([v * 1.1 for v in PARENT_RATES]), METRICS)
    fall = bench_pairs.summarize(_runs({"setup_s": [1.0] * 4, "decodes_per_s.hawk": [100.0] * 4},
                                       {"setup_s": [1.0] * 4, "decodes_per_s.hawk": [75.0] * 4}),
                                 METRICS)
    pairs = {"image_16x16": {"metrics": gain}, "wide_tree_16x16": {"metrics": fall}}
    for paired in pairs.values():
        for summary in paired["metrics"].values():
            summary["resolved_gain"] = bench_pairs.resolved_gain(summary)
    assert bench_pairs.verdicts(pairs) == [
        "image_16x16     decodes_per_s.hawk median +10.00% wins 10 losses  0 "
        "beyond_bound false resolved_gain true",
        "image_16x16     setup_s            median  +0.00% wins  0 losses  0 "
        "beyond_bound false resolved_gain false",
        "wide_tree_16x16 decodes_per_s.hawk median -25.00% wins  0 losses  4 "
        "beyond_bound true  resolved_gain false",
        "wide_tree_16x16 setup_s            median  +0.00% wins  0 losses  0 "
        "beyond_bound false resolved_gain false",
    ]
