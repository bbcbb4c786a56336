"""``tools/bench_pairs.summarize``, which writes every paired BENCH file, on synthetic records."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower"},
    {"name": "decodes_per_s.hawk", "unit": "grids/s", "better": "higher"},
]


@pytest.fixture(scope="module")
def summarize():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize


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
