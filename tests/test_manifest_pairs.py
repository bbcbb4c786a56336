"""``tools/manifest_pairs.compare`` and ``report``, the digest gate of a
refactor, on a stubbed runner in place of ``hawk``."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
DIGESTS = {"metrics.csv": "aa", "trace.csv": "bb"}


@pytest.fixture
def manifest_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # for its ``from bench_pairs import ...``
    spec = importlib.util.spec_from_file_location("manifest_pairs", TOOLS / "manifest_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def roots(tmp_path):
    """Two trees, each with the same two shipped configs and one perfbench config."""
    out = {}
    for side in ("parent", "change"):
        for config in ("configs/a", "configs/b", "perfbench/configs/c"):
            (tmp_path / side / config).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / f"{config}.json").write_text("{}")
        out[side] = tmp_path / side
    return out


def _stub(results):
    """A runner that answers from ``results[(side, config, command)]``, else
    exit 0 with ``DIGESTS``, and records every call's output directory."""
    calls = []

    def run(root, config, command, out):
        calls.append((config, out))
        return results.get((root.name, Path(config).stem, command), (0, dict(DIGESTS)))
    run.calls = calls
    return run


def test_identical_runs_pass(manifest_pairs, roots, tmp_path, capsys):
    run = _stub({})
    rows = manifest_pairs.compare(roots, tmp_path / "out", run)
    assert [(r["config"], r["command"]) for r in rows] == [
        (config, command) for config in ("configs/a.json", "configs/b.json",
                                         "perfbench/configs/c.json")
        for command in manifest_pairs.COMMANDS]
    assert all(row["same"] for row in rows)
    configs, outs = zip(*run.calls)
    assert configs[-1] == "perfbench/configs/c.json"  # a path in the tree, run from its root
    assert len(set(outs)) == len(outs) == 2 * len(rows)  # one directory per run
    assert manifest_pairs.report(rows) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(rows) and all(line.endswith("exit 0/0 same") for line in lines)


def test_one_digest_differs(manifest_pairs, roots, tmp_path, capsys):
    moved = {**DIGESTS, "trace.csv": "cc"}
    rows = manifest_pairs.compare(roots, tmp_path / "out",
                                  _stub({("change", "b", "bench"): (0, moved)}))
    assert [(r["config"], r["command"]) for r in rows if not r["same"]] == [
        ("configs/b.json", "bench")]
    assert manifest_pairs.report(rows) == 1
    out = capsys.readouterr().out
    assert "configs/b.json           bench   exit 0/0 DIFFERS: trace.csv" in out.splitlines()


def test_refused_on_both_sides_is_equal(manifest_pairs, roots, tmp_path, capsys):
    refused = {(side, "a", "verify"): (1, None) for side in ("parent", "change")}
    rows = manifest_pairs.compare(roots, tmp_path / "out", _stub(refused))
    assert all(row["same"] for row in rows)
    assert manifest_pairs.report(rows) == 0
    assert "configs/a.json           verify  exit 1/1 same" in capsys.readouterr().out.splitlines()
    # Refused on one side only is a difference, though neither wrote a manifest.
    rows = manifest_pairs.compare(roots, tmp_path / "out",
                                  _stub({("change", "a", "verify"): (1, None)}))
    assert manifest_pairs.report(rows) == 1


def test_rows_named_by_path_and_aligned(manifest_pairs, roots, tmp_path, capsys):
    # A shipped config shares its stem with a perfbench one, and a long name
    # widens the column for every row.
    for config in ("configs/c", "perfbench/configs/wide_tree_16x16"):
        for side in ("parent", "change"):
            (tmp_path / side / f"{config}.json").write_text("{}")
    rows = manifest_pairs.compare(roots, tmp_path / "out", _stub({}))
    names = [row["config"] for row in rows[::len(manifest_pairs.COMMANDS)]]
    assert names == ["configs/a.json", "configs/b.json", "configs/c.json",
                     "perfbench/configs/c.json", "perfbench/configs/wide_tree_16x16.json"]
    assert manifest_pairs.report(rows) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {line.index(" exit ") for line in lines} == {len(names[-1]) + 8}
    assert lines[-1].startswith("perfbench/configs/wide_tree_16x16.json fit     exit")


def test_line_counts_per_module_and_total(manifest_pairs, roots, capsys):
    # wc -l counts newlines, so a last line without one is not counted; a
    # module one side lacks counts 0 there.
    files = {"parent": {"a.py": "x\ny\nz\n", "gone.py": "x\n"},
             "change": {"a.py": "x\ny", "new.py": "x\ny\n"}}
    for side, modules in files.items():
        (roots[side] / "src" / "hawk").mkdir(parents=True)
        for name, text in modules.items():
            (roots[side] / "src" / "hawk" / name).write_text(text)
        (roots[side] / "src" / "hawk" / "notes.txt").write_text("not\ncounted\n")
    assert manifest_pairs.line_counts(roots["change"]) == {"a.py": 1, "new.py": 2}
    manifest_pairs.report_lines(roots)
    assert capsys.readouterr().out.splitlines() == [
        "parent change  lines",
        "     3      1  src/hawk/a.py",
        "     1      0  src/hawk/gone.py",
        "     0      2  src/hawk/new.py",
        "     4      3  total (-1)",
    ]
