"""Compare the manifests of two revisions' runs on the shipped configs.

Run from the root of a checkout:

    python3 tools/manifest_pairs.py PARENT_REV CHANGE_REV

Each revision is exported with ``git archive`` into a temporary directory,
as ``tools/bench_pairs.py`` does, so the runs see only committed files. On
each revision, ``hawk decode``, ``verify``, ``bench`` and ``fit`` run on
every ``configs/*.json`` and then every ``perfbench/configs/*.json`` of the
change, each into its own output directory; the configs are only read.
One row per (config, command) gives both exit codes and whether the
manifests' ``outputs`` digests match; a command that exits nonzero writes
no manifest, so two runs refused alike count as equal. After the rows come
the ``wc -l`` line counts of each side's ``src/hawk/*.py``, per module and in
total, with the total's change. The exit status is 1 if any row differs,
else 0. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Optional

from bench_pairs import SIDES, export, git

COMMANDS = ("decode", "verify", "bench", "fit")
CONFIG_GLOBS = ("configs/*.json", "perfbench/configs/*.json")

Run = tuple[int, Optional[dict]]


def run_hawk(root: Path, config: str, command: str, out: Path) -> Run:
    """The exit code of ``hawk <command>``, run in the tree at ``root`` on its
    config file ``config`` (a path relative to ``root``), and its manifest's
    ``outputs`` (None if it wrote none)."""
    done = subprocess.run(
        [sys.executable, "-m", "hawk.cli", command, "--config", config, "--out", str(out)],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True)
    manifest = out / "manifest.json"
    if not manifest.exists():
        return done.returncode, None
    return done.returncode, json.loads(manifest.read_text(encoding="utf-8"))["outputs"]


def compare(roots: dict[str, Path], scratch: Path,
            run: Callable[[Path, str, str, Path], Run] = run_hawk) -> list[dict]:
    """Per config of the change and command, each side's run and whether they
    match; a row names its config by its path relative to the root, so two
    configs that share a file name stay apart."""
    configs = [path.relative_to(roots["change"]) for pattern in CONFIG_GLOBS
               for path in sorted(roots["change"].glob(pattern))]
    rows = []
    for config in configs:
        for command in COMMANDS:
            runs = {side: run(roots[side], config.as_posix(), command,
                              scratch / side / config.with_suffix("") / command)
                    for side in SIDES}
            rows.append({"config": config.as_posix(), "command": command, **runs,
                         "same": runs["parent"] == runs["change"]})
    return rows


def report(rows: list[dict]) -> int:
    """Print one line per row, the config column as wide as its widest name;
    1 if any row differs, else 0."""
    width = max((len(row["config"]) for row in rows), default=0)
    for row in rows:
        (parent_code, parent), (change_code, change) = row["parent"], row["change"]
        if row["same"]:
            verdict = "same"
        else:
            parent, change = parent or {}, change or {}
            moved = sorted(name for name in parent.keys() | change.keys()
                           if parent.get(name) != change.get(name))
            verdict = "DIFFERS" + (f": {' '.join(moved)}" if moved else "")
        print(f"{row['config']:<{width}} {row['command']:<7} exit {parent_code}/{change_code} "
              f"{verdict}")
    return int(not all(row["same"] for row in rows))


def line_counts(root: Path) -> dict[str, int]:
    """The newlines in each ``src/hawk/*.py`` under ``root``, as ``wc -l`` counts
    them, by file name."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted((root / "src" / "hawk").glob("*.py"))}


def report_lines(roots: dict[str, Path]) -> None:
    """Print each module's line count on both sides, then the totals and
    their change; a module one side lacks counts 0 there."""
    counts = {side: line_counts(roots[side]) for side in SIDES}
    names = sorted(counts["parent"].keys() | counts["change"].keys())
    print(f"{'parent':>6} {'change':>6}  lines")
    for name in names:
        print(f"{counts['parent'].get(name, 0):>6} {counts['change'].get(name, 0):>6}"
              f"  src/hawk/{name}")
    parent, change = (sum(counts[side].values()) for side in SIDES)
    print(f"{parent:>6} {change:>6}  total ({change - parent:+d})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("change_rev")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="manifest-pairs-") as scratch:
        scratch = Path(scratch)
        roots = {side: export(git("rev-parse", rev), scratch / side)
                 for side, rev in zip(SIDES, (args.parent_rev, args.change_rev))}
        status = report(compare(roots, scratch / "out"))
        report_lines(roots)
        return status


if __name__ == "__main__":
    raise SystemExit(main())
