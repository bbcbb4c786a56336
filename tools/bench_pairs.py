"""Paired benchmark runs of two revisions, written as one BENCH_<n>.json.

Run from the root of a checkout:

    python3 tools/bench_pairs.py PARENT_REV CHANGE_REV --pairs 10 --seconds 15 --out BENCH_19.json

Each revision is exported with ``git archive`` into a temporary directory,
so the runs see only committed files. For every workload that the change's
``BENCHMARK.json`` declares, pair i (seed i, i = 1..N) runs
``perfbench/run.py --trace 0`` once on each revision, back to back: the
parent first when i is odd, the change first when i is even. The output
holds both git SHAs, the machine's provenance as perfbench prints it, and
per workload and end-to-end metric the quartiles and values of each side,
the relative change of the medians, the pairs the change won and lost, the
parent's relative IQR, whether the change's median is worse than the
parent's by more than the metric's bound (``beyond_bound``) and whether it
is a resolved gain (``resolved_gain``: the change won at least 9 of 10
pairs and the medians differ by more than the parent's IQR), plus the
failed and attempted correctness checks and the full records of seed 1.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(("git",) + args, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha: str, into: Path) -> Path:
    """The committed tree of ``sha``, unpacked into a new directory under ``into``."""
    root = into / sha
    root.mkdir()
    archive = subprocess.run(("git", "archive", "--format=tar", sha), check=True,
                             capture_output=True).stdout
    subprocess.run(("tar", "-x", "-C", str(root)), input=archive, check=True)
    return root


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced perfbench run: its result record and its provenance."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} in {root} exited {done.returncode}:\n"
                         f"{done.stderr}")
    provenance = next(json.loads(line.split(":", 1)[1]) for line in lines
                      if line.startswith("provenance:"))
    return json.loads(lines[-1]), provenance


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "values": values}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per metric, each side's quartiles, the relative change of the medians,
    the pairs in which the change was better or worse, the parent's IQR
    relative to its median, and whether the change's median is worse than
    the parent's by more than the metric's ``bound`` (a relative change)."""
    out = {}
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        gains = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        median_change = change["median"] / parent["median"] - 1.0
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": parent,
            "change": change,
            "median_change": median_change,
            "change_wins": sum(gain > 0 for gain in gains),
            "change_losses": sum(gain < 0 for gain in gains),
            "parent_relative_iqr": (parent["q3"] - parent["q1"]) / parent["median"],
            "beyond_bound": -sign * median_change > spec["bound"],
        }
    return dict(sorted(out.items()))


def resolved_gain(summary: dict) -> bool:
    """A metric's change is a resolved gain: the change won at least 9 of 10
    pairs, and its median is better than the parent's by more than the
    parent's IQR."""
    sign = 1 if summary["better"] == "higher" else -1
    pairs = len(summary["parent"]["values"])
    gain = sign * (summary["change"]["median"] - summary["parent"]["median"])
    iqr = summary["parent"]["q3"] - summary["parent"]["q1"]
    return 10 * summary["change_wins"] >= 9 * pairs and gain > iqr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("change_rev")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    shas = {side: git("rev-parse", rev) for side, rev in zip(SIDES, (args.parent_rev,
                                                                    args.change_rev))}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        roots = {side: export(sha, Path(scratch)) for side, sha in shas.items()}
        benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = [w["name"] for w in benchmark["workloads"]]
        pairs, records, provenance = {}, {side: {} for side in SIDES}, None
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for seed in range(1, args.pairs + 1):
                for side in SIDES if seed % 2 else SIDES[::-1]:
                    result, provenance = run_once(roots[side], workload, seed, args.seconds)
                    runs[side].append(result)
                    print(f"{workload} seed={seed} {side}: failed {result['failed']} of "
                          f"{result['attempted']}", file=sys.stderr)
            for side in SIDES:
                records[side][workload] = runs[side][0]
            pairs[workload] = {
                "seeds": list(range(1, args.pairs + 1)),
                "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
                "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
                "metrics": summarize(runs, benchmark["end_to_end"]),
            }
            for summary in pairs[workload]["metrics"].values():
                summary["resolved_gain"] = resolved_gain(summary)
    bench = {
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "parent": {"git_sha": shas["parent"]},
        "change": {"git_sha": shas["change"]},
        "provenance": provenance,
        "order": "pair i (seed i) runs the parent first when i is odd and the change first "
                 "when i is even",
        "records_seed": 1,
        "pairs": pairs,
        "records": records,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
