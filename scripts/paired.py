"""Compare the benchmark of two commits in alternating pairs of runs.

Usage, from anywhere::

    python3 scripts/paired.py PARENT CHANGE [--repo PATH]

PARENT and CHANGE name commits of the repository at ``--repo`` (by default
the one holding this script).  Each is cloned clean into a temporary
directory, so nothing uncommitted is measured.  Then,
for each workload, ``replbench/run.py --trace 0`` of both clones runs
``PAIRS`` times, one run at a time, for the ``run_seconds`` of the change's
``BENCHMARK.json``.  Pair i uses seed ``FIRST_SEED + i`` on both sides, and
the side that runs first alternates: the parent in even pairs, the change in
odd ones.

For each workload and end-to-end metric of the change's ``BENCHMARK.json``
it prints the median of the paired differences (change minus parent), the
pairs the change won (better in the metric's direction, a tie is no win),
and each side's median and interquartile range (inclusive quartiles), then
``clear`` when the change won at least nine tenths of the pairs and its
median paired difference exceeds the parent's interquartile range, else
``unclear``.  The last line of stdout is every result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

from bench_record import bench_run

PAIRS = 10
FIRST_SEED = 101
WORKLOADS = ("audit-all", "algebra", "graded-large-r")


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Paired statistics of one metric: parent[i] and change[i] form pair i."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equally long lists of at least two runs")
    diffs = [c - p for p, c in zip(parent, change)]
    sign = -1 if better == "lower" else 1
    median_diff = median(diffs)

    def side(values: list[float]) -> dict:
        q1, _, q3 = quantiles(values, n=4, method="inclusive")
        return {"median": median(values), "iqr": q3 - q1}

    won = sum(sign * d > 0 for d in diffs)
    parent_side = side(parent)
    return {
        "pairs": len(diffs),
        "median_diff": median_diff,
        "won": won,
        "parent": parent_side,
        "change": side(change),
        "clear": 10 * won >= 9 * len(diffs) and sign * median_diff > parent_side["iqr"],
    }


def clone(repo: Path, commit: str, into: Path) -> Path:
    """A clean clone of the repository at commit, detached."""
    subprocess.run(["git", "clone", "--quiet", str(repo), str(into)], check=True)
    subprocess.run(["git", "-C", str(into), "checkout", "--quiet", "--detach", commit], check=True)
    return into


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="paired-") as tmp:
        sides = {name: clone(args.repo, commit, Path(tmp) / name)
                 for name, commit in (("parent", args.parent), ("change", args.change))}
        declared = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = declared["run_seconds"]
        results = {}
        for workload in WORKLOADS:
            values = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for name in order:
                    try:
                        result = bench_run(sides[name], workload, FIRST_SEED + i, seconds, 0)
                    except RuntimeError as exc:
                        print(f"paired: {name}: {exc}", file=sys.stderr)
                        return 2
                    values[name].append(result["metrics"])
                print(f"{workload} pair {i + 1} of {PAIRS} done", file=sys.stderr)
            results[workload] = {}
            for metric in declared["end_to_end"]:
                name = metric["name"]
                stats = compare(
                    [m[name]["value"] for m in values["parent"]],
                    [m[name]["value"] for m in values["change"]],
                    metric["better"],
                )
                results[workload][name] = stats
                print(
                    f"{workload} {name}: median diff {stats['median_diff']:+.4f} {metric['unit']}, "
                    f"change won {stats['won']} of {stats['pairs']}, "
                    f"parent {stats['parent']['median']:.4f} (IQR {stats['parent']['iqr']:.4f}), "
                    f"change {stats['change']['median']:.4f} (IQR {stats['change']['iqr']:.4f}), "
                    f"{'clear' if stats['clear'] else 'unclear'}"
                )
    print(json.dumps({"parent": args.parent, "change": args.change, "seconds": seconds, "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
