"""Record one point of the benchmark trajectory as ``BENCH_<n>.json``.

Usage, from anywhere::

    python3 scripts/bench_record.py CHECKOUT OUT.json

For the checkout given, runs ``replbench/run.py`` of that checkout on each of
its three workloads, at each of the seeds in ``SEEDS``, once with
``--trace 0`` (end-to-end metrics) and once with ``--trace 1`` (per-layer
metrics), one run at a time, at the ``run_seconds`` of the checkout's
``BENCHMARK.json``.  Then it times the checkout's Tier-1 suite
(``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``).

OUT.json holds, per workload, the median over seeds of every end-to-end and
per-layer metric with each seed's value, and failed/attempted summed over
the runs; the Tier-1 wall time and summary line; whether
``PYTHONDONTWRITEBYTECODE`` was set (if it was, every fresh process compiles
the package, so ``setup_s`` includes the compile); the AST node count of each
module under ``src/``, the volume that compile time follows; the modules
under ``src/`` that a fresh ``import multistruct.cli`` loads, the part that
every benchmark process compiles, with their AST node sum; and the identity
of the measured code: the checkout's HEAD sha, a flag for uncommitted
changes to tracked files, and the git tree hash of each of ``CODE_PATHS``
as the working tree held it.
A later reader finds the measured code as the commit whose trees equal
those (``git rev-parse COMMIT:src``), whether or not the checkout was
clean.  Record from a clean clone of a commit, so that the sha
names it too.  The script reads the benchmark's result lines only; it
changes nothing in the checkout except what the benchmark and the tests
themselves leave behind, and the objects ``git stash create`` writes for a
dirty tree.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

WORKLOADS = ("audit-all", "algebra", "graded-large-r")
SEEDS = (101, 102, 103)
CODE_PATHS = ("src", "replbench", "tests")


def git_state(checkout: Path) -> dict:
    """HEAD sha, whether tracked files differ from it, and the working tree's code trees."""

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        snapshot = git("stash", "create")  # empty when tracked files equal HEAD
        tree = snapshot or "HEAD"
        return {
            "git_sha": git("rev-parse", "HEAD"),
            "dirty": bool(snapshot),
            "trees": {path: git("rev-parse", f"{tree}:{path}") for path in CODE_PATHS},
        }
    except (OSError, subprocess.CalledProcessError):
        return {"git_sha": None, "dirty": None, "trees": None}


def bench_run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result object of one ``replbench/run.py`` run (its last stdout line)."""
    proc = subprocess.run(
        [sys.executable, "replbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    """Median over seeds of each metric, with every seed's value."""
    out = {}
    for name, metric in results[0]["metrics"].items():
        values = [result["metrics"][name]["value"] for result in results]
        out[name] = {"median": median(values), "unit": metric["unit"], "values": values}
    return out


def tier1(checkout: Path) -> dict:
    """Wall time, exit code and summary line of the checkout's Tier-1 suite."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    wall = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 3), "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def sources(checkout: Path) -> dict[str, bytes]:
    """The source of each Python module under the checkout's ``src/``, by relative path."""
    src = checkout / "src"
    return {str(path.relative_to(src)): path.read_bytes() for path in sorted(src.rglob("*.py"))}


def ast_nodes(checkout: Path) -> dict:
    """AST node count of each Python module under the checkout's ``src/``."""
    return {name: sum(1 for _ in ast.walk(ast.parse(source))) for name, source in sources(checkout).items()}


def startup_modules(checkout: Path, nodes: dict) -> dict:
    """The ``src/`` modules a fresh ``import multistruct.cli`` loads, and their AST node sum."""
    src = checkout / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, multistruct.cli\nfor m in list(sys.modules.values()): print(getattr(m, '__file__', None))"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    paths = (Path(line) for line in proc.stdout.splitlines())
    files = sorted(str(path.relative_to(src)) for path in paths if path.is_relative_to(src))
    return {"modules": files, "ast_nodes": sum(nodes[name] for name in files)}


def record(checkout: Path) -> dict:
    identity = git_state(checkout)
    nodes = ast_nodes(checkout)
    seconds = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    workloads = {}
    for workload in WORKLOADS:
        runs = {trace: [] for trace in (0, 1)}
        for seed in SEEDS:
            for trace in (0, 1):
                runs[trace].append(bench_run(checkout, workload, seed, seconds, trace))
                print(f"{workload} seed {seed} trace {trace} done", file=sys.stderr)
        every = runs[0] + runs[1]
        workloads[workload] = {
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "end_to_end": summarize(runs[0]),
            "per_layer": summarize(runs[1]),
        }
    return {
        **identity,
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "python": sys.version.split()[0],
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "ast_nodes": nodes,
        "startup_modules": startup_modules(checkout, nodes),
        "workloads": workloads,
        "tier1": tier1(checkout),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    try:
        document = record(args.checkout.resolve())
    except RuntimeError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
