"""Tests of the replication benchmark's own code (not of the engine).

Run from the root of the repository: ``python3 -m pytest replbench``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"replbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
SEED = 7
# A cheap invocation that still reaches every runner, certificate and kernel.
SMALL_AUDIT = ["replicate", "all", "--window", "2..2"]


def _runner(tmp_path: Path):
    multistruct_seed, points = run.workload_inputs(SEED)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MULTISTRUCT_SEED=multistruct_seed)
    tmp_path.mkdir(parents=True, exist_ok=True)
    return run.Runner(env, tmp_path, multistruct_seed, perf_counter()), points


def _traced_pass(runner, trace_dir: Path, cli_runs) -> list[dict]:
    trace_dir.mkdir()
    results = []
    for k, args in enumerate(cli_runs):
        argv = [sys.executable, str(HERE / "layertrace.py"), str(trace_dir / f"{k}.json"), *args]
        results.append(runner.spawn(argv))
    return results


def test_seed_gives_the_same_admissible_inputs():
    assert run.workload_inputs(SEED) == run.workload_inputs(SEED)
    assert run.workload_inputs(SEED) != run.workload_inputs(SEED + 1)
    _, points = run.workload_inputs(SEED)
    pairs = [tuple(Fraction(x) for x in chunk.split(":")) for chunk in points.split(",")]
    assert len(pairs) >= 5
    assert all(pair != (0, 0) for pair in pairs)


def test_calibration_stops_and_continues_a_child():
    code = (
        "import time; t = time.process_time()\n"
        "while time.process_time() - t < 0.5: pass\n"
        "print('done')"
    )
    calibrator = run.Calibrator()
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE)
    status, usage, stopped, blocks = calibrator.wait(proc.pid, stop=True)
    assert os.waitstatus_to_exitcode(status) == 0
    assert proc.stdout.read() == b"done\n"
    proc.stdout.close()
    assert usage.ru_utime + usage.ru_stime >= 0.5
    assert len(blocks) >= 2
    assert stopped >= sum(wall for wall, _ in blocks)
    wall, cpu, block_s = calibrator.scale(1.0, 1.0, blocks)
    assert wall > 0 and cpu > 0 and block_s > 0


def test_traced_outputs_equal_untraced(tmp_path):
    runner, points = _runner(tmp_path / "scratch")
    plan = run.invocations("algebra", points)
    untraced = runner.pass_(plan, None)
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    traced = runner.pass_(plan, trace_dir)
    assert untraced["ok"] and traced["ok"]
    assert runner.failed == 0 and runner.attempted == 2 * len(plan)

    plain = runner.spawn([sys.executable, "-c", run.ENTRY, *SMALL_AUDIT])
    (traced_small,) = _traced_pass(runner, tmp_path / "trace-small", [SMALL_AUDIT])
    assert (plain["exit"], plain["stdout"]) == (traced_small["exit"], traced_small["stdout"])
    assert plain["exit"] == 1 and plain["stdout"]


def test_traced_counts_repeat_exactly(tmp_path):
    runner, _ = _runner(tmp_path / "scratch")
    counts = []
    for k in range(2):
        trace_dir = tmp_path / f"trace-{k}"
        _traced_pass(runner, trace_dir, [SMALL_AUDIT])
        metrics = run.layer_metrics(trace_dir)
        counts.append(
            {
                name: value
                for name, value in metrics.items()
                if name.endswith(("calls", "_ratio", "entries", "term_products"))
            }
        )
    assert counts[0] == counts[1]
    assert counts[0]["kernels.bareiss_rank.calls"] > 0
    assert 0 < counts[0]["kernels.bareiss_rank.distinct_ratio"] < 1
    assert 0 < counts[0]["kernels.bareiss_rank.full_rank_ratio"] <= 1
    # double-conic certifies r=2 with the default pair and points, which
    # graded repeats in the same process; graded's second pair is new.
    assert counts[0]["graded.injectivity_certificate.calls"] == 3
    assert counts[0]["graded.injectivity_certificate.distinct_ratio"] == 2 / 3
    assert counts[0]["arith.MultiPoly.__mul__.calls"] > 0


def _result(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "replbench/run.py", "--workload", "algebra", "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metrics_are_the_declared_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 7
        units = {metric["name"]: metric["unit"] for metric in declared[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "replbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "replbench/run.py", "--workload", "algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
