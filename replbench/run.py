"""Fresh-process replication benchmark for the `multistruct replicate` CLI.

Usage, from the root of a checkout::

    python3 replbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI invocation is a fresh interpreter running the console-script entry
point (``from multistruct.cli import main``) on ``src/`` of this checkout,
launched one at a time from this process: a closed loop with one client.
A pass runs the workload's invocations once; passes repeat until the next
one would end after ``--seconds``.  Every invocation's exit code and stdout
digest are checked against ``expected.json``; ``audit-all`` also checks its
``--json`` report.  A pass with a failed check gives no timing sample.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median wall time of
a fresh interpreter that only imports ``multistruct.cli``, sampled before
the first pass and again before every pass), and the medians
over passes of ``wall_s`` (summed invocation wall time), ``cpu_s`` (user+sys
time of the pass's children, from ``os.wait4``) and ``peak_rss_mb`` (largest
child max-RSS of the pass).

The times are given at a fixed reference speed of the CPU.  A shared host's
speed swings by tens of percent within seconds, which would swamp any change
to the program, so this process samples it with a fixed piece of pure-Python
work (``calibration_work``: Fraction sums, dict-of-int products and big-int
products and divisions, the engine's own kinds of work), a block of about
0.01 s.  This process and its children are pinned to one CPU; each child is
single-threaded.  While a child runs, it is stopped (SIGSTOP) after every
``CALIBRATION_PERIOD_S`` of its run, one block is timed, and it is continued
(SIGCONT); a few more blocks are timed after it ends.  The child's wall time
leaves out the stops, and its wall and CPU times are scaled by
``REFERENCE_BLOCK_S`` over the mean time of the blocks timed just before,
during and just after it.  The unscaled pass times and the mean block time
are printed on the pass lines.  The calibration does not run the program, so
a faster or slower program moves the scaled times as it moves the raw ones.

``--trace 1`` alternates an untraced pass with a pass whose invocations run
under ``layertrace.py`` and prints the per-layer metrics: medians over traced
passes, plus ``trace.overhead_s`` (median traced minus median untraced pass
wall time, both scaled).  Traced children are not stopped, so their span
times are unscaled and hold no stops; they are scaled by the blocks timed
just before and after them only.  The spans of the last traced pass, one file per invocation,
and the environment are kept in ``.replbench_out/trace-<workload>/``.

The last line of stdout is the result as one JSON object; the lines before
it give the environment (kernel backend, Python version, CPU count, the CPU
the run is pinned to) and
every pass.  The benchmark exits 2 without a result when the checkout has
no importable ``src/multistruct``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".replbench_out"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

ENTRY = "import sys; from multistruct.cli import main; sys.exit(main())"
# Set-up spawns before the first pass; one more precedes every pass, so the
# set-up samples span the run as the passes do.
SETUP_SPAWNS = 10
# Seconds one ``calibration_work`` block takes on the reference host: scaled
# times are the times on a host that runs a block in this many seconds.
REFERENCE_BLOCK_S = 0.01
CALIBRATION_PERIOD_S = 0.1  # a child runs this long between two blocks
CALIBRATION_BLOCKS_AFTER = 2  # blocks run after each child has ended
RUN_LIMIT_S = 170  # an invocation still running this long after the start is killed

WORKLOADS = ("audit-all", "algebra", "graded-large-r")
ALGEBRA_TARGETS = (
    "double-plane", "triple-plane", "wedge", "koszul", "expansion", "congruence", "ext-claim",
)
RUNNERS = (
    "run_double_conic", "run_double_plane", "run_triple_plane", "run_wedge", "run_koszul",
    "run_expansion", "run_congruence", "run_graded", "run_ext_claim",
)
TIMED_LAYERS = (
    "graded.matrix_rank", "graded.splitting_type", "graded.slice_matrix",
    "arith.MultiPoly.__mul__", "arith.MultiPoly.substitute", "chow.euler_characteristic",
    "integrality.congruence_residues", "cohomology.solve_exact_sequence",
)


def calibration_work() -> None:
    """Fixed pure-Python work of about 0.01 s on the reference host."""
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i % 97, i % 89 + 1)
    left = {(i, 30 - i): 7919 * i + 1 for i in range(31)}
    right = {(i, 20 - i): 104729 * i - 3 for i in range(21)}
    for _ in range(15):
        product: dict = {}
        for (a, b), x in left.items():
            for (c, d), y in right.items():
                key = (a + c, b + d)
                product[key] = product.get(key, 0) + x * y
    pivot, x = 3**200 + 1, 7**180
    for _ in range(2500):
        x = (x * pivot + pivot) // pivot


class Calibrator:
    """Speed of the CPU the children run on, from ``calibration_work`` blocks
    timed while a child is stopped and right after it has ended."""

    def __init__(self):
        calibration_work()  # warm-up: the first block is slower
        self.after = [self.block() for _ in range(CALIBRATION_BLOCKS_AFTER)]

    @staticmethod
    def block() -> tuple[float, float]:
        """Wall and CPU seconds of one ``calibration_work`` block."""
        t0, c0 = perf_counter(), process_time()
        calibration_work()
        return perf_counter() - t0, process_time() - c0

    def wait(self, pid: int, stop: bool):
        """Wait for the child ``pid`` to end; with ``stop``, stop it after
        every ``CALIBRATION_PERIOD_S`` of its run to time one block.

        Returns its wait status, its resource usage, the seconds it was
        stopped, and the blocks.
        """
        blocks, stopped = [], 0.0
        pidfd = os.pidfd_open(pid)
        try:
            while stop and not select.select([pidfd], [], [], CALIBRATION_PERIOD_S)[0]:
                t_stop = perf_counter()
                os.kill(pid, signal.SIGSTOP)
                try:
                    info = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                    if info.si_code != os.CLD_STOPPED:
                        break  # it ended before the signal arrived
                    blocks.append(self.block())
                finally:
                    os.kill(pid, signal.SIGCONT)
                stopped += perf_counter() - t_stop
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(pid, 0)
        return status, usage, stopped, blocks

    def scale(self, wall: float, cpu: float, blocks: list) -> tuple[float, float, float]:
        """Wall and CPU seconds of a child at the reference speed, from the
        blocks timed before, during and after it, and their mean wall seconds."""
        before = self.after
        self.after = [self.block() for _ in range(CALIBRATION_BLOCKS_AFTER)]
        blocks = before + blocks + self.after
        block_wall = sum(b[0] for b in blocks) / len(blocks)
        block_cpu = sum(b[1] for b in blocks) / len(blocks)
        return (
            wall * REFERENCE_BLOCK_S / block_wall,
            cpu * REFERENCE_BLOCK_S / block_cpu,
            block_wall,
        )


def workload_inputs(seed: int) -> tuple[str, str]:
    """The seeded inputs: MULTISTRUCT_SEED and a --points list of six pairs."""
    rng = random.Random(seed)
    points = []
    while len(points) < 6:
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if s or u:
            points.append(f"{s}:{u}")
    return str(rng.randrange(10**9)), ",".join(points)


def invocations(workload: str, points: str) -> list[tuple[str, list[str]]]:
    """(label in expected.json, CLI arguments) of one pass."""
    return {
        "audit-all": [("all", ["replicate", "all"])],
        "algebra": [(target, ["replicate", target]) for target in ALGEBRA_TARGETS],
        "graded-large-r": [("graded --r 16", ["replicate", "graded", "--r", "16", f"--points={points}"])],
    }[workload]


class Runner:
    """Launches child interpreters one at a time and checks their outputs."""

    def __init__(self, env: dict, scratch: Path, multistruct_seed: str, started: float):
        self.env = env
        self.scratch = scratch
        self.multistruct_seed = multistruct_seed
        self.started = started
        self.calibrator = Calibrator()
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list[str], stop: bool = True) -> dict:
        """Run one child to completion: wall and cpu (scaled and raw), max RSS,
        exit code, stdout.  ``stop=False`` times no blocks while it runs, so
        that the spans a traced child records hold no stops."""
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        limit = max(1.0, RUN_LIMIT_S - (perf_counter() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                status, usage, stopped, blocks = self.calibrator.wait(proc.pid, stop)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0 - stopped
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        scaled_wall, scaled_cpu, block_s = self.calibrator.scale(wall, cpu, blocks)
        return {
            "wall_s": scaled_wall,
            "cpu_s": scaled_cpu,
            "raw_wall_s": wall,
            "raw_cpu_s": cpu,
            "block_s": block_s,
            "rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_bytes(),
        }

    def invoke(self, label: str, cli_args: list[str], trace_path: Path | None) -> dict:
        """One checked CLI invocation, traced when trace_path is given."""
        report = self.scratch / "report.json" if label == "all" else None
        args = cli_args + (["--json", str(report)] if report else [])
        if trace_path is None:
            argv = [sys.executable, "-c", ENTRY, *args]
        else:
            argv = [sys.executable, str(HERE / "layertrace.py"), str(trace_path), *args]
        if report:
            report.unlink(missing_ok=True)
        result = self.spawn(argv, stop=trace_path is None)
        problem = self.check(label, result, report)
        self.attempted += 1
        if problem:
            self.failed += 1
            tail = result["stderr"].decode(errors="replace").strip().splitlines()[-3:]
            print(f"FAILED {label}: {problem}; stderr: {' | '.join(tail)}", file=sys.stderr)
        result["ok"] = not problem
        return result

    def check(self, label: str, result: dict, report: Path | None) -> str | None:
        want = EXPECTED[label]
        if result["exit"] != want["exit"]:
            return f"exit code {result['exit']}, expected {want['exit']}"
        if hashlib.sha256(result["stdout"]).hexdigest() != want["stdout_sha256"]:
            return "stdout differs from the pinned output"
        if report is None:
            return None
        try:
            document = json.loads(report.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return f"unreadable --json report: {exc}"
        return check_report(document, want, self.multistruct_seed)

    def pass_(self, workload_invocations, trace_dir: Path | None) -> dict:
        results = []
        for k, (label, cli_args) in enumerate(workload_invocations):
            trace_path = trace_dir / f"{k}.json" if trace_dir else None
            results.append(self.invoke(label, cli_args, trace_path))
        summed = ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s")
        return {
            "ok": all(r["ok"] for r in results),
            **{key: sum(r[key] for r in results) for key in summed},
            "block_s": median(r["block_s"] for r in results),
            "peak_rss_mb": max(r["rss_mb"] for r in results),
        }


def check_report(document: dict, want: dict, multistruct_seed: str) -> str | None:
    """Record counts and digest of the --json report."""
    records = document.get("records", [])
    summary = document.get("summary", {})
    unmatched = sum(1 for rec in records if not rec.get("match"))
    if len(records) != want["records"] or summary.get("total") != want["records"]:
        return f"report has {len(records)} records, expected {want['records']}"
    if unmatched != want["discrepancies"] or summary.get("discrepancies") != unmatched:
        return f"report has {unmatched} discrepancies, expected {want['discrepancies']}"
    try:
        digest = report_digest(document, multistruct_seed)
    except ValueError as exc:
        return str(exc)
    if digest != want["report_sha256"]:
        return "report differs from the pinned report"
    return None


def report_digest(document: dict, multistruct_seed: str) -> str:
    """Digest of the report with its timestamp dropped.

    The wedge split-bundle record names the MULTISTRUCT_SEED it ran with; it
    must name the seed given, and is digested under the seed-0 text.
    """
    canonical = {key: value for key, value in document.items() if key != "timestamp"}
    canonical["records"] = [dict(rec) for rec in document.get("records", [])]
    for rec in canonical["records"]:
        if rec.get("claim_id") == "wedge/split-agreement":
            if rec.get("notes") != f"pairwise-sum oracle, seed {multistruct_seed}":
                raise ValueError(f"split-bundle record ran under another seed: {rec.get('notes')!r}")
            rec["notes"] = "pairwise-sum oracle, seed 0"
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def probe(env: dict) -> dict:
    """Environment of the children; fails when src/multistruct is not imported."""
    code = (
        "import json, os, sys, multistruct, multistruct._kernels as k; "
        "print(json.dumps({'backend': k.BACKEND, 'python': sys.version.split()[0], "
        "'package': os.path.dirname(os.path.abspath(multistruct.__file__))}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import multistruct from {ROOT / 'src'}: {proc.stderr.strip()}")
    found = json.loads(proc.stdout)
    if Path(found.pop("package")) != ROOT / "src" / "multistruct":
        raise RuntimeError(f"multistruct is not imported from {ROOT / 'src'}")
    found["nproc"] = len(os.sched_getaffinity(0))
    return found


def layer_metrics(trace_dir: Path) -> dict[str, float]:
    """Per-layer values of one traced pass, summed over its invocations."""
    sums: dict[str, dict[str, float]] = {}
    for path in sorted(trace_dir.glob("*.json")):
        layers = json.loads(path.read_text(encoding="utf-8"))["layers"]
        for name, values in layers.items():
            into = sums.setdefault(name, {})
            for key, value in values.items():
                into[key] = into.get(key, 0) + value

    def get(name, key):
        return sums.get(name, {}).get(key, 0)

    def ratio(name, key):
        calls = get(name, "calls")
        return get(name, key) / calls if calls else 0.0

    metrics = {}
    for name in TIMED_LAYERS:
        for key in ("calls", "self_s", "total_s"):
            metrics[f"{name}.{key}"] = get(name, key)
    rank = "kernels.bareiss_rank"
    for key in ("calls", "self_s", "entries"):
        metrics[f"{rank}.{key}"] = get(rank, key)
    metrics[f"{rank}.distinct_ratio"] = ratio(rank, "distinct")
    metrics[f"{rank}.full_rank_ratio"] = ratio(rank, "full_rank")
    cert = "graded.injectivity_certificate"
    metrics[f"{cert}.calls"] = get(cert, "calls")
    metrics[f"{cert}.total_s"] = get(cert, "total_s")
    metrics[f"{cert}.distinct_ratio"] = ratio(cert, "distinct")
    mul = "kernels.mul_int_dicts"
    for key in ("calls", "self_s", "term_products"):
        metrics[f"{mul}.{key}"] = get(mul, key)
    for runner in RUNNERS:
        metrics[f"cli.{runner}.total_s"] = get(f"cli.{runner}", "total_s")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = perf_counter()
    multistruct_seed, points = workload_inputs(seed)
    plan = invocations(workload, points)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MULTISTRUCT_SEED=multistruct_seed)
    environment = probe(env)
    # This process and every child run on one CPU, so that the calibration
    # measures the speed of the CPU the children run on.
    environment["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {environment["cpu"]})
    print("environment: " + json.dumps({**environment, "workload": workload, "seed": seed}))

    scratch = OUT / f"run-{os.getpid()}"
    trace_root = OUT / f"trace-{workload}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(env, scratch, multistruct_seed, started)
        setup = []

        def set_up():
            result = runner.spawn([sys.executable, "-c", "import multistruct.cli"])
            if result["exit"] != 0 or result["stdout"]:
                raise RuntimeError("importing multistruct.cli failed")
            setup.append(result["wall_s"])

        for _ in range(SETUP_SPAWNS):
            set_up()
        if trace:
            shutil.rmtree(trace_root, ignore_errors=True)
        plain, traced = [], []
        t_start = perf_counter()
        while True:
            t_round = perf_counter()
            set_up()
            plain.append(runner.pass_(plan, None))
            if trace:
                pass_dir = scratch / f"trace-{len(traced)}"
                pass_dir.mkdir()
                traced.append({**runner.pass_(plan, pass_dir), "layers": layer_metrics(pass_dir)})
                (pass_dir / "environment.json").write_text(json.dumps(environment))
                shutil.rmtree(trace_root, ignore_errors=True)
                shutil.move(str(pass_dir), str(trace_root))
            now = perf_counter()
            if now - t_start + (now - t_round) > seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    keys = ("wall_s", "cpu_s", "peak_rss_mb", "raw_wall_s", "raw_cpu_s", "block_s")
    for k, p in enumerate(plain):
        line = {key: round(p[key], 4) for key in keys}
        print(f"pass {k}: ok={p['ok']} {json.dumps(line)}")
    for k, p in enumerate(traced):
        print(f"traced pass {k}: ok={p['ok']} wall_s={p['wall_s']:.4f}")

    good = [p for p in plain if p["ok"]] or plain
    if trace:
        good_traced = [p for p in traced if p["ok"]] or traced
        values = {
            name: median([p["layers"][name] for p in good_traced])
            for name in good_traced[0]["layers"]
        }
        values["trace.overhead_s"] = (
            median([p["wall_s"] for p in good_traced]) - median([p["wall_s"] for p in good])
        )
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    else:
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "wall_s": {"value": median([p["wall_s"] for p in good]), "unit": "s"},
            "cpu_s": {"value": median([p["cpu_s"] for p in good]), "unit": "s"},
            "peak_rss_mb": {"value": median([p["peak_rss_mb"] for p in good]), "unit": "MB"},
        }
    print(
        f"samples: {len(setup)} setup spawns, {len(good)} of {len(plain)} untraced passes"
        + (f", {len(traced)} traced passes" if trace else "")
    )
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"replbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
