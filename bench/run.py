"""Benchmark of the ``approxinv-lab`` runs users wait on.

    python3 bench/run.py --workload lab-default --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed.  Each workload (see
``workloads.py``) runs closed loop in one fresh worker process, with
``--out`` set to a temporary directory under ``.bench_out``.  Workers and
set-up probes run with one BLAS thread (see ``BLAS_THREAD_VARS``).

``--trace 0`` reports the end-to-end metrics: the median pass time, the
median set-up time of fresh interpreters, the worker's peak RSS, the share
of invocations that passed every output check, and the disk-search gap
relative to the reference.  ``--trace 1`` runs an untraced and a traced
worker, half of ``--seconds`` each, and reports per-layer self time, calls
and escaped exceptions, per-function figures, per-scenario times, the
tracing overhead and the count of CSV rows that differ from the reference.

Seeds: develop a performance claim on seed 1 and confirm it on seed 2,
which the claim's author must not have looked at while writing the change.

Human-readable lines come first, one ``<workload> <metric> <value> <unit>``
line per metric plus an ``env`` record; the last line is one JSON object.
The exit status is 0 when the benchmark ran (even if an invocation failed,
which shows as ``correct: false``) and non-zero when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads
from spans import LAYERS, layer_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_out"

SETUP_PROBES = 7
SETUP_IMPORT = "import approxinv.cli, approxinv.scenarios"
#: A run must end within this many seconds of starting.
RUN_DEADLINE_S = 170.0
#: Set to 1 for every child.  With its default of one thread per core,
#: OpenBLAS keeps a second thread spinning through the n = 24 operator
#: invocations (about 12 s of CPU for 6.7 s of wall time, no faster than one
#: thread), so their wall time follows whatever else runs on the other core:
#: on a 2-vCPU Xeon guest, one busy process there made them 59% slower with
#: two threads and 19% slower with one.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "search_gap_rel": "ratio",
}

#: Per-function figures, ``<layer>.<function>.<calls|self_s>``.
FUNCTION_METRICS = (
    "operators.svd.calls",
    "operators.svd.self_s",
    "operators.singular_values.calls",
    "operators.singular_values.self_s",
    "operators.min_pure_state_norm.self_s",
    "disk.minimize_annulus_deviation.self_s",
    "disk.minimize_product_deviation.self_s",
    "core.check_approximate_identity.calls",
    "core.check_approximate_identity.self_s",
    "core.check_approx_invertible.calls",
    "c0.certify.self_s",
    "c0.sup_norm.calls",
    "wiener.l1_norm.calls",
    "wiener.l1_norm.self_s",
    "wiener.convolve.calls",
    "wiener.wiener_division.self_s",
    "banach_module.deconvolve.self_s",
    "cli.write_csv.self_s",
    "cli.load_config.self_s",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.errors"] = "count"
    units["unattributed.self_s"] = "s"
    for name in FUNCTION_METRICS:
        units[name] = "s" if name.endswith("_s") else "count"
    units["disk.screen_points"] = "count"
    units["disk.search_gap"] = "ratio"
    for scenario in workloads.ALL_SCENARIOS:
        units[f"scenarios.{scenario}.s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.base_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["check.rows_checked"] = "count"
    units["check.rows_changed"] = "count"
    return units


class BenchError(Exception):
    """The benchmark itself could not run."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run deadline passed")
    return left


def measure_setup(deadline: float) -> float:
    """Median wall time from starting a fresh interpreter to having the CLI
    and the scenarios imported."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_IMPORT],
            cwd=ROOT, env=child_env(), timeout=remaining(deadline),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"importing the package failed:\n{proc.stderr}")
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    WORKDIR.mkdir(exist_ok=True)
    result_file = WORKDIR / f"result-{workload}-{seed}-{int(trace)}.json"
    result_file.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--workdir", str(WORKDIR), "--result", str(result_file),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=remaining(deadline))
    if proc.returncode != 0 or not result_file.is_file():
        raise BenchError(f"worker for {workload} exited with status {proc.returncode}")
    result = json.loads(result_file.read_text(encoding="utf-8"))
    if Path(result["package"]) != (SRC / "approxinv").resolve():
        raise BenchError(f"worker imported approxinv from {result['package']}, not {SRC}")
    return result


def search_gap(values: list[float]) -> float:
    """Mean found minimum of the disk searches minus the known optimum 1."""
    return statistics.fmean(values) - 1.0


def end_to_end(workload: str, seed: int, run: dict, setup_s: float, reference: dict) -> dict:
    if run["search"]:
        ref = reference["search"][f"{workload}/{workloads.input_set(seed)}"]
        gap_rel = search_gap(run["search"]) / search_gap(ref)
    else:
        gap_rel = 1.0  # no search ran, so none could get worse
    return {
        "wall_s": statistics.median(run["walls"]),
        "setup_s": setup_s,
        "peak_rss_mb": run["maxrss_mb"],
        "ok_frac": (run["attempted"] - run["failed"]) / run["attempted"],
        "search_gap_rel": gap_rel,
    }


def per_layer(base: dict, traced: dict) -> dict:
    """Per-pass means over the traced worker's passes.  The eight layer
    self times plus ``unattributed.self_s`` sum to ``trace.wall_s``; the
    untraced worker gives ``trace.base_wall_s``."""
    passes = len(traced["walls"])
    summary = traced["trace"]
    functions = summary["functions"]
    values: dict[str, float] = {}
    attributed = 0.0
    for layer in LAYERS:
        members = [f for name, f in functions.items() if layer_of(name) == layer]
        self_s = sum(f["self_s"] for f in members)
        attributed += self_s
        values[f"{layer}.self_s"] = self_s / passes
        values[f"{layer}.calls"] = sum(f["calls"] for f in members) / passes
        values[f"{layer}.errors"] = sum(f["errors"] for f in members) / passes
    traced_wall = sum(traced["walls"])
    values["unattributed.self_s"] = (traced_wall - attributed) / passes
    for name in FUNCTION_METRICS:
        function, _, field = name.rpartition(".")
        values[name] = functions.get(function, {}).get(field, 0) / passes
    values["disk.screen_points"] = traced["screen_points"]
    values["disk.search_gap"] = search_gap(traced["search"]) if traced["search"] else 0.0
    for scenario in workloads.ALL_SCENARIOS:
        values[f"scenarios.{scenario}.s"] = summary["scenarios"].get(scenario, 0.0) / passes
    values["trace.wall_s"] = traced_wall / passes
    values["trace.base_wall_s"] = statistics.fmean(base["walls"])
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.base_wall_s"]
    values["check.rows_checked"] = traced["rows_checked"]
    values["check.rows_changed"] = max(base["rows_changed"], traced["rows_changed"])
    return values


def environment(library: dict) -> dict:
    """Interpreter, numpy/BLAS, the workers' thread settings, CPU model and
    cache sizes: enough to tell whether the M = 262144 working set (4 MiB of
    complex coefficients) still exceeds L2 on another machine."""
    record = dict(library)
    record["threads_env"] = {k: v for k, v in child_env().items() if k.endswith("_NUM_THREADS")}
    record["nproc"] = len(os.sched_getaffinity(0))
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    record["caches"] = caches
    record["large_circle_coeff_bytes"] = workloads.LARGE_CIRCLE_SAMPLES * 16
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: dict):
    """One workload's metrics, and the worker result that holds its counts."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not trace:
        setup_s = measure_setup(deadline)
        run = run_worker(workload, seed, seconds, False, deadline)
        metrics, units = end_to_end(workload, seed, run, setup_s, reference), END_TO_END
        runs = [run]
    else:
        base = run_worker(workload, seed, seconds / 2, False, deadline)
        traced = run_worker(workload, seed, seconds / 2, True, deadline)
        metrics, units = per_layer(base, traced), per_layer_units()
        runs = [base, traced]
    for name, value in metrics.items():
        print(f"{workload} {name} {value:.6g} {units[name]}")
    if not trace:
        print(f"{workload} check.rows_changed {run['rows_changed']} of {run['rows_checked']} rows")
    for result in runs:
        for reason in result["reasons"]:
            print(f"{workload} failure {reason}")
    return metrics, units, runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # probe or worker that is running instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if not (SRC / "approxinv" / "__init__.py").is_file():
            raise BenchError(f"no approxinv sources under {SRC}; run from a source checkout")
        if not check.REFERENCE.is_file():
            raise BenchError(f"{check.REFERENCE} is missing; run bench/record_reference.py")
        reference = check.load_reference()
        names = list(workloads.PLANS) if args.workload == "all" else [args.workload]
        report = {}
        attempted = failed = 0
        for name in names:
            metrics, units, runs = measure(name, args.seed, args.seconds, bool(args.trace), reference)
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, value in metrics.items():
                report[prefix + metric] = {"value": value, "unit": units[metric]}
            attempted += sum(run["attempted"] for run in runs)
            failed += sum(run["failed"] for run in runs)
        print("env " + json.dumps(environment(runs[-1]["library"]), sort_keys=True))
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
