"""Tests of the benchmark harness itself (not of approxinv).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, parent, start, end, raised=False):
    return (name, parent, start, end, raised)


def test_self_time_subtracts_direct_children_only():
    trace = [
        span("cli.main", -1, 0.0, 10.0),
        span("cli.run_scenario", 0, 1.0, 9.0),
        span("scenarios.fejer", 1, 1.5, 7.0),
        span("wiener.l1_norm", 2, 2.0, 3.0),
        span("cli.write_csv", 1, 7.5, 8.5),
    ]
    assert spans.self_times(trace) == pytest.approx([2.0, 1.5, 4.5, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    trace = [
        span("a.root", -1, 0.0, 10.0),
        span("a.x", 0, 1.0, 5.0),
        span("a.y", 0, 3.0, 6.0),
        span("a.z", 0, 4.0, 4.5),
        span("a.w", 0, 9.0, 12.0),
    ]
    assert spans.self_times(trace)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_summarize_totals_and_scenario_spans():
    trace = [
        span("cli.main", -1, 0.0, 10.0),
        span("cli.run_scenario", 0, 1.0, 9.0),
        span("scenarios.fejer", 1, 1.5, 7.0),
        span("wiener.wiener_division", 2, 2.0, 3.0, True),
        span("cli.write_csv", 1, 7.5, 8.5),
        span("cli.main", -1, 11.0, 12.0),
    ]
    summary = spans.summarize(trace)
    assert summary["scenarios"] == {"fejer": pytest.approx(7.0)}
    assert summary["functions"]["cli.main"]["calls"] == 2
    assert summary["functions"]["wiener.wiener_division"]["errors"] == 1
    total_self = sum(f["self_s"] for f in summary["functions"].values())
    roots = sum(end - start for _, parent, start, end, _ in trace if parent < 0)
    assert roots == pytest.approx(11.0)
    assert total_self == pytest.approx(roots)


def test_tracer_records_parents_and_escaped_exceptions():
    tracer = spans.Tracer()

    def fail():
        raise ValueError("expected")

    outer = tracer.wrap(lambda: inner(), "core.outer")
    inner = tracer.wrap(fail, "core.inner")
    with pytest.raises(ValueError):
        outer()
    assert [(s[0], s[1], s[4]) for s in tracer.spans] == [
        ("core.outer", -1, True),
        ("core.inner", 0, True),
    ]


def test_install_patches_every_rebinding():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import approxinv, spans; from approxinv import c0, core, operators, wiener;"
        "spans.Tracer().install();"
        "fns = {m.check_approx_invertible for m in (c0, core, operators, wiener, approxinv)};"
        "assert len(fns) == 1, fns;"
        "assert fns.pop().__wrapped__.__module__ == 'approxinv.core';"
        "assert approxinv.banach_module.convolve is wiener.convolve"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(BENCH)], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def write_output(directory: Path, residual: str, verdict: str = "pass") -> None:
    rows = [
        check.CSV_COLUMNS,
        ("tdz", "l1-circle-64", "witness-value", "1", residual, "inf", verdict, "3"),
        ("tdz", "l1-circle-64", "witness-value", "2", "2.500000000000e-01", "inf", verdict, "4"),
    ]
    (directory / "tdz.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    overall = "PASS" if verdict == "pass" else "FAIL"
    (directory / "summary.txt").write_text(f"tdz: {overall}\noverall: {overall}\n")


def test_check_flags_a_changed_residual(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    write_output(tmp_path / "a", "5.000000000000e-01")
    write_output(tmp_path / "b", "5.000000000001e-01")
    first = check.inspect_outputs(tmp_path / "a", ("tdz",), 0)
    second = check.inspect_outputs(tmp_path / "b", ("tdz",), 0)
    assert first.ok and second.ok
    assert check.rows_changed(first.digests["tdz"], first.digests["tdz"]) == 0
    assert check.rows_changed(first.digests["tdz"], second.digests["tdz"]) == 1
    assert check.rows_changed(first.digests["tdz"], first.digests["tdz"][:1]) == 1
    assert check.rows_changed(None, second.digests["tdz"]) == 2


def test_elapsed_ms_is_not_part_of_a_row_digest():
    record = list(("tdz", "m", "s", "1", "1e0", "inf", "pass", "3"))
    assert check.row_digest(record) == check.row_digest(record[:-1] + ["999"])


def test_check_fails_failed_rows_missing_files_and_bad_status(tmp_path):
    write_output(tmp_path, "5.000000000000e-01", verdict="fail")
    outcome = check.inspect_outputs(tmp_path, ("tdz", "fejer"), 1)
    text = " | ".join(outcome.reasons)
    assert "exit status 1" in text
    assert "overall: PASS" in text
    assert "fejer.csv missing" in text
    assert "tdz: witness-value[1] fail" in text


def test_plans_are_seeded_and_split_the_layers():
    assert workloads.plan("circle-batch", 3) == workloads.plan("circle-batch", 3)
    assert workloads.plan("lab-default", 3) != workloads.plan("lab-default", 4)
    assert workloads.plan("lab-default", 3) == workloads.plan(
        "lab-default", 3 + workloads.INPUT_SETS
    )
    circle = {name for inv in workloads.plan("circle-batch", 0) for name in inv.scenarios}
    assert circle.isdisjoint({"um-net", "pure-state", "disk13"})
    sweep = {name for inv in workloads.plan("operators-sweep", 0) for name in inv.scenarios}
    assert sweep == {"um-net", "pure-state"}


def test_children_run_with_one_blas_thread():
    env = run.child_env()
    assert all(env[name] == "1" for name in run.BLAS_THREAD_VARS)
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(run.SRC)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.PLANS)


def test_reference_covers_every_input_set():
    reference = check.load_reference()
    assert reference["input_sets"] == workloads.INPUT_SETS
    for workload in workloads.PLANS:
        for seed in range(workloads.INPUT_SETS):
            plan = workloads.plan(workload, seed)
            recorded = reference["runs"][f"{workload}/{seed}"]
            expected = {f"{i}:{name}" for i, inv in enumerate(plan) for name in inv.scenarios}
            assert set(recorded) == expected
    assert set(reference["search"]) == {
        f"lab-default/{seed}" for seed in range(workloads.INPUT_SETS)
    }
