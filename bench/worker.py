"""One workload in one fresh process: closed-loop passes over its plan.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --result FILE

A pass runs every invocation of the plan one after another through
``approxinv.cli.main``; passes repeat until the next one would end after
``--seconds`` (at least one pass runs).  Only the ``cli.main`` calls are
timed; writing config files, checking outputs and removing the output
directories happen outside the timed region.  No warm-up pass runs, so
lazy set-up is charged to the first pass as it is to a CLI user.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import check
import spans
import workloads

def prepare(plan, workdir: Path) -> list[list[str]]:
    """Write the plan's config files; return each invocation's argv
    without ``--out``."""
    paths: dict[str, Path] = {}
    argvs = []
    for invocation in plan:
        argv = list(invocation.args)
        if invocation.config is not None:
            if invocation.config not in paths:
                path = workdir / f"config-{len(paths)}.cfg"
                path.write_text(invocation.config, encoding="utf-8")
                paths[invocation.config] = path
            argv = ["--config", str(paths[invocation.config])] + argv
        argvs.append(argv)
    return argvs


def invoke(cli, argv: list[str], scenarios: tuple[str, ...], workdir: Path):
    """Run one invocation into a fresh output directory; returns its wall
    time and its checked :class:`check.Outcome`."""
    out = Path(tempfile.mkdtemp(prefix="out-", dir=workdir))
    try:
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                status = cli.main(argv + ["--out", str(out)])
        except SystemExit as err:
            status = err.code
        except Exception as err:  # a crash is a failed invocation, not a crashed benchmark
            status = type(err).__name__
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        return elapsed, check.inspect_outputs(out, scenarios, status)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_passes(cli, plan, argvs, workdir: Path, seconds: float, reference: dict) -> dict:
    walls: list[float] = []
    attempted = failed = rows_checked = changed = 0
    reasons: list[str] = []
    search: list[float] = []
    begin = time.perf_counter()
    while not walls or (
        time.perf_counter() - begin + statistics.median(walls) <= seconds
    ):
        wall = 0.0
        pass_changed = pass_checked = 0
        pass_search: list[float] = []
        for index, (invocation, argv) in enumerate(zip(plan, argvs)):
            elapsed, outcome = invoke(cli, argv, invocation.scenarios, workdir)
            wall += elapsed
            attempted += 1
            if not outcome.ok:
                failed += 1
                reasons.extend(f"invocation {index}: {r}" for r in outcome.reasons)
            for name, digests in outcome.digests.items():
                pass_checked += len(digests)
                pass_changed += check.rows_changed(reference.get(f"{index}:{name}"), digests)
            pass_search.extend(outcome.search)
        walls.append(wall)
        rows_checked = pass_checked
        changed = max(changed, pass_changed)
        search = pass_search
    return {
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:20],
        "rows_checked": rows_checked,
        "rows_changed": changed,
        "search": search,
    }


def library_record() -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout differs across numpy versions
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    import approxinv
    from approxinv import cli, disk

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    plan = workloads.plan(args.workload, args.seed)
    argvs = prepare(plan, args.workdir)
    reference = check.reference_digests(check.load_reference(), args.workload, args.seed)
    result = run_passes(cli, plan, argvs, args.workdir, args.seconds, reference)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["package"] = str(Path(approxinv.__file__).resolve().parent)
    result["library"] = library_record()
    angles = cli.ScenarioConfig().disk_angles  # disk13 runs at the defaults
    result["screen_points"] = sum(
        len(disk.CircleSampling(angles).annulus)
        for invocation in plan
        if "disk13" in invocation.scenarios
    )
    if tracer is not None:
        result["trace"] = spans.summarize(tracer.spans)
        span_file = args.workdir / f"spans-{args.workload}-{args.seed}.json"
        names = sorted({s[0] for s in tracer.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(span_file, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "columns": ["name", "parent", "start", "end", "raised"],
                    "names": names,
                    "spans": [[index[s[0]], s[1], s[2], s[3], int(s[4])] for s in tracer.spans],
                },
                handle,
            )
        result["span_file"] = str(span_file)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
