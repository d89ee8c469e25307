"""Record ``reference.json``: the deterministic CSV rows of every workload
on every input set, at the current commit.

    PYTHONPATH=src python3 bench/record_reference.py

Each invocation runs once and must pass its output check.  Rows are stored
as digests of every column but ``elapsed_ms``; identical CSVs are stored
once.  The disk-search residuals are kept in full, as the base of
``search_gap_rel``.  Re-record only when a change moves rows on purpose,
and say which rows moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import workloads
from check import REFERENCE
from worker import invoke, prepare


def main() -> int:
    from approxinv import cli

    workdir = Path(__file__).resolve().parents[1] / ".bench_out" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    rows: dict[str, list[str]] = {}
    runs: dict[str, dict[str, str]] = {}
    search: dict[str, list[float]] = {}
    for workload in workloads.PLANS:
        for seed in range(workloads.INPUT_SETS):
            key = f"{workload}/{seed}"
            plan = workloads.plan(workload, seed)
            runs[key] = {}
            found: list[float] = []
            for index, (invocation, argv) in enumerate(zip(plan, prepare(plan, workdir))):
                _, outcome = invoke(cli, argv, invocation.scenarios, workdir)
                if not outcome.ok:
                    print(f"{key} invocation {index} failed: {outcome.reasons}", file=sys.stderr)
                    return 1
                for name, digests in outcome.digests.items():
                    csv_digest = hashlib.sha256(" ".join(digests).encode()).hexdigest()[:12]
                    rows[csv_digest] = digests
                    runs[key][f"{index}:{name}"] = csv_digest
                found.extend(outcome.search)
            if found:
                search[key] = found
            print(key, file=sys.stderr, flush=True)
    data = {"input_sets": workloads.INPUT_SETS, "runs": runs, "search": search, "rows": rows}
    REFERENCE.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
