"""Output check for one ``approxinv-lab`` invocation.

An invocation fails on a non-zero exit, an escaped exception, a missing or
malformed CSV, a row whose verdict is not ``pass``, or a ``summary.txt``
without ``overall: PASS``.  Separately, the deterministic CSV columns (all
but ``elapsed_ms``) are digested row by row so that a run can be compared
against the reference recorded in ``reference.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import workloads

#: Written by ``record_reference.py``: row digests per workload and input
#: set, and the disk-search residuals of ``lab-default``.
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: The CSV schema pinned in the README.
CSV_COLUMNS = (
    "scenario", "model", "statement_id", "net_index",
    "residual", "bound", "verdict", "elapsed_ms",
)
#: Disk-search rows whose residual is the found minimum (optimum: 1).
SEARCH_ROWS = ("annulus-found-minimum", "product-found-minimum")


@dataclass
class Outcome:
    """What one invocation produced: failure reasons (empty when it
    passed), the digests of its deterministic rows per scenario, and the
    residuals of its disk-search rows."""

    reasons: list[str] = field(default_factory=list)
    digests: dict[str, list[str]] = field(default_factory=dict)
    search: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.reasons


def row_digest(record: list[str]) -> str:
    """Digest of a CSV record without its trailing ``elapsed_ms`` field."""
    text = ",".join(record[: len(CSV_COLUMNS) - 1])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def inspect_outputs(out_dir: Path, scenarios: tuple[str, ...], status) -> Outcome:
    """Check the files one invocation wrote to ``out_dir``; ``status`` is
    its exit code, or an exception name when one escaped."""
    outcome = Outcome()
    if status != 0:
        outcome.reasons.append(f"exit status {status}")
    summary = out_dir / "summary.txt"
    if not summary.is_file():
        outcome.reasons.append("summary.txt missing")
    elif "overall: PASS" not in summary.read_text(encoding="utf-8").splitlines():
        outcome.reasons.append("summary.txt lacks 'overall: PASS'")
    for name in scenarios:
        path = out_dir / f"{name}.csv"
        if not path.is_file():
            outcome.reasons.append(f"{name}.csv missing")
            continue
        with open(path, encoding="utf-8", newline="") as handle:
            records = list(csv.reader(handle))
        if not records or tuple(records[0]) != CSV_COLUMNS:
            outcome.reasons.append(f"{name}.csv header differs from the schema")
            continue
        rows = records[1:]
        if not rows:
            outcome.reasons.append(f"{name}.csv has no rows")
        for record in rows:
            if len(record) != len(CSV_COLUMNS) or record[0] != name:
                outcome.reasons.append(f"{name}.csv has a malformed row")
                break
            if record[6] != "pass":
                outcome.reasons.append(f"{name}: {record[2]}[{record[3]}] {record[6]}")
            if record[2] in SEARCH_ROWS:
                outcome.search.append(float(record[4]))
        outcome.digests[name] = [row_digest(record) for record in rows]
    return outcome


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def reference_digests(reference: dict, workload: str, seed: int) -> dict[str, list[str]]:
    """The recorded row digests of this workload's input set, keyed
    ``"<invocation index>:<scenario>"``."""
    runs = reference["runs"].get(f"{workload}/{workloads.input_set(seed)}", {})
    return {name: reference["rows"][digest] for name, digest in runs.items()}


def rows_changed(reference: list[str] | None, digests: list[str]) -> int:
    """Rows that differ from the reference, position by position; rows
    present on one side only count as changed.  Without a reference every
    row counts as changed."""
    if reference is None:
        return len(digests)
    changed = sum(a != b for a, b in zip(reference, digests))
    return changed + abs(len(reference) - len(digests))
