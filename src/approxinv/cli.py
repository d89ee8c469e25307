"""Batch scenario runner with deterministic CSV reports.

Configuration is a flat ``key = value`` text file with bracketed section
headers (every key documented in the README; unknown keys fail fast), and
the flags ``--config``, ``--scenario`` (repeatable), ``--seed``, ``--out``
and ``--list`` override file values.  Each scenario writes one CSV named
after it plus a shared ``summary.txt``; given the same seed and
configuration the CSV bytes are identical across runs except for the
elapsed-time column.

Exit status: 0 when every emitted row passes, 1 when any row fails, 2 on a
configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .errors import ConfigError

CSV_COLUMNS = (
    "scenario",
    "model",
    "statement_id",
    "net_index",
    "residual",
    "bound",
    "verdict",
    "elapsed_ms",
)


@dataclass(frozen=True)
class ReportRow:
    scenario: str
    model: str
    statement_id: str
    net_index: int
    residual: float
    bound: float
    verdict: str
    elapsed_ms: int

    def as_record(self) -> list[str]:
        return [
            self.scenario,
            self.model,
            self.statement_id,
            str(self.net_index),
            _format_float(self.residual),
            _format_float(self.bound),
            self.verdict,
            str(self.elapsed_ms),
        ]


def _format_float(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return f"{x:.12e}"


#: Highest witness frequency of the ``tdz`` scenario; a witness needs a
#: frequency below circle_samples/2.
TDZ_MAX_FREQUENCY = 64


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario needs: model sizes, net schedule, tolerances,
    seed and output directory."""

    seed: int = 1
    out: str = "results"
    scenarios: tuple[str, ...] = ()
    # model parameters
    circle_samples: int = 4096
    grid_points: int = 201
    grid_half_width: float = 10.0
    grid_tail_tol: float = 1e-3
    matrix_size: int = 16
    matrix_count: int = 10
    disk_angles: int = 2048
    disk_degree: int = 8
    disk_starts: int = 10_000
    module_exponent: float = 2.0
    # net schedule
    schedule: tuple[int, ...] = (8, 16, 32, 64, 128)
    # tolerances
    identity_tol: float = 1e-2
    exact_tol: float = 1e-9
    noise_sigma: float = 1e-3

    def validate(self) -> None:
        positive_ints = {
            "circle_samples": self.circle_samples,
            "grid_points": self.grid_points,
            "matrix_size": self.matrix_size,
            "matrix_count": self.matrix_count,
            "disk_angles": self.disk_angles,
            "disk_degree": self.disk_degree,
            "disk_starts": self.disk_starts,
        }
        for name, value in positive_ints.items():
            if value < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.grid_half_width <= 0 or self.grid_tail_tol <= 0:
            raise ConfigError("grid half width and tail tolerance must be positive")
        if self.module_exponent < 1:
            raise ConfigError("module exponent must satisfy p >= 1")
        if not self.schedule:
            raise ConfigError("net schedule must be non-empty")
        if self.schedule[0] < 1 or any(
            b <= a for a, b in zip(self.schedule, self.schedule[1:])
        ):
            raise ConfigError("net schedule must be strictly increasing and positive")
        if self.circle_samples // 2 <= TDZ_MAX_FREQUENCY:
            raise ConfigError(
                f"circle_samples must exceed {2 * TDZ_MAX_FREQUENCY}: tdz "
                f"evaluates witness frequencies up to {TDZ_MAX_FREQUENCY}"
            )
        if max(self.schedule) >= self.circle_samples // 2:
            raise ConfigError(
                f"net schedule order {max(self.schedule)} would alias on "
                f"circle_samples = {self.circle_samples}; orders must stay "
                f"below circle_samples/2"
            )
        if self.disk_angles < 1024:
            raise ConfigError("disk_angles must be at least 1024")
        if 2 * self.disk_degree >= self.disk_angles:
            raise ConfigError("disk_degree must stay below disk_angles/2")
        # c0's centered window family keeps a 2-cell ramp on each side of
        # the center cell
        if self.grid_points < 5:
            raise ConfigError("grid_points must be at least 5")
        for name, value in (
            ("identity_tol", self.identity_tol),
            ("exact_tol", self.exact_tol),
        ):
            if value <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")


_INT = ("int", int)
_FLOAT = ("float", float)
_STR = ("str", str)
_SCHEDULE = ("schedule", None)
_NAMES = ("names", None)

#: section -> key -> (kind, parser); the documented configuration surface.
CONFIG_KEYS: dict[str, dict[str, tuple]] = {
    "run": {"seed": _INT, "out": _STR, "scenarios": _NAMES},
    "models": {
        "circle_samples": _INT,
        "grid_points": _INT,
        "grid_half_width": _FLOAT,
        "grid_tail_tol": _FLOAT,
        "matrix_size": _INT,
        "matrix_count": _INT,
        "disk_angles": _INT,
        "disk_degree": _INT,
        "disk_starts": _INT,
        "module_exponent": _FLOAT,
    },
    "nets": {"schedule": _SCHEDULE},
    "tolerances": {
        "identity_tol": _FLOAT,
        "exact_tol": _FLOAT,
        "noise_sigma": _FLOAT,
    },
}


def _parse_schedule(text: str) -> tuple[int, ...]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    try:
        return tuple(int(piece) for piece in items)
    except ValueError as err:
        raise ConfigError(f"bad schedule entry: {err}") from None


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(piece.strip() for piece in text.split(",") if piece.strip())


def load_config(path: Optional[str]) -> ScenarioConfig:
    """Parse the configuration file, rejecting unknown sections or keys."""
    config = ScenarioConfig()
    if path is None:
        return config
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    except configparser.Error as err:
        raise ConfigError(f"malformed config file: {err}") from None

    updates: dict[str, object] = {}
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            kind, cast = CONFIG_KEYS[section][key]
            try:
                if kind == "schedule":
                    updates[key] = _parse_schedule(raw)
                elif kind == "names":
                    updates[key] = _parse_names(raw)
                else:
                    updates[key] = cast(raw)
            except ConfigError:
                raise
            except ValueError:
                raise ConfigError(
                    f"cannot parse {key} = {raw!r} as {kind}"
                ) from None
    return replace(config, **updates)


def derive_seed(master: int, scenario: str) -> int:
    """Per-scenario stream: master seed XOR a stable hash of the name."""
    digest = hashlib.sha256(scenario.encode("utf-8")).digest()
    return (master ^ int.from_bytes(digest[:8], "big")) % 2**64


def write_csv(path: Path, rows: Sequence[ReportRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.as_record())


def run_scenario(name: str, config: ScenarioConfig) -> list[ReportRow]:
    """Execute one registered scenario and write its CSV report."""
    from . import scenarios

    if name not in scenarios.REGISTRY:
        raise ConfigError(f"unknown scenario {name!r}")
    config.validate()
    rows = scenarios.REGISTRY[name].run(config, derive_seed(config.seed, name))
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / f"{name}.csv", rows)
    return rows


def list_scenarios() -> list[tuple[str, tuple[str, ...], str]]:
    """(name, statement ids, description) in stable registry order."""
    from . import scenarios

    return [
        (name, spec.statements, spec.description)
        for name, spec in scenarios.REGISTRY.items()
    ]


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="approxinv-lab",
        description="Run verification scenarios and emit CSV reports.",
    )
    parser.add_argument("--config", metavar="PATH", help="configuration file")
    parser.add_argument(
        "--scenario",
        metavar="NAME",
        action="append",
        default=None,
        help="scenario to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=None, metavar="U64")
    parser.add_argument("--out", default=None, metavar="DIR")
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from . import scenarios

    args = _build_argparser().parse_args(argv)
    if args.list:
        for name, statements, description in list_scenarios():
            print(f"{name}: {description} [{', '.join(statements)}]")
        return 0
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.out is not None:
            config = replace(config, out=args.out)
        if args.scenario is not None:
            config = replace(config, scenarios=tuple(args.scenario))
        names = config.scenarios or tuple(scenarios.REGISTRY)
        for name in names:
            if name not in scenarios.REGISTRY:
                raise ConfigError(f"unknown scenario {name!r}")
        config.validate()
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    failures: dict[str, int] = {}
    counts: dict[str, int] = {}
    for name in names:
        rows = run_scenario(name, config)
        counts[name] = len(rows)
        failures[name] = sum(row.verdict == "fail" for row in rows)

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for name in names:
        status = "PASS" if failures[name] == 0 else "FAIL"
        lines.append(
            f"{name}: {status} ({counts[name]} rows, {failures[name]} failures)"
        )
    overall = "PASS" if sum(failures.values()) == 0 else "FAIL"
    lines.append(f"overall: {overall}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0 if overall == "PASS" else 1


def entry() -> None:
    raise SystemExit(main())
