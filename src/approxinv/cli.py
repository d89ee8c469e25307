"""Batch scenario runner with deterministic CSV reports.

Configuration is a flat ``key = value`` text file with bracketed section
headers and ``;`` comments, inline ones included (every key documented in
the README; unknown keys fail fast), and the flags ``--config``,
``--scenario`` (repeatable; a repeated name runs once), ``--seed``,
``--out`` and ``--list`` override file values.  Each scenario writes one
CSV named after it plus a shared ``summary.txt``; given the same seed and
configuration the CSV bytes are identical across runs except for the
elapsed-time column.

Exit status: 0 when every emitted row passes, 1 when any row fails or a
scenario raises, 2 on a configuration error (an output directory that
cannot be created and a ``summary.txt`` that cannot be written included).
A scenario that raises is recorded as ``<name>: ERROR (<ExceptionType>)``
in ``summary.txt`` and on stderr, and the remaining scenarios still run.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import sys
from dataclasses import fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence, get_args, get_origin, get_type_hints

from . import scenarios
from .errors import ConfigError
from .scenarios import ReportRow, ScenarioConfig

#: The CSV header: ``ReportRow``'s fields in declaration order.
CSV_COLUMNS = tuple(field.name for field in fields(ReportRow))


#: section -> keys: the documented configuration surface.  Every key is a
#: ``ScenarioConfig`` field and parses as that field's type; tuples are
#: comma lists of their item type.
CONFIG_SECTIONS: dict[str, tuple[str, ...]] = {
    "run": ("seed", "out", "scenarios"),
    "models": (
        "circle_samples",
        "grid_points",
        "grid_half_width",
        "grid_tail_tol",
        "matrix_size",
        "matrix_count",
        "disk_angles",
        "disk_degree",
        "module_exponent",
    ),
    "nets": ("schedule",),
    "tolerances": ("identity_tol", "exact_tol", "noise_sigma"),
}

_FIELD_TYPES = get_type_hints(ScenarioConfig)


def _parse_value(key: str, raw: str):
    """``raw`` as the type of field ``key``; a tuple is a comma list."""
    kind = _FIELD_TYPES[key]
    is_list = get_origin(kind) is tuple
    cast = get_args(kind)[0] if is_list else kind
    try:
        if is_list:
            return tuple(cast(piece.strip()) for piece in raw.split(",") if piece.strip())
        return cast(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {raw!r} as {cast.__name__}") from None


def load_config(path: Optional[str]) -> ScenarioConfig:
    """Parse the configuration file, rejecting unknown sections or keys."""
    config = ScenarioConfig()
    if path is None:
        return config
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";",)
    )
    parser.optionxform = str  # keys match case-sensitively, like sections
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file is not valid UTF-8: {err}") from None
    except configparser.Error as err:
        raise ConfigError(f"malformed config file: {err}") from None

    # configparser keeps [DEFAULT] out of sections() and merges its keys
    # into every other section, so they would bypass the checks below
    for key in parser.defaults():
        raise ConfigError(f"unknown key {key!r} in section [DEFAULT]")
    updates: dict[str, object] = {}
    for section in parser.sections():
        if section not in CONFIG_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in CONFIG_SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            updates[key] = _parse_value(key, raw)
    return replace(config, **updates)


def derive_seed(master: int, scenario: str) -> int:
    """Per-scenario stream: master seed XOR a stable hash of the name."""
    digest = hashlib.sha256(scenario.encode("utf-8")).digest()
    return (master ^ int.from_bytes(digest[:8], "big")) % 2**64


def write_csv(path: Path, rows: Sequence[ReportRow]) -> None:
    values = attrgetter(*CSV_COLUMNS)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([f"{v:.12e}" if isinstance(v, float) else str(v) for v in values(row)])


def run_scenario(name: str, config: ScenarioConfig) -> list[ReportRow]:
    """Run one registered scenario with its derived seed and write its CSV
    report into ``config.out``.  ``main`` checks the name and the config
    and creates the directory, once per run."""
    rows = scenarios.REGISTRY[name].run(config, derive_seed(config.seed, name))
    write_csv(Path(config.out) / f"{name}.csv", rows)
    return rows


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
    args = _build_argparser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.out is not None:
            config = replace(config, out=args.out)
        if args.scenario is not None:
            config = replace(config, scenarios=tuple(args.scenario))
        # a repeated name runs once, in the order it was first named
        names = tuple(dict.fromkeys(config.scenarios or scenarios.REGISTRY))
        for name in names:
            if name not in scenarios.REGISTRY:
                raise ConfigError(f"unknown scenario {name!r}")
        config.validate()
        out_dir = Path(config.out)
        if not args.list:
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as err:
                raise ConfigError(f"cannot create output directory: {err}") from None
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    if args.list:
        for name, spec in scenarios.REGISTRY.items():
            print(f"{name}: {spec.description} [{', '.join(spec.statements)}]")
        return 0

    lines = []
    failed = False
    for name in names:
        try:
            rows = run_scenario(name, config)
        except Exception as err:  # one broken scenario must not lose the others
            line = f"{name}: ERROR ({type(err).__name__})"
            print(line, file=sys.stderr)
            lines.append(line)
            failed = True
            continue
        failures = sum(row.verdict == "fail" for row in rows)
        failed = failed or failures > 0
        status = "PASS" if failures == 0 else "FAIL"
        lines.append(f"{name}: {status} ({len(rows)} rows, {failures} failures)")

    overall = "FAIL" if failed else "PASS"
    lines.append(f"overall: {overall}")
    print("\n".join(lines))
    try:
        (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as err:
        print(f"config error: cannot write summary: {err}", file=sys.stderr)
        return 2
    return 0 if overall == "PASS" else 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
