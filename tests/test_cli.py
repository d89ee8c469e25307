import csv
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from approxinv import banach_module as bm
from approxinv import c0, cli, disk, operators, scenarios, wiener
from approxinv.errors import ConfigError

from .support import PeriodFourSampling

FAST_ARGS = [
    "--scenario", "fejer",
    "--scenario", "um-net",
    "--scenario", "tdz",
]


def _fast_config(tmp_path, extra=""):
    path = tmp_path / "lab.cfg"
    path.write_text(
        "[models]\n"
        "circle_samples = 512\n"
        "matrix_size = 6\n"
        "matrix_count = 3\n"
        "[nets]\n"
        "schedule = 8,16,32,64,128\n"
        + extra,
        encoding="utf-8",
    )
    return str(path)


def _strip_elapsed(text: str) -> list[str]:
    rows = [line.rsplit(",", 1)[0] for line in text.splitlines()]
    return rows


def test_registry_matches_documented_names():
    assert list(scenarios.REGISTRY) == [
        "fejer",
        "wiener-division",
        "um-net",
        "pure-state",
        "c0-interior",
        "disk13",
        "deconv",
        "tdz",
    ]
    for name, spec in scenarios.REGISTRY.items():
        assert spec.statements, name
        assert spec.description, name


def _readme_statements() -> dict[str, list[str]]:
    """The README scenario table as {scenario: statement ids}, each
    ``{a,b}`` brace list expanded in place."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text(encoding="utf-8").split(
        "### Scenarios and statement identifiers", 1
    )[1].split("\n### ", 1)[0]
    documented = {}
    for line in table.splitlines():
        if not line.startswith("| `"):
            continue
        name, ids = line.split("|")[1:3]
        expanded = []
        for statement in re.findall(r"`([^`]+)`", ids):
            stem, brace, tail = statement.partition("{")
            choices, _, rest = tail.partition("}")
            expanded.extend(
                [stem + choice + rest for choice in choices.split(",")] if brace else [statement]
            )
        documented[name.strip(" `")] = expanded
    return documented


def test_registered_statements_match_emitted_and_documented(tmp_path):
    config = replace(cli.load_config(_fast_config(tmp_path)), out=str(tmp_path / "o"))
    (tmp_path / "o").mkdir()
    documented = _readme_statements()
    assert list(documented) == list(scenarios.REGISTRY)
    for name, spec in scenarios.REGISTRY.items():
        rows = cli.run_scenario(name, config)
        emitted = tuple(dict.fromkeys(row.statement_id for row in rows))
        assert emitted == spec.statements, name
        assert tuple(documented[name]) == spec.statements, name


@pytest.mark.parametrize("angles", [scenarios.ScenarioConfig.disk_angles, 1024])
def test_disk13_found_minimum_rows_print_one(angles, tmp_path):
    # bench/run.py derives its search gap from these two rows
    out = tmp_path / "o"
    out.mkdir()
    cli.run_scenario("disk13", scenarios.ScenarioConfig(disk_angles=angles, out=str(out)))
    with open(out / "disk13.csv", encoding="utf-8", newline="") as handle:
        residuals = {row["statement_id"]: row["residual"] for row in csv.DictReader(handle)}
    assert residuals["annulus-found-minimum"] == "1.000000000000e+00"
    assert residuals["product-found-minimum"] == "1.000000000000e+00"


def test_disk13_is_seed_independent(tmp_path):
    # every disk13 row is a zero-element deviation or a certificate, so the
    # scenario draws nothing
    texts = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert cli.main(["--scenario", "disk13", "--seed", seed, "--out", str(out)]) == 0
        texts.append(_strip_elapsed((out / "disk13.csv").read_text(encoding="utf-8")))
    assert texts[0] == texts[1]


def test_module_entry_point_runs_the_lab(tmp_path):
    # ``python -m approxinv.cli`` must run the lab like the console script
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "o"
    result = subprocess.run(
        [sys.executable, "-m", "approxinv.cli", "--scenario", "tdz", "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # runpy warns when the package has already imported the module it runs
    assert "Warning" not in result.stderr, result.stderr
    assert (out / "tdz.csv").is_file()
    assert (out / "summary.txt").is_file()


def test_list_prints_the_registry_in_order(capsys):
    assert cli.main(["--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":", 1)[0] for line in lines] == list(scenarios.REGISTRY)
    for line, spec in zip(lines, scenarios.REGISTRY.values()):
        assert line.endswith(f"[{', '.join(spec.statements)}]"), line


def test_list_flag(capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fejer" in out and "deconv" in out


def test_list_creates_no_output_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--list"]) == 0
    assert cli.main(["--list", "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.count("fejer:") == 2
    assert not list(tmp_path.iterdir())


def test_list_checks_the_config_first(tmp_path, capsys):
    # an invalid configuration exits 2 whatever the run was asked to do
    missing = str(tmp_path / "nonexistent.cfg")
    assert cli.main(["--list", "--config", missing, "--seed", "-5"]) == 2
    assert cli.main(["--list", "--seed", "-5"]) == 2
    assert cli.main(["--list", "--scenario", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("config error") == 3


def test_derive_seed_is_stable_and_distinct():
    a = cli.derive_seed(7, "fejer")
    assert a == cli.derive_seed(7, "fejer")
    assert a != cli.derive_seed(7, "tdz")
    assert a != cli.derive_seed(8, "fejer")
    assert 0 <= a < 2**64


def test_run_is_deterministic_modulo_elapsed(tmp_path):
    cfg = _fast_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(FAST_ARGS + ["--config", cfg, "--seed", "11", "--out", str(out1)]) == 0
    assert cli.main(FAST_ARGS + ["--config", cfg, "--seed", "11", "--out", str(out2)]) == 0
    for name in ("fejer", "um-net", "tdz"):
        text1 = (out1 / f"{name}.csv").read_text(encoding="utf-8")
        text2 = (out2 / f"{name}.csv").read_text(encoding="utf-8")
        assert _strip_elapsed(text1) == _strip_elapsed(text2)
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()


def test_different_seed_changes_seeded_rows(tmp_path):
    cfg = _fast_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["--scenario", "um-net", "--config", cfg, "--seed", "1", "--out", str(out1)])
    cli.main(["--scenario", "um-net", "--config", cfg, "--seed", "2", "--out", str(out2)])
    text1 = _strip_elapsed((out1 / "um-net.csv").read_text(encoding="utf-8"))
    text2 = _strip_elapsed((out2 / "um-net.csv").read_text(encoding="utf-8"))
    assert text1 != text2


def test_csv_schema(tmp_path):
    cfg = _fast_config(tmp_path)
    out = tmp_path / "o"
    assert cli.main(["--scenario", "fejer", "--config", cfg, "--out", str(out)]) == 0
    raw = (out / "fejer.csv").read_bytes()
    assert not raw.startswith(b"\xef\xbb\xbf")  # no BOM
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "scenario,model,statement_id,net_index,residual,bound,verdict,elapsed_ms"
    with open(out / "fejer.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    for row in rows:
        assert row["verdict"] in ("pass", "fail")
        int(row["net_index"])
        int(row["elapsed_ms"])
        residual = row["residual"]
        if residual not in ("inf", "nan"):
            mantissa = residual.split("e")[0]
            assert len(mantissa.replace("-", "").replace(".", "")) >= 12
            float(residual)


def test_exit_one_on_property_failure(tmp_path):
    cfg = _fast_config(tmp_path, "[tolerances]\nidentity_tol = 1e-15\n")
    out = tmp_path / "o"
    assert cli.main(["--scenario", "fejer", "--config", cfg, "--out", str(out)]) == 1
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "overall: FAIL" in summary


def test_exit_two_on_bad_configs(tmp_path, capsys):
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("[models]\nwarp_factor = 9\n", encoding="utf-8")
    assert cli.main(["--config", str(bad_key)]) == 2

    bad_section = tmp_path / "bad2.cfg"
    bad_section.write_text("[warp]\nspeed = 9\n", encoding="utf-8")
    assert cli.main(["--config", str(bad_section)]) == 2

    empty_schedule = tmp_path / "bad3.cfg"
    empty_schedule.write_text("[nets]\nschedule =\n", encoding="utf-8")
    assert cli.main(["--config", str(empty_schedule)]) == 2

    decreasing = tmp_path / "bad4.cfg"
    decreasing.write_text("[nets]\nschedule = 8,4\n", encoding="utf-8")
    assert cli.main(["--config", str(decreasing)]) == 2

    # configparser keeps [DEFAULT] out of its sections and merges its keys
    # into every other section: alone, and beside a known section
    for number, text in enumerate(
        ("[DEFAULT]\nseed = 7\nbogus = 1\n", "[DEFAULT]\nseed = 7\n[run]\nout = o\n")
    ):
        defaults = tmp_path / f"defaults{number}.cfg"
        defaults.write_text(text, encoding="utf-8")
        assert cli.main(["--config", str(defaults), "--out", str(tmp_path / "d")]) == 2
    assert not (tmp_path / "d").exists()

    starts = tmp_path / "bad6.cfg"
    starts.write_text("[models]\ndisk_starts = 10000\n", encoding="utf-8")
    assert cli.main(["--config", str(starts), "--out", str(tmp_path / "s")]) == 2
    assert not (tmp_path / "s").exists()

    assert cli.main(["--scenario", "unknown-name"]) == 2
    assert cli.main(["--config", str(tmp_path / "missing.cfg")]) == 2
    assert cli.main(["--scenario", "tdz", "--seed", str(2**64)]) == 2
    assert cli.main(["--scenario", "tdz", "--seed", "-1"]) == 2

    # a UTF-16 byte-order mark is not UTF-8: a config error, not a traceback
    not_utf8 = tmp_path / "bad5.cfg"
    not_utf8.write_bytes(b"\xff\xfe[models]\n")
    capsys.readouterr()
    out = tmp_path / "not-utf8"
    assert cli.main(["--config", str(not_utf8), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_scenario_runs_once_in_first_named_order(tmp_path):
    cfg = _fast_config(tmp_path, "[run]\nscenarios = tdz,fejer,tdz\n")
    by_flags = ["--scenario", "tdz", "--scenario", "fejer", "--scenario", "tdz"]
    for out, extra in (("by-key", []), ("by-flags", by_flags)):
        assert cli.main(["--config", cfg, "--out", str(tmp_path / out)] + extra) == 0
        lines = (tmp_path / out / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert [line.split(":")[0] for line in lines] == ["tdz", "fejer", "overall"]


@pytest.mark.parametrize(
    "text",
    [
        "[models]\ncircle_samples = 64\n",
        "[models]\ncircle_samples = 128\n[nets]\nschedule = 8,16\n",
        "[nets]\nschedule = 8,16,2048\n",
        "[nets]\nschedule = 8,1025\n",
        "[models]\ndisk_angles = 512\n",
        "[models]\ndisk_angles = 1024\ndisk_degree = 512\n",
        "[models]\ngrid_points = 2\n",
        "[models]\ngrid_points = 4\n",
        "[models]\ngrid_half_width = nan\n",
        "[models]\ngrid_half_width = 9e307\n",
        "[models]\ngrid_half_width = 1e308\n",
        "[models]\ngrid_half_width = 1e-310\n",
        "[models]\ngrid_tail_tol = inf\n",
        "[models]\nmodule_exponent = nan\n",
        "[models]\nmatrix_size = 1\n",
    ],
    ids=[
        "circle-samples-64",
        "circle-samples-128-tdz",
        "schedule-at-half-circle",
        "schedule-1025",
        "disk-angles-512",
        "disk-degree-half-angles",
        "grid-points-2",
        "grid-points-4",
        "grid-half-width-nan",
        "grid-half-width-9e307",
        "grid-half-width-1e308",
        "grid-half-width-1e-310",
        "grid-tail-tol-inf",
        "module-exponent-nan",
        "matrix-size-1",
    ],
)
def test_model_preconditions_exit_two(text, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_largest_finite_grid_diameter_runs(tmp_path):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[models]\ngrid_half_width = 8e307\n", encoding="utf-8")
    out = tmp_path / "o"
    args = ["--config", str(cfg), "--scenario", "c0-interior", "--out", str(out)]
    assert cli.main(args) == 0


CIRCLE_SCENARIOS = ("fejer", "wiener-division", "deconv", "tdz")

#: Configs at the edges ``validate`` accepts, and one just past them: the
#: scenarios each one touches, the exit status and the failing (scenario,
#: statement, index) rows.  The three failures are honest: the kernel net has
#: not reached ``identity_tol`` by its last index.
BOUNDARY_OUTCOMES = {
    "matrix-size-2": ("[models]\nmatrix_size = 2\n", ("um-net", "pure-state"), 0, []),
    "matrix-size-200": (
        "[models]\nmatrix_size = 200\nmatrix_count = 1\n", ("um-net",), 0, []
    ),
    "disk-degree-1": ("[models]\ndisk_degree = 1\n", ("disk13",), 0, []),
    "disk-degree-511-at-1024": (
        "[models]\ndisk_angles = 1024\ndisk_degree = 511\n", ("disk13",), 0, []
    ),
    "module-exponent-1": ("[models]\nmodule_exponent = 1\n", ("deconv",), 0, []),
    "module-exponent-inf": ("[models]\nmodule_exponent = inf\n", ("deconv",), 0, []),
    "noise-sigma-0": ("[tolerances]\nnoise_sigma = 0\n", ("deconv",), 0, []),
    "schedule-511-at-1024": (
        "[models]\ncircle_samples = 1024\n[nets]\nschedule = 8,64,511\n",
        CIRCLE_SCENARIOS, 0, [],
    ),
    "schedule-1024": ("[nets]\nschedule = 8,1024\n", CIRCLE_SCENARIOS, 0, []),
    "grid-points-5": ("[models]\ngrid_points = 5\n", ("c0-interior",), 0, []),
    "grid-half-width-3e-308": (
        "[models]\ngrid_half_width = 3e-308\n", ("c0-interior",), 0, []
    ),
    # the non-vanishing threshold follows the boundary tail the elements sink to
    "grid-tail-tol-3e-6": ("[models]\ngrid_tail_tol = 3e-6\n", ("c0-interior",), 0, []),
    "grid-tail-tol-1e-9": ("[models]\ngrid_tail_tol = 1e-9\n", ("c0-interior",), 0, []),
    # below the smallest normal float the sampled elements' widths round to 0
    "grid-half-width-5e-324": (
        "[models]\ngrid_half_width = 5e-324\n", ("c0-interior",), 2, []
    ),
    "circle-samples-130": (
        "[models]\ncircle_samples = 130\n[nets]\nschedule = 8,16,32,64\n",
        CIRCLE_SCENARIOS, 1, [("fejer", "fejer-identity", "64")],
    ),
    "schedule-1": (
        "[nets]\nschedule = 1\n", CIRCLE_SCENARIOS, 1, [("fejer", "fejer-identity", "1")]
    ),
    "identity-tol-1e-300": (
        "[tolerances]\nidentity_tol = 1e-300\n",
        ("fejer",), 1, [("fejer", "fejer-identity", "128")],
    ),
}


@pytest.mark.parametrize(
    "text, names, status, failing",
    BOUNDARY_OUTCOMES.values(),
    ids=BOUNDARY_OUTCOMES.keys(),
)
def test_boundary_config_outcomes(text, names, status, failing, tmp_path):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    flags = [flag for name in names for flag in ("--scenario", name)]
    assert cli.main(["--config", str(cfg), "--out", str(out)] + flags) == status
    if status == 2:  # a rejected config writes nothing
        assert not out.exists()
        return
    failed = []
    for name in names:
        with open(out / f"{name}.csv", encoding="utf-8", newline="") as handle:
            failed.extend(
                (row["scenario"], row["statement_id"], row["net_index"])
                for row in csv.DictReader(handle)
                if row["verdict"] == "fail"
            )
    assert failed == failing


@pytest.mark.parametrize(
    "section,key",
    [
        (section, key)
        for section, keys in cli.CONFIG_SECTIONS.items()
        for key in keys
        if key != "out"
    ],
)
def test_hostile_config_values_exit_two(section, key, tmp_path, capsys):
    for value in ("nan", "inf", "-inf", "-1", "x"):
        if (key, value) == ("module_exponent", "inf"):
            continue  # p = inf is the sup norm
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2, value
        assert "config error" in capsys.readouterr().err, value
    assert not list(tmp_path.rglob("*.csv"))


def test_nul_byte_in_out_exits_two(tmp_path, capsys):
    # the OS path calls raise ValueError on a NUL byte, which must not
    # escape as a traceback
    cfg = tmp_path / "nul.cfg"
    cfg.write_text("[run]\nout = a\x00b\n", encoding="utf-8")
    assert cli.main(["--config", str(cfg), "--scenario", "tdz"]) == 2
    assert cli.main(["--scenario", "tdz", "--out", str(tmp_path / "a\x00b")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 2 and "Traceback" not in err


def _readme_config(tmp_path):
    """The README's ``ini`` block as {section: [keys]}, and the block itself,
    comments included, written verbatim to a config file."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
    sections: dict[str, list[str]] = {}
    for line in block.splitlines():
        if line.startswith("["):
            keys = sections.setdefault(line.strip("[]"), [])
        elif line[:1].isalpha():
            keys.append(line.split("=", 1)[0].strip())
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    return sections, path


def test_config_schema_matches_fields_and_readme(tmp_path):
    documented, path = _readme_config(tmp_path)
    assert {s: list(keys) for s, keys in cli.CONFIG_SECTIONS.items()} == documented
    table_keys = [key for keys in cli.CONFIG_SECTIONS.values() for key in keys]
    assert table_keys == [field.name for field in fields(scenarios.ScenarioConfig)]
    assert cli.load_config(str(path)) == scenarios.ScenarioConfig()


def test_config_keys_match_case_sensitively(tmp_path, capsys):
    # sections already match case-sensitively; keys in another case are
    # unknown keys, not aliases of the documented ones
    for number, text in enumerate(
        ("[models]\nGRID_POINTS = 201\n", "[run]\nSeed = 3\n", "[MODELS]\ngrid_points = 201\n")
    ):
        cfg = tmp_path / f"case{number}.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / f"o{number}"
        assert cli.main(["--config", str(cfg), "--scenario", "tdz", "--out", str(out)]) == 2
        assert "config error: unknown" in capsys.readouterr().err
        assert not out.exists()


def test_flags_override_file_values(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("[run]\nseed = 3\nout = ignored\n", encoding="utf-8")
    loaded = cli.load_config(str(cfg))
    assert loaded.seed == 3 and loaded.out == "ignored"
    out = tmp_path / "real"
    assert cli.main(
        ["--scenario", "tdz", "--config", str(cfg), "--seed", "5", "--out", str(out)]
    ) == 0
    assert (out / "tdz.csv").exists()


def test_scenarios_key_in_config(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(
        "[run]\nscenarios = tdz\n[models]\ncircle_samples = 512\n", encoding="utf-8"
    )
    out = tmp_path / "o"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "tdz.csv").exists()
    assert not (out / "fejer.csv").exists()


def test_config_validation_bounds():
    with pytest.raises(ConfigError):
        cli.ScenarioConfig(seed=-1).validate()
    with pytest.raises(ConfigError):
        cli.ScenarioConfig(schedule=()).validate()
    with pytest.raises(ConfigError):
        cli.ScenarioConfig(matrix_size=0).validate()
    with pytest.raises(ConfigError):
        cli.ScenarioConfig(module_exponent=0.5).validate()
    cli.ScenarioConfig().validate()
    cli.ScenarioConfig(module_exponent=float("inf")).validate()


def test_rows_assert_residual_bounds(tmp_path):
    cfg = _fast_config(tmp_path)
    config = replace(cli.load_config(cfg), out=str(tmp_path / "rows"))
    (tmp_path / "rows").mkdir()
    rows = cli.run_scenario("tdz", config)
    assert (tmp_path / "rows" / "tdz.csv").exists()
    for row in rows:
        assert (row.verdict == "pass") == (row.residual <= row.bound)


def test_raising_scenario_is_recorded_and_the_rest_run(tmp_path, monkeypatch, capsys):
    def broken(config, seed):
        raise RuntimeError("broken scenario")

    monkeypatch.setitem(
        scenarios.REGISTRY, "fejer", replace(scenarios.REGISTRY["fejer"], run=broken)
    )
    out = tmp_path / "o"
    status = cli.main(
        ["--config", _fast_config(tmp_path), "--out", str(out)]
        + ["--scenario", "fejer", "--scenario", "tdz"]
    )
    assert status == 1
    summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert summary[0] == "fejer: ERROR (RuntimeError)"
    assert summary[1].startswith("tdz: PASS (")
    assert summary[2] == "overall: FAIL"
    err = capsys.readouterr().err
    assert "fejer: ERROR (RuntimeError)" in err
    assert "Traceback" not in err
    assert not (out / "fejer.csv").exists()
    assert (out / "tdz.csv").exists()


def test_aliased_sampling_fails_both_disk_margins(tmp_path, monkeypatch):
    monkeypatch.setattr(disk, "CircleSampling", PeriodFourSampling)
    out = tmp_path / "o"
    assert cli.main(["--scenario", "disk13", "--out", str(out)]) == 1
    with open(out / "disk13.csv", encoding="utf-8", newline="") as handle:
        verdicts = {row["statement_id"]: row["verdict"] for row in csv.DictReader(handle)}
    assert verdicts["annulus-margin"] == "fail"
    assert verdicts["product-margin"] == "fail"


def _nan(*args):
    return float("nan")


#: Each worst-case row with a primitive that, patched to give NaN, must make
#: the row NaN and fail: (scenario, module, primitive, replacement).
NAN_PRIMITIVES = {
    "noiseless-monotone": ("deconv", wiener, "lp_norm", _nan),
    "noiseless-tail-match": ("deconv", bm, "kernel_tail_error", _nan),
    "witness-monotone": ("tdz", wiener, "tdz_witness", _nan),
    "annulus-margin": ("disk13", disk, "annulus_certificate", _nan),
    "product-margin": ("disk13", disk, "product_certificate", _nan),
    "perturbation-distance": (
        "c0-interior", c0, "perturb_to_noninvertible",
        lambda space, f, eps: np.full_like(f, np.nan),
    ),
    "projection-identity": (
        "um-net", operators, "projection_residuals",
        lambda full, outputs: np.full(len(full), np.nan),
    ),
    "net-final-residual": ("um-net", operators, "schatten_norm", _nan),
}


@pytest.mark.parametrize(
    "statement, scenario, module, name, replacement",
    [(statement, *entry) for statement, entry in NAN_PRIMITIVES.items()],
    ids=NAN_PRIMITIVES.keys(),
)
def test_nan_primitive_fails_the_worst_case_row(
    statement, scenario, module, name, replacement, tmp_path, monkeypatch
):
    # the built-in max(0.0, nan) is 0.0, which passed these rows
    monkeypatch.setattr(module, name, replacement)
    out = tmp_path / "o"
    assert cli.main(["--scenario", scenario, "--out", str(out)]) == 1
    with open(out / f"{scenario}.csv", encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.DictReader(handle) if row["statement_id"] == statement]
    assert rows
    for row in rows:
        assert row["residual"] == "nan"
        assert row["verdict"] == "fail"


def test_zero_tail_fails_the_tail_match_row(tmp_path, monkeypatch):
    # a zero tail leaves the absolute mismatch, which the nonzero noiseless
    # errors of the default schedule exceed
    monkeypatch.setattr(bm, "kernel_tail_error", lambda g, n, p: 0.0)
    out = tmp_path / "o"
    assert cli.main(["--scenario", "deconv", "--out", str(out)]) == 1
    with open(out / "deconv.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    errors = [row for row in rows if row["statement_id"] == "noiseless-error"]
    matches = [row for row in rows if row["statement_id"] == "noiseless-tail-match"]
    assert len(matches) == len(errors) == 5
    for error, match in zip(errors, matches):
        assert match["residual"] == error["residual"]
        assert match["verdict"] == "fail"


def test_state_route_alone_can_fail_the_pure_state_row(tmp_path, monkeypatch):
    # by_rank and by_sigma read the same LAPACK values, so only the state
    # route can disagree; a route that sees every operator annihilated must.
    def annihilated(a, seed=0):
        return np.zeros(len(a))

    monkeypatch.setattr(operators, "min_pure_state_norm", annihilated)
    out = tmp_path / "o"
    assert cli.main(["--scenario", "pure-state", "--out", str(out)]) == 1
    with open(out / "pure-state.csv", encoding="utf-8", newline="") as handle:
        (row,) = csv.DictReader(handle)
    assert row["statement_id"] == "criterion-agreement"
    assert float(row["residual"]) > 0.0
    assert row["verdict"] == "fail"


def _weighted_net(weight, direction):
    """A stand-in for ``right_inverse_net`` whose members scale singular
    direction ``direction`` by ``weight`` (0 drops it); it keeps the real
    net's refusal of rank-deficient systems."""
    real = operators.right_inverse_net

    def build(system):
        real(system)
        weights = np.ones(system.dim)
        weights[direction] = weight

        def member(m):
            m = min(m, system.dim)
            scaled = system.inputs[:, :m] * weights[:m] / system.values[:m]
            return scaled @ system.outputs[:, :m].conj().T

        return member

    return build


@pytest.mark.parametrize("weight", [0.0, 1.0 + 1e-6], ids=["dropped", "mis-scaled"])
def test_wrong_net_direction_fails_the_projection_rows(weight, tmp_path, monkeypatch):
    # a direction the net drops or mis-scales leaves the residual
    # |weight - 1| on every member that includes it, and none before it
    direction = 3
    monkeypatch.setattr(operators, "right_inverse_net", _weighted_net(weight, direction))
    out = tmp_path / "o"
    assert cli.main(["--scenario", "um-net", "--out", str(out)]) == 1
    with open(out / "um-net.csv", encoding="utf-8", newline="") as handle:
        rows = [
            row for row in csv.DictReader(handle)
            if row["statement_id"] == "projection-identity"
        ]
    assert len(rows) == scenarios.ScenarioConfig().matrix_size
    for row in rows:
        failing = int(row["net_index"]) > direction
        assert row["verdict"] == ("fail" if failing else "pass")
        if failing:
            assert float(row["residual"]) >= 0.5 * abs(weight - 1.0)


def test_a_finite_wrong_net_fails_every_um_net_residual_row(tmp_path, monkeypatch):
    # a net that drops the last singular direction stays finite, yet its
    # full member inverts t on only n - 1 directions
    n = scenarios.ScenarioConfig().matrix_size
    monkeypatch.setattr(operators, "right_inverse_net", _weighted_net(0.0, n - 1))
    out = tmp_path / "o"
    assert cli.main(["--scenario", "um-net", "--out", str(out)]) == 1
    with open(out / "um-net.csv", encoding="utf-8", newline="") as handle:
        rows = {
            (row["statement_id"], int(row["net_index"])): row
            for row in csv.DictReader(handle)
        }
    for statement in ("projection-identity", "net-final-residual"):
        row = rows[(statement, n)]
        assert row["verdict"] == "fail"
        assert 0.0 < float(row["residual"]) < np.inf


def _c0_rows(out):
    with open(out / "c0-interior.csv", encoding="utf-8", newline="") as handle:
        return {row["statement_id"]: row for row in csv.DictReader(handle)}


def test_c0_interior_passes_on_every_small_grid(tmp_path):
    # small grids leave some non-vanishing elements inconclusive; that is
    # recorded, not counted as a contradiction
    inconclusive = 0
    for points in range(5, 64):
        config = tmp_path / f"grid{points}.cfg"
        config.write_text(f"[models]\ngrid_points = {points}\n", encoding="utf-8")
        out = tmp_path / f"o{points}"
        argv = ["--config", str(config), "--scenario", "c0-interior", "--out", str(out)]
        assert cli.main(argv) == 0, points
        rows = _c0_rows(out)
        assert rows["inconclusive-count"]["bound"] == "inf"
        inconclusive += float(rows["inconclusive-count"]["residual"]) > 0
    assert inconclusive > 0


def test_c0_interior_contradiction_fails_the_equivalence_row(tmp_path, monkeypatch):
    # every element reported as vanishing: each certificate contradicts it
    monkeypatch.setattr(c0, "is_nonvanishing", lambda f, tol: np.False_)
    out = tmp_path / "o"
    assert cli.main(["--scenario", "c0-interior", "--out", str(out)]) == 1
    rows = _c0_rows(out)
    assert rows["criterion-equivalence"]["verdict"] == "fail"
    assert float(rows["criterion-equivalence"]["residual"]) > 0.0
    assert rows["inconclusive-count"]["verdict"] == "pass"


def test_deconv_noiseless_errors_are_nonzero_at_large_exponent(tmp_path):
    # |values|^p underflowed to zero at p = 1000 before the p-norm was scaled
    config = tmp_path / "p1000.cfg"
    config.write_text("[models]\nmodule_exponent = 1000\n", encoding="utf-8")
    out = tmp_path / "o"
    argv = ["--config", str(config), "--scenario", "deconv", "--out", str(out)]
    assert cli.main(argv) == 0
    with open(out / "deconv.csv", encoding="utf-8", newline="") as handle:
        errors = [
            float(row["residual"])
            for row in csv.DictReader(handle)
            if row["statement_id"] == "noiseless-error"
        ]
    assert len(errors) == len(scenarios.ScenarioConfig().schedule)
    assert all(error > 0.0 for error in errors)


def test_deconv_noisy_errors_are_finite_at_huge_noise(tmp_path):
    # the p = 2 norm's sum of squared coefficients overflowed to a NaN error
    config = tmp_path / "loud.cfg"
    config.write_text("[tolerances]\nnoise_sigma = 1e200\n", encoding="utf-8")
    out = tmp_path / "o"
    argv = ["--config", str(config), "--scenario", "deconv", "--out", str(out)]
    assert cli.main(argv) == 0
    with open(out / "deconv.csv", encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.DictReader(handle) if row["statement_id"] == "noisy-error"]
    assert len(rows) == len(scenarios.ScenarioConfig().schedule) == 5
    for row in rows:
        assert np.isfinite(float(row["residual"])) and row["verdict"] == "pass"


def _noisy_errors(tmp_path, exponent):
    config = tmp_path / f"loud-{exponent}.cfg"
    config.write_text(
        f"[models]\nmodule_exponent = {exponent}\n"
        "[tolerances]\nnoise_sigma = 1e303\n[nets]\nschedule = 8,16\n",
        encoding="utf-8",
    )
    out = tmp_path / f"o-{exponent}"
    argv = ["--config", str(config), "--scenario", "deconv", "--out", str(out)]
    assert cli.main(argv) == 0
    with open(out / "deconv.csv", encoding="utf-8", newline="") as handle:
        return [
            float(row["residual"])
            for row in csv.DictReader(handle)
            if row["statement_id"] == "noisy-error"
        ]


def test_deconv_l1_noisy_errors_are_finite_at_huge_noise(tmp_path):
    # the p = 1 mean of |values| overflowed to an inf error at n = 16, while a
    # p just above 1 took the sup-scaled route and stayed finite
    l1 = _noisy_errors(tmp_path, "1")
    near = _noisy_errors(tmp_path, "1.0000001")
    assert len(l1) == len(near) == 2
    assert all(np.isfinite(l1))
    assert l1 == pytest.approx(near, rel=1e-6)


def test_output_path_that_is_a_file_exits_two(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert cli.main(["--scenario", "tdz", "--out", str(taken)]) == 2
    assert "config error" in capsys.readouterr().err
    assert taken.read_text(encoding="utf-8") == ""


def test_unwritable_summary_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "summary.txt").mkdir(parents=True)
    assert cli.main(["--scenario", "tdz", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config error: cannot write summary" in captured.err
    assert "Traceback" not in captured.err
    assert "tdz: PASS" in captured.out
    assert (out / "tdz.csv").is_file()
    assert (out / "summary.txt").is_dir()


# recorded with both one-sided residuals evaluated: fejer-identity rows as
# (net_index, residual at .12e), c0-interior rows as (statement, net_index,
# residual at .12e)
FEJER_IDENTITY_ROWS = {
    4096: [
        (8, "1.060816987119e-01"),
        (16, "5.305171514017e-02"),
        (32, "2.652583107232e-02"),
        (64, "1.326291553614e-02"),
        (128, "6.631457768070e-03"),
    ],
    16384: [
        (8, "1.060817264937e-01"),
        (16, "5.305169919047e-02"),
        (32, "2.652582299926e-02"),
        (64, "1.326291149961e-02"),
        (128, "6.631455749806e-03"),
    ],
}
C0_INTERIOR_ROWS = [
    ("criterion-equivalence", 50, "0.000000000000e+00"),
    ("inconclusive-count", 50, "0.000000000000e+00"),
    ("perturbation-distance", 1, "7.870545448172e-03"),
    ("perturbation-zero", 1, "0.000000000000e+00"),
    ("perturbation-distance", 2, "3.158595288125e-04"),
    ("perturbation-zero", 2, "0.000000000000e+00"),
]


def _recorded(name, config):
    rows = scenarios.REGISTRY[name].run(config, cli.derive_seed(config.seed, name))
    assert all(row.verdict == "pass" for row in rows)
    return [(row.statement_id, row.net_index, f"{row.residual:.12e}") for row in rows]


@pytest.mark.parametrize("samples", sorted(FEJER_IDENTITY_ROWS))
def test_fejer_identity_rows_match_recorded_values(samples):
    rows = _recorded("fejer", scenarios.ScenarioConfig(circle_samples=samples))
    identity = [(index, value) for sid, index, value in rows if sid == "fejer-identity"]
    assert identity == FEJER_IDENTITY_ROWS[samples]


def test_c0_interior_rows_match_recorded_values():
    assert _recorded("c0-interior", scenarios.ScenarioConfig(seed=1)) == C0_INTERIOR_ROWS
