"""Acceptance suite: one test per headline criterion, each printing a
single pass/fail line.  Expected values come from the independent oracles in
``tests.oracles`` or from hand-computed constants; tolerances are pinned in
the assertions."""

import numpy as np
import pytest

from approxinv import banach_module as bm
from approxinv import c0, cli, disk, operators, wiener
from approxinv.core import check_approximate_identity
from approxinv.errors import DivisionFloorError

from .oracles import (
    direct_coeff,
    direct_convolve,
    fejer_coeffs_full,
    fejer_values_closed_form,
    kernel_tail_p2,
)
from .support import (
    GENERATOR,
    adjoint_certificate,
    certify_product,
    dense,
    density_residual,
    disk_elements,
    disk_sup_norm,
    mirrors,
)

M = 4096


def _report(num: int, name: str, checks: list[tuple[bool, str]]):
    ok = all(flag for flag, _ in checks)
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}")
    for flag, label in checks:
        assert flag, f"criterion {num}: {label}"


def test_criterion_01_fejer_identity():
    checks = []
    worst_norm = 0.0
    worst_coeff = 0.0
    for n in range(1, 257):
        kernel = wiener.fejer_kernel(M, n)
        worst_norm = max(worst_norm, abs(wiener.l1_norm(kernel) - 1.0))
        tri = fejer_coeffs_full(M, n)
        worst_coeff = max(worst_coeff, float(np.abs(dense(kernel) - tri).max()))
    checks.append((worst_norm <= 1e-9, f"unit norm, worst {worst_norm:.2e}"))
    checks.append((worst_coeff <= 1e-10, f"coefficients, worst {worst_coeff:.2e}"))

    # independent route: closed trigonometric form plus direct quadrature
    quad_worst = 0.0
    for n in (1, 7, 64, 255):
        closed = fejer_values_closed_form(M, n)
        kernel = wiener.fejer_kernel(M, n)
        checks.append(
            (
                float(np.abs(kernel.values - closed).max()) <= 1e-9,
                f"closed form at n={n}",
            )
        )
        for k in (0, 1, n // 2, n - 1, n, n + 8):
            expect = max(0.0, 1.0 - abs(k) / n)
            quad_worst = max(quad_worst, abs(direct_coeff(closed, k) - expect))
    checks.append((quad_worst <= 1e-10, f"quadrature oracle, worst {quad_worst:.2e}"))

    model = wiener.l1_circle_model(M)
    trace = check_approximate_identity(
        model,
        lambda n: wiener.fejer_kernel(M, n),
        wiener.standard_test_set(M),
        schedule=[8, 16, 32, 64, 128],
    )
    checks.append((trace[-1].residual <= 1e-2, "identity check at tol 1e-2 by n = 128"))
    sup_member = max(entry.member_norm for entry in trace)
    checks.append((sup_member <= 1.0 + 1e-9, f"unit bound holds, sup {sup_member:.12f}"))

    # one full-size residual validated against the quadratic convolution sum
    target = wiener.poisson_kernel(M, 0.5)
    kern = wiener.fejer_kernel(M, 128)
    direct = np.mean(
        np.abs(direct_convolve(kern.values, target.values) - target.values)
    )
    production = wiener.l1_norm(wiener.convolve(kern, target) - target)
    checks.append(
        (abs(production - direct) <= 1e-12, "direct convolution oracle at n = 128")
    )
    _report(1, "kernel family is a unit-norm approximate identity", checks)


def test_criterion_02_division_exactness():
    checks = []
    for r in (0.3, 0.5, 0.7):
        f = wiener.poisson_kernel(M, r)
        floor = 0.5 * r**127
        worst = 0.0
        for n in range(1, 129):
            h = wiener.wiener_division(f, n, floor)
            resid = wiener.l1_norm(wiener.convolve(f, h) - wiener.fejer_kernel(M, n))
            worst = max(worst, resid)
        checks.append((worst <= 1e-9, f"r={r}: worst residual {worst:.2e}"))
    try:
        wiener.wiener_division(wiener.character(M, 1), 4)
        checks.append((False, "division by the monomial must fail"))
    except DivisionFloorError as err:
        checks.append((err.frequency == 0, "floor error reports frequency 0"))
    _report(2, "spectral division reproduces the kernel family", checks)


def test_criterion_03_right_inverse_nets():
    n = 16
    rng = np.random.default_rng(2026)
    worst_proj = 0.0
    worst_resid = 0.0
    for _ in range(50):
        t = _full_rank(n, rng)
        system = operators.svd(t)
        net = operators.right_inverse_net(system)
        u = system.outputs
        for m in range(1, n + 1):
            proj = u[:, :m] @ u[:, :m].conj().T
            worst_proj = max(
                worst_proj, operators.schatten_norm(t @ net(m) - proj, np.inf)
            )
        u_n = net(n)
        for _ in range(20):
            c = 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            worst_resid = max(
                worst_resid, operators.schatten_norm(t @ u_n @ c - c, 2.0)
            )
    checks = [
        (worst_proj <= 1e-9, f"projection identity, worst {worst_proj:.2e}"),
        (worst_resid <= 1e-9, f"final residual, worst {worst_resid:.2e}"),
    ]
    singular = _full_rank(n, rng)
    singular[:, 3] = 0.0
    cert = operators.certify_operator(singular, [np.eye(n, dtype=complex)])
    checks.append((cert.verdict == "refuted", "rank-deficient input refuted"))
    _report(3, "singular-direction nets invert full-rank operators", checks)


def test_criterion_04_two_criteria():
    rng = np.random.default_rng(40)
    threshold = 1e-8
    disagreements = 0
    singular_count = 0
    for trial in range(100):
        t = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        if trial % 3 == 0:
            t[:, trial % 16] = 0.0
            singular_count += 1
        by_sigma = bool(np.linalg.svd(t, compute_uv=False)[-1] > threshold)
        by_state = bool(operators.min_pure_state_norm(t, seed=trial) > threshold)
        if by_sigma != by_state:
            disagreements += 1
    checks = [
        (disagreements == 0, f"{disagreements} disagreements on 100 operators"),
        (singular_count >= 30, "singular class populated"),
    ]
    _report(4, "smallest singular value and pure-state criteria agree", checks)


def test_criterion_05_schatten_contracts():
    rng = np.random.default_rng(5)
    worst_rank_one = 0.0
    worst_gap = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        product = np.linalg.norm(f) * np.linalg.norm(g)
        op = np.outer(f, g.conj())  # h -> <h, g> f
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for p in (1.0, 1.5, 2.0, np.inf):
            worst_rank_one = max(
                worst_rank_one,
                abs(operators.schatten_norm(op, p) - product) / max(1.0, product),
            )
            gap = operators.schatten_norm(a, np.inf) - operators.schatten_norm(a, p)
            worst_gap = max(worst_gap, gap)
    checks = [
        (worst_rank_one <= 1e-10, f"rank-one normalization, worst {worst_rank_one:.2e}"),
        (worst_gap <= 1e-9, f"operator norm below ideal norms, worst gap {worst_gap:.2e}"),
    ]
    _report(5, "ideal norm contracts hold on seeded operators", checks)


def test_criterion_06_disk_separation():
    # a certificate c puts every family deviation at 1 - c or above, which
    # clears the asserted 1/3 - 1e-2 separation threefold
    checks = []
    for angles in (1024, 2048):
        sampling = disk.CircleSampling(angles)
        zero = np.zeros(9, complex)
        rng = np.random.default_rng(6)
        elements, first, second = (disk_elements(rng, 100, 8) for _ in range(3))
        results = {
            "annulus": (
                disk.annulus_deviation(zero, sampling),
                disk.annulus_certificate(sampling, 8),
                min(disk.annulus_deviation(p, sampling) for p in elements),
            ),
            "product": (
                disk.product_deviation(zero, zero, sampling),
                disk.product_certificate(sampling, 8),
                min(disk.product_deviation(f1, f2, sampling) for f1, f2 in zip(first, second)),
            ),
        }
        for kind, (found, certificate, seeded) in results.items():
            checks.append((abs(found - 1.0) <= 1e-12, f"{angles}: {kind} minimum {found!r} = 1"))
            checks.append((certificate <= 1e-12, f"{angles}: {kind} certificate {certificate!r}"))
            checks.append(
                (seeded >= 1.0 - certificate, f"{angles}: {kind} seeded minimum {seeded!r}")
            )
        # an element with a constant term is not covered: 1 - 1 vanishes
        one = np.zeros(9, complex)
        one[0] = 1.0
        uncovered = disk.annulus_deviation(one, sampling)
        checks.append((uncovered <= 1e-12, f"{angles}: constant term deviation {uncovered!r}"))
    sampling = disk.CircleSampling(1024)
    rng = np.random.default_rng(8)
    worst_iso = 0.0
    for _ in range(200):
        p = disk_elements(rng, 1, int(rng.integers(1, 17)))[0]
        with_chi = disk_sup_norm(disk.poly_mul(p, GENERATOR), sampling)
        plain = disk_sup_norm(p, sampling)
        worst_iso = max(worst_iso, abs(with_chi - plain))
    checks.append((worst_iso <= 1e-12, f"generator isometry, worst {worst_iso:.2e}"))
    _report(6, "separation bounds in the origin-vanishing disk algebra", checks)


def test_criterion_07_c0_criterion_and_interior():
    space = c0.GridSpace(10.0, 201, tail_tol=1e-3)
    elements = c0.seeded_elements(space, 50, seed=70)
    tests = c0.seeded_elements(space, 3, seed=71, zero_fraction=0.0)
    mismatches = 0
    certified = []
    for f in elements:
        cert = c0.certify(space, f, tests)
        nonvanishing = c0.is_nonvanishing(f, 1e-6)
        if cert.certified != nonvanishing:
            mismatches += 1
        if (cert.verdict == "refuted") != (not nonvanishing):
            mismatches += 1
        if cert.certified:
            certified.append(f)
    checks = [
        (mismatches == 0, f"{mismatches} certification mismatches on 50 elements"),
        (len(certified) == 25, "both classes populated"),
    ]
    for eps in (1e-1, 1e-2):
        worst = 0.0
        zero_ok = True
        for f in certified:
            g = c0.perturb_to_noninvertible(space, f, eps)
            worst = max(worst, c0.sup_norm(g - f))
            zero_ok = zero_ok and np.abs(g).min() == 0.0
        checks.append((worst <= eps, f"eps={eps}: perturbation distance {worst:.2e}"))
        checks.append((zero_ok, f"eps={eps}: perturbations vanish on the grid"))
    _report(7, "certification equals non-vanishing; certified set has empty interior", checks)


def test_criterion_08_module_deconvolution():
    rng = np.random.default_rng(80)
    blur = wiener.poisson_kernel(M, 0.5)
    floor = 0.5**200
    worst_match = 0.0
    for _ in range(5):
        band = {}
        for k in range(-16, 17):
            band[k] = 0.5 ** abs(k) * np.exp(2j * np.pi * rng.random())
        truth = wiener.CircleSignal.from_band(M, band)
        observed = wiener.convolve(blur, truth)
        for n in (64, 128):
            error = wiener.lp_norm(bm.deconvolve(blur, observed, n, floor) - truth, 2.0)
            oracle = kernel_tail_p2(band, n)
            worst_match = max(worst_match, abs(error - oracle) / oracle)
    checks = [
        (worst_match <= 1e-9, f"noiseless error equals spectral tail, worst {worst_match:.2e}")
    ]
    worst_density = 0.0
    for _ in range(20):
        band = {
            k: 0.9 ** abs(k) * np.exp(2j * np.pi * rng.random())
            for k in range(-512, 513)
        }
        target = wiener.CircleSignal.from_band(M, band)
        worst_density = max(
            worst_density, density_residual(blur, target, 128, floor=0.5**300)
        )
    checks.append(
        (worst_density <= 1e-3, f"density residual at n=128, worst {worst_density:.2e}")
    )
    _report(8, "module deconvolution matches its spectral-tail oracle", checks)


def test_criterion_09_duality_and_products():
    rng = np.random.default_rng(90)
    duality_ok = True
    refuted = 0
    for trial in range(100):
        t = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        if trial % 4 == 0:
            t[:, trial % 12] = 0.0
        tests = [0.3 * (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))]
        cert = operators.certify_operator(t, tests)
        dual = adjoint_certificate(t, tests)
        duality_ok = duality_ok and mirrors(cert, dual)
        deficient = trial % 4 == 0
        duality_ok = duality_ok and (cert.verdict == "refuted") == deficient
        refuted += cert.verdict == dual.verdict == "refuted"
    checks = [
        (duality_ok, "adjoint nets mirror the right certificates on 100 operators"),
        (refuted == 25, f"rank-deficient operators refuted on both sides ({refuted} of 25)"),
    ]

    small = 512
    good = [
        wiener.poisson_kernel(small, 0.4),
        wiener.poisson_kernel(small, 0.7),
        wiener.CircleSignal.from_band(small, {0: 2.0, 1: 0.5, -1: 0.5, 2: 0.25, -2: 0.25, 3: 0.1, -3: 0.1}),
    ]
    bad = [
        wiener.character(small, 1),
        wiener.CircleSignal.from_band(small, {0: 1.0, 2: 1.0}),
    ]
    cases = zero_products = 0
    consistent = True
    for f1 in good + bad:
        for f2 in good + bad:
            if cases >= 20:
                break
            cases += 1
            both = f1 in good and f2 in good
            # disjoint spectra give the zero product, which the band refuter
            # refutes like any other vanishing coefficient
            zero_products += not dense(wiener.convolve(f1, f2)).any()
            cert = certify_product(f1, f2, n=4, tol=1e-6)
            consistent = consistent and (cert.certified == both)
            if not both:
                consistent = consistent and cert.verdict == "refuted"
    checks.append((consistent and cases == 20, "product certifies iff both factors do"))
    checks.append((zero_products == 1, "the disjoint-spectra pair is among the cases"))
    _report(9, "adjoint duality and product certification", checks)


def test_criterion_10_zero_divisor_decay():
    f = wiener.poisson_kernel(M, 0.5)
    values = [wiener.tdz_witness(f, k) for k in range(1, 65)]
    checks = [
        (abs(values[19] - 0.5**20) <= 1e-10, "witness value at frequency 20"),
        (all(b < a for a, b in zip(values, values[1:])), "monotone decay on [1, 64]"),
    ]
    _report(10, "zero-divisor witness values decay", checks)


def test_criterion_11_cli_determinism(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(
        "[models]\ncircle_samples = 512\nmatrix_size = 6\nmatrix_count = 3\n"
        "[nets]\nschedule = 8,16,32,64,128\n",
        encoding="utf-8",
    )
    args = ["--scenario", "fejer", "--scenario", "um-net", "--scenario", "tdz",
            "--config", str(cfg), "--seed", "17"]
    rc1 = cli.main(args + ["--out", str(tmp_path / "a")])
    rc2 = cli.main(args + ["--out", str(tmp_path / "b")])

    def strip(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text("utf-8").splitlines()]

    identical = all(
        strip(tmp_path / "a" / f"{name}.csv") == strip(tmp_path / "b" / f"{name}.csv")
        for name in ("fejer", "um-net", "tdz")
    )
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("[models]\nwarp = 1\n", encoding="utf-8")
    rc_bad = cli.main(["--config", str(bad_cfg)])
    strict = tmp_path / "strict.cfg"
    strict.write_text(
        "[models]\ncircle_samples = 512\n[tolerances]\nidentity_tol = 1e-15\n",
        encoding="utf-8",
    )
    rc_fail = cli.main(
        ["--scenario", "fejer", "--config", str(strict), "--out", str(tmp_path / "c")]
    )
    checks = [
        (rc1 == 0 and rc2 == 0, "clean runs exit 0"),
        (identical, "reports identical up to the elapsed column"),
        (rc_bad == 2, "config error exits 2"),
        (rc_fail == 1, "property failure exits 1"),
    ]
    _report(11, "scenario runner is deterministic with specified exit codes", checks)


def _full_rank(n, rng):
    while True:
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lam = np.linalg.svd(t, compute_uv=False)
        if lam[-1] > 1e-2 * lam[0]:
            return t
