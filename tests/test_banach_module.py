import numpy as np
import pytest

from approxinv import banach_module as bm
from approxinv import wiener
from approxinv.errors import AliasingError, DivisionFloorError

from .oracles import kernel_tail_p2


def _band(grid, rng, degree=32, decay=0.5):
    ks = np.arange(-degree, degree + 1)
    coeffs = decay ** np.abs(ks) * np.exp(2j * np.pi * rng.random(ks.size))
    band = dict(zip(ks.tolist(), coeffs))
    return wiener.CircleSignal.from_band(grid, band), band


def test_action_of_constant_projects(grid512, rng):
    sig, _ = _band(grid512, rng)
    b = bm.ModuleSignal(sig, 2.0)
    out = bm.module_action(wiener.constant_signal(grid512), b)
    expected = sig.coeff(0) * wiener.constant_signal(grid512).values
    assert np.allclose(out.signal.values, expected, atol=1e-12)


def test_action_is_associative(grid512, rng):
    for _ in range(20):
        f1, _ = _band(grid512, rng, 20)
        f2, _ = _band(grid512, rng, 20)
        g, _ = _band(grid512, rng, 20)
        b = bm.ModuleSignal(g, 2.0)
        left = bm.module_action(wiener.convolve(f1, f2), b)
        right = bm.module_action(f1, bm.module_action(f2, b))
        assert bm.module_norm(
            bm.ModuleSignal(left.signal - right.signal, 2.0)
        ) <= 1e-10


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_action_respects_module_bound(grid512, p):
    rng = np.random.default_rng(int(1 if np.isinf(p) else p))
    for _ in range(200):
        f, _ = _band(grid512, rng, int(rng.integers(1, 40)), decay=0.8)
        g, _ = _band(grid512, rng, int(rng.integers(1, 40)), decay=0.8)
        b = bm.ModuleSignal(g, p)
        acted = bm.module_action(f, b)
        assert bm.module_norm(acted) <= wiener.l1_norm(f) * bm.module_norm(b) + 1e-9


def test_identity_convergence_constant(grid512):
    b = bm.ModuleSignal(wiener.constant_signal(grid512), 2.0)
    trace = bm.module_identity_convergence(
        wiener.fejer_family(grid512), b, schedule=[1, 2, 4, 8]
    )
    assert max(trace.residuals) <= 1e-14


def test_identity_convergence_matches_tail_formula(grid4096, rng):
    sig, band = _band(grid4096, rng, 32)
    b = bm.ModuleSignal(sig, 2.0)
    trace = bm.module_identity_convergence(
        wiener.fejer_family(grid4096), b, schedule=[64, 128, 256]
    )
    for entry in trace.entries:
        oracle = kernel_tail_p2(band, entry.index)
        assert entry.residual == pytest.approx(oracle, rel=1e-12)


def test_identity_convergence_zero_family(grid512, rng):
    sig, _ = _band(grid512, rng)
    b = bm.ModuleSignal(sig, 1.0)
    zero_family = wiener.ApproxIdentityFamily(
        lambda j: wiener.constant_signal(grid512, 0.0)
    )
    trace = bm.module_identity_convergence(zero_family, b, max_index=4)
    for r in trace.residuals:
        assert r == pytest.approx(bm.module_norm(b), abs=1e-12)


def test_identity_convergence_below_tolerance_for_band_limited(grid4096, rng):
    family = wiener.fejer_family(grid4096)
    for p in (1.0, 2.0, np.inf):
        sig, _ = _band(grid4096, rng, 32, decay=0.25)
        trace = bm.module_identity_convergence(
            family, bm.ModuleSignal(sig, p), schedule=[8, 32, 128]
        )
        assert trace.final_residual <= 1e-2


def test_density_residual_band_limited_target(grid512, rng):
    f = wiener.poisson_kernel(grid512, 0.5)
    sig, _ = _band(grid512, rng, 16)
    target = bm.ModuleSignal(sig, 2.0)
    assert bm.density_residual(f, target, 32, floor=0.5**40) <= 1e-10


def test_density_residual_is_spectral_tail(grid4096):
    f = wiener.poisson_kernel(grid4096, 0.5)
    z = bm.ModuleSignal(wiener.poisson_kernel(grid4096, 0.9), 2.0)
    n = 64
    residual = bm.density_residual(f, z, n, floor=0.5**70)
    ks = np.fft.fftfreq(grid4096.M, 1.0 / grid4096.M).astype(int)
    tail = z.signal.coeffs.copy()
    tail[np.abs(ks) < n] = 0.0
    oracle = float(np.sqrt(np.sum(np.abs(tail) ** 2)))
    assert residual == pytest.approx(oracle, rel=1e-9)
    assert residual <= 1e-2  # geometric decay leaves a small tail at n=64


def test_density_residual_raises_on_vanishing_band(grid512):
    monomial = wiener.character(grid512, 1)
    target = bm.ModuleSignal(wiener.constant_signal(grid512), 2.0)
    with pytest.raises(DivisionFloorError) as err:
        bm.density_residual(monomial, target, 4)
    assert err.value.frequency == 0


@pytest.mark.parametrize("n, error", [(256, AliasingError), (0, ValueError)])
def test_density_residual_rejects_bad_order(grid512, n, error):
    # the same order checks as wiener_division: the band must be non-empty
    # and stay below M/2
    f = wiener.poisson_kernel(grid512, 0.5)
    target = bm.ModuleSignal(wiener.constant_signal(grid512), 2.0)
    with pytest.raises(error):
        bm.density_residual(f, target, n)
    with pytest.raises(error):
        wiener.wiener_division(f, n)


def test_noiseless_deconvolution_matches_kernel_error(grid4096, rng):
    blur = wiener.poisson_kernel(grid4096, 0.5)
    floor = 0.5**200
    sig, band = _band(grid4096, rng, 16)
    truth = bm.ModuleSignal(sig, 2.0)
    observed = bm.module_action(blur, truth)
    for n in (64, 128):  # band-limited well below n
        result = bm.deconvolve(blur, observed, n, truth=truth, floor=floor)
        oracle = kernel_tail_p2(band, n)
        assert result.error == pytest.approx(oracle, rel=1e-9)
        # recovered signal is exactly the kernel-smoothed truth
        smoothed = bm.module_action(wiener.fejer_kernel(grid4096, n), truth)
        assert bm.module_norm(
            bm.ModuleSignal(result.recovered.signal - smoothed.signal, 2.0)
        ) <= 1e-12


def test_deconvolution_order_one(grid512, rng):
    sig, _ = _band(grid512, rng, 8)
    truth = bm.ModuleSignal(sig, 2.0)
    blur = wiener.poisson_kernel(grid512, 0.5)
    observed = bm.module_action(blur, truth)
    result = bm.deconvolve(blur, observed, 1, floor=1e-12)
    expected = sig.coeff(0) * wiener.constant_signal(grid512).values
    assert np.allclose(result.recovered.signal.values, expected, atol=1e-10)


def test_noiseless_error_non_increasing(grid4096, rng):
    blur = wiener.poisson_kernel(grid4096, 0.5)
    floor = 0.5**300
    sig, _ = _band(grid4096, rng, 32)
    truth = bm.ModuleSignal(sig, 2.0)
    observed = bm.module_action(blur, truth)
    errors = [
        bm.deconvolve(blur, observed, n, truth=truth, floor=floor).error
        for n in (8, 16, 32, 64, 128, 256)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


def test_noisy_deconvolution_reported_not_asserted(grid512, rng):
    sig, _ = _band(grid512, rng, 8)
    truth = bm.ModuleSignal(sig, 2.0)
    blur = wiener.poisson_kernel(grid512, 0.5)
    observed = bm.module_action(blur, truth)
    noise = bm.NoiseSpec(sigma=1e-3, seed=9)
    result = bm.deconvolve(blur, observed, 16, noise=noise, truth=truth, floor=1e-9)
    assert result.sigma == 1e-3
    assert result.error is not None and np.isfinite(result.error)
    again = bm.deconvolve(blur, observed, 16, noise=noise, truth=truth, floor=1e-9)
    assert result.error == again.error  # seeded noise is reproducible


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        bm.NoiseSpec(sigma=-1.0)
    with pytest.raises(ValueError):
        bm.ModuleSignal(wiener.constant_signal(wiener.CircleGrid(8)), p=0.5)
