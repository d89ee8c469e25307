import numpy as np
import pytest

from approxinv import banach_module as bm
from approxinv import wiener
from approxinv.errors import AliasingError, DivisionFloorError

from .oracles import kernel_tail_p2
from .support import dense, density_residual


def _band(M, rng, degree=32, decay=0.5):
    ks = np.arange(-degree, degree + 1)
    coeffs = decay ** np.abs(ks) * np.exp(2j * np.pi * rng.random(ks.size))
    band = dict(zip(ks.tolist(), coeffs))
    return wiener.CircleSignal.from_band(M, band), band


def test_action_of_constant_projects(M512, rng):
    sig, _ = _band(M512, rng)
    out = wiener.convolve(wiener.character(M512, 0), sig)
    expected = sig.coeff(0) * wiener.character(M512, 0).values
    assert np.allclose(out.values, expected, atol=1e-12)


def test_action_is_associative(M512, rng):
    for _ in range(20):
        f1, _ = _band(M512, rng, 20)
        f2, _ = _band(M512, rng, 20)
        g, _ = _band(M512, rng, 20)
        left = wiener.convolve(wiener.convolve(f1, f2), g)
        right = wiener.convolve(f1, wiener.convolve(f2, g))
        assert wiener.lp_norm(left - right, 2.0) <= 1e-10


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_action_respects_module_bound(M512, p):
    rng = np.random.default_rng(int(1 if np.isinf(p) else p))
    for _ in range(200):
        f, _ = _band(M512, rng, int(rng.integers(1, 40)), decay=0.8)
        g, _ = _band(M512, rng, int(rng.integers(1, 40)), decay=0.8)
        acted = wiener.convolve(f, g)
        assert wiener.lp_norm(acted, p) <= wiener.l1_norm(f) * wiener.lp_norm(g, p) + 1e-9


def test_identity_convergence_constant(M512):
    b = wiener.character(M512, 0)
    for n in (1, 2, 4, 8):
        assert bm.kernel_tail_error(b, n, 2.0) <= 1e-14


def test_identity_convergence_matches_tail_formula(M4096, rng):
    sig, band = _band(M4096, rng, 32)
    for n in (64, 128, 256):
        assert bm.kernel_tail_error(sig, n, 2.0) == pytest.approx(
            kernel_tail_p2(band, n), rel=1e-12
        )


def test_identity_convergence_below_tolerance_for_band_limited(M4096, rng):
    for p in (1.0, 2.0, np.inf):
        sig, _ = _band(M4096, rng, 32, decay=0.25)
        assert bm.kernel_tail_error(sig, 128, p) <= 1e-2


def test_density_residual_band_limited_target(M512, rng):
    f = wiener.poisson_kernel(M512, 0.5)
    sig, _ = _band(M512, rng, 16)
    assert density_residual(f, sig, 32, floor=0.5**40) <= 1e-10


def test_density_residual_is_spectral_tail(M4096):
    f = wiener.poisson_kernel(M4096, 0.5)
    z = wiener.poisson_kernel(M4096, 0.9)
    n = 64
    residual = density_residual(f, z, n, floor=0.5**70)
    ks = np.fft.fftfreq(M4096, 1.0 / M4096).astype(int)
    tail = dense(z).copy()
    tail[np.abs(ks) < n] = 0.0
    oracle = float(np.sqrt(np.sum(np.abs(tail) ** 2)))
    assert residual == pytest.approx(oracle, rel=1e-9)
    assert residual <= 1e-2  # geometric decay leaves a small tail at n=64


def test_density_residual_raises_on_vanishing_band(M512):
    monomial = wiener.character(M512, 1)
    target = wiener.character(M512, 0)
    with pytest.raises(DivisionFloorError) as err:
        density_residual(monomial, target, 4)
    assert err.value.frequency == 0


@pytest.mark.parametrize(
    "n, error", [(256, AliasingError), (0, ValueError), (2.5, ValueError)]
)
def test_density_residual_rejects_bad_order(M512, n, error):
    # the same order checks as wiener_division: the band must be a whole
    # order, non-empty and below M/2
    f = wiener.poisson_kernel(M512, 0.5)
    target = wiener.character(M512, 0)
    with pytest.raises(error):
        density_residual(f, target, n)
    with pytest.raises(error):
        wiener.wiener_division(f, n)


def test_noiseless_deconvolution_matches_kernel_error(M4096, rng):
    blur = wiener.poisson_kernel(M4096, 0.5)
    floor = 0.5**200
    truth, band = _band(M4096, rng, 16)
    observed = wiener.convolve(blur, truth)
    for n in (64, 128):  # band-limited well below n
        recovered = bm.deconvolve(blur, observed, n, floor)
        oracle = kernel_tail_p2(band, n)
        assert wiener.lp_norm(recovered - truth, 2.0) == pytest.approx(oracle, rel=1e-9)
        # recovered signal is exactly the kernel-smoothed truth
        smoothed = wiener.convolve(wiener.fejer_kernel(M4096, n), truth)
        assert wiener.lp_norm(recovered - smoothed, 2.0) <= 1e-12


def test_deconvolution_order_one(M512, rng):
    sig, _ = _band(M512, rng, 8)
    blur = wiener.poisson_kernel(M512, 0.5)
    observed = wiener.convolve(blur, sig)
    recovered = bm.deconvolve(blur, observed, 1, 1e-12)
    expected = sig.coeff(0) * wiener.character(M512, 0).values
    assert np.allclose(recovered.values, expected, atol=1e-10)


def test_noiseless_error_non_increasing(M4096, rng):
    blur = wiener.poisson_kernel(M4096, 0.5)
    floor = 0.5**300
    truth, _ = _band(M4096, rng, 32)
    observed = wiener.convolve(blur, truth)
    errors = [
        wiener.lp_norm(bm.deconvolve(blur, observed, n, floor) - truth, 2.0)
        for n in (8, 16, 32, 64, 128, 256)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


def test_noisy_deconvolution_reported_not_asserted(M512, rng):
    truth, _ = _band(M512, rng, 8)
    blur = wiener.poisson_kernel(M512, 0.5)
    observed = wiener.convolve(blur, truth)

    def noisy_error():
        noisy = bm.add_noise(observed, 1e-3, 9)
        return wiener.lp_norm(bm.deconvolve(blur, noisy, 16, 1e-9) - truth, 2.0)

    error = noisy_error()
    assert np.isfinite(error)
    assert error == noisy_error()  # seeded noise is reproducible


def test_noise_validation(M512):
    signal = wiener.character(M512, 0)
    with pytest.raises(ValueError):
        bm.add_noise(signal, -1.0, 0)
    assert bm.add_noise(signal, 0.0, 0) is signal


@pytest.mark.parametrize("M", [512, 4096])
def test_noise_equals_the_two_draw_sum_bitwise(M, rng):
    sigma, seed = 0.05, 7
    for signal in (_band(M, rng)[0], wiener.poisson_kernel(M, 0.5)):
        draws = np.random.default_rng(seed)
        noise = (draws.standard_normal(M) + 1j * draws.standard_normal(M)) * (
            sigma / np.sqrt(2.0)
        )
        expected = signal.values + noise
        np.fft.fft(expected, norm="forward", out=expected)
        got = dense(bm.add_noise(signal, sigma, seed))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
