import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from approxinv import banach_module as bm
from approxinv import scenarios, wiener
from approxinv.core import check_approx_invertible
from approxinv.errors import AliasingError, DivisionFloorError

from .oracles import (
    complex_synthesis,
    direct_coeff,
    direct_convolve,
    fejer_coeffs_full,
    fejer_values_closed_form,
    poisson_coeffs_full,
)
from .support import certify_product, dense, involution, scaled, signal

# (1/M) sum |2 sin theta_m| at M = 4096; the quadrature value of 4/pi
TWO_SINE_L1 = 1.2732392950638007


def _band_signal(M, rng, degree, decay=0.5):
    ks = np.arange(-degree, degree + 1)
    coeffs = decay ** np.abs(ks) * np.exp(2j * np.pi * rng.random(ks.size))
    return wiener.CircleSignal.from_band(M, dict(zip(ks.tolist(), coeffs)))


def test_constant_transform(M512):
    one = wiener.character(M512, 0)
    assert one.coeff(0) == pytest.approx(1.0, abs=1e-14)
    for k in range(1, 9):
        assert abs(one.coeff(k)) <= 1e-14
        assert abs(one.coeff(-k)) <= 1e-14


def test_convolve_with_constant_projects(M512, rng):
    g = _band_signal(M512, rng, 12)
    out = wiener.convolve(wiener.character(M512, 0), g)
    expected = g.coeff(0) * wiener.character(M512, 0).values
    assert np.allclose(out.values, expected, atol=1e-12)


def test_convolution_theorem_against_direct_sum(M512, rng):
    f = _band_signal(M512, rng, M512 // 4)
    g = _band_signal(M512, rng, M512 // 4)
    prod = wiener.convolve(f, g)
    direct = direct_convolve(f.values, g.values)
    assert np.abs(prod.values - direct).max() <= 1e-12
    for k in range(-16, 17):
        assert prod.coeff(k) == pytest.approx(f.coeff(k) * g.coeff(k), abs=1e-12)


def test_grid_mismatch_rejected(M512, M4096):
    with pytest.raises(ValueError):
        wiener.convolve(
            wiener.character(M512, 0), wiener.character(M4096, 0)
        )


def test_fejer_kernel_order_one_is_constant(M512):
    k1 = wiener.fejer_kernel(M512, 1)
    assert np.allclose(k1.values, 1.0, atol=1e-12)


def test_fejer_kernel_shape(M4096):
    for n in (2, 16, 64, 256):
        kernel = wiener.fejer_kernel(M4096, n)
        assert kernel.coeff(0) == pytest.approx(1.0, abs=1e-14)
        assert wiener.l1_norm(kernel) == pytest.approx(1.0, abs=1e-9)
        assert kernel.values.real.min() >= -1e-12
        assert np.abs(kernel.values.imag).max() <= 1e-12


def test_fejer_matches_closed_form_and_quadrature(M4096):
    # independent route: closed trigonometric form, then direct quadrature
    kernel = wiener.fejer_kernel(M4096, 64)
    closed = fejer_values_closed_form(M4096, 64)
    assert np.abs(kernel.values - closed).max() <= 1e-9
    assert direct_coeff(closed, 16) == pytest.approx(0.75, abs=1e-10)
    assert direct_coeff(closed, 0) == pytest.approx(1.0, abs=1e-10)
    assert direct_coeff(closed, 64) == pytest.approx(0.0, abs=1e-10)


def test_fejer_kernel_aliasing_guard(M512):
    with pytest.raises(AliasingError):
        wiener.fejer_kernel(M512, M512 // 2)


def test_kernel_family_not_cauchy(M4096):
    for n in range(8, 129):
        k1 = wiener.fejer_kernel(M4096, n)
        k2 = wiener.fejer_kernel(M4096, 2 * n)
        assert wiener.l1_norm(k1 - k2) >= 0.1


def _gelfand_pair(f):
    """(sup_k |fhat(k)|, algebra norm); the first never exceeds the second."""
    return float(np.abs(dense(f)).max()), wiener.l1_norm(f)


def test_gelfand_bound_trivia(M4096):
    one = wiener.character(M4096, 0)
    assert _gelfand_pair(one) == (pytest.approx(1.0), pytest.approx(1.0))
    kern = wiener.fejer_kernel(M4096, 32)
    sup, norm = _gelfand_pair(kern)
    assert sup == pytest.approx(1.0, abs=1e-12)
    assert norm == pytest.approx(1.0, abs=1e-9)


def test_gelfand_bound_two_sine(M4096):
    sig = wiener.CircleSignal.from_band(M4096, {1: 1.0, -1: -1.0})
    sup, norm = _gelfand_pair(sig)
    assert sup == pytest.approx(1.0, abs=1e-12)
    assert norm == pytest.approx(TWO_SINE_L1, abs=1e-12)
    assert norm == pytest.approx(4.0 / np.pi, abs=1e-6)


def test_gelfand_contraction_seeded(M512, rng):
    for _ in range(200):
        f = _band_signal(M512, rng, int(rng.integers(1, 60)), decay=0.8)
        sup, norm = _gelfand_pair(f)
        assert sup <= norm + 1e-9


def test_fejer_transform_tends_to_one_pointwise(M4096):
    # |K_n^(k) - 1| = min(1, |k|/n): the transform of an approximate
    # identity tends to one at every fixed frequency
    for n in (8, 16, 32, 64, 128):
        kernel = wiener.fejer_kernel(M4096, n)
        for k in (0, 1, -5, 16, 40):
            residual = abs(kernel.coeff(k) - 1.0)
            assert residual == pytest.approx(min(1.0, abs(k) / n), abs=1e-12)
    assert abs(wiener.fejer_kernel(M4096, 128).coeff(16) - 1.0) == 0.125


def test_division_constant_gives_kernel_at_order_one(M512):
    # the constant's coefficients vanish off zero, so its band check only
    # admits order one; the element dividing at every order is the unit
    # (all-ones spectrum)
    one = wiener.character(M512, 0)
    h = wiener.wiener_division(one, 1)
    assert np.allclose(dense(h), dense(wiener.fejer_kernel(M512, 1)), atol=1e-14)
    with pytest.raises(DivisionFloorError):
        wiener.wiener_division(one, 4)

    unit = signal(np.ones(M512))
    for n in (1, 4, 16):
        h = wiener.wiener_division(unit, n)
        assert np.allclose(dense(h), dense(wiener.fejer_kernel(M512, n)), atol=1e-14)


@pytest.mark.parametrize("M", range(8))
def test_poisson_kernel_rejects_small_circles(M):
    # M = 0 used to raise IndexError before the signal's own size check
    with pytest.raises(ValueError):
        wiener.poisson_kernel(M, 0.5)
    with pytest.raises(ValueError):
        wiener.standard_test_set(M)


def test_division_poisson_coefficients(M4096):
    f = wiener.poisson_kernel(M4096, 0.5)
    h = wiener.wiener_division(f, 4)
    assert h.coeff(1) == pytest.approx(1.5, abs=1e-12)
    resid = wiener.convolve(f, h) - wiener.fejer_kernel(M4096, 4)
    assert wiener.l1_norm(resid) <= 1e-10


def test_division_exactness_deep_band(M4096):
    for r in (0.3, 0.5, 0.7):
        f = wiener.poisson_kernel(M4096, r)
        floor = 0.5 * r**127
        for n in (8, 32, 128):
            resid = wiener.convolve(f, wiener.wiener_division(f, n, floor))
            resid = resid - wiener.fejer_kernel(M4096, n)
            assert wiener.l1_norm(resid) <= 1e-9


def test_division_floor_error_on_monomial(M512):
    monomial = wiener.character(M512, 1)
    with pytest.raises(DivisionFloorError) as err:
        wiener.wiener_division(monomial, 4)
    assert err.value.frequency == 0


def test_division_default_floor_refuses_sub_noise_band(M4096):
    # with the default relative floor the r=0.3 kernel only divides on a
    # shallow band; the refusal reports the first offending frequency
    f = wiener.poisson_kernel(M4096, 0.3)
    with pytest.raises(DivisionFloorError) as err:
        wiener.wiener_division(f, 128)
    assert abs(err.value.frequency) == 23  # 0.3^23 sits just below the floor
    wiener.wiener_division(f, 23)  # shallow band still divides


def test_division_net_not_cauchy(M4096):
    f = wiener.poisson_kernel(M4096, 0.5)
    floor = 0.5**130
    for n in (8, 16, 32, 64):
        h1 = wiener.wiener_division(f, n, floor)
        h2 = wiener.wiener_division(f, 2 * n, floor)
        assert wiener.l1_norm(h2 - h1) >= 0.1


def test_certificate_constant_test_element(M4096):
    # the division family fixes constants exactly, so certification at a
    # tight tolerance succeeds on the constant test element
    model = wiener.l1_circle_model(M4096)
    f = wiener.poisson_kernel(M4096, 0.5)
    cert = check_approx_invertible(
        model,
        f,
        wiener.wiener_division_net(f),
        [wiener.character(M4096, 0)],
        tol=1e-6,
        schedule=[4, 8, 16],
    )
    assert cert.verdict == "certified-two-sided"
    assert cert.right_trace[-1].residual <= 1e-12


def test_certificate_standard_test_set(M4096):
    model = wiener.l1_circle_model(M4096)
    f = wiener.poisson_kernel(M4096, 0.5)
    cert = check_approx_invertible(
        model,
        f,
        wiener.wiener_division_net(f, floor=0.5**130),
        wiener.standard_test_set(M4096),
        tol=1e-2,
        schedule=[8, 16, 32, 64, 128],
    )
    assert cert.verdict == "certified-two-sided"
    assert cert.sup_member_norm <= 1.0 + 1e-9


def test_tdz_witness_values(M4096):
    one = wiener.character(M4096, 0)
    assert wiener.tdz_witness(one, 3) == 0.0

    f = wiener.poisson_kernel(M4096, 0.5)
    value = wiener.tdz_witness(f, 20)
    assert value == pytest.approx(0.5**20, abs=1e-10)
    # quadrature route to the same coefficient
    assert value == pytest.approx(abs(direct_coeff(f.values, 20)), abs=1e-12)
    # convolving with the unit-norm character scales it by the coefficient
    chi = wiener.character(M4096, 20)
    assert wiener.l1_norm(chi) == pytest.approx(1.0, abs=1e-12)
    assert wiener.l1_norm(wiener.convolve(f, chi)) == pytest.approx(value, abs=1e-12)

    kern = wiener.fejer_kernel(M4096, 16)
    assert wiener.tdz_witness(kern, 20) == 0.0


def test_tdz_decay_monotone(M4096):
    f = wiener.poisson_kernel(M4096, 0.5)
    values = [wiener.tdz_witness(f, n) for n in range(1, 65)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_tdz_decays_on_standard_test_set(M4096):
    # every test element is a zero-divisor direction in the deep-band limit
    for f in wiener.standard_test_set(M4096):
        values = [wiener.tdz_witness(f, n) for n in (1, 16, 64, 256)]
        assert values[-1] <= 1e-6
        assert values[-1] <= values[0]


def test_band_guards(M512):
    with pytest.raises(AliasingError):
        wiener.CircleSignal.from_band(M512, {M512 // 2: 1.0})
    with pytest.raises(AliasingError):
        wiener.character(M512, M512 // 2)
    with pytest.raises(ValueError):
        wiener.tdz_witness(wiener.character(M512, 0), M512 // 2)
    with pytest.raises(ValueError):  # fewer than 8 samples
        wiener.CircleSignal.from_band(4, {0: 1.0})


def test_product_check_constants(M512):
    one = wiener.character(M512, 0)
    cert = certify_product(one, one, n=1)
    assert cert.certified
    assert cert.right_trace[-1].residual <= 1e-12


def test_product_check_poisson_pair(M4096):
    f = wiener.poisson_kernel(M4096, 0.5)
    floor = 0.25**130
    cert = certify_product(
        f,
        f,
        n=128,
        floor=floor,
        test_set=[f],
        tol=5e-2,
        schedule=[8, 32, 128],
    )
    assert cert.certified
    # the product times its order-128 division member is the order-128
    # kernel, so the residual is the kernel's error on f: pinned by the
    # direct-convolution oracle
    kernel = wiener.fejer_kernel(M4096, 128)
    oracle = np.mean(np.abs(direct_convolve(kernel.values, f.values) - f.values))
    assert cert.right_trace[-1].residual == pytest.approx(oracle, rel=1e-9)
    assert cert.right_trace[-1].residual < 0.05


def test_product_check_refutes_vanishing_factor(M512):
    monomial = wiener.character(M512, 1)
    smooth = wiener.poisson_kernel(M512, 0.4)
    # the product vanishes where the monomial does, in either order
    for f1, f2 in ((monomial, smooth), (smooth, monomial)):
        cert = certify_product(f1, f2, n=4)
        assert cert.verdict == "refuted"
        assert "frequency 0" in cert.reason


def test_product_certifies_iff_both_factors(M512):
    good = [
        wiener.poisson_kernel(M512, 0.4),
        wiener.poisson_kernel(M512, 0.7),
    ]
    bad = [
        wiener.character(M512, 1),
        wiener.CircleSignal.from_band(M512, {0: 1.0, 2: 1.0}),
    ]
    # the second bad factor vanishes at an interior band frequency
    assert wiener.band_nonvanishing(bad[1], 4) is not None
    # the two bad factors have disjoint spectra, so their product is zero
    assert not dense(wiener.convolve(bad[0], bad[1])).any()
    for f1 in good + bad:
        for f2 in good + bad:
            cert = certify_product(f1, f2, n=4, tol=1e-6)
            both_good = f1 in good and f2 in good
            assert cert.certified == both_good
            if not both_good:
                # the band refuter answers for the zero product too
                assert cert.verdict == "refuted"


def test_standard_test_set_deterministic(M512):
    a = wiener.standard_test_set(M512)
    b = wiener.standard_test_set(M512)
    assert len(a) == 5
    for f, g in zip(a, b):
        assert np.array_equal(dense(f), dense(g))


def test_signal_immutable(M512):
    f = wiener.character(M512, 0)
    with pytest.raises((AttributeError, ValueError)):
        f._packed = None
    with pytest.raises(ValueError):
        f._packed[0] = 2.0


def test_operation_results_are_read_only_and_unshared(M512):
    f = wiener.poisson_kernel(M512, 0.5)
    g = wiener.fejer_kernel(M512, 8)
    results = [
        f - g,
        involution(f),
        wiener.convolve(f, g),
        wiener.wiener_division(f, 8),
        wiener.character(M512, 3),
        wiener.character(M512, 0),
        wiener.CircleSignal.from_band(M512, {2: 1.0}),
        bm.add_noise(f, 0.1, 0),
        f,
        g,
    ]
    for result in results:
        for array in (result._packed, result.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 7.0
        for operand in (f, g):
            if result is not operand:
                assert not np.shares_memory(result._packed, operand._packed)


@pytest.mark.parametrize("n", [8, 9, 16])
def test_band_nonvanishing_rejects_aliasing_order(n):
    # at n >= M/2 the band |k| < n would read the Nyquist bin twice
    f = wiener.poisson_kernel(16, 0.5)
    with pytest.raises(AliasingError):
        wiener.band_nonvanishing(f, n)
    assert wiener.band_nonvanishing(f, 7) is None


@pytest.mark.parametrize("n", [0, -1])
def test_band_nonvanishing_rejects_empty_band(n):
    # an order below one has an empty band, so frequency 0 lies outside it
    f = wiener.character(16, 1)
    with pytest.raises(ValueError) as err:
        wiener.band_nonvanishing(f, n)
    assert not isinstance(err.value, AliasingError)
    assert wiener.band_nonvanishing(f, 1) == 0

def _band_from_data(M, data):
    band = {}
    for k, c in data:
        band[k] = band.get(k, 0) + c
    return wiener.CircleSignal.from_band(M, band)


_band_data = st.lists(
    st.tuples(
        st.integers(min_value=-10, max_value=10),
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=_band_data)
def test_convolution_commutes_and_involution_is_isometric(data):
    f = _band_from_data(64, data)
    g = wiener.poisson_kernel(64, 0.5)
    fg = wiener.convolve(f, g)
    gf = wiener.convolve(g, f)
    assert np.allclose(dense(fg), dense(gf), atol=1e-12)
    assert wiener.l1_norm(involution(f)) == pytest.approx(
        wiener.l1_norm(f), rel=1e-12, abs=1e-12
    )
    assert np.array_equal(dense(involution(involution(f))), dense(f))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data1=_band_data, data2=_band_data)
def test_convolution_associates_and_distributes(data1, data2):
    f = _band_from_data(64, data1)
    g = _band_from_data(64, data2)
    h = wiener.poisson_kernel(64, 0.7)
    left = wiener.convolve(wiener.convolve(f, g), h)
    right = wiener.convolve(f, wiener.convolve(g, h))
    assert np.allclose(dense(left), dense(right), atol=1e-10)
    dist = wiener.convolve(signal(dense(f) + dense(g)), h)
    split = dense(wiener.convolve(f, h)) + dense(wiener.convolve(g, h))
    assert np.allclose(dense(dist), split, atol=1e-10)


# ---------------------------------------------------------------------------
# Synthesis: real values for Hermitian spectra, Parseval for p = 2, kernels
# built on their band


@pytest.mark.parametrize("M", [8, 9, 512, 4096])
def test_hermitian_spectra_synthesize_real_read_only_values(M, rng):
    signals = [wiener.poisson_kernel(M, 0.5), wiener.fejer_kernel(M, 3)]
    signals.append(signals[0] - signals[1])
    # an exactly mirrored random spectrum
    half = rng.standard_normal(M // 2 + 1) + 1j * rng.standard_normal(M // 2 + 1)
    half[0] = half[0].real
    if M % 2 == 0:
        half[-1] = half[-1].real
    full = np.concatenate((half, np.conj(half[1 : (M + 1) // 2][::-1])))
    signals.append(signal(full))
    for f in signals:
        values = f.values
        expected = complex_synthesis(dense(f))
        assert values.dtype == np.float64
        assert not values.flags.writeable
        assert np.abs(values - expected).max() <= 1e-12 * np.abs(expected).max()


def _broken_spectra(M):
    base = dense(wiener.poisson_kernel(M, 0.5))
    mirror = base.copy()
    mirror[3] += 1e-9j
    dc = base.copy()
    dc[0] += 0.25j
    nyquist = base.copy()
    nyquist[M // 2] += 0.25j
    nan = base.copy()
    nan[5] = nan[M - 5] = np.nan
    nan_dc = base.copy()
    nan_dc[0] = np.nan
    return {"mirror": mirror, "dc": dc, "nyquist": nyquist, "nan": nan, "nan-dc": nan_dc}


@pytest.mark.parametrize("case", ["mirror", "dc", "nyquist", "nan", "nan-dc"])
@pytest.mark.parametrize("M", [8, 512])
def test_non_hermitian_spectra_take_the_complex_route(M, case):
    coeffs = _broken_spectra(M)[case]
    values = signal(coeffs).values
    expected = complex_synthesis(coeffs)
    assert values.dtype == np.complex128
    assert not values.flags.writeable
    if case.startswith("nan"):
        assert np.isnan(values).all() and np.isnan(expected).all()
    else:
        assert np.abs(values - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    data=_band_data,
    M=st.sampled_from([8, 9, 64, 1000]),
    hermitian=st.booleans(),
)
def test_p2_norm_by_parseval_matches_the_value_route(data, M, hermitian):
    f = _band_from_data(M, [(k % (M // 2), c) for k, c in data])
    if hermitian:
        f = signal(dense(f) + dense(involution(f)))
    mags = np.abs(complex_synthesis(dense(f)))
    # scaled by the sup, so the squares neither underflow nor overflow
    top = mags.max()
    by_values = float(top * np.mean((mags / top) ** 2) ** 0.5) if top > 0 else 0.0
    assert wiener.lp_norm(f, 2) == pytest.approx(by_values, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("M", [8, 4096, 262144])
def test_kernels_equal_the_full_grid_formulas(M):
    for n in (1, 2, 128, M // 2 - 1):
        if n < M // 2:
            assert np.array_equal(
                dense(wiener.fejer_kernel(M, n)), fejer_coeffs_full(M, n)
            )
    for r in (0.0, 0.3, 0.5, 0.7, 0.999):
        assert np.array_equal(
            dense(wiener.poisson_kernel(M, r)), poisson_coeffs_full(M, r)
        )


@pytest.mark.parametrize("M", [9, 17])
def test_kernels_on_odd_grids_equal_the_full_grid_formulas(M):
    for n in range(1, M // 2):
        assert np.array_equal(
            dense(wiener.fejer_kernel(M, n)), fejer_coeffs_full(M, n)
        )
    for r in (0.0, 1e-300, 0.5, 0.999):
        assert np.array_equal(
            dense(wiener.poisson_kernel(M, r)), poisson_coeffs_full(M, r)
        )


@pytest.mark.parametrize("p", [np.nan, 0.5, -np.inf])
def test_lp_norm_rejects_bad_exponents(M512, p):
    with pytest.raises(ValueError):
        wiener.lp_norm(wiener.character(M512, 0), p)


@pytest.mark.parametrize("n", [2.5, 0.5, np.nan, np.inf])
def test_non_integral_orders_are_rejected(M512, n):
    f = wiener.poisson_kernel(M512, 0.5)
    for call in (
        lambda: wiener.fejer_kernel(M512, n),
        lambda: wiener.band_nonvanishing(f, n),
        lambda: wiener.wiener_division(f, n),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert not isinstance(err.value, AliasingError)


def test_whole_float_orders_are_accepted(M512):
    f = wiener.poisson_kernel(M512, 0.5)
    assert np.array_equal(
        dense(wiener.fejer_kernel(M512, 4.0)), dense(wiener.fejer_kernel(M512, 4))
    )
    assert np.array_equal(
        dense(wiener.wiener_division(f, np.int64(4))),
        dense(wiener.wiener_division(f, 4)),
    )


class _SynthesisLog:
    """Wraps the inverse FFTs of ``np.fft`` and records each call's route
    ("complex" or "real") and input bytes, the input zero-padded to the
    length the transform reads (n for ``ifft``, n // 2 + 1 for ``irfft``),
    so a band's half spectrum logs as the dense one."""

    def __init__(self, monkeypatch):
        self.calls = []
        for name, route in (("ifft", "complex"), ("irfft", "real")):
            original = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, self._wrap(original, route))

    def _wrap(self, original, route):
        def wrapper(a, n=None, *args, **kwargs):
            a = np.asarray(a)
            if n is None:
                size = a.shape[-1]
            else:
                size = n if route == "complex" else n // 2 + 1
            padded = np.zeros(size, dtype=a.dtype)
            padded[: a.shape[-1]] = a[:size]
            self.calls.append((route, padded.tobytes()))
            return original(a, n, *args, **kwargs)

        return wrapper

    def routes(self):
        return [route for route, _ in self.calls]


def test_p2_norm_synthesizes_nothing(M512, rng, monkeypatch):
    log = _SynthesisLog(monkeypatch)
    for f in (_band_signal(M512, rng, 12), wiener.poisson_kernel(M512, 0.5)):
        wiener.lp_norm(f, 2)
    assert log.calls == []


def test_wiener_division_scenario_makes_no_complex_synthesis(monkeypatch):
    config = scenarios.ScenarioConfig(circle_samples=1024)
    log = _SynthesisLog(monkeypatch)
    rows = scenarios.REGISTRY["wiener-division"].run(config, 1)
    assert all(row.verdict == "pass" for row in rows)
    assert log.routes() and set(log.routes()) == {"real"}


def test_deconv_at_p2_synthesizes_only_to_add_noise(monkeypatch):
    config = scenarios.ScenarioConfig(circle_samples=1024)
    log = _SynthesisLog(monkeypatch)
    inside = []
    original = bm.add_noise

    def add_noise(signal, sigma, seed):
        before = len(log.calls)
        out = original(signal, sigma, seed)
        inside.append(len(log.calls) - before)
        return out

    monkeypatch.setattr(bm, "add_noise", add_noise)
    rows = scenarios.REGISTRY["deconv"].run(config, 1)
    assert all(row.verdict == "pass" for row in rows)
    # the noisy observation is synthesized once and its values are cached
    assert inside == [1] + [0] * (len(config.schedule) - 1)
    assert len(log.calls) == 1


def test_fejer_scenario_synthesizes_each_kernel_once(monkeypatch):
    config = scenarios.ScenarioConfig(circle_samples=1024)
    M = config.circle_samples
    log = _SynthesisLog(monkeypatch)
    rows = scenarios.REGISTRY["fejer"].run(config, 1)
    assert all(row.verdict == "pass" for row in rows)
    inputs = [data for _, data in log.calls]
    for n in config.schedule:
        kernel = dense(wiener.fejer_kernel(M, n))
        assert inputs.count(kernel[: M // 2 + 1].tobytes()) == 1
    assert len(inputs) == len(set(inputs))


# ---------------------------------------------------------------------------
# Forward-normalized synthesis and analysis; the p-norm scaled by the sup


def _complex_spectrum(M, rng):
    return rng.standard_normal(M) + 1j * rng.standard_normal(M)


@pytest.mark.parametrize("M", [8, 512, 4096])
def test_synthesis_is_exact_at_power_of_two_sizes(M, rng):
    coeffs = _complex_spectrum(M, rng)
    assert np.array_equal(signal(coeffs).values, complex_synthesis(coeffs))
    kernel = wiener.poisson_kernel(M, 0.5)
    by_irfft = np.fft.irfft(dense(kernel)[: M // 2 + 1], M) * M
    assert np.array_equal(kernel.values, by_irfft)
    # the in-place forward-normalized analysis of add_noise
    values = complex_synthesis(coeffs)
    analysed = values.astype(complex)
    np.fft.fft(analysed, norm="forward", out=analysed)
    assert np.array_equal(analysed, np.fft.fft(values) / M)


@pytest.mark.parametrize("M", [9, 17, 1000])
def test_synthesis_agrees_to_rounding_at_other_sizes(M, rng):
    coeffs = _complex_spectrum(M, rng)
    values = signal(coeffs).values
    expected = complex_synthesis(coeffs)
    assert np.abs(values - expected).max() <= 1e-15 * np.abs(expected).max()


LARGE_EXPONENTS = [2, 3, 50, 400, 1000, 1e300]


def _logarithmic_norm(values, p):
    """exp(log mean |v|^p / p), evaluated on logarithms so nothing
    under- or overflows."""
    logs = p * np.log(np.abs(values))
    top = logs.max()
    return float(np.exp((top + np.log(np.mean(np.exp(logs - top)))) / p))


@pytest.mark.parametrize("p", LARGE_EXPONENTS)
def test_lp_norm_of_a_small_signal_at_large_p(M4096, p):
    f = scaled(wiener.poisson_kernel(M4096, 0.5), 1e-3)  # sup 0.003 at theta = 0
    norm = wiener.lp_norm(f, p)
    assert norm == pytest.approx(_logarithmic_norm(f.values, p), rel=1e-12)
    if p >= 400:
        assert 0.0029 < norm <= 0.003


@pytest.mark.parametrize("c", [1e-3, 1e3, 1e-170, 1e160])
@pytest.mark.parametrize("p", LARGE_EXPONENTS)
def test_lp_norm_is_homogeneous(M4096, rng, c, p):
    f = _band_signal(M4096, rng, 12)
    expected = c * wiener.lp_norm(f, p)
    assert wiener.lp_norm(scaled(f, c), p) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c", [1e300, 1e305, 1e307])
def test_l1_norm_of_a_huge_kernel_is_finite(M4096, c):
    # the mean's sum of 4096 magnitudes overflowed from c = 1e305 on
    kernel = wiener.poisson_kernel(M4096, 0.5)
    expected = c * wiener.l1_norm(kernel)
    huge = scaled(kernel, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = wiener.l1_norm(huge)
        by_lp = wiener.lp_norm(huge, 1)
    assert np.isfinite(norm)
    assert norm == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert by_lp == norm


def test_lp_norm_of_zero_and_nan_values(M512):
    assert wiener.lp_norm(scaled(wiener.character(M512, 0), 0.0), 3) == 0.0
    coeffs = np.zeros(M512, dtype=complex)
    coeffs[0] = np.nan
    assert np.isnan(wiener.lp_norm(signal(coeffs), 3))


# ---------------------------------------------------------------------------
# Band-limited arithmetic: each operation computes the bins within its
# result's band only, yet equals the dense coefficient arithmetic


def _beyond_band(f):
    """The coefficients of f whose frequency lies beyond its band."""
    M = f.grid_size
    k = np.arange(M)
    return dense(f)[np.minimum(k, M - k) > f.band]


def _signal_of_band(M, band, seed, specials, hermitian):
    """A signal whose band is exactly ``band``: random coefficients on
    |k| <= band, mirrored to a Hermitian spectrum if asked, with
    ``specials`` ((frequency, coefficient) pairs, the frequency folded into
    the band) written over them."""
    rng = np.random.default_rng(seed)
    ks = np.arange(-band, band + 1)
    coeffs = dict(
        zip(ks.tolist(), rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size))
    )
    if hermitian:
        coeffs[0] = coeffs[0].real
        coeffs.update({-k: coeffs[k].conjugate() for k in range(1, band + 1)})
    for k, c in specials:
        coeffs[k % (2 * band + 1) - band] = c
    if band < M // 2:
        f = wiener.CircleSignal.from_band(M, coeffs)
    else:
        # from_band refuses |k| >= M/2; a dense signal has band M//2
        full = np.zeros(M, dtype=complex)
        for k, c in coeffs.items():
            full[k % M] = c
        f = signal(full)
    assert f.band == band
    return f


# a product of two 1e200 coefficients overflows to inf inside the band
_SPECIAL_COEFFS = (np.nan, np.inf, -np.inf, complex(np.inf, np.nan), 1e200, 1e200j)
_specials = st.lists(
    st.tuples(st.integers(-40, 40), st.sampled_from(_SPECIAL_COEFFS)), max_size=3
)


def _assert_same_signal(result, coeffs):
    assert np.array_equal(dense(result), coeffs, equal_nan=True)
    expected = signal(coeffs).values
    assert result.values.dtype == expected.dtype
    assert np.array_equal(result.values, expected, equal_nan=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    M=st.sampled_from([8, 9, 16, 17, 64, 65]),
    bands=st.tuples(st.integers(0, 40), st.integers(0, 40)),
    seed=st.integers(0, 2**32 - 1),
    specials=st.tuples(_specials, _specials),
    hermitian=st.booleans(),
)
# 1e200 squared at frequency 0 of both operands
@example(M=8, bands=(2, 1), seed=0, specials=([(2, 1e200)], [(1, 1e200)]), hermitian=False)
# inf at frequency -12 of the wide operand, beyond the narrow band 3
@example(M=64, bands=(3, 32), seed=1, specials=([], [(20, np.inf)]), hermitian=False)
@example(M=65, bands=(32, 0), seed=2, specials=([(0, np.nan)], []), hermitian=False)
# Hermitian but for the band's last bin
@example(M=16, bands=(5, 3), seed=3, specials=([(10, 1e200j)], []), hermitian=True)
def test_band_arithmetic_equals_the_dense_arithmetic(M, bands, seed, specials, hermitian):
    f, g = (
        _signal_of_band(M, band % (M // 2 + 1), seed + i, extra, hermitian)
        for i, (band, extra) in enumerate(zip(bands, specials))
    )
    with np.errstate(all="ignore"):
        cases = [
            (f - g, dense(f) - dense(g)),
            (wiener.convolve(f, g), dense(f) * dense(g)),
        ]
        for result, coeffs in cases:
            _assert_same_signal(result, coeffs)
            assert not _beyond_band(result).any()


def test_a_product_keeps_the_nan_of_zero_times_inf():
    # the narrow operand is zero at frequency 50, where the wide one is inf
    wide = wiener.CircleSignal.from_band(4096, {0: 1, 50: np.inf})
    narrow = wiener.CircleSignal.from_band(4096, {0: 1, 3: 0.5})
    with np.errstate(invalid="ignore"):
        product = wiener.convolve(wide, narrow)
        _assert_same_signal(product, dense(wide) * dense(narrow))
        assert np.isnan(wiener.l1_norm(product))
    assert product.band == 50


@pytest.mark.parametrize("M", [8, 9, 64, 65, 4096])
def test_every_coefficient_beyond_the_band_is_zero(M):
    half = M // 2
    f = wiener.poisson_kernel(M, 0.3)
    built = {
        "from_band": (wiener.CircleSignal.from_band(M, {-2: 3.0, 1: 0.5j}), 2),
        "from_band-empty": (wiener.CircleSignal.from_band(M, {}), 0),
        "character": (wiener.character(M, -3), 3),
        "fejer": (wiener.fejer_kernel(M, 3), 2),
        "poisson-0": (wiener.poisson_kernel(M, 0.0), 0),
        # 0.3^k <= 2^-1100 from k = 634 on
        "poisson-0.3": (f, min(half, 633)),
        "poisson-0.999": (wiener.poisson_kernel(M, 0.999), half),
        "division": (wiener.wiener_division(f, 3), 2),
        "division-2": (wiener.wiener_division(f, 2), 1),
        # analysed from grid values, so it promises nothing
        "add_noise": (bm.add_noise(f, 0.1, 0), half),
    }
    for name, (signal, band) in built.items():
        assert signal.band == band, name
        assert not _beyond_band(signal).any(), name
        floor = wiener.DIVISION_FLOOR_REL * np.abs(dense(signal)).max()
        assert wiener.default_floor(signal) == floor, name
    signals = [signal for signal, _ in built.values()]
    signals.append(wiener.CircleSignal.from_band(M, {0: 1.0, 2: np.inf}))
    with np.errstate(all="ignore"):
        for a, b in itertools.product(signals, repeat=2):
            for result in (a - b, wiener.convolve(a, b)):
                assert 0 <= result.band <= half
                assert not _beyond_band(result).any()


@pytest.mark.parametrize("M", range(8))
def test_builders_reject_small_circles(M):
    for build in (
        lambda: wiener.CircleSignal(np.ones(M, complex), M, M // 2),
        lambda: wiener.CircleSignal.from_band(M, {}),
        lambda: wiener.character(M, 0),
        lambda: wiener.fejer_kernel(M, 1),
        lambda: wiener.poisson_kernel(M, 0.0),
        lambda: wiener.poisson_kernel(M, 0.999),
    ):
        with pytest.raises(ValueError):
            build()


# ---------------------------------------------------------------------------
# Packed storage: a signal stores its band only, yet reads as the same
# signal stored with all M bins


def _bits(x):
    """x as (dtype, shape, bytes), so NaN payloads and signed zeros count."""
    x = np.asarray(x)
    return x.dtype.str, x.shape, x.tobytes()


#: How far the p = 2 norm of a packed signal may lie from that of its
#: dense copy, in units in the last place.
P2_ULPS = 4


def _division(f, n):
    """The dense coefficients of f's order-n division member, or where and
    how it was refused."""
    try:
        return _bits(dense(wiener.wiener_division(f, n)))
    except DivisionFloorError as err:
        return err.frequency, _bits(err.magnitude), _bits(err.floor)


def _readings(f):
    """Every reading of f that its storage could change, bit for bit, but
    for the p = 2 norm (see :func:`_assert_reads_as_dense`)."""
    M = f.grid_size
    readings = {
        "values": _bits(f.values),
        "coeff": [_bits(f.coeff(k)) for k in range(-M, M)],
        "default_floor": _bits(wiener.default_floor(f)),
    }
    for p in (1, 3, np.inf):
        readings[f"lp_norm-{p}"] = _bits(wiener.lp_norm(f, p))
    for n in sorted({1, 2, M // 2 - 1}):
        readings[f"band_nonvanishing-{n}"] = wiener.band_nonvanishing(f, n)
        readings[f"wiener_division-{n}"] = _division(f, n)
    return readings


def _assert_reads_as_dense(f):
    full = signal(dense(f))
    assert full.band == f.grid_size // 2
    with np.errstate(all="ignore"):
        assert _readings(f) == _readings(full)
        # the p = 2 norm sums the squares its signal stores, and a sum's
        # blocking follows its length: a few ulp apart, NaN and inf exact
        norm, expected = wiener.lp_norm(f, 2), wiener.lp_norm(full, 2)
    if np.isfinite(expected):
        assert abs(norm - expected) <= P2_ULPS * np.spacing(expected)
    else:
        assert norm == expected or (np.isnan(norm) and np.isnan(expected))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    M=st.sampled_from([8, 9, 16, 17, 64, 65]),
    which=st.sampled_from(["zero", "one", "below-half", "half"]),
    seed=st.integers(0, 2**32 - 1),
    specials=_specials,
    hermitian=st.booleans(),
)
# a NaN at frequency 0 of band 0, and 1e200 at the band's last bin
@example(M=8, which="zero", seed=0, specials=[(0, np.nan)], hermitian=False)
@example(M=9, which="below-half", seed=1, specials=[(3, 1e200)], hermitian=True)
def test_packed_signals_read_as_their_dense_copies(M, which, seed, specials, hermitian):
    band = {"zero": 0, "one": 1, "below-half": M // 2 - 1, "half": M // 2}[which]
    f = _signal_of_band(M, band, seed, specials, hermitian)
    with np.errstate(all="ignore"):
        signals = [
            f,
            wiener.convolve(f, wiener.fejer_kernel(M, 2)),
            f - wiener.character(M, 1),
            scaled(f, 0.5j),
        ]
    for signal in signals:
        _assert_reads_as_dense(signal)


@pytest.mark.parametrize("M", [8, 9, 64, 65, 4096])
def test_built_signals_read_as_their_dense_copies(M):
    f = wiener.poisson_kernel(M, 0.3)
    for signal in (
        wiener.fejer_kernel(M, 1),
        wiener.fejer_kernel(M, M // 2 - 1),
        wiener.poisson_kernel(M, 0.0),
        f,
        wiener.poisson_kernel(M, 0.999),
        wiener.character(M, 1 - M // 2),
        wiener.CircleSignal.from_band(M, {}),
        wiener.CircleSignal.from_band(M, {-2: 3.0, 1: 0.5j}),
        wiener.wiener_division(f, 2),
    ):
        _assert_reads_as_dense(signal)


LARGE_M = 2**18


def _allocation_peak(call):
    """The most bytes ``call()`` holds at once beyond what was live before
    (tracemalloc sees numpy's array buffers)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del result
    return peak


def test_band_limited_work_allocates_no_grid_sized_array():
    # one M = 2^18 coefficient array is 4 MiB; the widest band here holds
    # 2 * 1099 + 1 bins (35 KB), and its p = 2 norm as many magnitudes; a
    # difference holds its narrower operand padded to that band and its
    # result, two band arrays
    M = LARGE_M
    poisson = wiener.poisson_kernel(M, 0.5)
    builders = {
        "fejer_kernel": lambda: wiener.fejer_kernel(M, 128),
        "poisson_kernel": lambda: wiener.poisson_kernel(M, 0.5),
        "character": lambda: wiener.character(M, -7),
        "from_band": lambda: wiener.CircleSignal.from_band(M, {-3: 1.0, 5: 2j}),
        "wiener_division": lambda: wiener.wiener_division(poisson, 32),
    }
    calls = dict(builders)
    signals = {name: build() for name, build in builders.items()}
    for (a, f), (b, g) in itertools.product(signals.items(), repeat=2):
        calls[f"{a} - {b}"] = lambda f=f, g=g: f - g
        calls[f"convolve({a}, {b})"] = lambda f=f, g=g: wiener.convolve(f, g)
    for name, f in signals.items():
        # the p = 2 norm's direct sum, and the one rescaled near underflow
        for scale in (1.0, 1e-170):
            g = scaled(f, scale)
            calls[f"lp_norm({scale} * {name}, 2)"] = lambda g=g: wiener.lp_norm(g, 2)
    peaks = {name: _allocation_peak(call) for name, call in calls.items()}
    assert {name: peak for name, peak in peaks.items() if peak >= 96 * 1024} == {}


def test_l1_norm_of_a_complex_residual_holds_one_dense_buffer():
    M = LARGE_M
    x = wiener.CircleSignal.from_band(M, {-2: 1.0, 0: 0.5, 5: 0.25j})
    residual = wiener.convolve(x, wiener.fejer_kernel(M, 16)) - x
    x.values  # numpy caches each transform size's plan on first use
    peak = _allocation_peak(lambda: wiener.l1_norm(residual))
    # the complex values, synthesized in place, and their float magnitudes
    assert residual.values.dtype == np.complex128
    assert peak <= M * 16 + M * 8 + 4096


def test_add_noise_transforms_its_own_buffer():
    M = LARGE_M
    kernel = wiener.poisson_kernel(M, 0.5)
    kernel.values  # cached, so the call synthesizes nothing
    bm.add_noise(kernel, 0.1, 0)  # numpy caches each transform size's plan on first use
    peak = _allocation_peak(lambda: bm.add_noise(kernel, 0.1, 1))
    # the complex buffer, analysed in place, and one normal draw at a time
    assert peak <= M * 16 + M * 8 + 4096
