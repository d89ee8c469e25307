import numpy as np
import pytest

from approxinv import disk

from .support import GENERATOR, PeriodFourSampling, disk_elements, disk_sup_norm

#: Rounding allowance of the certified optimum 1 and of its certificates.
EXACT = 1e-12


def test_sup_norm_monomials(sampling):
    assert disk_sup_norm(GENERATOR, sampling) == pytest.approx(1.0, abs=1e-12)
    assert disk_sup_norm(2.0 * GENERATOR, sampling) == pytest.approx(2.0, abs=1e-12)
    p = np.array([0.0, 1.0, 1.0], complex)  # z + z^2 peaks at theta = 0
    assert disk_sup_norm(p, sampling) == pytest.approx(2.0, abs=1e-12)


def test_validate_rejects_constant_term():
    with pytest.raises(ValueError):
        disk.validate_a0(np.array([1.0, 2.0], complex))


def _schwarz_holds(p, z, sampling):
    """|p(z)| <= |z| * sup|p| (within 1e-9), the Schwarz lemma for an
    origin-vanishing p at a point z of the closed disk."""
    value = abs(disk.poly_eval(disk.validate_a0(p), np.asarray(z)))
    return value <= abs(z) * disk_sup_norm(p, sampling) + 1e-9


def test_schwarz_trivia(sampling):
    p = np.array([0.0, 0.5, 0.25], complex)
    assert _schwarz_holds(p, 0.0, sampling)
    # the generator satisfies the bound with equality at every point
    z = 0.7 + 0.1j
    assert abs(disk.poly_eval(GENERATOR, z)) == pytest.approx(
        abs(z) * disk_sup_norm(GENERATOR, sampling), abs=1e-12
    )


def test_schwarz_seeded(sampling, rng):
    for _ in range(500):
        p = disk_elements(rng, 1, int(rng.integers(1, 17)))[0]
        z = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        assert _schwarz_holds(p, complex(z), sampling)


def test_annulus_deviation_values(sampling):
    zero = np.array([0.0], complex)
    assert disk.annulus_deviation(zero, sampling) == pytest.approx(1.0, abs=1e-12)
    assert disk.annulus_deviation(GENERATOR, sampling) == pytest.approx(2.0, abs=1e-12)


def test_product_deviation_values(sampling):
    assert disk.product_deviation(GENERATOR, GENERATOR, sampling) == pytest.approx(2.0, abs=1e-12)
    zero = np.array([0.0], complex)
    assert disk.product_deviation(GENERATOR, zero, sampling) == pytest.approx(1.0, abs=1e-12)
    assert disk.product_deviation(zero, zero, sampling) == pytest.approx(1.0, abs=1e-12)


def test_chi1_multiplication_is_isometric(sampling, rng):
    # multiplication by z preserves moduli on the circle, so the two sampled
    # sups agree to rounding
    def sups(p):
        with_chi = disk_sup_norm(disk.poly_mul(p, GENERATOR), sampling)
        return with_chi, disk_sup_norm(p, sampling)

    with_chi, plain = sups(GENERATOR)
    assert with_chi == pytest.approx(1.0, abs=1e-12) and plain == pytest.approx(1.0, abs=1e-12)
    cubic = np.array([0.0, 0.0, 3.0], complex)
    with_chi, plain = sups(cubic)
    assert with_chi == pytest.approx(3.0, abs=1e-12) and plain == pytest.approx(3.0, abs=1e-12)
    for _ in range(200):
        with_chi, plain = sups(disk_elements(rng, 1, 16)[0])
        assert abs(with_chi - plain) <= 1e-12


def test_coefficient_product_matches_pointwise(sampling, rng):
    for _ in range(50):
        f1 = disk_elements(rng, 1, 8)[0]
        f2 = disk_elements(rng, 1, 8)[0]
        prod = disk.poly_mul(f1, f2)
        direct = disk.poly_eval(f1, sampling.circle) * disk.poly_eval(f2, sampling.circle)
        assert np.abs(disk.poly_eval(prod, sampling.circle) - direct).max() <= 1e-10


def test_sampled_sup_monotone_under_refinement(rng):
    coarse = disk.CircleSampling(1024)
    fine = disk.CircleSampling(4096)  # nested: every coarse angle is a fine angle
    for _ in range(50):
        p = disk_elements(rng, 1, 12)[0]
        assert disk_sup_norm(p, fine) >= disk_sup_norm(p, coarse) - 1e-15
        assert disk.annulus_deviation(p, fine) >= disk.annulus_deviation(p, coarse) - 1e-15


@pytest.mark.parametrize("angles", [1024, 2048])
def test_annulus_certificate_is_exact(angles):
    # the zero element attains 1 and the certificate puts every seeded
    # element at 1 - c >= 1 - EXACT, so the infimum over degree-8 elements is
    # exactly 1 on this sampling
    sampling = disk.CircleSampling(angles)
    zero = np.zeros(9, complex)
    assert abs(disk.annulus_deviation(zero, sampling) - 1.0) <= EXACT
    certificate = disk.annulus_certificate(sampling, 8)
    assert certificate <= EXACT
    for p in disk_elements(np.random.default_rng(3), 100, 8):
        assert disk.annulus_deviation(p, sampling) >= 1.0 - certificate


@pytest.mark.parametrize("angles", [1024, 2048])
def test_product_certificate_is_exact(angles):
    sampling = disk.CircleSampling(angles)
    zero = np.zeros(9, complex)
    assert abs(disk.product_deviation(zero, zero, sampling) - 1.0) <= EXACT
    certificate = disk.product_certificate(sampling, 8)
    assert certificate <= EXACT
    rng = np.random.default_rng(4)
    first = disk_elements(rng, 100, 8)
    second = disk_elements(rng, 100, 8)
    for f1, f2 in zip(first, second):
        assert disk.product_deviation(f1, f2, sampling) >= 1.0 - certificate


def test_certificates_weigh_the_aliased_moments():
    # annulus: 2 (|mu_4| + |mu_8|); product: nu_m = 1 at m = 5, 9, 13, where
    # f1 f2 has 4, 8 and 4 coefficient pairs of modulus up to 2 * 2
    sampling = PeriodFourSampling(1024)
    assert disk.annulus_certificate(sampling, 8) == pytest.approx(4.0, abs=EXACT)
    assert disk.product_certificate(sampling, 8) == pytest.approx(64.0, abs=EXACT)


def test_certificates_see_a_constant_term(sampling):
    # elements outside A0 are not covered: the unit constant has annulus
    # deviation 0, and 1 * z matches z exactly, although both certificates
    # promise 1 - c for every origin-vanishing element
    one = np.zeros(9, complex)
    one[0] = 1.0
    assert disk.annulus_deviation(one, sampling) <= EXACT
    assert disk.annulus_deviation(one, sampling) < 1.0 - disk.annulus_certificate(sampling, 8)
    with pytest.raises(ValueError):
        disk.product_deviation(one, GENERATOR, sampling)
    product = disk.poly_mul(one, GENERATOR)
    product[1] -= 1.0
    assert np.abs(disk.poly_eval(product, sampling.circle)).max() <= EXACT
    assert disk.product_certificate(sampling, 8) <= EXACT


def test_candidate_nets_stay_away_from_generator(sampling, rng):
    # every degree-capped candidate net member keeps sup|z g - z| at least
    # one, so no approximate identity can form in this model
    certificate = disk.product_certificate(sampling, 8)
    for g in disk_elements(rng, 200, 8):
        deviation = disk.product_deviation(GENERATOR, g, sampling)
        assert deviation >= 1.0 - EXACT and deviation >= 1.0 - certificate


def test_zero_identity_candidate_is_coordinatewise_minimal(sampling):
    # the zero element realizes deviation exactly one, and no move of a
    # single coefficient along either axis, anywhere in the sampling disk,
    # improves it
    zero = np.zeros(9, complex)
    assert disk.annulus_deviation(zero, sampling) == pytest.approx(1.0, abs=EXACT)
    for k in range(1, 9):
        for step in np.linspace(-2.2, 2.2, 23):
            for axis in (1.0, 1j):
                p = zero.copy()
                p[k] = axis * step
                assert disk.annulus_deviation(p, sampling) >= 1.0 - EXACT


@pytest.mark.parametrize("angles", [1024, 2048])
def test_boundary_screen_equals_annulus_max(angles, rng):
    # maximum modulus: the sampled sup of |p - 1| over every annulus radius
    # is attained on the innermost or outermost circle
    sampling = disk.CircleSampling(angles)
    rims = sampling.annulus.reshape(len(disk.RADII), angles)[[0, -1]].ravel()
    assert rims.shape == (2 * angles,)
    for _ in range(500):
        p = disk_elements(rng, 1, 8)[0]
        rim = float(np.abs(disk.poly_eval(p, rims) - 1.0).max())
        assert rim == disk.annulus_deviation(p, sampling)
