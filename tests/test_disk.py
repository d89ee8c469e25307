import numpy as np
import pytest

from approxinv import disk

from .oracles import full_objective_refine

BOUND = disk.ONE_THIRD - 1e-2


def test_sup_norm_monomials(sampling):
    assert disk.sup_norm_disk(disk.chi1(), sampling) == pytest.approx(1.0, abs=1e-12)
    assert disk.sup_norm_disk(2.0 * disk.chi1(), sampling) == pytest.approx(2.0, abs=1e-12)
    p = np.array([0.0, 1.0, 1.0], complex)  # z + z^2 peaks at theta = 0
    assert disk.sup_norm_disk(p, sampling) == pytest.approx(2.0, abs=1e-12)


def test_validate_rejects_constant_term():
    with pytest.raises(ValueError):
        disk.validate_a0(np.array([1.0, 2.0], complex))


def test_schwarz_trivia(sampling):
    p = np.array([0.0, 0.5, 0.25], complex)
    assert disk.schwarz_check(p, 0.0, sampling)
    # the generator satisfies the bound with equality at every point
    assert disk.schwarz_check(disk.chi1(), 0.7 + 0.1j, sampling)
    with pytest.raises(ValueError):
        disk.schwarz_check(p, 1.5, sampling)


def test_schwarz_seeded(sampling, rng):
    for _ in range(500):
        p = disk.random_a0(rng, int(rng.integers(1, 17)))
        z = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        assert disk.schwarz_check(p, complex(z), sampling)


def test_annulus_deviation_values(sampling):
    zero = np.array([0.0], complex)
    assert disk.annulus_deviation(zero, sampling) == pytest.approx(1.0, abs=1e-12)
    assert disk.annulus_deviation(disk.chi1(), sampling) == pytest.approx(2.0, abs=1e-12)


def test_product_deviation_values(sampling):
    chi = disk.chi1()
    assert disk.product_deviation(chi, chi, sampling) == pytest.approx(2.0, abs=1e-12)
    zero = np.array([0.0], complex)
    assert disk.product_deviation(chi, zero, sampling) == pytest.approx(1.0, abs=1e-12)


def test_chi1_multiplication_is_isometric(sampling, rng):
    with_chi, plain = disk.chi1_isometry_check(disk.chi1(), sampling)
    assert with_chi == pytest.approx(1.0, abs=1e-12) and plain == pytest.approx(1.0, abs=1e-12)
    cubic = np.array([0.0, 0.0, 3.0], complex)
    with_chi, plain = disk.chi1_isometry_check(cubic, sampling)
    assert with_chi == pytest.approx(3.0, abs=1e-12) and plain == pytest.approx(3.0, abs=1e-12)
    for _ in range(200):
        p = disk.random_a0(rng, 16)
        with_chi, plain = disk.chi1_isometry_check(p, sampling)
        assert abs(with_chi - plain) <= 1e-12


def test_coefficient_product_matches_pointwise(sampling, rng):
    for _ in range(50):
        f1 = disk.random_a0(rng, 8)
        f2 = disk.random_a0(rng, 8)
        prod = disk.poly_mul(f1, f2)
        direct = disk.poly_eval(f1, sampling.circle) * disk.poly_eval(f2, sampling.circle)
        assert np.abs(disk.poly_eval(prod, sampling.circle) - direct).max() <= 1e-10


def test_sampled_sup_monotone_under_refinement(rng):
    coarse = disk.CircleSampling(1024)
    fine = disk.CircleSampling(4096)  # nested: every coarse angle is a fine angle
    for _ in range(50):
        p = disk.random_a0(rng, 12)
        assert disk.sup_norm_disk(p, fine) >= disk.sup_norm_disk(p, coarse) - 1e-15
        assert disk.annulus_deviation(p, fine) >= disk.annulus_deviation(p, coarse) - 1e-15


def test_annulus_search_respects_bound(sampling):
    result = disk.minimize_annulus_deviation(sampling, degree=8, starts=1000, seed=3)
    assert result.value >= BOUND
    # interior circles average any admissible element to zero, so no element
    # gets below deviation one on this sampling (up to sampling slack)
    assert result.value >= 1.0 - 1e-3
    assert result.argument[0][0] == 0.0


def test_product_search_respects_bound(sampling):
    result = disk.minimize_product_deviation(sampling, degree=8, starts=1000, seed=4)
    assert result.value >= BOUND
    assert result.value >= 1.0 - 1e-3
    f1, f2 = result.argument
    assert f1[0] == 0.0 and f2[0] == 0.0


def test_candidate_nets_stay_away_from_generator(sampling, rng):
    # every degree-capped candidate net member keeps sup|chi1 g - chi1| large,
    # so no approximate identity can form in this model
    chi = disk.chi1()
    best = np.inf
    for _ in range(200):
        g = disk.random_a0(rng, 8)
        best = min(best, disk.product_deviation(chi, g, sampling))
    circle = sampling.circle
    refined = disk._refine_coordinates(
        lambda c: circle * disk.poly_eval(np.concatenate([[0.0], c]), circle) - circle,
        lambda c, k: circle ** (k + 2),
        disk.random_a0(rng, 8)[1:],
    )
    best = min(best, disk.product_deviation(chi, np.concatenate([[0.0], refined]), sampling))
    assert best >= BOUND
    assert best >= 1.0 - 1e-3


def test_zero_identity_candidate_is_coordinatewise_minimal(sampling):
    # the zero element realizes deviation exactly one; no single-coordinate
    # move improves it, matching the search floor above
    objective = lambda c: disk.annulus_deviation(np.concatenate([[0.0], c]), sampling)
    zero = np.zeros(8, complex)
    assert objective(zero) == pytest.approx(1.0, abs=1e-12)
    refined = disk._refine_coordinates(
        lambda c: disk.poly_eval(np.concatenate([[0.0], c]), sampling.annulus) - 1.0,
        lambda c, k: sampling.annulus ** (k + 1),
        zero,
    )
    assert objective(refined) >= 1.0 - 1e-12


@pytest.mark.parametrize("angles", [1024, 2048])
def test_boundary_screen_equals_annulus_max(angles, rng):
    # maximum modulus: the sampled sup of |p - 1| over every annulus radius
    # is attained on the innermost or outermost circle
    sampling = disk.CircleSampling(angles)
    assert sampling.boundary.shape == (2 * angles,)
    for _ in range(500):
        p = disk.random_a0(rng, 8)
        rim = float(np.abs(disk.poly_eval(p, sampling.boundary) - 1.0).max())
        assert rim == disk.annulus_deviation(p, sampling)


def test_searches_match_recorded_values(sampling):
    # recorded from the full-annulus screen and the full-objective refinement
    annulus = disk.minimize_annulus_deviation(sampling, starts=10_000, seed=6)
    product = disk.minimize_product_deviation(sampling, starts=10_000, seed=7)
    assert f"{annulus.value:.12e}" == "2.108460192366e+00"
    assert f"{product.value:.12e}" == "2.497014156108e+00"


def _annulus_surrogate(sampling, degree):
    points = sampling.annulus
    powers = np.stack([points**k for k in range(1, degree + 1)])
    return disk._annulus_residual(powers[:, :: max(1, points.shape[0] // 4096)])


def _product_surrogate(sampling, degree):
    circle = sampling.circle
    powers = np.stack([circle**k for k in range(2 * degree + 1)])
    stride = max(1, circle.shape[0] // 512)
    return disk._product_residual(powers[:, ::stride], circle[::stride], degree)


@pytest.mark.parametrize("kind", ["annulus", "product"])
def test_rank1_refinement_matches_full_objective_oracle(kind, sampling):
    degree = 8
    make, width = {
        "annulus": (_annulus_surrogate, degree),
        "product": (_product_surrogate, 2 * degree),
    }[kind]
    residual, direction = make(sampling, degree)
    objective = lambda x: float(np.abs(residual(x)).max())
    rng = np.random.default_rng(21)
    starts = [np.zeros(width, complex)] + list(disk._coeff_matrix(rng, 3, width))
    for x0 in starts:
        expected = full_objective_refine(objective, x0)
        got = disk._refine_coordinates(residual, direction, x0)
        assert np.abs(got - expected).max() <= 1e-12
        assert f"{objective(got):.12e}" == f"{objective(expected):.12e}"
