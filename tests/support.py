"""Test infrastructure: the algebra models at property-sweep sizes, dense
and scaled circle signals, the circle involution and the values-only rank
refuter that only the tests
read, the routes through the public verifiers that the tests and the
acceptance criteria use for module density, product certification and
adjoint duality, and the generating monomial, the element family, the
sampled sup norm and an aliased sampling of the disk model."""

from functools import cached_property
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from approxinv import c0, disk, operators, wiener
from approxinv.core import (
    AlgebraModel,
    ApproxInvCertificate,
    check_approx_invertible,
)
from approxinv.errors import DivisionFloorError


class ModelCase(NamedTuple):
    """A model with what the property sweeps need beyond the verifiers'
    fields: a sampler of generic elements from a seeded generator, the
    element type's own adjoint (a norm-preserving involution), and the unit
    of a unital algebra."""

    model: AlgebraModel
    sample: Callable[[np.random.Generator], Any]
    adjoint: Callable[[Any], Any]
    unit: Optional[Any] = None


def dense(f: wiener.CircleSignal) -> np.ndarray:
    """All M coefficients of f in FFT index order: its stored array when it
    stores them all (read-only), else a zero-padded copy."""
    return wiener._packed_at(f, f.grid_size // 2)


def signal(coeffs) -> wiener.CircleSignal:
    """The signal with all M of ``coeffs`` in FFT index order (a copy), of
    band M//2, which promises no zero."""
    coeffs = np.array(coeffs, dtype=complex)
    return wiener.CircleSignal(coeffs, coeffs.size, coeffs.size // 2)


def scaled(x, c):
    """c times x, for an array or a circle signal; a signal keeps its band,
    as the coefficientwise scalar product of a finite c does."""
    if isinstance(x, wiener.CircleSignal):
        return wiener.CircleSignal(complex(c) * x._packed, x.grid_size, x.band)
    return c * x


def involution(f: wiener.CircleSignal) -> wiener.CircleSignal:
    """The group-algebra involution conj(f(-theta)) of a circle signal."""
    return signal(np.conj(dense(f)))


def standard_models() -> list[ModelCase]:
    """One instance of every model the core verifiers run on, at sizes
    suitable for property sweeps."""
    M = 512
    space = c0.GridSpace(10.0, 201, 1e-6)
    profile = c0._sample_profile(space)
    circle = ModelCase(
        wiener.l1_circle_model(M),
        lambda rng: wiener._sample_bandlimited(M, rng),
        involution,
    )
    grid_functions = ModelCase(
        c0.c0_model(space), lambda rng: c0._sample_element(space, rng, profile), np.conj
    )
    matrices = [
        ModelCase(
            operators.matrix_model(8, p),
            lambda rng: operators._sample_operator(8, rng),
            lambda a: a.conj().T,
            np.eye(8, dtype=complex),
        )
        for p in (np.inf, 1.0, 2.0)
    ]
    return [circle, grid_functions, *matrices]


def density_residual(f, target, n, floor=None) -> float:
    """Distance from ``target`` to f . (band-limited module elements).

    The candidate y with yhat(k) = that(k)/fhat(k) on |k| < n (zero beyond)
    matches the target exactly inside the band, so the residual is the
    2-norm of the spectral tail.  Raises the order and aliasing errors of
    ``wiener.band_nonvanishing`` and, like ``wiener.wiener_division``,
    :class:`DivisionFloorError` where the band does not clear the floor.
    """
    if floor is None:
        floor = wiener.default_floor(f)
    bad = wiener.band_nonvanishing(f, n, floor)
    if bad is not None:
        raise DivisionFloorError(bad, abs(f.coeff(bad)), floor)
    band = int(n) - 1
    quotient = wiener._packed_at(target, band) / wiener._packed_at(f, band)
    reached = wiener.convolve(f, wiener.CircleSignal(quotient, f.grid_size, band))
    return wiener.lp_norm(target - reached, 2.0)


def certify_product(f1, f2, n, tol=1e-2, floor=None, test_set=None, schedule=None):
    """Certificate of the product f1 * f2 through its own division net along
    ``schedule`` (orders 1..n by default), refuted when a coefficient of the
    product fails the band check up to order n (which happens exactly where
    a factor's does).  The default test set is the constant character."""
    product = wiener.convolve(f1, f2)
    M = product.grid_size

    def refuter(x):
        bad = wiener.band_nonvanishing(x, n, floor)
        return None if bad is None else f"vanishes in band at frequency {bad}"

    return check_approx_invertible(
        wiener.l1_circle_model(M),
        product,
        wiener.wiener_division_net(product, floor),
        [wiener.character(M, 0)] if test_set is None else test_set,
        range(1, n + 1) if schedule is None else schedule,
        tol=tol,
        refuter=refuter,
    )


def rank_refuter(a) -> Optional[str]:
    """Analytic refuter from the singular values alone: the reason ``a`` has
    no dense range at the rank threshold of ``operators``, or None when it
    has."""
    lam = operators.singular_values(a)
    if lam[-1] > operators._rank_threshold(lam):
        return None
    return (
        "range not dense at truncation: smallest singular value "
        f"{float(lam[-1]):.3e}"
    )


def adjoint_certificate(t, test_set) -> ApproxInvCertificate:
    """Left certificate of t* in the Schatten model and at the tolerance of
    ``operators.certify_operator``, through the adjoint members of the right
    net of t, against the adjoint test elements; the rank check of t*
    refutes it (no net is built then)."""
    t = np.asarray(t, dtype=complex)
    adjoint = t.conj().T
    reason = rank_refuter(adjoint)
    net = None
    if reason is None:
        right = operators.right_inverse_net(operators.svd(t))

        def net(m):
            return right(m).conj().T

    return check_approx_invertible(
        operators.matrix_model(t.shape[0], operators.CERTIFY_EXPONENT),
        adjoint,
        net,
        [z.conj().T for z in test_set],
        range(1, t.shape[0] + 1),
        operators.CERTIFY_TOL,
        refuter=lambda _: reason,
    )


_MIRRORED_VERDICT = {"certified-right": "certified-left", "certified-left": "certified-right"}


def mirrors(cert: ApproxInvCertificate, dual: ApproxInvCertificate) -> bool:
    """Whether ``dual`` (a certificate of x*) mirrors ``cert`` (of x): the
    one-sided verdicts swap, the right trace of x reappears as the left trace
    of x* and vice versa, and within each entry the left and right residuals
    swap, all to 1e-9 relative to max(1, residual)."""
    if _MIRRORED_VERDICT.get(cert.verdict, cert.verdict) != dual.verdict:
        return False
    for mine, theirs in ((cert.right_trace, dual.left_trace), (cert.left_trace, dual.right_trace)):
        if mine is None or theirs is None:
            if mine is not theirs:
                return False
            continue
        if len(mine) != len(theirs):
            return False
        for a, b in zip(mine, theirs):
            pairs = ((a.residual, b.residual), (a.left, b.right), (a.right, b.left))
            if a.index != b.index or any(
                abs(x - y) > 1e-9 * max(1.0, abs(x)) for x, y in pairs
            ):
                return False
    return True


#: The generating monomial z of the disk model, as coefficients z^0, z^1.
GENERATOR = np.array([0.0, 1.0], complex)


def disk_elements(rng: np.random.Generator, count: int, degree: int) -> np.ndarray:
    """``count`` elements of the disk model's element family as rows
    z^0..z^degree: the constant column zero and the other coefficients drawn
    uniformly from the complex disk of radius ``disk.COEFFICIENT_RADIUS``,
    which the certificates cover."""
    radius = disk.COEFFICIENT_RADIUS * np.sqrt(rng.random((count, degree)))
    phase = np.exp(2j * np.pi * rng.random((count, degree)))
    out = np.zeros((count, degree + 1), dtype=complex)
    out[:, 1:] = radius * phase
    return out


def disk_sup_norm(p: np.ndarray, sampling: disk.CircleSampling) -> float:
    """Sampled sup of |p| over the unit circle (= over the disk, by the
    maximum principle); a lower bound of the true sup."""
    return float(np.abs(disk.poly_eval(p, sampling.circle)).max())


class PeriodFourSampling(disk.CircleSampling):
    """A defective sampling whose circle repeats 1, i, -1, -i: z^4 averages
    to 1 instead of 0, so the mean-value certificate no longer holds."""

    @cached_property
    def circle(self):
        return 1j ** (np.arange(self.angles) % 4)
