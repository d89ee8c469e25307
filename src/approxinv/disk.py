"""Polynomials vanishing at the origin, under the sampled disk sup norm.

Elements are coefficient arrays with zero constant term; products are exact
coefficient convolutions (degrees add, nothing is truncated).  All sup norms
are sampled maxima over circle or annulus point sets and therefore lower
bounds of the true sups, which is the safe direction for this model's role:
its headline facts are lower bounds (no element net can approach the
generating monomial closer than 1/3).

They are certified, not searched for.  On a circle of N equally spaced
points the discrete mean of z^k vanishes for 0 < k < N, so for an element p
of degree below N the mean of p - 1 over every sampled circle of the
annulus is -1 up to rounding, and so is the mean of (f1 f2 - z) conj(z)
over the unit circle whenever 2 * degree < N: no sampled deviation from 1
or from z falls below 1.  The zero element attains 1 in both, so 1 is the
exact optimum.  The uniform measure (and conj(z) dtheta for products) is
the dual certificate; this is the mean-value argument behind the Cauchy
estimates.  :func:`annulus_certificate` and :func:`product_certificate`
read it off the sampled circle moments: a value c puts the deviation of
every element with coefficients of modulus at most ``COEFFICIENT_RADIUS``
at 1 - c or above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Lower bound on the deviation of any product from the monomial.
ONE_THIRD = 1.0 / 3.0


#: Radii of the annulus scans, 0.5 to 1 in steps of 0.05.
RADII = tuple(np.round(np.arange(0.5, 1.0001, 0.05), 2))

#: Modulus bound of the element family's coefficients: the certificates hold
#: for every element whose coefficients lie in this disk.
COEFFICIENT_RADIUS = 2.0


@dataclass(frozen=True)
class CircleSampling:
    """Angle count for the unit circle, at least 1024; annulus scans use
    ``RADII``."""

    angles: int

    def __post_init__(self):
        if self.angles < 1024:
            raise ValueError("need at least 1024 angle samples")

    @cached_property
    def circle(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.arange(self.angles) / self.angles)

    @cached_property
    def annulus(self) -> np.ndarray:
        return (np.asarray(RADII)[:, None] * self.circle[None, :]).ravel()


def validate_a0(p: np.ndarray) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    if p[0] != 0:
        raise ValueError("constant term must be exactly zero")
    return p


def poly_eval(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(z, np.asarray(p, dtype=complex))


def poly_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.convolve(np.asarray(p, dtype=complex), np.asarray(q, dtype=complex))


def annulus_deviation(p: np.ndarray, sampling: CircleSampling) -> float:
    """Sampled sup over the annulus of |p(z) - 1|."""
    return float(np.abs(poly_eval(p, sampling.annulus) - 1.0).max())


def product_deviation(f1: np.ndarray, f2: np.ndarray, sampling: CircleSampling) -> float:
    """Sampled sup on the circle of |f1 f2 - z|, using the exact coefficient
    product."""
    prod = poly_mul(validate_a0(f1), validate_a0(f2))
    diff = np.pad(prod, (0, max(0, 2 - prod.shape[0])))
    diff[1] -= 1.0
    return float(np.abs(poly_eval(diff, sampling.circle)).max())


def annulus_certificate(sampling: CircleSampling, degree: int) -> float:
    """R * sum of |mean of z^k| on the sampled circle over k = 1..``degree``,
    R = ``COEFFICIENT_RADIUS``.  A circle of radius r <= 1 scales the k-th
    term by r^k, so every element of this degree in the element family has
    :func:`annulus_deviation` at least 1 minus this value."""
    circle = sampling.circle
    moments = np.array([(circle**k).mean() for k in range(1, degree + 1)])
    return float(COEFFICIENT_RADIUS * np.abs(moments).sum())


def product_certificate(sampling: CircleSampling, degree: int) -> float:
    """|1 - nu_1| + R^2 * sum of c_m |nu_m| over m = 2..2 ``degree``, where
    nu_m is the mean of z^m conj(z) on the sampled circle and
    c_m = min(m - 1, 2 degree + 1 - m) counts the coefficient pairs of f1 f2
    at z^m.  On points of modulus at most 1, every pair of elements of this
    degree in the element family has :func:`product_deviation` at least 1
    minus this value."""
    circle = sampling.circle
    nu = np.array([(circle**m * circle.conj()).mean() for m in range(1, 2 * degree + 1)])
    m = np.arange(2, 2 * degree + 1)
    pairs = np.minimum(m - 1, 2 * degree + 1 - m)
    return float(abs(1.0 - nu[0]) + COEFFICIENT_RADIUS**2 * (pairs * np.abs(nu[1:])).sum())
