"""Polynomials vanishing at the origin, under the sampled disk sup norm.

Elements are coefficient arrays with zero constant term; products are exact
coefficient convolutions (degrees add, nothing is truncated).  All sup norms
are sampled maxima over circle or annulus point sets and therefore lower
bounds of the true sups, which is the safe direction for this model's role:
its headline facts are lower bounds (no element net can approach the
generating monomial closer than 1/3), verified here by a seeded randomized
search with per-coordinate golden-section refinement.

Both searches run one driver: screen random starts in batches, keep the best
few, refine them on a coarse surrogate and report the winner through the
public ``annulus_deviation`` / ``product_deviation``.  The annulus search
screens its random starts on the two boundary circles of the annulus only:
p - 1 is analytic, so by the maximum modulus principle its modulus peaks
there, and on these samplings the boundary maximum equals the maximum over
every sampled radius.  Refinement moves one real coordinate at a time; the
residual is affine in each coefficient (a product is linear in each factor),
so every golden-section probe is a rank-1 update of one residual vector
rather than a fresh evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import AlgebraModel

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

#: Lower bound on the deviation of any product from the monomial.
ONE_THIRD = 1.0 / 3.0


#: Radii of the annulus scans, 0.5 to 1 in steps of 0.05.
RADII = tuple(np.round(np.arange(0.5, 1.0001, 0.05), 2))

#: Search schedule: candidates screened per batch, candidates refined,
#: refinement sweeps, and the refinement half-width, which covers the whole
#: sampling disk so a coordinate can travel to any admissible value.
BATCH = 512
REFINE_TOP = 6
PASSES = 3
SPAN = 2.2


@dataclass(frozen=True)
class CircleSampling:
    """Angle count for the unit circle; annulus scans use ``RADII``."""

    angles: int = 2048

    def __post_init__(self):
        if self.angles < 1024:
            raise ValueError("need at least 1024 angle samples")

    @cached_property
    def circle(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.arange(self.angles) / self.angles)

    @cached_property
    def annulus(self) -> np.ndarray:
        return (np.asarray(RADII)[:, None] * self.circle[None, :]).ravel()

    @cached_property
    def boundary(self) -> np.ndarray:
        """The annulus points on its innermost and outermost circles."""
        return self.annulus.reshape(len(RADII), self.angles)[[0, -1]].ravel()


def validate_a0(p: np.ndarray) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=complex))
    if p[0] != 0:
        raise ValueError("constant term must be exactly zero")
    return p


def chi1() -> np.ndarray:
    """The generating monomial z."""
    return np.array([0.0, 1.0], dtype=complex)


def poly_eval(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(z, np.asarray(p, dtype=complex))


def poly_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.convolve(np.asarray(p, dtype=complex), np.asarray(q, dtype=complex))


def sup_norm_disk(p: np.ndarray, sampling: CircleSampling) -> float:
    """Sampled sup of |p| over the unit circle (= over the disk, by the
    maximum principle); a lower bound of the true sup."""
    return float(np.abs(poly_eval(p, sampling.circle)).max())


def schwarz_check(p: np.ndarray, z: complex, sampling: CircleSampling) -> bool:
    """|p(z)| <= |z| * sup|p| on the closed disk (within 1e-9)."""
    if abs(z) > 1:
        raise ValueError("point must lie in the closed unit disk")
    p = validate_a0(p)
    return bool(abs(poly_eval(p, np.asarray(z))) <= abs(z) * sup_norm_disk(p, sampling) + 1e-9)


def annulus_deviation(p: np.ndarray, sampling: CircleSampling) -> float:
    """Sampled sup over the annulus of |p(z) - 1|."""
    return float(np.abs(poly_eval(p, sampling.annulus) - 1.0).max())


def product_deviation(f1: np.ndarray, f2: np.ndarray, sampling: CircleSampling) -> float:
    """Sampled sup on the circle of |f1 f2 - z|, using the exact coefficient
    product."""
    prod = poly_mul(validate_a0(f1), validate_a0(f2))
    diff = prod.copy()
    diff[1] -= 1.0
    return float(np.abs(poly_eval(diff, sampling.circle)).max())


def chi1_isometry_check(p: np.ndarray, sampling: CircleSampling) -> tuple[float, float]:
    """(sup|p * z|, sup|p|): multiplication by z preserves moduli on the
    circle, so the two sampled sups agree to rounding."""
    p = validate_a0(p)
    return sup_norm_disk(poly_mul(p, chi1()), sampling), sup_norm_disk(p, sampling)


def random_a0(rng: np.random.Generator, degree: int) -> np.ndarray:
    """Coefficients drawn uniformly from the complex disk of radius 2."""
    return np.concatenate([[0.0], _coeff_matrix(rng, 1, degree)[0]])


@dataclass(frozen=True)
class SearchResult:
    value: float
    argument: tuple[np.ndarray, ...]
    starts: int


def _coeff_matrix(rng: np.random.Generator, count: int, degree: int) -> np.ndarray:
    radius = 2.0 * np.sqrt(rng.random((count, degree)))
    phase = np.exp(2j * np.pi * rng.random((count, degree)))
    return radius * phase  # row = c_1..c_degree of one candidate


def _golden_min(fn, lo: float, hi: float, iters: int = 24) -> float:
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


def _refine_coordinates(residual, direction, x: np.ndarray) -> np.ndarray:
    """Per-coordinate golden-section refinement of max|residual(x)|, sweeping
    the real and imaginary axis of every coefficient once per pass, over
    offsets in [-SPAN, SPAN].  The residual must be affine in each
    coordinate with slope ``direction(x, i)``, so a probe at offset t is
    max|r0 + t * axis * direction(x, i)| with r0 evaluated once per axis."""
    x = x.copy()
    for _ in range(PASSES):
        for i in range(x.shape[0]):
            slope = direction(x, i)
            for axis in (1.0, 1j):
                r0 = residual(x)
                step = axis * slope

                def fn(offset, r0=r0, step=step):
                    return float(np.abs(r0 + offset * step).max())

                best = _golden_min(fn, -SPAN, SPAN)
                if fn(best) > fn(0.0):  # golden section assumes unimodality
                    best = 0.0
                x[i] = x[i] + axis * best
    return x


def _annulus_residual(powers: np.ndarray):
    """p - 1 at the points whose powers z^1..z^degree are the rows of
    ``powers``, and its slope in coefficient k (the row z^(k+1))."""
    return (lambda c: c @ powers - 1.0), (lambda c, k: powers[k])


def _product_residual(powers: np.ndarray, target: np.ndarray, degree: int):
    """f1 f2 - z at the points whose powers z^0..z^(2 degree) are the rows of
    ``powers`` (x holds the coefficients of f1, then of f2), and its slope
    in coefficient k: z^j times the other factor, for the z^j coefficient."""

    def residual(x: np.ndarray) -> np.ndarray:
        full1 = np.concatenate([[0.0], x[:degree]])
        full2 = np.concatenate([[0.0], x[degree:]])
        return np.convolve(full1, full2) @ powers - target

    def direction(x: np.ndarray, k: int) -> np.ndarray:
        j, other = (k + 1, x[degree:]) if k < degree else (k - degree + 1, x[:degree])
        return powers[j] * (other @ powers[1 : degree + 1])

    return residual, direction


def _search(starts: int, draw, screen, residual, direction, report):
    """The randomized minimization behind both searches.  ``draw(m)`` draws
    m candidate rows and ``screen`` maps rows to their objective values;
    ``starts`` candidates are screened in batches of ``BATCH``, the best
    ``REFINE_TOP`` of each batch and then of all batches are refined on the
    surrogate ``residual``/``direction``, and the refined argument with the
    smallest ``report`` value is returned with that value."""
    best_vals: list[float] = []
    best_args: list[np.ndarray] = []
    remaining = starts
    while remaining > 0:
        m = min(BATCH, remaining)
        remaining -= m
        cands = draw(m)
        vals = screen(cands)
        order = np.argsort(vals)[:REFINE_TOP]
        best_vals.extend(vals[order].tolist())
        best_args.extend(cands[order])
    winner_val = float("inf")
    winner = None
    for i in np.argsort(best_vals)[:REFINE_TOP]:
        refined = _refine_coordinates(residual, direction, best_args[i])
        val = report(refined)
        if val < winner_val:
            winner_val, winner = val, refined
    return winner_val, winner


def minimize_annulus_deviation(
    sampling: CircleSampling, degree: int = 8, starts: int = 10_000, seed: int = 0
) -> SearchResult:
    """Randomized minimization of the annulus deviation over degree-capped
    elements.  The search is the measurement; the model guarantees the true
    infimum is at least 1/3, so the found value sits above 1/3 minus the
    sampling slack."""
    rng = np.random.default_rng(seed)
    points = sampling.annulus[:: max(1, sampling.annulus.shape[0] // 4096)]
    coarse = np.stack([points**k for k in range(1, degree + 1)])  # (deg, P)
    rim = np.stack([sampling.boundary**k for k in range(1, degree + 1)])

    def element(c: np.ndarray) -> np.ndarray:
        return np.concatenate([[0.0], c])

    value, winner = _search(
        starts,
        lambda m: _coeff_matrix(rng, m, degree),
        lambda cands: np.abs(cands @ rim - 1.0).max(axis=1),  # maximum modulus
        *_annulus_residual(coarse),
        lambda c: annulus_deviation(element(c), sampling),
    )
    return SearchResult(value, (element(winner),), starts)


def minimize_product_deviation(
    sampling: CircleSampling, degree: int = 8, starts: int = 10_000, seed: int = 0
) -> SearchResult:
    """Randomized minimization of sup|f1 f2 - z| over pairs of degree-capped
    elements."""
    rng = np.random.default_rng(seed)
    circle = sampling.circle
    # product of two elements has degree 2..2*degree; precompute powers
    powers = np.stack([circle**k for k in range(0, 2 * degree + 1)])  # (2d+1, P)
    stride = max(1, circle.shape[0] // 512)

    def draw(m: int) -> np.ndarray:  # row = f1's coefficients, then f2's
        c1 = _coeff_matrix(rng, m, degree)
        return np.concatenate([c1, _coeff_matrix(rng, m, degree)], axis=1)

    def screen(cands: np.ndarray) -> np.ndarray:
        # batched coefficient convolution through zero-padded FFT
        size = 2 * degree + 2
        full1 = np.zeros((cands.shape[0], size), complex)
        full2 = np.zeros((cands.shape[0], size), complex)
        full1[:, 1 : degree + 1] = cands[:, :degree]
        full2[:, 1 : degree + 1] = cands[:, degree:]
        nfft = 1 << (2 * size - 1).bit_length()
        prod = np.fft.ifft(np.fft.fft(full1, nfft) * np.fft.fft(full2, nfft))[
            :, : 2 * degree + 1
        ]
        return np.abs(prod @ powers - circle).max(axis=1)

    def factors(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.concatenate([[0.0], x[:degree]]), np.concatenate([[0.0], x[degree:]])

    value, winner = _search(
        starts,
        draw,
        screen,
        *_product_residual(powers[:, ::stride], circle[::stride], degree),
        lambda x: product_deviation(*factors(x), sampling),
    )
    return SearchResult(value, factors(winner), starts)


def disk_model(sampling: Optional[CircleSampling] = None, degree: int = 16) -> AlgebraModel:
    """The origin-vanishing polynomial algebra under the sampled sup norm."""
    if sampling is None:
        sampling = CircleSampling()

    def add(p, q):
        n = max(p.shape[0], q.shape[0])
        out = np.zeros(n, dtype=complex)
        out[: p.shape[0]] += p
        out[: q.shape[0]] += q
        return out

    return AlgebraModel(
        name=f"disk-a0-deg{degree}",
        add=add,
        scale=lambda c, p: complex(c) * p,
        mul=poly_mul,
        norm=lambda p: sup_norm_disk(p, sampling),
        involution=np.conj,
        unital=False,
        commutative=True,
        sample=lambda rng: random_a0(rng, degree),
    )
