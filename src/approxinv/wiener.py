"""Convolution algebra of the sampled circle and its Fourier side.

Signals live on the M-point circle grid theta_m = 2 pi m / M with Haar
measure normalized to total mass one, so the algebra norm is
``mean(|values|)`` and the unit-norm kernels of classical Fourier analysis
keep their textbook constants.  Each :class:`CircleSignal` is stored by its
Fourier coefficient array (FFT index order); convolution is a pointwise
coefficient product and grid values are synthesized on demand.  This makes
the convolution theorem and the spectral division below exact by
construction, even when divided coefficients span hundreds of orders of
magnitude.

Caveat: a finite sampled circle is formally a unital convolution algebra
(the discrete delta has norm one).  The models here are truncations of the
non-unital continuum algebra and are only meaningful in the regime
``n << M/2``, where kernel orders stay far away from the sampling band.

The coefficient-side norm :func:`wiener_norm` optionally accepts a frequency
weight sequence.  Weights are accepted as given; no growth condition on them
is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    AlgebraModel,
    ApproxIdentityFamily,
    ApproxInvCertificate,
    InverseNet,
    ResidualTrace,
    TraceEntry,
    ZeroDivisorModulus,
    check_approx_invertible,
    resolve_schedule,
)
from .errors import AliasingError, DivisionFloorError

#: Default division floor, relative to the largest coefficient magnitude.
DIVISION_FLOOR_REL = 1e-12

#: Seed fixing the randomized part of :func:`standard_test_set`.
_STANDARD_SEED = 20260809


@dataclass(frozen=True)
class CircleGrid:
    """The M-point sampled circle; M >= 8, powers of two recommended."""

    M: int

    def __post_init__(self):
        if self.M < 8:
            raise ValueError("circle grid needs at least 8 samples")

    @cached_property
    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.M) / self.M

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Signed frequency of each FFT bin."""
        return np.fft.fftfreq(self.M, 1.0 / self.M).astype(int)


class CircleSignal:
    """A complex signal on the sampled circle, stored by its coefficients.

    ``coeffs[k % M]`` is the coefficient of ``exp(i k theta)``.  Values on
    the grid are derived lazily and cached.  Instances are immutable.
    """

    __slots__ = ("coeffs", "_values")

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.shape[0] < 8:
            raise ValueError("coefficient array must be 1-D with length >= 8")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_values", None)

    def __setattr__(self, name, value):
        raise AttributeError("CircleSignal is immutable")

    @classmethod
    def from_values(cls, values: Sequence[complex]) -> "CircleSignal":
        values = np.asarray(values, dtype=complex)
        return cls(np.fft.fft(values) / values.shape[0])

    @classmethod
    def from_band(cls, grid: CircleGrid, band: dict[int, complex]) -> "CircleSignal":
        """Build a trig polynomial from {frequency: coefficient}."""
        coeffs = np.zeros(grid.M, dtype=complex)
        for k, c in band.items():
            if abs(k) >= grid.M // 2:
                raise AliasingError(f"frequency {k} outside band of M={grid.M}")
            coeffs[k % grid.M] = c
        return cls(coeffs)

    @property
    def grid_size(self) -> int:
        return self.coeffs.shape[0]

    @property
    def values(self) -> np.ndarray:
        cached = self._values
        if cached is None:
            cached = np.fft.ifft(self.coeffs) * self.grid_size
            cached.setflags(write=False)
            object.__setattr__(self, "_values", cached)
        return cached

    def coeff(self, k: int) -> complex:
        return complex(self.coeffs[k % self.grid_size])

    # linear structure (pointwise on coefficients, hence on values)
    def __add__(self, other: "CircleSignal") -> "CircleSignal":
        _check_same_grid(self, other)
        return CircleSignal(self.coeffs + other.coeffs)

    def __sub__(self, other: "CircleSignal") -> "CircleSignal":
        _check_same_grid(self, other)
        return CircleSignal(self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "CircleSignal":
        return CircleSignal(self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def involution(self) -> "CircleSignal":
        """The group-algebra involution conj(f(-theta))."""
        return CircleSignal(np.conj(self.coeffs))

    def __repr__(self) -> str:
        return f"CircleSignal(M={self.grid_size})"


def _check_same_grid(f: CircleSignal, g: CircleSignal) -> None:
    if f.grid_size != g.grid_size:
        raise ValueError(
            f"grid mismatch: {f.grid_size} vs {g.grid_size} samples"
        )


def l1_norm(f: CircleSignal) -> float:
    """Algebra norm: mean of |values| (Haar measure of total mass one)."""
    return float(np.mean(np.abs(f.values)))


def lp_norm(f: CircleSignal, p: float) -> float:
    """Normalized p-norm of the grid values; p = inf gives the sup."""
    if p < 1:
        raise ValueError("p must be >= 1")
    mags = np.abs(f.values)
    if np.isinf(p):
        return float(mags.max())
    return float(np.mean(mags**p) ** (1.0 / p))


def wiener_norm(f: CircleSignal, weights: Optional[np.ndarray] = None) -> float:
    """Coefficient-side norm sum_k w(k) |fhat(k)| (weights default to one)."""
    mags = np.abs(f.coeffs)
    if weights is None:
        return float(mags.sum())
    weights = np.asarray(weights, dtype=float)
    if weights.shape != mags.shape or np.any(weights < 1):
        raise ValueError("weights must match the grid and be >= 1")
    return float((weights * mags).sum())


def convolve(f: CircleSignal, g: CircleSignal) -> CircleSignal:
    """Circular convolution (f*g)(theta_m) = mean_s f(theta_m - theta_s) g(theta_s).

    Computed as the pointwise coefficient product, which is exact for the
    sampled signals; the convolution theorem fourier(f*g) = fhat ghat holds
    to rounding for band-limited inputs.
    """
    _check_same_grid(f, g)
    return CircleSignal(f.coeffs * g.coeffs)


@dataclass(frozen=True)
class FourierCoeffs:
    """Coefficients fhat(k) for |k| <= n_max, indexed by signed frequency."""

    values: np.ndarray
    n_max: int

    def __getitem__(self, k: int) -> complex:
        if abs(k) > self.n_max:
            raise IndexError(f"|{k}| exceeds n_max={self.n_max}")
        return complex(self.values[k + self.n_max])

    @property
    def frequencies(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)


def fourier(f: CircleSignal, n_max: int) -> FourierCoeffs:
    """Extract the coefficients on the band |k| <= n_max (n_max < M/2)."""
    if n_max >= f.grid_size // 2:
        raise AliasingError(f"n_max={n_max} exceeds band of M={f.grid_size}")
    ks = np.arange(-n_max, n_max + 1)
    return FourierCoeffs(f.coeffs[ks % f.grid_size].copy(), n_max)


def constant_signal(grid: CircleGrid, value: complex = 1.0) -> CircleSignal:
    coeffs = np.zeros(grid.M, dtype=complex)
    coeffs[0] = value
    return CircleSignal(coeffs)


def character(grid: CircleGrid, k: int) -> CircleSignal:
    """The unit-norm character exp(i k theta)."""
    if abs(k) >= grid.M // 2:
        raise AliasingError(f"frequency {k} outside band of M={grid.M}")
    coeffs = np.zeros(grid.M, dtype=complex)
    coeffs[k % grid.M] = 1.0
    return CircleSignal(coeffs)


def fejer_kernel(grid: CircleGrid, n: int) -> CircleSignal:
    """Order-n kernel with triangular coefficients (1 - |k|/n)_+.

    Pointwise nonnegative with unit algebra norm; the canonical norm-one
    approximate identity of the circle algebra.
    """
    if n < 1:
        raise ValueError("kernel order must be >= 1")
    if n >= grid.M // 2:
        raise AliasingError(f"order n={n} would alias on M={grid.M} samples")
    tri = np.maximum(0.0, 1.0 - np.abs(grid.frequencies) / n)
    return CircleSignal(tri.astype(complex))


def fejer_family(grid: CircleGrid) -> ApproxIdentityFamily:
    return ApproxIdentityFamily(lambda n: fejer_kernel(grid, n), norm_bound=1.0)


def poisson_kernel(grid: CircleGrid, r: float) -> CircleSignal:
    """Kernel with coefficients r^|k|; nonnegative with unit algebra norm."""
    if not 0 <= r < 1:
        raise ValueError("radius must lie in [0, 1)")
    with np.errstate(under="ignore"):
        coeffs = (r ** np.abs(grid.frequencies)).astype(complex)
    return CircleSignal(coeffs)


def gelfand_sup_bound(f: CircleSignal) -> tuple[float, float]:
    """(sup_k |fhat(k)|, algebra norm); the first never exceeds the second."""
    return float(np.abs(f.coeffs).max()), l1_norm(f)


def aid_pointwise_limit_check(
    family: ApproxIdentityFamily,
    frequencies: Sequence[int],
    max_index: int = 64,
    schedule: Optional[Sequence[int]] = None,
    tol: float = 1e-2,
) -> dict[int, ResidualTrace]:
    """Trace |ehat_j(k) - 1| per frequency: the transform of an approximate
    identity must tend to one at every fixed frequency."""
    sched = resolve_schedule(max_index, schedule)
    entries: dict[int, list[TraceEntry]] = {int(k): [] for k in frequencies}
    for j in sched:
        e = family(j)
        member = l1_norm(e)
        for k in entries:
            if abs(k) >= e.grid_size // 2:
                raise AliasingError(f"frequency {k} outside band of M={e.grid_size}")
            r = abs(e.coeff(k) - 1.0)
            entries[k].append(TraceEntry(j, r, member, r, r))
    return {k: ResidualTrace(tuple(ent), tol) for k, ent in entries.items()}


def default_floor(f: CircleSignal) -> float:
    return DIVISION_FLOOR_REL * float(np.abs(f.coeffs).max())


def band_nonvanishing(
    f: CircleSignal, n: int, floor: Optional[float] = None
) -> Optional[int]:
    """First frequency (by increasing |k|, positive first) where |fhat| fails
    to clear the floor on the band |k| < n, or None when all clear."""
    if floor is None:
        floor = default_floor(f)
    ks = np.arange(1, n)
    order = np.concatenate(([0], np.column_stack((ks, -ks)).ravel()))
    bad = np.flatnonzero(np.abs(f.coeffs[order % f.grid_size]) <= floor)
    return int(order[bad[0]]) if bad.size else None


def band_division(
    f: CircleSignal,
    numerator: Callable[[np.ndarray], np.ndarray],
    n: int,
    floor: Optional[float] = None,
) -> CircleSignal:
    """The signal with coefficients numerator(k) / fhat(k) on the band
    |k| < n and zero beyond; ``numerator`` maps an array of signed band
    frequencies to their numerator coefficients.

    Raises ``ValueError`` for n < 1, :class:`AliasingError` for n >= M/2 and
    :class:`DivisionFloorError` at the first band frequency whose
    coefficient does not clear the floor.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    M = f.grid_size
    if n >= M // 2:
        raise AliasingError(f"order n={n} would alias on M={M} samples")
    if floor is None:
        floor = default_floor(f)
    bad = band_nonvanishing(f, n, floor)
    if bad is not None:
        raise DivisionFloorError(bad, abs(f.coeff(bad)), floor)
    ks = np.fft.fftfreq(M, 1.0 / M).astype(int)
    band = np.abs(ks) < n
    coeffs = np.zeros(M, dtype=complex)
    coeffs[band] = numerator(ks[band]) / f.coeffs[band]
    return CircleSignal(coeffs)


def wiener_division(
    f: CircleSignal, n: int, floor: Optional[float] = None
) -> CircleSignal:
    """The order-n spectral division member h_n with
    hhat_n(k) = (1 - |k|/n)_+ / fhat(k).

    Guarantees convolve(f, h_n) = fejer_kernel(n) up to rounding, since both
    sides reduce to the same coefficient product.  Raises
    :class:`DivisionFloorError` at the first band frequency whose coefficient
    does not clear the floor, refuting the non-vanishing hypothesis there.
    """
    return band_division(f, lambda ks: 1.0 - np.abs(ks) / n, n, floor)


def wiener_division_net(
    f: CircleSignal, floor: Optional[float] = None
) -> InverseNet:
    """Right inverse net n -> h_n from :func:`wiener_division`."""
    if floor is None:
        floor = default_floor(f)
    return InverseNet(lambda n: wiener_division(f, n, floor), "right")


def tdz_witness(f: CircleSignal, N: int) -> ZeroDivisorModulus:
    """Character witness for the zero-divisor direction at frequency N.

    Convolving with the unit-norm character scales it by fhat(N), so the
    reported value |fhat(N)| is exact.
    """
    M = f.grid_size
    if not 0 <= N < M // 2:
        raise ValueError(f"witness frequency must lie in [0, {M // 2})")
    grid = CircleGrid(M)
    return ZeroDivisorModulus(abs(f.coeff(N)), character(grid, N), "exact")


def product_invertibility_check(
    f1: CircleSignal,
    f2: CircleSignal,
    n: int,
    floor: Optional[float] = None,
    test_set: Optional[Sequence[CircleSignal]] = None,
    tol: float = 1e-2,
    schedule: Optional[Sequence[int]] = None,
) -> ApproxInvCertificate:
    """Certificate for the product f1 * f2 built from the diagonal net
    ``j -> h_j(f1) * h_j(f2)``.

    The product certifies exactly when both factors divide; a factor failing
    its band check refutes the product, and the reason records which factor
    and frequency failed.
    """
    _check_same_grid(f1, f2)
    grid = CircleGrid(f1.grid_size)
    product = convolve(f1, f2)
    model = l1_circle_model(grid)
    for label, factor in (("factor 1", f1), ("factor 2", f2)):
        try:
            wiener_division(factor, n, floor)
        except DivisionFloorError as err:
            return ApproxInvCertificate(
                product,
                None,
                None,
                None,
                "refuted",
                f"{label} vanishes in band at frequency {err.frequency}",
            )
    net1 = wiener_division_net(f1, floor)
    net2 = wiener_division_net(f2, floor)
    net = InverseNet(lambda j: convolve(net1(j), net2(j)), "right")
    if test_set is None:
        test_set = [constant_signal(grid)]
    return check_approx_invertible(
        model, product, net, test_set, tol=tol, max_index=n, schedule=schedule
    )


def nonvanishing_refuter(n: int, floor: Optional[float] = None):
    """Model refuter: an exact (sub-floor) zero coefficient inside the band
    excludes approximate invertibility in the truncated algebra."""

    def refute(f: CircleSignal) -> Optional[str]:
        bad = band_nonvanishing(f, n, floor)
        if bad is not None:
            return f"coefficient vanishes in band at frequency {bad}"
        return None

    return refute


def _sample_bandlimited(
    grid: CircleGrid, rng: np.random.Generator, degree: int = 32, decay: float = 0.25
) -> CircleSignal:
    ks = np.arange(-degree, degree + 1)
    amps = decay ** np.abs(ks) * (0.5 + 0.5 * rng.random(ks.shape[0]))
    phases = np.exp(2j * np.pi * rng.random(ks.shape[0]))
    return CircleSignal.from_band(grid, dict(zip(ks.tolist(), amps * phases)))


def standard_test_set(grid: CircleGrid, seed: int = _STANDARD_SEED) -> list[CircleSignal]:
    """The fixed test set used by the identity checks: two slowly varying
    kernels plus three seeded band-limited signals of degree 32."""
    rng = np.random.default_rng(seed)
    out = [poisson_kernel(grid, 0.3), poisson_kernel(grid, 0.5)]
    out.extend(_sample_bandlimited(grid, rng) for _ in range(3))
    return out


def _zeta_exact(f: CircleSignal) -> tuple[float, CircleSignal]:
    """Zero-divisor modulus in the truncated algebra.

    With a spectral zero the matching character is an exact zero divisor.
    Otherwise the infimum is attained at the normalized inverse kernel
    h = F^{-1}(1/fhat) and equals 1 / l1_norm(h); when the inverse spectrum
    would overflow, the character at the smallest coefficient still
    witnesses an upper estimate.
    """
    mags = np.abs(f.coeffs)
    kmin = int(np.argmin(mags))
    if mags[kmin] < 1e-290:  # includes exact zeros; inverse would overflow
        witness_coeffs = np.zeros(f.grid_size, dtype=complex)
        witness_coeffs[kmin] = 1.0  # unit-norm character at the argmin bin
        return float(mags[kmin]), CircleSignal(witness_coeffs)
    h = CircleSignal(1.0 / f.coeffs)
    nh = l1_norm(h)
    return 1.0 / nh, (1.0 / nh) * h


def l1_circle_model(grid: CircleGrid) -> AlgebraModel:
    """The sampled circle convolution algebra under the mean-absolute norm.

    Flagged non-unital: the model stands in for the continuum algebra and is
    trusted only for kernel orders well below M/2.
    """
    return AlgebraModel(
        name=f"l1-circle-{grid.M}",
        add=lambda a, b: a + b,
        scale=lambda c, a: complex(c) * a,
        mul=convolve,
        norm=l1_norm,
        involution=lambda a: a.involution(),
        unital=False,
        sample=lambda rng: _sample_bandlimited(grid, rng),
        zeta_exact=_zeta_exact,
    )
