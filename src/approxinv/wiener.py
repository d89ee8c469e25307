"""Convolution algebra of the sampled circle and its Fourier side.

Signals live on the M-point circle grid theta_m = 2 pi m / M with Haar
measure normalized to total mass one, so the algebra norm is
``mean(|values|)`` and the unit-norm kernels of classical Fourier analysis
keep their textbook constants.  Each :class:`CircleSignal` is stored by its
Fourier coefficients; convolution is a pointwise coefficient product and
grid values are synthesized on demand.  This makes the convolution theorem
and the spectral division below exact by construction, even when divided
coefficients span hundreds of orders of magnitude.

Each signal also carries a band B: every coefficient of a frequency k with
min(k, M - k) > B is an exact zero, and only the 2B + 1 coefficients within
the band are stored.  The builders set the band they write (M//2, which
promises nothing, for a signal analysed from grid values), and the two
operations the lab runs on signals, the difference and the convolution
product, compute only the bins within their result's band, so both their
storage and their cost follow the band rather than M.  The results equal
the dense coefficient arithmetic bit for bit: a product whose operands hold
a NaN or an infinite coefficient widens its band to keep the NaN that a
zero times it gives.  Only the complex synthesis in
:attr:`CircleSignal.values` (one buffer, transformed in place) pads a
signal to all M coefficient bins.  The p = 2 norm sums the squares of the
stored band, and the real synthesis reads the band's half spectrum, which
the inverse FFT zero-pads itself.

Caveat: a finite sampled circle is formally a unital convolution algebra
(the discrete delta has norm one).  The models here are truncations of the
non-unital continuum algebra and are only meaningful in the regime
``n << M/2``, where kernel orders stay far away from the sampling band.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .core import AlgebraModel
# an explicit re-export: the benchmark harness checks that its tracer
# patches this binding along with the other modules' ones
from .core import check_approx_invertible as check_approx_invertible
from .errors import AliasingError, DivisionFloorError

#: Default division floor, relative to the largest coefficient magnitude.
DIVISION_FLOOR_REL = 1e-12

#: Seed fixing the randomized part of :func:`standard_test_set`.
_STANDARD_SEED = 20260809


class CircleSignal:
    """A complex signal on the sampled circle, stored by its in-band
    coefficients.

    The circle has M >= 8 points (powers of two recommended), and every
    coefficient of a frequency k with min(k, M - k) > ``band`` is an exact
    zero.  Only the band is stored: the coefficients of the frequencies
    0..B, then -B..-1, which is the FFT-order array with its zero middle
    removed, or all M of them once 2B + 1 >= M (B is then M//2).
    :meth:`coeff` reads the coefficient of ``exp(i k theta)``.  Values on
    the grid are derived lazily and cached.  Instances are immutable: the
    constructor takes ownership of a fresh complex array nothing else
    refers to, holding the packed coefficients of a signal on M points
    that is zero beyond ``band``, and makes it read-only.
    """

    __slots__ = ("_packed", "grid_size", "band", "_values")

    def __init__(self, packed: np.ndarray, M: int, band: int):
        if packed.ndim != 1 or M < 8:
            raise ValueError("coefficients must form a 1-D array on M >= 8 points")
        packed.setflags(write=False)
        object.__setattr__(self, "_packed", packed)
        object.__setattr__(self, "grid_size", M)
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "_values", None)

    def __setattr__(self, name, value):
        raise AttributeError("CircleSignal is immutable")

    @classmethod
    def from_band(cls, M: int, band: dict[int, complex]) -> "CircleSignal":
        """Build a trig polynomial on M points from {frequency: coefficient}."""
        for k in band:
            _check_band(k, M)
        width = max(map(abs, band), default=0)
        packed = np.zeros(2 * width + 1, dtype=complex)
        for k, c in band.items():
            packed[k] = c
        return cls(packed, M, width)

    @property
    def values(self) -> np.ndarray:
        """Grid values: real, from the half spectrum, when the coefficients
        are bitwise Hermitian; complex otherwise, transformed in place in
        the one dense buffer.  The forward-normalized inverse transform is
        the plain sum of the coefficients' characters, with no 1/M scaling
        to undo."""
        cached = self._values
        if cached is None:
            if _is_hermitian(self):
                # irfft zero-pads the band's half spectrum to M//2 + 1 bins
                half = self._packed[: self.band + 1]
                cached = np.fft.irfft(half, self.grid_size, norm="forward")
            else:
                cached = _packed_at(self, self.grid_size // 2)
                if cached is self._packed:  # stored with all M bins
                    cached = cached.copy()
                np.fft.ifft(cached, norm="forward", out=cached)
            cached.setflags(write=False)
            object.__setattr__(self, "_values", cached)
        return cached

    def coeff(self, k: int) -> complex:
        M = self.grid_size
        k %= M
        if k > M // 2:
            k -= M
        return complex(self._packed[k]) if abs(k) <= self.band else 0j

    def __sub__(self, other: "CircleSignal") -> "CircleSignal":
        # beyond both bands the operands are zero, and so is their difference
        _check_same_grid(self, other)
        return _coefficientwise(np.subtract, self, other, max(self.band, other.band))

    def __repr__(self) -> str:
        return f"CircleSignal(M={self.grid_size})"


def _packed_at(f: CircleSignal, band: int) -> np.ndarray:
    """f's coefficients as a signal of band ``band`` stores them: f's own
    array at its own band, else a fresh array, cut to the narrower band or
    padded with zeros to the wider one."""
    c, own = f._packed, f.band
    if band == own:
        return c
    if band < own:
        return np.concatenate((c[: band + 1], c[c.size - band :]))
    out = np.zeros(min(2 * band + 1, f.grid_size), dtype=complex)
    out[: own + 1] = c[: own + 1]
    out[out.size - own :] = c[own + 1 :]
    return out


def _frequencies(band: int) -> np.ndarray:
    """The signed frequencies 0..band, then -band..-1: the packed order of
    a band below M/2."""
    return np.concatenate((np.arange(band + 1), np.arange(-band, 0)))


def _coefficientwise(
    ufunc: np.ufunc, f: CircleSignal, g: CircleSignal, band: int
) -> CircleSignal:
    """The signal whose coefficients are ``ufunc`` of f's and g's on the
    bins within ``band`` and zero beyond it; equal to the dense result when
    the operation is zero beyond the band.  Each operand enters cut or
    zero-padded to that band."""
    x, y = _packed_at(f, band), _packed_at(g, band)
    return CircleSignal(ufunc(x, y), f.grid_size, band)


def _finite_beyond(f: CircleSignal, band: int) -> bool:
    """True when every coefficient of f with min(k, M - k) > band is finite."""
    c, own = f._packed, f.band
    return bool(
        np.isfinite(c[band + 1 : own + 1]).all()
        and np.isfinite(c[c.size - own : c.size - band]).all()
    )


def _is_hermitian(f: CircleSignal) -> bool:
    """True when c[0] is real and c[k] == conj(c[-k]) for every k, so the
    synthesized values are real; any NaN fails the comparisons.  Beyond the
    band both sides are zero, so only the band is compared."""
    c, band = f._packed, f.band
    # the DC bin and the first mirror pair reject most arrays before the band's pass
    if not (c[0] == c[0].conjugate() and (band == 0 or c[1] == c[-1].conjugate())):
        return False
    return np.array_equal(c[1 : band + 1], np.conj(c[: c.size - band - 1 : -1]))


def _check_band(k: int, M: int) -> None:
    """:class:`AliasingError` unless |k| < M/2: a frequency, or the order n
    of a band |k| < n, at or beyond M/2 would wrap onto the band itself."""
    if abs(k) >= M // 2:
        raise AliasingError(f"|{k}| >= M/2 would alias on M = {M} samples")


def _check_same_grid(f: CircleSignal, g: CircleSignal) -> None:
    if f.grid_size != g.grid_size:
        raise ValueError(
            f"grid mismatch: {f.grid_size} vs {g.grid_size} samples"
        )


def l1_norm(f: CircleSignal) -> float:
    """Algebra norm: mean of |values| (Haar measure of total mass one).

    A sum that overflows is taken again on the magnitudes scaled by a power
    of two, so normal-range sums are bitwise unchanged.
    """
    mags = np.abs(f.values)
    with np.errstate(over="ignore"):
        mean = float(np.mean(mags))
    if mean < np.inf:
        return mean
    sup = float(mags.max())
    if not sup < np.inf:  # infinite or NaN values
        return mean
    # scaling by a power of two is exact
    exponent = math.frexp(sup)[1]
    return math.ldexp(float(np.mean(np.ldexp(mags, -exponent))), exponent)


def lp_norm(f: CircleSignal, p: float) -> float:
    """Normalized p-norm of the grid values; p = inf gives the sup.

    p = 2 reads the stored band: under unit Haar mass Parseval gives
    mean |values|^2 = sum |fhat(k)|^2, and every coefficient beyond the
    band is zero, so nothing is synthesized or padded; a sum that overflows
    or nears underflow is taken again on the coefficients scaled by a power
    of two.  Other finite p > 1 evaluate
    ``m * mean((|values| / m)^p)^(1/p)`` with m the sup, so |values|^p can
    neither underflow nor overflow to a wrong norm at large p.
    """
    if not p >= 1:  # also rejects NaN
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 2:
        coeffs = f._packed
        total = np.vdot(coeffs, coeffs).real
        # squares below 2^-1022 lose bits, but above 2^-900 those bits sit far
        # below the sum's own rounding
        if 2.0**-900 < total < np.inf:
            return float(np.sqrt(total))
        mags = np.abs(coeffs)
        sup = float(mags.max())
        if not 0.0 < sup < np.inf:  # zero, infinite or NaN coefficients
            return sup
        # scaling by a power of two is exact
        exponent = math.frexp(sup)[1]
        scaled = np.ldexp(mags, -exponent)
        return math.ldexp(math.sqrt(float(np.dot(scaled, scaled))), exponent)
    if p == 1:
        return l1_norm(f)
    mags = np.abs(f.values)
    sup = float(mags.max())
    if np.isinf(p) or not 0.0 < sup < np.inf:  # zero, infinite or NaN values
        return sup
    return sup * float(np.mean((mags / sup) ** p) ** (1.0 / p))


def convolve(f: CircleSignal, g: CircleSignal) -> CircleSignal:
    """Circular convolution (f*g)(theta_m) = mean_s f(theta_m - theta_s) g(theta_s).

    Computed as the pointwise coefficient product, which is exact for the
    sampled signals; the convolution theorem (f*g)^ = fhat ghat holds
    to rounding for band-limited inputs.  The product is zero beyond the
    smaller band unless the wider operand holds an infinite or NaN
    coefficient there, where zero times it is NaN; then it spans the wider
    band.
    """
    _check_same_grid(f, g)
    narrow, wide = sorted((f, g), key=lambda x: x.band)
    band = narrow.band if _finite_beyond(wide, narrow.band) else wide.band
    return _coefficientwise(np.multiply, f, g, band)


def character(M: int, k: int) -> CircleSignal:
    """The unit-norm character exp(i k theta) on M points."""
    _check_band(k, M)
    packed = np.zeros(2 * abs(k) + 1, dtype=complex)
    packed[k] = 1.0
    return CircleSignal(packed, M, abs(k))


def _whole_order(n) -> int:
    """A kernel or band order as an int; ``ValueError`` unless it is a
    whole number >= 1 (net indices are positive integers, and an order
    below one has an empty band)."""
    if not float(n).is_integer():
        raise ValueError(f"order must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n!r}")
    return int(n)


def fejer_kernel(M: int, n: int) -> CircleSignal:
    """Order-n kernel with triangular coefficients (1 - |k|/n)_+.

    Pointwise nonnegative with unit algebra norm; the canonical norm-one
    approximate identity of the circle algebra.
    """
    n = _whole_order(n)
    _check_band(n, M)
    packed = 1.0 - np.abs(_frequencies(n - 1)) / n
    return CircleSignal(packed.astype(complex), M, n - 1)


def poisson_kernel(M: int, r: float) -> CircleSignal:
    """Kernel with coefficients r^|k|; nonnegative with unit algebra norm."""
    if not 0 <= r < 1:
        raise ValueError("radius must lie in [0, 1)")
    half = M // 2
    # r^k <= 2^-1100 from k = cut on, far below the smallest subnormal
    # (2^-1074), so those coefficients are exact zeros; no more bins than
    # the M the array has, so that the constructor, not an IndexError,
    # rejects M < 8
    cut = 1 if r == 0 else math.ceil(1100 / -math.log2(r))
    band = min(half, cut - 1)
    size = min(2 * band + 1, M)
    with np.errstate(under="ignore"):
        powers = r ** np.arange(min(band + 1, size))
    packed = np.empty(size, dtype=complex)
    packed[: powers.size] = powers
    # the negative frequencies mirror the positive ones; a band of M//2 on
    # an even M holds the Nyquist bin once
    packed[powers.size :] = powers[size - band - 1 : 0 : -1]
    return CircleSignal(packed, M, band)


def default_floor(f: CircleSignal) -> float:
    # every coefficient beyond the band is zero, so the largest is stored
    return DIVISION_FLOOR_REL * float(np.abs(f._packed).max())


def band_nonvanishing(f: CircleSignal, n: int, floor: float) -> Optional[int]:
    """First frequency (by increasing |k|, positive first) where |fhat| fails
    to clear ``floor`` on the band |k| < n, or None when all clear.

    Raises ``ValueError`` for n < 1 or a non-integral n and
    :class:`AliasingError` for n >= M/2, where the band would wrap onto
    itself.
    """
    n = _whole_order(n)
    _check_band(n, f.grid_size)
    ks = np.arange(1, n)
    order = np.concatenate(([0], np.column_stack((ks, -ks)).ravel()))
    bad = np.flatnonzero(np.abs(_packed_at(f, n - 1)[order]) <= floor)
    return int(order[bad[0]]) if bad.size else None


def wiener_division(
    f: CircleSignal, n: int, floor: Optional[float] = None
) -> CircleSignal:
    """The order-n spectral division member h_n with
    hhat_n(k) = (1 - |k|/n)_+ / fhat(k).

    Guarantees convolve(f, h_n) = fejer_kernel(n) up to rounding, since both
    sides reduce to the same coefficient product.  Raises ``ValueError``
    for n < 1 or a non-integral n, :class:`AliasingError` for n >= M/2
    (from :func:`band_nonvanishing`) and :class:`DivisionFloorError` at the
    first band frequency whose coefficient does not clear the floor,
    refuting the non-vanishing hypothesis there.
    """
    n = _whole_order(n)
    if floor is None:
        floor = default_floor(f)
    bad = band_nonvanishing(f, n, floor)
    if bad is not None:
        raise DivisionFloorError(bad, abs(f.coeff(bad)), floor)
    packed = (1.0 - np.abs(_frequencies(n - 1)) / n) / _packed_at(f, n - 1)
    return CircleSignal(packed, f.grid_size, n - 1)


def wiener_division_net(
    f: CircleSignal, floor: Optional[float] = None
) -> Callable[[int], CircleSignal]:
    """Right inverse net n -> h_n from :func:`wiener_division`."""
    if floor is None:
        floor = default_floor(f)
    return lambda n: wiener_division(f, n, floor)


def tdz_witness(f: CircleSignal, N: int) -> float:
    """Character witness value for the zero-divisor direction at frequency
    N: convolving f with the unit-norm character exp(i N theta) scales it by
    fhat(N), so the witness value |fhat(N)| is exact.  :class:`AliasingError`
    unless |N| < M/2 (:func:`_check_band`)."""
    _check_band(N, f.grid_size)
    return abs(f.coeff(N))


def _sample_bandlimited(
    M: int, rng: np.random.Generator, degree: int = 32, decay: float = 0.25
) -> CircleSignal:
    ks = np.arange(-degree, degree + 1)
    amps = decay ** np.abs(ks) * (0.5 + 0.5 * rng.random(ks.shape[0]))
    phases = np.exp(2j * np.pi * rng.random(ks.shape[0]))
    return CircleSignal.from_band(M, dict(zip(ks.tolist(), amps * phases)))


def standard_test_set(M: int) -> list[CircleSignal]:
    """The fixed test set on M points used by the identity checks: two
    slowly varying kernels plus three band-limited signals of degree 32
    drawn from a fixed seed."""
    rng = np.random.default_rng(_STANDARD_SEED)
    out = [poisson_kernel(M, 0.3), poisson_kernel(M, 0.5)]
    out.extend(_sample_bandlimited(M, rng) for _ in range(3))
    return out


def l1_circle_model(M: int) -> AlgebraModel:
    """The M-point sampled circle convolution algebra under the
    mean-absolute norm.

    It stands in for the non-unital continuum algebra and is trusted only
    for kernel orders well below M/2.
    """
    return AlgebraModel(
        name=f"l1-circle-{M}", mul=convolve, norm=l1_norm, commutative=True
    )
