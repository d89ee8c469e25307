"""Convolution action of the circle algebra on p-normed signal spaces.

The module space is the same sampled circle carrying the normalized p-norm
``((1/M) sum |.|^p)^(1/p)`` (sup for p = inf); the action is circular
convolution, exact at grid resolution for band-limited integrands.  On top
of the action sit the convergence and density probes and the spectral-
division deconvolution experiment: recovering g from b = f (*) g plus
optional complex Gaussian noise.  Noisy error behaviour is reported, never
asserted; the noiseless recovery error is an exact kernel-approximation
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    ApproxIdentityFamily,
    ResidualTrace,
    TraceEntry,
    resolve_schedule,
)
from .wiener import (
    CircleGrid,
    CircleSignal,
    band_division,
    convolve,
    fejer_kernel,
    l1_norm,
    lp_norm,
    wiener_division,
)


@dataclass(frozen=True)
class ModuleSignal:
    """A circle signal regarded as a member of the p-normed module."""

    signal: CircleSignal
    p: float = 2.0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("module exponent must satisfy p >= 1")

    @property
    def grid_size(self) -> int:
        return self.signal.grid_size


def module_norm(b: ModuleSignal) -> float:
    return lp_norm(b.signal, b.p)


def module_action(f: CircleSignal, b: ModuleSignal) -> ModuleSignal:
    """f acting on b by circular convolution.

    Satisfies the module law (f1*f2) . b = f1 . (f2 . b) exactly and the
    bound ||f . b||_B <= ||f||_1 ||b||_B up to rounding.
    """
    return ModuleSignal(convolve(f, b.signal), b.p)


def module_identity_convergence(
    family: ApproxIdentityFamily,
    b: ModuleSignal,
    max_index: int = 64,
    schedule: Optional[Sequence[int]] = None,
    tol: float = 1e-2,
) -> ResidualTrace:
    """Trace of ||e_j . b - b||_B along an algebra approximate identity."""
    sched = resolve_schedule(max_index, schedule)
    entries = []
    for j in sched:
        e = family(j)
        r = module_norm(ModuleSignal(convolve(e, b.signal) - b.signal, b.p))
        entries.append(TraceEntry(j, r, l1_norm(e), r, r))
    return ResidualTrace(tuple(entries), tol)


def density_residual(
    f: CircleSignal,
    target: ModuleSignal,
    n: int,
    floor: Optional[float] = None,
) -> float:
    """Distance from ``target`` to f . (band-limited module elements).

    The candidate y with yhat(k) = that(k)/fhat(k) on |k| < n (zero beyond)
    matches the target exactly inside the band, so the residual is the
    p-norm of the spectral tail.  Raises the order, aliasing and
    division-floor errors of :func:`band_division`.
    """
    M = f.grid_size
    if target.grid_size != M:
        raise ValueError("signal and target live on different grids")
    y = band_division(f, lambda ks: target.signal.coeffs[ks % M], n, floor)
    reached = convolve(f, y)
    return module_norm(ModuleSignal(target.signal - reached, target.p))


@dataclass(frozen=True)
class NoiseSpec:
    """Additive complex Gaussian noise: each sample gets independent real and
    imaginary parts of variance sigma^2 / 2 (so E|z|^2 = sigma^2)."""

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("noise level must be nonnegative")

    def apply(self, signal: CircleSignal) -> CircleSignal:
        if self.sigma == 0.0:
            return signal
        rng = np.random.default_rng(self.seed)
        M = signal.grid_size
        noise = (
            rng.standard_normal(M) + 1j * rng.standard_normal(M)
        ) * (self.sigma / np.sqrt(2.0))
        return CircleSignal.from_values(signal.values + noise)


@dataclass(frozen=True)
class DeconvolutionResult:
    recovered: ModuleSignal
    observed: ModuleSignal
    order: int
    sigma: float
    error: Optional[float] = None           # ||recovered - truth||_B
    relative_error: Optional[float] = None  # error / ||truth||_B


def deconvolve(
    f: CircleSignal,
    b: ModuleSignal,
    n: int,
    noise: Optional[NoiseSpec] = None,
    truth: Optional[ModuleSignal] = None,
    floor: Optional[float] = None,
) -> DeconvolutionResult:
    """Recover g from b = f (*) g through the order-n division member.

    The estimate is g_n = h_n . b_obs with h_n the spectral division of f,
    so in the noiseless case g_n = K_n . g exactly and the recovery error
    equals the order-n kernel approximation error of g.  When ``truth`` is
    given the error report compares against it.
    """
    observed = b if noise is None else ModuleSignal(noise.apply(b.signal), b.p)
    h = wiener_division(f, n, floor)
    recovered = module_action(h, observed)
    error = relative = None
    if truth is not None:
        if truth.p != b.p:
            raise ValueError("truth and observation use different exponents")
        error = module_norm(ModuleSignal(recovered.signal - truth.signal, b.p))
        scale = module_norm(truth)
        relative = error / scale if scale > 0 else float("inf")
    return DeconvolutionResult(
        recovered, observed, n, noise.sigma if noise else 0.0, error, relative
    )


def kernel_tail_error(g: ModuleSignal, n: int) -> float:
    """Exact order-n kernel approximation error ||K_n . g - g||_B, evaluated
    directly from the coefficient action."""
    grid = CircleGrid(g.grid_size)
    k = fejer_kernel(grid, n)
    return module_norm(ModuleSignal(convolve(k, g.signal) - g.signal, g.p))
