"""Convolution action of the circle algebra on p-normed signal spaces.

The module space is the same sampled circle carrying the normalized p-norm
``((1/M) sum |.|^p)^(1/p)`` (sup for p = inf); the action is circular
convolution, exact at grid resolution for band-limited integrands.  On top
of the action sit the exact kernel-approximation error and the spectral-
division deconvolution experiment: recovering g from b = f (*) g plus
optional complex Gaussian noise.  Noisy error behaviour is reported, never
asserted; the noiseless recovery error is an exact kernel-approximation
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .wiener import (
    CircleGrid,
    CircleSignal,
    convolve,
    fejer_kernel,
    lp_norm,
    wiener_division,
)


@dataclass(frozen=True)
class ModuleSignal:
    """A circle signal regarded as a member of the p-normed module."""

    signal: CircleSignal
    p: float = 2.0

    def __post_init__(self):
        if not self.p >= 1:  # also rejects NaN
            raise ValueError(f"module exponent must satisfy p >= 1, got {self.p}")

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
        noisy = np.empty(M, dtype=complex)
        noisy.real = rng.standard_normal(M)
        noisy.imag = rng.standard_normal(M)
        noisy *= self.sigma / np.sqrt(2.0)
        noisy += signal.values
        return CircleSignal.from_values(noisy)


def deconvolve(
    f: CircleSignal,
    b: ModuleSignal,
    n: int,
    noise: Optional[NoiseSpec] = None,
    floor: Optional[float] = None,
) -> ModuleSignal:
    """Recover g from b = f (*) g through the order-n division member.

    The estimate is g_n = h_n . b_obs with h_n the spectral division of f,
    so in the noiseless case g_n = K_n . g exactly and the recovery error
    equals the order-n kernel approximation error of g.
    """
    observed = b if noise is None else ModuleSignal(noise.apply(b.signal), b.p)
    return module_action(wiener_division(f, n, floor), observed)


def kernel_tail_error(g: ModuleSignal, n: int) -> float:
    """Exact order-n kernel approximation error ||K_n . g - g||_B, evaluated
    directly from the coefficient action."""
    grid = CircleGrid(g.grid_size)
    k = fejer_kernel(grid, n)
    return module_norm(ModuleSignal(convolve(k, g.signal) - g.signal, g.p))
