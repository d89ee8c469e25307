"""Functions vanishing at infinity, realized on a truncated symmetric grid.

The ambient space is the interval [-L, L] sampled at G points; "vanishing at
infinity" is encoded by a tail bound at the two extreme grid cells, which a
finite grid can check exactly while keeping the sup norm exact on the
representation.  Compact sets are index windows, approximate identities are
piecewise-linear plateau functions over growing windows (linear ramps keep
the reciprocal identity f * (e/f) = e exact in grid arithmetic), and
certification reduces to the element having no zero on the grid.  On a
finite grid the windows stop growing at the largest one that fits, so a
window family has finitely many distinct members and certification checks
exactly those.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .core import AlgebraModel, ApproxInvCertificate, check_approx_invertible
from .errors import CannotPerturbError, SingularDivisionError

#: Reciprocal-division threshold, relative to the sup norm.
DIVISION_THRESHOLD_REL = 1e-12

#: Growth steps of :class:`WindowFamily` from the center cell to the
#: largest window that fits with its ramp (the last step may be shorter).
WINDOW_STEPS = 8

#: Ramp width, in cells, on each side of every :class:`WindowFamily` window.
WINDOW_RAMP = 2

#: Tolerance of :func:`certify`.
CERTIFY_TOL = 1e-3


@dataclass(frozen=True)
class GridSpace:
    """Symmetric grid t_i = -L + i*delta, i = 0..G-1, with a tail tolerance
    bounding admissible values at the two extreme cells.

    The grid holds the center cell of :class:`WindowFamily` with its
    ``WINDOW_RAMP`` cells on each side, so G >= 2 * WINDOW_RAMP + 1.  The
    half width L is a normal float: the sampled elements' Gaussian widths,
    fractions of L, would round to zero below it.

    The tail tolerance must sit above any non-vanishing threshold used for
    certification: on a compact grid an element cannot clear a threshold
    everywhere while staying under a smaller tail bound at the boundary.
    """

    half_width: float
    points: int
    tail_tol: float

    def __post_init__(self):
        if self.points < 2 * WINDOW_RAMP + 1:
            raise ValueError(f"grid needs at least {2 * WINDOW_RAMP + 1} points")
        if self.half_width < np.finfo(float).tiny or self.tail_tol <= 0:
            raise ValueError("half width must be a normal float, tail tolerance positive")
        if not np.isfinite(2.0 * self.half_width):
            raise ValueError("grid diameter 2 * half width must be finite")

    @cached_property
    def t(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.points)

    @property
    def center(self) -> int:
        return (self.points - 1) // 2


def sup_norm(f: np.ndarray) -> float:
    return float(np.abs(f).max())


def plateau(space: GridSpace, a: int, b: int, ramp: int) -> np.ndarray:
    """Piecewise-linear bump: 1 on the closed index window [a, b], linear
    ramp to 0 over ``ramp`` cells on each side, 0 beyond."""
    if not 0 <= a <= b:
        raise ValueError("window indices must satisfy 0 <= a <= b")
    if ramp < 1:
        raise ValueError("ramp width must be >= 1")
    if a - ramp < 0 or b + ramp > space.points - 1:
        raise ValueError("window plus ramp exceeds the grid")
    e = np.zeros(space.points)
    e[a : b + 1] = 1.0
    slope = np.arange(ramp + 1) / ramp
    e[a - ramp : a + 1] = slope
    e[b : b + ramp + 1] = slope[::-1]
    return e


class WindowFamily:
    """Plateau approximate identity over windows growing symmetrically about
    the center: index n gets the window of half width
    ``min(n * step, cap)``, where ``cap = center - WINDOW_RAMP`` leaves room
    for the ramp inside the grid (``GridSpace`` guarantees ``cap >= 0``) and
    ``step = max(1, cap // WINDOW_STEPS)``.  The windows are nested by
    construction.

    On a finite grid the growth stops at ``cap``, so the family has
    ``len(family)`` distinct members (at most 15 on any grid): their
    plateaus are built once, at construction, and handed out read-only, and
    every index from ``len(family)`` on gets the last of them.
    """

    def __init__(self, space: GridSpace):
        cap = space.center - WINDOW_RAMP
        step = max(1, cap // WINDOW_STEPS)
        self._plateaus = tuple(
            plateau(space, space.center - half, space.center + half, WINDOW_RAMP)
            for half in (*range(step, cap, step), cap)
        )
        for e in self._plateaus:
            e.setflags(write=False)

    def __len__(self) -> int:
        return len(self._plateaus)

    def _position(self, n: int) -> int:
        if n < 1:
            raise ValueError("net index must be >= 1")
        return min(n, len(self)) - 1

    def element(self, n: int) -> np.ndarray:
        return self._plateaus[self._position(n)]


def is_nonvanishing(f: np.ndarray, threshold: float) -> bool:
    """min |f| > threshold."""
    return bool(np.abs(np.asarray(f)).min() > threshold)


def reciprocal_inverse_net(
    f: np.ndarray, family: WindowFamily
) -> Callable[[int], np.ndarray]:
    """The explicit inverse net g_n = e_n / f (zero off the plateau support).

    By construction f * g_n reproduces the plateau exactly up to rounding.
    Division is refused wherever |f| does not clear
    ``DIVISION_THRESHOLD_REL * sup|f|`` on the support of the requested
    window.  Members are read-only.
    """
    f = np.asarray(f, dtype=complex)
    mags = np.abs(f)
    threshold = DIVISION_THRESHOLD_REL * float(mags.max())

    def member(n: int) -> np.ndarray:
        e = family.element(n)
        support = e != 0.0
        low = mags.min(where=support, initial=np.inf)
        if low <= threshold:
            index = int(np.argmin(np.where(support, mags, np.inf)))
            raise SingularDivisionError(index, float(low), threshold)
        g = np.divide(e, f, out=np.zeros_like(f), where=support)
        g.setflags(write=False)
        return g

    return member


def perturb_to_noninvertible(space: GridSpace, f: np.ndarray, eps: float) -> np.ndarray:
    """A perturbation g*f within eps of f that vanishes on the grid.

    The cutoff g is 1 wherever |f| >= eps/2 and ramps to 0 before the grid
    boundary, so the product changes f only where |f| < eps/2 and acquires an
    exact zero at the boundary cells.  If the eps/2 level set runs into the
    boundary the threshold widens to eps, which still keeps the perturbation
    within eps; elements honouring the tail invariant never need even that.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    f = np.asarray(f, dtype=complex)
    for level in (eps / 2.0, eps):
        big = np.flatnonzero(np.abs(f) >= level)
        if big.size == 0:
            return np.zeros_like(f)
        a, b = int(big[0]), int(big[-1])
        if a > 0 and b < space.points - 1:
            ramp = min(a, space.points - 1 - b)
            g = plateau(space, a, b, ramp)
            return g * f
    raise CannotPerturbError("element stays above eps up to the grid boundary")


def zero_refuter(f: np.ndarray) -> Optional[str]:
    """Analytic refuter: an exact zero on the grid excludes certification."""
    mags = np.abs(np.asarray(f))
    if mags.min() == 0.0:
        return f"element vanishes at grid index {int(np.argmin(mags))}"
    return None


def _sample_profile(space: GridSpace) -> np.ndarray:
    """The positive profile d of :func:`_sample_element`: 1 in the middle,
    sinking to a quarter of the tail tolerance at the boundary cells."""
    tail_level = space.tail_tol / 4.0
    margin = max(1, space.points // 10)
    envelope = plateau(
        space, margin, space.points - 1 - margin, max(1, space.points // 12)
    )
    return tail_level + (1.0 - tail_level) * envelope


def _sample_element(
    space: GridSpace, rng: np.random.Generator, profile: np.ndarray
) -> np.ndarray:
    """Smooth decaying element d(t) exp(g(t)) with the positive ``profile``
    d of :func:`_sample_profile` and a bounded random exponent, so the
    element never vanishes on the grid while honouring the tail invariant."""
    t = space.t
    exponent = np.zeros(space.points, dtype=complex)
    for _ in range(3):
        center = rng.uniform(-0.6 * space.half_width, 0.6 * space.half_width)
        width = rng.uniform(space.half_width / 8.0, space.half_width / 2.0)
        amp = rng.normal(scale=0.4) + 1j * rng.normal(scale=0.4)
        exponent += amp * np.exp(-(((t - center) / width) ** 2))
    exponent /= max(1.0, float(np.abs(exponent).max()))  # keep |exp| in [1/e, e]
    return profile * np.exp(exponent)


def seeded_elements(
    space: GridSpace, count: int, seed: int, zero_fraction: float = 0.5
) -> list[np.ndarray]:
    """Deterministic mixed bag: nonvanishing elements and elements with a
    planted exact zero at an interior grid point."""
    rng = np.random.default_rng(seed)
    profile = _sample_profile(space)
    out = []
    for i in range(count):
        f = _sample_element(space, rng, profile)
        if i < count * zero_fraction:
            f[rng.integers(space.points // 4, 3 * space.points // 4)] = 0.0
        out.append(f)
    return out


def c0_model(space: GridSpace) -> AlgebraModel:
    """Pointwise function algebra on the grid under the sup norm."""
    return AlgebraModel(
        name=f"c0-grid-{space.points}",
        mul=lambda a, b: a * b,
        norm=sup_norm,
        commutative=True,
    )


def certify(
    space: GridSpace,
    f: np.ndarray,
    test_set: Sequence[np.ndarray],
    family: Optional[WindowFamily] = None,
) -> ApproxInvCertificate:
    """Certify f through the reciprocal net over a growing window family
    (``WindowFamily(space)`` unless one is given), refuting on exact grid
    zeros.

    The net is checked along its distinct windows, indices
    1..``len(family)``, against tolerance :data:`CERTIFY_TOL`; every later
    index would repeat the last member.  A sub-threshold (but nonzero)
    minimum aborts the division and yields an inconclusive certificate:
    absence of one usable net proves nothing.
    """
    if family is None:
        family = WindowFamily(space)
    net = reciprocal_inverse_net(f, family)
    try:
        return check_approx_invertible(
            c0_model(space),
            f,
            net,
            test_set,
            range(1, len(family) + 1),
            CERTIFY_TOL,
            refuter=zero_refuter,
        )
    except SingularDivisionError as err:
        return ApproxInvCertificate(
            None, None, "inconclusive", f"division refused: {err}"
        )
