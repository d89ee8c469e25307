"""Operator ideals on a finite-dimensional surrogate Hilbert space.

Operators are dense complex n-by-n arrays.  The singular system fixes the
convention ``S e_k = lambda_k u_k`` (e = input/right vectors, u =
output/left vectors), so the right-inverse net members
``U_m = sum_{k<=m} (1/lambda_k) e_k (x) u_k`` compose with S to the
orthogonal projection onto span(u_1..u_m) - the identity every test in this
module targets, because it is independent of tie-breaking among repeated
singular values.

Every singular system comes from LAPACK (``numpy.linalg.svd``): the full
decomposition where vectors are needed, the values-only routine for rank
tests and the Schatten norms of exponent p != 2.  Norms that need no
decomposition take none: the Schatten-2 norm is the Frobenius norm, and
:func:`projection_residuals` reads every member's Schatten-2 residual off
the column norms of one residual matrix.  A backward-stable SVD is enough
here.  The extra accuracy of one-sided Jacobi (Demmel & Veselic, "Jacobi's
method is more accurate than QR", SIAM J. Matrix Anal. Appl., 1992) is
*relative* accuracy on the tiny singular values of graded matrices, while
every rank decision in this module thresholds at ``RANK_THRESHOLD_REL *
sigma_max = 1e-10 * sigma_max``, far above LAPACK's ``eps * sigma_max``
absolute error.  The test suite still cross-checks the LAPACK route against
an independent Jacobi sweep.

At finite truncation "dense range" collapses to "surjective", which
:func:`right_inverse_net` reads off the smallest singular value.  The
``pure-state`` scenario compares two criteria for it: that singular value
above a threshold, and the pure-state minimum of :func:`min_pure_state_norm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    AlgebraModel,
    ApproxInvCertificate,
    check_approx_invertible,
)
from .errors import RankDeficientError

#: Rank threshold, relative to the largest singular value.
RANK_THRESHOLD_REL = 1e-10

#: Schatten exponent and tolerance of :func:`certify_operator`.
CERTIFY_EXPONENT = 2.0
CERTIFY_TOL = 1e-9

#: Inverse-iteration sweeps of :func:`min_pure_state_norm`.
PURE_STATE_SWEEPS = 60


@dataclass(frozen=True)
class SingularSystem:
    """Singular values (non-increasing) with orthonormal output vectors
    ``outputs[:, k]`` and input vectors ``inputs[:, k]``; the source operator
    maps ``inputs[:, k]`` to ``values[k] * outputs[:, k]``."""

    values: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.outputs * self.values) @ self.inputs.conj().T


def _as_operators(a: np.ndarray) -> np.ndarray:
    """``a`` as a complex array: one square operator or a non-empty stack of
    them, with finite entries."""
    a = np.asarray(a, dtype=complex)
    square = a.ndim in (2, 3) and a.shape[-1] == a.shape[-2]
    if not square or (a.ndim == 3 and a.shape[0] == 0):
        raise ValueError("operators must be one square array or a non-empty stack")
    if not np.all(np.isfinite(a)):
        raise ValueError("operator entries must be finite")
    return a


def _as_operator(a: np.ndarray) -> np.ndarray:
    """Like :func:`_as_operators`, refusing a stack."""
    a = _as_operators(a)
    if a.ndim != 2:
        raise ValueError("operator must be a square 2-D array")
    return a


def svd(a: np.ndarray) -> SingularSystem:
    """LAPACK singular value decomposition ``a = U diag(values) Vh`` mapped
    to the module convention: ``outputs = U`` and ``inputs = Vh^H``.

    Both vector systems are full unitaries, rank-deficient input included.
    Repeated singular values admit any orthonormal choice of vectors, so
    callers should only rely on convention-invariant quantities (values,
    projections, residuals).
    """
    u, values, vh = np.linalg.svd(_as_operator(a))
    return SingularSystem(values, u, vh.conj().T)


def singular_values(a: np.ndarray) -> np.ndarray:
    """Non-increasing singular values via the values-only LAPACK routine:
    those of one operator, or, for a stack of k operators, one row per
    operator in a single call."""
    return np.linalg.svd(_as_operators(a), compute_uv=False)


def schatten_norm(a: np.ndarray, p: float = 2.0) -> float:
    """(sum lambda_k^p)^(1/p); p = inf gives the largest singular value.
    For p = 2 that sum is the squared Frobenius norm, so no decomposition
    is taken."""
    if not p >= 1:  # also refuses NaN
        raise ValueError("exponent must satisfy p >= 1")
    a = _as_operator(a)
    if p == 2:
        return float(np.linalg.norm(a))
    lam = singular_values(a)
    if np.isinf(p):
        return float(lam[0]) if lam.size else 0.0
    return float(np.sum(lam**p) ** (1.0 / p))


def _rank_threshold(values: np.ndarray) -> float:
    """The rank threshold ``RANK_THRESHOLD_REL * sigma_max`` of the
    non-increasing singular ``values`` (``sigma_max`` read as 1 for the zero
    operator): a singular value at or below it refutes dense range at this
    truncation."""
    return RANK_THRESHOLD_REL * (values[0] if values[0] > 0 else 1.0)


def right_inverse_net(system: SingularSystem) -> Callable[[int], np.ndarray]:
    """The net ``m -> U_m`` inverting an operator, given by its singular
    system, on its leading singular directions, arranged so that a . U_m is
    the orthogonal projection onto the span of the first m output vectors.

    Raises :class:`RankDeficientError` at the first singular value at or
    below the rank threshold: it refutes dense range at this truncation.
    """
    threshold = _rank_threshold(system.values)
    small = np.flatnonzero(system.values <= threshold)
    if small.size:
        k = int(small[0])
        raise RankDeficientError(k + 1, float(system.values[k]), threshold)

    def member(m: int) -> np.ndarray:
        m = min(m, system.dim)
        return (system.inputs[:, :m] / system.values[:m]) @ system.outputs[
            :, :m
        ].conj().T

    return member


def projection_residuals(full: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """``||t . net(m) - P_m||`` (Schatten-2 norm) for m = 1..n, where
    ``net`` is the :func:`right_inverse_net` of an operator t, ``full`` is
    the product ``t . net(n)`` with its full member, ``outputs`` are t's
    output vectors and P_m is the orthogonal projection onto the first m.

    With U the output vectors, ``R = full . U - U`` has the columns
    r_k = t v_k / lambda_k - u_k, and member m inverts on the first m
    directions, so ``t . net(m) - P_m = R_m U_m^H``.  U_m has orthonormal
    columns, so its Schatten-2 norm is ``||R_m||_F``, the root of the
    cumulative sum of R's squared column norms: nondecreasing in m by
    construction, and never below the operator norm (Golub & Van Loan,
    *Matrix Computations*, 2.3).  A non-finite R, or one whose squares
    overflow, gives NaN for every m, which the worst-case rows report as a
    failure.
    """
    r = full @ outputs - outputs
    with np.errstate(over="ignore"):
        squares = np.cumsum(np.sum(r.real**2 + r.imag**2, axis=0))
    if not np.isfinite(squares[-1]):
        return np.full(squares.size, np.nan)
    return np.sqrt(squares)


def min_pure_state_norm(a: np.ndarray, seed: int = 0) -> float | np.ndarray:
    """min over unit vectors of ||T* a||, by regularized inverse iteration on
    T T* from one seeded start vector per operator.

    ``a`` is one operator, giving a float, or a stack of k operators, giving
    the k minima; a single operator is a stack of one.  Operator j of a stack
    starts from a complex Gaussian vector drawn from ``default_rng(seed +
    j)``, so a stack answers exactly as its members called one by one with
    consecutive seeds.  Each regularized Gram matrix is inverted once and
    :data:`PURE_STATE_SWEEPS` sweeps apply the inverses to the whole stack
    (inverse iteration with a reused factorization: Golub & Van Loan,
    *Matrix Computations*, 7.6.1).  The final norm is taken through T itself,
    not the Gram matrix, so the singular case resolves down to rounding
    level.

    Equals the smallest singular value up to refinement error; against the
    rank threshold this realizes the pure-state criterion for right
    invertibility.
    """
    stack = _as_operators(a)
    single = stack.ndim == 2
    if single:
        stack = stack[None]
    k, n = stack.shape[:2]
    vecs = np.empty((k, n), dtype=complex)
    for j in range(k):
        rng = np.random.default_rng(seed + j)
        vecs[j] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    gram = stack @ stack.conj().swapaxes(1, 2)
    eps = 1e-12 * np.maximum(np.trace(gram, axis1=1, axis2=2).real, 1.0)
    diagonal = np.arange(n)
    gram[:, diagonal, diagonal] += eps[:, None]
    inverse = np.linalg.inv(gram)
    # column vectors, so that each sweep is one stacked matrix product
    vecs = vecs[..., None]
    for _ in range(PURE_STATE_SWEEPS):
        vecs = inverse @ vecs
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    # T^T conj(v) is the conjugate of T* v, so no adjoint copy of the stack.
    minima = np.linalg.norm(np.einsum("kji,kj->ki", stack, vecs[..., 0].conj()), axis=1)
    return float(minima[0]) if single else minima


def _sample_operator(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(
        2.0 * n
    )


def matrix_model(n: int = 16, p: float = np.inf) -> AlgebraModel:
    """The n-by-n matrix algebra (noncommutative) under the Schatten-p norm:
    the operator norm for p = inf, the surrogate operator ideal for finite
    p."""
    return AlgebraModel(
        name=f"matrices-{n}-op" if np.isinf(p) else f"matrices-{n}-schatten-{p}",
        mul=lambda a, b: a @ b,
        norm=lambda a: schatten_norm(a, p),
    )


def certify_operator(
    a: np.ndarray, test_set: Sequence[np.ndarray]
) -> ApproxInvCertificate:
    """Certify right approximate invertibility of ``a`` in the Schatten
    model of exponent :data:`CERTIFY_EXPONENT` through its singular-direction
    net, checked at indices 1..n against tolerance :data:`CERTIFY_TOL` and
    refuted on rank deficiency at :data:`RANK_THRESHOLD_REL`.  One singular
    system decides the rank and builds the net."""
    a = _as_operator(a)
    n = a.shape[0]
    system = svd(a)
    try:
        net, reason = right_inverse_net(system), None
    except RankDeficientError as err:
        net, reason = None, f"range not dense at truncation: {err}"
    return check_approx_invertible(
        matrix_model(n, CERTIFY_EXPONENT), a, net, test_set, range(1, n + 1),
        CERTIFY_TOL, refuter=lambda _: reason,
    )
