"""Operator ideals on a finite-dimensional surrogate Hilbert space.

Operators are dense complex n-by-n arrays.  The singular system fixes the
convention ``S e_k = lambda_k u_k`` (e = input/right vectors, u =
output/left vectors), so the right-inverse net members
``U_m = sum_{k<=m} (1/lambda_k) e_k (x) u_k`` compose with S to the
orthogonal projection onto span(u_1..u_m) - the identity every test in this
module targets, because it is independent of tie-breaking among repeated
singular values.

Every singular system comes from LAPACK (``numpy.linalg.svd``): the full
decomposition where vectors are needed, the values-only driver for norms and
rank tests.  A backward-stable SVD is enough here.  The extra accuracy of
one-sided Jacobi (Demmel & Veselic, "Jacobi's method is more accurate than
QR", SIAM J. Matrix Anal. Appl., 1992) is *relative* accuracy on the tiny
singular values of graded matrices, while every rank decision in this module
thresholds at ``RANK_THRESHOLD_REL * sigma_max = 1e-10 * sigma_max``, far
above LAPACK's ``eps * sigma_max`` absolute error.  The test suite still
cross-checks the LAPACK route against an independent Jacobi sweep.

At finite truncation "dense range" collapses to "surjective" and
"injective" to "bounded below": the refuters report both flags, which here
coincide by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    AlgebraModel,
    ApproxIdentityFamily,
    ApproxInvCertificate,
    InverseNet,
    ResidualTrace,
    TraceEntry,
    check_approx_invertible,
    resolve_schedule,
)
from .errors import RankDeficientError

#: Default rank threshold, relative to the largest singular value.
RANK_THRESHOLD_REL = 1e-10

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

    def truncated(self, rank: int) -> np.ndarray:
        """Best approximation of the operator by rank <= ``rank``."""
        return (self.outputs[:, :rank] * self.values[:rank]) @ self.inputs[
            :, :rank
        ].conj().T


def _as_operator(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("operator must be a square 2-D array")
    if not np.all(np.isfinite(a)):
        raise ValueError("operator entries must be finite")
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
    """Non-increasing singular values via the LAPACK backend (the
    values-only path used by the norms and the rank tests)."""
    return np.linalg.svd(_as_operator(a), compute_uv=False)


def approximation_number(a: np.ndarray, k: int) -> float:
    """Distance from ``a`` to the operators of rank below k; equals the k-th
    singular value, witnessed by the rank-(k-1) truncation."""
    values = a.values if isinstance(a, SingularSystem) else singular_values(a)
    if not 1 <= k <= values.shape[0]:
        raise ValueError(f"k must lie in [1, {values.shape[0]}]")
    return float(values[k - 1])


def schatten_norm(a: np.ndarray, p: float = 2.0) -> float:
    """(sum lambda_k^p)^(1/p); p = inf gives the largest singular value."""
    if p < 1:
        raise ValueError("exponent must satisfy p >= 1")
    lam = singular_values(a)
    if np.isinf(p):
        return float(lam[0]) if lam.size else 0.0
    return float(np.sum(lam**p) ** (1.0 / p))


def op_norm(a: np.ndarray) -> float:
    return schatten_norm(a, np.inf)


def rank_one(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The operator h -> <h, g> f."""
    return np.outer(np.asarray(f, complex), np.conj(np.asarray(g, complex)))


def projection_family(basis: np.ndarray) -> ApproxIdentityFamily:
    """Partial-sum projections S_m onto the span of the first m basis
    vectors (columns).  Requires an orthonormal basis; indices beyond the
    dimension saturate at the identity."""
    basis = np.asarray(basis, dtype=complex)
    n = basis.shape[1]
    gram = basis.conj().T @ basis
    if np.abs(gram - np.eye(n)).max() > 1e-9:
        raise ValueError("basis columns must be orthonormal")

    def member(m: int) -> np.ndarray:
        m = min(m, n)
        b = basis[:, :m]
        return b @ b.conj().T

    return ApproxIdentityFamily(member)


@dataclass(frozen=True)
class StrongConvergenceReport:
    verdict: bool
    sup_op_norm: float
    precondition_ok: bool
    traces: tuple[ResidualTrace, ...]


def strong_convergence_check(
    family: ApproxIdentityFamily,
    test_vectors: Sequence[np.ndarray],
    max_index: int = 16,
    tol: float = 1e-9,
    schedule: Optional[Sequence[int]] = None,
    op_bound: Optional[float] = None,
) -> StrongConvergenceReport:
    """Pointwise test S_j v -> v and S_j* v -> v on the given vectors.

    For families uniformly bounded in the operator norm this is equivalent
    to being an approximate identity in the ideal norm; the equivalence is
    exercised by the test suite.  The uniform bound is checked against
    ``op_bound`` (or the family's declared bound) on the evaluated members;
    a violation is reported, not raised.
    """
    if len(test_vectors) == 0:
        raise ValueError("test vectors must be non-empty")
    sched = resolve_schedule(max_index, schedule)
    bound = op_bound if op_bound is not None else family.norm_bound
    sup_norm_seen = 0.0
    ok = True
    entries: list[list[TraceEntry]] = [[] for _ in test_vectors]
    for j in sched:
        s = _as_operator(family(j))
        member = op_norm(s)
        sup_norm_seen = max(sup_norm_seen, member)
        if bound is not None and member > bound + 1e-9:
            ok = False
        for i, vec in enumerate(test_vectors):
            vec = np.asarray(vec, complex)
            fwd = float(np.linalg.norm(s @ vec - vec))
            adj = float(np.linalg.norm(s.conj().T @ vec - vec))
            entries[i].append(TraceEntry(j, max(fwd, adj), member, fwd, adj))
    traces = tuple(ResidualTrace(tuple(ent), tol) for ent in entries)
    verdict = ok and all(t.final_residual <= tol for t in traces)
    return StrongConvergenceReport(verdict, sup_norm_seen, ok, traces)


def right_inverse_net(
    a: np.ndarray | SingularSystem, threshold: Optional[float] = None
) -> InverseNet:
    """The net ``m -> U_m`` inverting the operator on its leading singular
    directions, arranged so that a . U_m is the orthogonal projection onto
    the span of the first m output vectors.  ``a`` may be the operator's
    singular system, so a caller that already holds it decomposes once.

    Refuses rank-deficient input: a singular value at or below the threshold
    refutes dense range at this truncation.
    """
    system = a if isinstance(a, SingularSystem) else svd(a)
    if threshold is None:
        threshold = RANK_THRESHOLD_REL * (system.values[0] if system.values[0] > 0 else 1.0)
    small = np.flatnonzero(system.values <= threshold)
    if small.size:
        k = int(small[0])
        raise RankDeficientError(k + 1, float(system.values[k]), threshold)

    def member(m: int) -> np.ndarray:
        m = min(m, system.dim)
        return (system.inputs[:, :m] / system.values[:m]) @ system.outputs[
            :, :m
        ].conj().T

    return InverseNet(member, "right")


def output_projection(a: np.ndarray, m: int) -> np.ndarray:
    """Orthogonal projection onto the span of the first m output singular
    vectors of ``a``."""
    system = a if isinstance(a, SingularSystem) else svd(a)
    m = min(m, system.dim)
    u = system.outputs[:, :m]
    return u @ u.conj().T


@dataclass(frozen=True)
class RangeKernelReport:
    dense_range: bool
    injective: bool
    min_singular_value: float


def range_kernel_refuter(a: np.ndarray, threshold: Optional[float] = None) -> RangeKernelReport:
    """Classify range density and injectivity through the smallest singular
    value; at finite truncation the two flags coincide."""
    lam = singular_values(a)
    if threshold is None:
        threshold = RANK_THRESHOLD_REL * (lam[0] if lam[0] > 0 else 1.0)
    full = bool(lam[-1] > threshold)
    return RangeKernelReport(full, full, float(lam[-1]))


def rank_refuter(threshold: Optional[float] = None) -> Callable[[np.ndarray], Optional[str]]:
    def refute(a: np.ndarray) -> Optional[str]:
        report = range_kernel_refuter(a, threshold)
        if not report.dense_range:
            return (
                "range not dense at truncation: smallest singular value "
                f"{report.min_singular_value:.3e}"
            )
        return None

    return refute


def pure_state_value(a: np.ndarray, vector: np.ndarray) -> complex:
    """<T a, a> for a unit vector a."""
    vector = _unit_vector(vector)
    return complex(np.vdot(vector, _as_operator(a) @ vector))


def modular_ideal_membership(a: np.ndarray, vector: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether the operator annihilates the unit vector (membership in the
    vector's maximal modular left ideal)."""
    vector = _unit_vector(vector)
    return bool(np.linalg.norm(_as_operator(a) @ vector) <= tol)


def _unit_vector(vector: np.ndarray) -> np.ndarray:
    vector = np.asarray(vector, dtype=complex)
    if abs(np.linalg.norm(vector) - 1.0) > 1e-12:
        raise ValueError("state vector must have unit norm")
    return vector


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

    Equals the smallest singular value up to refinement error; together with
    :func:`range_kernel_refuter` this realizes the pure-state criterion for
    right invertibility.
    """
    stack = np.asarray(a, dtype=complex)
    single = stack.ndim == 2
    if single:
        stack = stack[None]
    if stack.ndim != 3 or stack.shape[0] == 0 or stack.shape[1] != stack.shape[2]:
        raise ValueError("operators must be one square array or a non-empty stack")
    if not np.all(np.isfinite(stack)):
        raise ValueError("operator entries must be finite")
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
    for _ in range(PURE_STATE_SWEEPS):
        vecs = np.einsum("kij,kj->ki", inverse, vecs)
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    # T^T conj(v) is the conjugate of T* v, so no adjoint copy of the stack.
    minima = np.linalg.norm(np.einsum("kji,kj->ki", stack, vecs.conj()), axis=1)
    return float(minima[0]) if single else minima


def adjoint_duality_check(a: np.ndarray, threshold: Optional[float] = None) -> bool:
    """Right invertibility data of ``a`` must mirror left invertibility data
    of its adjoint: the range/kernel flags swap, and when the right net for
    ``a`` exists, its adjoint members compose with a* from the left to the
    same projections (residuals matching to 1e-9)."""
    a = _as_operator(a)
    fwd = range_kernel_refuter(a, threshold)
    adj = range_kernel_refuter(a.conj().T, threshold)
    if fwd.dense_range != adj.injective:
        return False
    if not fwd.dense_range:
        return True
    system = svd(a)
    net = right_inverse_net(system, threshold)
    for m in (1, system.dim // 2, system.dim):
        if m < 1:
            continue
        proj = output_projection(system, m)
        right_resid = np.abs(a @ net(m) - proj).max()
        left_resid = np.abs(net(m).conj().T @ a.conj().T - proj.conj().T).max()
        if abs(right_resid - left_resid) > 1e-9 or left_resid > 1e-9:
            return False
    return True


def _sample_operator(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(
        2.0 * n
    )


def matrix_model(n: int = 16, p: float = np.inf) -> AlgebraModel:
    """Full matrix algebra (unital) under the Schatten-p norm: the operator
    norm for p = inf, the surrogate operator ideal for finite p.  The
    zero-divisor modulus is the smallest singular value for every p, with a
    rank-one witness."""

    def zeta(a: np.ndarray) -> tuple[float, np.ndarray]:
        system = svd(a)
        witness = rank_one(system.inputs[:, -1], np.eye(n)[:, 0])
        return float(system.values[-1]), witness

    return AlgebraModel(
        name=f"matrices-{n}-op" if np.isinf(p) else f"matrices-{n}-schatten-{p}",
        add=lambda a, b: a + b,
        sub=lambda a, b: a - b,
        scale=lambda c, a: complex(c) * a,
        mul=lambda a, b: a @ b,
        norm=lambda a: schatten_norm(a, p),
        involution=lambda a: a.conj().T,
        unital=True,
        unit=np.eye(n, dtype=complex),
        sample=lambda rng: _sample_operator(n, rng),
        zeta_exact=zeta,
    )


def certify_operator(
    a: np.ndarray,
    test_set: Sequence[np.ndarray],
    p: float = 2.0,
    tol: float = 1e-9,
    max_index: Optional[int] = None,
    threshold: Optional[float] = None,
) -> ApproxInvCertificate:
    """Certify right approximate invertibility of ``a`` in the Schatten-p
    model through its singular-direction net, refuting on rank deficiency."""
    a = _as_operator(a)
    n = a.shape[0]
    reason = rank_refuter(threshold)(a)
    net = None if reason else right_inverse_net(a, threshold)
    return check_approx_invertible(
        matrix_model(n, p), a, net, test_set, tol, max_index or n,
        refuter=lambda _: reason,
    )
