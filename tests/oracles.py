"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the production code paths: convolution
is the quadratic direct sum, Fourier coefficients are explicit quadrature
sums, kernel values come from the closed trigonometric form, singular
values are extracted through the characteristic polynomial, full singular
systems come from :func:`jacobi_svd`, a pure-Python one-sided Jacobi sweep
that serves as the independent reference for the LAPACK route of
``approxinv.operators.svd``, and :func:`solved_pure_state_minimum` is the
one-operator, solve-per-sweep form of the stacked inverse iteration in
``approxinv.operators.min_pure_state_norm``.  :func:`truncated` is the best
low-rank approximation read off a singular system.  :func:`complex_synthesis`,
:func:`fejer_coeffs_full` and :func:`poisson_coeffs_full` are the full-grid
forms that ``approxinv.wiener`` replaced by real synthesis for Hermitian
spectra and by kernels built on their band.  :func:`disk_certificates` takes
each circle moment as its own complex power, the per-moment form of the
one-pass ``approxinv.disk.certificates``.
"""

import numpy as np


def direct_convolve(f_values: np.ndarray, g_values: np.ndarray) -> np.ndarray:
    """O(M^2) circular convolution with unit-mass normalization."""
    f_values = np.asarray(f_values, complex)
    g_values = np.asarray(g_values, complex)
    m = f_values.shape[0]
    idx = np.arange(m)
    out = np.empty(m, complex)
    for i in range(m):
        out[i] = f_values[(i - idx) % m] @ g_values / m
    return out


def direct_coeff(values: np.ndarray, k: int) -> complex:
    """Quadrature Fourier coefficient (1/M) sum values * exp(-ik theta)."""
    values = np.asarray(values, complex)
    m = values.shape[0]
    theta = 2.0 * np.pi * np.arange(m) / m
    return complex(values @ np.exp(-1j * k * theta) / m)


def complex_synthesis(coeffs: np.ndarray) -> np.ndarray:
    """Grid values sum_k c_k exp(i k theta_m) through a complex inverse FFT."""
    coeffs = np.asarray(coeffs, complex)
    return np.fft.ifft(coeffs) * coeffs.shape[0]


def _signed_frequencies(M: int) -> np.ndarray:
    return np.fft.fftfreq(M, 1.0 / M).astype(int)


def fejer_coeffs_full(M: int, n: int) -> np.ndarray:
    """Triangular coefficients (1 - |k|/n)_+ evaluated on every bin."""
    return np.maximum(0.0, 1.0 - np.abs(_signed_frequencies(M)) / n).astype(complex)


def poisson_coeffs_full(M: int, r: float) -> np.ndarray:
    """Coefficients r^|k| evaluated on every bin."""
    with np.errstate(under="ignore"):
        return (r ** np.abs(_signed_frequencies(M))).astype(complex)


def fejer_values_closed_form(M: int, n: int) -> np.ndarray:
    """Kernel values from (1/n) (sin(n theta/2) / sin(theta/2))^2."""
    theta = 2.0 * np.pi * np.arange(M) / M
    out = np.empty(M)
    for i, t in enumerate(theta):
        s = np.sin(t / 2.0)
        out[i] = n if abs(s) < 1e-15 else (np.sin(n * t / 2.0) / s) ** 2 / n
    return out


def charpoly_singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values as square roots of the eigenvalues of a^H a, found by
    rooting the characteristic polynomial (Newton's identities); n <= 4."""
    a = np.asarray(a, complex)
    gram = a.conj().T @ a
    n = gram.shape[0]
    assert n <= 4, "characteristic-polynomial oracle only for small n"
    power_sums = [
        float(np.trace(np.linalg.matrix_power(gram, k)).real)
        for k in range(1, n + 1)
    ]
    elementary = [1.0]
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * elementary[k - i] * power_sums[i - 1]
        elementary.append(acc / k)
    coeffs = [(-1) ** k * elementary[k] for k in range(n + 1)]
    roots = np.roots(coeffs)
    values = np.sqrt(np.clip(roots.real, 0.0, None))
    return np.sort(values)[::-1]


def kernel_tail_p2(band: dict[int, complex], n: int) -> float:
    """Exact p=2 error of the order-n kernel action on a trig polynomial:
    sqrt(sum min(1, |k|/n)^2 |g_hat(k)|^2)."""
    return float(
        np.sqrt(
            sum(
                min(1.0, abs(k) / n) ** 2 * abs(c) ** 2
                for k, c in band.items()
            )
        )
    )


def jacobi_svd(
    a: np.ndarray, tol: float = 1e-12, max_sweeps: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi singular value decomposition.

    Columns of a working copy are orthogonalized pairwise by complex
    rotations until every pair is orthogonal to ``tol`` relative to the
    column norms; values come out as the final column norms.  Returns
    ``(values, outputs, inputs)`` with non-increasing values and
    ``a @ inputs = outputs * values``.  Deterministic for a given input.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    g = a.copy()
    v = np.eye(n, dtype=complex)
    if max_sweeps is None:
        max_sweeps = 100 * n * n
    converged = n < 2
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                gp = g[:, p]
                gq = g[:, q]
                app = np.vdot(gp, gp).real
                aqq = np.vdot(gq, gq).real
                apq = np.vdot(gp, gq)
                if app * aqq == 0.0 or abs(apq) <= tol * np.sqrt(app * aqq):
                    continue
                off = max(off, abs(apq) / np.sqrt(app * aqq))
                tau = (aqq - app) / (2.0 * abs(apq))
                if tau == 0.0:
                    t = 1.0
                else:
                    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                phase = apq / abs(apq)
                rp = c * gp - s * np.conj(phase) * gq
                rq = s * phase * gp + c * gq
                g[:, p] = rp
                g[:, q] = rq
                rp = c * v[:, p] - s * np.conj(phase) * v[:, q]
                rq = s * phase * v[:, p] + c * v[:, q]
                v[:, p] = rp
                v[:, q] = rq
        if off <= tol:
            converged = True
            break
    if not converged:
        raise RuntimeError(f"Jacobi sweep did not converge in {max_sweeps} sweeps")
    lam = np.linalg.norm(g, axis=0)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    g = g[:, order]
    v = v[:, order]
    u = np.zeros_like(g)
    rank = int(np.sum(lam > 0))
    if rank:
        u[:, :rank] = g[:, :rank] / lam[:rank]
    if rank < n:  # complete the output system to an orthonormal basis
        q_full, _ = np.linalg.qr(np.hstack([u[:, :rank], np.eye(n)]))
        u[:, rank:] = q_full[:, rank:n]
    return lam, u, v


def truncated(system, rank: int) -> np.ndarray:
    """Best approximation by rank <= ``rank`` of the operator behind the
    singular system (values, outputs, inputs)."""
    return (system.outputs[:, :rank] * system.values[:rank]) @ system.inputs[
        :, :rank
    ].conj().T


def solved_pure_state_minimum(t: np.ndarray, seed: int) -> float:
    """min over unit vectors of ||T* v|| for one operator: inverse iteration
    on T T* + eps I from one seeded complex Gaussian start, with a fresh
    ``np.linalg.solve`` in each of 60 sweeps."""
    t = np.asarray(t, complex)
    n = t.shape[0]
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    gram = t @ t.conj().T
    regularized = gram + 1e-12 * max(float(np.trace(gram).real), 1.0) * np.eye(n)
    for _ in range(60):
        vec = np.linalg.solve(regularized, vec)
        vec /= np.linalg.norm(vec)
    return float(np.linalg.norm(t.conj().T @ vec))


def disk_certificates(circle: np.ndarray, degree: int) -> tuple[float, float]:
    """(annulus, product) disk certificates with coefficient radius 2, each
    moment from its own power ``circle**k``: 2 sum_{k=1..d} |mean z^k| and
    |1 - nu_1| + 4 sum_{m=2..2d} min(m - 1, 2d + 1 - m) |nu_m|, where nu_m
    is the mean of z^m conj(z)."""
    mu = np.array([(circle**k).mean() for k in range(1, degree + 1)])
    nu = np.array([(circle**m * circle.conj()).mean() for m in range(1, 2 * degree + 1)])
    m = np.arange(2, 2 * degree + 1)
    pairs = np.minimum(m - 1, 2 * degree + 1 - m)
    annulus = 2.0 * np.abs(mu).sum()
    return float(annulus), float(abs(1.0 - nu[0]) + 4.0 * (pairs * np.abs(nu[1:])).sum())
