import numpy as np
import pytest

from approxinv import operators
from approxinv.core import check_approximate_identity
from approxinv.errors import RankDeficientError

from .oracles import charpoly_singular_values, jacobi_svd


def _random_operator(n, rng, scale=1.0):
    return scale * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )


def _full_rank(n, rng):
    while True:
        t = _random_operator(n, rng)
        lam = operators.singular_values(t)
        if lam[-1] > 1e-2 * lam[0]:
            return t


def test_svd_diagonal():
    system = operators.svd(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(system.values, [3.0, 1.0])
    assert np.abs(system.reconstruct() - np.diag([3.0, 1.0])).max() <= 1e-12


def test_svd_zero_matrix():
    system = operators.svd(np.zeros((3, 3), complex))
    assert np.all(system.values == 0.0)
    eye = np.eye(3)
    assert np.allclose(system.outputs.conj().T @ system.outputs, eye, atol=1e-12)
    assert np.allclose(system.inputs.conj().T @ system.inputs, eye, atol=1e-12)


def test_svd_invariants_seeded(rng):
    sizes = [int(rng.integers(2, 13)) for _ in range(192)] + [24, 24, 28, 28, 32, 32, 32, 32]
    for n in sizes:
        a = _random_operator(n, rng)
        system = operators.svd(a)
        assert np.abs(system.reconstruct() - a).max() <= 1e-9
        eye = np.eye(n)
        assert np.abs(system.outputs.conj().T @ system.outputs - eye).max() <= 1e-9
        assert np.abs(system.inputs.conj().T @ system.inputs - eye).max() <= 1e-9
        assert np.all(np.diff(system.values) <= 1e-12)
        # forward map convention: a e_k = lambda_k u_k
        assert np.abs(
            a @ system.inputs - system.outputs * system.values
        ).max() <= 1e-9


def test_svd_against_charpoly_oracle(rng):
    for n in (2, 3, 4):
        for _ in range(10):
            a = _random_operator(n, rng)
            mine = operators.svd(a).values
            oracle = charpoly_singular_values(a)
            assert np.abs(mine - oracle).max() <= 1e-6


def test_svd_against_jacobi_oracle(rng):
    for _ in range(20):
        a = _random_operator(int(rng.integers(2, 17)), rng)
        system = operators.svd(a)
        values, outputs, inputs = jacobi_svd(a)
        assert np.abs(system.values - values).max() <= 1e-9
        for vals, outs, ins in (
            (system.values, system.outputs, system.inputs),
            (values, outputs, inputs),
        ):
            assert np.abs(a @ ins - outs * vals).max() <= 1e-9
        # generic values are simple, so each output direction is unique up
        # to a phase
        overlaps = np.abs(np.sum(system.outputs.conj() * outputs, axis=0))
        assert np.abs(overlaps - 1.0).max() <= 1e-9


def test_approximation_numbers():
    a = np.diag([3.0, 1.0]).astype(complex)
    assert operators.approximation_number(a, 1) == pytest.approx(3.0, abs=1e-12)
    assert operators.approximation_number(a, 2) == pytest.approx(1.0, abs=1e-12)
    assert operators.approximation_number(a, 1) == pytest.approx(
        operators.op_norm(a), abs=1e-12
    )
    with pytest.raises(ValueError):
        operators.approximation_number(a, 3)


def test_approximation_number_is_infimum(rng):
    # random low-rank competitors never beat the truncation
    a = _random_operator(4, rng)
    system = operators.svd(a)
    for k in (2, 3, 4):
        lam_k = operators.approximation_number(system, k)
        trunc = system.truncated(k - 1)
        assert operators.op_norm(a - trunc) == pytest.approx(lam_k, abs=1e-9)
        for _ in range(100):
            left = rng.standard_normal((4, k - 1)) + 1j * rng.standard_normal((4, k - 1))
            right = rng.standard_normal((k - 1, 4)) + 1j * rng.standard_normal((k - 1, 4))
            assert operators.op_norm(a - left @ right) >= lam_k - 1e-9


def test_schatten_rank_one_normalization(rng):
    for _ in range(100):
        f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        product = np.linalg.norm(f) * np.linalg.norm(g)
        op = operators.rank_one(f, g)
        assert op @ g == pytest.approx(np.vdot(g, g) * f, abs=1e-9)
        for p in (1.0, 1.5, 2.0, np.inf):
            assert operators.schatten_norm(op, p) == pytest.approx(
                product, abs=1e-10 * max(1.0, product)
            )


def test_schatten_values():
    a = np.diag([3.0, 1.0]).astype(complex)
    assert operators.schatten_norm(a, 1.0) == pytest.approx(4.0, abs=1e-12)
    assert operators.schatten_norm(a, np.inf) == pytest.approx(3.0, abs=1e-12)
    assert operators.schatten_norm(a, 2.0) == pytest.approx(np.sqrt(10.0), abs=1e-12)


def test_op_norm_below_schatten(rng):
    for _ in range(200):
        a = _random_operator(int(rng.integers(2, 9)), rng)
        for p in (1.0, 1.5, 2.0, np.inf):
            assert operators.op_norm(a) <= operators.schatten_norm(a, p) + 1e-9


def test_schatten_two_matches_frobenius(rng):
    for _ in range(50):
        a = _random_operator(8, rng)
        assert operators.schatten_norm(a, 2.0) == pytest.approx(
            float(np.linalg.norm(a)), rel=1e-10
        )


def test_schatten_agrees_with_jacobi_values(rng):
    for _ in range(20):
        a = _random_operator(8, rng)
        jac = jacobi_svd(a)[0]
        for p in (1.0, 2.0):
            assert operators.schatten_norm(a, p) == pytest.approx(
                float(np.sum(jac**p) ** (1 / p)), rel=1e-9
            )


def test_projection_family_shapes():
    family = operators.projection_family(np.eye(4, dtype=complex))
    assert np.allclose(family(4), np.eye(4))
    assert np.allclose(family(1), np.diag([1.0, 0, 0, 0]))
    assert np.allclose(family(9), np.eye(4))  # saturates
    with pytest.raises(ValueError):
        operators.projection_family(2.0 * np.eye(4, dtype=complex))


def test_projection_family_identity_in_trace_norm(rng):
    n = 8
    model = operators.matrix_model(n, 1.0)
    basis, _ = np.linalg.qr(_random_operator(n, rng))
    family = operators.projection_family(basis)
    tests = [model.sample(rng) for _ in range(20)]
    report = check_approximate_identity(model, family, tests, tol=1e-9, max_index=n)
    assert report.passed
    for trace in report.traces:
        rs = trace.residuals
        assert all(b <= a + 1e-12 for a, b in zip(rs, rs[1:]))
        assert rs[-1] <= 1e-12


def test_projection_members_are_self_adjoint_norm_one(rng):
    basis, _ = np.linalg.qr(_random_operator(6, rng))
    family = operators.projection_family(basis)
    for m in range(1, 7):
        s = family(m)
        assert np.abs(s - s.conj().T).max() <= 1e-12
        assert operators.op_norm(s) == pytest.approx(1.0, abs=1e-9)


def test_strong_convergence_projections(rng):
    basis = np.eye(5, dtype=complex)
    family = operators.projection_family(basis)
    vec = np.zeros(5, complex)
    vec[:3] = rng.standard_normal(3)
    report = operators.strong_convergence_check(family, [vec], max_index=5)
    assert report.verdict
    assert report.traces[0].entries[2].residual <= 1e-12  # settled at index 3


def test_strong_convergence_zero_family():
    family = operators.ApproxIdentityFamily(lambda j: np.zeros((4, 4), complex))
    vec = np.array([1.0, 0, 0, 0], complex)
    report = operators.strong_convergence_check(family, [vec], max_index=3)
    assert not report.verdict


def test_strong_convergence_bound_violation(rng):
    family = operators.ApproxIdentityFamily(
        lambda j: float(j) * np.eye(3, dtype=complex), norm_bound=1.0
    )
    vec = np.array([1.0, 0, 0], complex)
    report = operators.strong_convergence_check(family, [vec], max_index=3)
    assert not report.precondition_ok
    assert not report.verdict


def test_strong_convergence_matches_ideal_verdict(rng):
    n = 6
    model = operators.matrix_model(n, 1.0)
    vectors = [v for v in np.eye(n, dtype=complex)]
    for trial in range(10):
        basis, _ = np.linalg.qr(_random_operator(n, rng))
        keep = int(rng.integers(2, n + 1))

        def member(m, basis=basis, keep=keep):
            b = basis[:, : min(m, keep)]
            return b @ b.conj().T

        # the family is bounded in the operator norm, not in the trace norm,
        # so the declared bound belongs to the strong-convergence side only
        family = operators.ApproxIdentityFamily(member)
        strong = operators.strong_convergence_check(
            family, vectors, max_index=n, tol=1e-9, op_bound=1.0
        )
        ideal = check_approximate_identity(
            model, family, [model.sample(rng) for _ in range(5)], tol=1e-9, max_index=n
        )
        assert strong.verdict == ideal.passed == (keep == n)


def test_right_inverse_net_diagonal():
    t = np.diag([1.0, 0.5, 1.0 / 3.0]).astype(complex)
    net = operators.right_inverse_net(t)
    u2 = net(2)
    assert np.allclose(u2, np.diag([1.0, 2.0, 0.0]), atol=1e-9)
    assert np.allclose(t @ u2, np.diag([1.0, 1.0, 0.0]), atol=1e-9)


def test_right_inverse_net_identity():
    eye = np.eye(4, dtype=complex)
    net = operators.right_inverse_net(eye)
    for m in (1, 2, 4):
        proj = operators.output_projection(eye, m)
        assert np.allclose(net(m), proj, atol=1e-9)


def test_right_inverse_net_seeded(rng):
    n = 16
    for _ in range(10):
        t = _full_rank(n, rng)
        net = operators.right_inverse_net(t)
        system = operators.svd(t)
        for m in (1, 5, 16):
            proj = operators.output_projection(system, m)
            assert np.abs(t @ net(m) - proj).max() <= 1e-9
        for _ in range(5):
            c = _random_operator(n, rng)
            assert operators.schatten_norm(t @ net(n) @ c - c, 2.0) <= 1e-9


def test_right_inverse_net_refuses_singular():
    t = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(RankDeficientError) as err:
        operators.right_inverse_net(t)
    assert err.value.index == 2


def test_matrix_model_names_and_norms(rng):
    a = _random_operator(8, rng)
    op = operators.matrix_model(8)
    assert op.name == "matrices-8-op"
    assert op.norm(a) == operators.op_norm(a)
    for p in (1.0, 2.0):
        model = operators.matrix_model(8, p)
        assert model.name == f"matrices-8-schatten-{p}"
        assert model.norm(a) == operators.schatten_norm(a, p)


def test_certify_operator_verdicts(rng):
    n = 8
    t = _full_rank(n, rng)
    tests = [_random_operator(n, rng, 0.3) for _ in range(3)]
    cert = operators.certify_operator(t, tests)
    assert cert.verdict == "certified-two-sided"
    assert cert.right_trace.final_residual <= 1e-9

    singular = t.copy()
    singular[:, 0] = 0.0
    cert2 = operators.certify_operator(singular, tests)
    assert cert2.verdict == "refuted"


def test_range_kernel_refuter():
    assert not operators.range_kernel_refuter(np.diag([1.0, 0.0]).astype(complex)).dense_range
    assert not operators.range_kernel_refuter(np.diag([1.0, 0.0]).astype(complex)).injective
    report = operators.range_kernel_refuter(np.eye(3, dtype=complex))
    assert report.dense_range and report.injective


def test_pure_state_values():
    t = np.diag([1.0, 0.0]).astype(complex)
    e2 = np.array([0.0, 1.0], complex)
    assert operators.pure_state_value(t, e2) == pytest.approx(0.0, abs=1e-14)
    assert operators.modular_ideal_membership(t.conj().T, e2)
    eye = np.eye(2, dtype=complex)
    assert not operators.modular_ideal_membership(eye, e2)
    with pytest.raises(ValueError):
        operators.pure_state_value(t, 2.0 * e2)


def test_pure_state_minimum_matches_smallest_singular_value(rng):
    for trial in range(50):
        t = _random_operator(16, rng)
        smin = float(operators.singular_values(t)[-1])
        est = operators.min_pure_state_norm(t, count=1000, seed=trial)
        assert abs(est - smin) <= 1e-6


def test_three_way_criterion_agreement(rng):
    threshold = 1e-8
    for trial in range(100):
        t = _random_operator(16, rng)
        if trial % 3 == 0:
            t[:, trial % 16] = 0.0
        by_rank = operators.range_kernel_refuter(t, threshold).dense_range
        by_sigma = bool(operators.singular_values(t)[-1] > threshold)
        by_state = bool(
            operators.min_pure_state_norm(t, 200, seed=trial) > threshold
        )
        assert by_rank == by_sigma == by_state


def test_adjoint_duality(rng):
    assert operators.adjoint_duality_check(np.eye(4, dtype=complex))
    assert operators.adjoint_duality_check(np.diag([1.0, 0.0]).astype(complex))
    for trial in range(30):
        t = _random_operator(8, rng)
        if trial % 4 == 0:
            t[:, trial % 8] = 0.0
        assert operators.adjoint_duality_check(t)


def test_annihilating_operator_factors_through_complement(rng):
    n = 8
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a /= np.linalg.norm(a)
    p_a = operators.rank_one(a, a)
    t = _random_operator(n, rng) @ (np.eye(n) - p_a)
    assert np.linalg.norm(t @ a) <= 1e-12
    assert np.abs(t @ (np.eye(n) - p_a) - t).max() <= 1e-10
    assert operators.modular_ideal_membership(t, a, tol=1e-10)


def test_net_converges_strongly_on_vectors(rng):
    n = 12
    t = _full_rank(n, rng)
    net = operators.right_inverse_net(t)
    for _ in range(5):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.linalg.norm(t @ net(n) @ v - v) <= 1e-9 * max(
            1.0, np.linalg.norm(v)
        )
