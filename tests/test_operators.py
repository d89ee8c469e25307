import tracemalloc

import numpy as np
import pytest

from approxinv import operators, scenarios
from approxinv.core import check_approximate_identity
from approxinv.errors import RankDeficientError

from .oracles import (
    charpoly_singular_values,
    jacobi_svd,
    solved_pure_state_minimum,
    truncated,
)
from .support import adjoint_certificate, mirrors, rank_refuter


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


def test_approximation_number_is_infimum(rng):
    # random low-rank competitors never beat the truncation
    a = _random_operator(4, rng)
    system = operators.svd(a)
    for k in (2, 3, 4):
        lam_k = system.values[k - 1]
        trunc = truncated(system, k - 1)
        assert operators.schatten_norm(a - trunc, np.inf) == pytest.approx(lam_k, abs=1e-9)
        for _ in range(100):
            left = rng.standard_normal((4, k - 1)) + 1j * rng.standard_normal((4, k - 1))
            right = rng.standard_normal((k - 1, 4)) + 1j * rng.standard_normal((k - 1, 4))
            assert operators.schatten_norm(a - left @ right, np.inf) >= lam_k - 1e-9


def test_schatten_rank_one_normalization(rng):
    for _ in range(100):
        f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        product = np.linalg.norm(f) * np.linalg.norm(g)
        op = np.outer(f, g.conj())  # h -> <h, g> f
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
            assert operators.schatten_norm(a, np.inf) <= operators.schatten_norm(a, p) + 1e-9


def test_schatten_two_matches_frobenius(rng):
    # p = 2 takes the Frobenius norm; it must equal the singular-value sum
    for _ in range(50):
        a = _random_operator(int(rng.integers(2, 33)), rng)
        values = operators.singular_values(a)
        assert operators.schatten_norm(a, 2.0) == pytest.approx(
            float(np.sqrt(np.sum(values**2))), rel=1e-14
        )


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_schatten_norm_rejects_stacks_and_non_finite_entries(p):
    with pytest.raises(ValueError):
        operators.schatten_norm(np.zeros((2, 3, 3), complex), p)
    with pytest.raises(ValueError):
        operators.schatten_norm(np.diag([1.0, np.nan]), p)


@pytest.mark.parametrize("p", [0.5, np.nan])
def test_schatten_norm_rejects_exponents_below_one(p):
    # a NaN exponent fails every comparison, so it must fail ``p >= 1``
    with pytest.raises(ValueError, match="p >= 1"):
        operators.schatten_norm(np.eye(2, dtype=complex), p)


def test_schatten_agrees_with_jacobi_values(rng):
    for _ in range(20):
        a = _random_operator(8, rng)
        jac = jacobi_svd(a)[0]
        for p in (1.0, 2.0):
            assert operators.schatten_norm(a, p) == pytest.approx(
                float(np.sum(jac**p) ** (1 / p)), rel=1e-9
            )


def _projection_family(basis, keep=None):
    """Partial-sum projections onto the first m basis columns (at most
    ``keep`` of them), saturating past the last."""

    def member(m):
        b = basis[:, : min(m, keep or basis.shape[1])]
        return b @ b.conj().T

    return member


def test_projection_family_identity_in_trace_norm(rng):
    n = 8
    model = operators.matrix_model(n, 1.0)
    basis, _ = np.linalg.qr(_random_operator(n, rng))
    family = _projection_family(basis)
    tests = [operators._sample_operator(n, rng) for _ in range(20)]
    trace = check_approximate_identity(model, family, tests, range(1, n + 1))
    assert trace[-1].residual <= 1e-9
    rs = [entry.residual for entry in trace]
    assert all(b <= a + 1e-12 for a, b in zip(rs, rs[1:]))
    assert rs[-1] <= 1e-12


def test_strong_convergence_matches_ideal_verdict(rng):
    n = 6
    model = operators.matrix_model(n, 1.0)
    vectors = [v for v in np.eye(n, dtype=complex)]
    for trial in range(10):
        basis, _ = np.linalg.qr(_random_operator(n, rng))
        keep = int(rng.integers(2, n + 1))
        family = _projection_family(basis, keep)
        # S_n v -> v and S_n* v -> v on the basis vectors, for a family of
        # orthogonal projections (operator norm one)
        final = family(n)
        strong = all(
            np.linalg.norm(s @ v - v) <= 1e-9
            for s in (final, final.conj().T)
            for v in vectors
        )
        assert operators.schatten_norm(final, np.inf) == pytest.approx(1.0, abs=1e-9)
        ideal = check_approximate_identity(
            model,
            family,
            [operators._sample_operator(n, rng) for _ in range(5)],
            range(1, n + 1),
        )
        assert strong == (ideal[-1].residual <= 1e-9) == (keep == n)


def test_right_inverse_net_diagonal():
    t = np.diag([1.0, 0.5, 1.0 / 3.0]).astype(complex)
    net = operators.right_inverse_net(operators.svd(t))
    u2 = net(2)
    assert np.allclose(u2, np.diag([1.0, 2.0, 0.0]), atol=1e-9)
    assert np.allclose(t @ u2, np.diag([1.0, 1.0, 0.0]), atol=1e-9)


def test_right_inverse_net_identity():
    system = operators.svd(np.eye(4, dtype=complex))
    net = operators.right_inverse_net(system)
    u = system.outputs
    for m in (1, 2, 4):
        proj = u[:, :m] @ u[:, :m].conj().T
        assert np.allclose(net(m), proj, atol=1e-9)


def test_right_inverse_net_seeded(rng):
    n = 16
    for _ in range(10):
        t = _full_rank(n, rng)
        system = operators.svd(t)
        net = operators.right_inverse_net(system)
        u = system.outputs
        for m in (1, 5, 16):
            proj = u[:, :m] @ u[:, :m].conj().T
            assert np.abs(t @ net(m) - proj).max() <= 1e-9
        for _ in range(5):
            c = _random_operator(n, rng)
            assert operators.schatten_norm(t @ net(n) @ c - c, 2.0) <= 1e-9


def test_net_members_truncate_to_the_leading_directions(rng):
    # projection_residuals reads only the product with the full member, so
    # the truncation of the others is pinned here:
    # U_m = V_m diag(1/lambda_1..m) U_m^H, rank m
    n = 12
    system = operators.svd(_full_rank(n, rng))
    net = operators.right_inverse_net(system)
    for m in range(1, n):
        expected = sum(
            np.outer(system.inputs[:, k], system.outputs[:, k].conj()) / system.values[k]
            for k in range(m)
        )
        assert np.abs(net(m) - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.linalg.matrix_rank(net(m)) == m


def _perturbed_net(system, rng):
    """A net with member m = F U_m U_m^H for one perturbed full member F, so
    that its residuals are far above rounding and R has no special
    structure."""
    n = system.dim
    full = operators.right_inverse_net(system)(n) + 1e-3 * _random_operator(n, rng)
    u = system.outputs
    return lambda m: full @ u[:, :m] @ u[:, :m].conj().T


@pytest.mark.parametrize("n", [2, 8, 24, 40])
def test_projection_residuals_match_the_definition(n, rng):
    for _ in range(5):
        t = _full_rank(n, rng)
        system = operators.svd(t)
        exact = operators.right_inverse_net(system)
        u = system.outputs
        # the true net sits at rounding level, the perturbed one well above
        for net, tol in ((exact, 1e-13), (_perturbed_net(system, rng), 0.0)):
            residuals = operators.projection_residuals(t @ net(n), u)
            gaps = [t @ net(m) - u[:, :m] @ u[:, :m].conj().T for m in range(1, n + 1)]
            direct = np.array([np.linalg.norm(gap) for gap in gaps])
            assert residuals.shape == (n,)
            assert np.abs(residuals - direct).max() <= tol + 1e-10 * direct.max()
            # a cumulative sum of squared column norms
            assert np.all(np.diff(residuals) >= 0.0)
            # the Schatten-2 norm bounds the operator norm
            largest = np.array([operators.schatten_norm(gap, np.inf) for gap in gaps])
            assert np.all(largest <= residuals + tol + 1e-10 * residuals)


@pytest.mark.parametrize("entry", [np.nan, np.inf, 1e300])
def test_projection_residuals_are_nan_for_a_non_finite_residual(entry, rng):
    # the row must print nan and fail, and a NaN clipped at 0.0 would pass
    # it (1e300 overflows the squared column norms)
    n = 6
    t = _full_rank(n, rng)
    system = operators.svd(t)
    member = np.full((n, n), entry, dtype=complex)
    with np.errstate(all="ignore"):
        residuals = operators.projection_residuals(t @ member, system.outputs)
    assert residuals.shape == (n,)
    assert np.all(np.isnan(residuals))


def test_right_inverse_net_refuses_singular():
    t = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(RankDeficientError) as err:
        operators.right_inverse_net(operators.svd(t))
    assert err.value.index == 2


def test_matrix_model_names_and_norms(rng):
    a = _random_operator(8, rng)
    op = operators.matrix_model(8)
    assert op.name == "matrices-8-op"
    assert op.norm(a) == operators.schatten_norm(a, np.inf)
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
    assert cert.right_trace[-1].residual <= 1e-9

    singular = t.copy()
    singular[:, 0] = 0.0
    cert2 = operators.certify_operator(singular, tests)
    assert cert2.verdict == "refuted"


def test_certify_operator_decides_rank_once(rng, monkeypatch):
    # decompositions of the certified operator itself: one singular system
    # decides the rank and builds the net; the verifier's Schatten-2 norm of
    # x is the Frobenius norm and takes none
    calls = []
    decompose = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a)
        return decompose(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    t = _full_rank(8, rng)
    singular = t.copy()
    singular[:, 0] = 0.0
    unit = [np.eye(8, dtype=complex)]
    zero = np.zeros((8, 8), complex)
    for op, verdict, count in (
        (t, "certified-two-sided", 1), (singular, "refuted", 1), (zero, "refuted", 1)
    ):
        calls.clear()
        assert operators.certify_operator(op, unit).verdict == verdict
        assert sum(np.array_equal(a, op) for a in calls) == count


def test_full_rank_operator_takes_one_draw(monkeypatch):
    calls = []

    def rank_deficient(n, rng):
        calls.append(1)
        t = _random_operator(n, rng)
        t[:, 0] = 0.0
        return t

    def assert_decomposes(t, system):
        # the system handed back is LAPACK's decomposition of t, bit for bit
        expected = operators.svd(t)
        for field in ("values", "outputs", "inputs"):
            assert np.array_equal(getattr(system, field), getattr(expected, field))

    # a draw that fails the screen is lifted to the floor, not redrawn
    monkeypatch.setattr(operators, "_sample_operator", rank_deficient)
    t, system = scenarios._full_rank_operator(8, np.random.default_rng(0))
    assert len(calls) == 1
    lam = operators.singular_values(t)
    assert lam[-1] >= 1e-2 * lam[0] * (1.0 - 1e-12)
    assert_decomposes(t, system)
    # a draw that passes comes back as drawn
    unit = np.eye(8, dtype=complex)
    monkeypatch.setattr(operators, "_sample_operator", lambda n, rng: unit)
    t, system = scenarios._full_rank_operator(8, np.random.default_rng(0))
    assert t is unit
    assert_decomposes(t, system)


@pytest.mark.parametrize("lifted", [False, True])
def test_um_net_decomposes_each_operator_once_per_draw(lifted, monkeypatch):
    # one full SVD per draw, a second one per lifted draw, and one for
    # certify_operator's rank-refuted operator; no values-only SVD at all
    counts = {"svd": 0, "singular_values": 0}
    for name in counts:
        original = getattr(operators, name)

        def counting(a, name=name, original=original):
            counts[name] += 1
            return original(a)

        monkeypatch.setattr(operators, name, counting)
    sample = operators._sample_operator

    def draw(n, rng):
        # well conditioned: the identity plus a small perturbation; or with
        # a zero column, so that the screen fails and the draw is lifted
        t = np.eye(n, dtype=complex) + 0.1 * sample(n, rng)
        if lifted:
            t[:, 1] = 0.0
        return t

    monkeypatch.setattr(operators, "_sample_operator", draw)
    config = scenarios.ScenarioConfig(matrix_size=8, matrix_count=3)
    rows = scenarios.REGISTRY["um-net"].run(config, 1)
    assert all(row.verdict == "pass" for row in rows)
    per_draw = 2 if lifted else 1
    assert counts == {"svd": per_draw * config.matrix_count + 1, "singular_values": 0}


def test_rank_refuter():
    reason = rank_refuter(np.diag([1.0, 0.0]).astype(complex))
    assert reason == (
        "range not dense at truncation: smallest singular value 0.000e+00"
    )
    assert rank_refuter(np.eye(3, dtype=complex)) is None


def test_pure_state_minimum_matches_smallest_singular_value(rng):
    for trial in range(50):
        t = _random_operator(16, rng)
        smin = float(operators.singular_values(t)[-1])
        est = operators.min_pure_state_norm(t, seed=trial)
        assert abs(est - smin) <= 1e-6


def test_two_criteria_agreement(rng):
    threshold = 1e-8
    singular_count = 0
    for trial in range(100):
        t = _random_operator(16, rng)
        if trial % 3 == 0:
            t[:, trial % 16] = 0.0
            singular_count += 1
        by_sigma = bool(operators.singular_values(t)[-1] > threshold)
        by_state = bool(
            operators.min_pure_state_norm(t, seed=trial) > threshold
        )
        assert by_sigma == by_state
    assert singular_count >= 30


def _stack_with_singular_members(n, k, rng):
    stack = np.array([_random_operator(n, rng) for _ in range(k)])
    for j in range(0, k, 3):
        stack[j, :, j % n] = 0.0
    return stack


@pytest.mark.parametrize("n", [8, 16, 24])
def test_stacked_minima_match_smallest_singular_values(n, rng):
    stack = _stack_with_singular_members(n, 10, rng)
    minima = operators.min_pure_state_norm(stack, seed=3)
    assert minima.shape == (10,)
    for t, est in zip(stack, minima):
        assert abs(est - operators.singular_values(t)[-1]) <= 1e-6
    assert np.all(minima[::3] <= 1e-12)


def test_stack_of_one_equals_the_single_call(rng):
    t = _stack_with_singular_members(12, 1, rng)[0]
    single = operators.min_pure_state_norm(t, seed=8)
    assert isinstance(single, float)
    assert operators.min_pure_state_norm(t[None], seed=8).tolist() == [single]


def test_stack_matches_the_per_operator_solve_oracle(rng):
    stack = _stack_with_singular_members(12, 5, rng)
    together = operators.min_pure_state_norm(list(stack), seed=7)
    for j, t in enumerate(stack):
        assert abs(together[j] - solved_pure_state_minimum(t, 7 + j)) <= 1e-12


BAD_STACKS = pytest.mark.parametrize(
    "operators_in",
    [
        np.zeros((2, 3, 4), complex),
        np.full((1, 3, 3), np.nan),
        np.array([np.eye(3), np.diag([1.0, np.inf, 1.0])]),
        np.zeros((0, 3, 3), complex),
        [],
        np.zeros(3),
    ],
    ids=["non-square", "nan", "inf-member", "empty-stack", "empty-list", "vector"],
)


@BAD_STACKS
def test_pure_state_minimum_rejects_bad_stacks(operators_in):
    with pytest.raises(ValueError):
        operators.min_pure_state_norm(operators_in)


@BAD_STACKS
def test_singular_values_reject_bad_stacks(operators_in):
    with pytest.raises(ValueError):
        operators.singular_values(operators_in)


@pytest.mark.parametrize("n", [8, 16, 24])
def test_stacked_singular_values_equal_the_per_operator_calls(n, rng):
    stack = _stack_with_singular_members(n, 10, rng)
    together = operators.singular_values(stack)
    assert together.shape == (10, n)
    for t, values in zip(stack, together):
        assert np.array_equal(values, operators.singular_values(t))


def test_pure_state_route_inverts_each_gram_matrix_once(monkeypatch):
    calls = {"inverted": 0, "solve": 0}
    inv, solve = np.linalg.inv, np.linalg.solve

    def counting_inv(a):
        calls["inverted"] += 1 if np.ndim(a) == 2 else len(a)
        return inv(a)

    def counting_solve(a, b):
        calls["solve"] += 1
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    config = scenarios.ScenarioConfig(matrix_size=8, matrix_count=3)
    rows = scenarios.REGISTRY["pure-state"].run(config, 5)
    assert rows[0].verdict == "pass"
    assert calls == {"inverted": 30, "solve": 0}


def _pure_state_peak(matrix_count):
    config = scenarios.ScenarioConfig(matrix_size=24, matrix_count=matrix_count)
    tracemalloc.start()
    try:
        scenarios.REGISTRY["pure-state"].run(config, 2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pure_state_memory_does_not_grow_with_matrix_count():
    _pure_state_peak(1)  # first-call allocations (lazy imports, caches)
    small, large = _pure_state_peak(5), _pure_state_peak(20)
    assert abs(large - small) <= 0.1 * small


def _assert_adjoint_mirrors(t, tests):
    cert = operators.certify_operator(t, tests)
    dual = adjoint_certificate(t, tests)
    assert mirrors(cert, dual)
    return cert, dual


def test_adjoint_duality(rng):
    cert, dual = _assert_adjoint_mirrors(np.eye(4, dtype=complex), [np.eye(4, dtype=complex)])
    assert cert.verdict == dual.verdict == "certified-two-sided"
    singular = np.diag([1.0, 0.0]).astype(complex)
    cert, dual = _assert_adjoint_mirrors(singular, [np.eye(2, dtype=complex)])
    assert cert.verdict == dual.verdict == "refuted"
    for trial in range(30):
        t = _random_operator(8, rng)
        if trial % 4 == 0:
            t[:, trial % 8] = 0.0
        cert, dual = _assert_adjoint_mirrors(t, [_random_operator(8, rng, 0.3)])
        assert (cert.verdict == "refuted") == (trial % 4 == 0)


def test_annihilating_operator_factors_through_complement(rng):
    n = 8
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a /= np.linalg.norm(a)
    p_a = np.outer(a, a.conj())
    t = _random_operator(n, rng) @ (np.eye(n) - p_a)
    assert np.linalg.norm(t @ a) <= 1e-12
    assert np.abs(t @ (np.eye(n) - p_a) - t).max() <= 1e-10


def test_net_converges_strongly_on_vectors(rng):
    n = 12
    t = _full_rank(n, rng)
    net = operators.right_inverse_net(operators.svd(t))
    for _ in range(5):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.linalg.norm(t @ net(n) @ v - v) <= 1e-9 * max(
            1.0, np.linalg.norm(v)
        )
