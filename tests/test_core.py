import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import approxinv
from approxinv import operators, wiener
from approxinv.core import (
    ApproxIdentityFamily,
    InverseNet,
    ResidualTrace,
    TraceEntry,
    check_approx_invertible,
    check_approximate_identity,
    circle_op,
    combine_nets,
    quasi_inv_residual,
    residual_decay_verdict,
    sandwich_family,
    zero_divisor_modulus,
)
from approxinv.errors import NumericOverflowError

from .oracles import direct_convolve

# oracle-pinned residuals of the order-n kernel family on the r=0.9 kernel
# (direct circular convolution at M=4096)
POISSON09_RESIDUALS = {
    8: 0.6524112881668263,
    64: 0.09422368650812096,
    128: 0.04711864017530944,
    1024: 0.005889830409830064,
}
# oracle-pinned worst-case residuals of the combined (sandwich) net for the
# r=0.5 kernel acting on itself
SANDWICH_RESIDUALS = {8: 0.19093147413865494, 128: 0.013176749347339298}


def _trace(residuals, tol=1e-2):
    entries = tuple(
        TraceEntry(j + 1, r, 1.0, r, r) for j, r in enumerate(residuals)
    )
    return ResidualTrace(entries, tol)


def test_unit_family_has_zero_residuals(matrix8, rng):
    family = ApproxIdentityFamily(lambda j: matrix8.unit, norm_bound=1.0)
    tests = [matrix8.sample(rng) for _ in range(3)]
    report = check_approximate_identity(matrix8, family, tests, tol=1e-12, max_index=5)
    assert report.passed
    assert report.final_residual == 0.0
    assert report.bound_ok


def test_zero_family_fails_with_element_norm(matrix8, rng):
    zero = np.zeros((8, 8), complex)
    x = matrix8.sample(rng)
    family = ApproxIdentityFamily(lambda j: zero)
    report = check_approximate_identity(matrix8, family, [x], tol=1e-2, max_index=4)
    assert not report.passed
    expect = matrix8.norm(x)
    for entry in report.traces[0].entries:
        assert entry.residual == pytest.approx(expect, abs=1e-12)


def test_fejer_trace_on_slow_kernel_matches_oracle(grid4096):
    model = wiener.l1_circle_model(grid4096)
    family = wiener.fejer_family(grid4096)
    target = wiener.poisson_kernel(grid4096, 0.9)
    report = check_approximate_identity(
        model, family, [target], tol=1e-2, schedule=[8, 64, 128, 1024]
    )
    trace = report.traces[0]
    for entry in trace.entries:
        assert entry.residual == pytest.approx(POISSON09_RESIDUALS[entry.index], rel=1e-9)
    rs = trace.residuals
    assert all(b < a for a, b in zip(rs, rs[1:]))
    # converges at this tolerance only by index 1024, not by 128
    assert rs[-2] > 1e-2
    assert report.passed
    assert report.bound_ok


def test_fejer_residual_agrees_with_direct_convolution(grid512):
    target = wiener.poisson_kernel(grid512, 0.9)
    kernel = wiener.fejer_kernel(grid512, 8)
    production = wiener.l1_norm(wiener.convolve(kernel, target) - target)
    direct = np.mean(
        np.abs(direct_convolve(kernel.values, target.values) - target.values)
    )
    assert production == pytest.approx(direct, abs=1e-12)


def test_empty_test_set_rejected(matrix8):
    family = ApproxIdentityFamily(lambda j: matrix8.unit)
    with pytest.raises(ValueError):
        check_approximate_identity(matrix8, family, [], tol=1e-2, max_index=3)


def test_nonfinite_norm_raises_overflow(matrix8):
    bad = np.full((8, 8), np.inf + 0j)
    family = ApproxIdentityFamily(lambda j: bad)
    with pytest.raises((NumericOverflowError, ValueError)):
        check_approximate_identity(matrix8, family, [matrix8.unit], max_index=2)


def test_decay_verdict_trivial_cases():
    assert residual_decay_verdict(_trace([1.0, 0.1, 0.0]), 1e-9)
    assert not residual_decay_verdict(_trace([1.0, 1.0, 1.0]), 1e-2)
    verdict = residual_decay_verdict(_trace([1.0, 0.5, 0.25]), 0.3)
    assert verdict.passed and verdict.eventually_nonincreasing


def test_decay_verdict_on_kernel_trace(grid4096):
    model = wiener.l1_circle_model(grid4096)
    family = wiener.fejer_family(grid4096)
    report = check_approximate_identity(
        model,
        family,
        wiener.standard_test_set(grid4096),
        tol=1e-2,
        schedule=[8, 16, 32, 64, 128],
    )
    assert all(residual_decay_verdict(t, 1e-2) for t in report.traces)


def test_trace_validation():
    with pytest.raises(ValueError):
        ResidualTrace((), 1e-2)
    entries = (TraceEntry(2, 0.1, 1.0, 0.1, 0.1), TraceEntry(1, 0.1, 1.0, 0.1, 0.1))
    with pytest.raises(ValueError):
        ResidualTrace(entries, 1e-2)
    with pytest.raises(NumericOverflowError):
        _trace([np.nan])


def test_circle_op_zero_left(matrix8, rng):
    b = matrix8.sample(rng)
    zero = np.zeros((8, 8), complex)
    assert np.allclose(circle_op(matrix8, zero, b), -b)


def test_circle_op_quasi_inverse_identity(matrix8, rng):
    a = 0.5 * matrix8.sample(rng)
    eye = matrix8.unit
    b = eye - np.linalg.inv(eye - a)
    assert matrix8.norm(circle_op(matrix8, a, b)) <= 1e-9


def test_circle_op_diag_two():
    model = operators.matrix_model(2)
    a = np.diag([2.0, 2.0]).astype(complex)
    assert np.allclose(circle_op(model, a, a), 0.0)


def test_quasi_inv_residual_traces(matrix8, rng):
    a = 0.5 * matrix8.sample(rng)
    zero = np.zeros((8, 8), complex)
    eye = matrix8.unit
    exact = InverseNet(lambda j: eye - np.linalg.inv(eye - a), "right")
    trace = quasi_inv_residual(matrix8, a, exact, max_index=4)
    assert max(trace.residuals) <= 1e-9

    drift = InverseNet(lambda j: matrix8.scale(1.0 / j, eye), "right")
    trace0 = quasi_inv_residual(matrix8, zero, drift, max_index=4)
    for entry in trace0.entries:
        assert entry.residual == pytest.approx(1.0 / entry.index, abs=1e-12)

    null = InverseNet(lambda j: zero, "right")
    trace_null = quasi_inv_residual(matrix8, a, null, max_index=3)
    for entry in trace_null.entries:
        assert entry.residual == pytest.approx(matrix8.norm(a), abs=1e-12)


def test_combine_nets_exact_inverse(matrix8, rng):
    x = matrix8.unit + 0.3 * matrix8.sample(rng)
    inv = np.linalg.inv(x)
    left = InverseNet(lambda j: inv, "left")
    right = InverseNet(lambda j: inv, "right")
    combined = combine_nets(matrix8, left, right)
    assert np.allclose(combined(1), inv @ inv)
    family = sandwich_family(matrix8, x, combined)
    report = check_approximate_identity(
        matrix8, family, [matrix8.sample(rng)], tol=1e-9, max_index=3
    )
    assert report.passed


def test_combine_nets_side_mismatch(matrix8):
    net = InverseNet(lambda j: matrix8.unit, "right")
    with pytest.raises(ValueError):
        combine_nets(matrix8, net, net)


def test_combine_nets_division_sandwich(grid4096):
    model = wiener.l1_circle_model(grid4096)
    f = wiener.poisson_kernel(grid4096, 0.5)
    floor = 0.5**130
    left = InverseNet(lambda n: wiener.wiener_division(f, n, floor), "left")
    right = wiener.wiener_division_net(f, floor)
    combined = combine_nets(model, left, right)
    family = sandwich_family(model, f, combined)
    report = check_approximate_identity(
        model, family, [f], tol=2e-2, schedule=[8, 128]
    )
    trace = report.traces[0]
    for entry in trace.entries:
        assert entry.residual == pytest.approx(SANDWICH_RESIDUALS[entry.index], rel=1e-9)
    assert report.passed


def test_combine_nets_zero_fails(matrix8, rng):
    x = matrix8.unit
    zero = np.zeros((8, 8), complex)
    combined = combine_nets(
        matrix8,
        InverseNet(lambda j: zero, "left"),
        InverseNet(lambda j: zero, "right"),
    )
    family = sandwich_family(matrix8, x, combined)
    report = check_approximate_identity(matrix8, family, [x], tol=1e-2, max_index=3)
    assert not report.passed


def test_certified_two_sided_for_invertible_matrix(matrix8, rng):
    x = matrix8.unit + 0.2 * matrix8.sample(rng)
    net = InverseNet(lambda j: np.linalg.inv(x), "right")
    tests = [matrix8.sample(rng) for _ in range(3)]
    cert = check_approx_invertible(matrix8, x, net, tests, tol=1e-9, max_index=3)
    assert cert.verdict == "certified-two-sided"
    assert cert.right_trace.final_residual <= 1e-9
    # certificate soundness is visible on the data itself
    assert cert.right_trace.final_residual <= cert.right_trace.tolerance


def test_zero_element_rejected(matrix8):
    with pytest.raises(ValueError):
        check_approx_invertible(
            matrix8, np.zeros((8, 8), complex), None, [matrix8.unit], tol=1e-9
        )


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_verdict_invariant_under_positive_scaling(c, grid512):
    rng = np.random.default_rng(5)
    t = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    cert = operators.certify_operator(c * t, [np.eye(8, dtype=complex)])
    assert cert.verdict == "certified-two-sided"
    f = wiener.poisson_kernel(grid512, 0.3)
    cert = wiener.product_invertibility_check(c * f, f, 16)
    assert cert.verdict == "certified-two-sided"


def test_singular_matrix_refuted():
    model = operators.matrix_model(2)
    x = np.diag([1.0, 0.0]).astype(complex)
    net = InverseNet(lambda j: model.unit, "right")
    cert = check_approx_invertible(
        model, x, net, [model.unit], tol=1e-9, max_index=3,
        refuter=operators.rank_refuter(),
    )
    assert cert.verdict == "refuted"
    assert "singular" in cert.reason


def test_right_zero_divisor_never_certified(rng):
    # y x = 0 with y != 0 forces the rank refuter to fire on x
    model = operators.matrix_model(4)
    proj = np.eye(4, dtype=complex)
    proj[0, 0] = 0.0
    x = proj @ model.sample(rng)
    y = np.zeros((4, 4), complex)
    y[0, 0] = 1.0
    assert model.norm(y @ x) <= 1e-12 and model.norm(y) > 0
    cert = operators.certify_operator(x, [model.unit])
    assert cert.verdict == "refuted"


def test_stagnation_is_inconclusive(matrix8, rng):
    x = matrix8.unit + 0.2 * matrix8.sample(rng)
    bad_net = InverseNet(lambda j: matrix8.unit * 0.0, "right")
    cert = check_approx_invertible(matrix8, x, bad_net, [matrix8.unit], tol=1e-9, max_index=3)
    assert cert.verdict == "inconclusive"


def test_involution_duality_residuals(matrix8, rng):
    x = matrix8.unit + 0.25 * matrix8.sample(rng)
    r = np.linalg.inv(x) + 0.05 * matrix8.sample(rng)
    tests = [matrix8.sample(rng) for _ in range(3)]
    right = check_approx_invertible(
        matrix8, x, InverseNet(lambda j: r, "right"), tests, tol=1e-1, max_index=3
    )
    dual_tests = [matrix8.involution(z) for z in tests]
    left = check_approx_invertible(
        matrix8,
        matrix8.involution(x),
        InverseNet(lambda j: matrix8.involution(r), "left"),
        dual_tests,
        tol=1e-1,
        max_index=3,
    )
    for a, b in zip(right.right_trace.entries, left.left_trace.entries):
        assert a.residual == pytest.approx(b.residual, abs=1e-12)


def test_zero_divisor_modulus_matrix_exact():
    model = operators.matrix_model(2)
    x = np.diag([3.0, 1.0]).astype(complex)
    result = zero_divisor_modulus(model, x, candidate_count=8, seed=0)
    assert result.method == "exact"
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert model.norm(result.witness) == pytest.approx(1.0, abs=1e-9)
    assert model.norm(x @ result.witness) == pytest.approx(result.value, abs=1e-9)


def test_zero_divisor_modulus_sampled_is_upper_estimate(rng):
    model = operators.matrix_model(4)
    x = model.unit + 0.5 * model.sample(rng)
    exact = zero_divisor_modulus(model, x, 8, seed=3)
    sampled = zero_divisor_modulus(model, x, 64, seed=3, method="sampled")
    assert sampled.method == "sampled"
    assert sampled.value >= exact.value - 1e-9
    assert model.norm(sampled.witness) == pytest.approx(1.0, abs=1e-9)


def test_zero_divisor_modulus_unit_sampled(matrix8):
    # every unit-norm candidate y gives norm(e y) = 1 exactly
    result = zero_divisor_modulus(matrix8, matrix8.unit, 16, seed=5, method="sampled")
    assert result.value == pytest.approx(1.0, abs=1e-9)


def test_zero_divisor_modulus_rejects_bad_count(matrix8):
    with pytest.raises(ValueError):
        zero_divisor_modulus(matrix8, matrix8.unit, candidate_count=0)
    with pytest.raises(ValueError):
        zero_divisor_modulus(matrix8, np.zeros((8, 8), complex), candidate_count=4)
    from approxinv import disk

    no_hook = disk.disk_model()
    with pytest.raises(ValueError):
        zero_divisor_modulus(no_hook, disk.chi1(), candidate_count=4, method="exact")


def test_schedule_validation(matrix8):
    from approxinv.core import resolve_schedule

    assert resolve_schedule(3) == [1, 2, 3]
    assert resolve_schedule(0, [5, 9]) == [5, 9]
    with pytest.raises(ValueError):
        resolve_schedule(0)
    with pytest.raises(ValueError):
        resolve_schedule(4, [])
    with pytest.raises(ValueError):
        resolve_schedule(4, [3, 3])
    with pytest.raises(ValueError):
        resolve_schedule(4, [0, 2])


@pytest.mark.parametrize("model_index", range(6))
def test_submultiplicativity_all_models(model_index):
    model = approxinv.standard_models()[model_index]
    rng = np.random.default_rng(model_index)
    for _ in range(200):
        x = model.sample(rng)
        y = model.sample(rng)
        assert model.norm(model.mul(x, y)) <= model.norm(x) * model.norm(y) * (
            1 + 1e-9
        ) + 1e-12


@pytest.mark.parametrize("model_index", range(6))
def test_involution_preserves_norm(model_index):
    model = approxinv.standard_models()[model_index]
    if model.involution is None:
        pytest.skip("model without involution")
    rng = np.random.default_rng(50 + model_index)
    for _ in range(50):
        x = model.sample(rng)
        assert model.norm(model.involution(x)) == pytest.approx(
            model.norm(x), rel=1e-9, abs=1e-12
        )


@pytest.mark.parametrize("model_index", range(6))
def test_norm_definite_on_samples(model_index):
    model = approxinv.standard_models()[model_index]
    rng = np.random.default_rng(99 + model_index)
    zero = model.scale(0.0, model.sample(rng))
    assert model.norm(zero) == 0.0
    for _ in range(20):
        x = model.sample(rng)
        assert model.norm(x) > 0.0


_small_matrices = arrays(
    np.complex128,
    (2, 2),
    elements=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=_small_matrices, b=_small_matrices)
def test_circle_op_matches_componentwise_formula(a, b):
    model = operators.matrix_model(2)
    assert np.allclose(circle_op(model, a, b), a @ b - a - b, atol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=_small_matrices)
def test_circle_op_exact_quasi_inverse_when_defined(a):
    model = operators.matrix_model(2)
    eye = model.unit
    a = 0.4 * a / max(1.0, np.abs(a).max())
    b = eye - np.linalg.inv(eye - a)
    assert model.norm(circle_op(model, a, b)) <= 1e-8
