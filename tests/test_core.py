from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxinv import operators, wiener
from approxinv.core import (
    AlgebraModel,
    check_approx_invertible,
    check_approximate_identity,
)
from approxinv.errors import NumericOverflowError

from .oracles import direct_convolve
from .support import certify_product, scaled, standard_models

UNIT8 = np.eye(8, dtype=complex)


def _sample8(rng):
    return operators._sample_operator(8, rng)


# oracle-pinned residuals of the order-n kernel family on the r=0.9 kernel
# (direct circular convolution at M=4096)
POISSON09_RESIDUALS = {
    8: 0.6524112881668263,
    64: 0.09422368650812096,
    128: 0.04711864017530944,
    1024: 0.005889830409830064,
}


#: Scalars under the absolute value: the net j -> 1 - r_j of x = 1 leaves
#: the residual |(1 - r_j) - 1| = r_j on the test element 1.
SCALARS = AlgebraModel("scalars", lambda a, b: a * b, abs, commutative=True)


def _decay_verdict(residuals, tol):
    return check_approx_invertible(
        SCALARS, 1.0, lambda j: 1.0 - residuals[j - 1], [1.0],
        range(1, len(residuals) + 1), tol,
    ).verdict


def test_unit_family_has_zero_residuals(matrix8, rng):
    tests = [_sample8(rng) for _ in range(3)]
    trace = check_approximate_identity(matrix8, lambda j: UNIT8, tests, range(1, 6))
    assert trace[-1].residual <= 1e-12
    assert trace[-1].residual == 0.0
    assert all(entry.member_norm <= 1.0 + 1e-9 for entry in trace)


def test_zero_family_fails_with_element_norm(matrix8, rng):
    zero = np.zeros((8, 8), complex)
    x = _sample8(rng)
    trace = check_approximate_identity(matrix8, lambda j: zero, [x], range(1, 5))
    assert trace[-1].residual > 1e-2
    expect = matrix8.norm(x)
    for entry in trace:
        assert entry.residual == pytest.approx(expect, abs=1e-12)


def test_fejer_trace_on_slow_kernel_matches_oracle(M4096):
    model = wiener.l1_circle_model(M4096)
    target = wiener.poisson_kernel(M4096, 0.9)
    trace = check_approximate_identity(
        model,
        lambda n: wiener.fejer_kernel(M4096, n),
        [target],
        schedule=[8, 64, 128, 1024],
    )
    for entry in trace:
        assert entry.residual == pytest.approx(POISSON09_RESIDUALS[entry.index], rel=1e-9)
    rs = [entry.residual for entry in trace]
    assert all(b < a for a, b in zip(rs, rs[1:]))
    # converges at this tolerance only by index 1024, not by 128
    assert rs[-2] > 1e-2
    assert trace[-1].residual <= 1e-2
    assert all(entry.member_norm <= 1.0 + 1e-9 for entry in trace)


def test_fejer_residual_agrees_with_direct_convolution(M512):
    target = wiener.poisson_kernel(M512, 0.9)
    kernel = wiener.fejer_kernel(M512, 8)
    production = wiener.l1_norm(wiener.convolve(kernel, target) - target)
    direct = np.mean(
        np.abs(direct_convolve(kernel.values, target.values) - target.values)
    )
    assert production == pytest.approx(direct, abs=1e-12)


def test_empty_test_set_rejected(matrix8):
    with pytest.raises(ValueError):
        check_approximate_identity(matrix8, lambda j: UNIT8, [], range(1, 4))


def test_nonfinite_norm_raises_overflow(matrix8):
    bad = np.full((8, 8), np.inf + 0j)
    with pytest.raises((NumericOverflowError, ValueError)):
        check_approximate_identity(matrix8, lambda j: bad, [UNIT8], range(1, 3))
    negative = replace(matrix8, norm=lambda a: -1.0)
    with pytest.raises(NumericOverflowError):
        check_approximate_identity(negative, lambda j: UNIT8, [UNIT8], range(1, 3))


def test_decay_verdict_trivial_cases():
    assert _decay_verdict([1.0, 0.1, 0.0], 1e-9) == "certified-two-sided"
    assert _decay_verdict([1.0, 1.0, 1.0], 1e-2) == "inconclusive"
    assert _decay_verdict([1.0, 0.5, 0.25], 0.3) == "certified-two-sided"
    # only the last index decides
    assert _decay_verdict([0.0, 0.0, 0.5], 0.3) == "inconclusive"


def test_decay_verdict_on_kernel_trace(M4096):
    model = wiener.l1_circle_model(M4096)
    trace = check_approximate_identity(
        model,
        lambda n: wiener.fejer_kernel(M4096, n),
        wiener.standard_test_set(M4096),
        schedule=[8, 16, 32, 64, 128],
    )
    assert trace[-1].residual <= 1e-2


def test_certified_two_sided_for_invertible_matrix(matrix8, rng):
    x = UNIT8 + 0.2 * _sample8(rng)
    inverse = np.linalg.inv(x)
    tests = [_sample8(rng) for _ in range(3)]
    cert = check_approx_invertible(
        matrix8, x, lambda j: inverse, tests, range(1, 4), tol=1e-9
    )
    assert cert.verdict == "certified-two-sided"
    assert cert.right_trace[-1].residual <= 1e-9


def test_zero_element_rejected(matrix8):
    with pytest.raises(ValueError):
        check_approx_invertible(
            matrix8, np.zeros((8, 8), complex), lambda j: UNIT8, [UNIT8], [1],
            tol=1e-9,
        )


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_verdict_invariant_under_positive_scaling(c, M512):
    rng = np.random.default_rng(5)
    t = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    cert = operators.certify_operator(c * t, [np.eye(8, dtype=complex)])
    assert cert.verdict == "certified-two-sided"
    # the product's spectrum is the square of the factor's, so r = 0.5 keeps
    # its band edge (0.25^15) above the default division floor
    f = wiener.poisson_kernel(M512, 0.5)
    cert = certify_product(scaled(f, c), f, 16, tol=1e-2)
    assert cert.verdict == "certified-two-sided"


def test_singular_matrix_refuted():
    unit = np.eye(2, dtype=complex)
    x = np.diag([1.0, 0.0]).astype(complex)
    cert = operators.certify_operator(x, [unit])
    assert cert.verdict == "refuted"
    assert "singular" in cert.reason
    # the model refutes before any net is traced
    assert cert.left_trace is None and cert.right_trace is None


def test_right_zero_divisor_never_certified(rng):
    # y x = 0 with y != 0 forces the rank refuter to fire on x
    model = operators.matrix_model(4, np.inf)
    proj = np.eye(4, dtype=complex)
    proj[0, 0] = 0.0
    x = proj @ operators._sample_operator(4, rng)
    y = np.zeros((4, 4), complex)
    y[0, 0] = 1.0
    assert model.norm(y @ x) <= 1e-12 and model.norm(y) > 0
    cert = operators.certify_operator(x, [np.eye(4, dtype=complex)])
    assert cert.verdict == "refuted"


def test_stagnation_is_inconclusive(matrix8, rng):
    x = UNIT8 + 0.2 * _sample8(rng)
    zero = UNIT8 * 0.0
    cert = check_approx_invertible(
        matrix8, x, lambda j: zero, [UNIT8], range(1, 4), tol=1e-9
    )
    assert cert.verdict == "inconclusive"


def test_involution_duality_residuals(matrix8, rng):
    x = UNIT8 + 0.25 * _sample8(rng)
    r = np.linalg.inv(x) + 0.05 * _sample8(rng)
    tests = [_sample8(rng) for _ in range(3)]
    right = check_approx_invertible(
        matrix8, x, lambda j: r, tests, range(1, 4), tol=1e-1
    )
    dual_tests = [z.conj().T for z in tests]
    r_star = r.conj().T
    left = check_approx_invertible(
        matrix8,
        x.conj().T,
        lambda j: r_star,
        dual_tests,
        range(1, 4),
        tol=1e-1,
    )
    for a, b in zip(right.right_trace, left.left_trace):
        assert a.residual == pytest.approx(b.residual, abs=1e-12)


def test_schedule_validation(matrix8):
    from approxinv.core import resolve_schedule

    assert resolve_schedule(range(1, 4)) == [1, 2, 3]
    assert resolve_schedule((5, 9)) == [5, 9]
    for bad in ([], [3, 3], [0, 2], [4, 2]):
        with pytest.raises(ValueError):
            resolve_schedule(bad)


_STANDARD_MODELS = standard_models()
_IDS = [case.model.name for case in _STANDARD_MODELS]


def _assert_pointwise_worst(model, family, tests, schedule):
    """The report on all of ``tests`` carries, entry by entry and field by
    field, exactly the maximum over the single-element reports."""
    whole = check_approximate_identity(model, family, tests, schedule)
    singles = [
        check_approximate_identity(model, family, [x], schedule)
        for x in tests
    ]
    assert [entry.index for entry in whole] == list(schedule)
    for i, entry in enumerate(whole):
        column = [single[i] for single in singles]
        for name in ("index", "member_norm", "residual", "left", "right"):
            assert getattr(entry, name) == max(getattr(e, name) for e in column)


@pytest.mark.parametrize("case", _STANDARD_MODELS, ids=_IDS)
def test_trace_is_the_pointwise_worst_on_standard_models(case):
    rng = np.random.default_rng(17)
    members = {j: case.sample(rng) for j in (1, 2, 4)}
    tests = [case.sample(rng) for _ in range(4)]
    _assert_pointwise_worst(case.model, members.__getitem__, tests, (1, 2, 4))


def test_trace_is_the_pointwise_worst_for_the_kernel_family(M512):
    _assert_pointwise_worst(
        wiener.l1_circle_model(M512),
        lambda n: wiener.fejer_kernel(M512, n),
        wiener.standard_test_set(M512),
        (4, 8, 16, 32),
    )


@pytest.mark.parametrize("model_index", range(len(_STANDARD_MODELS)))
def test_submultiplicativity_all_models(model_index):
    model, sample, _, _ = _STANDARD_MODELS[model_index]
    rng = np.random.default_rng(model_index)
    for _ in range(200):
        x = sample(rng)
        y = sample(rng)
        assert model.norm(model.mul(x, y)) <= model.norm(x) * model.norm(y) * (
            1 + 1e-9
        ) + 1e-12


@pytest.mark.parametrize("model_index", range(len(_STANDARD_MODELS)))
def test_involution_preserves_norm(model_index):
    model, sample, adjoint, _ = _STANDARD_MODELS[model_index]
    rng = np.random.default_rng(50 + model_index)
    for _ in range(50):
        x = sample(rng)
        assert model.norm(adjoint(x)) == pytest.approx(
            model.norm(x), rel=1e-9, abs=1e-12
        )


@pytest.mark.parametrize("model_index", range(len(_STANDARD_MODELS)))
def test_norm_definite_on_samples(model_index):
    model, sample, _, _ = _STANDARD_MODELS[model_index]
    rng = np.random.default_rng(99 + model_index)
    zero = scaled(sample(rng), 0.0)
    assert model.norm(zero) == 0.0
    for _ in range(20):
        x = sample(rng)
        assert model.norm(x) > 0.0


def _element_and_net(case, rng):
    """A unital model gets x = unit + d with norm(d) = 1/2 and its Neumann
    net sum_{k <= j} (-d)^k, which certifies; a non-unital one gets a sample
    and the net j -> x* / norm(x)^2, which stays inconclusive."""
    model, sample, adjoint, unit = case
    s = sample(rng)
    if unit is not None:
        d = (0.5 / model.norm(s)) * s
        x = unit + d

        def neumann(j):
            term, total = unit, unit
            for _ in range(j):
                term = model.mul(term, -1.0 * d)
                total = total + term
            return total

        return x, neumann
    member = scaled(adjoint(s), 1.0 / model.norm(s) ** 2)
    return s, lambda j: member


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    model_index=st.integers(0, len(_STANDARD_MODELS) - 1),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(-12.0, 12.0),
)
def test_verdict_invariant_under_scaling_on_standard_models(model_index, seed, exponent):
    case = _STANDARD_MODELS[model_index]
    rng = np.random.default_rng(seed)
    x, net = _element_and_net(case, rng)
    test_set = [case.sample(rng)]
    c = 10.0**exponent

    def verdict(scale):
        return check_approx_invertible(
            case.model, scaled(x, scale),
            lambda j: scaled(net(j), 1.0 / scale), test_set,
            tol=1e-2, schedule=(4, 8, 16, 32),
        ).verdict

    expected = "inconclusive" if case.unit is None else "certified-two-sided"
    assert verdict(1.0) == expected
    assert verdict(c) == expected


def _commutator_ratio(model, a, b):
    """norm(ab - ba) / (norm(a) norm(b))."""
    gap = model.norm(model.mul(a, b) - model.mul(b, a))
    return gap / (model.norm(a) * model.norm(b))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    model_index=st.integers(0, len(_STANDARD_MODELS) - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_declared_commutative_models_commute(model_index, seed):
    model, sample, _, _ = _STANDARD_MODELS[model_index]
    rng = np.random.default_rng(seed)
    a, b = sample(rng), sample(rng)
    if model.commutative:
        assert _commutator_ratio(model, a, b) <= 1e-12


def test_commutative_declarations_of_standard_models():
    declared = {case.model.name: case.model.commutative for case in _STANDARD_MODELS}
    assert {name for name, flag in declared.items() if flag} == {
        "l1-circle-512", "c0-grid-201"
    }
    rng = np.random.default_rng(11)
    for model, sample, _, _ in _STANDARD_MODELS:
        if not model.commutative:
            assert model.name.startswith("matrices-")
            ratios = [
                _commutator_ratio(model, sample(rng), sample(rng))
                for _ in range(4)
            ]
            assert max(ratios) > 1e-12, model.name


def _counted(model):
    """The model with ``norm`` and ``mul`` wrapped in call counters."""
    calls = {"norm": 0, "mul": 0}

    def norm(x):
        calls["norm"] += 1
        return model.norm(x)

    def mul(a, b):
        calls["mul"] += 1
        return model.mul(a, b)

    return replace(model, norm=norm, mul=mul), calls


@pytest.mark.parametrize("case", _STANDARD_MODELS, ids=_IDS)
def test_commutative_models_check_one_side(case):
    model = case.model
    rng = np.random.default_rng(3)
    x, net = _element_and_net(case, rng)
    tests = [case.sample(rng) for _ in range(3)]
    sched = (2, 4, 8, 16)
    counted, calls = _counted(model)
    cert = check_approx_invertible(counted, x, net, tests, sched, tol=1e-2)
    if model.commutative:
        expected = 1 + len(sched) * (1 + len(tests))
        assert cert.left_trace is cert.right_trace
        for entry in cert.right_trace:
            assert entry.left == entry.right == entry.residual
    else:
        expected = 1 + 2 * len(sched) * (1 + 2 * len(tests))
    assert calls["norm"] == expected
    # one product per member, one per (member, test element) and side
    assert calls["mul"] == expected - 1
