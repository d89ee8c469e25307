import numpy as np
import pytest

from approxinv import c0, scenarios
from approxinv.core import check_approx_invertible, check_approximate_identity
from approxinv.errors import CannotPerturbError, SingularDivisionError


@pytest.fixture(scope="module")
def lorentz(space):
    return (1.0 / (1.0 + space.t**2)).astype(complex)


@pytest.fixture(scope="module")
def wide_space():
    # tail tolerance large enough to admit 1/(1+t^2) on [-10, 10]
    return c0.GridSpace(10.0, 201, tail_tol=0.011)


def _honours_tail(space, f):
    """Whether f respects the vanishing-at-infinity surrogate: both extreme
    cells within the tail tolerance."""
    return abs(f[0]) <= space.tail_tol and abs(f[-1]) <= space.tail_tol


def test_sup_norm_basics(space, lorentz):
    assert c0.sup_norm(np.zeros(space.points)) == 0.0
    e = c0.plateau(space, 50, 150, 10)
    assert c0.sup_norm(e) == 1.0
    assert c0.sup_norm(lorentz) == pytest.approx(1.0, abs=1e-14)  # peak at t=0


def test_grid_space_validation():
    with pytest.raises(ValueError):
        c0.GridSpace(10.0, 2, 1e-3)
    with pytest.raises(ValueError):
        c0.GridSpace(-1.0, 11, 1e-3)
    with pytest.raises(ValueError):
        c0.GridSpace(9e307, 11, 1e-3)
    assert np.all(np.isfinite(c0.GridSpace(8e307, 11, 1e-3).t))
    # the window family's center cell with WINDOW_RAMP cells on each side
    with pytest.raises(ValueError, match="at least 5 points"):
        c0.GridSpace(10.0, 2 * c0.WINDOW_RAMP, 1e-3)
    assert len(c0.WindowFamily(c0.GridSpace(10.0, 2 * c0.WINDOW_RAMP + 1, 1e-3))) == 1
    tiny = np.finfo(float).tiny
    with pytest.raises(ValueError, match="normal float"):
        c0.GridSpace(np.nextafter(tiny, 0.0), 11, 1e-3)
    assert c0.GridSpace(tiny, 11, 1e-3).t[-1] == tiny


def test_plateau_whole_interior(space):
    e = c0.plateau(space, 1, space.points - 2, 1)
    assert e[0] == 0.0 and e[-1] == 0.0
    assert np.all(e[1:-1] == 1.0)


def test_plateau_tent(space):
    mid = space.center
    e = c0.plateau(space, mid, mid, 2)
    assert e[mid] == 1.0
    assert e[mid - 1] == pytest.approx(0.5)
    assert e[mid + 1] == pytest.approx(0.5)
    assert e[mid - 2] == 0.0 and e[mid + 2] == 0.0
    assert _honours_tail(space, e)


def test_plateau_overflow_rejected(space):
    with pytest.raises(ValueError):
        c0.plateau(space, 0, 5, 1)
    with pytest.raises(ValueError):
        c0.plateau(space, 5, space.points - 1, 1)


@pytest.mark.parametrize("a, b", [(-1, 5), (6, 5)])
def test_plateau_rejects_a_reversed_or_negative_window(space, a, b):
    with pytest.raises(ValueError, match="0 <= a <= b"):
        c0.plateau(space, a, b, 1)


def _window(family, n):
    """The closed index window ``(a, b)`` of member n: where its plateau is 1."""
    a, b = np.flatnonzero(family.element(n) == 1.0)[[0, -1]]
    return int(a), int(b)


def test_window_family_uniform_on_fixed_window(space):
    family = c0.WindowFamily(space)
    fixed_a, fixed_b = space.center - 20, space.center + 20
    windows = [_window(family, n) for n in range(1, 20)]
    for (a, b), (outer_a, outer_b) in zip(windows, windows[1:]):
        assert outer_a <= a and b <= outer_b
    for n, (a, b) in enumerate(windows, start=1):
        if a <= fixed_a and fixed_b <= b:
            e = family.element(n)
            assert np.abs(e[fixed_a : fixed_b + 1] - 1.0).max() == 0.0


def test_plateau_family_is_approximate_identity(space):
    model = c0.c0_model(space)
    family = c0.WindowFamily(space)
    tests = c0.seeded_elements(space, 4, seed=7, zero_fraction=0.0)
    trace = check_approximate_identity(model, family.element, tests, range(1, 13))
    assert trace[-1].residual <= 1e-3
    assert all(entry.member_norm <= 1.0 + 1e-9 for entry in trace)
    # element times plateau converges to the element itself
    f = tests[0]
    resids = [
        c0.sup_norm(f * family.element(n) - f) for n in range(1, 13)
    ]
    assert resids[-1] <= space.tail_tol
    assert all(b <= a + 1e-15 for a, b in zip(resids, resids[1:]))


def test_is_nonvanishing(space, lorentz):
    assert c0.is_nonvanishing(lorentz, 1e-6) is True
    # the minimum |f| is 1/(1 + 100), at the boundary cells
    assert c0.is_nonvanishing(lorentz, 1.0 / (1.0 + 100.0) - 1e-12)
    assert not c0.is_nonvanishing(lorentz, 1.0 / (1.0 + 100.0) + 1e-12)

    dipped = lorentz.copy()
    dipped[space.center] = 0.0
    assert c0.is_nonvanishing(dipped, 1e-6) is False

    assert not c0.is_nonvanishing(np.zeros(space.points), 1e-6)


def test_reciprocal_net_pointwise(space, lorentz):
    family = c0.WindowFamily(space)
    net = c0.reciprocal_inverse_net(lorentz, family)
    g = net(1)
    assert g[space.center] == pytest.approx(1.0, abs=1e-12)  # 1 * (1 + 0)

    flatish = np.full(space.points, 1.0, dtype=complex)
    net2 = c0.reciprocal_inverse_net(flatish, family)
    e = family.element(2)
    assert np.allclose(net2(2), e, atol=1e-12)


def test_reciprocal_multiply_back(space):
    rng_elements = c0.seeded_elements(space, 20, seed=11, zero_fraction=0.0)
    family = c0.WindowFamily(space)
    for f in rng_elements:
        net = c0.reciprocal_inverse_net(f, family)
        for n in (1, 4, 9):
            e = family.element(n)
            assert c0.sup_norm(f * net(n) - e) <= 1e-12


def test_reciprocal_rejects_small_values(space, lorentz):
    family = c0.WindowFamily(space)
    dipped = lorentz.copy()
    dipped[space.center + 3] = 1e-14
    net = c0.reciprocal_inverse_net(dipped, family)
    with pytest.raises(SingularDivisionError) as err:
        net(9)
    assert err.value.index == space.center + 3


def test_perturbation_contracts(wide_space):
    f = (1.0 / (1.0 + wide_space.t**2)).astype(complex)
    for eps in (1e-1, 1e-2):
        g = c0.perturb_to_noninvertible(wide_space, f, eps)
        assert c0.sup_norm(g - f) <= eps
        assert np.abs(g).min() == 0.0
        # perturbation only touches the region where f already sits under eps
        changed = np.flatnonzero(np.abs(g - f) > 0)
        assert np.all(np.abs(f[changed]) < eps)


def test_perturbation_zero_for_large_eps(space, lorentz):
    g = c0.perturb_to_noninvertible(space, lorentz, eps=2.5 * c0.sup_norm(lorentz))
    assert np.all(g == 0.0)


def test_perturbation_keeps_clear_plateau(space):
    f = c0.plateau(space, 80, 120, 10).astype(complex)
    g = c0.perturb_to_noninvertible(space, f, eps=1e-1)
    plateau_region = slice(80, 121)
    assert np.array_equal(g[plateau_region], f[plateau_region])
    assert np.abs(g).min() == 0.0


def test_perturbation_cannot_perturb(space):
    stubborn = np.full(space.points, 1.0, dtype=complex)
    with pytest.raises(CannotPerturbError):
        c0.perturb_to_noninvertible(space, stubborn, eps=1e-2)


def test_certification_matches_nonvanishing(space):
    elements = c0.seeded_elements(space, 50, seed=3)
    tests = c0.seeded_elements(space, 3, seed=5, zero_fraction=0.0)
    for f in elements:
        cert = c0.certify(space, f, tests)
        expected = c0.is_nonvanishing(f, 1e-6)
        assert cert.certified == expected
        assert (cert.verdict == "refuted") == (not expected)


def test_interior_emptiness_for_certified_elements(space):
    elements = c0.seeded_elements(space, 10, seed=21, zero_fraction=0.0)
    tests = c0.seeded_elements(space, 3, seed=22, zero_fraction=0.0)
    for f in elements:
        cert = c0.certify(space, f, tests)
        assert cert.certified
        for eps in (1e-1, 1e-2):
            g = c0.perturb_to_noninvertible(space, f, eps)
            assert c0.sup_norm(g - f) <= eps
            assert not c0.is_nonvanishing(g, 1e-6)
            assert c0.certify(space, g, tests).verdict == "refuted"


def test_certify_inconclusive_on_sub_threshold_dip(space, lorentz):
    dipped = lorentz.copy()
    dipped[space.center + 3] = 1e-14  # below threshold but not an exact zero
    cert = c0.certify(space, dipped, [lorentz])
    assert cert.verdict == "inconclusive"


def test_seeded_elements_honour_tail_invariant(space):
    for f in c0.seeded_elements(space, 20, seed=31):
        assert _honours_tail(space, f)


def _count_plateaus(monkeypatch):
    calls = []
    original = c0.plateau

    def counted(space, a, b, ramp):
        calls.append((a, b))
        return original(space, a, b, ramp)

    monkeypatch.setattr(c0, "plateau", counted)
    return calls


def test_window_family_builds_each_window_once_read_only(space, monkeypatch):
    calls = _count_plateaus(monkeypatch)
    family = c0.WindowFamily(space)
    assert len(family) == 9  # the growth saturates at the largest window
    assert len(calls) == len(family)
    windows = [_window(family, n) for n in range(1, len(family) + 1)]
    assert calls == windows
    for (a, b), (outer_a, outer_b) in zip(windows, windows[1:]):
        assert outer_a < a and b < outer_b
    assert windows[-1] == (2, space.points - 3)
    members = [family.element(n) for n in range(1, len(family) + 1)]
    for e, (a, b) in zip(members, windows):
        assert not e.flags.writeable
        assert np.array_equal(e, c0.plateau(space, a, b, 2))
    for n in range(len(family), 40):
        assert family.element(n) is members[-1]
        assert _window(family, n) == windows[-1]
    with pytest.raises(ValueError):
        members[0][space.center] = 2.0
    with pytest.raises(ValueError):
        family.element(0)
    assert len(calls) == 2 * len(family)  # only the reference plateaus above
    # a second family builds its own members
    assert c0.WindowFamily(space).element(1) is not members[0]


def test_window_family_has_at_most_15_members():
    sizes = {
        points: len(c0.WindowFamily(c0.GridSpace(10.0, points, 1e-3)))
        for points in range(5, 300)
    }
    assert sizes[5] == 1 and sizes[201] == 9
    assert max(sizes.values()) == 15


def test_c0_interior_builds_one_family_per_run(monkeypatch):
    families = []
    original = c0.WindowFamily

    def recorded(*args, **kwargs):
        families.append(original(*args, **kwargs))
        return families[-1]

    monkeypatch.setattr(c0, "WindowFamily", recorded)
    calls = _count_plateaus(monkeypatch)
    counts = []
    for _ in range(2):
        before = len(calls)
        scenarios.REGISTRY["c0-interior"].run(scenarios.ScenarioConfig(), 1)
        counts.append(len(calls) - before)
    assert len(families) == 2 and families[0] is not families[1]
    # nothing built in the first run is reused by the second
    assert counts[0] == counts[1]


def _certify_along(space, f, tests, family, schedule):
    """:func:`c0.certify` with an explicit schedule."""
    try:
        return check_approx_invertible(
            c0.c0_model(space),
            f,
            c0.reciprocal_inverse_net(f, family),
            tests,
            schedule,
            c0.CERTIFY_TOL,
            refuter=c0.zero_refuter,
        )
    except SingularDivisionError as err:
        return None, f"division refused: {err}"


@pytest.mark.parametrize("points", [5, 7, 11, 201, 2001])
def test_certify_along_distinct_windows_matches_the_long_schedule(points):
    space = c0.GridSpace(10.0, points, 1e-3)
    family = c0.WindowFamily(space)
    elements = c0.seeded_elements(space, 50, seed=points)
    tests = c0.seeded_elements(space, 4, seed=points + 1, zero_fraction=0.0)
    verdicts = set()
    for f in elements:
        cert = c0.certify(space, f, tests, family)
        reference = _certify_along(space, f, tests, family, range(1, 17))
        verdicts.add(cert.verdict)
        if isinstance(reference, tuple):
            assert (cert.verdict, cert.reason) == ("inconclusive", reference[1])
            continue
        assert (cert.verdict, cert.reason) == (reference.verdict, reference.reason)
        assert cert.sup_member_norm == reference.sup_member_norm
        if reference.right_trace is None:
            continue
        for trace, ref in (
            (cert.right_trace, reference.right_trace),
            (cert.left_trace, reference.left_trace),
        ):
            assert len(trace) == len(family)
            assert trace[-1].residual == ref[-1].residual
            assert trace == ref[: len(family)]
    # small grids leave the plateaus short of the tail tolerance: inconclusive
    assert "refuted" in verdicts
    assert ("certified-two-sided" if points > 11 else "inconclusive") in verdicts


def test_reciprocal_member_is_the_masked_quotient(space):
    family = c0.WindowFamily(space)
    for f in c0.seeded_elements(space, 5, seed=13, zero_fraction=0.0):
        net = c0.reciprocal_inverse_net(f, family)
        for n in (1, 5, 16):
            e = family.element(n)
            support = e != 0.0
            g = net(n)
            assert np.array_equal(g[support], e[support] / f[support])
            assert np.all(g[~support] == 0.0)
            assert not g.flags.writeable
        # past len(family) the windows have saturated: the member repeats
        assert np.array_equal(net(16), net(len(family)))


def test_reciprocal_refusal_ignores_zeros_off_the_support(space, lorentz):
    family = c0.WindowFamily(space)
    support = np.flatnonzero(family.element(1) != 0.0)
    f = lorentz.copy()
    f[support[0] - 3] = 0.0  # exact zero outside the support of member 1
    f[support[-1] - 1] = 3e-15  # sub-threshold minimum inside it
    f[support[-1]] = 4e-15
    with pytest.raises(SingularDivisionError) as err:
        c0.reciprocal_inverse_net(f, family)(1)
    assert err.value.index == support[-1] - 1
    assert err.value.magnitude == 3e-15
    # a member whose support reaches the zero reports the zero
    with pytest.raises(SingularDivisionError) as err:
        c0.reciprocal_inverse_net(f, family)(16)
    assert (err.value.index, err.value.magnitude) == (support[0] - 3, 0.0)
