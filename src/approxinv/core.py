"""Model-agnostic net machinery for approximate identities and inverses.

An :class:`AlgebraModel` bundles the arithmetic of one concrete normed
algebra (matrices, sampled circle signals, grid functions)
behind a uniform interface.  On top of it this module provides the shared
verifiers: residual traces of candidate approximate identities and
certificates of approximate one-sided invertibility.

All nets are sequences indexed by a positive integer refinement parameter;
larger index means finer.  Every operation is a pure function of its
arguments (and an explicit seed where randomness is involved), so values can
be evaluated concurrently without shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Literal, Optional, Sequence

import numpy as np

from .errors import NumericOverflowError

Element = Any

#: Slack used when checking a declared norm bound against evaluated members.
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class AlgebraModel:
    """Arithmetic, norm and optional extras of one concrete normed algebra.

    ``add``/``sub``/``scale``/``mul`` realize the vector-space and ring
    operations, ``norm`` the submultiplicative algebra norm.  ``sub`` is
    declared by each model rather than composed as ``add(a, scale(-1, b))``,
    which would cost every residual a second pass and a multiply.
    ``involution`` is present only for *-algebras and must be norm
    preserving.  ``sample`` draws a generic element from a seeded generator
    (used by property checks).

    ``commutative`` is declared by the model factory, like ``unital``: it
    states that ``mul(a, b)`` equals ``mul(b, a)`` up to rounding.  The
    verifiers then evaluate one side only, since left and right residuals
    (and left and right inverse nets) coincide.  The circle and c0 models
    declare it; the matrix models do not.
    """

    name: str
    add: Callable[[Element, Element], Element]
    sub: Callable[[Element, Element], Element]
    scale: Callable[[complex, Element], Element]
    mul: Callable[[Element, Element], Element]
    norm: Callable[[Element], float]
    involution: Optional[Callable[[Element], Element]] = None
    unital: bool = False
    commutative: bool = False
    unit: Optional[Element] = None
    sample: Optional[Callable[[np.random.Generator], Element]] = None


@dataclass(frozen=True)
class ApproxIdentityFamily:
    """A candidate approximate identity: index -> element, with an optional
    declared norm bound that evaluated members must respect."""

    generator: Callable[[int], Element]
    norm_bound: Optional[float] = None

    def __call__(self, index: int) -> Element:
        return self.generator(index)


Side = Literal["left", "right"]


@dataclass(frozen=True)
class InverseNet:
    """A candidate inverse net for one element; ``side`` declares whether the
    members multiply from the left or from the right."""

    generator: Callable[[int], Element]
    side: Side = "right"

    def __call__(self, index: int) -> Element:
        return self.generator(index)


@dataclass(frozen=True)
class TraceEntry:
    index: int
    residual: float        # max of the two one-sided residuals
    member_norm: float
    left: float            # norm(e_j . x - x)
    right: float           # norm(x . e_j - x)


@dataclass(frozen=True)
class ResidualTrace:
    """Numerical witness of a convergence claim along a net.

    Entries are ordered by strictly increasing index; residuals are finite
    and nonnegative.  ``tolerance`` is the acceptance level the trace was
    recorded against.
    """

    entries: tuple[TraceEntry, ...]
    tolerance: float

    def __post_init__(self):
        if not self.entries:
            raise ValueError("residual trace must be non-empty")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        indices = [e.index for e in self.entries]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("trace indices must be strictly increasing")
        for e in self.entries:
            if not (math.isfinite(e.residual) and e.residual >= 0):
                raise NumericOverflowError(
                    f"non-finite or negative residual at index {e.index}"
                )

    @property
    def indices(self) -> list[int]:
        return [e.index for e in self.entries]

    @property
    def residuals(self) -> list[float]:
        return [e.residual for e in self.entries]

    @property
    def final_residual(self) -> float:
        return self.entries[-1].residual


Verdict = Literal[
    "certified-right",
    "certified-left",
    "certified-two-sided",
    "refuted",
    "inconclusive",
]


@dataclass(frozen=True)
class ApproxInvCertificate:
    """Outcome of an approximate-invertibility check for one element.

    ``certified-*`` verdicts require the corresponding aggregated trace to
    pass :func:`residual_decay_verdict` at its tolerance.  ``refuted`` is
    only ever produced by a model-specific analytic refuter; stagnating
    residuals alone yield ``inconclusive``.
    """

    element: Element
    net: Optional[InverseNet]
    left_trace: Optional[ResidualTrace]
    right_trace: Optional[ResidualTrace]
    verdict: Verdict
    reason: Optional[str] = None
    sup_member_norm: Optional[float] = None

    @property
    def certified(self) -> bool:
        return self.verdict.startswith("certified")


@dataclass(frozen=True)
class ZeroDivisorModulus:
    """Upper estimate of the left zero-divisor modulus
    inf_{norm(y)=1} norm(x . y): ``value`` is norm(x . witness) for the
    unit-norm ``witness``."""

    value: float
    witness: Element


@dataclass(frozen=True)
class IdentityReport:
    """Verdict of an approximate-identity check: one trace per test element
    plus the norm-bound outcome (None when no bound was declared)."""

    traces: tuple[ResidualTrace, ...]
    passed: bool
    bound_ok: Optional[bool]
    max_member_norm: float

    @property
    def final_residual(self) -> float:
        return max(t.final_residual for t in self.traces)


@dataclass(frozen=True)
class DecayVerdict:
    passed: bool
    eventually_nonincreasing: bool
    final_residual: float

    def __bool__(self) -> bool:
        return self.passed


def resolve_schedule(
    max_index: int, schedule: Optional[Sequence[int]] = None
) -> list[int]:
    """Normalize a net schedule: either all indices up to ``max_index`` or an
    explicit strictly increasing list of positive indices."""
    if schedule is None:
        if max_index < 1:
            raise ValueError("max_index must be a positive integer")
        return list(range(1, max_index + 1))
    sched = [int(j) for j in schedule]
    if not sched:
        raise ValueError("schedule must be non-empty")
    if sched[0] < 1 or any(b <= a for a, b in zip(sched, sched[1:])):
        raise ValueError("schedule must be strictly increasing and positive")
    return sched


def _checked_norm(model: AlgebraModel, x: Element) -> float:
    value = float(model.norm(x))
    if not math.isfinite(value):
        raise NumericOverflowError(f"norm evaluated to {value} in {model.name}")
    return value


def check_approximate_identity(
    model: AlgebraModel,
    family: ApproxIdentityFamily,
    test_set: Sequence[Element],
    tol: float = 1e-2,
    max_index: int = 64,
    schedule: Optional[Sequence[int]] = None,
) -> IdentityReport:
    """Trace the residuals of ``family`` acting on every test element.

    For each test element x and each index j the trace records
    ``max(norm(e_j . x - x), norm(x . e_j - x))`` together with the member
    norm; both one-sided residuals are kept as diagnostics.  A commutative
    model evaluates ``norm(e_j . x - x)`` once and records it as both sides.
    A member that is the same object as the previous index's member (a
    family whose growth has saturated) is not evaluated again: its norm and
    residuals are recorded at the new index as they are.  The report passes
    iff every final residual is at most ``tol`` and, when the family
    declares a norm bound, every evaluated member respects it.
    """
    if len(test_set) == 0:
        raise ValueError("test set must be non-empty")
    sched = resolve_schedule(max_index, schedule)

    entries: list[list[TraceEntry]] = [[] for _ in test_set]
    bound_ok: Optional[bool] = None if family.norm_bound is None else True
    max_member = 0.0
    previous = None
    for j in sched:
        e = family(j)
        if e is not previous:
            previous = e
            member = _checked_norm(model, e)
            max_member = max(max_member, member)
            if family.norm_bound is not None and member > family.norm_bound + BOUND_SLACK:
                bound_ok = False
            sides = []
            for x in test_set:
                left = _checked_norm(model, model.sub(model.mul(e, x), x))
                if model.commutative:
                    right = left
                else:
                    right = _checked_norm(model, model.sub(model.mul(x, e), x))
                sides.append((left, right))
        for i, (left, right) in enumerate(sides):
            entries[i].append(
                TraceEntry(j, max(left, right), member, left, right)
            )

    traces = tuple(ResidualTrace(tuple(ent), tol) for ent in entries)
    passed = all(t.final_residual <= tol for t in traces) and bound_ok is not False
    return IdentityReport(traces, passed, bound_ok, max_member)


def residual_decay_verdict(trace: ResidualTrace, tol: float) -> DecayVerdict:
    """Accept a trace iff its final residual is at most ``tol``.

    The verdict also reports whether the second half of the trace is
    non-increasing; that flag is diagnostic only and never affects
    acceptance.
    """
    res = trace.residuals
    half = res[len(res) // 2 :]
    noninc = all(
        b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(half, half[1:])
    )
    return DecayVerdict(trace.final_residual <= tol, noninc, trace.final_residual)


def _aggregate(traces: Sequence[ResidualTrace], tol: float) -> ResidualTrace:
    """Pointwise worst case over per-element traces."""
    entries = []
    for step in zip(*(t.entries for t in traces)):
        entries.append(
            TraceEntry(
                step[0].index,
                max(e.residual for e in step),
                step[0].member_norm,
                max(e.left for e in step),
                max(e.right for e in step),
            )
        )
    return ResidualTrace(tuple(entries), tol)


def _product_family(
    model: AlgebraModel, x: Element, net: InverseNet, side: Side
) -> ApproxIdentityFamily:
    """The family ``j -> x . r_j`` (right) or ``j -> r_j . x`` (left).  A net
    member repeated at consecutive indices gives back the same product
    object, which :func:`check_approximate_identity` then evaluates once."""
    last: list = [None, None]  # the previous net member and its product

    def member(j: int) -> Element:
        r = net(j)
        if r is not last[0]:
            last[:] = [r, model.mul(x, r) if side == "right" else model.mul(r, x)]
        return last[1]

    return ApproxIdentityFamily(member)


def check_approx_invertible(
    model: AlgebraModel,
    x: Element,
    net: Optional[InverseNet],
    test_set: Sequence[Element],
    tol: float = 1e-2,
    max_index: int = 64,
    schedule: Optional[Sequence[int]] = None,
    refuter: Optional[Callable[[Element], Optional[str]]] = None,
) -> ApproxInvCertificate:
    """Certify or refute approximate invertibility of ``x`` along ``net``.

    The candidate families ``j -> x . r_j`` (right) and ``j -> r_j . x``
    (left) are both handed to :func:`check_approximate_identity`; the
    aggregated worst-case traces over the test set are recorded in the
    certificate.  In a commutative model the two families coincide, so the
    right family is checked once and its trace stands for both sides.  A
    model-specific ``refuter`` may veto ``x`` outright
    (e.g. a rank or non-vanishing check); without a refuter a failed trace
    only yields ``inconclusive``.
    """
    if _checked_norm(model, x) == 0.0:
        raise ValueError("zero element cannot be approximately invertible")

    if refuter is not None:
        reason = refuter(x)
        if reason is not None:
            return ApproxInvCertificate(x, net, None, None, "refuted", reason)

    if net is None:
        return ApproxInvCertificate(
            x, None, None, None, "inconclusive", "no inverse net supplied"
        )

    right_family = _product_family(model, x, net, "right")
    right = check_approximate_identity(
        model, right_family, test_set, tol, max_index, schedule
    )
    right_trace = _aggregate(right.traces, tol)
    if model.commutative:
        left, left_trace = right, right_trace
    else:
        left_family = _product_family(model, x, net, "left")
        left = check_approximate_identity(
            model, left_family, test_set, tol, max_index, schedule
        )
        left_trace = _aggregate(left.traces, tol)

    right_ok = bool(residual_decay_verdict(right_trace, tol))
    left_ok = bool(residual_decay_verdict(left_trace, tol))
    if right_ok and left_ok:
        verdict: Verdict = "certified-two-sided"
    elif right_ok:
        verdict = "certified-right"
    elif left_ok:
        verdict = "certified-left"
    else:
        verdict = "inconclusive"
    sup_member = max(right.max_member_norm, left.max_member_norm)
    return ApproxInvCertificate(
        x, net, left_trace, right_trace, verdict, None, sup_member
    )
