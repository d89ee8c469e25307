"""Model-agnostic net machinery for approximate identities and inverses.

An :class:`AlgebraModel` bundles the product and norm of one concrete
normed algebra (matrices, sampled circle signals, grid functions)
behind a uniform interface.  On top of it this module provides the shared
verifiers: :func:`check_approximate_identity` traces a candidate
approximate identity and :func:`check_approx_invertible` certifies
approximate one-sided invertibility along the net it is given.  Each check
walks one explicit schedule of indices and records one trace, a tuple of
:class:`TraceEntry` records: at every index, the worst residual over the
whole test set.  Refutation is not model-agnostic: each model states its
own criterion (a zero on the grid, a rank deficiency) in its certify
function, before it builds a net.

A net, like a candidate approximate identity, is any callable from a
positive integer index to an element; larger index means finer.  Every
operation is a pure function of its arguments (and an explicit seed where
randomness is involved), so values can be evaluated concurrently without
shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Literal, Optional, Sequence

from .errors import NumericOverflowError

Element = Any


@dataclass(frozen=True)
class AlgebraModel:
    """Product and norm of one concrete normed algebra: exactly what the
    verifiers read.

    ``mul`` is the ring product and ``norm`` the submultiplicative algebra
    norm.  A residual ``mul(e, x) - x`` is the elements' own difference
    (numpy arrays and :class:`~approxinv.wiener.CircleSignal` both
    subtract), so the model declares no vector-space operations.

    ``commutative`` is declared by the model factory: it states that
    ``mul(a, b)`` equals ``mul(b, a)`` up to rounding.  The verifiers then
    evaluate one side only, since left and right residuals (and left and
    right inverse nets) coincide.  The circle and c0 models declare it; the
    matrix models do not.
    """

    name: str
    mul: Callable[[Element, Element], Element]
    norm: Callable[[Element], float]
    commutative: bool = False


@dataclass(frozen=True)
class TraceEntry:
    index: int
    residual: float        # max of the two one-sided residuals
    member_norm: float
    left: float            # norm(e_j . x - x)
    right: float           # norm(x . e_j - x)


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

    ``certified-*`` verdicts require the corresponding worst-case trace to
    end at or below the check's tolerance.
    ``refuted`` is only ever produced by a model's own certify, from its
    analytic criterion and without traces; stagnating residuals alone yield
    ``inconclusive``.
    """

    left_trace: Optional[tuple[TraceEntry, ...]]
    right_trace: Optional[tuple[TraceEntry, ...]]
    verdict: Verdict
    reason: Optional[str] = None
    sup_member_norm: Optional[float] = None

    @property
    def certified(self) -> bool:
        return self.verdict.startswith("certified")


def resolve_schedule(schedule: Sequence[int]) -> list[int]:
    """The schedule as a list of ints; ``ValueError`` unless it is a
    non-empty, strictly increasing sequence of positive indices."""
    sched = [int(j) for j in schedule]
    if not sched:
        raise ValueError("schedule must be non-empty")
    if sched[0] < 1 or any(b <= a for a, b in zip(sched, sched[1:])):
        raise ValueError("schedule must be strictly increasing and positive")
    return sched


def _checked_norm(model: AlgebraModel, x: Element) -> float:
    """``model.norm(x)``; :class:`NumericOverflowError` unless it is finite
    and nonnegative, so every residual a trace records is one."""
    value = float(model.norm(x))
    if not (math.isfinite(value) and value >= 0):
        raise NumericOverflowError(f"norm evaluated to {value} in {model.name}")
    return value


def check_approximate_identity(
    model: AlgebraModel,
    family: Callable[[int], Element],
    test_set: Sequence[Element],
    schedule: Sequence[int],
) -> tuple[TraceEntry, ...]:
    """Trace the worst residual of ``family`` over the test set along
    ``schedule``: one entry per index, in the schedule's strictly
    increasing order.

    At each index j the entry records the member norm, the worst
    ``left = norm(e_j . x - x)`` and the worst ``right = norm(x . e_j - x)``
    over the test elements x, and their maximum as ``residual`` (which is
    the worst ``max(left, right)`` of any single element).  A commutative
    model evaluates ``norm(e_j . x - x)`` once and records it as both sides.
    """
    if len(test_set) == 0:
        raise ValueError("test set must be non-empty")
    sched = resolve_schedule(schedule)

    entries: list[TraceEntry] = []
    for j in sched:
        e = family(j)
        member = _checked_norm(model, e)
        lefts = [_checked_norm(model, model.mul(e, x) - x) for x in test_set]
        if model.commutative:
            rights = lefts
        else:
            rights = [_checked_norm(model, model.mul(x, e) - x) for x in test_set]
        left, right = max(lefts), max(rights)
        entries.append(TraceEntry(j, max(left, right), member, left, right))

    return tuple(entries)


def check_approx_invertible(
    model: AlgebraModel,
    x: Element,
    net: Callable[[int], Element],
    test_set: Sequence[Element],
    schedule: Sequence[int],
    tol: float,
) -> ApproxInvCertificate:
    """Certify approximate invertibility of ``x`` along ``net``.

    A zero ``x`` raises ``ValueError``.  Otherwise the candidate families
    ``j -> x . r_j`` (right) and ``j -> r_j . x`` (left) are each traced by
    :func:`check_approximate_identity` along ``schedule``.  This is the one
    acceptance rule: a side is certified iff its worst-case trace ends at
    or below ``tol``, and a failed trace only yields ``inconclusive``.  Both
    traces are recorded in the certificate.  In a commutative model the two
    families coincide, so the right family is checked once and its trace
    stands for both sides.
    """
    if _checked_norm(model, x) == 0.0:
        raise ValueError("zero element cannot be approximately invertible")

    right = check_approximate_identity(
        model, lambda j: model.mul(x, net(j)), test_set, schedule
    )
    if model.commutative:
        left = right
    else:
        left = check_approximate_identity(
            model, lambda j: model.mul(net(j), x), test_set, schedule
        )

    right_ok = right[-1].residual <= tol
    left_ok = left[-1].residual <= tol
    if right_ok and left_ok:
        verdict: Verdict = "certified-two-sided"
    elif right_ok:
        verdict = "certified-right"
    elif left_ok:
        verdict = "certified-left"
    else:
        verdict = "inconclusive"
    sup_member = max(e.member_norm for t in (right, left) for e in t)
    return ApproxInvCertificate(left, right, verdict, None, sup_member)
