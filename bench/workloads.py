"""Workload plans: the ``approxinv-lab`` invocations each workload runs.

A plan is built from the benchmark seed alone.  The program sees only the
generated config files and flags; ``--out`` is added per invocation by the
worker.  The seed selects one of ``INPUT_SETS`` input sets (``seed %
INPUT_SETS``), because the output check compares every CSV row against a
reference recorded for exactly those input sets in ``reference.json``.

Why each workload exists:

* ``lab-default``: one full run at the documented defaults, the user's
  headline run.  ``disk13`` and the Jacobi ``operators.svd`` behind
  ``pure-state``/``um-net`` take nearly all of it; parallel scenarios could
  only show up here.
* ``operators-sweep``: ``um-net`` and ``pure-state`` at three matrix sizes.
  Jacobi ``svd`` does about 90% of the work and its cost over LAPACK depends
  on n, so an SVD change shows a size-dependent gain.  ``um-net`` also uses
  the values-only LAPACK path.  Half the default ``matrix_count`` keeps a
  pass near 5.5 s on a 2-vCPU Xeon guest, so a run's median is taken over
  several passes.
* ``circle-batch``: many small circle and grid invocations (Python-call and
  per-invocation CLI bound; ``fejer``, ``wiener-division`` and ``tdz``
  ignore the seed, so they share every input across calls) plus one large
  invocation at M = 262144, whose 4 MiB coefficient arrays exceed a core's
  L2 and share no input.  No SVD and no disk search runs here.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Number of distinct input sets; ``reference.json`` covers each of them.
INPUT_SETS = 16

ALL_SCENARIOS = (
    "fejer", "wiener-division", "um-net", "pure-state",
    "c0-interior", "disk13", "deconv", "tdz",
)
OPERATOR_SIZES = (8, 16, 24)
OPERATOR_MATRICES = 5
SMALL_CIRCLE_SCENARIOS = ("fejer", "wiener-division", "deconv", "tdz", "c0-interior")
LARGE_CIRCLE_SCENARIOS = ("fejer", "wiener-division", "deconv", "tdz")
SMALL_CIRCLE_SEEDS = 10
SMALL_CIRCLE_SAMPLES = 4096
LARGE_CIRCLE_SAMPLES = 262144


@dataclass(frozen=True)
class Invocation:
    """One ``approxinv-lab`` call: its flags (without ``--config`` and
    ``--out``), the config file text if any, and the scenarios it runs."""

    args: tuple[str, ...]
    config: str | None
    scenarios: tuple[str, ...]


def _models_config(**values: int) -> str:
    lines = ["[models]"] + [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def _scenario_flags(names: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(flag for name in names for flag in ("--scenario", name))


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def _lab_default(base: int) -> list[Invocation]:
    return [Invocation(("--seed", str(base)), None, ALL_SCENARIOS)]


def _operators_sweep(base: int) -> list[Invocation]:
    names = ("um-net", "pure-state")
    return [
        Invocation(
            _scenario_flags(names) + ("--seed", str(base)),
            _models_config(matrix_size=n, matrix_count=OPERATOR_MATRICES),
            names,
        )
        for n in OPERATOR_SIZES
    ]


def _circle_batch(base: int) -> list[Invocation]:
    small = _models_config(circle_samples=SMALL_CIRCLE_SAMPLES)
    plan = [
        Invocation(
            ("--scenario", name, "--seed", str(1000 * base + i)), small, (name,)
        )
        for i in range(SMALL_CIRCLE_SEEDS)
        for name in SMALL_CIRCLE_SCENARIOS
    ]
    plan.append(
        Invocation(
            _scenario_flags(LARGE_CIRCLE_SCENARIOS)
            + ("--seed", str(1000 * base + SMALL_CIRCLE_SEEDS)),
            _models_config(circle_samples=LARGE_CIRCLE_SAMPLES),
            LARGE_CIRCLE_SCENARIOS,
        )
    )
    return plan


PLANS = {
    "lab-default": _lab_default,
    "operators-sweep": _operators_sweep,
    "circle-batch": _circle_batch,
}


def plan(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of ``workload`` for benchmark ``seed``."""
    return PLANS[workload](input_set(seed))
