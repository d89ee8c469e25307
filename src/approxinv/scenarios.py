"""The registered verification scenarios behind the CLI.

Each scenario emits rows asserting ``residual <= bound``; rows carrying
``bound = inf`` are informational (recorded measurements with nothing to
violate).  Statement identifiers are stable strings documented in the
README.  Scenarios draw their randomness from a generator seeded per
scenario, so reports are reproducible byte for byte apart from timing.
The run contract they consume, ``ScenarioConfig`` and ``ReportRow``, is
defined here; the CLI parses the one and writes the other as CSV.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from . import banach_module as bm
from . import c0, disk, operators, wiener
from .core import check_approximate_identity, resolve_schedule
from .errors import ConfigError, DivisionFloorError

INF = float("inf")


@dataclass(frozen=True)
class ReportRow:
    scenario: str
    model: str
    statement_id: str
    net_index: int
    residual: float
    bound: float
    verdict: str
    elapsed_ms: int


#: Highest witness frequency of the ``tdz`` scenario; a witness needs a
#: frequency below circle_samples/2.
TDZ_MAX_FREQUENCY = 64

#: Highest net order in the schedule.  ``deconv`` divides by the blur
#: coefficients 0.5^|k| on the band |k| < n; from n = 1025 on the band
#: reaches the subnormal 0.5^1024, whose complex quotient is NaN, and from
#: n = 1076 on the coefficient underflows to zero.
MAX_SCHEDULE_ORDER = 1024


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario needs: model sizes, net schedule, tolerances,
    seed and output directory."""

    seed: int = 1
    out: str = "results"
    scenarios: tuple[str, ...] = ()
    # model parameters
    circle_samples: int = 4096
    grid_points: int = 201
    grid_half_width: float = 10.0
    grid_tail_tol: float = 1e-3
    matrix_size: int = 16
    matrix_count: int = 10
    disk_angles: int = 2048
    disk_degree: int = 8
    module_exponent: float = 2.0
    # net schedule
    schedule: tuple[int, ...] = (8, 16, 32, 64, 128)
    # tolerances
    identity_tol: float = 1e-2
    exact_tol: float = 1e-9
    noise_sigma: float = 1e-3

    def validate(self) -> None:
        """``ConfigError`` unless every scenario can run on this config.

        The schedule, grid-space, angle and aliasing rules belong to
        ``core.resolve_schedule``, ``c0.GridSpace`` (the grid minimum and
        the normal half width), ``disk.CircleSampling`` and
        ``wiener._check_band`` (every schedule order and tdz witness
        frequency below circle_samples/2); their ``ValueError`` becomes a
        ``ConfigError`` here."""
        for name in ("matrix_count", "disk_degree"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        # p = inf is the sup norm; every other float must be finite
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(field.default, float) and not math.isfinite(value):
                if field.name != "module_exponent" or value != INF:
                    raise ConfigError(f"{field.name} must be finite")
        # um-net zeroes a column of an n x n operator and still needs a
        # nonzero one
        if self.matrix_size < 2:
            raise ConfigError("matrix_size must be at least 2")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        # the OS path calls reject a NUL byte with ValueError, not OSError
        if "\0" in self.out:
            raise ConfigError("out must not contain a NUL byte")
        try:
            resolve_schedule(self.schedule)
            c0.GridSpace(self.grid_half_width, self.grid_points, self.grid_tail_tol)
            disk.CircleSampling(self.disk_angles)
            wiener._check_band(max(TDZ_MAX_FREQUENCY, *self.schedule), self.circle_samples)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if self.module_exponent < 1:
            raise ConfigError("module exponent must satisfy p >= 1")
        if max(self.schedule) > MAX_SCHEDULE_ORDER:
            raise ConfigError(
                f"net schedule order {max(self.schedule)} exceeds "
                f"{MAX_SCHEDULE_ORDER}: deconv cannot divide by the blur "
                f"coefficients beyond it"
            )
        if 2 * self.disk_degree >= self.disk_angles:
            raise ConfigError("disk_degree must stay below disk_angles/2")
        for name in ("identity_tol", "exact_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")


def _worst(*values: float) -> float:
    """The largest of ``values``, or NaN when any of them is NaN (the
    built-in ``max`` drops a NaN that does not come first)."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


class _Rows:
    """Row collector stamping elapsed milliseconds since scenario start."""

    def __init__(self, scenario: str, model: str):
        self.scenario = scenario
        self.model = model
        self.start = time.perf_counter()
        self.rows: list[ReportRow] = []

    def add(
        self, statement: str, index: int, residual: float, bound: float = INF
    ) -> None:
        elapsed = int((time.perf_counter() - self.start) * 1000)
        verdict = "pass" if residual <= bound else "fail"
        self.rows.append(
            ReportRow(
                self.scenario,
                self.model,
                statement,
                index,
                float(residual),
                float(bound),
                verdict,
                elapsed,
            )
        )


def _fejer(config: ScenarioConfig, seed: int) -> list[ReportRow]:
    M = config.circle_samples
    rows = _Rows("fejer", f"l1-circle-{M}")
    entries = check_approximate_identity(
        wiener.l1_circle_model(M),
        lambda n: wiener.fejer_kernel(M, n),
        wiener.standard_test_set(M),
        config.schedule,
    )
    # the trace already holds each kernel's l1 norm: no second synthesis
    for entry in entries:
        n = entry.index
        rows.add(
            "fejer-unit-norm", n, abs(entry.member_norm - 1.0), config.exact_tol
        )
    for entry in entries:
        bound = config.identity_tol if entry is entries[-1] else INF
        rows.add("fejer-identity", entry.index, entry.residual, bound)
    return rows.rows


def _wiener_division(config: ScenarioConfig, seed: int) -> list[ReportRow]:
    M = config.circle_samples
    rows = _Rows("wiener-division", f"l1-circle-{M}")
    for r in (0.3, 0.5, 0.7):
        f = wiener.poisson_kernel(M, r)
        for n in config.schedule:
            if n > 128:
                continue
            floor = 0.5 * r ** (n - 1)  # admit the full band deliberately
            h = wiener.wiener_division(f, n, floor)
            resid = wiener.l1_norm(
                wiener.convolve(f, h) - wiener.fejer_kernel(M, n)
            )
            rows.add(f"division-exactness-r{r}", n, resid, config.exact_tol)
    monomial = wiener.character(M, 1)
    frequency = None
    try:
        wiener.wiener_division(monomial, 4)
    except DivisionFloorError as err:
        frequency = err.frequency
    rows.add("division-floor-raised", 4, 0.0 if frequency == 0 else 1.0, 0.0)
    return rows.rows


def _um_net(config: ScenarioConfig, seed: int) -> list[ReportRow]:
    n = config.matrix_size
    rows = _Rows("um-net", f"matrices-{n}-schatten-2.0")
    rng = np.random.default_rng(seed)
    worst_proj = np.zeros(n)
    worst_final = 0.0
    for _ in range(config.matrix_count):
        t, system = _full_rank_operator(n, rng)
        full = t @ operators.right_inverse_net(system)(n)
        # np.maximum, unlike the built-in max, keeps a NaN residual
        worst_proj = np.maximum(
            worst_proj, operators.projection_residuals(full, system.outputs)
        )
        for _ in range(4):
            c = operators._sample_operator(n, rng)
            worst_final = _worst(
                worst_final, operators.schatten_norm(full @ c - c, 2.0)
            )
    for m in range(1, n + 1):
        rows.add("projection-identity", m, float(worst_proj[m - 1]), config.exact_tol)
    rows.add("net-final-residual", n, worst_final, config.exact_tol)

    # a raw draw: its zeroed column refutes it whatever its conditioning
    deficient = operators._sample_operator(n, rng)
    deficient[:, 0] = 0.0
    certificate = operators.certify_operator(deficient, [np.eye(n, dtype=complex)])
    rows.add(
        "rank-refuted", 0, 0.0 if certificate.verdict == "refuted" else 1.0, 0.0
    )
    return rows.rows


def _pure_state(config: ScenarioConfig, seed: int) -> list[ReportRow]:
    n = config.matrix_size
    rows = _Rows("pure-state", f"matrices-{n}-op")
    rng = np.random.default_rng(seed)
    threshold = 1e-8
    disagreements = 0
    cases = 10 * config.matrix_count
    # one block of 10 per matrix_count step: memory does not grow with the count
    for start in range(0, cases, 10):
        block = np.empty((10, n, n), dtype=complex)
        for j, i in enumerate(range(start, start + 10)):
            block[j] = operators._sample_operator(n, rng)
            if i % 3 == 0:  # deliberately singular third
                block[j, :, i % n] = 0.0
        by_state = operators.min_pure_state_norm(block, seed=seed + start) > threshold
        by_sigma = operators.singular_values(block)[:, -1] > threshold
        disagreements += int(np.count_nonzero(by_sigma != by_state))
    rows.add("criterion-agreement", cases, float(disagreements), 0.0)
    return rows.rows


def _c0_interior(config: ScenarioConfig, seed: int) -> list[ReportRow]:
    space = c0.GridSpace(
        config.grid_half_width, config.grid_points, config.grid_tail_tol
    )
    rows = _Rows("c0-interior", f"c0-grid-{space.points}")
    elements = c0.seeded_elements(space, 50, seed)
    test_set = c0.seeded_elements(space, 4, seed + 1, zero_fraction=0.0)
    # one family per run: its plateaus are built once and shared by every net
    family = c0.WindowFamily(space)
    contradictions = inconclusive = 0
    certified: list[np.ndarray] = []
    for f in elements:
        cert = c0.certify(space, f, test_set, family)
        # the sampled elements sink to tail_tol / 4 at the boundary, so the
        # threshold sits three orders below it (1e-6 at the default)
        nonvanishing = c0.is_nonvanishing(f, 1e-3 * space.tail_tol)
        # an inconclusive certificate asserts nothing, so it contradicts nothing
        if cert.verdict == "inconclusive":
            inconclusive += 1
        elif cert.certified != nonvanishing:
            contradictions += 1
        if cert.certified:
            certified.append(f)
    rows.add("criterion-equivalence", len(elements), float(contradictions), 0.0)
    rows.add("inconclusive-count", len(elements), float(inconclusive))
    for eps in (1e-1, 1e-2):
        index = int(round(-np.log10(eps)))
        worst_dist = 0.0
        zero_failures = 0
        for f in certified:
            g = c0.perturb_to_noninvertible(space, f, eps)
            worst_dist = _worst(worst_dist, c0.sup_norm(g - f))
            if np.abs(g).min() != 0.0:
                zero_failures += 1
        rows.add("perturbation-distance", index, worst_dist, eps)
        rows.add("perturbation-zero", index, float(zero_failures), 0.0)
    return rows.rows


def _disk13(config: ScenarioConfig, seed: int) -> list[ReportRow]:
    sampling = disk.CircleSampling(config.disk_angles)
    degree = config.disk_degree
    rows = _Rows("disk13", f"disk-a0-deg{degree}")
    # a certificate c puts every family deviation at 1 - c or above, so the
    # margin holds while c stays at or below 1 - margin
    bound = 1.0 - (disk.ONE_THIRD - 1e-2)
    zero = np.zeros(degree + 1, dtype=complex)  # attains the certified optimum 1
    annulus, product = disk.certificates(sampling, degree)
    rows.add("annulus-found-minimum", degree, disk.annulus_deviation(zero, sampling))
    rows.add("annulus-margin", degree, annulus, bound)
    rows.add("product-found-minimum", degree, disk.product_deviation(zero, zero, sampling))
    rows.add("product-margin", degree, product, bound)
    return rows.rows


def _deconv(config: ScenarioConfig, seed: int) -> list[ReportRow]:
    M = config.circle_samples
    rows = _Rows("deconv", f"module-p{config.module_exponent}")
    rng = np.random.default_rng(seed)
    p = config.module_exponent
    truth = wiener._sample_bandlimited(M, rng, 32, 0.5)
    blur = wiener.poisson_kernel(M, 0.5)
    observed = wiener.convolve(blur, truth)
    floor = 0.5 * 0.5 ** max(config.schedule)
    sigma = config.noise_sigma

    # no recovered or noisy signal outlives its error computation
    def error(recovered: wiener.CircleSignal) -> float:
        return wiener.lp_norm(recovered - truth, p)

    errors = []
    for n in config.schedule:
        noiseless = error(bm.deconvolve(blur, observed, n, floor))
        tail = bm.kernel_tail_error(truth, n, p)
        errors.append(noiseless)
        rows.add("noiseless-error", n, noiseless)
        # relative where the tail allows it; a zero or NaN tail keeps the
        # absolute mismatch, so the row fails unless the error matches
        mismatch = abs(noiseless - tail)
        if tail > 0:
            mismatch /= tail
        rows.add("noiseless-tail-match", n, mismatch, config.exact_tol)
        noisy = error(
            bm.deconvolve(blur, bm.add_noise(observed, sigma, seed + n), n, floor)
        )
        rows.add("noisy-error", n, noisy)
    increase = _worst(0.0, *(b - a for a, b in zip(errors, errors[1:])))
    rows.add("noiseless-monotone", max(config.schedule), increase, 0.0)
    return rows.rows


def _tdz(config: ScenarioConfig, seed: int) -> list[ReportRow]:
    M = config.circle_samples
    rows = _Rows("tdz", f"l1-circle-{M}")
    f = wiener.poisson_kernel(M, 0.5)
    values = []
    for big_n in range(1, TDZ_MAX_FREQUENCY + 1):
        value = wiener.tdz_witness(f, big_n)
        values.append(value)
        rows.add("witness-value", big_n, value)
    rows.add("witness-exact-at-20", 20, abs(values[19] - 0.5**20), 1e-10)
    increase = _worst(0.0, *(b - a for a, b in zip(values, values[1:])))
    rows.add("witness-monotone", TDZ_MAX_FREQUENCY, increase, 0.0)
    return rows.rows


def _full_rank_operator(
    n: int, rng: np.random.Generator
) -> tuple[np.ndarray, operators.SingularSystem]:
    """Seeded dense operator kept safely away from rank deficiency, with
    LAPACK's singular system of it: one draw, returned as drawn when its
    smallest singular value exceeds 1e-2 sigma_max, else with every
    singular value below that floor lifted to it and the lifted operator
    decomposed again, so the system is always that of the operator
    returned."""
    t = operators._sample_operator(n, rng)
    system = operators.svd(t)
    values = system.values
    if values[-1] > 1e-2 * values[0]:
        return t, system
    t = replace(system, values=np.maximum(values, 1e-2 * values[0])).reconstruct()
    return t, operators.svd(t)


@dataclass(frozen=True)
class ScenarioSpec:
    run: Callable[[ScenarioConfig, int], list[ReportRow]]
    statements: tuple[str, ...]
    description: str


REGISTRY: dict[str, ScenarioSpec] = {
    "fejer": ScenarioSpec(
        _fejer,
        ("fejer-unit-norm", "fejer-identity"),
        "unit-norm kernel family acting as an approximate identity",
    ),
    "wiener-division": ScenarioSpec(
        _wiener_division,
        ("division-exactness-r0.3", "division-exactness-r0.5",
         "division-exactness-r0.7", "division-floor-raised"),
        "spectral division reproducing the kernel family exactly",
    ),
    "um-net": ScenarioSpec(
        _um_net,
        ("projection-identity", "net-final-residual", "rank-refuted"),
        "singular-direction right-inverse nets for full-rank operators",
    ),
    "pure-state": ScenarioSpec(
        _pure_state,
        ("criterion-agreement",),
        "smallest singular value and pure-state criterion agree for operators",
    ),
    "c0-interior": ScenarioSpec(
        _c0_interior,
        ("criterion-equivalence", "inconclusive-count", "perturbation-distance",
         "perturbation-zero"),
        "grid-function certification and boundary perturbations",
    ),
    "disk13": ScenarioSpec(
        _disk13,
        ("annulus-found-minimum", "annulus-margin", "product-found-minimum",
         "product-margin"),
        "one-third separation bounds in the origin-vanishing disk algebra",
    ),
    "deconv": ScenarioSpec(
        _deconv,
        ("noiseless-error", "noiseless-tail-match", "noisy-error",
         "noiseless-monotone"),
        "module deconvolution through the division net, with noise sweep",
    ),
    "tdz": ScenarioSpec(
        _tdz,
        ("witness-value", "witness-exact-at-20", "witness-monotone"),
        "character witnesses for the zero-divisor modulus decay",
    ),
}
