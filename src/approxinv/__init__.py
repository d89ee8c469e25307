"""approxinv: a numerical laboratory for approximate identities and
approximate inverses in non-unital normed algebra models.

Concrete models (sampled circle convolution algebra, grid functions
vanishing at infinity, origin-vanishing disk polynomials, finite operator
ideals) plug into the shared net verifiers of :mod:`approxinv.core`; the
:mod:`approxinv.cli` scenario runner batches the headline experiments into
deterministic CSV reports.
"""

from . import banach_module, c0, cli, core, disk, operators, scenarios, wiener
from .core import (
    AlgebraModel,
    ApproxIdentityFamily,
    ApproxInvCertificate,
    IdentityReport,
    InverseNet,
    ResidualTrace,
    ZeroDivisorModulus,
    check_approx_invertible,
    check_approximate_identity,
    circle_op,
    combine_nets,
    quasi_inv_residual,
    residual_decay_verdict,
    sandwich_family,
    zero_divisor_modulus,
)
from .errors import (
    AliasingError,
    CannotPerturbError,
    ConfigError,
    DivisionFloorError,
    NumericOverflowError,
    RankDeficientError,
    SingularDivisionError,
)


def standard_models(circle_samples: int = 512, grid_points: int = 201,
                    matrix_size: int = 8) -> list[AlgebraModel]:
    """One instance of every registered model, at sizes suitable for
    property sweeps."""
    return [
        wiener.l1_circle_model(wiener.CircleGrid(circle_samples)),
        c0.c0_model(c0.GridSpace(10.0, grid_points, 1e-6)),
        disk.disk_model(),
        operators.matrix_model(matrix_size),
        operators.matrix_model(matrix_size, 1.0),
        operators.matrix_model(matrix_size, 2.0),
    ]
