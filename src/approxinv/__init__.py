"""approxinv: a numerical laboratory for approximate identities and
approximate inverses in non-unital normed algebra models.

Concrete models (sampled circle convolution algebra, grid functions
vanishing at infinity, finite operator ideals) plug into the shared net
verifiers of :mod:`approxinv.core`; the origin-vanishing disk polynomials
of :mod:`approxinv.disk` carry certified separation bounds of their own.
The :mod:`approxinv.cli` scenario runner batches the headline experiments
into deterministic CSV reports; the package does not import it, so
``python -m approxinv.cli`` loads it once, as ``__main__``.
"""

from . import banach_module, c0, core, disk, operators, scenarios, wiener
from .core import (
    AlgebraModel,
    ApproxInvCertificate,
    check_approx_invertible,
    check_approximate_identity,
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

