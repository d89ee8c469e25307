"""Exception types shared across the algebra models."""


class NumericOverflowError(ArithmeticError):
    """A norm or residual evaluated to a non-finite or negative number."""


class DivisionFloorError(ValueError):
    """Spectral division was refused because a coefficient sits at or below
    the division floor.  ``frequency`` records the first offending index."""

    def __init__(self, frequency: int, magnitude: float, floor: float):
        self.frequency = frequency
        self.magnitude = magnitude
        self.floor = floor
        super().__init__(
            f"coefficient at frequency {frequency} has magnitude "
            f"{magnitude:.3e} <= floor {floor:.3e}"
        )


class SingularDivisionError(ValueError):
    """Pointwise division hit a value at or below the division threshold.
    ``index`` records the offending grid index."""

    def __init__(self, index: int, magnitude: float, threshold: float):
        self.index = index
        self.magnitude = magnitude
        self.threshold = threshold
        super().__init__(
            f"|f| = {magnitude:.3e} <= threshold {threshold:.3e} "
            f"at grid index {index}"
        )


class AliasingError(ValueError):
    """A requested band or kernel order does not fit inside the sampled grid."""


class RankDeficientError(ValueError):
    """An operator failed the full-rank precondition of an inverse-net
    construction.  ``index`` is the 1-based position of the offending
    singular value."""

    def __init__(self, index: int, value: float, threshold: float):
        self.index = index
        self.value = value
        self.threshold = threshold
        super().__init__(
            f"singular value #{index} = {value:.3e} <= threshold {threshold:.3e}"
        )


class CannotPerturbError(RuntimeError):
    """No admissible cutoff exists for the requested perturbation."""


class ConfigError(Exception):
    """Invalid scenario configuration (maps to exit status 2)."""
