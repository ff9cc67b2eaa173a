"""Exception types shared across the package."""


class BilevelLabError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(BilevelLabError):
    """Operator/vector dimensions are incompatible."""


class SingularOperatorError(BilevelLabError):
    """Linear system is singular to working tolerance."""

    def __init__(self, message: str, cond: float = float("inf")):
        super().__init__(f"{message} (estimated condition number {cond:.3e})")
        self.cond = cond


class BracketError(BilevelLabError):
    """Root bracket does not contain a sign change."""


class DomainError(BilevelLabError):
    """Scalar function evaluated to a non-finite value."""


class CapabilityError(BilevelLabError):
    """The operation needs an input it was not given, such as a declared bound U."""


class ConstraintError(BilevelLabError):
    """Instance parameters violate a feasibility constraint."""


class InfeasibleDimensionError(BilevelLabError):
    """No dimension below the cap satisfies the feasibility rule."""

    def __init__(self, message: str, required_dim: int):
        super().__init__(f"{message} (required dimension {required_dim})")
        self.required_dim = required_dim


class InvariantViolationError(BilevelLabError):
    """Constructed object violates one of its declared invariants."""


class DivergenceError(BilevelLabError):
    """Iteration produced a non-finite or exploding iterate."""

    def __init__(self, message: str, step: int, last_good=None, trace=None):
        super().__init__(f"{message} (step {step})")
        self.step = step
        self.last_good = last_good
        self.trace = trace


class ConfigError(BilevelLabError):
    """Experiment configuration failed to parse or validate."""
