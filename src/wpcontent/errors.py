"""Exception types shared across the package."""


class WpcError(Exception):
    """Base class for all package-specific errors."""


class MalformedInputError(WpcError):
    """Input file or payload does not match its documented schema."""


class NotPositiveError(WpcError):
    """Matrix has an eigenvalue below the negative clamp threshold."""

    def __init__(self, eigenvalue: float, threshold: float):
        self.eigenvalue = eigenvalue
        self.threshold = threshold
        super().__init__(
            f"matrix is not positive semidefinite: eigenvalue {eigenvalue:.6e} "
            f"is below the clamp threshold {-threshold:.6e}"
        )


class ConfigError(WpcError):
    """Invalid parameter combination rejected before any computation; `cli` exits 5 on it."""


class DimensionMismatchError(ConfigError):
    """Operands have incompatible dimensions."""


class InvalidDepthError(ConfigError):
    """Requested tree depth is out of range or incompatible with the size."""


class InvalidFilterError(ConfigError):
    """Filter name is unknown."""


class UnknownNodeError(ConfigError):
    """Node (word and depth) does not belong to the tree."""


class AbsoluteContinuityViolation(WpcError):
    """A zero-mass cylinder carries nonzero vector energy (numerical inconsistency)."""


class NumericalBreakdownError(WpcError):
    """A computation produced values outside certified tolerances.

    ``step`` names the extraction step, or is None outside an extraction.
    """

    def __init__(self, step: int | None, detail: str):
        self.step = step
        where = "" if step is None else f" at step {step}"
        super().__init__(f"numerical breakdown{where}: {detail}")


class UndefinedCoherenceError(WpcError):
    """Coherence is undefined because the operator is numerically zero."""
