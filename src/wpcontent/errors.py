"""Exception types shared across the package.

Each class below `WpcError` is one row of `cli.EXIT_CODES`, so the exit-code
table is the whole taxonomy; cases of one class are told apart by message.
"""


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


class NumericalBreakdownError(WpcError):
    """A computation produced values outside certified tolerances.

    ``step`` names the extraction step, or is None outside an extraction.
    """

    def __init__(self, step: int | None, detail: str):
        self.step = step
        where = "" if step is None else f" at step {step}"
        super().__init__(f"numerical breakdown{where}: {detail}")
