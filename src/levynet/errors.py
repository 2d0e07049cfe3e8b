"""Exception hierarchy shared across the package."""


class LevynetError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(LevynetError):
    """The network description violates a structural requirement."""


class ConfigError(LevynetError):
    """A JSON config document failed schema validation or referencing."""


class UnsupportedRegimeError(LevynetError):
    """The input process has no valid tail pair in the requested regime."""


class RootFindingError(LevynetError):
    """Monotone inversion failed to reach the residual tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SingularFactorError(LevynetError):
    """A transform value falls outside (0, 1], or a displayed closed form is degenerate."""

    def __init__(self, message: str, factor_index: int | None = None):
        super().__init__(message)
        self.factor_index = factor_index

