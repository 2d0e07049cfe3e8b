"""Exception hierarchy shared across the package."""


class LevynetError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(LevynetError):
    """The network description violates a structural requirement."""


class ConfigError(LevynetError):
    """A JSON config document failed schema validation or referencing."""


class UnsupportedRegimeError(LevynetError):
    """The input process has no valid tail pair in the requested regime."""


class ScalingRangeError(LevynetError):
    """A scaled value leaves the float range: a nonzero frequency times a rate
    power at u, or a fraction power in the limit, or a rate, horizon or face
    length of the sampler."""


class RootFindingError(LevynetError):
    """Monotone inversion failed to reach the residual tolerance; the message gives the residual."""


class SingularFactorError(LevynetError):
    """A transform value falls outside (0, 1], or a displayed closed form is degenerate."""
