"""Exception types shared across the package."""


class KaflabError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefiniteError(KaflabError):
    """A matrix required to be positive definite is not.

    Carries the offending smallest eigenvalue so callers can report how far
    from PD the input was.
    """

    def __init__(self, message: str, smallest_eigenvalue: float | None = None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class EigenSolverError(KaflabError):
    """The underlying eigensolver failed to converge."""


class DimensionMismatchError(KaflabError):
    """Operands have incompatible shapes."""


class DivergenceError(KaflabError):
    """An iteration produced non-finite values.

    ``last_finite_step`` is the last iteration index at which all quantities
    were still finite.
    """

    def __init__(self, message: str, last_finite_step: int | None = None):
        super().__init__(message)
        self.last_finite_step = last_finite_step


class NotStableError(KaflabError):
    """A computation requiring mean-square stability was refused.

    Carries the spectral radius that violated the stability condition.
    """

    def __init__(self, message: str, spectral_radius: float | None = None):
        super().__init__(message)
        self.spectral_radius = spectral_radius


class InvariantError(KaflabError):
    """A quantity that is nonnegative in exact arithmetic, such as an excess MSE, came out
    negative: rounding has broken the theory on an ill-conditioned model."""


class ConfigError(KaflabError):
    """An experiment configuration file is invalid."""


class ArtifactError(KaflabError, ValueError):
    """An input file, such as a learning-curve CSV, is not the artifact it should be."""
