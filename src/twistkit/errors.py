"""Exception types shared across the package."""


class TwistkitError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(TwistkitError, ValueError):
    """Raised for non-finite or out-of-domain arguments."""


class ConvergenceError(TwistkitError):
    """A series or iteration exceeded its term/evaluation budget.

    The best partial result obtained so far is carried in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class SingularConfigurationError(TwistkitError):
    """A geometric configuration where the requested quantity is undefined
    (e.g. the azimuth of a zero-length displacement vector)."""


class SingularNormalizationError(TwistkitError):
    """TE/TM modes at k_z = 0: the normalization vanishes while the TM
    axial term diverges; no limiting convention is defined."""

