"""Exception types shared across the package."""


class WeakMeasError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(WeakMeasError, ValueError):
    """Operands live on Hilbert spaces of different dimension."""


class DegenerateEnsembleError(WeakMeasError, ValueError):
    """Pre- and post-selected states are (numerically) orthogonal.

    Weak values diverge as the overlap vanishes, so construction fails
    fast instead of returning huge unstable numbers.
    """


class AllBranchesVanishError(WeakMeasError, ValueError):
    """Every post-selected branch amplitude is zero."""


class UnsupportedConfigurationError(WeakMeasError, ValueError):
    """Requested a simultaneous measurement the solver cannot handle."""


class QuadratureError(WeakMeasError, ArithmeticError):
    """A numerical grid could not be resolved, or not within its size cap."""
