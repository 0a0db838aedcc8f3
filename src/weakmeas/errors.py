"""Exception types shared across the package.

The rule: a plain ``ValueError`` means an argument outside its domain (the
CLI maps it to exit 2), and a ``WeakMeasError`` means a computation that
failed on valid arguments (exit 3), even where it is also a ``ValueError``.
The range of each parameter is judged once, by the library constructor
(or function) that takes it.
"""


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
    """A simultaneous measurement would need more than pointer.MAX_JOINT_TERMS branches."""


class QuadratureError(WeakMeasError, ArithmeticError):
    """A numerical grid could not be resolved, or not within its size cap."""
