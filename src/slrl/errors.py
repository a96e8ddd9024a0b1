"""Exception types shared across the library.

Every one derives from ``SlrlError``, the one root the CLI maps to an ``error:``
line and exit status 2, and keeps its builtin base, so that ``except
ValueError`` and the like still catch it.
"""


class SlrlError(Exception):
    """Root of the library's typed errors."""


class ShapeError(ValueError, SlrlError):
    """Operand shapes do not chain (matrix products, layer stacks, ...)."""


class ParameterError(ValueError, SlrlError):
    """An argument is outside its documented range."""


class FormatError(ValueError, SlrlError):
    """On-disk data violates the dataset format (row mismatch, non-finite entry, ...)."""


class NumericError(ArithmeticError, SlrlError):
    """A computation produced or encountered a non-finite value."""


class DegenerateClusterError(RuntimeError, SlrlError):
    """A cluster lost all soft-assignment mass."""


class DivergenceError(ValueError, SlrlError):
    """KL divergence is infinite: target puts mass where the assignment has none."""
