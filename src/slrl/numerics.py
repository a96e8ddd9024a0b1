"""Dense float64 matrix helpers, the integer checks on counts, seeds and integer
arrays, seeded RNG, the descent step, and the gradient-check contract.

Matrices are plain 2-D ``numpy.ndarray`` objects in float64; every public
operation validates shapes and finiteness rather than trusting callers.
Randomness is always threaded through an explicit ``numpy.random.Generator``
(PCG64), never global state, so a seed fully determines a run.
"""

from __future__ import annotations

import numbers
from typing import Callable

import numpy as np

from .errors import NumericError, ParameterError, ShapeError

__all__ = [
    "as_matrix",
    "as_int",
    "as_ints",
    "make_rng",
    "descend",
    "finite_diff_grad",
    "relative_error",
]


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator: equal seeds give equal draw sequences."""
    seed = as_int(seed, "seed", least=0)
    return np.random.Generator(np.random.PCG64(seed))


def as_int(value, name: str, least: int | None = None) -> int:
    """``value`` as a Python int, if it is a Python or numpy integer and, when ``least``
    is given, at least ``least``: a bool, a float (integer-valued or not), anything
    else and a smaller integer raise ``ParameterError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
    return int(value)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise NumericError(f"{name} contains non-finite entries")
    return m


def as_ints(a, name: str, error=ShapeError) -> np.ndarray:
    """``a`` as int64, if every entry is a whole number in int64's range: integer
    dtypes and integer-valued floats pass, and anything else raises ``error``."""
    given = np.asarray(a)
    with np.errstate(invalid="ignore"):
        ints = given.astype(np.int64, copy=False) if given.dtype.kind in "biuf" else None
    if ints is None or not np.array_equal(ints, given):  # a fraction, NaN or out of range
        raise error(f"{name} must be integers in int64's range, got {given.dtype} values")
    return ints


def descend(value: np.ndarray, grad: np.ndarray, scale: float, name: str) -> None:
    """One descent step in place: ``grad`` is scaled by ``scale`` where it lies,
    checked finite, and subtracted from ``value``. A non-finite scaled gradient
    raises ``NumericError`` naming ``name`` and leaves ``value`` as it was.

    ``grad`` must be a fresh array that nothing else reads.
    """
    grad *= scale
    if not np.isfinite(grad).all():
        raise NumericError(f"non-finite gradient in {name}")
    value -= grad


def finite_diff_grad(f: Callable[[np.ndarray], float], x, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    Each coordinate i is estimated as (f(x + eps e_i) - f(x - eps e_i)) / (2 eps).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=np.float64).ravel()
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite loss at coordinate {i} during finite differencing")
        grad[i] = (fp - fm) / (2.0 * eps)
    return grad


def relative_error(analytic, numeric) -> float:
    """Max elementwise |g_a - g_n| / max(1, |g_a|, |g_n|) over both gradients."""
    ga = np.asarray(analytic, dtype=np.float64).ravel()
    gn = np.asarray(numeric, dtype=np.float64).ravel()
    if ga.shape != gn.shape:
        raise ShapeError(f"gradient shapes differ: {ga.shape} vs {gn.shape}")
    if ga.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.maximum(np.abs(ga), np.abs(gn)))
    return float(np.max(np.abs(ga - gn) / denom))
