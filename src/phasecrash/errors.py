"""Exception types and parameter checks shared across the package.

Two families decide the command line's exit code. Bad input is a
``ValueError``: plain ``ValueError`` for simple argument validation, and
``CsvParseError`` and ``InsufficientDataError`` where callers need the
failure mode or its context; with ``OSError`` it exits 1.
A computation that fails on valid input is a :class:`ComputationError`
(``GenerationError``, ``SimulationOverflowError``,
``DegenerateDesignError``, ``FitFailureError``); with ``ArithmeticError``
it exits 2.

:func:`check_int` (every count, size, index and seed) and :func:`check_real`
(every real-valued parameter, with its interval) refuse a bad parameter by
name where it is given, not inside a computation.
"""

from numbers import Integral

import numpy as np


class PhasecrashError(Exception):
    """Base class for package-specific failures."""


class ComputationError(PhasecrashError):
    """A computation failed on valid input."""


class GenerationError(ComputationError):
    """Noise synthesis failed (e.g. a circulant embedding with a negative
    eigenvalue)."""


class SimulationOverflowError(ComputationError):
    """Simulated state became non-finite; ``step`` is the failing index."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


class DegenerateDesignError(ComputationError):
    """Least-squares design matrix is rank deficient or ill conditioned."""


class FitFailureError(ComputationError):
    """No usable node in the calibration search grid."""


class InsufficientDataError(PhasecrashError, ValueError):
    """Too few observations for the requested statistic."""


class CsvParseError(PhasecrashError, ValueError):
    """Input CSV is malformed; ``line`` is the 1-based offending line."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


def check_int(name, value, lo, hi=None):
    """``value`` as an int; a bool, a non-integer (``numbers.Integral``
    admits numpy's integers and refuses ``np.bool_``) and a value outside
    ``[lo, hi]`` raise a ValueError that names ``name``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    n = int(value)
    if hi is not None and not lo <= n <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value!r}")
    if n < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value!r}")
    return n


def check_real(interval="(-inf, inf)", /, **fields):
    """Refuse by name a real parameter that is NaN or outside ``interval``,
    written like ``"(0, 1]"`` or ``"[0, inf)"``, or a tuple or array with
    such an element; None passes. The default interval refuses NaN and
    the infinities: the Euler step would carry one into the path and report
    a divergence instead, and the LPPL model would return NaN."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = np.greater_equal if interval[0] == "[" else np.greater
    below = np.less_equal if interval[-1] == "]" else np.less
    rule = "be finite" if interval == "(-inf, inf)" else f"lie in {interval}"
    for name, value in fields.items():
        if value is not None:
            v = np.asarray(value, dtype=float)
            if not (above(v, lo) & below(v, hi)).all():
                raise ValueError(f"{name} must {rule}, got {value!r}")
