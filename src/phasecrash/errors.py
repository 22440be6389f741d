"""Exception types shared across the package.

Two families decide the command line's exit code. Bad input is a
``ValueError``: plain ``ValueError`` for simple argument validation, and
``CsvParseError`` and ``InsufficientDataError`` where callers need the
failure mode or its context; with ``OSError`` it exits 1.
A computation that fails on valid input is a :class:`ComputationError`
(``GenerationError``, ``SimulationOverflowError``,
``DegenerateDesignError``, ``FitFailureError``); with ``ArithmeticError``
it exits 2.
"""


class PhasecrashError(Exception):
    """Base class for package-specific failures."""


class ComputationError(PhasecrashError):
    """A computation failed on valid input."""


class GenerationError(ComputationError):
    """Noise synthesis failed (e.g. covariance not positive definite)."""

    def __init__(self, message, schedule=None):
        super().__init__(message)
        self.schedule = schedule


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
