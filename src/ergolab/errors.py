"""Exception and warning types shared across the package.

The command line maps these onto process exit codes: configuration
problems exit 1, precision exhaustion exits 2, exceeded iteration budgets
exit 3 and any other error of this package exits 4 (see :mod:`ergolab.cli`).
"""
from __future__ import annotations


class ErgolabError(Exception):
    """Base class for all errors raised by this package."""


class PrecisionExhaustedError(ErgolabError):
    """A guarded comparison was ambiguous, or error bounds grew past the safety margin.

    Carries in ``step`` the orbit step, or for a special flow the roof
    crossing (0 is the start), at which the ambiguity occurred, when the
    enclosing scan knows it.
    """

    def __init__(self, message: str = "precision exhausted", step=None):
        super().__init__(message)
        self.step = step

    def at_step(self, step: int) -> "PrecisionExhaustedError":
        """This refusal, naming ``step`` unless it already names one."""
        if self.step is None:
            self.step = step
        return self


class RowLimitError(ErgolabError):
    """A scan could list more rows than ``recurrence.MAX_ROWS``; it is refused before it lists any."""


class BudgetExceededError(ErgolabError):
    """Base class for iteration-budget failures (exit code 3)."""


class ReturnBudgetError(BudgetExceededError):
    """An induced-map orbit failed to return to the target set within the budget."""


class ResonantFrequencyError(ErgolabError):
    """A trigonometric mode has frequency j + k*gamma = 0, so its orbit integral grows linearly."""


class ZeroValueStartError(ErgolabError):
    """The observable vanishes at the starting point; the return-time detectors reject it."""


class RationalAngleError(ErgolabError):
    """Raised when a rational angle is passed where an infinite expansion is required."""


class ConfigError(ErgolabError):
    """An experiment configuration document is malformed or inconsistent."""


class RationalAngleWarning(UserWarning):
    """Emitted when an ergodicity-dependent detector runs on a rational rotation angle.

    Rational angles are supported so that exact brute-force oracles can be
    run against the same code paths, but the recurrence theorems themselves
    assume an ergodic base.
    """
