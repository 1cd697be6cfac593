"""Interpreter-speed calibration shared by the runner and the set-up probe.

The host alternates between fast phases and phases about 1.5x slower, each
lasting seconds; CPU time grows with wall time, so this is not preemption
and a longer run does not average it out.  Every timed piece of work is
therefore bracketed by a fixed loop of exact ``Fraction`` arithmetic, the
operation mix that dominates ``ergolab``'s own loops (but nothing from
``ergolab``), and reported in reference seconds:

    measured seconds * REFERENCE_SECONDS / calibration seconds

A program change moves the measured seconds and leaves the loop alone, so
gains and losses show in full; a slow phase stretches both and cancels.
Of three loops tried (integer/tuple/dict, 192-bit integers with slotted
objects, and this one), this one tracked the workloads best: on seven
``distribution`` runs its IQR/median was 0.034, against 0.07 for the other
two and 0.126 for the plain per-experiment medians.
"""
import time
from fractions import Fraction

#: a fixed scale: about the loop's time in a fast phase of the 2-CPU host
#: the baseline was measured on, so reference seconds read like seconds there
REFERENCE_SECONDS = 0.013


def loop_seconds(rounds: int = 4000) -> float:
    """Wall seconds of one fixed calibration loop."""
    started = time.perf_counter()
    acc = Fraction(0)
    for i in range(rounds):
        acc += Fraction(i % 7 + 1, 3 + i % 5)
        if acc > 10:
            acc -= 10
    return time.perf_counter() - started


def reference_seconds(measured: float, before: float, after: float) -> float:
    """``measured`` rescaled to the reference speed, from the loops around it."""
    return measured * REFERENCE_SECONDS * 2 / (before + after)
