"""Skew products ``R(x, y) = (Sx, T^{n(x)} y)`` over a zero-mean integer cocycle.

The fiber map ``T`` (a rotation or interval exchange — both invertible, so
negative exponents are cheap) is applied ``n(x)`` times per step.  The key
exact identity is telescoping: after ``N`` steps the accumulated fiber
exponent equals the Birkhoff sum ``S_N n(x0)``, which ties the construction
back to the cascade recurrence machinery.  Statistical probes are limited
to rectangle time-averages; mixing-type verification is out of scope.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cocycles import StepCocycle, guarded_walk
from .fixedpoint import ONE, FixedReal, Real
from .recurrence import TargetSet
from .systems import BaseMap, CircleRotation, IntervalExchange

FiberMap = BaseMap  # rotations and IETs are both invertible circle maps


@dataclass(frozen=True, slots=True)
class ProductState:
    """A point of the product circle ``X x Y``."""

    x: FixedReal
    y: FixedReal


class SkewSystem:
    """The skew product ``(x, y) -> (Sx, T^{n(x)} y)``.

    ``exponent`` must be an integer-valued zero-mean step cocycle; the
    zero mean is what makes the construction a candidate for ergodic
    behaviour rather than a drifting product.
    """

    __slots__ = ("base", "fiber", "exponent")

    def __init__(self, base: BaseMap, fiber: FiberMap, exponent: StepCocycle):
        if not exponent.is_integer:
            raise ValueError("the fiber exponent must be integer-valued")
        self.base = base
        self.fiber = fiber
        self.exponent = exponent

    def fiber_power(self, y: FixedReal, n: int) -> FixedReal:
        """Apply the fiber map ``n`` times (negative ``n`` uses the inverse)."""
        if isinstance(self.fiber, CircleRotation):
            a = self.fiber.alpha.resolved
            return FixedReal(
                (y.mantissa + n * a.mantissa) % ONE,
                y.err_ulps + abs(n) * a.err_ulps,
            )
        for _ in range(abs(n)):
            y = self.fiber.apply(y) if n > 0 else self.fiber.inverse_apply(y)
        return y

    def step(self, state: ProductState) -> tuple[ProductState, int]:
        """One skew step; also returns the exponent used (for telescoping)."""
        n = self.exponent.value_at(state.x)
        return ProductState(self.base.apply(state.x), self.fiber_power(state.y, n)), n

    def __repr__(self) -> str:
        return f"SkewSystem({self.base!r}, fiber={self.fiber!r})"


@dataclass(frozen=True, slots=True)
class SkewOrbitStats:
    """Time-averages of rectangle indicators along a skew orbit.

    ``fiber_displacement`` is the accumulated exponent after ``steps``
    steps — exactly the Birkhoff sum of the exponent cocycle, by the
    telescoping identity.
    """

    steps: int
    averages: tuple[float, ...]
    standard_errors: tuple[float, ...]
    fiber_displacement: int
    final_state: ProductState


def orbit_statistics(
    system: SkewSystem,
    start: ProductState,
    steps: int,
    rectangles: Sequence[tuple[tuple[Real, Real], tuple[Real, Real]]],
) -> SkewOrbitStats:
    """Visit frequencies of product rectangles over the first ``steps`` orbit points.

    Each rectangle is ``[x_lo, x_hi) x [y_lo, y_hi)`` with exact rational
    corners; membership per step is a guarded comparison.  The base orbit
    runs on :func:`~ergolab.cocycles.guarded_walk`, so a point that cannot
    be placed against the exponent's walls is refused with its step.
    Standard errors use the i.i.d. formula ``sqrt(p(1-p)/(steps-1))`` — a
    heuristic scale for correlated orbits, reported for calibration rather
    than inference.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    sides = [
        (TargetSet([xs]), TargetSet([ys]))
        for xs, ys in rectangles
    ]
    hits = [0] * len(sides)
    # For rotation fibers the telescoping identity lets us place the fiber
    # coordinate directly at y0 + displacement * alpha, so the error bound
    # scales with the net displacement instead of the step count (a cancelled
    # excursion returns the fiber *exactly* to y0).
    telescoped = isinstance(system.fiber, CircleRotation)
    state, displacement = start, 0
    walk = guarded_walk(system.base, system.exponent, start.x, steps)
    for _ in range(steps):
        for i, (sx, sy) in enumerate(sides):
            if sx.contains(state.x) and sy.contains(state.y):
                hits[i] += 1
        total, x = next(walk)
        y, n = (start.y, total) if telescoped else (state.y, total - displacement)
        state, displacement = ProductState(x, system.fiber_power(y, n)), total
    averages = []
    errors = []
    for k in hits:
        p = k / steps
        averages.append(p)
        if steps > 1:
            errors.append((p * (1 - p) / (steps - 1)) ** 0.5)
        else:
            errors.append(0.0)
    return SkewOrbitStats(
        steps=steps,
        averages=tuple(averages),
        standard_errors=tuple(errors),
        fiber_displacement=displacement,
        final_state=state,
    )
