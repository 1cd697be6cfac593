"""Skew products ``R(x, y) = (Sx, T^{n(x)} y)`` over a zero-mean integer cocycle.

The fiber map ``T`` (a rotation or interval exchange — both invertible, so
negative exponents are cheap) is applied ``n(x)`` times per step.  The key
exact identity is telescoping: after ``N`` steps the accumulated fiber
exponent equals the Birkhoff sum ``S_N n(x0)``, which ties the construction
back to the cascade recurrence machinery.  Statistical probes are limited
to rectangle time-averages; mixing-type verification is out of scope.

Over a rotation base with a rotation fiber or an exactly represented
interval-exchange fiber, :func:`orbit_statistics` runs on the identity: the
base cells come from one pass of the certified cell kernel, the fiber point
at step ``n`` is ``T^{S_n}(y0)``, and each rectangle tests its fiber side
once per distinct ``S_n``.  Every other orbit, and every orbit that pass
refuses, takes the per-step loop, so a refusal is always the loop's.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cocycles import StepCocycle, certified_cells, guarded_walk
from .errors import PrecisionExhaustedError
from .fixedpoint import ONE, FixedReal, Real, Walls
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


_Sides = list[tuple[TargetSet, TargetSet]]


def orbit_statistics(
    system: SkewSystem,
    start: ProductState,
    steps: int,
    rectangles: Sequence[tuple[tuple[Real, Real], tuple[Real, Real]]],
) -> SkewOrbitStats:
    """Visit frequencies of product rectangles over the first ``steps`` orbit points.

    Each rectangle is ``[x_lo, x_hi) x [y_lo, y_hi)`` with exact rational
    corners; membership per step is a guarded comparison.  Over a rotation
    base whose fiber is a rotation, or an interval exchange with exact
    lengths from a reduced fiber start, the orbit telescopes
    (:func:`_telescoped_orbit`); an interval-exchange base, an inexact
    exchange fiber or an unreduced start takes the per-step loop
    (:func:`_orbit_loop`), as does every orbit that the telescoped pass
    refuses.  Both give the same statistics, and every refusal is the
    loop's: a point that cannot be placed against the exponent's walls or
    a rectangle's sides carries its step, one at a fiber exchange's wall
    none.
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
    orbit = None
    if _telescopes(system, start):
        try:
            orbit = _telescoped_orbit(system, start, steps, sides)
        except PrecisionExhaustedError:
            pass  # the loop raises its own refusal
    hits, displacement, state = orbit or _orbit_loop(system, start, steps, sides)
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


def _orbit_loop(
    system: SkewSystem, start: ProductState, steps: int, sides: _Sides
) -> tuple[list[int], int, ProductState]:
    """``(hits, S_N, final state)`` by one guarded membership test per rectangle and step.

    The base orbit runs on :func:`~ergolab.cocycles.guarded_walk`, so a
    point that cannot be placed against the exponent's walls is refused
    with its step; a membership test that refuses names its step too (the
    start is step 0).
    """
    hits = [0] * len(sides)
    # For rotation fibers the telescoping identity lets us place the fiber
    # coordinate directly at y0 + displacement * alpha, so the error bound
    # scales with the net displacement instead of the step count (a cancelled
    # excursion returns the fiber *exactly* to y0).
    telescoped = isinstance(system.fiber, CircleRotation)
    state, displacement = start, 0
    walk = guarded_walk(system.base, system.exponent, start.x, steps)
    for step in range(steps):
        try:
            for i, (sx, sy) in enumerate(sides):
                if sx.contains(state.x) and sy.contains(state.y):
                    hits[i] += 1
        except PrecisionExhaustedError as exc:
            raise exc.at_step(step)
        total, x = next(walk)
        y, n = (start.y, total) if telescoped else (state.y, total - displacement)
        state, displacement = ProductState(x, system.fiber_power(y, n)), total
    return hits, displacement, state


def _telescopes(system: SkewSystem, start: ProductState) -> bool:
    """Whether the loop's fiber point after ``n`` steps depends on ``S_n`` alone, over a rotation base.

    A rotation fiber is placed from ``y0`` by the loop itself.  An exchange
    with exact lengths moves mantissas by exact offsets and keeps the
    radius of ``y0``, so any path to ``S_n`` ends at the same point; an
    inexact one adds radius per application, so its points depend on the
    path.  A start the kernel would reduce mod 1 is left to the loop, which
    rejects an unreduced point it classifies.
    """
    fiber = system.fiber
    exact_fiber = isinstance(fiber, CircleRotation) or (
        all(v.is_exact for v in fiber.lengths) and 0 <= start.y.mantissa < ONE
    )
    return isinstance(system.base, CircleRotation) and exact_fiber and 0 <= start.x.mantissa < ONE


def _telescoped_orbit(
    system: SkewSystem, start: ProductState, steps: int, sides: _Sides
) -> tuple[list[int], int, ProductState]:
    """:func:`_orbit_loop`'s answer from the identity ``R^n(x, y) = (S^n x, T^{S_n} y)``.

    One :func:`~ergolab.cocycles.certified_cells` pass places ``x`` against
    the exponent's walls merged with every rectangle's ``x`` walls, so each
    merged cell has one exponent value and one label per rectangle: the
    cells are the walk's and the labels its ``TargetSet.contains`` answers.
    ``S_n`` runs as a cumulative sum carried across blocks (int64 while
    ``max |v| * steps < 2**62``, Python integers past it), and per rectangle
    the steps with ``x`` inside are counted per ``S_n``.  Each counted
    ``s`` then takes one ``contains`` test of ``T^s y0``: the loop's tests,
    without repeats.  A rotation fiber places ``T^s y0`` as the loop does;
    an exchange steps out from ``y0`` over every ``s`` in ``[min S, max S]``,
    the points the loop passes through.  Memory is one block plus the
    distinct sums.  Raises :class:`PrecisionExhaustedError` wherever the
    loop's tests could refuse; the caller then reruns the loop.
    """
    base, f = system.base, system.exponent
    merged = sorted({*f.walls.mantissas, *(w for sx, _ in sides for w in sx.walls.mantissas)})
    walls = Walls([FixedReal(w) for w in merged])
    wide = max(abs(v) for v in f.values) * steps >= 1 << 62
    values = np.array([f.value_at(FixedReal(w)) for w in merged], dtype=object if wide else np.int64)
    inside = [np.array([sx.contains(FixedReal(w)) for w in merged]) for sx, _ in sides]
    counts = [Counter() for _ in sides]
    total = low = high = 0
    for _, cells in certified_cells(base, walls, start.x, steps):
        terms = values[cells]
        sums = np.cumsum(terms) + total
        before = sums - terms  # S_n at each step n of the block
        for count, label in zip(counts, inside):
            at, times = np.unique(before[label[cells]], return_counts=True)
            count.update(dict(zip(at.tolist(), times.tolist())))
        total, low, high = int(sums[-1]), min(low, int(sums.min())), max(high, int(sums.max()))
    if isinstance(system.fiber, CircleRotation):
        table = {s: system.fiber_power(start.y, s) for s in {total}.union(*counts)}
    else:
        table = {0: start.y}
        for s in [*range(1, high + 1), *range(-1, low - 1, -1)]:
            toward = 1 if s > 0 else -1
            table[s] = system.fiber_power(table[s - toward], toward)
    hits = [
        sum(k for s, k in count.items() if sy.contains(table[s]))
        for count, (_, sy) in zip(counts, sides)
    ]
    a = base.alpha.resolved
    x = FixedReal((start.x.mantissa + steps * a.mantissa) % ONE, start.x.err_ulps + steps * a.err_ulps)
    return hits, total, ProductState(x, table[total])
