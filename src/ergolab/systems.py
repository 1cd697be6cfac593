"""Measure-preserving base systems: rotations, interval exchanges, windings, special flows.

All maps act on guarded fixed-point coordinates and share the half-open
cell convention ``[lo, hi)``.  The special flow over a piecewise-constant
roof keeps its height coordinate as an exact rational so that crossing
times — and therefore every orbit-integral node derived from them — are
exact (see :mod:`ergolab.cocycles`).
"""
from __future__ import annotations

import warnings
from fractions import Fraction
from typing import Sequence, Union

from .angles import AngleSpec
from .errors import RationalAngleWarning
from .fixedpoint import (
    ONE,
    FixedReal,
    Real,
    Walls,
    as_fraction,
    circle_distance,
    orbit_point,
)


class CircleRotation:
    """The rotation ``x -> {x + alpha}`` of the unit circle."""

    __slots__ = ("alpha", "_m", "_e")

    def __init__(self, alpha: AngleSpec):
        self.alpha = alpha
        self._m = alpha.resolved.mantissa
        self._e = alpha.resolved.err_ulps

    @property
    def is_rational(self) -> bool:
        return self.alpha.is_rational

    def apply(self, p: FixedReal) -> FixedReal:
        return FixedReal((p.mantissa + self._m) % ONE, p.err_ulps + self._e)

    def inverse_apply(self, p: FixedReal) -> FixedReal:
        return FixedReal((p.mantissa - self._m) % ONE, p.err_ulps + self._e)

    def point_at(self, x0: FixedReal, n: int) -> FixedReal:
        """``S^n x0`` in one step, with the additive error budget of orbit_point."""
        return orbit_point(self.alpha.resolved, n, x0)

    def __repr__(self) -> str:
        return f"CircleRotation({self.alpha.text()})"


class IntervalExchange:
    """An exchange of ``m`` half-open intervals of the circle.

    ``lengths`` are the interval lengths in domain order; they must sum to 1
    exactly at the fixed-point scale.  ``permutation`` sends the i-th domain
    interval (1-based) to position ``permutation[i-1]`` in the image, so the
    classical two-interval swap is ``permutation=(2, 1)``.
    """

    __slots__ = ("lengths", "permutation", "walls", "_offsets", "_inverse")

    def __init__(self, lengths: Sequence[Real], permutation: Sequence[int]):
        lengths = tuple(FixedReal.of(v) for v in lengths)
        permutation = tuple(int(i) for i in permutation)
        m = len(lengths)
        if m < 2:
            raise ValueError("an interval exchange needs at least two intervals")
        if sorted(permutation) != list(range(1, m + 1)):
            raise ValueError("permutation must be a bijection on 1..m")
        if any(v.mantissa <= 0 for v in lengths):
            raise ValueError("interval lengths must be positive")
        if sum(v.mantissa for v in lengths) != ONE:
            raise ValueError("interval lengths must sum to 1 exactly at the fixed scale")
        self.lengths = lengths
        self.permutation = permutation

        # domain walls: cumulative sums of the lengths
        walls, acc = [FixedReal(0, 0)], FixedReal(0, 0)
        for v in lengths[:-1]:
            acc = acc + v
            walls.append(acc)
        self.walls = Walls(walls)

        # image start of the i-th domain interval: total length of intervals
        # that come before it in the image ordering
        offsets = []
        for i in range(m):
            before_img_m = sum(
                lengths[j].mantissa for j in range(m) if permutation[j] < permutation[i]
            )
            before_img_e = sum(
                lengths[j].err_ulps for j in range(m) if permutation[j] < permutation[i]
            )
            offsets.append(
                (
                    before_img_m - self.walls.mantissas[i],
                    before_img_e + self.walls.errs[i],
                )
            )
        self._offsets = offsets
        self._inverse = None

    def apply(self, p: FixedReal) -> FixedReal:
        i = self.walls.locate(p)
        off_m, off_e = self._offsets[i]
        return FixedReal((p.mantissa + off_m) % ONE, p.err_ulps + off_e)

    def inverse(self) -> "IntervalExchange":
        """The inverse exchange (image intervals back to domain order)."""
        if self._inverse is None:
            m = len(self.lengths)
            order = sorted(range(m), key=lambda i: self.permutation[i])
            inv_lengths = [self.lengths[i] for i in order]
            inv_perm = [0] * m
            for img_pos, i in enumerate(order):
                inv_perm[img_pos] = i + 1
            self._inverse = IntervalExchange(inv_lengths, inv_perm)
        return self._inverse

    def inverse_apply(self, p: FixedReal) -> FixedReal:
        return self.inverse().apply(p)

    def __repr__(self) -> str:
        spans = ", ".join(f"{float(v):.6g}" for v in map(float, self.lengths))
        return f"IntervalExchange([{spans}], {self.permutation})"


BaseMap = Union[CircleRotation, IntervalExchange]


class TorusPoint:
    """A point of the 2-torus with both coordinates in ``[0, 1)``."""

    __slots__ = ("x", "y")

    def __init__(self, x: Real, y: Real):
        self.x = FixedReal.of(x).frac()
        self.y = FixedReal.of(y).frac()

    def __iter__(self):
        yield self.x
        yield self.y

    def __repr__(self) -> str:
        return f"TorusPoint({float(self.x):.12f}, {float(self.y):.12f})"


class TorusWinding:
    """The linear flow ``(x, y) -> (x + t, y + gamma*t)`` on the 2-torus.

    The slope keeps its full (unreduced) value: the vertical displacement
    after time t is ``gamma*t`` with the true gamma, even though the induced
    rotation of each coordinate only sees it mod 1.
    """

    __slots__ = ("gamma",)

    def __init__(self, gamma: AngleSpec):
        if gamma.is_rational:
            warnings.warn(
                "rational winding slope: the flow is periodic, not ergodic; "
                "resonant frequencies become possible in orbit integrals",
                RationalAngleWarning,
                stacklevel=2,
            )
        self.gamma = gamma

    @property
    def slope(self) -> float:
        return float(self.gamma.raw)

    def flow(self, p: TorusPoint, t: Real) -> TorusPoint:
        t = FixedReal.of(t)
        x = (p.x + t).frac()
        y = (p.y + self.gamma.raw * t).frac()
        return TorusPoint(x, y)

    def distance(self, p: TorusPoint, q: TorusPoint) -> FixedReal:
        """max of the two coordinate-wise circle distances."""
        dx = circle_distance(p.x, q.x)
        dy = circle_distance(p.y, q.y)
        hi_x = dx.mantissa + dx.err_ulps
        hi_y = dy.mantissa + dy.err_ulps
        return dx if hi_x >= hi_y else dy

    def __repr__(self) -> str:
        return f"TorusWinding(gamma={self.gamma.text()})"


class Roof:
    """A positive piecewise-constant roof over a base automorphism.

    ``breakpoints`` partition the base circle (first one must be 0) and
    ``heights`` are the exact cell heights.  Exactness (err 0 walls and
    heights) is required: every special-flow event time is derived from
    these values and must stay exactly rational.
    """

    __slots__ = ("walls", "heights", "base", "_heights_fr")

    def __init__(self, breakpoints: Sequence[Real], heights: Sequence[Real], base: BaseMap):
        self.walls = Walls([FixedReal.of(b) for b in breakpoints])
        heights = tuple(FixedReal.of(h) for h in heights)
        if len(heights) != len(self.walls):
            raise ValueError("need exactly one height per roof cell")
        if not self.walls.exact or any(not h.is_exact for h in heights):
            raise ValueError("roof breakpoints and heights must be exact fixed-point values")
        if any(h.mantissa <= 0 for h in heights):
            raise ValueError("roof heights must be positive")
        self.heights = heights
        self.base = base
        self._heights_fr = tuple(h.to_fraction() for h in heights)

    @classmethod
    def constant(cls, height: Real, base: BaseMap) -> "Roof":
        return cls([0], [height], base)

    def cell_of(self, a: FixedReal) -> int:
        return self.walls.locate(a)

    def height_at(self, a: FixedReal) -> Fraction:
        return self._heights_fr[self.walls.locate(a)]

    def height_of_cell(self, i: int) -> Fraction:
        return self._heights_fr[i]

    def area(self) -> Fraction:
        """Total (unnormalized) phase-space area under the roof."""
        return sum(
            (w * h for w, h in zip(self.walls.widths(), self._heights_fr)),
            Fraction(0),
        )

    def __repr__(self) -> str:
        hs = ", ".join(str(h) for h in self._heights_fr)
        return f"Roof(heights=[{hs}] over {self.base!r})"


class SpecialFlowState:
    """A point ``(a, b)`` of the region under the roof, ``0 <= b < r(a)``.

    ``b`` is held as an exact rational so that flowing by exact durations
    stays exact; any dyadic FixedReal converts losslessly.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Real, b: Real = 0):
        self.a = FixedReal.of(a).frac()
        self.b = as_fraction(b)
        if self.b < 0:
            raise ValueError("height coordinate must be non-negative")

    def __iter__(self):
        yield self.a
        yield self.b

    def __repr__(self) -> str:
        return f"SpecialFlowState(a={float(self.a):.12f}, b={self.b})"


def special_flow_step(
    roof: Roof, state: SpecialFlowState, t: Real
) -> tuple[SpecialFlowState, int]:
    """Flow ``(a, b)`` upward for duration ``t``, gluing ``(a, r(a)) ~ (P a, 0)``.

    Returns the final state and the number of roof crossings.  When the
    residual time lands exactly on the roof the gluing applies (the new
    state has height 0, matching the half-open convention).  The first
    crossing uses up the start's room ``r(a) - b > 0`` and each later one a
    whole roof height, so there are at most ``ceil(t / min height)``.
    Raises :class:`ValueError` for a start on or above the roof.
    """
    remaining = as_fraction(t)
    if remaining < 0:
        raise ValueError("flow duration must be non-negative")
    a, b = state.a, state.b
    room = roof.height_at(a) - b
    if room <= 0:
        raise ValueError("state lies on or above the roof")
    crossings = 0
    while remaining >= room:
        remaining -= room
        a = roof.base.apply(a)
        b = Fraction(0)
        crossings += 1
        room = roof.height_at(a)
    return SpecialFlowState(a, b + remaining), crossings


def flow_distance(roof: Roof, s: SpecialFlowState, t: SpecialFlowState) -> Fraction:
    """Product-chart distance max(base circle distance, height difference).

    The chart ignores the gluing at the roof, which is the documented
    convention for near-return detection.  The value is nominal: it drops
    the base distance's error radius.  ``flow_zero_near_returns`` decides
    ``< eps`` against that error interval instead, raising
    :class:`~ergolab.errors.PrecisionExhaustedError` when it straddles eps,
    and reports this nominal value for the events it keeps.
    """
    base_d = circle_distance(s.a, t.a).to_fraction()
    height_d = abs(s.b - t.b)
    return max(base_d, height_d)
