"""Zero-mean observables over the base systems, and their orbit sums/integrals.

Three observable families:

* :class:`StepCocycle` — piecewise constant on circle cells, integer-valued
  in cascade mode.  Birkhoff sums are exact integers.
* :class:`PhaseFunction` — rectangle-constant on the region under a roof.
  The orbit integral of a special flow against it is piecewise linear in
  time; :func:`integral_profile` returns its exact node list.
* :class:`TrigPolynomial` — a trigonometric polynomial without constant
  term on the 2-torus.  Orbit integrals along a winding have closed form
  and are evaluated in floating point (documented 1e-12 territory).

The module also houses the one certified cell classifier for rotation
orbits, :func:`certified_cells`: a numpy scan of one start that classifies
points by their top 64 mantissa bits and decides at full 192-bit guarded
precision the steps that :func:`steps_within` lists near a wall.  That
listing rests on one exact integer primitive, the three-gap walk
:func:`arc_returns` over the returns of ``n alpha`` to an arc, which also
lists the near times of sparse and rational near scans and the suspect
steps of the excess sweep.  Zero-sum scans, dense near-return times
(cells of the displacement ``n alpha`` against walls at the eps
boundaries), the roof crossings of special flows over rotations
(:func:`_rotation_walk`) and the base cells of telescoped skew orbits run
on the kernel, and its cells equal those of :func:`guarded_walk`.  Its certificate in word form, :func:`word_cells`,
places the top words of many starts on the ``2**-64`` grid at once and
leaves those near a wall to a 192-bit test: the induced statistics over
an irrational rotation step every excursion on it.

A special flow over an interval exchange walks every roof crossing
(:func:`_flow_walk`), as :func:`integral_profile` does on any base.  Every
other orbit runs on one of two per-step walks.  :func:`guarded_walk`
places each point on the 192-bit grid or refuses with its step (Birkhoff
sums, interval-exchange scans, single induced excursions, skew orbits
that do not telescope; a near scan walks without a cocycle).  Its exact integer twin
:func:`rational_walk` steps a rational angle from a rational start and
never refuses (rational zero-sum laps, induced excursions and Birkhoff
sums).
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import PrecisionExhaustedError, ResonantFrequencyError
from .fixedpoint import MAX_ERR_ULPS, ONE, SCALE, FixedReal, Real, Walls, as_fraction, orbit_point
from .systems import (
    BaseMap,
    CircleRotation,
    Roof,
    SpecialFlowState,
    TorusPoint,
    TorusWinding,
)

_LOW_BITS = SCALE - 64  # coarse kernel keeps the top 64 of 192 bits
PAST_HORIZON = "the orbit horizon exceeds the scans' step limit"


class StepCocycle:
    """A zero-mean step function on the circle.

    ``breakpoints`` start at 0 and must be exact (dyadic) so that the
    zero-mean condition is checkable exactly; ``values`` are integers
    (cascade mode) or exact rationals (flow mode).  The mean
    ``sum(width * value)`` must vanish identically.
    """

    __slots__ = ("walls", "values", "is_integer")

    def __init__(self, breakpoints: Sequence[Real], values: Sequence[Real]):
        self.walls = Walls([FixedReal.of(b) for b in breakpoints])
        if not self.walls.exact:
            raise ValueError("cocycle breakpoints must be exact fixed-point values")
        if len(values) != len(self.walls):
            raise ValueError("need exactly one value per cell")
        self.is_integer = all(isinstance(v, int) for v in values)
        if self.is_integer:
            self.values: tuple = tuple(int(v) for v in values)
        else:
            self.values = tuple(as_fraction(v) for v in values)
        mean = sum(
            (w * Fraction(v) for w, v in zip(self.walls.widths(), self.values)),
            Fraction(0),
        )
        if mean != 0:
            raise ValueError(f"cocycle mean must be exactly zero, got {mean}")

    @classmethod
    def step_at_half(cls) -> "StepCocycle":
        """The workhorse example: +1 on [0, 1/2), -1 on [1/2, 1)."""
        return cls([0, Fraction(1, 2)], [1, -1])

    def value_at(self, p: FixedReal):
        """Value at a circle point (guarded classification, half-open cells)."""
        return self.values[self.walls.locate(p)]

    def __repr__(self) -> str:
        cells = ", ".join(str(v) for v in self.values)
        return f"StepCocycle({len(self.values)} cells: {cells})"


# --------------------------------------------------------------------------- #
# exact fast kernel for rotation orbits
# --------------------------------------------------------------------------- #


def least_multiple_in_range(a: int, m: int, lo: int, hi: int) -> int | None:
    """The least ``x >= 0`` with ``lo <= a x mod m <= hi``, or None if there is none.

    ``0 <= lo`` and ``hi < m``; an empty range (``lo > hi``) has none.  If
    no multiple of ``a`` lies in ``[lo, hi]``, the least ``x`` has
    ``a x - m y`` in it for the least ``y >= 1`` with ``m y mod a`` in
    ``[-hi mod a, -lo mod a]``: the same question on ``(m mod a, a)``, so
    the recursion takes Euclid's O(log m) steps on exact integers.
    """
    if lo > hi:
        return None
    if lo == 0:
        return 0
    a %= m
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    y = least_multiple_in_range(m % a, a, -hi % a, -lo % a)
    return None if y is None else -(-(lo + m * y) // a)


def _first_entry(a: int, m: int, start: int, length: int) -> int | None:
    """The least ``n >= 1`` with ``n a mod m`` in the arc ``[start, start + length)`` mod m."""
    lo = (start - a) % m  # where (n - 1) a must land
    if lo + length > m:  # that arc holds 0: n = 1
        return 1
    x = least_multiple_in_range(a, m, lo, lo + length - 1)
    return None if x is None else x + 1


def return_gaps(a: int, m: int, length: int) -> tuple[int, int | None]:
    """``(t1, t2)``: the least ``n >= 1`` with ``n a mod m`` in ``[0, length)`` and in ``(m - length, m)``.

    ``1 <= length <= m``.  By the three-gap theorem (Sos 1958, Slater 1967)
    a point of an arc of that length returns to it after ``t1``, ``t2`` or
    ``t1 + t2`` steps, so no return gap is below ``min(t1, t2)``.  ``t2``
    is None where no step lands in ``(m - length, m)``; then ``t1`` is
    the period of ``n a mod m`` and every return takes it.
    """
    return _first_entry(a, m, 0, length), _first_entry(a, m, m - length + 1, length - 1)


def arc_returns(
    a: int, m: int, start: int, length: int, count: int, gaps: tuple | None = None
) -> list[int]:
    """The ascending times ``1 <= n <= count`` with ``n a mod m`` in ``[start, start + length)`` mod m.

    ``1 <= length <= m``.  Three-gap walk: with ``(t1, t2)`` of
    :func:`return_gaps` (``gaps``, if the caller has them), ``d1 = t1 a
    mod m`` and ``d2 = -t2 a mod m``, a point ``y`` past the arc's start
    returns after ``t1`` steps if ``y + d1 < length``, else after ``t2`` if
    ``y >= d2``, else after ``t1 + t2``.  Exact integers throughout, one
    iteration per time; an arc first entered past ``count`` costs one
    :func:`_first_entry`.  ``m`` is ``2**192``, or ``q`` for a rational ``p/q``.
    """
    n = _first_entry(a, m, start, length)
    if n is None or n > count:
        return []
    t1, t2 = gaps or return_gaps(a, m, length)
    d1, d2 = t1 * a % m, m if t2 is None else -t2 * a % m
    y = (n * a - start) % m
    times = []
    while n <= count:
        times.append(n)
        if y + d1 < length:
            n, y = n + t1, y + d1
        elif y >= d2:
            n, y = n + t2, y - d2
        else:
            n, y = n + t1 + t2, y + d1 - d2
    return times


def steps_within(a: int, m: int, x: int, point: int, radius: int, count: int) -> list[int]:
    """The ascending steps ``0 <= n < count`` with ``x + n a mod m`` within ``radius`` of ``point``.

    ``0 <= 2 radius < m``: the arc ``[point - radius, point + radius]``
    holds step 0 or not, and :func:`arc_returns` lists the rest.
    """
    start = (point - radius - x) % m
    head = [0] if count > 0 and -start % m <= 2 * radius else []
    return head + arc_returns(a, m, start, 2 * radius + 1, count - 1)


def _exact_cell(walls: Walls, mantissa: int, err: int, step: int) -> int:
    try:
        return walls.locate(FixedReal(mantissa, err))
    except PrecisionExhaustedError as exc:
        raise PrecisionExhaustedError(str(exc), step=step) from None


_BLOCK = 1 << 16


def certified_cells(
    rotation: CircleRotation, walls: Walls, start: FixedReal, count: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Iterate ``(offset, cells)``: the cells of ``S^i x``, ``x = start``, from step ``offset`` on.

    ``cells`` is a nonempty int64 array of at most ``2**16`` consecutive
    steps.  A horizon of ``2**62`` steps or more is refused at the call;
    every other refusal is that of :func:`birkhoff_sums`, with its step and
    message, raised only when the caller reads past the steps before it.

    Certificate: the top-64-bit word of step ``i``, stepped in uint64, lags
    the point's own word by at most ``i`` words.  The scan ends at the
    first step whose radius passes ``MAX_ERR_ULPS = 2**96`` ulps, so a step
    whose nominal point lies more than ``R = (steps + 2) 2**128`` ulps from
    every wall has its word on the point's side of every wall word, and its
    interval clear of every wall.  :func:`steps_within` lists the other
    steps, and that last one; :meth:`Walls.locate` decides them in step
    order.  Every other word is placed among the wall words by one search.
    """
    a_m, a_e = rotation.alpha.resolved.mantissa, rotation.alpha.resolved.err_ulps
    x_m, x_e = start.mantissa % ONE, start.err_ulps
    if count >= 1 << 62:
        raise PrecisionExhaustedError(PAST_HORIZON)
    room = MAX_ERR_ULPS - x_e
    past = 0 if room < 0 else room // a_e + 1 if a_e else count  # the first step past the margin
    steps = min(count, past + 1)

    def blocks() -> Iterator[tuple[int, np.ndarray]]:
        reach = (steps + 2) << _LOW_BITS
        near = (n for w in walls.mantissas for n in steps_within(a_m, ONE, x_m, w, reach, steps))
        listed = sorted({past, *near})
        wall_words = np.array([w >> _LOW_BITS for w in walls.mantissas], dtype=np.uint64)
        a64, x64 = np.uint64(a_m >> _LOW_BITS), np.uint64(x_m >> _LOW_BITS)
        for offset in range(0, steps, _BLOCK):
            words = np.arange(offset, min(offset + _BLOCK, steps), dtype=np.uint64) * a64 + x64
            cells = np.searchsorted(wall_words, words, side="right") - 1
            for i in listed[bisect_left(listed, offset):bisect_left(listed, offset + len(cells))]:
                try:
                    cells[i - offset] = _exact_cell(walls, (x_m + i * a_m) % ONE, x_e + i * a_e, i)
                except PrecisionExhaustedError:
                    if i > offset:
                        yield offset, cells[:i - offset]
                    raise
            yield offset, cells

    return blocks()


def word_cells(
    rotation: CircleRotation, walls: Walls
) -> tuple[np.uint64, Callable[[np.ndarray, int], np.ndarray]]:
    """The word form of :func:`certified_cells`' certificate: ``(a64, cells)`` for starts on the 2**-64 grid.

    ``a64`` is the top word of the angle's mantissa, so the exact start
    ``u 2**-64`` has the word ``u + n a64 mod 2**64`` at step ``n``: stepped
    in uint64, it lags the point's own word by at most ``n``.
    ``cells(words, lag)`` places such words among the exact ``walls``; the
    caller keeps the points' radius below ``2**128`` ulps.  Each point's
    interval then lies within the words ``word - 1`` to ``word + lag + 1``,
    so a word at least 3 above the wall word below it and at least ``lag +
    5`` below the next one, wall 0 counted again at the seam, has the
    interval inside its word's cell: it lies outside every band ``[w - (lag
    + 4), w + 3)`` of a wall word ``w``.  ``cells`` returns the int64 cell
    per word, -1 in a band; those points are the caller's to decide at 192
    bits.
    """
    below = np.array([m >> _LOW_BITS for m in walls.mantissas], dtype=np.uint64)
    above = np.roll(below, -1)  # past the last wall, 0 - word wraps to 2**64 - word

    def cells(words: np.ndarray, lag: int) -> np.ndarray:
        cell = np.searchsorted(below, words, side="right") - 1
        clear = (words - below[cell] >= 3) & (above[cell] - words >= lag + 5)
        return np.where(clear, cell, -1)

    return np.uint64(rotation.alpha.resolved.mantissa >> _LOW_BITS), cells


# --------------------------------------------------------------------------- #
# Birkhoff sums
# --------------------------------------------------------------------------- #


def _one_cell(p: FixedReal) -> int:
    if p.err_ulps > MAX_ERR_ULPS:
        p.frac()  # refuses it, with the message of Walls.locate
    return 0


def guarded_walk(base: BaseMap, f: StepCocycle | None, x: FixedReal, count: int) -> Iterator:
    """Yield ``(S_n f(x), S^n x)`` for ``n = 1, ..., count``: the guarded orbit walk.

    ``x`` is a circle point in ``[0, 1)``.  Step ``i`` locates the cell of
    ``S^i x``, raising :class:`PrecisionExhaustedError` with ``step=i``
    where it cannot, then applies ``base`` once; a refusal inside
    ``base.apply`` (an interval exchange's own walls) passes through
    without a step.  ``f=None`` steps the orbit alone, every sum 0, and
    still refuses a radius past the safety margin at its step.  O(1) memory.
    """
    locate, values = (_one_cell, (0,)) if f is None else (f.walls.locate, f.values)
    total, p, apply = 0, x, base.apply
    for i in range(count):
        try:
            total += values[locate(p)]
        except PrecisionExhaustedError as exc:
            raise PrecisionExhaustedError(str(exc), step=i) from None
        p = apply(p)
        yield total, p


def grid_edges(walls: Walls, scale: int) -> list[int]:
    """Per wall ``m / 2**192``, the least ``pos = ceil(m scale / 2**192)`` at or past it."""
    return [-((-m * scale) >> SCALE) for m in walls.mantissas]


def rational_walk(alpha: Fraction, f: StepCocycle, x: Fraction, count: int) -> Iterator[tuple]:
    """Yield ``(S_n f(x), pos_n)`` for ``n = 1, ..., count``: the exact integer twin of :func:`guarded_walk`.

    The rotation by ``alpha = p/q`` from the rational ``x`` moves on the
    integers mod ``scale = lcm(q, den x)``: ``S^n x = pos_n / scale``, and a
    step adds ``p scale / q``.  A point lies at or past a wall exactly when
    ``pos`` is at or past the wall's :func:`grid_edges`, so every cell is
    decided exactly and nothing is refused.  A rational-valued ``f`` sums
    ``Fraction``s.  O(1) memory.  Near residues need no walk (:func:`arc_returns`).
    """
    x %= 1
    scale = math.lcm(alpha.denominator, x.denominator)
    step = alpha.numerator * (scale // alpha.denominator) % scale
    pos = x.numerator * (scale // x.denominator)
    # the edge of wall 0 is 0: a cell is the number of the other edges at or below pos
    edges, values = grid_edges(f.walls, scale)[1:], f.values
    turn, back = scale - step, step - scale  # pos + step wraps exactly from pos >= turn on
    total = 0
    for _ in range(count):
        total += values[bisect_right(edges, pos)]
        pos = pos + step if pos < turn else pos + back
        yield total, pos


def birkhoff_sums(base: BaseMap, f: StepCocycle, x: FixedReal, count: int) -> Iterator[int]:
    """Stream the exact partial sums ``S_1, ..., S_count`` of ``f`` along the orbit.

    Pure big-integer loop, O(1) memory: this is the slow, independent
    reference path that the fast detectors are validated against.  Integer
    cocycles only (cascade mode).  A rational angle with an exact start
    runs on :func:`rational_walk`, every other orbit on
    :func:`guarded_walk`.
    """
    if not f.is_integer:
        raise ValueError("cascade scans need an integer-valued cocycle")
    if count < 0:
        raise ValueError("count must be non-negative")
    if isinstance(base, CircleRotation) and base.is_rational and x.is_exact:
        walk = rational_walk(base.alpha.as_fraction(), f, x.to_fraction(), count)
    else:
        walk = guarded_walk(base, f, FixedReal(x.mantissa % ONE, x.err_ulps), count)
    for total, _ in walk:
        yield total


# --------------------------------------------------------------------------- #
# phase functions over a roof
# --------------------------------------------------------------------------- #


class PhaseFunction:
    """Rectangle-constant observable on the region under a roof.

    For each roof cell, ``bands`` lists ``(height, value)`` pairs stacking
    from the floor to the roof: the function equals ``value`` on
    ``cell x [band_lo, band_hi)``.  Band heights must fill the cell height
    exactly, and the area-weighted mean over the whole region must vanish
    identically (checked in exact rational arithmetic).
    """

    __slots__ = ("roof", "band_tops", "band_values")

    def __init__(self, roof: Roof, bands_per_cell: Sequence[Sequence[tuple[Real, Real]]]):
        if len(bands_per_cell) != len(roof.walls):
            raise ValueError("need one band list per roof cell")
        tops: list[tuple[Fraction, ...]] = []
        vals: list[tuple[Fraction, ...]] = []
        mean = Fraction(0)
        widths = roof.walls.widths()
        for cell, bands in enumerate(bands_per_cell):
            if not bands:
                raise ValueError("each cell needs at least one band")
            cum = Fraction(0)
            cell_tops: list[Fraction] = []
            cell_vals: list[Fraction] = []
            for height, value in bands:
                h = as_fraction(height)
                v = as_fraction(value)
                if h <= 0:
                    raise ValueError("band heights must be positive")
                cum += h
                cell_tops.append(cum)
                cell_vals.append(v)
                mean += widths[cell] * h * v
            if cum != roof.height_of_cell(cell):
                raise ValueError(
                    f"bands of cell {cell} stack to {cum}, roof height is "
                    f"{roof.height_of_cell(cell)}"
                )
            tops.append(tuple(cell_tops))
            vals.append(tuple(cell_vals))
        if mean != 0:
            raise ValueError(f"phase function mean must be exactly zero, got {mean}")
        self.roof = roof
        self.band_tops = tuple(tops)
        self.band_values = tuple(vals)

    @classmethod
    def from_base_values(cls, roof: Roof, values: Sequence[Real]) -> "PhaseFunction":
        """Height-independent phase function: one full-height band per cell."""
        bands = [[(roof.height_of_cell(i), v)] for i, v in enumerate(values)]
        return cls(roof, bands)

    def value_at(self, state: SpecialFlowState) -> Fraction:
        cell = self.roof.cell_of(state.a)
        tops = self.band_tops[cell]
        band = bisect_right(tops, state.b)
        if band >= len(tops):
            raise ValueError("state lies on or above the roof")
        return self.band_values[cell][band]

    def __repr__(self) -> str:
        n = sum(len(t) for t in self.band_tops)
        return f"PhaseFunction({n} rectangles over {len(self.band_tops)} cells)"


class IntegralProfile:
    """The piecewise-linear orbit integral ``t -> integral_0^t f(T_s x) ds``.

    ``nodes`` are exact ``(time, value)`` pairs at every band/roof crossing,
    starting at ``(0, 0)`` and ending at the scan horizon.  Between nodes
    the slope is the active rectangle's value.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: Sequence[tuple[Fraction, Fraction]]):
        self.nodes = list(nodes)

    @property
    def horizon(self) -> Fraction:
        return self.nodes[-1][0]

    def value_at(self, t: Real) -> Fraction:
        """Exact value at ``0 <= t <= horizon`` by linear interpolation."""
        t = as_fraction(t)
        if not 0 <= t <= self.horizon:
            raise ValueError("t outside the computed profile")
        times = [node[0] for node in self.nodes]
        j = bisect_right(times, t) - 1
        if j == len(self.nodes) - 1:
            return self.nodes[-1][1]
        t1, s1 = self.nodes[j]
        t2, s2 = self.nodes[j + 1]
        return s1 + (s2 - s1) * (t - t1) / (t2 - t1)

    def zeros(self) -> list[Fraction]:
        """Times ``0 < t <= horizon`` where the profile vanishes.

        A segment that starts at value 0 contributes its left endpoint (so a
        stretch where the integral sits at 0 is reported by its node grid,
        not flooded); a sign change inside a segment contributes the exact
        interior crossing.
        """
        out: list[Fraction] = []
        for j in range(len(self.nodes) - 1):
            t1, s1 = self.nodes[j]
            t2, s2 = self.nodes[j + 1]
            if s1 == 0:
                if t1 > 0:
                    out.append(t1)
            elif (s1 < 0 < s2) or (s2 < 0 < s1):
                out.append(t1 + (t2 - t1) * s1 / (s1 - s2))
        t_last, s_last = self.nodes[-1]
        if s_last == 0 and t_last > 0:
            out.append(t_last)
        return out

    def __repr__(self) -> str:
        return f"IntegralProfile({len(self.nodes)} nodes, horizon={self.horizon})"


def _flow_units(
    roof: Roof, f: PhaseFunction, state: SpecialFlowState, t_max: Real
) -> tuple[int, int, int, list, list, int, int]:
    """Check a special-flow walk and scale it to integers: ``(den, vden, end, tops, vals, b, cell)``.

    Times and heights are integers in units of ``1/den``, the lcm of the
    denominators of ``t_max``, the start height and every band top (roof
    heights are the last band tops), so every node time is one.  Band
    values are integers in units of ``1/vden``, the lcm of their
    denominators, and an integral is an integer in units of
    ``1/(den * vden)``.  ``end`` is the horizon, ``tops`` and ``vals`` hold
    the band tops and values per roof cell, ``b`` is the start height and
    ``cell`` the start's roof cell, whose refusal names crossing 0.  A
    start on or above the roof raises :class:`ValueError`.
    """
    if f.roof is not roof:
        raise ValueError("phase function was built over a different roof")
    horizon = as_fraction(t_max)
    if horizon <= 0:
        raise ValueError("t_max must be positive")
    cell = _exact_cell(roof.walls, state.a.mantissa, state.a.err_ulps, 0)
    if state.b >= roof.height_of_cell(cell):
        raise ValueError("state lies on or above the roof")
    den = math.lcm(
        horizon.denominator,
        state.b.denominator,
        *(top.denominator for tops in f.band_tops for top in tops),
    )
    vden = math.lcm(*(v.denominator for vals in f.band_values for v in vals))
    tops = [[top.numerator * (den // top.denominator) for top in ts] for ts in f.band_tops]
    vals = [[v.numerator * (vden // v.denominator) for v in vs] for vs in f.band_values]
    end = horizon.numerator * (den // horizon.denominator)
    return den, vden, end, tops, vals, state.b.numerator * (den // state.b.denominator), cell


def _crossing(
    tops: list[int], vals: list[int], end: int, k: int, a: FixedReal, t: int, sigma: int, b: int
) -> Iterator[tuple]:
    """Yield the pieces of roof crossing ``k`` over ``a``, from height ``b`` at time ``t`` and integral ``sigma``.

    One piece of :func:`_flow_walk` per band of the cell (``tops``,
    ``vals``) from ``b`` up, to the roof or to the horizon ``end``.  Returns
    ``(t, sigma)`` at the roof, or None where the horizon ends the walk.
    """
    last = len(tops) - 1
    for band in range(bisect_right(tops, b), last + 1):
        top, v = tops[band], vals[band]
        dt = top - b
        if t + dt >= end:
            yield t, sigma, k, a, b, end - t, v, band == last and t + dt == end
            return None
        yield t, sigma, k, a, b, dt, v, band == last
        t, sigma, b = t + dt, sigma + v * dt, top
    return t, sigma


def _flow_walk(
    roof: Roof, f: PhaseFunction, state: SpecialFlowState, t_max: Real
) -> tuple[int, int, Iterator[tuple]]:
    """Walk the special flow from ``state`` to ``t_max`` once, in scaled integers.

    Returns ``(den, vden, segments)`` in the units of :func:`_flow_units`.
    ``segments`` yields one ``(t, sigma, k, a, b, dt, v, on_roof)`` per
    linear piece of the profile: it starts at time ``t`` in the state
    ``(a, b)`` of roof crossing ``k`` (the start is crossing 0), after any
    gluing, with integral ``sigma``, lasts ``dt`` at slope ``v`` and ends on
    the roof when ``on_roof``.  The last piece ends at the horizon.  Each
    roof crossing applies the base map once and locates the new point's
    cell once; a refusal in either names the crossing.  The horizon bounds
    the walk: the first crossing uses up the start's room and each later
    one a whole roof height, so it makes at most ``ceil(t_max / min
    height)``.  Interval-exchange roofs find their zeros on this walk, and
    :func:`integral_profile` takes every node from it on any base.
    """
    den, vden, end, tops, vals, b, cell = _flow_units(roof, f, state, t_max)
    locate, apply = roof.walls.locate, roof.base.apply

    def segments(k: int, a: FixedReal, cell: int, b: int) -> Iterator[tuple]:
        t = sigma = 0
        while ends := (yield from _crossing(tops[cell], vals[cell], end, k, a, t, sigma, b)):
            (t, sigma), b, k = ends, 0, k + 1
            try:
                a = apply(a)
                cell = locate(a)
            except PrecisionExhaustedError as exc:
                raise PrecisionExhaustedError(str(exc), step=k) from None

    return den, vden, segments(0, state.a, cell, b)


def _rotation_walk(
    roof: Roof, f: PhaseFunction, state: SpecialFlowState, t_max: Real
) -> tuple[int, int, Iterator[tuple]]:
    """The pieces of :func:`_flow_walk` over a rotation, at the crossings that can hold a zero.

    Roof crossing ``k`` sits at ``S^k a``, the point that ``k`` calls of
    ``apply`` give, so one :func:`certified_cells` pass places every
    crossing up to the horizon: the start's room takes the first, each
    later one at least the least roof height, so ``ceil((t_max - room) /
    min height) + 1`` crossings hold it.  A crossing adds its cell's roof
    height to the time and its full integral to the integral; block by
    block, prefix sums of both give each crossing's start time and
    integral, up to the block that holds the horizon.  A crossing holds a
    zero exactly where its integral takes both signs, or is 0 at the start
    of a piece: its start integral plus the cell's least partial integral
    (at 0, a band top or the roof) is below 0 and plus the greatest above
    0, or plus the least or greatest at a piece start (0 or a band top) is
    0.  Only those crossings, the horizon's too, are walked with the band
    logic of :func:`_flow_walk`, so the zeros are those of the full walk.
    Sums are int64 while ``max |value| * (crossings + 1) < 2**62`` and
    Python integers past that.

    The scan reads no kernel block past the one that holds the horizon, so
    a kernel refusal, past the safety margin too, surfaces exactly where
    the horizon lies at or past its crossing, as in the full walk.
    """
    den, vden, end, tops, vals, b, cell = _flow_units(roof, f, state, t_max)
    partials = [  # per cell, the integral at 0, at each band top and at the roof
        list(accumulate((v * (top - lo) for lo, top, v in zip([0, *ts], ts, vs)), initial=0))
        for ts, vs in zip(tops, vals)
    ]
    heights = [ts[-1] for ts in tops]
    band = bisect_right(tops[cell], b)
    bottom = tops[cell][band - 1] if band else 0
    room = heights[cell] - b
    rest = partials[cell][-1] - partials[cell][band] - vals[cell][band] * (b - bottom)
    count = max(0, -(-(end - room) // min(heights))) + 1
    bound = max(room, abs(rest), *heights, *(abs(p) for ps in partials for p in ps))
    dtype = object if bound * (count + 1) >= 1 << 62 else np.int64
    height = np.array(heights, dtype=dtype)
    full, least, most, least_start, most_start = (
        np.array(col, dtype=dtype)
        for col in zip(*((ps[-1], min(ps), max(ps), min(ps[:-1]), max(ps[:-1])) for ps in partials))
    )
    crossings, t, sigma = [], 0, 0  # (k, cell, t, sigma) per crossing to walk
    for offset, cells in certified_cells(roof.base, roof.walls, state.a, count):
        dt, ds = height[cells], full[cells]
        if offset == 0:
            dt[0], ds[0] = room, rest
        t_end, s_end = np.cumsum(dt) + t, np.cumsum(ds) + sigma
        t_at, s_at = t_end - dt, s_end - ds
        # crossing 0 is a hit: its integral starts at 0, at a piece start
        hit = ((s_at + least[cells] < 0) & (s_at + most[cells] > 0)
               | (s_at + least_start[cells] == 0) | (s_at + most_start[cells] == 0))
        stop = int(np.searchsorted(t_end, end))  # the crossing that reaches the horizon
        hit[stop:stop + 1], hit[stop + 1:] = True, False  # both empty if it lies past the block
        i = np.flatnonzero(hit)
        crossings += zip((i + offset).tolist(), cells[i].tolist(), t_at[i].tolist(), s_at[i].tolist())
        if stop < len(cells):
            break
        t, sigma = t_end[-1], s_end[-1]

    def segments() -> Iterator[tuple]:
        for k, c, t, sigma in crossings:  # every crossing read lies within the safety margin
            a = orbit_point(roof.base.alpha.resolved, k, state.a)
            yield from _crossing(tops[c], vals[c], end, k, a, t, sigma, 0 if k else b)

    return den, vden, segments()


def integral_profile(
    roof: Roof, f: PhaseFunction, state: SpecialFlowState, t_max: Real
) -> IntegralProfile:
    """Exact orbit-integral profile of the special flow started at ``state``.

    One node per band or roof crossing and one at the horizon, from the
    scaled-integer walk; all node times and values are exact rationals.
    """
    den, vden, segments = _flow_walk(roof, f, state, t_max)
    nodes = [(Fraction(0), Fraction(0))]
    for t, sigma, _, _, _, dt, v, _ in segments:
        nodes.append((Fraction(t + dt, den), Fraction(sigma + v * dt, den * vden)))
    return IntegralProfile(nodes)


def _flow_zeros(
    roof: Roof, f: PhaseFunction, state: SpecialFlowState, t_max: Real
) -> list[tuple]:
    """``(tn, bn, d, k, a)`` per zero ``0 < t <= t_max`` of the orbit integral, in time order.

    The zero lies at time ``tn / d`` and height ``bn / d`` (``d > 0``) over
    the base point ``a`` of roof crossing ``k``: the rows of
    :func:`iter_flow_zeros`, before any ``Fraction`` is built.  A rotation
    base walks :func:`_rotation_walk`, any other base :func:`_flow_walk`.
    The list is whole when it is returned, so a refusal of the walk comes
    before any test of its zeros.
    """
    walk = _rotation_walk if isinstance(roof.base, CircleRotation) else _flow_walk
    den, _, segments = walk(roof, f, state, t_max)
    zeros = []
    for t, sigma, k, a, b, dt, v, on_roof in segments:
        if sigma == 0:
            if t:
                zeros.append((t, b, den, k, a))
            continue
        after = sigma + v * dt
        if (sigma < 0 < after) or (after < 0 < sigma):
            # sigma + v * s = 0 at s = num / dv, strictly inside the piece
            num, dv = (-sigma, v) if v > 0 else (sigma, -v)
            zeros.append((t * dv + num, b * dv + num, dv * den, k, a))
    if sigma + v * dt == 0:
        if on_roof:  # the glued state (S a, 0) opens the next crossing
            k, b = k + 1, 0
            try:
                a = roof.base.apply(a)
                roof.walls.locate(a)
            except PrecisionExhaustedError as exc:
                raise PrecisionExhaustedError(str(exc), step=k) from None
        else:
            b += dt
        zeros.append((t + dt, b, den, k, a))
    return zeros


def iter_flow_zeros(
    roof: Roof, f: PhaseFunction, state: SpecialFlowState, t_max: Real
) -> Iterator[tuple[Fraction, SpecialFlowState]]:
    """Yield ``(t, T_t state)`` at each zero ``0 < t <= t_max`` of the orbit integral.

    The times are those of ``integral_profile(...).zeros()``, in order: a
    node where the integral is 0 once, an interior sign change at its exact
    crossing time.  The states are those of :func:`special_flow_step` from
    ``state``: a zero on the roof, at the horizon too, reports the glued
    state ``(P a, 0)``, whose cell is located like every other base point of
    the walk.  Over a rotation the roof cells come from one certified
    kernel pass and only the crossings that can hold a zero are walked
    (:func:`_rotation_walk`); over an interval exchange every crossing is
    (:func:`_flow_walk`).  Both give the same zeros, and a refusal names its
    roof crossing.  The whole walk ends before the first zero is yielded.
    """
    for tn, bn, d, _, a in _flow_zeros(roof, f, state, t_max):
        yield Fraction(tn, d), SpecialFlowState(a, Fraction(bn, d))


def orbit_integral(
    roof: Roof, f: PhaseFunction, state: SpecialFlowState, t: Real
) -> Fraction:
    """Exact ``integral_0^t f(T_s x) ds`` (the profile's endpoint value)."""
    t = as_fraction(t)
    if t == 0:
        return Fraction(0)
    return integral_profile(roof, f, state, t).nodes[-1][1]


# --------------------------------------------------------------------------- #
# trigonometric polynomials on the torus
# --------------------------------------------------------------------------- #


class TrigPolynomial:
    """``sum_j,k  c_jk cos(2 pi (j x + k y)) + s_jk sin(2 pi (j x + k y))``.

    The constant mode ``(j, k) = (0, 0)`` is forbidden, which makes the
    torus-average zero automatically.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, int, float, float]]):
        terms = tuple(
            (int(j), int(k), float(c), float(s)) for j, k, c, s in terms
        )
        if not terms:
            raise ValueError("at least one mode is required")
        if any(j == 0 and k == 0 for j, k, _, _ in terms):
            raise ValueError("the constant mode (0,0) is not allowed")
        self.terms = terms

    @classmethod
    def cos_x(cls) -> "TrigPolynomial":
        """cos(2 pi x), the standard winding test observable."""
        return cls([(1, 0, 1.0, 0.0)])

    def max_frequency(self) -> int:
        return max(max(abs(j), abs(k)) for j, k, _, _ in self.terms)

    def value(self, p: TorusPoint) -> float:
        x, y = float(p.x), float(p.y)
        total = 0.0
        for j, k, c, s in self.terms:
            phase = 2 * math.pi * (j * x + k * y)
            total += c * math.cos(phase) + s * math.sin(phase)
        return total

    def __repr__(self) -> str:
        return f"TrigPolynomial({len(self.terms)} modes)"


def mode_frequencies(winding: TorusWinding, f: TrigPolynomial) -> list[float]:
    """The frequency ``j + k*gamma`` of each mode of ``f`` along the winding.

    Raises :class:`ResonantFrequencyError` for a vanishing frequency, whose
    mode integrates to linear growth instead of a bounded oscillation.
    """
    gamma = winding.slope
    omegas = []
    for j, k, _, _ in f.terms:
        omega = j + k * gamma
        if abs(omega) < 1e-9:
            raise ResonantFrequencyError(
                f"resonant frequency: mode ({j}, {k}) has |j + k*gamma| < 1e-9"
            )
        omegas.append(omega)
    return omegas


def _winding_modes(
    winding: TorusWinding, f: TrigPolynomial, p: TorusPoint
) -> list[tuple[float, ...]]:
    """Per mode ``(c, s, phi0, 2 pi omega, sin phi0, cos phi0)`` of the integral from ``p``."""
    x, y = float(p.x), float(p.y)
    modes = []
    for (j, k, c, s), omega in zip(f.terms, mode_frequencies(winding, f)):
        phi0 = 2 * math.pi * (j * x + k * y)
        modes.append((c, s, phi0, 2 * math.pi * omega, math.sin(phi0), math.cos(phi0)))
    return modes


def _winding_sum(modes: list[tuple[float, ...]], t: float) -> float:
    total = 0.0
    for c, s, phi0, scale, sin0, cos0 in modes:
        phi1 = phi0 + scale * t
        total += c * (math.sin(phi1) - sin0) / scale
        total += s * (cos0 - math.cos(phi1)) / scale
    return total


def winding_integral(
    winding: TorusWinding, f: TrigPolynomial, p: TorusPoint, t: float
) -> float:
    """Closed-form ``integral_0^t f(x + s, y + gamma s) ds``.

    Each mode integrates to a sine/cosine difference over ``2 pi (j + k gamma)``;
    a vanishing frequency would grow linearly instead and raises
    :class:`ResonantFrequencyError`.  Float evaluation, ~1e-12 accuracy for
    tame mode counts.
    """
    return _winding_sum(_winding_modes(winding, f, p), t)


#: grid points per block of a winding zero scan
_WINDING_BLOCK = 1 << 16


def _winding_signs(modes: list[tuple[float, ...]], margin: float, t: np.ndarray) -> np.ndarray:
    """The sign of :func:`_winding_sum` at every ``t``, as a float array of -1, 0 and 1.

    numpy evaluates the scalar expression mode by mode in the same order,
    so only its sines and cosines may differ from libm's, by a few ulps.
    The sum is at most ``B = 2 sum (|c| + |s|) / |2 pi omega|`` in size, so
    the two sums differ by a few ulps of ``B`` per mode, far below the
    ``margin`` of ``2**-39 B``.  Beyond the margin numpy's sign is libm's;
    within it the scalar sum decides, exact zeros included.
    """
    total = np.zeros_like(t)
    for c, s, phi0, scale, sin0, cos0 in modes:
        phi1 = phi0 + scale * t
        total += c * (np.sin(phi1) - sin0) / scale
        total += s * (cos0 - np.cos(phi1)) / scale
    signs = np.sign(total)
    for i in np.flatnonzero(np.abs(total) <= margin).tolist():
        v = _winding_sum(modes, float(t[i]))
        signs[i] = (v > 0) - (v < 0)
    return signs


def _bisect_brackets(
    modes: list[tuple[float, ...]], margin: float,
    lo: np.ndarray, hi: np.ndarray, lo_signs: np.ndarray, tol: float,
) -> np.ndarray:
    """Bisect every sign-change bracket ``[lo, hi]`` in lockstep until it is ``tol`` wide.

    Each bracket takes the steps of the scalar bisection: the midpoint
    ``0.5 * (lo + hi)`` replaces the end whose sign it shares, and an exact
    zero closes the bracket on itself.  A bracket also stops when no float
    lies strictly between its ends, which happens only where one ulp of
    ``t`` exceeds ``tol`` (``t >= 2**13``).  Returns the final midpoints.
    """
    active = np.flatnonzero(hi - lo > tol)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        inside = (lo[active] < mid) & (mid < hi[active])
        active, mid = active[inside], mid[inside]
        signs = _winding_signs(modes, margin, mid)
        same = lo_signs[active]
        lo_side, hi_side = signs != -same, signs != same  # a zero moves both ends
        lo[active[lo_side]] = mid[lo_side]
        hi[active[hi_side]] = mid[hi_side]
        active = active[hi[active] - lo[active] > tol]
    return 0.5 * (lo + hi)


def _winding_grid(winding: TorusWinding, f: TrigPolynomial, t_max: float) -> tuple[float, int]:
    """``(grid_step, points)``: the bracketing grid of :func:`winding_zero_times` past 0.

    The step is ``1 / (8 * max_frequency * (1 + |gamma|))``, and the grid
    runs one step past ``t_max``, so a zero sitting exactly there still gets
    a sign-change bracket (float residue there can have either sign).
    """
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    grid_step = 1.0 / (8 * f.max_frequency() * (1 + abs(winding.slope)))
    return grid_step, int(math.ceil(t_max / grid_step)) + 1


def winding_zero_times(
    winding: TorusWinding,
    f: TrigPolynomial,
    p: TorusPoint,
    t_max: float,
) -> list[float]:
    """Zeros of the winding orbit integral in ``(0, t_max]``.

    Sign-change bracketing on the uniform grid of :func:`_winding_grid`
    followed by bisection to 1e-12 in t.  Tangential zeros that do not
    change sign across a grid cell can be missed; that limitation is
    inherent to bracketing and is acceptable for the transversal-crossing
    integrals this package studies.

    The grid runs in numpy blocks of ``2**16`` points, and each block's
    brackets are bisected together (:func:`_bisect_brackets`).  Every sign
    is the scalar integral's: numpy's sum decides it only where it lies
    beyond a margin far above libm's rounding, and :func:`_winding_sum`
    decides the rest (:func:`_winding_signs`), so the times are those of
    a point-by-point scan, bit for bit.
    """
    grid_step, steps = _winding_grid(winding, f, t_max)
    tol = 1e-12
    modes = _winding_modes(winding, f, p)
    margin = 2.0**-38 * sum((abs(c) + abs(s)) / abs(scale) for c, s, _, scale, _, _ in modes)

    slack = 8 * tol  # a zero bracketed just past the horizon is clamped back to it
    chunks = []
    prev = 0.0  # sigma(0) = 0 by definition; not a reported zero
    for first in range(1, steps + 1, _WINDING_BLOCK):
        # grid points first - 1 .. last: each point with the one before it
        t = np.arange(first - 1, min(first + _WINDING_BLOCK, steps + 1), dtype=np.float64) * grid_step
        signs = _winding_signs(modes, margin, t[1:])
        before = np.concatenate(([prev], signs[:-1]))
        prev = signs[-1]
        # a zero after a zero is already reported; a sign change is bracketed
        bracket = signs * before < 0
        roots = t[1:].copy()
        roots[bracket] = _bisect_brackets(
            modes, margin, t[:-1][bracket], roots[bracket], before[bracket], tol
        )
        roots = roots[(signs == 0) | bracket]
        chunks.append(np.minimum(roots[roots <= t_max + slack], t_max))
    zeros = np.concatenate(chunks)
    return zeros[zeros > 0].tolist()
