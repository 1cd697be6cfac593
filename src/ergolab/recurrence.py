"""Recurrence detectors for cylindrical cascades and their flow analogues.

A cylindrical cascade moves ``(x, z)`` to ``(Sx, z + f(x))`` over a base
circle map ``S`` and an integer cocycle ``f``; the fiber coordinate after
``n`` steps is the Birkhoff sum ``S_n(x)``.  The detectors here scan finite
orbit segments for the events the recurrence theory predicts happen
infinitely often:

* ``find_zero_sums`` — times with ``S_n(x) = 0`` (exact integers);
* ``near_returns`` — times when the base orbit comes ``eps``-close to its
  start;
* ``joint_zero_returns`` — both at once;
* ``flow_zero_set_returns`` / ``flow_zero_near_returns`` — continuous-time
  analogues for special flows (exact rational zero times of the orbit
  integral) and torus windings (bracketed zeros of trigonometric
  integrals);
* ``sublinearity_estimate`` — the empirical probability that ``|S_n|``
  exceeds ``eps * n``, whose decay to 0 is the sufficient condition for
  recurrence of skew products built on ``f``.

Everything that can be exact is exact: integer sums, rational zero times,
rational angles on exact integer grids.  Guarded fixed-point comparisons
back the rest; an undecidable comparison raises ``PrecisionExhaustedError``
rather than silently guessing.  Zero sums on a rotation run the certified
cell kernel (or, from an exact start, one lap of the exact rational walk),
and excess estimates sweep jump points, ``p/q`` on ``q 2**64`` points.
Irrational near times run the kernel where they are dense and a three-gap
walk of the returns of ``n alpha`` where they are sparse; the two give
the same times and refusals.

Periodic orbits cost one lap.  A rational angle's zero-sum lap comes
from :func:`~ergolab.cocycles.rational_walk`, in integers, and its near
residues from the same three-gap walk, mod ``q``.  Interval-exchange
zero, near, joint and excess scans walk one lap of the guarded walk,
once (a near scan has no cocycle).  It stops where it is back at its
start exactly, radius included, since the state fixes every later step;
a walk that never returns is one lap of the whole scan.  Later laps
follow from the lap's prefix sums, ``S_{mL+r} = m S_L + S_r``, and a
first lap without a refusal has none later.  A zero, near or joint scan
of ``2**63`` steps or more is refused before its first step, since a time
could pass the int64 column, and one that could list more than
:data:`MAX_ROWS` times raises :class:`~ergolab.errors.RowLimitError`
before it lists any.  Every guarded eps test compares integers
with one bound per scan, ``ceil(eps 2**192)``.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterator, Sequence, Union

import numpy as np

from .cocycles import (
    PAST_HORIZON,
    PhaseFunction,
    StepCocycle,
    TrigPolynomial,
    _exact_cell,
    _flow_zeros,
    _winding_grid,
    arc_returns,
    certified_cells,
    grid_edges,
    guarded_walk,
    rational_walk,
    return_gaps,
    steps_within,
    winding_integral,
    winding_zero_times,
)
from .errors import (
    PrecisionExhaustedError,
    RationalAngleWarning,
    RowLimitError,
    ZeroValueStartError,
)
from .fixedpoint import (
    ONE,
    SCALE,
    FixedReal,
    Real,
    Walls,
    as_fraction,
    circle_distance,
    exact_fraction,
)
from .systems import (
    BaseMap,
    CircleRotation,
    Roof,
    SpecialFlowState,
    TorusPoint,
    TorusWinding,
    flow_distance,
)

Number = Union[int, float, Fraction]


@dataclass(frozen=True, slots=True)
class ReturnRecord:
    """One detected recurrence event: a row of a :class:`Returns` table.

    ``time`` is the step count (cascades) or the flow time (exact rational
    for special flows, float for windings).  ``value`` is the Birkhoff sum
    or orbit integral at that time — exactly zero for the zero-detectors,
    a tiny float residual for bracketed trig zeros.  ``distance`` and
    ``in_set`` carry the near-return metric / target-set membership when
    the detector computes them.  Records are built on demand when a
    ``Returns`` is indexed or iterated, always with plain Python ``int``,
    ``float``, ``Fraction`` or ``bool`` fields, never numpy scalars.
    """

    time: Number
    value: Number
    distance: Number | None = None
    in_set: bool | None = None


def is_column(values) -> bool:
    """Whether ``values`` holds one cell per event (an array, list or tuple).

    Anything else is a scalar shared by every event.  :class:`Returns` and
    the experiment runner's CSV writer both read their columns by this rule.
    """
    return isinstance(values, (np.ndarray, list, tuple))


@dataclass(eq=False, repr=False, slots=True)
class Returns:
    """The events of one detector run as columns (struct of arrays).

    * ``times`` — an int64 array of step counts for cascades, a list of
      exact ``Fraction`` times for special flows, of floats for windings;
      strictly increasing.
    * ``value`` — the constant 0 for cascade zeros and ``Fraction(0)`` for
      special-flow zeros, a list of float residuals for winding zeros.
    * ``distance`` — the near-return metric, or ``None`` when not computed:
      exact ``Fraction`` lists on rational angles and special flows, a
      float64 array (the guarded value, rounded) on irrational rotations
      and interval exchanges, floats for windings.
    * ``in_set`` — the constant ``True`` for target-set detectors, else ``None``.

    A column is either one entry per event or one scalar shared by all of
    them (see :func:`is_column`).  ``times`` and ``value`` are exact except
    for windings.  The table also reads as a sequence of
    :class:`ReturnRecord`: ``len``, ``bool``, indexing and iteration build
    record views on demand, a slice is the ``Returns`` of the selected
    events, and a table equals a list or tuple holding the same records.
    """

    times: np.ndarray | list
    value: object = 0
    distance: object = None
    in_set: object = None

    def _columns(self) -> tuple:
        return (self.times, self.value, self.distance, self.in_set)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index: int | slice) -> "ReturnRecord | Returns":
        if isinstance(index, slice):
            return Returns(*(c[index] if is_column(c) else c for c in self._columns()))
        cells = []
        for column in self._columns():
            cell = column[index] if is_column(column) else column
            cells.append(cell.item() if isinstance(cell, np.generic) else cell)
        return ReturnRecord(*cells)

    def __iter__(self) -> Iterator[ReturnRecord]:
        columns = [
            c.tolist() if isinstance(c, np.ndarray) else c if is_column(c) else repeat(c)
            for c in self._columns()
        ]
        return map(ReturnRecord, *columns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Returns, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Returns({len(self)} events)"


class TargetSet:
    """A finite union of disjoint half-open intervals on the base circle.

    Endpoints are exact rationals.  For flow phase spaces the set is the
    full-height cylinder over the base intervals, unless ``band=(lo, hi)``
    restricts it to a height window (an exact rectangle union).

    Guarded membership is a :class:`Walls` partition, ``walls``, with an
    in/out label per cell.  An integer mantissa ``m`` satisfies
    ``m >= r * 2**192`` iff ``m >= ceil(r * 2**192)``, so exact walls at
    ``ceil(r * 2**192) < 2**192`` for the endpoints ``0 < r < 1``, plus 0,
    decide every arc exactly.  Cells with equal labels stay apart: a wall
    shared by two endpoints less than an ulp apart must still raise.  An arc across the 0/1 seam takes the label
    of the first and last cells unless the seam is a boundary (the labels
    differ, or an endpoint below 1 rounds up to ``2**192``).
    :meth:`contains_fraction` tests a rational point exactly; an excursion of
    a rational angle tests the integer positions of its walk instead.
    """

    __slots__ = ("intervals", "band", "walls", "_labels", "_seam_label")

    def __init__(
        self,
        intervals: Sequence[tuple[Real, Real]],
        band: tuple[Real, Real] | None = None,
    ):
        cleaned = []
        for lo, hi in intervals:
            lo, hi = as_fraction(lo), as_fraction(hi)
            if not 0 <= lo < hi <= 1:
                raise ValueError(f"bad interval [{lo}, {hi}): need 0 <= lo < hi <= 1")
            cleaned.append((lo, hi))
        cleaned.sort()
        if not cleaned:
            raise ValueError("a target set needs at least one interval")
        merged = [cleaned[0]]
        for lo, hi in cleaned[1:]:
            if merged[-1][1] > lo:
                raise ValueError("target intervals must be disjoint")
            if merged[-1][1] == lo:  # touching halves join into one interval
                merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        self.intervals = tuple(merged)
        if band is not None:
            b_lo, b_hi = as_fraction(band[0]), as_fraction(band[1])
            if not 0 <= b_lo < b_hi:
                raise ValueError("height band needs 0 <= lo < hi")
            band = (b_lo, b_hi)
        self.band = band
        edges = {math.ceil(r * ONE) for pair in merged for r in pair if 0 < r < 1}
        walls = [0, *sorted(w for w in edges if w < ONE)]
        self.walls = Walls([FixedReal(w) for w in walls])
        self._labels = [self.contains_fraction(Fraction(w, ONE)) for w in walls]
        seam_open = self._labels[0] == self._labels[-1] and ONE not in edges
        self._seam_label = self._labels[0] if seam_open else None

    @classmethod
    def whole(cls) -> "TargetSet":
        return cls([(0, 1)])

    def measure(self) -> Fraction:
        """Lebesgue measure of the base union (exact)."""
        return sum((hi - lo for lo, hi in self.intervals), Fraction(0))

    def contains_fraction(self, x: Fraction) -> bool:
        """Exact membership of a rational point."""
        return any(lo <= x % 1 < hi for lo, hi in self.intervals)

    def contains(self, p: FixedReal) -> bool:
        """Guarded membership for a circle point.

        The whole uncertainty arc must land inside the union (True) or
        outside it (False); anything straddling an endpoint raises
        precision exhaustion instead of guessing.
        """
        p = p.frac()
        m, e = p.mantissa, p.err_ulps
        if e <= m < ONE - e:
            return self._labels[self.walls.locate(p)]
        # an arc across the seam needs its ends in the last and first cells
        ends = [self.walls.locate(FixedReal((m + s) % ONE)) for s in (-e, e)]
        if self._seam_label is None or ends != [len(self.walls) - 1, 0]:
            raise PrecisionExhaustedError("ambiguous target-set membership")
        return self._seam_label

    def contains_state(self, state: SpecialFlowState) -> bool:
        """Membership for a special-flow point (base test, then exact band test)."""
        if not self.contains(state.a):
            return False
        if self.band is None:
            return True
        return self.band[0] <= state.b < self.band[1]

    def __repr__(self) -> str:
        parts = ", ".join(f"[{lo}, {hi})" for lo, hi in self.intervals)
        suffix = f" x [{self.band[0]}, {self.band[1]})" if self.band else ""
        return f"TargetSet({parts}{suffix})"


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #


_AMBIGUOUS_EPS = "comparison against eps is ambiguous at this precision"


def _eps_bound(eps: Fraction) -> int:
    """``ceil(eps 2**192)``: an integer ``m`` has ``m / 2**192 < eps`` iff ``m`` is below it."""
    return math.ceil(eps * ONE)


def _near_side(distance: FixedReal, bound: int) -> bool | None:
    """Whether a circle distance is below eps on its whole error interval, None where it straddles.

    ``bound`` is :func:`_eps_bound` of eps.  No circle distance exceeds 1/2,
    so a straddle is near when eps > 1/2, that is when ``bound > 2**191``.
    """
    m, e = distance.mantissa, distance.err_ulps
    if m + e < bound:
        return True
    if m - e >= bound:
        return False
    return True if bound > ONE >> 1 else None


def _warn_rational(what: str) -> None:
    warnings.warn(
        f"rational rotation angle: the base map is not ergodic, so {what} "
        "reflects only the finitely many periodic orbit classes",
        RationalAngleWarning,
        stacklevel=3,
    )


#: The most rows a scan may list: ``2**28`` int64 times take 2 GiB.  A scan
#: whose bound on its rows passes it raises :class:`RowLimitError` before it
#: lists anything (exit code 4).
MAX_ROWS = 1 << 28


def _check_rows(bound: int) -> None:
    """Refuse a scan that could list more than :data:`MAX_ROWS` rows."""
    if bound > MAX_ROWS:
        raise RowLimitError(
            f"the scan could list up to {bound} rows, past the limit of MAX_ROWS = {MAX_ROWS}"
        )


def _lap_times(residues: list[int], q: int, count: int) -> np.ndarray:
    """The times ``r + m q <= count`` for residues ``1 <= r <= q`` in ascending order.

    Every lap of a q-periodic event pattern repeats the first lap's events;
    the result is a sorted int64 array, which holds every time since the
    detectors refuse ``count >= 2**63``.  Its rows, at most the residues
    times the laps, are checked against :data:`MAX_ROWS` first.
    """
    _check_rows(len(residues) * -(-count // q))
    laps = np.arange(0, count, q, dtype=np.int64)  # the laps that start before count
    times = (laps[:, None] + np.array(residues, dtype=np.int64)).ravel()
    return times[: np.searchsorted(times, count, side="right")]


def _lap_zero_times(prefix: Sequence[int], count: int, residues=None) -> np.ndarray:
    """Zero times ``1 <= n <= count`` of ``S_{mL+r} = m P_L + P_r``, as a sorted int64 array.

    ``prefix`` holds one lap's sums ``P_0..P_L`` of an orbit that repeats
    every ``L`` steps; only the ascending ``residues`` (default ``1..L``)
    are expanded.  A zero lap sum repeats the lap's zeros; otherwise each
    residue ``r`` has at most one zero, in lap ``m = -P_r / P_L``.  The
    detectors refuse ``count >= 2**63``, so every time fits the column.
    """
    lap = len(prefix) - 1
    if not lap:  # an empty walk is no lap
        return np.empty(0, dtype=np.int64)
    cycle = prefix[lap]
    residues = range(1, lap + 1) if residues is None else residues
    if cycle == 0:
        return _lap_times([r for r in residues if prefix[r] == 0], lap, count)
    times = []
    for r in residues:
        if prefix[r] % cycle == 0:
            m = -(prefix[r] // cycle)
            n = m * lap + r
            if m >= 0 and n <= count:
                times.append(n)
    return np.array(sorted(times), dtype=np.int64)


# --------------------------------------------------------------------------- #
# cascade detectors
# --------------------------------------------------------------------------- #


def _concat_times(chunks: list[np.ndarray]) -> np.ndarray:
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks).astype(np.int64, copy=False)


def _zero_scan_start(f: StepCocycle, x: Real, count: int) -> FixedReal:
    """Check a zero scan's cocycle and int64 horizon; reduce its start mod 1, radius unchecked."""
    if not f.is_integer:
        raise ValueError("zero-sum detection needs an integer-valued cocycle")
    if count < 1:
        raise ValueError("count must be at least 1")
    if count >= 1 << 63:
        raise PrecisionExhaustedError(PAST_HORIZON)
    x = FixedReal.of(x)
    return FixedReal(x.mantissa % ONE, x.err_ulps)


def find_zero_sums(base: BaseMap, f: StepCocycle, x: Real, count: int) -> Returns:
    """All times ``1 <= n <= count`` with exact Birkhoff sum ``S_n(x) = 0``.

    A rational angle and an exact start walk one period of the exact
    :func:`~ergolab.cocycles.rational_walk`, which later periods repeat
    (with a :class:`RationalAngleWarning`, since the recurrence theorems
    assume ergodicity); every other rotation runs the certified cell
    kernel, summing in int64 while ``max |v| * count < 2**62`` and in
    Python integers past it.  Interval exchanges run :func:`_exchange_scan`.
    The result has an int64 ``times`` column, so a scan of ``2**63`` steps
    or more is refused before its first step, with no step named.  Every
    other refusal carries the step and message of
    :func:`~ergolab.cocycles.birkhoff_sums`, a start past the safety margin
    at step 0.
    """
    x_exact = exact_fraction(x)
    x = _zero_scan_start(f, x, count)
    if isinstance(base, CircleRotation) and base.is_rational:
        _warn_rational("the zero-sum scan")
        if x_exact is not None:  # one period, or the whole scan if shorter, is one lap
            alpha = base.alpha.as_fraction()
            lap = rational_walk(alpha, f, x_exact, min(alpha.denominator, count))
            return Returns(_lap_zero_times([0, *[total for total, _ in lap]], count))
    if isinstance(base, CircleRotation):
        wide = max(abs(v) for v in f.values) * count >= 1 << 62
        values = np.asarray(f.values, dtype=object if wide else np.int64)
        total = 0
        chunks = []
        for offset, cells in certified_cells(base, f.walls, x, count):
            sums = np.cumsum(values[cells]) + total
            chunks.append(np.flatnonzero(sums == 0) + (offset + 1))
            total = int(sums[-1])
        return Returns(_concat_times(chunks))
    return _exchange_scan(base, f, x, count, None)


# The walk costs 1.2-3 us per listed step, its 192-bit test included, and
# the kernel 5-14 ns per step at 10**5 to 10**7 steps (Python 3.11, 2 shared
# CPUs), so with every gap at least 250 steps the walk is at worst about
# as fast.  Measured on golden, sqrt2 and (1 + sqrt 3)/4 at eps 1/30 to
# 1/2000, best of 3: the walk took 0.26-0.93 of the kernel's time where
# min(t1, t2) was 233 to 610, 0.75-1.4 times it at 144 and 169, and
# 0.9-24 times it at 3 to 89.
_WALK_MIN_GAP = 250


def _rotation_near_times(base: CircleRotation, count: int, eps: Fraction) -> np.ndarray:
    """Sorted int64 times ``1 <= n <= count`` with ``||n alpha|| < eps``, for any start.

    No circle distance exceeds 1/2, so a larger eps takes every time.  A
    rational ``p/q`` is near at ``n`` when ``n p mod q`` lies in the arc
    ``[q - b + 1, q + b)``, ``b = ceil(eps q)``: one period of residues is
    listed by :func:`~ergolab.cocycles.arc_returns`, and later laps repeat it.
    Every listing is bounded first: the residues by the three-gap count
    ``min(q, count) // min(t1, t2) + 1``, and the times by the residues
    times the laps (:func:`_lap_times`).

    An irrational displacement ``n alpha`` is near exactly when it lies in
    ``[1 - lo, lo)`` with ``lo = ceil(eps * 2**192)``.  Started from the exact
    point ``lo - 1``, the orbit of :func:`certified_cells` puts that arc in
    cell 0 of the walls ``{0, 2 lo - 1}``, so both walls are eps boundaries
    and a refusal names the step whose interval straddles eps.

    Sparse scans take :func:`_near_walk` instead, which visits only the
    returns to that arc: its iterations are at most ``count / min(t1, t2)``
    (:func:`~ergolab.cocycles.return_gaps`, computed once per scan), so it
    runs where that gap is at least ``_WALK_MIN_GAP``.  Both engines check
    that count against :data:`MAX_ROWS` before they list, and give the
    same times, refusal step and message.  The kernel refuses ``2**62``
    steps or more, with no step, before its row check; the walk answers up
    to the detectors' ``2**63``.
    """
    if eps > Fraction(1, 2):
        return _lap_times([1], 1, count)
    if base.is_rational:
        p, q = base.alpha.as_fraction().as_integer_ratio()
        b = math.ceil(eps * q)
        t1, t2 = gaps = return_gaps(p, q, 2 * b - 1)
        _check_rows(min(q, count) // min(t1, t2 or t1) + 1)
        residues = arc_returns(p, q, q - b + 1, 2 * b - 1, min(q, count), gaps)
        return _lap_times(residues, q, count)
    lo = _eps_bound(eps)
    alpha = base.alpha.resolved
    walls = Walls([FixedReal(0), FixedReal(2 * lo - 1)])
    # the near arc widened past every radius, count err(alpha) + 2 ulps each way
    widen = count * alpha.err_ulps + 2
    start, length = (1 - lo - widen) % ONE, min(2 * (lo + widen) - 1, ONE)
    t1, t2 = gaps = return_gaps(alpha.mantissa, ONE, length)
    gap = min(t1, t2 or t1)  # t2 None: every gap is t1
    if gap >= _WALK_MIN_GAP:
        _check_rows(count // gap + 1)
        candidates = arc_returns(alpha.mantissa, ONE, start, length, count, gaps)
        return _near_walk(alpha, walls, lo, candidates)
    blocks = certified_cells(base, walls, FixedReal(lo - 1), count + 1)  # refuses 2**62 steps first
    _check_rows(count // gap + 1)
    chunks = [np.flatnonzero(cells == 0) + offset for offset, cells in blocks]
    return _concat_times(chunks)[1:]  # step 0 is the start itself


def _near_walk(alpha: FixedReal, walls: Walls, lo: int, candidates: list[int]) -> np.ndarray:
    """The near times of :func:`_rotation_near_times` among the returns to the widened arc.

    ``candidates`` are the times that :func:`~ergolab.cocycles.arc_returns`
    lists, exactly, as those whose displacement lies in the eps arc widened
    by ``count err(alpha) + 2`` ulps each way; a step outside it is farther
    than its radius from both eps walls, so it is far.  Each candidate is
    placed by the kernel's own 192-bit test against ``walls``, ``{0, 2 lo -
    1}``, from the point ``lo - 1``, in step order, so a refusal carries the
    step and message of :func:`certified_cells`.
    """
    a_m, a_e = alpha.mantissa, alpha.err_ulps
    times = [n for n in candidates if _exact_cell(walls, (lo - 1 + n * a_m) % ONE, n * a_e, n) == 0]
    return np.array(times, dtype=np.int64)


def near_returns(base: BaseMap, x: Real, count: int, eps: Real) -> Returns:
    """All times ``1 <= n <= count`` with circle distance ``d(S^n x, x) < eps``.

    For rotations the distance is ``||n alpha||`` independently of the
    start, so the scan is a pure displacement test: one period of residues
    mod ``q``, listed by the three-gap walk, when alpha is rational ``p/q``;
    otherwise the certified cell kernel, or, when near times are at least
    ``_WALK_MIN_GAP`` steps apart, a walk over the returns of ``n alpha`` to
    the eps arc that costs one step per near time
    (:func:`_rotation_near_times`).  Interval exchanges run
    :func:`_exchange_scan` without a cocycle, and refuse a start past the
    safety margin at step 0, as :func:`find_zero_sums` does.  No circle
    distance exceeds 1/2, so an eps above 1/2 takes every step on any
    base.  The result has an int64 ``times`` column and no distances, so a
    scan of ``2**63`` steps or more is refused before its first step, with
    no step named.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    if count >= 1 << 63:
        raise PrecisionExhaustedError(PAST_HORIZON)
    if isinstance(base, CircleRotation):
        return Returns(_rotation_near_times(base, count, eps))
    x = FixedReal.of(x)
    return _exchange_scan(base, None, FixedReal(x.mantissa % ONE, x.err_ulps), count, eps)


def joint_zero_returns(
    base: BaseMap, f: StepCocycle, x: Real, count: int, eps: Real
) -> Returns:
    """Times with ``S_n(x) = 0`` and ``d(S^n x, x) < eps`` simultaneously.

    The intersection of :func:`find_zero_sums` and :func:`near_returns`,
    with a distance column (exact rationals for rational angles, float
    rendering of the guarded value otherwise), computed for the surviving
    times only.  A rational ``p/q`` keeps, for any start, a zero time ``n``
    whose ``k = min(n p mod q, -n p mod q)`` is below ``ceil(eps q)``, at the
    distance ``k/q``; interval exchanges run :func:`_exchange_scan`.  A scan
    of ``2**63`` steps or more is refused before its first step, as
    :func:`find_zero_sums` refuses it.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if isinstance(base, CircleRotation):
        zeros = find_zero_sums(base, f, x, count).times
        if base.is_rational:
            p, q = base.alpha.as_fraction().as_integer_ratio()
            b = math.ceil(eps * q)
            near = [(n, k) for n in zeros.tolist() if (k := min(n * p % q, -n * p % q)) < b]
            kept = np.array([n for n, _ in near], dtype=np.int64)
            return Returns(kept, distance=[Fraction(k, q) for _, k in near])
        times = np.intersect1d(zeros, _rotation_near_times(base, count, eps), assume_unique=True)
        a_m = base.alpha.resolved.mantissa
        displacements = [n * a_m % ONE for n in times.tolist()]
        distances = [min(d, ONE - d) / ONE for d in displacements]
        return Returns(times, distance=np.array(distances, dtype=np.float64))
    return _exchange_scan(base, f, _zero_scan_start(f, x, count), count, eps)


def _exchange_scan(
    base: BaseMap, f: StepCocycle | None, x: FixedReal, count: int, eps: Fraction | None
) -> Returns:
    """Times ``1 <= n <= count`` with ``S_n f(x) = 0`` and ``d(S^n x, x) < eps``, on one walk.

    ``f=None`` keeps every time (a near scan) and ``eps=None`` every zero (a
    zero scan); neither has a distance column.  :func:`_exchange_lap` walks
    one lap, and every later lap repeats it.  A zero at time ``n`` takes the
    distance of its residue; the first whose residue straddles eps raises
    with ``step=n``, the step a per-step walk names.  Every step of a near
    scan is a zero, so its straddles have already raised in the walk.
    """
    prefix, kept, distances = _exchange_lap(base, f, x, count, eps)
    times = _lap_zero_times(prefix, count, kept)
    if eps is None or f is None:
        return Returns(times)
    lap = len(prefix) - 1
    distance = np.array(distances, dtype=np.float64)[np.searchsorted(kept, (times - 1) % lap + 1)]
    refused = np.flatnonzero(np.isnan(distance))
    if refused.size:
        raise PrecisionExhaustedError(_AMBIGUOUS_EPS, step=int(times[refused[0]]))
    return Returns(times, distance=distance)


def _exchange_lap(
    base: BaseMap, f: StepCocycle | None, x: FixedReal, count: int, eps: Fraction | None
) -> tuple[list[int], list[int] | None, list[float]]:
    """One lap of the guarded walk from ``x``: its prefix sums, kept residues and distances.

    The walk stops where it is back at ``x`` exactly (same mantissa and
    radius), since the state fixes every later step, or after ``count``
    steps; a walk that never returns is one lap of ``count`` steps.
    ``prefix`` holds ``S_0..S_L``.  Without eps every residue is kept
    (``kept`` is None).  With eps, ``kept`` lists the ascending residues
    whose point is near or straddles eps, and ``distances`` their
    distances, NaN for a straddle, when there is a cocycle (a near scan
    keeps none); a zero that straddles raises at once
    with its step, before a later refusal of the walk could hide it.  A
    point's radius never shrinks along the walk, so once it has outgrown
    the start's the walk cannot close and only zeros can be reported: eps
    is decided only at a zero or at the start's radius.
    """
    bound = None if eps is None else _eps_bound(eps)
    prefix, kept, distances = [0], None if eps is None else [], []
    for r, (total, p) in enumerate(guarded_walk(base, f, x, count), start=1):
        prefix.append(total)
        if bound is not None and (total == 0 or p.err_ulps == x.err_ulps):
            d = circle_distance(p, x)
            side = _near_side(d, bound)
            if side is None and total == 0:
                raise PrecisionExhaustedError(_AMBIGUOUS_EPS, step=r)
            if side is not False:
                kept.append(r)
                if f is not None:  # a near scan keeps the times alone
                    distances.append(float(d) if side else np.nan)  # NaN: it straddles eps
        if p == x:  # back at the start: every later lap repeats this one
            break
    return prefix, kept, distances


# --------------------------------------------------------------------------- #
# flow detectors
# --------------------------------------------------------------------------- #


def _flow_preamble(
    roof: Roof,
    f: PhaseFunction,
    start: SpecialFlowState,
    allow_zero_value: bool,
    what: str,
) -> None:
    if isinstance(roof.base, CircleRotation) and roof.base.is_rational:
        _warn_rational(what)
    if allow_zero_value:
        return
    try:
        value = f.value_at(start)
    except PrecisionExhaustedError as exc:
        raise PrecisionExhaustedError(str(exc), step=0) from None
    if value == 0:
        raise ZeroValueStartError(
            "the phase function vanishes at the starting point; the recurrence "
            "statements assume f(x) != 0 (pass allow_zero_value=True to override)"
        )


def _below(num: int, den: int, r: Fraction) -> bool:
    """Whether ``num / den < r``, for ``den > 0``, in integers."""
    return num * r.denominator < r.numerator * den


def flow_zero_set_returns(
    roof: Roof,
    f: PhaseFunction,
    start: SpecialFlowState,
    t_max: Real,
    target: TargetSet,
    allow_zero_value: bool = False,
) -> Returns:
    """Times ``0 < t <= t_max`` with orbit integral exactly 0 and ``T_t x`` in the target.

    Zero times and the states there come from one exact scan of the orbit
    (:func:`~ergolab.cocycles.iter_flow_zeros`; a stretch where the integral
    sits at 0 is reported by its node grid), and each state is tested for
    membership: its base point by :meth:`TargetSet.contains`, its height
    against the band in integers, and a ``Fraction`` time is built for the
    zeros kept.  A refusal names the zero's roof crossing.  Only in-set
    events are emitted, so ``in_set`` is the constant True; times are exact
    ``Fraction``s and the value is the constant ``Fraction(0)``.  The
    starting point itself need not lie in the target.
    """
    _flow_preamble(roof, f, start, allow_zero_value, "the flow zero/set scan")
    # the walk ends before any membership test, so a walk error comes first
    zeros = _flow_zeros(roof, f, start, t_max)
    lo, hi = target.band or (None, None)
    times = []
    for tn, bn, d, k, a in zeros:
        try:
            inside = target.contains(a)
        except PrecisionExhaustedError as exc:
            raise PrecisionExhaustedError(str(exc), step=k) from None
        if inside and (lo is None or not _below(bn, d, lo) and _below(bn, d, hi)):
            times.append(Fraction(tn, d))
    return Returns(times, value=Fraction(0), in_set=True)


def _winding_near(
    system: TorusWinding, start: TorusPoint, zeros: list[float], eps: float
) -> list[tuple[float, float]]:
    """``(t, d)`` for each zero ``t`` whose distance ``d`` from the start is below ``eps``.

    ``d`` is the float of :meth:`TorusWinding.distance` after the exact
    flow.  The start cancels from both circle distances, so they are
    ``||t||`` and ``||gamma t||``; computed in floats from ``t`` and the
    float slope they are within ``|t| (1 + |gamma|) 2**-52`` of the exact
    ones, and ``d`` is the larger up to the radii.  A zero farther than
    ``eps + (|t| (1 + |gamma|) + 4) 2**-40`` in floats is therefore far,
    and skips the exact flow.  No skipped zero could refuse: a flow's
    radius is about ``|t|`` ulps, past the safety margin only from
    ``|t| = 2**96``, and from ``|t| = 2**39`` that bound exceeds every
    distance.  So the exact tests meet the refusals in time order, and
    the first one surfaces, as when every zero is flowed.
    """
    ts, gamma = np.array(zeros), system.slope
    turns = gamma * ts
    far = np.maximum(np.abs(ts - np.rint(ts)), np.abs(turns - np.rint(turns)))
    rows = []
    for t in ts[far < eps + (np.abs(ts) * (1 + abs(gamma)) + 4) * 2.0**-40].tolist():
        d = float(system.distance(start, system.flow(start, t)))
        if d < eps:
            rows.append((t, d))
    return rows


def flow_zero_near_returns(
    system: Union[Roof, TorusWinding],
    f: Union[PhaseFunction, TrigPolynomial],
    start: Union[SpecialFlowState, TorusPoint],
    t_max: Real,
    eps: Real,
    allow_zero_value: bool = False,
) -> Returns:
    """Times with vanishing orbit integral and phase point ``eps``-close to the start.

    Two engines share the signature:

    * special flow (``system`` is a :class:`Roof`): exact rational zero
      times from one scan of the orbit
      (:func:`~ergolab.cocycles.iter_flow_zeros`), distances in the
      product chart ``max(base circle distance, height difference)``, as
      exact ``Fraction`` columns with the constant value ``Fraction(0)``.
      A refusal of the walk comes first, over a rotation only at a crossing
      at or before the horizon (the certified kernel's).  Then the height
      difference is tested against ``eps`` in integers;
      the base distance's test uses its error interval and raises
      :class:`PrecisionExhaustedError`, naming the zero's roof crossing,
      when that interval straddles ``eps`` (no circle distance exceeds
      1/2, so an eps above 1/2 tests the height alone).  The reported
      distance is the nominal value, and it and the ``Fraction`` time are
      built for the zeros kept;
    * torus winding: zeros of the closed-form trigonometric integral by
      sign-change bracketing (tolerance 1e-12 in t; tangential zeros
      between grid points are missed by design), distances as the max of
      the two coordinate distances, after a float screen that skips the
      exact flow of zeros clearly farther than ``eps``
      (:func:`_winding_near`); times, residuals and distances are float
      lists.  A grid of more than :data:`MAX_ROWS` points raises
      :class:`RowLimitError` before its first block.
    """
    if isinstance(system, TorusWinding):
        if not allow_zero_value and f.value(start) == 0:
            raise ZeroValueStartError(
                "the observable vanishes at the starting point; pass "
                "allow_zero_value=True to override"
            )
        eps_f = float(eps)
        if eps_f <= 0:
            raise ValueError("eps must be positive")
        _check_rows(_winding_grid(system, f, float(t_max))[1])  # a grid point ends at most one zero
        times, residuals, distances = [], [], []
        zeros = winding_zero_times(system, f, start, float(t_max))
        for t, d in _winding_near(system, start, zeros, eps_f):
            times.append(t)
            residuals.append(winding_integral(system, f, start, t))
            distances.append(d)
        return Returns(times, value=residuals, distance=distances)
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    _flow_preamble(system, f, start, allow_zero_value, "the flow zero/near scan")
    # the walk ends before any eps test, so a walk error comes first
    zeros = _flow_zeros(system, f, start, t_max)
    bound = _eps_bound(eps)
    above, below = eps - start.b, start.b + eps  # |b - start.b| < eps: -b < above, b < below
    times, distances = [], []
    for tn, bn, d, k, a in zeros:
        if not (_below(-bn, d, above) and _below(bn, d, below)):
            continue
        near = _near_side(circle_distance(start.a, a), bound)
        if near is None:
            raise PrecisionExhaustedError(_AMBIGUOUS_EPS, step=k)
        if near:
            times.append(Fraction(tn, d))
            distances.append(flow_distance(system, start, SpecialFlowState(a, Fraction(bn, d))))
    return Returns(times, value=Fraction(0), distance=distances)


# --------------------------------------------------------------------------- #
# sublinearity (excess-probability) estimator
# --------------------------------------------------------------------------- #


def sublinearity_estimate(
    base: BaseMap,
    f: StepCocycle,
    n_list: Sequence[int],
    eps: Real,
    samples: int = 10_000,
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Empirical ``P(|S_n| > eps * n)`` over uniform starts, for each n in ``n_list``.

    Decay of this probability to 0 is the sufficient condition for
    recurrence of the associated cylinder maps; ergodic zero-mean systems
    satisfy it for every eps by the ergodic theorem.  The estimate is
    deterministic under ``seed``.

    Starting points are uniform on the 2^-64 grid, and the threshold test
    ``|S_n| * den > num * n`` is exact integer arithmetic.  Every sum is
    exact for the requested system.  Every rotation sweeps the jump points
    of ``x -> S_n f(x)``: each block of at most ``2**16`` steps is sorted
    once, and every sample then costs a bisection per wall and block
    instead of a cell per step.  A rational angle ``p/q`` is swept exactly,
    on ``q 2**64`` points, over one period.  A point that cannot be placed
    raises :class:`PrecisionExhaustedError` with the ``step`` and message
    that the certified cell kernel gives; a lap of ``2**63`` steps or more is
    refused first, with no step, as scans refuse it.  Interval exchanges
    walk one lap per sample (:func:`_exchange_lap`), which ends where the
    walk returns exactly to its start, so a periodic orbit costs one lap.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples for a meaningful estimate")
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not f.is_integer:
        raise ValueError("the estimator needs an integer-valued cocycle")
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise ValueError("n_list must not be empty")
    if any(n < 1 for n in n_list):
        raise ValueError("all n must be at least 1")
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 1 << 64, size=samples, dtype=np.uint64).tolist()
    if isinstance(base, CircleRotation):
        if base.is_rational:
            _warn_rational("the excess-probability estimate")
        counts = _excess_rotation(base, f, n_list, eps, xs)
    else:
        counts = _excess_loop(base, f, n_list, eps, xs)
    return [(n, counts[n] / samples) for n in n_list]


def _exceeds(total: int, n: int, eps: Fraction) -> bool:
    return abs(total) * eps.denominator > eps.numerator * n


_SWEEP_BLOCK = 1 << 16


def _excess_rotation(
    base: CircleRotation, f: StepCocycle, n_list: list[int], eps: Fraction, xs: list[int]
) -> dict[int, int]:
    """Exceedance counts per n from one sweep over the jump points of ``x -> S_n f(x)``.

    The circle has ``2**192`` points for an irrational angle.  A rational
    ``p/q`` takes the ``q 2**64`` points that refine the 2^-64 sample grid,
    the exact step ``(p mod q) 2**64`` and the walls of
    :func:`~ergolab.cocycles.grid_edges`;
    its orbits close after ``q`` steps, so the sweep stops there and
    ``S_{mq+r} = m S_q + S_r``.

    With ``t_k = -k alpha mod 1``, the point ``x + k alpha`` lies below a wall
    ``w`` exactly when ``t_k`` is in the arc ``(x - w, x]``.  So one sorted
    block of the ``t_k`` gives, per start and wall, the number of the
    block's points at or past the wall by one bisection, and the block sum
    is ``size * v_0`` plus each jump ``v_i - v_{i-1}`` times that number.
    Blocks hold at most ``2**16`` steps and end at every ``n``.  A block is
    the first block of its size turned by ``k_0 alpha``, so a run of blocks
    of one size is sorted once.

    Certificate: the point of step ``k`` has the radius ``e = k err(alpha)``,
    and :meth:`Walls.locate` refuses it exactly when a wall lies in
    ``(m - e, m + e]``.  The two sorted neighbours of each bisection show
    whether any jump point lies within the block's largest radius of the
    turned start less the wall; only then does
    :func:`~ergolab.cocycles.steps_within` list the block's steps whose
    point lies within that radius of the wall.  The listed steps go to the
    kernel's ``_exact_cell`` in step order, then start order, so a refusal
    carries the message and ``step`` of the earliest refusal of
    :func:`~ergolab.cocycles.certified_cells` among the starts, the first
    such start on a tie.  The rational grid has radius 0, and the
    neighbours ``u <= a < u'`` of a bisection are never within 0 of ``a``:
    it lists no step.  Every comparison is on exact integers.
    """
    if base.is_rational:
        alpha = base.alpha.as_fraction()
        circle, a_m, a_e = alpha.denominator << 64, alpha.numerator << 64, 0
    else:
        circle, a_m, a_e = ONE, base.alpha.resolved.mantissa, base.alpha.resolved.err_ulps
    lap = min(max(n_list), circle >> 64)  # a rational period q
    if lap >= 1 << 63:  # the scans' horizon; err(alpha) <= 1 keeps shorter laps in the margin
        raise PrecisionExhaustedError(PAST_HORIZON)
    values = f.values
    # wall 0 first with jump 0: it only guards, and its bisection places y
    jumps = (v - u for u, v in zip(values, values[1:]))
    cuts = [(0, 0), *zip(grid_edges(f.walls, circle)[1:], jumps)]
    starts = [raw * (circle >> 64) for raw in xs]
    totals = [0] * len(starts)
    sums_at = {0: totals[:]}  # the totals at each edge
    size = 0
    edges = sorted({0, lap, *(n % lap for n in n_list)})
    for lo, hi in zip(edges, edges[1:]):
        for k0 in range(lo, hi, _SWEEP_BLOCK):
            k1 = min(k0 + _SWEEP_BLOCK, hi)
            if k1 - k0 != size:
                size = k1 - k0
                # from 0, the point of j = 0, to the next one round the circle
                ranked = [*sorted(-j * a_m % circle for j in range(size)), circle]
            turn, radius = k0 * a_m % circle, (k1 - 1) * a_e
            suspects = []
            for r, x in enumerate(starts):
                y = (x + turn) % circle
                total = size * values[0]
                for w, jump in cuts:
                    a = y - w if y >= w else y - w + circle
                    i = bisect_right(ranked, a)  # at least 1: ranked[0] is 0
                    if a - ranked[i - 1] < radius or ranked[i] - a <= radius:
                        near = steps_within(a_m, circle, y, w, radius, size)
                        suspects += [(k0 + j, r) for j in near]
                    if not w:
                        at_y = i
                    # points at or past w: the jump points outside (y - w, y]
                    total += jump * (i - at_y + (size if y >= w else 0))
                totals[r] += total
            for k, r in sorted(suspects):
                _exact_cell(f.walls, (starts[r] + k * a_m) % ONE, k * a_e, k)
        sums_at[hi] = totals[:]
    counts = {}
    for n in n_list:
        sums = sums_at.get(n)
        if sums is None:  # past a rational period: S_{mq+r} = m S_q + S_r
            m, r = divmod(n, lap)
            sums = [m * s + t for s, t in zip(sums_at[lap], sums_at[r])]
        counts[n] = sum(_exceeds(total, n, eps) for total in sums)
    return counts


def _excess_loop(
    base: BaseMap, f: StepCocycle, n_list: list[int], eps: Fraction, xs: list[int]
) -> dict[int, int]:
    """Exceedance counts per n on an interval exchange, one :func:`_exchange_lap` per sample.

    A sample's walk stops at its exact return, or after ``max(n_list)``
    steps, and ``S_{mL+r} = m S_L + S_r`` gives every n.
    """
    counts = dict.fromkeys(n_list, 0)
    for raw in xs:
        prefix = _exchange_lap(base, f, FixedReal(raw << (SCALE - 64)), max(n_list), None)[0]
        lap = len(prefix) - 1
        for n in counts:
            counts[n] += _exceeds(n // lap * prefix[lap] + prefix[n % lap], n, eps)
    return counts
