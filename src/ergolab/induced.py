"""First-return (induced) maps to a positive-measure set, and Kac-style checks.

Inducing on a set ``A`` replaces the base map ``S`` by ``S~ x = S^{n(x)} x``
with ``n(x)`` the first-return time, and the cocycle ``f`` by the
accumulated value ``f~(x)`` along the excursion.  This is the finite-measure
reduction that makes infinite-cylinder recurrence checkable: the induced
cocycle again has zero mean, and Kac's formula pins the mean return time at
``1 / mu(A)`` for ergodic bases.  Both facts are exposed here as Monte Carlo
estimates with standard errors.

:func:`induce_point` walks one excursion.  :func:`induced_statistics`
draws its starts on the ``2**-64`` grid and, over an irrational rotation,
steps all their excursions at once on the certified 64-bit words
(:func:`~ergolab.cocycles.word_cells`), deciding at 192 bits only the
steps near a wall; any other base, or a batch that meets a refusal, runs
one :func:`induce_point` per start.
"""
from __future__ import annotations

import bisect
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .cocycles import StepCocycle, guarded_walk, rational_walk, word_cells
from .errors import PrecisionExhaustedError, RationalAngleWarning, ReturnBudgetError
from .fixedpoint import MAX_ERR_ULPS, ONE, SCALE, FixedReal, Real, Walls, exact_fraction
from .recurrence import TargetSet
from .stats import mean_and_se
from .systems import BaseMap, CircleRotation

DEFAULT_RETURN_BUDGET = 10**6


@dataclass(frozen=True, slots=True)
class InducedSample:
    """One excursion from the target set back to itself.

    ``n`` is the first-return time (``S^k x`` stays outside for 0 < k < n),
    ``f_tilde`` the exact accumulated cocycle value over the excursion.
    """

    x: FixedReal
    n: int
    return_point: FixedReal
    f_tilde: Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class InducedStats:
    """Monte Carlo summary of the induced map over uniform starts in the target."""

    samples: int
    mean_return: float
    se_return: float
    mean_cocycle: float
    se_cocycle: float
    censored: int
    target_measure: Fraction

    def kac_product(self) -> float:
        """``E[n] * mu(A)``; Kac's formula says 1 for ergodic bases."""
        return self.mean_return * float(self.target_measure)


def induce_point(
    base: BaseMap,
    f: StepCocycle,
    target: TargetSet,
    x: Real,
    budget: int = DEFAULT_RETURN_BUDGET,
) -> InducedSample:
    """First return of ``x in A`` to ``A``, with the exact induced cocycle value.

    The excursion runs on :func:`~ergolab.cocycles.guarded_walk`, so a
    point that cannot be placed against the cocycle's walls raises
    :class:`PrecisionExhaustedError` with its ``step``.  Membership at every
    step is a guarded comparison (an ambiguous point is a precision error
    with its step, the start being step 0, never silently accepted).  A
    rational angle from an exact start runs on
    :func:`~ergolab.cocycles.rational_walk` instead, where every cell and
    membership test is exact.  No return within ``budget`` steps raises
    :class:`ReturnBudgetError` — with a positive-measure target that
    signals a budget too small, not non-recurrence.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    outside = "the starting point must lie in the target set"
    x_exact = exact_fraction(x)
    if isinstance(base, CircleRotation) and base.is_rational and x_exact is not None:
        alpha, x = base.alpha.as_fraction(), x_exact % 1
        if not target.contains_fraction(x):
            raise ValueError(outside)
        # pos / scale lies in [lo, hi) exactly when pos lies in [ceil(lo scale), ceil(hi scale))
        scale = math.lcm(alpha.denominator, x.denominator)
        ends = [math.ceil(end * scale) for pair in target.intervals for end in pair]
        for n, (total, pos) in enumerate(rational_walk(alpha, f, x, budget), start=1):
            if bisect.bisect_right(ends, pos) % 2:  # an odd number of ends at or below pos
                point = FixedReal.from_fraction(Fraction(pos, scale))
                return InducedSample(FixedReal.from_fraction(x), n, point, total)
    else:
        try:
            x = FixedReal.of(x).frac()
            inside = target.contains(x)
        except PrecisionExhaustedError as exc:
            raise exc.at_step(0)
        if not inside:
            raise ValueError(outside)
        for n, (total, p) in enumerate(guarded_walk(base, f, x, budget), start=1):
            try:
                inside = target.contains(p)
            except PrecisionExhaustedError as exc:
                raise exc.at_step(n)
            if inside:
                return InducedSample(x=x, n=n, return_point=p, f_tilde=total)
    raise ReturnBudgetError(
        f"no return to the target within {budget} steps "
        f"(target measure {float(target.measure()):.6g})"
    )


def grid_ranges(target: TargetSet) -> list[tuple[int, int]]:
    """``(first, count)`` of the 2^-64 sampling grid in each interval of ``target``.

    The interval [lo, hi) holds the grid points ceil(lo*2^64) .. ceil(hi*2^64)-1;
    intervals holding none are left out, so an empty list means the target
    holds no grid point at all.
    """
    ranges = []
    for lo, hi in target.intervals:
        first = math.ceil(lo * (1 << 64))
        count = math.ceil(hi * (1 << 64)) - first
        if count > 0:
            ranges.append((first, count))
    return ranges


def _uniform_in_target(
    target: TargetSet, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform points ``u 2**-64`` of A on the grid, as a uint64 array of ``u``, by inverse CDF.

    A single uniform draw over the concatenated :func:`grid_ranges` is exact
    and needs no rejection, so slivers of tiny measure cost the same as the
    whole circle; one search of the draws among the ranges' cumulative
    counts places them all.
    """
    ranges = grid_ranges(target)
    if not ranges:
        raise ValueError("target set contains no points of the sampling grid")
    bounds = list(itertools.accumulate(count for _, count in ranges))
    draws = rng.integers(0, bounds[-1], size=samples, dtype=np.uint64)
    # the k-th range holds the draws from bounds[k - 1] on: shift them to its first point
    shifts = np.array([first - below for (first, _), below in zip(ranges, [0, *bounds])],
                      dtype=np.uint64)
    return draws + shifts[np.searchsorted(np.array(bounds[:-1], dtype=np.uint64), draws, "right")]


def _sample_excursions(
    base: BaseMap, f: StepCocycle, target: TargetSet, grid: np.ndarray, budget: int
) -> tuple[list[float], list[float], int]:
    """``(n, f~)`` as floats per returning grid start, and the censored count: one :func:`induce_point` each."""
    times: list[float] = []
    values: list[float] = []
    censored = 0
    for u in grid.tolist():
        try:
            sample = induce_point(base, f, target, Fraction(u, 1 << 64), budget)
        except ReturnBudgetError:
            censored += 1
            continue
        times.append(float(sample.n))
        values.append(float(sample.f_tilde))
    return times, values, censored


def _rotation_excursions(
    base: CircleRotation, f: StepCocycle, target: TargetSet, grid: np.ndarray, budget: int
) -> tuple[list[float], list[float], int] | None:
    """:func:`_sample_excursions` over an irrational rotation, every start at once; None where a step refuses.

    One numpy step per return time over the starts still outside ``A``.
    The start ``u 2**-64`` has the exact mantissa ``u 2**128``, and at step
    ``n`` the point ``(u 2**128 + n A) mod 2**192`` of :func:`induce_point`,
    for the angle's mantissa ``A``, with a radius of ``n err(A)`` ulps.
    Its top word steps in uint64 by the ``a64`` of
    :func:`~ergolab.cocycles.word_cells`, which places it among the
    cocycle's walls and the target's membership walls together; each merged
    cell has one cocycle value and one in/out label.  A word in a wall's
    band is decided at 192 bits on the point itself, by the calls that
    :func:`induce_point` makes: ``target.contains`` at steps ``1..n`` and
    the cocycle's ``Walls.locate`` at ``0..n-1``.  If one of them refuses,
    or a radius would pass ``MAX_ERR_ULPS``, the batch returns None, so
    that the per-sample loop raises as it always has.  The sums are exact
    integers in units of the lcm of the values' denominators.
    """
    if budget < 1:
        return None  # induce_point refuses the budget
    a_m, a_e = base.alpha.resolved.mantissa, base.alpha.resolved.err_ulps
    walls = [FixedReal(w) for w in sorted({*f.walls.mantissas, *target.walls.mantissas})]
    den = math.lcm(*(Fraction(v).denominator for v in f.values))
    scaled = [int(v * den) for v in f.values]
    dtype = np.int64 if max(map(abs, scaled)) * budget < 1 << 63 else object
    value = np.array([scaled[f.walls.locate(w)] for w in walls], dtype=dtype)
    inside = np.array([target.contains(w) for w in walls])
    a64, cells_of = word_cells(base, Walls(walls))
    limit = MAX_ERR_ULPS // a_e if a_e else budget  # the last step within the safety margin
    times = np.zeros(len(grid), dtype=np.int64)  # 0 marks a censored start
    totals = np.zeros(len(grid), dtype=dtype)
    live, words, sums = np.arange(len(grid)), grid.copy(), np.zeros(len(grid), dtype=dtype)
    for n in range(budget + 1):
        if n > limit:
            return None
        cells = cells_of(words, n)
        back, step = inside[cells], value[cells]
        for i in np.flatnonzero(cells < 0).tolist():
            p = FixedReal(((int(grid[live[i]]) << (SCALE - 64)) + n * a_m) % ONE, n * a_e)
            try:
                back[i] = n > 0 and target.contains(p)
                if not back[i] and n < budget:
                    step[i] = scaled[f.walls.locate(p)]
            except PrecisionExhaustedError:
                return None
        if n and back.any():
            times[live[back]], totals[live[back]] = n, sums[back]
            live, words, sums, step = (a[~back] for a in (live, words, sums, step))
        if n == budget or not len(live):
            break
        sums += step
        words += a64
    done = times > 0
    return (times[done].astype(np.float64).tolist(), [k / den for k in totals[done].tolist()],
            len(grid) - int(done.sum()))


def induced_statistics(
    base: BaseMap,
    f: StepCocycle,
    target: TargetSet,
    samples: int = 10_000,
    seed: int = 0,
    budget: int = DEFAULT_RETURN_BUDGET,
) -> InducedStats:
    """Sample uniform starts in ``A``; estimate mean return time and mean ``f~``.

    The two expectations are the executable content of the finite-measure
    reduction: Kac gives ``E[n] = 1/mu(A)`` and the induced cocycle keeps
    zero mean.  Budget-exceeded excursions are censored (counted, excluded
    from the means), not fatal.  Deterministic under ``seed``.  Over an
    irrational rotation every excursion steps at once
    (:func:`_rotation_excursions`); any other base, or a batch that meets a
    refusal, runs one :func:`induce_point` per start, and both give the
    same statistics.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples for a meaningful estimate")
    if isinstance(base, CircleRotation) and base.is_rational:
        warnings.warn(
            "rational rotation angle: Kac's formula assumes ergodicity, which "
            "fails for periodic bases; the estimate covers orbit classes only",
            RationalAngleWarning,
            stacklevel=2,
        )
    grid = _uniform_in_target(target, samples, np.random.default_rng(seed))
    batch = None
    if isinstance(base, CircleRotation) and not base.is_rational:
        batch = _rotation_excursions(base, f, target, grid, budget)
    times, values, censored = batch or _sample_excursions(base, f, target, grid, budget)
    if not times:
        raise ReturnBudgetError("every sampled excursion exceeded the return budget")
    mean_n, se_n = mean_and_se(times)
    mean_f, se_f = mean_and_se(values)
    return InducedStats(
        samples=len(times),
        mean_return=mean_n,
        se_return=se_n,
        mean_cocycle=mean_f,
        se_cocycle=se_f,
        censored=censored,
        target_measure=target.measure(),
    )
