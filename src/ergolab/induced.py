"""First-return (induced) maps to a positive-measure set, and Kac-style checks.

Inducing on a set ``A`` replaces the base map ``S`` by ``S~ x = S^{n(x)} x``
with ``n(x)`` the first-return time, and the cocycle ``f`` by the
accumulated value ``f~(x)`` along the excursion.  This is the finite-measure
reduction that makes infinite-cylinder recurrence checkable: the induced
cocycle again has zero mean, and Kac's formula pins the mean return time at
``1 / mu(A)`` for ergodic bases.  Both facts are exposed here as Monte Carlo
estimates with standard errors.
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

from .cocycles import StepCocycle, guarded_walk, rational_walk
from .errors import RationalAngleWarning, ReturnBudgetError
from .fixedpoint import FixedReal, Real, exact_fraction
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
    step is a guarded comparison (an ambiguous point is a precision error,
    never silently accepted).  A rational angle from an exact start runs on
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
        x = FixedReal.of(x).frac()
        if not target.contains(x):
            raise ValueError(outside)
        for n, (total, p) in enumerate(guarded_walk(base, f, x, budget), start=1):
            if target.contains(p):
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
) -> list[Fraction]:
    """Uniform points of A on the 2^-64 grid, by inverse CDF over the intervals.

    A single uniform draw over the concatenated :func:`grid_ranges` is exact
    and needs no rejection, so slivers of tiny measure cost the same as the
    whole circle.
    """
    ranges = grid_ranges(target)
    if not ranges:
        raise ValueError("target set contains no points of the sampling grid")
    bounds = list(itertools.accumulate(count for _, count in ranges))
    draws = rng.integers(0, bounds[-1], size=samples, dtype=np.uint64)
    out: list[Fraction] = []
    for u in draws.tolist():
        k = bisect.bisect_right(bounds, u)
        offset = u - (bounds[k - 1] if k else 0)
        out.append(Fraction(ranges[k][0] + offset, 1 << 64))
    return out


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
    from the means), not fatal.  Deterministic under ``seed``.
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
    rng = np.random.default_rng(seed)
    starts = _uniform_in_target(target, samples, rng)
    times: list[float] = []
    values: list[float] = []
    censored = 0
    for x0 in starts:
        try:
            sample = induce_point(base, f, target, x0, budget)
        except ReturnBudgetError:
            censored += 1
            continue
        times.append(float(sample.n))
        values.append(float(sample.f_tilde))
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
