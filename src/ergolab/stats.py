"""Small statistical helpers shared by the sampling experiments."""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def dkw_epsilon(n: int, delta: float = 0.001) -> float:
    """Two-sided Dvoretzky-Kiefer-Wolfowitz band half-width.

    With probability at least ``1 - delta`` the empirical CDF of ``n``
    i.i.d. samples stays within ``sqrt(log(2 / delta) / (2 n))`` of the
    true CDF, uniformly.  We reuse the same width as a (conservative)
    per-cell tolerance for histogram comparisons.
    """
    if n <= 0:
        raise ValueError("need a positive sample count")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def mean_and_se(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and its standard error (0 for fewer than two points)."""
    n = len(values)
    if n == 0:
        raise ValueError("empty sample")
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def decimal_string(value: Fraction | int, digits: int = 30) -> str:
    """Round-half-up decimal rendering of an exact rational, no float detour.

    Integers print without a decimal point; everything else gets exactly
    ``digits`` fractional digits so output files are byte-stable.
    """
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    value = abs(value)
    scaled = value * 10**digits
    units = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        units += 1
    whole, frac = divmod(units, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"

