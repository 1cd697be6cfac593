"""Pure-rational orbit loops for rational rotations and rational interval exchanges.

Independent of ``ergolab``: configs are read as plain dicts, every point is
an integer multiple of ``1/D`` for a common denominator ``D``, and the maps
are re-derived from their definitions (rotation by ``p/q``; an exchange
translating domain interval ``i`` to image slot ``permutation[i]``).  The
output checks of ``reference-scan`` compare the program's files against
these loops.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Iterator


def _lcm(*values: int) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


class RationalMap:
    """A rational rotation or interval exchange acting on ``Z / D``."""

    def __init__(self, system: dict, extra: list[Fraction]):
        if system["kind"] == "rotation":
            kind, text = system["angle"].split(":")
            if kind != "rational":
                raise ValueError("the oracle handles rational angles only")
            pieces = [Fraction(1)]
            self.alpha = Fraction(text) % 1
            pieces.append(self.alpha)
        else:
            lengths = [Fraction(v) for v in system["lengths"]]
            perm = system["permutation"]
            pieces = lengths
            self.alpha = None
        self.den = _lcm(*(p.denominator for p in pieces + extra))
        if self.alpha is not None:
            self.step = self.alpha.numerator * self.den // self.alpha.denominator
        else:
            ints = [v.numerator * self.den // v.denominator for v in lengths]
            self.walls = [sum(ints[:i]) for i in range(len(ints))]
            self.shifts = []
            for i in range(len(ints)):
                image_start = sum(ints[j] for j in range(len(ints)) if perm[j] < perm[i])
                self.shifts.append(image_start - self.walls[i])

    def scaled(self, x: Fraction) -> int:
        return (x.numerator * self.den // x.denominator) % self.den

    def orbit(self, x: Fraction, count: int) -> Iterator[int]:
        """Points ``x, Sx, ..., S^count x`` as integers mod D."""
        pos = self.scaled(x)
        yield pos
        for _ in range(count):
            if self.alpha is not None:
                pos = (pos + self.step) % self.den
            else:
                pos += self.shifts[bisect_right(self.walls, pos) - 1]
            yield pos


def _cocycle(cocycle: dict) -> tuple[list[Fraction], list[int]]:
    return [Fraction(b) for b in cocycle["breakpoints"]], list(cocycle["values"])


def zero_times(system: dict, cocycle: dict, x: Fraction, count: int) -> list[int]:
    """All ``1 <= n <= count`` with ``sum_{i<n} f(S^i x) = 0``."""
    walls, values = _cocycle(cocycle)
    rmap = RationalMap(system, walls + [x])
    iwalls = [rmap.scaled(w) for w in walls]
    total = 0
    out = []
    orbit = rmap.orbit(x, count - 1)
    for n, pos in enumerate(orbit, start=1):
        total += values[bisect_right(iwalls, pos) - 1]
        if total == 0:
            out.append(n)
    return out


def near_times(system: dict, x: Fraction, count: int, eps: Fraction) -> list[int]:
    """All ``1 <= n <= count`` with circle distance ``d(S^n x, x) < eps``."""
    rmap = RationalMap(system, [x, eps])
    limit = eps.numerator * rmap.den // eps.denominator
    out = []
    orbit = rmap.orbit(x, count)
    start = next(orbit)
    for n, pos in enumerate(orbit, start=1):
        delta = (pos - start) % rmap.den
        if min(delta, rmap.den - delta) < limit:
            out.append(n)
    return out
