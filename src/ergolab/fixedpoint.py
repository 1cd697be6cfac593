"""Fixed-point circle arithmetic with explicit error accounting.

Every coordinate on the circle (and every exact scalar derived from one) is
a :class:`FixedReal`: a signed big-integer mantissa at the fixed global
scale of ``2**-192``, paired with an error bound ``err_ulps`` counted in
units in the last place.  The represented real number is guaranteed to lie
in ``[(mantissa - err_ulps) * 2**-SCALE, (mantissa + err_ulps) * 2**-SCALE]``.

Design rules:

* addition, subtraction, integer scaling and reduction mod 1 are exact
  (error bounds add, never grow spuriously);
* multiplication rounds to nearest and widens the bound to cover both the
  rounding and the operands' intervals;
* comparisons are *guarded*: :func:`guarded_compare` answers ``LESS`` or
  ``GREATER`` only when the two intervals are disjoint and ``AMBIGUOUS``
  otherwise.  Cell classification against interval walls either resolves
  provably or raises :class:`~ergolab.errors.PrecisionExhaustedError` —
  a long orbit can never silently misclassify a point.

With 192 fractional bits and one ulp of input error, a scan of 10**9 steps
accumulates error below 2**-160, far below any separation the detectors in
this package ever need to resolve.
"""
from __future__ import annotations

import enum
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import PrecisionExhaustedError

#: global fractional bit count shared by every FixedReal
SCALE = 192

#: the circle circumference ``1.0`` at the global scale
ONE = 1 << SCALE

#: orbit machinery refuses to work with error bounds beyond this many ulps
#: (still only 2**-96 in absolute terms)
MAX_ERR_ULPS = 1 << 96

Real = Union["FixedReal", int, float, Fraction]


class Cmp(enum.Enum):
    """Outcome of a guarded comparison."""

    LESS = -1
    AMBIGUOUS = 0
    GREATER = 1


def _round_half_up(numerator: int, shift: int) -> int:
    """Round ``numerator / 2**shift`` to the nearest integer, halves up.

    Works for negative numerators as well (Python ``>>`` floors), and is
    used everywhere so that rounding is deterministic across platforms.
    """
    return (numerator + (1 << (shift - 1))) >> shift


class FixedReal:
    """An interval ``mantissa ± err_ulps`` at the global 192-bit scale."""

    __slots__ = ("mantissa", "err_ulps")

    #: fixed global fractional bit count (class-wide by design)
    scale = SCALE

    def __init__(self, mantissa: int, err_ulps: int = 0):
        if err_ulps < 0:
            raise ValueError("err_ulps must be non-negative")
        self.mantissa = mantissa
        self.err_ulps = err_ulps

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_int(cls, n: int) -> "FixedReal":
        return cls(n << SCALE, 0)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "FixedReal":
        """Round a rational to the grid; exact (err 0) iff the value is dyadic."""
        num = value.numerator << SCALE
        den = value.denominator
        if num % den == 0:
            return cls(num // den, 0)
        # round to nearest; the true value is strictly inside the ulp
        mantissa = (2 * num + den) // (2 * den)
        return cls(mantissa, 1)

    @classmethod
    def from_float(cls, value: float) -> "FixedReal":
        # binary doubles with exponent >= -SCALE are exactly representable
        return cls.from_fraction(Fraction(value))

    @classmethod
    def of(cls, value: Real) -> "FixedReal":
        """Coerce ints, floats, Fractions (exactly where possible) or pass through."""
        if isinstance(value, FixedReal):
            return value
        if isinstance(value, int):
            return cls.from_int(value)
        if isinstance(value, float):
            return cls.from_float(value)
        if isinstance(value, Fraction):
            return cls.from_fraction(value)
        raise TypeError(f"cannot interpret {value!r} as a FixedReal")

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    @property
    def is_exact(self) -> bool:
        return self.err_ulps == 0

    def to_fraction(self) -> Fraction:
        """The nominal (midpoint) value as an exact rational."""
        return Fraction(self.mantissa, ONE)

    def interval(self) -> tuple[Fraction, Fraction]:
        """Exact lower/upper bounds of the represented interval."""
        return (
            Fraction(self.mantissa - self.err_ulps, ONE),
            Fraction(self.mantissa + self.err_ulps, ONE),
        )

    def __float__(self) -> float:
        return self.mantissa / ONE

    def __repr__(self) -> str:
        return f"FixedReal({float(self):.17g} ± {self.err_ulps} ulp)"

    def __eq__(self, other) -> bool:
        # identity of representation, not of the underlying real number
        return (
            isinstance(other, FixedReal)
            and self.mantissa == other.mantissa
            and self.err_ulps == other.err_ulps
        )

    def __hash__(self):
        return hash((self.mantissa, self.err_ulps))

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #

    def __add__(self, other: "FixedReal") -> "FixedReal":
        # exact at a common fixed scale; bounds add
        return FixedReal(self.mantissa + other.mantissa, self.err_ulps + other.err_ulps)

    def __sub__(self, other: "FixedReal") -> "FixedReal":
        return FixedReal(self.mantissa - other.mantissa, self.err_ulps + other.err_ulps)

    def __neg__(self) -> "FixedReal":
        return FixedReal(-self.mantissa, self.err_ulps)

    def scaled(self, n: int) -> "FixedReal":
        """Multiply by a plain integer (exact)."""
        return FixedReal(self.mantissa * n, self.err_ulps * abs(n))

    def __mul__(self, other: "FixedReal") -> "FixedReal":
        """Full product; rounds to nearest and widens the bound accordingly."""
        product = self.mantissa * other.mantissa
        mantissa = _round_half_up(product, SCALE)
        spill = (
            abs(self.mantissa) * other.err_ulps
            + abs(other.mantissa) * self.err_ulps
            + self.err_ulps * other.err_ulps
        )
        # ceil(spill / 2**SCALE), plus 1 ulp of slack only if rounding happened
        err = -((-spill) >> SCALE)
        if product & (ONE - 1):
            err += 1
        return FixedReal(mantissa, err)

    def frac(self) -> "FixedReal":
        """Reduce mod 1 onto the circle ``[0, 1)`` (exact on mantissas).

        The returned interval is to be read on the circle; classification in
        :class:`Walls` treats intervals that spill over the 0/1 seam as
        ambiguous against the wall at 0, which is the honest answer.
        """
        if self.err_ulps > MAX_ERR_ULPS:
            raise PrecisionExhaustedError(
                f"error bound {self.err_ulps} ulps exceeds the safety margin"
            )
        return FixedReal(self.mantissa % ONE, self.err_ulps)


def guarded_compare(a: FixedReal, b: FixedReal) -> Cmp:
    """Compare two FixedReals; ``AMBIGUOUS`` unless the error intervals are disjoint.

    Antisymmetric by construction.  Note that two exact equal values compare
    ``AMBIGUOUS`` (their point intervals coincide); code that needs half-open
    boundary semantics uses :meth:`Walls.locate`, which special-cases exact
    equality against exact walls.
    """
    if a.mantissa + a.err_ulps < b.mantissa - b.err_ulps:
        return Cmp.LESS
    if b.mantissa + b.err_ulps < a.mantissa - a.err_ulps:
        return Cmp.GREATER
    return Cmp.AMBIGUOUS


def circle_distance(a: FixedReal, b: FixedReal) -> FixedReal:
    """Shortest-arc distance ``min(|a-b|, 1-|a-b|)`` between two circle points."""
    delta = (a.mantissa - b.mantissa) % ONE
    return FixedReal(min(delta, ONE - delta), a.err_ulps + b.err_ulps)


def orbit_point(alpha: FixedReal, n: int, x0: FixedReal) -> FixedReal:
    """The rotation-orbit point ``{x0 + n*alpha}`` in one exact step.

    Error grows additively: ``err <= n*err(alpha) + err(x0)``, comfortably
    inside the documented ``n*err(alpha) + err(x0) + 2`` budget.  Raises
    :class:`PrecisionExhaustedError` once the bound passes the safety margin.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    mantissa = (x0.mantissa + n * alpha.mantissa) % ONE
    err = x0.err_ulps + n * alpha.err_ulps
    if err > MAX_ERR_ULPS:
        raise PrecisionExhaustedError(
            f"error bound {err} ulps exceeds the safety margin", step=n
        )
    return FixedReal(mantissa, err)


class Walls:
    """Ascending interval walls partitioning the circle ``[0, 1)`` into cells.

    ``walls[i]`` is the left end of cell ``i``; the first wall must be the
    exact 0 and the implicit final wall is 1.  Cells are half-open
    ``[walls[i], walls[i+1])``.  Walls may carry error bounds themselves
    (interval-exchange walls built from irrational lengths do); located
    points must then clear the combined uncertainty.
    """

    __slots__ = ("mantissas", "errs", "count", "exact")

    def __init__(self, walls: Sequence[FixedReal]):
        walls = [FixedReal.of(w) for w in walls]
        if not walls:
            raise ValueError("at least one wall is required")
        if walls[0].mantissa != 0 or walls[0].err_ulps != 0:
            raise ValueError("the first wall must be exactly 0")
        self.mantissas = [w.mantissa for w in walls]
        self.errs = [w.err_ulps for w in walls]
        for i in range(1, len(walls)):
            if self.mantissas[i] <= self.mantissas[i - 1]:
                raise ValueError("walls must be strictly increasing")
        if self.mantissas[-1] >= ONE:
            raise ValueError("walls must lie inside [0, 1)")
        self.count = len(walls)
        self.exact = all(e == 0 for e in self.errs)

    def __len__(self) -> int:
        return self.count

    def widths(self) -> list[Fraction]:
        """Exact nominal cell widths (used for zero-mean checks on exact walls)."""
        edges = self.mantissas + [ONE]
        return [Fraction(edges[i + 1] - edges[i], ONE) for i in range(self.count)]

    def locate(self, point: FixedReal) -> int:
        """Index of the cell containing ``point`` (a circle point in ``[0, 1)``).

        Raises :class:`PrecisionExhaustedError` when the point's interval
        overlaps a wall without being exactly on it — the guarded analogue
        of an ambiguous comparison.
        """
        m, e = point.mantissa, point.err_ulps
        if not 0 <= m < ONE:
            raise ValueError("point must be reduced to [0, 1) before classification")
        if e > MAX_ERR_ULPS:
            raise PrecisionExhaustedError(
                f"error bound {e} ulps exceeds the safety margin"
            )
        i = bisect_right(self.mantissas, m) - 1
        lw, le = self.mantissas[i], self.errs[i]
        if e or le:
            # exact-equality shortcut does not apply; need clear separation
            if m - e < lw + le:
                raise PrecisionExhaustedError(
                    "ambiguous classification against a cell wall"
                )
        if i + 1 < self.count:
            rw, re = self.mantissas[i + 1], self.errs[i + 1]
        else:
            rw, re = ONE, 0
        if e or re:
            if m + e >= rw - re:
                raise PrecisionExhaustedError(
                    "ambiguous classification against a cell wall"
                )
        return i


def as_fraction(value: Real) -> Fraction:
    """Coerce to an exact rational; FixedReals must be exact (err 0)."""
    if isinstance(value, FixedReal):
        if not value.is_exact:
            raise ValueError("value carries an error bound; an exact rational is required")
        return value.to_fraction()
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def exact_fraction(value: Real) -> Optional[Fraction]:
    """The exact rational a value denotes, or None if it carries error.

    Unlike :func:`as_fraction` this never raises on an inexact value, and it
    preserves non-dyadic rationals (``Fraction(1, 10)`` stays ``1/10`` rather
    than being rounded through the fixed-point grid).  Dispatch code uses it
    to decide whether an exact closed-form path applies.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, FixedReal) and value.is_exact:
        return value.to_fraction()
    return None
