"""Rotation angles: symbolic specification, 192-bit resolution, continued fractions.

An :class:`AngleSpec` describes an angle symbolically — as a rational
``p/q``, a quadratic surd ``(a + b*sqrt(c))/d`` or a named preset — and
resolves it once into :class:`~ergolab.fixedpoint.FixedReal` form with an
error of at most one ulp.  The symbolic form is kept around: detectors use
it to decide between the exact rational orbit engine and the fixed-point
engine, and continued-fraction expansions are derived from it.

Text forms accepted by :func:`parse_angle`::

    rational:3/7
    surd:(-1+1*sqrt(5))/2
    preset:golden          # (sqrt(5)-1)/2 ~ 0.618...
    preset:sqrt2           # sqrt(2), reduced mod 1 to 0.41421...
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import PrecisionExhaustedError, RationalAngleError
from .fixedpoint import SCALE, FixedReal

_GUARD_BITS = 32

_SURD_RE = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*(-?\d+)$"
)

#: named angles used throughout the preset experiments, as (a, b, c, d)
PRESET_SURDS = {
    "golden": (-1, 1, 5, 2),  # (sqrt(5) - 1) / 2
    "sqrt2": (0, 1, 2, 1),  # sqrt(2); the rotation acts by its fractional part
}


def _resolve_surd(a: int, b: int, c: int, d: int) -> FixedReal:
    """Resolve (a + b*sqrt(c))/d to the global scale with err_ulps <= 1.

    Uses a guarded integer square root: sqrt(c) is bracketed to
    ``2**-(SCALE+_GUARD_BITS)``, so after dividing by d the interval is far
    narrower than one ulp and rounding its midpoint gives a 1-ulp bound.
    """
    shift = SCALE + _GUARD_BITS
    root_floor = math.isqrt(c << (2 * shift))  # floor(sqrt(c) * 2**shift)
    lo_num = (a << shift) + b * root_floor
    hi_num = lo_num + b  # sqrt interval has width < 1 at this scale
    if b < 0:
        lo_num, hi_num = hi_num, lo_num
    if d < 0:
        lo_num, hi_num, d = -hi_num, -lo_num, -d
    denominator = d << _GUARD_BITS
    # round the midpoint of [lo_num, hi_num] / denominator to nearest
    mantissa = (lo_num + hi_num + denominator) // (2 * denominator)
    return FixedReal(mantissa, 1)


class AngleSpec:
    """A symbolic rotation angle and its resolved fixed-point value.

    Attributes:
        kind: ``"rational"`` | ``"surd"`` | ``"preset"``.
        raw: the resolved value before reduction mod 1 (a torus winding's
            slope must keep its integer part; ``sqrt2`` resolves to 1.414...).
        resolved: ``raw`` reduced to the circle ``[0, 1)``; ``err_ulps <= 1``.
    """

    __slots__ = ("kind", "name", "p", "q", "surd", "raw", "resolved")

    def __init__(self, kind: str, *, p: int = 0, q: int = 1,
                 surd: tuple[int, int, int, int] | None = None, name: str = ""):
        self.kind = kind
        self.name = name
        if kind == "rational":
            if q <= 0:
                raise ValueError("rational angle needs a positive denominator")
            g = math.gcd(p, q)
            p, q = p // g, q // g
            self.p, self.q = p, q
            self.surd = None
            self.raw = FixedReal.from_fraction(Fraction(p, q))
        elif kind in ("surd", "preset"):
            assert surd is not None
            a, b, c, d = surd
            if b == 0 or d == 0:
                raise ValueError("surd angle needs b != 0 and d != 0")
            if c <= 0 or math.isqrt(c) ** 2 == c:
                raise ValueError("surd radicand must be positive and not a perfect square")
            self.p = self.q = 0
            self.surd = (a, b, c, d)
            self.raw = _resolve_surd(a, b, c, d)
        else:
            raise ValueError(f"unknown angle kind {kind!r}")
        self.resolved = self.raw.frac()

    # ------------------------------------------------------------------ #

    @classmethod
    def rational(cls, p: int, q: int) -> "AngleSpec":
        return cls("rational", p=p, q=q)

    @classmethod
    def quadratic(cls, a: int, b: int, c: int, d: int) -> "AngleSpec":
        return cls("surd", surd=(a, b, c, d))

    @classmethod
    def preset(cls, name: str) -> "AngleSpec":
        try:
            surd = PRESET_SURDS[name]
        except KeyError:
            raise ValueError(
                f"unknown preset angle {name!r}; available: {sorted(PRESET_SURDS)}"
            ) from None
        return cls("preset", surd=surd, name=name)

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

    def as_fraction(self) -> Fraction:
        """The exact value of a rational angle, reduced mod 1."""
        if not self.is_rational:
            raise ValueError("only rational angles have an exact fraction")
        return Fraction(self.p, self.q) % 1

    def text(self) -> str:
        """Round-trippable text form (the same syntax parse_angle accepts)."""
        if self.kind == "rational":
            return f"rational:{self.p}/{self.q}"
        if self.kind == "preset":
            return f"preset:{self.name}"
        a, b, c, d = self.surd
        sign = "+" if b >= 0 else "-"
        return f"surd:({a}{sign}{abs(b)}*sqrt({c}))/{d}"

    def __repr__(self) -> str:
        return f"AngleSpec({self.text()} ~ {float(self.resolved):.12f})"


def parse_angle(text: str) -> AngleSpec:
    """Parse the ``rational:p/q`` / ``surd:(a+b*sqrt(c))/d`` / ``preset:name`` forms."""
    if not isinstance(text, str):
        raise ValueError(f"angle must be a string, got {text!r}")
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"angle {text!r} is missing its 'kind:' prefix")
    head = head.strip()
    body = body.strip()
    if head == "rational":
        m = re.match(r"^(-?\d+)\s*/\s*(\d+)$", body)
        if not m:
            raise ValueError(f"malformed rational angle {text!r}")
        return AngleSpec.rational(int(m.group(1)), int(m.group(2)))
    if head == "surd":
        m = _SURD_RE.match(body)
        if not m:
            raise ValueError(f"malformed surd angle {text!r}")
        a, sign, b, c, d = m.groups()
        b = int(b) if sign == "+" else -int(b)
        return AngleSpec.quadratic(int(a), b, int(c), int(d))
    if head == "preset":
        return AngleSpec.preset(body)
    raise ValueError(f"unknown angle kind {head!r}")


class ContinuedFraction:
    """Leading partial quotients and convergents of an irrational angle.

    ``quotients`` is ``(a0, a1, ..., a_{k-1})`` with ``a0 = 0`` for angles in
    ``[0, 1)``; ``convergents[j] = (p_j, q_j)`` satisfies the determinant
    identity ``p_j*q_{j-1} - p_{j-1}*q_j = (-1)**(j-1)``.
    """

    __slots__ = ("quotients", "convergents")

    def __init__(self, quotients: tuple[int, ...], convergents: tuple[tuple[int, int], ...]):
        self.quotients = quotients
        self.convergents = convergents

    def fractions(self) -> list[Fraction]:
        return [Fraction(p, q) for p, q in self.convergents]

    def __repr__(self) -> str:
        shown = ", ".join(f"{p}/{q}" for p, q in self.convergents[:6])
        more = ", ..." if len(self.convergents) > 6 else ""
        return f"ContinuedFraction([{shown}{more}])"


def continued_fraction(alpha: AngleSpec, k: int) -> ContinuedFraction:
    """First ``k`` convergents of ``alpha`` (reduced mod 1), provably correct.

    Runs the Euclidean algorithm on the *interval* enclosing the resolved
    value, in exact rational arithmetic; a quotient is emitted only when
    both interval ends agree on it.  Once the interval (inflated by the
    inversions) can no longer pin the next quotient down, the expansion is
    out of the 192-bit budget and ``PrecisionExhaustedError`` is raised.
    Rational angles terminate and are rejected outright.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if alpha.is_rational:
        raise RationalAngleError("continued fraction terminates")
    lo, hi = alpha.resolved.interval()
    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    p_prev, q_prev = 1, 0  # (p_{-1}, q_{-1})
    p_cur, q_cur = None, None
    for _ in range(k):
        a_lo = lo.numerator // lo.denominator
        a_hi = hi.numerator // hi.denominator
        if a_lo != a_hi:
            raise PrecisionExhaustedError(
                "precision exhausted: continued-fraction depth exceeds the 192-bit budget"
            )
        a = a_lo
        if p_cur is None:
            p_cur, q_cur = a, 1  # p_0/q_0 = a_0/1
        else:
            p_cur, p_prev = a * p_cur + p_prev, p_cur
            q_cur, q_prev = a * q_cur + q_prev, q_cur
        quotients.append(a)
        convergents.append((p_cur, q_cur))
        lo -= a
        hi -= a
        if lo <= 0:
            # the interval touches an integer; the next quotient is unbounded
            raise PrecisionExhaustedError(
                "precision exhausted: continued-fraction depth exceeds the 192-bit budget"
            )
        lo, hi = 1 / hi, 1 / lo
    return ContinuedFraction(tuple(quotients), tuple(convergents))


def cf_convergents(alpha: AngleSpec, k: int) -> list[Fraction]:
    """Convenience wrapper returning the first ``k`` convergents as Fractions."""
    return continued_fraction(alpha, k).fractions()
