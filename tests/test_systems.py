"""Base systems: rotations, interval exchanges, torus windings, special flows."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.angles import AngleSpec
from ergolab.fixedpoint import FixedReal, ONE
from ergolab.systems import (
    CircleRotation,
    IntervalExchange,
    Roof,
    SpecialFlowState,
    TorusPoint,
    TorusWinding,
    flow_distance,
    special_flow_step,
)

import mpmath

from _oracles import surd_decimal


def fx(value) -> FixedReal:
    return FixedReal.of(Fraction(value))


def assert_in_interval(lo: Fraction, hi: Fraction, target: mpmath.mpf) -> None:
    """Check a high-precision constant lies in a sub-ulp fixed-point interval."""
    with mpmath.workdps(80):
        assert mpmath.mpf(lo.numerator) / lo.denominator <= target
        assert target <= mpmath.mpf(hi.numerator) / hi.denominator


# --------------------------------------------------------------------------- #
# rotations
# --------------------------------------------------------------------------- #


def test_rotation_wraps_exactly():
    rot = CircleRotation(AngleSpec.rational(1, 4))
    assert rot.apply(fx(Fraction(7, 8))) == fx(Fraction(1, 8))


def test_zero_angle_is_identity():
    rot = CircleRotation(AngleSpec.rational(0, 1))
    p = fx(Fraction(3, 10))
    assert rot.apply(p) == p


def test_golden_rotation_from_zero():
    rot = CircleRotation(AngleSpec.preset("golden"))
    image = rot.apply(FixedReal.from_int(0))
    lo, hi = image.interval()
    assert_in_interval(lo, hi, surd_decimal(-1, 1, 5, 2))
    assert float(image) == pytest.approx(0.6180339887498949, abs=1e-15)


def test_rotation_inverse_roundtrip():
    rot = CircleRotation(AngleSpec.preset("sqrt2"))
    p = fx(Fraction(1, 3))
    back = rot.inverse_apply(rot.apply(p))
    assert back.mantissa == p.mantissa


def test_point_at_matches_iterated_apply():
    rot = CircleRotation(AngleSpec.preset("golden"))
    p = fx(Fraction(1, 10))
    q = p
    for _ in range(50):
        q = rot.apply(q)
    direct = rot.point_at(p, 50)
    assert direct.mantissa == q.mantissa


# --------------------------------------------------------------------------- #
# interval exchanges
# --------------------------------------------------------------------------- #


def test_two_cell_swap_examples():
    iet = IntervalExchange([Fraction(1, 4), Fraction(3, 4)], (2, 1))
    assert iet.apply(fx(Fraction(1, 10))) == fx(Fraction(17, 20))
    assert iet.apply(fx(Fraction(1, 2))) == fx(Fraction(1, 4))


def test_identity_permutation_is_identity():
    iet = IntervalExchange([Fraction(1, 4), Fraction(3, 4)], (1, 2))
    for num in range(8):
        p = fx(Fraction(num, 8))
        assert iet.apply(p) == p


def test_lengths_must_fill_the_circle():
    with pytest.raises(ValueError):
        IntervalExchange([Fraction(1, 4), Fraction(1, 2)], (2, 1))


def test_permutation_must_be_bijection():
    with pytest.raises(ValueError):
        IntervalExchange([Fraction(1, 2), Fraction(1, 2)], (1, 1))


@given(
    num=st.integers(min_value=0, max_value=1023),
    beta_num=st.integers(min_value=1, max_value=63),
)
def test_swap_iet_is_a_rotation(num, beta_num):
    """Exchanging (beta, 1-beta) with the swap acts as rotation by 1-beta."""
    beta = Fraction(beta_num, 64)
    iet = IntervalExchange([beta, 1 - beta], (2, 1))
    rot = CircleRotation(AngleSpec.rational((1 - beta).numerator, (1 - beta).denominator))
    p = fx(Fraction(num, 1024))
    assert iet.apply(p) == rot.apply(p)


@given(num=st.integers(min_value=0, max_value=255))
def test_iet_inverse_roundtrip(num):
    iet = IntervalExchange(
        [Fraction(1, 8), Fraction(3, 8), Fraction(1, 2)], (3, 1, 2)
    )
    p = fx(Fraction(num, 256))
    assert iet.inverse_apply(iet.apply(p)) == p
    assert iet.apply(iet.inverse_apply(p)) == p


# --------------------------------------------------------------------------- #
# torus windings
# --------------------------------------------------------------------------- #


def test_winding_time_zero_is_identity():
    w = TorusWinding(AngleSpec.preset("sqrt2"))
    p = TorusPoint(0, 0)
    q = w.flow(p, 0)
    assert q.x == p.x and q.y == p.y


def test_winding_unit_time_lands_on_sqrt2_fraction():
    w = TorusWinding(AngleSpec.preset("sqrt2"))
    q = w.flow(TorusPoint(0, 0), 1)
    assert float(q.x) == 0.0
    lo, hi = q.y.interval()
    target = surd_decimal(0, 1, 2, 1) - 1  # fractional part of sqrt(2)
    assert_in_interval(lo, hi, target)
    assert float(q.y) == pytest.approx(0.41421356237309515, abs=1e-15)


def test_winding_half_time_from_center():
    w = TorusWinding(AngleSpec.preset("sqrt2"))
    q = w.flow(TorusPoint(Fraction(1, 2), Fraction(1, 2)), Fraction(1, 2))
    assert float(q.x) == 0.0
    # {1/2 + gamma/2} with gamma = sqrt(2): 0.5 + 0.7071... = 1.2071... -> 0.2071...
    assert float(q.y) == pytest.approx(0.20710678118654746, abs=1e-15)


def test_winding_warns_on_rational_slope():
    from ergolab.errors import RationalAngleWarning

    with pytest.warns(RationalAngleWarning):
        TorusWinding(AngleSpec.rational(1, 3))


def test_winding_uses_unreduced_slope():
    """The vertical speed is the raw gamma, not its fractional part."""
    w = TorusWinding(AngleSpec.preset("sqrt2"))
    assert w.slope == pytest.approx(1.4142135623730951)


# --------------------------------------------------------------------------- #
# special flows
# --------------------------------------------------------------------------- #


def unit_roof(alpha: AngleSpec) -> Roof:
    return Roof.constant(1, CircleRotation(alpha))


def test_flow_below_roof_moves_straight_up():
    roof = unit_roof(AngleSpec.preset("golden"))
    start = SpecialFlowState(Fraction(1, 10), Fraction(3, 10))
    state, crossings = special_flow_step(roof, start, Fraction(1, 2))
    assert crossings == 0
    assert state.a == start.a
    assert state.b == Fraction(4, 5)


def test_flow_exact_roof_hit_applies_the_base_map():
    alpha = AngleSpec.rational(1, 4)
    roof = unit_roof(alpha)
    start = SpecialFlowState(Fraction(1, 10), Fraction(3, 10))
    state, crossings = special_flow_step(roof, start, Fraction(7, 10))
    assert crossings == 1
    assert state.b == 0
    assert state.a == fx(Fraction(1, 10) + Fraction(1, 4))


def test_flow_period_two_returns_home():
    roof = unit_roof(AngleSpec.rational(1, 2))
    state, crossings = special_flow_step(roof, SpecialFlowState(0), 2)
    assert crossings == 2
    assert state.a == FixedReal.from_int(0)
    assert state.b == 0


def test_variable_roof_heights_are_exact():
    base = CircleRotation(AngleSpec.rational(1, 2))
    roof = Roof([0, Fraction(1, 2)], [Fraction(1, 2), Fraction(3, 2)], base)
    assert roof.area() == 1
    # starting at (0, 0): cell 0 tops out after 1/2, then cell 1 after 3/2 more
    state, crossings = special_flow_step(roof, SpecialFlowState(0), 2)
    assert crossings == 2
    assert state.a == FixedReal.from_int(0)
    assert state.b == 0


def test_roof_rejects_nonpositive_heights():
    base = CircleRotation(AngleSpec.rational(1, 2))
    with pytest.raises(ValueError):
        Roof([0, Fraction(1, 2)], [Fraction(1, 2), 0], base)


@settings(max_examples=200)
@given(
    a_num=st.integers(min_value=0, max_value=63),
    b_num=st.integers(min_value=0, max_value=7),
    t_num=st.integers(min_value=0, max_value=40),
    u_num=st.integers(min_value=0, max_value=40),
)
def test_flow_semigroup_law(a_num, b_num, t_num, u_num):
    """Flowing t+u equals flowing t then u: states and crossings agree exactly."""
    base = CircleRotation(AngleSpec.preset("golden"))
    roof = Roof([0, Fraction(1, 2)], [Fraction(1, 2), Fraction(3, 2)], base)
    b = Fraction(b_num, 16)  # stays below both cell heights / 16 < 1/2
    start = SpecialFlowState(Fraction(a_num, 64), b)
    t, u = Fraction(t_num, 8), Fraction(u_num, 8)
    direct, k_direct = special_flow_step(roof, start, t + u)
    middle, k1 = special_flow_step(roof, start, t)
    final, k2 = special_flow_step(roof, middle, u)
    assert k_direct == k1 + k2
    assert direct.a == final.a
    assert direct.b == final.b


BASES = [
    CircleRotation(AngleSpec.preset("golden")),
    CircleRotation(AngleSpec.rational(3, 8)),
    IntervalExchange([Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 4)], [4, 3, 2, 1]),
]


@settings(max_examples=300)
@given(
    base=st.sampled_from(BASES),
    inner=st.sets(st.integers(min_value=1, max_value=15), max_size=3),
    data=st.data(),
)
def test_the_horizon_bounds_the_roof_crossings(base, inner, data):
    """Within time t a special flow crosses its roof at most ceil(t / min height) times.

    The first crossing uses up the start's room ``r(a) - b > 0`` and each
    later one a whole roof height, so ``c`` crossings take more than
    ``(c - 1) min height``: the walks need no crossing budget of their own.
    """
    walls = [Fraction(0)] + [Fraction(k, 16) for k in sorted(inner)]
    heights = [
        Fraction(data.draw(st.integers(1, 40)), data.draw(st.sampled_from([1, 2, 4, 8])))
        for _ in walls
    ]
    roof = Roof(walls, heights, base)
    a = SpecialFlowState(Fraction(data.draw(st.integers(0, 63)), 64)).a
    start = SpecialFlowState(a, roof.height_at(a) * Fraction(data.draw(st.integers(0, 63)), 64))
    t = Fraction(data.draw(st.integers(0, 400)), data.draw(st.sampled_from([1, 2, 3, 7])))
    _, crossings = special_flow_step(roof, start, t)
    assert crossings <= math.ceil(t / min(heights))


def test_flow_distance_is_max_metric():
    # dyadic coordinates so every quantity is exactly representable
    roof = unit_roof(AngleSpec.rational(1, 2))
    s = SpecialFlowState(Fraction(1, 8), Fraction(1, 4))
    t = SpecialFlowState(Fraction(3, 8), Fraction(5, 8))
    assert flow_distance(roof, s, t) == Fraction(3, 8)  # height wins
    far = SpecialFlowState(Fraction(13, 16), Fraction(1, 4))
    assert flow_distance(roof, s, far) == Fraction(5, 16)  # base wins, wrapped
    assert flow_distance(roof, s, s) == 0
