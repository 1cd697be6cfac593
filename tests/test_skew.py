"""Skew products over integer cocycles: stepping, telescoping, rectangle averages."""
from fractions import Fraction

import pytest

from ergolab.angles import AngleSpec
from ergolab.cocycles import StepCocycle, birkhoff_sums
from ergolab.fixedpoint import FixedReal
from ergolab.skew import ProductState, SkewSystem, orbit_statistics
from ergolab.systems import CircleRotation, IntervalExchange

from _oracles import skew_step

HALF = Fraction(1, 2)


def pm_system(base_angle: AngleSpec, fiber_angle: AngleSpec) -> SkewSystem:
    return SkewSystem(
        CircleRotation(base_angle),
        CircleRotation(fiber_angle),
        StepCocycle.step_at_half(),
    )


def state(x, y) -> ProductState:
    return ProductState(FixedReal.of(x), FixedReal.of(y))


def test_single_steps_follow_the_exponent_sign():
    system = pm_system(AngleSpec.rational(1, 2), AngleSpec.rational(1, 8))
    # on [0, 1/2) the exponent is +1: fiber advances by 1/8
    nxt, n = system.step(state(0, Fraction(1, 4)))
    assert n == 1
    assert nxt.x.to_fraction() == HALF
    assert nxt.y.to_fraction() == Fraction(3, 8)
    # on [1/2, 1) it is -1: fiber retreats by 1/8
    nxt, n = system.step(state(HALF, Fraction(1, 4)))
    assert n == -1
    assert nxt.x.to_fraction() == 0
    assert nxt.y.to_fraction() == Fraction(1, 8)


def test_fiber_power_negative_is_the_inverse_rotation():
    system = pm_system(AngleSpec.preset("golden"), AngleSpec.rational(1, 8))
    y = system.fiber_power(FixedReal.of(0), -3)
    assert y.to_fraction() == Fraction(5, 8)


def test_fiber_power_iterates_interval_exchanges():
    fiber = IntervalExchange([Fraction(1, 4), Fraction(3, 4)], (2, 1))  # x -> x + 3/4
    system = SkewSystem(
        CircleRotation(AngleSpec.preset("golden")), fiber, StepCocycle.step_at_half()
    )
    assert system.fiber_power(FixedReal.of(0), 2).to_fraction() == HALF
    assert system.fiber_power(FixedReal.of(0), -1).to_fraction() == Fraction(1, 4)


def test_zero_exponent_freezes_the_fiber():
    frozen = StepCocycle([0, HALF], [0, 0])
    base = CircleRotation(AngleSpec.preset("golden"))
    system = SkewSystem(base, CircleRotation(AngleSpec.preset("sqrt2")), frozen)
    s = state(Fraction(1, 10), Fraction(1, 4))
    p = FixedReal.of(Fraction(1, 10))
    for _ in range(100):
        s = skew_step(system, s)
        p = base.apply(p)
        assert s.y.to_fraction() == Fraction(1, 4)
        assert s.x.mantissa == p.mantissa  # base coordinate is the plain rotation


def test_fiber_displacement_telescopes_to_the_birkhoff_sum():
    system = pm_system(AngleSpec.preset("golden"), AngleSpec.preset("sqrt2"))
    x0 = Fraction(1, 10)
    stats = orbit_statistics(
        system, state(x0, Fraction(1, 4)), 10**4, [((0, 1), (0, 1))]
    )
    plain = list(
        birkhoff_sums(
            CircleRotation(AngleSpec.preset("golden")),
            StepCocycle.step_at_half(),
            FixedReal.of(x0),
            10**4,
        )
    )
    assert stats.fiber_displacement == plain[-1]


def test_whole_rectangle_has_average_one():
    system = pm_system(AngleSpec.preset("golden"), AngleSpec.preset("sqrt2"))
    stats = orbit_statistics(system, state(0, 0), 50, [((0, 1), (0, 1))])
    assert stats.averages == (1.0,)
    assert stats.standard_errors == (0.0,)
    assert stats.steps == 50


def test_rectangle_frequencies_report_orbit_structure():
    """The base marginal equidistributes; the product average is dominated by
    it.  No product-measure claim is made: the fiber displacement of the
    half-step cocycle stays nearly bounded, so the fiber coordinate visits a
    sparse set of positions and the joint frequency need not converge to the
    rectangle's area."""
    system = pm_system(AngleSpec.preset("golden"), AngleSpec.preset("sqrt2"))
    rects = [
        ((Fraction(0), HALF), (Fraction(0), HALF)),
        ((Fraction(0), HALF), (Fraction(0), Fraction(1))),
    ]
    stats = orbit_statistics(system, state(0, 0), 20_000, rects)
    joint, base_marginal = stats.averages
    assert abs(base_marginal - 0.5) <= 4 * stats.standard_errors[1]
    assert 0.0 <= joint <= base_marginal
    repeat = orbit_statistics(system, state(0, 0), 20_000, rects)
    assert repeat.averages == stats.averages  # orbit statistics are deterministic


def test_frozen_fiber_marginal_equidistributes():
    """With exponent 0 the product degenerates to the base rotation, and the
    half-base rectangle frequency must approach 1/2 like any Birkhoff average
    of an equidistributing orbit."""
    frozen = StepCocycle([0, HALF], [0, 0])
    system = SkewSystem(
        CircleRotation(AngleSpec.preset("golden")),
        CircleRotation(AngleSpec.preset("sqrt2")),
        frozen,
    )
    stats = orbit_statistics(
        system,
        state(Fraction(1, 10), Fraction(1, 4)),
        100_000,
        [((Fraction(0), HALF), (Fraction(0), Fraction(1)))],
    )
    assert stats.fiber_displacement == 0
    assert abs(stats.averages[0] - 0.5) <= 3 * stats.standard_errors[0]


def test_non_integer_exponent_rejected():
    tilted = StepCocycle([0, HALF], [Fraction(1, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError, match="integer"):
        SkewSystem(
            CircleRotation(AngleSpec.preset("golden")),
            CircleRotation(AngleSpec.rational(1, 8)),
            tilted,
        )


def test_steps_must_be_positive():
    system = pm_system(AngleSpec.preset("golden"), AngleSpec.preset("sqrt2"))
    with pytest.raises(ValueError):
        orbit_statistics(system, state(0, 0), 0, [((0, 1), (0, 1))])
