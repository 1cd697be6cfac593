"""Skew products over integer cocycles: stepping, telescoping, rectangle averages."""
import math
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ergolab import skew
from ergolab.angles import AngleSpec
from ergolab.cocycles import StepCocycle, birkhoff_sums
from ergolab.errors import PrecisionExhaustedError
from ergolab.fixedpoint import MAX_ERR_ULPS, ONE, FixedReal
from ergolab.recurrence import TargetSet
from ergolab.skew import ProductState, SkewSystem, orbit_statistics
from ergolab.systems import CircleRotation, IntervalExchange

from _oracles import fraction_exchange, skew_step, step_value, surd_orbit_cells

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


# --------------------------------------------------------------------------- #
# the telescoped orbit against the per-step loop and the true surd orbit
# --------------------------------------------------------------------------- #


NON_SQUARES = [c for c in range(2, 200) if math.isqrt(c) ** 2 != c]
GOLDEN = (-1, 1, 5, 2)
EXPONENTS = [
    ([0, HALF], [1, -1]),
    ([0, HALF], [-2, 2]),
    ([0, Fraction(1, 4), HALF, Fraction(3, 4)], [1, -1, 2, -2]),
    ([0, Fraction(1, 4), Fraction(3, 4)], [2, -1, 0]),
]


def outcome(run):
    """``run()``, or the type, message and step of its precision refusal."""
    try:
        return run()
    except PrecisionExhaustedError as exc:
        return type(exc), str(exc), exc.step


def looped(run):
    """``run()`` with the telescoped pass switched off, so that only the per-step loop answers."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(skew, "_telescopes", lambda system, start: False)
        return outcome(run)


def sides_of(rects) -> list:
    return [(TargetSet([xs]), TargetSet([ys])) for xs, ys in rects]


@st.composite
def dyadic_exchanges(draw) -> tuple[list[Fraction], tuple[int, ...]]:
    """Lengths ``k/16`` of two to four intervals and a permutation of them."""
    cuts = sorted(draw(st.sets(st.integers(1, 15), min_size=1, max_size=3)))
    lengths = [Fraction(b - a, 16) for a, b in zip([0, *cuts], [*cuts, 16])]
    return lengths, tuple(draw(st.permutations(range(1, len(lengths) + 1))))


@st.composite
def rectangle_lists(draw) -> list:
    """One to three rectangles with corners at multiples of ``1/16`` or ``1/97``."""
    rects = []
    for _ in range(draw(st.integers(1, 3))):
        den = draw(st.sampled_from([16, 97]))
        sides = [sorted(draw(st.sets(st.integers(0, den), min_size=2, max_size=2))) for _ in "xy"]
        rects.append(tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi in sides))
    return rects


def near(draw, mantissas: list[int], a_m: int) -> FixedReal:
    """A point a few ulps from one of ``mantissas`` at a chosen step of the rotation by ``a_m``, or at step 0."""
    step = draw(st.sampled_from([0, 1, draw(st.integers(0, 60))]))
    point = draw(st.sampled_from(mantissas)) + draw(st.integers(-4, 4)) - step * a_m
    return FixedReal(point % ONE, draw(st.sampled_from([0, 1, 2, 5])))


@st.composite
def skew_orbits(draw):
    """A skew product over a surd rotation, its start, a horizon and rectangles.

    The exponent takes values ``±1`` or ``±2`` on dyadic walls.  The fiber
    is a surd rotation or a dyadic exchange.  Each start coordinate is
    rational (exact or rounded to the grid), or a few ulps from a wall at a
    chosen step: ``x`` from an exponent wall or a rectangle's ``x`` end,
    ``y`` from a rectangle's ``y`` end (at ``y0 + s beta`` for a rotation
    fiber, ``s`` up to 3) or from an exchange wall.
    """
    surd = draw(st.sampled_from([GOLDEN, (0, 1, 2, 1), None]))
    if surd is None:
        surd = (draw(st.integers(-20, 20)), draw(st.sampled_from([*range(-12, 0), *range(1, 13)])),
                draw(st.sampled_from(NON_SQUARES)), draw(st.integers(1, 40)))
    base = CircleRotation(AngleSpec.quadratic(*surd))
    walls, values = draw(st.sampled_from(EXPONENTS))
    if draw(st.booleans()):
        beta = draw(st.sampled_from([(0, 1, 2, 1), (1, 1, 3, 4), (1, 0, 1, 8)]))
        fiber = CircleRotation(AngleSpec.quadratic(*beta) if beta[1] else AngleSpec.rational(1, 8))
        fiber_walls, b_m = [], fiber.alpha.resolved.mantissa
    else:
        fiber = IntervalExchange(*draw(dyadic_exchanges()))
        fiber_walls, b_m = fiber.walls.mantissas[1:], 0
    rects = draw(rectangle_lists())
    sides = sides_of(rects)
    a_m = base.alpha.resolved.mantissa
    rational = st.builds(Fraction, st.integers(0, 59), st.sampled_from([3, 7, 16, 60]))
    if draw(st.booleans()):
        x = FixedReal.of(draw(rational) % 1)
    else:
        x_walls = [FixedReal.of(w).mantissa for w in walls] + [
            w for sx, _ in sides for w in sx.walls.mantissas
        ]
        x = near(draw, x_walls, a_m)
    if draw(st.booleans()):
        y = FixedReal.of(draw(rational) % 1)
    else:
        y_walls = fiber_walls + [w for _, sy in sides for w in sy.walls.mantissas]
        s = draw(st.integers(-3, 3))
        y = FixedReal((near(draw, y_walls, 0).mantissa - s * b_m) % ONE, draw(st.sampled_from([0, 1, 3])))
    steps = draw(st.one_of(st.integers(1, 40), st.integers(1, 5000)))
    return SkewSystem(base, fiber, StepCocycle(walls, values)), ProductState(x, y), steps, rects


@settings(max_examples=120, deadline=None)
@given(case=skew_orbits())
def test_the_telescoped_orbit_is_the_loops(case):
    """Wherever the telescoped pass answers, the per-step loop answers the same, radii included.

    ``orbit_statistics`` then returns the loop's statistics, or raises the
    loop's refusal, with its type, message and step.
    """
    system, start, steps, rects = case
    sides = sides_of(rects)
    loop = outcome(lambda: skew._orbit_loop(system, start, steps, sides))
    assert skew._telescopes(system, start)
    try:
        fast = skew._telescoped_orbit(system, start, steps, sides)
    except PrecisionExhaustedError:
        event("the telescoped pass refused")
    else:
        event("answered")
        assert fast == loop
    run = lambda: orbit_statistics(system, start, steps, rects)  # noqa: E731
    assert outcome(run) == looped(run)


def test_exponent_sums_past_int64_are_summed_in_python_integers():
    """Values ``±2**62`` pass int64 once ``|S_n|`` reaches 2, so ``S_n`` runs in Python integers, as the loop sums."""
    exponent = StepCocycle([0, HALF], [2**62, -(2**62)])
    system = SkewSystem(
        CircleRotation(AngleSpec.preset("golden")), CircleRotation(AngleSpec.preset("sqrt2")), exponent
    )
    start, rects = state(Fraction(1, 10), Fraction(1, 4)), [((0, HALF), (0, HALF)), ((HALF, 1), (0, 1))]
    fast = skew._telescoped_orbit(system, start, 300, sides_of(rects))
    assert fast == skew._orbit_loop(system, start, 300, sides_of(rects))
    assert fast[1] % 2**62 == 0


def test_a_base_start_near_the_margin_is_refused_as_the_loop_refuses():
    """The base radius passes ``MAX_ERR_ULPS`` at step 6: the kernel refuses there, and the loop's refusal surfaces.

    The loop tests the rectangle's ``x`` side first, which refuses the
    radius at the same step.
    """
    system = pm_system(AngleSpec.preset("golden"), AngleSpec.preset("sqrt2"))
    start = ProductState(FixedReal(ONE // 10, MAX_ERR_ULPS - 5), FixedReal.of(Fraction(1, 4)))
    rects = [((0, HALF), (0, HALF))]
    with pytest.raises(PrecisionExhaustedError, match="safety margin") as kernel:
        skew._telescoped_orbit(system, start, 20, sides_of(rects))
    assert kernel.value.step == 6
    run = lambda: orbit_statistics(system, start, 20, rects)  # noqa: E731
    refusal = outcome(run)
    assert refusal == looped(run)
    assert refusal[1].endswith("exceeds the safety margin") and refusal[2] == 6


@pytest.mark.parametrize("x_side, refused", [((HALF, 1), True), ((0, HALF), False)],
                         ids=["x-inside", "x-outside"])
def test_a_fiber_point_on_a_y_wall_is_tested_only_while_x_is_inside(x_side, refused):
    """``T y0`` straddles the rectangle's ``y`` wall at 1/2, and the orbit reaches ``S = 1`` only at step 1.

    From ``x = 1/10`` the golden orbit has exponent ``+1`` at step 0, so
    step 1 is at ``S = 1``, with ``x`` near 0.72; step 2 is back at
    ``S = 0``.  With the ``x`` side ``[1/2, 1)`` the loop tests that fiber
    point and refuses it at step 1, and so must the statistics; with
    ``[0, 1/2)`` it never tests it, and both answer.
    """
    system = pm_system(AngleSpec.preset("golden"), AngleSpec.preset("sqrt2"))
    b_m = system.fiber.alpha.resolved.mantissa
    start = ProductState(FixedReal.of(Fraction(1, 10)), FixedReal((ONE // 2 - b_m) % ONE, 1))
    rects = [(x_side, (HALF, 1))]
    run = lambda: orbit_statistics(system, start, 2, rects)  # noqa: E731
    result = outcome(run)
    assert result == looped(run)
    assert isinstance(result, tuple) == refused
    if refused:
        assert result == (PrecisionExhaustedError, "ambiguous classification against a cell wall", 1)
        with pytest.raises(PrecisionExhaustedError):
            skew._telescoped_orbit(system, start, 2, sides_of(rects))
    else:
        assert result.averages == (0.0,) and result.fiber_displacement == 0


def test_inexact_exchange_fibers_and_exchange_bases_take_the_loop(monkeypatch):
    """An exchange whose lengths round to the grid, or an exchange base, never reaches the telescoped pass."""
    monkeypatch.setattr(skew, "_telescoped_orbit", refuse_telescoping)
    golden = CircleRotation(AngleSpec.preset("golden"))
    rounded = IntervalExchange([Fraction(3, 10), Fraction(1, 5), Fraction(1, 2)], (3, 2, 1))
    dyadic = IntervalExchange([Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 4)], (4, 3, 2, 1))
    start = state(Fraction(1, 10), Fraction(1, 4))
    rects = [((0, HALF), (0, HALF))]
    for base, fiber in [(golden, rounded), (dyadic, CircleRotation(AngleSpec.preset("sqrt2")))]:
        system = SkewSystem(base, fiber, StepCocycle.step_at_half())
        assert not skew._telescopes(system, start)
        stats = orbit_statistics(system, start, 200, rects)
        assert stats.steps == 200 and 0 < stats.averages[0] < 1


def refuse_telescoping(*args, **kwargs):
    raise AssertionError("the orbit took the telescoped pass")


@st.composite
def surd_skews(draw):
    """A golden base from a rational ``x0``, a dyadic-exchange fiber from a rational ``y0``, and rectangles."""
    walls, values = draw(st.sampled_from(EXPONENTS))
    lengths, permutation = draw(dyadic_exchanges())
    rational = st.builds(Fraction, st.integers(0, 96), st.sampled_from([5, 16, 97]))
    x0, y0 = draw(rational) % 1, draw(rational) % 1
    return walls, values, lengths, permutation, x0, y0, draw(rectangle_lists()), draw(st.integers(1, 2000))


@settings(max_examples=40, deadline=None)
@given(case=surd_skews())
def test_skew_statistics_match_the_exact_surd_orbit(case):
    """Wherever the statistics answer, they are those of the true golden orbit and the exact fiber.

    The oracle places ``{x0 + n alpha}`` in ``Q(sqrt 5)`` against the
    exponent's walls merged with every rectangle's ``x`` ends, so each
    cell has one exponent value and one label per rectangle, and moves the
    fiber point ``T^{S_n} y0`` on exact rationals.
    """
    walls, values, lengths, permutation, x0, y0, rects, steps = case
    system = SkewSystem(
        CircleRotation(AngleSpec.quadratic(*GOLDEN)), IntervalExchange(lengths, permutation),
        StepCocycle(walls, values),
    )
    try:
        stats = orbit_statistics(system, state(x0, y0), steps, rects)
    except PrecisionExhaustedError:
        event("refused")
        return
    merged = sorted({*walls, *(end for xs, _ in rects for end in xs if end < 1)})
    value = [step_value(w, walls, values) for w in merged]
    cells = surd_orbit_cells(GOLDEN, x0, merged, steps)
    fiber, total, hits = {}, 0, [0] * len(rects)
    for cell in cells:
        if total not in fiber:
            fiber[total] = fraction_exchange(lengths, permutation, y0, total)
        for k, ((x_lo, x_hi), (y_lo, y_hi)) in enumerate(rects):
            hits[k] += x_lo <= merged[cell] < x_hi and y_lo <= fiber[total] < y_hi
        total += value[cell]
    assert stats.fiber_displacement == total
    assert stats.averages == tuple(k / steps for k in hits)
