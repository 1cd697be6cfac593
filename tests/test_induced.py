"""First-return maps, induced cocycles, and the return-time/measure product."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ergolab import fixedpoint, induced
from ergolab.angles import AngleSpec
from ergolab.cocycles import StepCocycle, birkhoff_sums
from ergolab.errors import PrecisionExhaustedError, RationalAngleWarning, ReturnBudgetError
from ergolab.fixedpoint import ONE, FixedReal
from ergolab.induced import induce_point, induced_statistics
from ergolab.recurrence import TargetSet
from ergolab.systems import CircleRotation

from _oracles import rational_excursion, step_value, surd_orbit_cells

HALF = Fraction(1, 2)
LEFT_HALF = TargetSet([(0, HALF)])


def golden() -> CircleRotation:
    return CircleRotation(AngleSpec.preset("golden"))


def pm_one() -> StepCocycle:
    return StepCocycle.step_at_half()


# --------------------------------------------------------------------------- #
# single-point induction
# --------------------------------------------------------------------------- #


def test_first_return_examples_match_hand_computation():
    # alpha ~ 0.618: from 0.45 one step wraps to ~0.068 (inside, n=1, sum +1);
    # from 0.35 the orbit visits ~0.968, ~0.586 before landing at ~0.204
    # (n=3, sum +1-1-1 = -1); from 0.05 it visits ~0.668 (n=2, sum 0).
    cases = [
        (Fraction(9, 20), 1, 1),
        (Fraction(7, 20), 3, -1),
        (Fraction(1, 20), 2, 0),
    ]
    for x, n, f_tilde in cases:
        sample = induce_point(golden(), pm_one(), LEFT_HALF, x)
        assert (sample.n, sample.f_tilde) == (n, f_tilde)
        assert LEFT_HALF.contains(sample.return_point)


def test_quarter_rotation_returns_are_exact():
    """Rational angles stay in Fraction arithmetic, so wall hits are decidable."""
    quarter = CircleRotation(AngleSpec.rational(1, 4))
    for x, n, f_tilde, landing in [
        (Fraction(1, 10), 1, 1, Fraction(7, 20)),
        (Fraction(3, 10), 3, -1, Fraction(1, 20)),
    ]:
        sample = induce_point(quarter, pm_one(), LEFT_HALF, x)
        assert (sample.n, sample.f_tilde) == (n, f_tilde)
        lo, hi = sample.return_point.interval()
        assert lo <= landing <= hi


def test_whole_space_returns_immediately():
    sample = induce_point(golden(), pm_one(), TargetSet.whole(), Fraction(1, 3))
    assert sample.n == 1
    assert sample.f_tilde == 1  # f(1/3) = +1 on [0, 1/2)


def test_start_outside_target_rejected():
    with pytest.raises(ValueError, match="target"):
        induce_point(golden(), pm_one(), LEFT_HALF, Fraction(3, 4))


def test_budget_exhaustion():
    sliver = TargetSet([(0, Fraction(1, 10**6))])
    with pytest.raises(ReturnBudgetError):
        induce_point(golden(), pm_one(), sliver, 0, budget=10)


def test_induced_cocycle_is_birkhoff_sum_at_return():
    """f-tilde must equal the plain Birkhoff sum evaluated at the return time."""
    rot, f = golden(), pm_one()
    x: object = Fraction(1, 10)
    for _ in range(20):
        sample = induce_point(rot, f, LEFT_HALF, x)
        sums = list(birkhoff_sums(rot, f, FixedReal.of(x), sample.n))
        assert sample.f_tilde == sums[-1]
        x = sample.return_point


def test_induction_matches_orbit_filtering_for_periodic_base():
    """Chaining first returns reproduces the in-target subsequence of the orbit."""
    rot = CircleRotation(AngleSpec.rational(3, 7))
    f = StepCocycle([0, HALF], [2, -2])
    target = TargetSet([(0, Fraction(3, 7))])
    x0 = Fraction(1, 21)

    orbit, x, total = [], x0, 0
    for _ in range(200):
        total += step_value(x, [0, HALF], [2, -2])
        x = (x + Fraction(3, 7)) % 1
        orbit.append((x, total))
    wanted = [(x, s) for x, s in orbit if x < Fraction(3, 7)]

    x, running = x0, 0
    tiny = Fraction(1, 10**40)  # orbit points carry a few ulps of 2^-192 rounding
    for want_x, want_s in wanted:
        sample = induce_point(rot, f, target, x)
        running += sample.f_tilde
        assert running == want_s
        assert abs(sample.return_point.to_fraction() - want_x) < tiny
        x = sample.return_point


@st.composite
def rational_excursions(draw):
    """A rational angle, a cocycle, a target set, a start and a budget.

    The cocycle is integer-valued on ``{0, w, 1/2, 1/2 + w}`` (``w`` a few
    ulps, or dyadic) or rational-valued on two cells.  The target has one to
    three intervals, whose ends may lie ``10**-30`` apart, far closer than
    the walk's grid step.  The start lies on one of an interval's ends, or
    on a grid of at most 200 points at or past its start, whose ends then
    mostly fall between grid points, or anywhere.
    """
    q = draw(st.integers(1, 60))
    angle = AngleSpec.rational(draw(st.integers(-2 * q, 2 * q)), q)
    w = draw(st.one_of(st.integers(1, 4), st.integers(1, (1 << 20) - 1).map(lambda k: k << 171)))
    if draw(st.booleans()):
        walls, values = [0, w, ONE // 2, ONE // 2 + w], [1, -1, -1, 1]
    else:
        v = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        walls, values = [0, w], [v, -v * w / (ONE - w)]
    walls = [Fraction(m, ONE) for m in walls]
    tiny = Fraction(1, 10**30)
    cuts = set()
    for _ in range(draw(st.integers(1, 3))):
        c = Fraction(draw(st.integers(0, 96)), 97)
        cuts |= {c + tiny * k for k in draw(st.sets(st.integers(0, 3), min_size=1))}
    cuts = sorted(c for c in cuts | {Fraction(1)} if c <= 1)
    pairs = [(lo, hi) for lo, hi in zip(cuts, cuts[1:])][:: draw(st.sampled_from([1, 2]))]
    target = TargetSet(pairs)
    lo, hi = pairs[draw(st.integers(0, len(pairs) - 1))]
    where = draw(st.sampled_from(["inside", "on-end", "anywhere"]))
    if where == "inside":
        grid = draw(st.integers(1, 200))
        x = Fraction(math.ceil(lo * grid) + draw(st.integers(0, 3)), grid) % 1
    elif where == "on-end":
        x = draw(st.sampled_from([lo, hi % 1]))
    else:
        x = Fraction(draw(st.integers(0, 10**6)), 10**6 + 3)
    budget = draw(st.one_of(st.integers(1, 3), st.integers(1, 3 * q)))
    return angle, walls, values, target, x, budget


def excursion_outcome(run):
    try:
        return run()
    except (ValueError, ReturnBudgetError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(case=rational_excursions())
@example(case=(  # the second interval starts 10**-30 past the first's end
    AngleSpec.rational(1, 3), [0, HALF], [1, -1],
    TargetSet([(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30)),
               (Fraction(1, 3) + Fraction(2, 10**30), Fraction(2, 3))]),
    Fraction(1, 3), 5,
))
@example(case=(  # on the quarter grid, 1/2 lies just below 5/8 and 1/4 just below 1/4 + 10**-30
    AngleSpec.rational(1, 4), [0, HALF], [1, -1],
    TargetSet([(Fraction(1, 4), Fraction(1, 4) + Fraction(1, 10**30)),
               (Fraction(5, 8), Fraction(3, 4))]),
    Fraction(1, 4), 5,
))
def test_rational_excursions_match_fraction_stepping(case):
    """``induce_point`` on a rational angle gives the ``Fraction`` excursion, errors included."""
    angle, walls, values, target, x, budget = case
    f = StepCocycle(walls, values)

    def run():
        sample = induce_point(CircleRotation(angle), f, target, x, budget)
        return sample.n, sample.return_point, sample.f_tilde, type(sample.f_tilde)

    def oracle():
        n, p, total = rational_excursion(angle.as_fraction(), walls, f.values, target, x, budget)
        return n, FixedReal.from_fraction(p), total, type(total)

    got = excursion_outcome(run)
    assert got == excursion_outcome(oracle)
    event(got.__name__ if isinstance(got, type) else "returned")


# --------------------------------------------------------------------------- #
# sampled statistics
# --------------------------------------------------------------------------- #


def test_periodic_quarter_statistics():
    """alpha = 1/4, A = [0, 1/2): returns take 1 step from [0, 1/4) and 3 steps
    from [1/4, 1/2), so E[n] = 2 and the induced cocycle means to zero."""
    rot = CircleRotation(AngleSpec.rational(1, 4))
    with pytest.warns(RationalAngleWarning):
        stats = induced_statistics(rot, pm_one(), LEFT_HALF, samples=2000, seed=11)
    assert abs(stats.mean_return - 2.0) <= 4 * stats.se_return
    assert abs(stats.mean_cocycle) <= 4 * stats.se_cocycle
    assert stats.censored == 0
    assert stats.target_measure == HALF


def test_golden_return_times_satisfy_kac():
    stats = induced_statistics(golden(), pm_one(), LEFT_HALF, samples=10**4, seed=3)
    assert stats.censored == 0
    # E[n] * mu(A) = 1 for an ergodic base
    assert abs(stats.kac_product() - 1.0) <= 4 * stats.se_return * float(HALF)
    assert abs(stats.mean_cocycle) <= 4 * stats.se_cocycle


def test_statistics_deterministic_under_seed():
    a = induced_statistics(golden(), pm_one(), LEFT_HALF, samples=300, seed=9)
    b = induced_statistics(golden(), pm_one(), LEFT_HALF, samples=300, seed=9)
    assert (a.mean_return, a.mean_cocycle, a.censored) == (
        b.mean_return,
        b.mean_cocycle,
        b.censored,
    )


def test_partial_censoring_is_counted_not_fatal():
    """With budget 2 the n = 3 excursions are censored; the rest still average."""
    stats = induced_statistics(
        golden(), pm_one(), LEFT_HALF, samples=300, seed=9, budget=2
    )
    assert stats.censored > 0
    assert stats.samples + stats.censored == 300
    assert 1.0 <= stats.mean_return <= 2.0


def test_fully_censored_run_is_an_error():
    sliver = TargetSet([(0, Fraction(1, 10**6))])
    with pytest.raises(ReturnBudgetError):
        induced_statistics(golden(), pm_one(), sliver, samples=100, seed=5, budget=10)


def test_sample_floor_enforced():
    with pytest.raises(ValueError):
        induced_statistics(golden(), pm_one(), LEFT_HALF, samples=20)


# --------------------------------------------------------------------------- #
# every excursion at once over an irrational rotation
# --------------------------------------------------------------------------- #


NON_SQUARES = [c for c in range(2, 200) if math.isqrt(c) ** 2 != c]
GRID = 1 << 64


@st.composite
def rotation_excursions(draw):
    """A quadratic-surd angle, a cocycle, a target, starts on the ``2**-64`` grid and a budget.

    The angle is golden, sqrt2 or a random surd.  The cocycle is
    integer-valued on dyadic walls ``k/64`` or rational-valued on two cells.
    The target is one arc, several, or one across the 0/1 seam, with ends
    at multiples of ``1/97`` or ``1/64``.  The starts are uniform draws from
    the target, grid points within 3 grid steps of a target end, a cocycle
    wall or the seam, and grid points whose orbit passes within 3 grid
    steps of one of them at a chosen step; only those in the target are
    kept.
    """
    surd = draw(st.sampled_from([(-1, 1, 5, 2), (0, 1, 2, 1), None]))
    if surd is None:
        surd = (draw(st.integers(-20, 20)), draw(st.sampled_from([*range(-12, 0), *range(1, 13)])),
                draw(st.sampled_from(NON_SQUARES)), draw(st.integers(1, 40)))
    if draw(st.booleans()):
        inner = sorted(draw(st.sets(st.integers(1, 63), min_size=1, max_size=3)))
        walls = [Fraction(0)] + [Fraction(k, 64) for k in inner]
        widths = [hi - lo for lo, hi in zip([0, *inner], [*inner, 64])]
        head = draw(st.lists(st.integers(-5, 5), min_size=len(inner), max_size=len(inner)))
        values = [v * widths[-1] for v in head] + [-sum(w * v for w, v in zip(widths, head))]
    else:
        w = Fraction(draw(st.integers(1, 63)), 64)
        v = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        walls, values = [Fraction(0), w], [v, -v * w / (1 - w)]
    den = draw(st.sampled_from([97, 64]))
    cuts = [Fraction(k, den) for k in sorted(draw(st.sets(st.integers(1, den - 1), min_size=2, max_size=6)))]
    shape = draw(st.sampled_from(["one-arc", "multi-arc", "seam"]))
    if shape == "one-arc":
        pairs = [(cuts[0], cuts[-1])]
    elif shape == "multi-arc":
        pairs = list(zip(cuts[::2], cuts[1::2]))
    else:
        pairs = [(0, cuts[0]), (cuts[-1], 1)]
    target = TargetSet(pairs)
    budget = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    starts = induced._uniform_in_target(target, draw(st.integers(1, 20)), rng).tolist()
    a_m = AngleSpec.quadratic(*surd).resolved.mantissa
    ends = [*walls, *(end for pair in pairs for end in pair if 0 < end < 1)]  # the seam too
    step = draw(st.one_of(st.just(1), st.integers(1, budget)))  # at step 1 the word has no lag
    for end in draw(st.lists(st.sampled_from(ends), max_size=4)):
        delta = draw(st.integers(-3, 3))
        starts.append(math.ceil(end * GRID) + delta)
        starts.append((((math.ceil(end * ONE) - step * a_m) % ONE) >> 128) + delta)
    starts = [u % GRID for u in starts if target.contains_fraction(Fraction(u % GRID, GRID))]
    return surd, walls, values, target, np.array(starts, dtype=np.uint64), budget


UNDER_AN_END = ((math.ceil(Fraction(62, 97) * ONE) - golden().alpha.resolved.mantissa) % ONE) >> 128


@settings(max_examples=150, deadline=None)
@given(case=rotation_excursions())
@example(case=(  # at step 1 the point lies just under the end 62/97, inside, in the end's own word
    (-1, 1, 5, 2), [Fraction(0), HALF], [1, -1], TargetSet([(Fraction(1, 97), Fraction(62, 97))]),
    np.array([UNDER_AN_END], dtype=np.uint64), 5,
))
def test_batched_excursions_match_induce_point(case):
    """Every start steps at once, yet each gets the ``n`` and ``f~`` of its own ``induce_point``, or is censored as it is.

    A batch that meets a refusal gives up, and then the per-sample loop
    must refuse too.
    """
    surd, walls, values, target, grid, budget = case
    base, f = CircleRotation(AngleSpec.quadratic(*surd)), StepCocycle(walls, values)
    batch = induced._rotation_excursions(base, f, target, grid, budget)
    if batch is None:
        event("refused")
        with pytest.raises(PrecisionExhaustedError):
            induced._sample_excursions(base, f, target, grid, budget)
        return
    assert batch == induced._sample_excursions(base, f, target, grid, budget)
    event("censored" if batch[2] else "returned")


@settings(max_examples=40, deadline=None)
@given(case=rotation_excursions())
def test_batched_excursions_match_the_exact_surd_orbit(case):
    """Wherever the batch answers, its return times and ``f~`` are those of the true surd orbit.

    The oracle places ``{x + n alpha}`` in ``Q(sqrt c)`` against the merged
    cocycle walls and target ends themselves, so each of its cells has one
    cocycle value and one membership label.
    """
    surd, walls, values, target, grid, budget = case
    base, f = CircleRotation(AngleSpec.quadratic(*surd)), StepCocycle(walls, values)
    batch = induced._rotation_excursions(base, f, target, grid, budget)
    if batch is None:
        event("refused")
        return
    merged = sorted({*walls, *(end for pair in target.intervals for end in pair if end < 1)})
    value = [step_value(w, walls, values) for w in merged]
    label = [target.contains_fraction(w) for w in merged]
    times, sums, censored = [], [], 0
    for u in grid.tolist():
        cells, total = surd_orbit_cells(surd, Fraction(u, GRID), merged, budget + 1), 0
        for n in range(1, budget + 1):
            total += value[cells[n - 1]]
            if label[cells[n]]:
                times.append(float(n))
                sums.append(float(total))
                break
        else:
            censored += 1
    assert batch == (times, sums, censored)


@pytest.mark.parametrize("name, target", [
    ("golden", LEFT_HALF),
    ("sqrt2", TargetSet([(0, Fraction(1, 10)), (Fraction(9, 10), 1)])),
])
def test_a_budget_of_two_censors_as_the_per_sample_loop_does(name, target, monkeypatch):
    """With budget 2 the batch censors the starts, and averages the rest, that ``induce_point`` does."""
    rotation, f = CircleRotation(AngleSpec.preset(name)), pm_one()
    batched = induced_statistics(rotation, f, target, samples=500, seed=9, budget=2)
    monkeypatch.setattr(induced, "_rotation_excursions", lambda *args: None)
    assert induced_statistics(rotation, f, target, samples=500, seed=9, budget=2) == batched
    assert batched.censored > 0
    monkeypatch.undo()
    with pytest.raises(ValueError, match="budget must be at least 1"):
        induced_statistics(rotation, f, target, samples=500, seed=9, budget=0)


@pytest.mark.parametrize("wall", ["target end", "cocycle wall"])
def test_a_refused_batch_step_raises_as_the_per_sample_loop_does(wall, monkeypatch):
    """A wall on the nominal point ``x + 3 A`` of one grid start, whose radius is 3 ulps.

    From ``x = 1/16`` golden visits about 0.68, 0.30 and 0.92, outside the
    target ``[1/20, 1/10)``.  A target end at the third point is refused by
    ``target.contains``, a cocycle wall there by the walk, both at step 3.
    The batch gives up, and the statistics raise the error of that start's
    ``induce_point``.
    """
    rotation = golden()
    u = GRID // 16
    end = Fraction(((u << 128) + 3 * rotation.alpha.resolved.mantissa) % ONE, ONE)
    near = (Fraction(1, 20), Fraction(1, 10))
    if wall == "target end":
        f, target = pm_one(), TargetSet([near, (end, end + Fraction(1, 100))])
    else:
        f, target = StepCocycle([0, end], [1 - end, -end]), TargetSet([near])
    with pytest.raises(PrecisionExhaustedError) as single:
        induce_point(rotation, f, target, Fraction(u, GRID))
    assert single.value.step == 3
    draw = induced._uniform_in_target

    def with_the_start(target, samples, rng):
        grid = draw(target, samples, rng)
        grid[50] = u
        return grid

    monkeypatch.setattr(induced, "_uniform_in_target", with_the_start)
    grid = with_the_start(target, 200, np.random.default_rng(4))
    assert induced._rotation_excursions(rotation, f, target, grid, 10**6) is None
    with pytest.raises(PrecisionExhaustedError) as batched:
        induced_statistics(rotation, f, target, samples=200, seed=4)
    assert (str(batched.value), batched.value.step) == (str(single.value), single.value.step)


def test_a_radius_past_the_safety_margin_raises_as_the_per_sample_loop_does(monkeypatch):
    """With the margin cut to 2 ulps, a start still outside after two steps is refused at its third point.

    Each golden step adds an ulp of radius.  From ``1/16`` the first
    return to ``[1/20, 1/10)`` takes more than 3 steps, and so does that of
    every start in the statistics that does not return within 2: the batch
    gives up before step 3 and the per-sample loop raises there.
    """
    monkeypatch.setattr(fixedpoint, "MAX_ERR_ULPS", 2)
    monkeypatch.setattr(induced, "MAX_ERR_ULPS", 2)
    target = TargetSet([(Fraction(1, 20), Fraction(1, 10))])
    with pytest.raises(PrecisionExhaustedError) as single:
        induce_point(golden(), pm_one(), target, Fraction(1, 16))
    assert single.value.step == 3
    grid = induced._uniform_in_target(target, 100, np.random.default_rng(0))
    assert induced._rotation_excursions(golden(), pm_one(), target, grid, 10**6) is None
    with pytest.raises(PrecisionExhaustedError) as batched:
        induced_statistics(golden(), pm_one(), target, samples=100, seed=0)
    assert (str(batched.value), batched.value.step) == (str(single.value), single.value.step)


@pytest.mark.parametrize("radius, step", [(fixedpoint.MAX_ERR_ULPS - 5, 6),
                                          (fixedpoint.MAX_ERR_ULPS + 1, 0)])
def test_a_radius_past_the_margin_is_refused_at_its_step(radius, step):
    """Each golden step adds an ulp of radius, so a start 5 ulps short of the margin passes it at step 6.

    From ``1/10`` the orbit stays outside ``[1/20, 3/20)`` for its first 6
    steps, and the membership test at step 6 refuses the radius with that
    step; a start already past the margin is refused at step 0.
    """
    target = TargetSet([(Fraction(1, 20), Fraction(3, 20))])
    with pytest.raises(PrecisionExhaustedError, match="safety margin") as refused:
        induce_point(golden(), pm_one(), target, FixedReal(ONE // 10, radius))
    assert refused.value.step == step
