"""Step cocycles, Birkhoff sums, orbit-integral profiles, trig integrals."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ergolab import cocycles
from ergolab.angles import AngleSpec
from ergolab.cocycles import (
    IntegralProfile,
    PhaseFunction,
    StepCocycle,
    TrigPolynomial,
    birkhoff_sums,
    certified_cells,
    guarded_walk,
    integral_profile,
    iter_flow_zeros,
    orbit_integral,
    winding_integral,
    winding_zero_times,
)
from ergolab.errors import (
    PrecisionExhaustedError,
    ResonantFrequencyError,
)
from ergolab.fixedpoint import MAX_ERR_ULPS, ONE, FixedReal, Walls
from ergolab.induced import induce_point
from ergolab.recurrence import TargetSet, find_zero_sums, joint_zero_returns
from ergolab.skew import ProductState, SkewSystem, orbit_statistics
from ergolab.systems import (
    CircleRotation,
    IntervalExchange,
    Roof,
    SpecialFlowState,
    TorusPoint,
    TorusWinding,
    special_flow_step,
)

from _oracles import birkhoff_sums as oracle_sums
from _oracles import reference_winding_zero_times, rotation_orbit, surd_orbit_cells


HALF = Fraction(1, 2)


def pm_one() -> StepCocycle:
    return StepCocycle.step_at_half()


def rotation(p, q) -> CircleRotation:
    return CircleRotation(AngleSpec.rational(p, q))


# --------------------------------------------------------------------------- #
# step cocycles
# --------------------------------------------------------------------------- #


def test_step_values_half_open():
    f = pm_one()
    assert f.value_at(FixedReal.of(Fraction(1, 4))) == 1
    assert f.value_at(FixedReal.of(HALF)) == -1
    assert f.value_at(FixedReal.of(Fraction(999, 1000))) == -1


def test_zero_mean_is_enforced():
    with pytest.raises(ValueError, match="mean"):
        StepCocycle([0, HALF], [1, 1])


def test_breakpoints_must_be_exact():
    with pytest.raises(ValueError, match="exact"):
        StepCocycle([0, Fraction(1, 3)], [1, 0])  # 1/3 is not dyadic


def test_non_uniform_cells_balance():
    # widths 1/4 and 3/4 with values 3, -1: mean = 3/4 - 3/4 = 0
    f = StepCocycle([0, Fraction(1, 4)], [3, -1])
    assert f.value_at(FixedReal.of(Fraction(1, 8))) == 3
    assert f.value_at(FixedReal.of(HALF)) == -1


# --------------------------------------------------------------------------- #
# Birkhoff sums
# --------------------------------------------------------------------------- #


def test_period_two_sums_alternate():
    sums = list(birkhoff_sums(rotation(1, 2), pm_one(), FixedReal.from_int(0), 6))
    assert sums == [1, 0, 1, 0, 1, 0]


def test_period_three_sums_never_vanish():
    """Orbit {0, 1/3, 2/3} has mean 1/3, so sums drift: ergodicity matters."""
    sums = list(birkhoff_sums(rotation(1, 3), pm_one(), FixedReal.from_int(0), 6))
    assert sums == [1, 2, 1, 2, 3, 2]
    assert 0 not in sums


def test_zero_cocycle_sums_vanish():
    f = StepCocycle([0, HALF], [0, 0])
    sums = list(birkhoff_sums(rotation(1, 3), f, FixedReal.of(Fraction(1, 7)), 5))
    assert sums == [0, 0, 0, 0, 0]


def test_sums_match_oracle_on_rational_orbit():
    walls = [Fraction(0), Fraction(1, 4)]
    f = StepCocycle(walls, [3, -1])
    x0 = Fraction(1, 10)
    got = list(birkhoff_sums(rotation(3, 7), f, FixedReal.of(x0), 500))
    want = oracle_sums(3, 7, x0, walls, [3, -1], 500)
    assert got == want


@st.composite
def rational_sum_cases(draw):
    """A rational angle, walls ``{0, w, 1/2, 1/2 + w}`` and an exact dyadic start.

    ``w`` is a few ulps or dyadic.  The start is dyadic, a wall, or, when
    ``q`` is a power of two, a wall turned back by ``k alpha``, so that the
    orbit lands on that wall at step ``k``.
    """
    q = draw(st.one_of(st.integers(1, 60), st.sampled_from([2, 4, 8, 64, 1024])))
    p = draw(st.integers(-3 * q, 3 * q))
    w = draw(st.one_of(st.integers(1, 4), st.integers(1, (1 << 20) - 1).map(lambda k: k << 171)))
    walls = [Fraction(m, ONE) for m in (0, w, ONE // 2, ONE // 2 + w)]
    where = draw(st.sampled_from(["dyadic", "wall", "wall-later"]))
    if where == "dyadic":
        x = Fraction(draw(st.integers(0, (1 << 64) - 1)), 1 << 64)
    else:
        k = draw(st.integers(0, 3 * q)) if where == "wall-later" and q & (q - 1) == 0 else 0
        x = (draw(st.sampled_from(walls)) - k * Fraction(p, q)) % 1
    return p, q, walls, x, draw(st.integers(0, 3 * q + 5))


@settings(max_examples=80, deadline=None)
@given(case=rational_sum_cases())
@example(case=(3, 8, [0, Fraction(1, ONE), HALF, HALF + Fraction(1, ONE)], Fraction(1, 8), 30))
def test_rational_sums_from_exact_starts_match_the_fraction_oracle(case):
    """An exact start on a rational angle takes the integer walk, walls included, and gives the oracle's sums."""
    p, q, walls, x, count = case
    f = StepCocycle(walls, [1, -1, -1, 1])
    start = FixedReal.of(x)
    assert start.is_exact
    assert list(birkhoff_sums(rotation(p, q), f, start, count)) == oracle_sums(
        p, q, x, walls, f.values, count
    )
    event("hits a wall" if any(
        point in walls for point in rotation_orbit(p, q, x, count)
    ) else "misses every wall")


def test_kernel_sums_match_pure_loop_on_golden():
    """The chunked numpy kernel and the big-integer loop agree step for step."""
    rot = CircleRotation(AngleSpec.preset("golden"))
    f = pm_one()
    x = FixedReal.of(Fraction(1, 10))
    want = list(birkhoff_sums(rot, f, x, 3000))
    values = np.asarray(f.values, dtype=np.int64)
    got: list[int] = []
    total = 0
    for offset, cells in certified_cells(rot, f.walls, x, 3000):
        assert cells.shape == (3000,)
        part = np.cumsum(values[cells]) + total
        got.extend(int(v) for v in part)
        total = int(part[-1])
    assert got == want


KERNEL_ANGLES = [
    AngleSpec.preset("golden"),
    AngleSpec.preset("sqrt2"),
    AngleSpec.quadratic(1, 2, 7, 9),  # (1 + 2 sqrt 7) / 9
]
NEAR_WALL = 1 << 100  # far inside the coarse 64-bit margin, far outside the error


def zero_mean_cocycle(mantissas: list[int], weights: list[int]) -> StepCocycle:
    """A cocycle on these walls with zero mean and, generically, distinct values.

    With cell widths ``W_i``, each weight ``l_k`` adds ``l_k * W_{k+1}`` to
    cell ``k`` and ``-l_k * W_k`` to cell ``k + 1``, which leaves the mean 0.
    """
    widths = [b - a for a, b in zip(mantissas, mantissas[1:] + [ONE])]
    values = [0] * len(mantissas)
    for k, weight in enumerate(weights):
        values[k] += weight * widths[k + 1]
        values[k + 1] -= weight * widths[k]
    return StepCocycle([FixedReal(m) for m in mantissas], values)


@st.composite
def cell_scans(draw):
    """A rotation, a 2-4 cell cocycle, one start, a count and the near-wall step.

    Walls may lie a few 64-bit words apart or near either end of the
    circle, where the listed arcs of two walls overlap or wrap.  The start
    may be placed so that the orbit point at a chosen step lies
    ``NEAR_WALL`` ulps above or below a wall (the wall at 0 too, across the
    seam); with ``count`` just past the first block, that step may sit on
    either side of the block seam.
    """
    rot = CircleRotation(draw(st.sampled_from(KERNEL_ANGLES)))
    n_cells = draw(st.integers(2, 4))
    center = draw(st.integers(1 << 137, ONE - (1 << 137)))
    wall = (
        st.integers(1, ONE - 1)
        | st.integers(center - (1 << 136), center + (1 << 136))  # overlapping arcs
        | st.integers(1, 1 << 136)  # an arc across the wall at 0
        | st.integers(ONE - (1 << 136), ONE - 1)
    )
    inner = draw(st.sets(wall, min_size=n_cells - 1, max_size=n_cells - 1))
    mantissas = [0, *sorted(inner)]
    weight = st.integers(1, 9) | st.integers(-9, -1)
    weights = draw(st.lists(weight, min_size=n_cells - 1, max_size=n_cells - 1))
    f = zero_mean_cocycle(mantissas, weights)
    block = 1 << 16
    count = draw(st.integers(1, 300) | st.just(block + 3))
    if draw(st.booleans()):
        start = FixedReal(draw(st.integers(0, ONE - 1)), draw(st.integers(0, 3)))
        return rot, f, start, count, None
    step = draw(st.integers(0, count - 1) | st.sampled_from([block - 1, block]))
    step = min(step, count - 1)
    offset = draw(st.sampled_from([NEAR_WALL, -NEAR_WALL]))
    point = (draw(st.sampled_from(mantissas)) + offset) % ONE
    start = FixedReal((point - step * rot.alpha.resolved.mantissa) % ONE)
    return rot, f, start, count, (point, step)


# walls at 1/2 and 1/2 + NEAR_WALL ulps share one 64-bit word; step 7 lands between them
_BETWEEN = ONE // 2 + NEAR_WALL // 2
_GOLDEN = CircleRotation(KERNEL_ANGLES[0])
TWO_WALLS_IN_A_WORD = (
    _GOLDEN,
    zero_mean_cocycle([0, ONE // 2, ONE // 2 + NEAR_WALL], [3, -2]),
    FixedReal((_BETWEEN - 7 * _GOLDEN.alpha.resolved.mantissa) % ONE),
    (1 << 16) + 3,
    (_BETWEEN, 7),
)


@settings(max_examples=40, deadline=None)
@given(scan=cell_scans())
@example(scan=TWO_WALLS_IN_A_WORD)
def test_certified_cells_match_birkhoff_sums(scan):
    """The cells of a start give its exact Birkhoff sums, or its refusal step.

    A near-wall step must be decided by the 192-bit fallback; blocks hold
    ``2**16`` steps and tile the scan without gaps.
    """
    rot, f, start, count, near = scan
    try:
        want = list(birkhoff_sums(rot, f, start, count))
    except PrecisionExhaustedError as exc:
        want = exc.step
    values = np.array(f.values, dtype=object)
    decided = []
    exact_cell = cocycles._exact_cell

    def spy(walls, mantissa, err, step):
        decided.append((mantissa, step))
        return exact_cell(walls, mantissa, err, step)

    blocks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cocycles, "_exact_cell", spy)
        if isinstance(want, int):
            with pytest.raises(PrecisionExhaustedError) as info:
                for _ in certified_cells(rot, f.walls, start, count):
                    pass
            assert info.value.step == want
            return
        for offset, cells in certified_cells(rot, f.walls, start, count):
            assert cells.dtype == np.int64
            assert cells.shape == (min(1 << 16, count - offset),)
            blocks.append((offset, values[cells]))
    assert [offset for offset, _ in blocks] == list(range(0, count, 1 << 16))
    assert np.cumsum(np.concatenate([terms for _, terms in blocks])).tolist() == want
    if near is not None:
        assert near in decided


NON_SQUARES = [c for c in range(2, 200) if math.isqrt(c) ** 2 != c]


@st.composite
def surd_scans(draw, dyadic: bool):
    """A true quadratic-surd angle, a rational start and horizon, and walls with a zero-mean cocycle.

    The walls are dyadic (``k/64``) when ``dyadic``, so that a
    :class:`StepCocycle` can take them, and its last value makes the mean
    vanish in integers; otherwise they are rational, without values.  The
    start is sometimes a wall itself.
    """
    surd = (draw(st.integers(-20, 20)), draw(st.sampled_from([*range(-12, 0), *range(1, 13)])),
            draw(st.sampled_from(NON_SQUARES)), draw(st.integers(1, 40)))
    values = None
    if dyadic:
        inner = sorted(draw(st.sets(st.integers(1, 63), min_size=1, max_size=3)))
        walls = [Fraction(0)] + [Fraction(k, 64) for k in inner]
        widths = [hi - lo for lo, hi in zip([0, *inner], [*inner, 64])]
        head = draw(st.lists(st.integers(-5, 5), min_size=len(inner), max_size=len(inner)))
        values = [v * widths[-1] for v in head] + [-sum(w * v for w, v in zip(widths, head))]
    else:
        points = draw(st.sets(st.tuples(st.integers(1, 40), st.integers(2, 41)), max_size=4))
        walls = [Fraction(0)] + sorted({Fraction(i % m, m) for i, m in points} - {0})
    q = draw(st.integers(1, 60))
    x = draw(st.sampled_from([Fraction(draw(st.integers(0, q - 1)), q), *walls]))
    return surd, x, walls, values, draw(st.integers(1, 2000))


def surd_scan_or_refusal(scan, count: int):
    """``scan(count)``, or, if it refuses at step ``s``, ``(s, scan(s))``, the steps before it."""
    try:
        return count, scan(count)
    except PrecisionExhaustedError as exc:
        event("refused")
        return exc.step, scan(exc.step) if exc.step else None


@settings(max_examples=60, deadline=None)
@given(case=surd_scans(dyadic=False))
def test_certified_cells_match_the_exact_surd_orbit(case):
    """Wherever the kernel decides a cell, it is the cell of the true surd orbit.

    The oracle decides ``{x + n alpha}`` in ``Q(sqrt c)`` with integers only,
    against the rational walls themselves; before a refusal every step is
    compared.  These are the cells that zero scans and special flows over
    rotations take from the kernel.
    """
    surd, x, walls, _, count = case
    rotation = CircleRotation(AngleSpec.quadratic(*surd))
    fixed = Walls([FixedReal.of(w) for w in walls])

    def scan(count):
        blocks = certified_cells(rotation, fixed, FixedReal.of(x), count)
        return [cell for _, cells in blocks for cell in cells.tolist()]

    count, cells = surd_scan_or_refusal(scan, count)
    assert (cells or []) == surd_orbit_cells(surd, x, walls, count)


@settings(max_examples=60, deadline=None)
@given(case=surd_scans(dyadic=True))
def test_zero_sums_match_the_exact_surd_orbit(case):
    """Wherever a zero scan answers, its times are those of the true surd orbit's Birkhoff sums."""
    surd, x, walls, values, count = case
    rotation = CircleRotation(AngleSpec.quadratic(*surd))
    f = StepCocycle(walls, values)
    count, times = surd_scan_or_refusal(
        lambda count: find_zero_sums(rotation, f, x, count).times.tolist(), count
    )
    sums = np.cumsum([values[cell] for cell in surd_orbit_cells(surd, x, walls, count)])
    assert (times or []) == (np.flatnonzero(sums == 0) + 1).tolist()


GOLDEN_A = CircleRotation(AngleSpec.preset("golden")).alpha.resolved.mantissa


@pytest.mark.parametrize(
    "inner, step",
    [
        ([ONE // 2], (1 << 16) + 11),
        ([(ONE // 2 | ((1 << 128) - 1)) - 2], 0),
        ([(7 * ONE // 8 + 2 * GOLDEN_A) % ONE, 7 * ONE // 8], 7),
    ],
    ids=["wall-at-half-second-block", "wall-atop-its-word-step-0", "later-wall-first"],
)
def test_certified_cells_refuse_a_straddling_start_at_its_step(inner, step):
    """An orbit interval across a wall raises with that step, the earliest one.

    The point at ``step`` lies 5 ulps above the last wall, with a radius of
    about ``2**20`` ulps.  The second wall sits 3 ulps below a 64-bit word
    boundary, so at step 0 the straddling point's own word is the one above
    the wall's word.  In the third case the point two steps on lies 5 ulps
    above the first wall (``2 alpha mod 1`` is about 0.236, so it wraps
    round below 7/8): that wall is listed first, and the earlier step must
    still win.
    """
    rot = CircleRotation(AngleSpec.preset("golden"))
    walls = Walls([FixedReal(0), *(FixedReal(w) for w in inner)])
    a_m = rot.alpha.resolved.mantissa
    start = FixedReal((inner[-1] + 5 - step * a_m) % ONE, 1 << 20)
    if len(inner) == 2:
        assert (start.mantissa + (step + 2) * a_m) % ONE == inner[0] + 5
    with pytest.raises(PrecisionExhaustedError) as info:
        for _ in certified_cells(rot, walls, start, step + 9):
            pass
    assert info.value.step == step


def test_certified_cells_refuse_past_the_error_margin():
    rot, f = CircleRotation(AngleSpec.preset("golden")), pm_one()
    wide = FixedReal(ONE // 3, 1 << 128)
    with pytest.raises(PrecisionExhaustedError, match="margin"):
        next(certified_cells(rot, f.walls, wide, 10))


@pytest.mark.parametrize("step", [0, 7, 1 << 16])
@pytest.mark.parametrize("refusal", ["wall", "margin"])
def test_certified_cells_yield_every_step_before_a_refusal(refusal, step):
    """The kernel raises a refusal only when its caller reads past the last certified step.

    ``wall``: the point at ``step`` lies 5 ulps above the wall 1/2, with a
    radius of ``2**20`` ulps.  ``margin``: a start far from the walls whose
    radius first passes ``MAX_ERR_ULPS`` at ``step``.  The blocks read
    before the refusal are nonempty and hold the guarded cells of steps
    ``0 .. step - 1``, and the refusal carries the step and message of
    :func:`birkhoff_sums`.
    """
    rot, f = CircleRotation(AngleSpec.preset("golden")), pm_one()
    a_m, a_e = rot.alpha.resolved.mantissa, rot.alpha.resolved.err_ulps
    if refusal == "wall":
        start = FixedReal((ONE // 2 + 5 - step * a_m) % ONE, 1 << 20)
    else:
        start = FixedReal(ONE // 3, MAX_ERR_ULPS + 1 - step * a_e)
    with pytest.raises(PrecisionExhaustedError) as reference:
        list(birkhoff_sums(rot, f, start, step + 9))
    assert reference.value.step == step
    blocks = certified_cells(rot, f.walls, start, step + 9)
    read = [next(blocks) for _ in range(-(-step // (1 << 16)))]
    with pytest.raises(PrecisionExhaustedError) as refused:
        next(blocks)
    assert (refused.value.step, str(refused.value)) == (step, str(reference.value))
    assert [offset for offset, _ in read] == list(range(0, step, 1 << 16))
    assert all(len(cells) for _, cells in read)
    cells = np.concatenate([np.empty(0, dtype=np.int64), *(c for _, c in read)]).tolist()
    points = [FixedReal((start.mantissa + i * a_m) % ONE, start.err_ulps + i * a_e) for i in range(step)]
    assert cells == [f.walls.locate(p) for p in points]


@pytest.mark.parametrize("step, words", [(299, 20), (3000, 100), (50000, 1000)])
def test_certified_cells_reach_past_the_word_lag(step, words):
    """A point ``words`` 64-bit words above the wall 1/2 at ``step`` keeps its cell.

    The top word of step ``i``, stepped in uint64, lags the point's own word
    by up to ``i`` words (the dropped low bits of ``i alpha`` carry into
    it), so here it can fall below the wall's word.  A reach of
    ``(count + 2) 2**128`` ulps lists the step and decides it at 192 bits;
    a reach of ``2**128`` would leave it to the lagging word.
    """
    rot, f = CircleRotation(AngleSpec.preset("golden")), pm_one()
    point = ONE // 2 + (words << 128) + (1 << 127)
    start = FixedReal((point - step * rot.alpha.resolved.mantissa) % ONE)
    count = step + 5
    cells = np.concatenate([c for _, c in certified_cells(rot, f.walls, start, count)])
    values = np.asarray(f.values, dtype=np.int64)
    assert cells[step] == 1
    assert np.cumsum(values[cells]).tolist() == list(birkhoff_sums(rot, f, start, count))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=120),
    m=st.integers(min_value=1, max_value=120),
    x_num=st.integers(min_value=0, max_value=255),
)
def test_discrete_cocycle_identity(n, m, x_num):
    """S_{n+m}(x) = S_n(x) + S_m(S^n x), exactly."""
    rot = CircleRotation(AngleSpec.preset("golden"))
    f = pm_one()
    x = FixedReal.of(Fraction(x_num, 256))
    sums = list(birkhoff_sums(rot, f, x, n + m))
    shifted = rot.point_at(x, n)
    tail = list(birkhoff_sums(rot, f, shifted, m))
    assert sums[n + m - 1] == sums[n - 1] + tail[m - 1]


# --------------------------------------------------------------------------- #
# the guarded orbit walk
# --------------------------------------------------------------------------- #


def test_guarded_walk_yields_sums_and_orbit_points():
    rot, f = CircleRotation(AngleSpec.preset("golden")), pm_one()
    x = FixedReal.of(Fraction(1, 10))
    walk = list(guarded_walk(rot, f, x, 500))
    assert [total for total, _ in walk] == list(birkhoff_sums(rot, f, x, 500))
    assert [p for _, p in walk] == [rot.point_at(x, n) for n in range(1, 501)]


REFUSAL_STEP = 7


def _walk_refusal(base, caller):
    """Run ``caller(f, x)`` where the orbit of ``x`` meets a wall of ``f`` at step 7.

    ``x`` carries 8 ulps of error and ``S^7 x`` lies 2 ulps above a wall of
    the zero-mean cocycle ``[1, -15, 1]`` with walls ``0, w, w + 1/16``;
    every earlier point is far from the walls of ``f``, of ``base`` and of
    the caller's target sets.
    """
    m = FixedReal.of(Fraction(1, 10)).mantissa
    p = FixedReal(m)
    for _ in range(REFUSAL_STEP):
        p = base.apply(p)
    wall, width = p.mantissa - 2, ONE // 16
    lo = wall if wall + width < ONE else wall - width
    f = StepCocycle([0, FixedReal(lo), FixedReal(lo + width)], [1, -15, 1])
    with pytest.raises(PrecisionExhaustedError) as info:
        caller(f, FixedReal(m, 8))
    return info.value.step


GOLDEN = CircleRotation(AngleSpec.preset("golden"))
DYADIC_IET = IntervalExchange(
    [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 4)], (4, 3, 2, 1)
)
WALK_CALLERS = {
    "birkhoff_sums": (GOLDEN, lambda f, x: list(birkhoff_sums(GOLDEN, f, x, 20))),
    "induce_point": (
        GOLDEN,
        lambda f, x: induce_point(
            GOLDEN, f, TargetSet([(x.to_fraction() - Fraction(1, 200),
                                   x.to_fraction() + Fraction(1, 200))]), x
        ),
    ),
    "orbit_statistics": (
        GOLDEN,
        lambda f, x: orbit_statistics(
            SkewSystem(GOLDEN, CircleRotation(AngleSpec.preset("sqrt2")), f),
            ProductState(x, FixedReal(0)),
            20,
            [((0, 1), (0, 1))],
        ),
    ),
    "joint_zero_returns-iet": (
        DYADIC_IET, lambda f, x: joint_zero_returns(DYADIC_IET, f, x, 20, Fraction(1, 5))
    ),
}


@pytest.mark.parametrize("caller", sorted(WALK_CALLERS))
def test_walk_refusals_name_their_step(caller):
    """A cocycle wall met at step 7 is refused with ``step == 7`` by every walk user."""
    base, run = WALK_CALLERS[caller]
    assert _walk_refusal(base, run) == REFUSAL_STEP


# --------------------------------------------------------------------------- #
# phase functions and profiles
# --------------------------------------------------------------------------- #


def halves_flow(p, q):
    """Roof of height 1 over rotation p/q, cells split at 1/2, values +1/-1."""
    base = rotation(p, q)
    roof = Roof([0, HALF], [1, 1], base)
    return roof, PhaseFunction.from_base_values(roof, [1, -1])


def test_profile_period_two():
    roof, f = halves_flow(1, 2)
    profile = integral_profile(roof, f, SpecialFlowState(0), 2)
    assert profile.nodes == [(0, 0), (1, 1), (2, 0)]


def test_profile_quarter_rotation():
    roof, f = halves_flow(1, 4)
    profile = integral_profile(roof, f, SpecialFlowState(0), 4)
    assert profile.nodes == [(0, 0), (1, 1), (2, 2), (3, 1), (4, 0)]


def test_profile_zero_function_is_flat():
    roof, _ = halves_flow(1, 2)
    f = PhaseFunction.from_base_values(roof, [0, 0])
    profile = integral_profile(roof, f, SpecialFlowState(0), 3)
    assert profile.nodes[0] == (0, 0)
    assert profile.nodes[-1] == (3, 0)
    assert all(sigma == 0 for _, sigma in profile.nodes)


def test_profile_evaluation_interpolates():
    roof, f = halves_flow(1, 2)
    profile = integral_profile(roof, f, SpecialFlowState(0), 2)
    assert profile.value_at(HALF) == HALF
    assert profile.value_at(2) == 0
    assert profile.value_at(0) == 0
    assert orbit_integral(roof, f, SpecialFlowState(0), Fraction(3, 2)) == HALF


def test_profile_zeros_report_interval_left_endpoints():
    base = rotation(1, 2)
    roof = Roof([0, HALF], [1, 1], base)
    # cell 0 carries a +1 band then a -1 band; cell 1 is identically 0
    f = PhaseFunction(roof, [[(HALF, 1), (HALF, -1)], [(1, 0)]])
    profile = integral_profile(roof, f, SpecialFlowState(0), 3)
    # rises to 1/2, back to 0 at t=1, flat through t=2, rises and falls again
    assert profile.zeros() == [1, 2, 3]


def test_bands_must_fill_the_cell():
    base = rotation(1, 2)
    roof = Roof([0, HALF], [1, 1], base)
    with pytest.raises(ValueError, match="stack"):
        PhaseFunction(roof, [[(HALF, 1)], [(1, -1)]])


def test_phase_zero_mean_weighted_by_area():
    base = rotation(1, 2)
    roof = Roof([0, HALF], [1, 3], base)  # areas 1/2 and 3/2
    PhaseFunction.from_base_values(roof, [3, -1])  # 3*(1/2) - 1*(3/2) = 0
    with pytest.raises(ValueError, match="mean"):
        PhaseFunction.from_base_values(roof, [1, -1])


def test_lebesgue_density_piecewise():
    """For small t inside one band, sigma(t)/t equals the local value exactly."""
    roof, f = halves_flow(1, 2)
    x = SpecialFlowState(Fraction(3, 4), Fraction(1, 8))
    t = Fraction(1, 16)
    assert orbit_integral(roof, f, x, t) / t == f.value_at(x) == -1


@pytest.mark.parametrize("height", [1, 3], ids=["on-roof", "above-roof"])
def test_walks_refuse_starts_on_or_above_the_roof(height):
    """Every special-flow walk rejects a start with ``b >= r(a)`` the same way."""
    roof = Roof([0, HALF], [1, 1], CircleRotation(AngleSpec.preset("golden")))
    f = PhaseFunction.from_base_values(roof, [1, -1])
    start = SpecialFlowState(Fraction(1, 10), height)
    with pytest.raises(ValueError, match="roof"):
        integral_profile(roof, f, start, 2)
    with pytest.raises(ValueError, match="roof"):
        next(iter_flow_zeros(roof, f, start, 2))
    with pytest.raises(ValueError, match="roof"):
        special_flow_step(roof, start, 1)


def test_walks_run_from_just_below_the_roof():
    roof = Roof([0, HALF], [1, 1], CircleRotation(AngleSpec.preset("golden")))
    f = PhaseFunction.from_base_values(roof, [1, -1])
    below = Fraction(2**60 - 1, 2**60)
    start = SpecialFlowState(Fraction(1, 10), below)
    profile = integral_profile(roof, f, start, 2)
    assert profile.nodes[1] == (1 - below, 1 - below)
    moved, crossings = special_flow_step(roof, start, 1 - below)
    assert crossings == 1 and moved.b == 0
    zeros = [t for t, _ in iter_flow_zeros(roof, f, start, 2)]
    assert zeros == profile.zeros()


@settings(max_examples=100, deadline=None)
@given(
    t_num=st.integers(min_value=0, max_value=64),
    u_num=st.integers(min_value=0, max_value=64),
    a_num=st.integers(min_value=0, max_value=31),
)
def test_flow_cocycle_identity_exact(t_num, u_num, a_num):
    """sigma(t+u, x) = sigma(t, x) + sigma(u, T_t x) in exact arithmetic."""
    base = CircleRotation(AngleSpec.preset("golden"))
    roof = Roof([0, HALF], [HALF, Fraction(3, 2)], base)
    f = PhaseFunction.from_base_values(roof, [3, -1])
    x = SpecialFlowState(Fraction(a_num, 32))
    t, u = Fraction(t_num, 16), Fraction(u_num, 16)
    if t + u == 0:
        return
    whole = orbit_integral(roof, f, x, t + u) if t + u > 0 else Fraction(0)
    first = orbit_integral(roof, f, x, t) if t > 0 else Fraction(0)
    moved, _ = special_flow_step(roof, x, t)
    second = orbit_integral(roof, f, moved, u) if u > 0 else Fraction(0)
    assert whole == first + second


def test_profile_matches_adaptive_quadrature():
    """Independent scipy quadrature of s -> f(T_s x) agrees within 1e-10."""
    base = CircleRotation(AngleSpec.preset("golden"))
    roof = Roof([0, HALF], [HALF, Fraction(3, 2)], base)
    f = PhaseFunction.from_base_values(roof, [3, -1])
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = SpecialFlowState(Fraction(int(rng.integers(0, 2**32)), 2**32))
        t = Fraction(int(rng.integers(1, 64)), 8)
        profile = integral_profile(roof, f, x, t)
        breaks = [float(node_t) for node_t, _ in profile.nodes]

        def integrand(s: float) -> float:
            state, _ = special_flow_step(roof, x, Fraction(s).limit_denominator(10**12))
            return float(f.value_at(state))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # quad complains about the jumps
            got, _ = quad(
                integrand, 0, float(t), points=breaks[1:-1] or None, limit=200
            )
        assert abs(got - float(profile.nodes[-1][1])) < 1e-10


# --------------------------------------------------------------------------- #
# trig polynomials along windings
# --------------------------------------------------------------------------- #


def test_trig_rejects_constant_mode():
    with pytest.raises(ValueError):
        TrigPolynomial([(0, 0, 1.0, 0.0)])
    with pytest.raises(ValueError):
        TrigPolynomial([])


def test_cos_integral_closed_form():
    w = TorusWinding(AngleSpec.preset("sqrt2"))
    f = TrigPolynomial.cos_x()
    p = TorusPoint(0, 0)
    # integral of cos(2 pi s) is sin(2 pi t) / (2 pi)
    assert winding_integral(w, f, p, 0.25) == pytest.approx(1 / (2 * math.pi), abs=1e-14)
    assert winding_integral(w, f, p, 0.0) == 0.0
    assert winding_integral(w, f, p, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_trig_cocycle_identity_small_error():
    w = TorusWinding(AngleSpec.preset("sqrt2"))
    f = TrigPolynomial([(1, 0, 1.0, 0.0), (0, 1, 0.5, -0.25), (1, 1, 0.0, 1.0)])
    rng = np.random.default_rng(23)
    for _ in range(1000):
        p = TorusPoint(Fraction(int(rng.integers(0, 1024)), 1024),
                       Fraction(int(rng.integers(0, 1024)), 1024))
        t, u = float(rng.uniform(0, 5)), float(rng.uniform(0, 5))
        whole = winding_integral(w, f, p, t + u)
        first = winding_integral(w, f, p, t)
        second = winding_integral(w, f, w.flow(p, t), u)
        assert abs(whole - (first + second)) <= 1e-9


def test_trig_lebesgue_density():
    w = TorusWinding(AngleSpec.preset("sqrt2"))
    f = TrigPolynomial([(1, 0, 1.0, 0.0), (2, -1, 0.25, 0.75)])
    p = TorusPoint(Fraction(3, 10), Fraction(1, 10))
    t = 1e-6
    assert abs(winding_integral(w, f, p, t) / t - f.value(p)) <= 1e-3


def test_resonant_frequency_detected():
    from ergolab.errors import RationalAngleWarning

    with pytest.warns(RationalAngleWarning):
        w = TorusWinding(AngleSpec.rational(1, 2))
    f = TrigPolynomial([(1, -2, 1.0, 0.0)])  # j + k*gamma = 1 - 2/2 = 0
    with pytest.raises(ResonantFrequencyError):
        winding_integral(w, f, TorusPoint(0, 0), 1.0)


def test_winding_zero_bracketing_matches_half_grid():
    w = TorusWinding(AngleSpec.preset("sqrt2"))
    f = TrigPolynomial.cos_x()
    zeros = winding_zero_times(w, f, TorusPoint(0, 0), 3.0)
    assert len(zeros) == 6
    for got, want in zip(zeros, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]):
        assert abs(got - want) < 1e-9


def sqrt2_winding() -> TorusWinding:
    return TorusWinding(AngleSpec.preset("sqrt2"))


def grid_step(w: TorusWinding, f: TrigPolynomial) -> float:
    """The bracketing grid's step, as the scan computes it."""
    return 1.0 / (8 * f.max_frequency() * (1 + abs(w.slope)))


@st.composite
def winding_scans(draw):
    """A rational or surd slope, 1-4 non-resonant modes, a dyadic start, a horizon on or off the grid."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a rational slope warns
        if draw(st.booleans()):
            slope = AngleSpec.rational(draw(st.integers(-12, 12)), draw(st.integers(1, 12)))
        else:
            slope = AngleSpec.quadratic(draw(st.integers(-9, 9)), draw(st.sampled_from([-2, -1, 1, 2, 3])),
                                        draw(st.sampled_from(NON_SQUARES[:12])), draw(st.integers(1, 6)))
        w = TorusWinding(slope)
    amplitude = st.sampled_from([0.0, 0.25, -0.5, 1.0, 1.75])
    pairs = st.sampled_from([(j, k) for j in range(-3, 4) for k in range(-3, 4) if (j, k) != (0, 0)])
    terms = draw(st.lists(st.tuples(pairs, amplitude, amplitude), min_size=1, max_size=4))
    f = TrigPolynomial([(j, k, c, s) for (j, k), c, s in terms])
    gamma = w.slope
    assume(all(abs(j + k * gamma) >= 1e-9 for j, k, _, _ in f.terms))
    start = TorusPoint(Fraction(draw(st.integers(0, 63)), 64), Fraction(draw(st.integers(0, 63)), 64))
    if draw(st.booleans()):
        t_max = draw(st.integers(1, 3000)) * grid_step(w, f)
    else:
        t_max = draw(st.floats(1e-3, 40.0))
    return w, f, start, t_max


GAMMA_20 = TorusWinding(AngleSpec.quadratic(19, 1, 2, 1))  # 19 + sqrt(2): a fine grid
COS_X = TrigPolynomial.cos_x()
CANCELLING = TrigPolynomial([(1, 0, 1.0, 0.0), (-1, 0, -1.0, 0.0)])  # libm's terms cancel exactly
# cos(2 pi x) integrates to 0 at t = 1/2 - 2 x0 mod 1: put that zero in the grid
# cell from the first block's last point to the second block's first
SEAM_X = Fraction((0.5 - (2**16 + 0.5) * grid_step(GAMMA_20, COS_X)) / 2) % HALF


@settings(max_examples=80, deadline=None)
@given(case=winding_scans())
@example(case=(sqrt2_winding(), COS_X, TorusPoint(0, 0), 30.0))  # theorem-b-winding
@example(case=(GAMMA_20, COS_X, TorusPoint(Fraction(1, 3), 0), 1200.0))  # four blocks
@example(case=(GAMMA_20, COS_X, TorusPoint(0, 0), 3 * 2**16 * grid_step(GAMMA_20, COS_X)))
@example(case=(GAMMA_20, COS_X, TorusPoint(SEAM_X, 0), 400.0))  # a sign change across blocks
@example(case=(sqrt2_winding(), CANCELLING, TorusPoint(Fraction(1, 7), 0), 2.0))
def test_winding_zero_scan_equals_the_point_by_point_scan(case):
    """The numpy block scan gives the scalar scan's times, float for float.

    The examples are the ``theorem-b-winding`` preset; a horizon spanning
    four ``2**16``-point blocks; a horizon on the last grid point of the
    third block, so the fourth block holds one point; a zero between the
    first block's last point and the second block's first; and two modes
    whose libm terms cancel exactly, so every grid point is an exact zero
    and no sign change is bracketed.
    """
    w, f, start, t_max = case
    got = winding_zero_times(w, f, start, t_max)
    assert got == reference_winding_zero_times(w, f, start, t_max)
    assert all(type(t) is float for t in got)


def test_winding_zero_scan_keeps_its_signs_when_numpy_sines_drift(monkeypatch):
    """Sines and cosines a few ulps off libm's change no time: the margin hands those signs to libm.

    Drifted sines no longer cancel, so numpy's sum for ``CANCELLING`` is a
    few ulps from 0 with either sign, where libm's is exactly 0.
    """
    sin, cos = np.sin, np.cos
    monkeypatch.setattr(np, "sin", lambda x: np.nextafter(np.nextafter(sin(x), 2.0), 2.0))
    monkeypatch.setattr(np, "cos", lambda x: np.nextafter(np.nextafter(cos(x), -2.0), -2.0))
    w = sqrt2_winding()
    cases = [(TrigPolynomial([(1, 0, 1.0, 0.0), (0, 1, 0.5, 0.25), (1, -1, 0.75, 0.5)]), start)
             for start in (TorusPoint(0, 0), TorusPoint(Fraction(1, 3), Fraction(2, 7)))]
    for f, start in [*cases, (CANCELLING, TorusPoint(Fraction(1, 7), 0))]:
        assert winding_zero_times(w, f, start, 200.0) == reference_winding_zero_times(w, f, start, 200.0)


def test_a_long_winding_scan_holds_one_block_at_a_time():
    """About 10**6 grid points (100k zeros) stay under 16 MB of traced memory."""
    import tracemalloc

    tracemalloc.start()
    try:
        zeros = winding_zero_times(sqrt2_winding(), COS_X, TorusPoint(0, 0), 5e4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 5e4 / grid_step(sqrt2_winding(), COS_X) > 960_000
    assert len(zeros) == 100_000
    assert peak < 16 * 2**20


def test_bisection_past_two_to_the_13_ends_on_adjacent_floats():
    """Past ``t = 2**13`` one ulp exceeds the 1e-12 tolerance; each bracket ends on two adjacent floats."""
    zeros = winding_zero_times(sqrt2_winding(), COS_X, TorusPoint(0, 0), 8200.0)
    assert len(zeros) == 16_400
    late = np.array([z for z in zeros if z > 2**13])
    assert late.size == 16 and np.all(np.abs(late - np.round(2 * late) / 2) <= 4 * np.spacing(late))


@pytest.mark.parametrize("t_max", [math.inf, math.nan, -math.inf, 0.0, -1.0])
def test_winding_scan_refuses_a_horizon_that_is_not_positive_and_finite(t_max):
    """The horizon is checked before any mode is built: a resonant mode would raise otherwise."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = TorusWinding(AngleSpec.rational(1, 2))
    resonant = TrigPolynomial([(1, -2, 1.0, 0.0)])
    with pytest.raises(ValueError, match="^t_max must be positive and finite$"):
        winding_zero_times(w, resonant, TorusPoint(0, 0), t_max)
    with pytest.raises(ValueError, match="^t_max must be positive and finite$"):
        winding_zero_times(sqrt2_winding(), COS_X, TorusPoint(0, 0), t_max)
