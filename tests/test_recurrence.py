"""Recurrence detectors: zero sums, near returns, flow zeros, excess probability."""
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from ergolab import cocycles, recurrence
from ergolab.angles import AngleSpec, cf_convergents
from ergolab.cocycles import (
    IntegralProfile,
    PhaseFunction,
    StepCocycle,
    TrigPolynomial,
    birkhoff_sums,
)
from ergolab.errors import (
    PrecisionExhaustedError,
    RationalAngleWarning,
    RowLimitError,
    ZeroValueStartError,
)
from ergolab.fixedpoint import MAX_ERR_ULPS, ONE, SCALE, FixedReal
from ergolab.recurrence import (
    Returns,
    TargetSet,
    _eps_bound,
    _excess_rotation,
    _near_side,
    find_zero_sums,
    flow_zero_near_returns,
    flow_zero_set_returns,
    joint_zero_returns,
    near_returns,
    sublinearity_estimate,
)
from ergolab.systems import (
    CircleRotation,
    IntervalExchange,
    Roof,
    SpecialFlowState,
    TorusPoint,
    TorusWinding,
)

from _oracles import birkhoff_sums as oracle_sums
from _oracles import circle_distance as oracle_distance
from _oracles import (
    CascadeState,
    cascade_apply,
    excess_fraction_exact,
    kernel_excess,
    near_return_times,
    reference_excess,
    reference_excess_counts,
    reference_flow_near_rows,
    reference_flow_set_rows,
    reference_joint_rows,
    reference_near_times,
    reference_profile_nodes,
    reference_rotation_near_times,
    reference_winding_near_rows,
    reference_zero_times,
    rational_excess,
    rotation_orbit,
    step_value,
    surd_orbit_cells,
    target_arc_membership,
    walk_points,
    zero_sum_times,
)

HALF = Fraction(1, 2)
PM_WALLS = [Fraction(0), HALF]
PM_VALUES = [1, -1]


def golden() -> CircleRotation:
    return CircleRotation(AngleSpec.preset("golden"))


def pm_one() -> StepCocycle:
    return StepCocycle.step_at_half()


# --------------------------------------------------------------------------- #
# cascade state
# --------------------------------------------------------------------------- #


def test_cascade_tracks_exact_fiber():
    state = CascadeState(FixedReal.from_int(0), 0)
    rot = CircleRotation(AngleSpec.rational(1, 2))
    f = pm_one()
    fibers = []
    for _ in range(4):
        state = cascade_apply(rot, f, state)
        fibers.append(state.z)
    assert fibers == [1, 0, 1, 0]


# --------------------------------------------------------------------------- #
# find_zero_sums
# --------------------------------------------------------------------------- #


def test_period_two_zero_times():
    with pytest.warns(RationalAngleWarning):
        records = find_zero_sums(CircleRotation(AngleSpec.rational(1, 2)), pm_one(), 0, 10)
    assert [r.time for r in records] == [2, 4, 6, 8, 10]
    assert all(r.value == 0 for r in records)


def test_zero_cocycle_every_time_is_a_zero():
    f = StepCocycle([0, HALF], [0, 0])
    records = find_zero_sums(golden(), f, Fraction(1, 7), 5)
    assert [r.time for r in records] == [1, 2, 3, 4, 5]


WIDE = 1 << 61
# the golden orbit point of this exact start at step 2**16 + 5 lies 2 ulps
# below the wall at 1/2, inside its radius of 2**16 + 5 ulps
NEAR_WALL_START = FixedReal(
    (ONE // 2 - 2 - (2**16 + 5) * golden().alpha.resolved.mantissa) % ONE
)


def zero_scan_outcome(scan):
    """The zero times of ``scan()``, or the type, message and step of its refusal."""
    try:
        return [int(n) for n in scan()]
    except PrecisionExhaustedError as exc:
        return type(exc), str(exc), exc.step


@pytest.mark.parametrize(
    "values, x, count",
    [
        ([1, -1], Fraction(1, 10), 10**4),
        ([WIDE, -WIDE], Fraction(1, 10), 2**16 + 1),
        ([WIDE, -WIDE], NEAR_WALL_START, 2**16 + 10),
    ],
    ids=["unit", "wide", "wide-refused"],
)
def test_golden_zero_set_matches_pure_loop(values, x, count):
    """Fast kernel output equals the independent big-integer loop, time for time.

    Values of ``±2**61`` take Python-integer sums past ``2**62``, over a
    count that crosses a ``2**16``-step block seam of the cell kernel.  A
    refusal must match the loop's type, message and step.
    """
    rot, f = golden(), StepCocycle([0, HALF], values)
    got = zero_scan_outcome(lambda: find_zero_sums(rot, f, x, count).times.tolist())
    sums = birkhoff_sums(rot, f, FixedReal.of(x), count)
    want = zero_scan_outcome(lambda: [n for n, s in enumerate(sums, start=1) if s == 0])
    assert got == want
    if x is NEAR_WALL_START:
        assert want[0] is PrecisionExhaustedError and want[2] == 2**16 + 5
    else:
        assert got, "ergodic zero-mean scan found no zero sums"


@pytest.mark.parametrize("value", [WIDE, 1 << 64], ids=["wide", "past-int64"])
def test_wide_golden_zero_scan_never_walks_step_by_step(monkeypatch, value):
    """A rotation zero scan takes the cell kernel whatever the size of the cocycle."""
    rot, f, x = golden(), StepCocycle([0, HALF], [value, -value]), Fraction(1, 10)
    want = [n for n, s in enumerate(birkhoff_sums(rot, f, FixedReal.of(x), 10**4), start=1)
            if s == 0]

    def refuse(*args, **kwargs):
        raise AssertionError("the rotation zero scan walked step by step")

    monkeypatch.setattr(recurrence, "guarded_walk", refuse)
    assert find_zero_sums(rot, f, x, 10**4).times.tolist() == want
    assert want


def test_rational_closed_form_matches_oracle():
    x0 = Fraction(1, 10)
    with pytest.warns(RationalAngleWarning):
        records = find_zero_sums(CircleRotation(AngleSpec.rational(2, 5)), pm_one(), x0, 300)
    assert [r.time for r in records] == zero_sum_times(2, 5, x0, PM_WALLS, PM_VALUES, 300)


def test_zero_closure_under_cocycle_identity():
    """If n1 < n2 are zero times then the sum over [n1, n2) from S^{n1}x is zero."""
    rot, f = golden(), pm_one()
    x = FixedReal.of(Fraction(1, 10))
    times = [r.time for r in find_zero_sums(rot, f, x, 2000)]
    pairs = list(zip(times, times[1:]))[:25]
    for n1, n2 in pairs:
        shifted = rot.point_at(x, n1)
        tail = list(birkhoff_sums(rot, f, shifted, n2 - n1))
        assert tail[-1] == 0


def test_monotone_refinement():
    rot, f = golden(), pm_one()
    small = [r.time for r in find_zero_sums(rot, f, Fraction(1, 10), 500)]
    large = [r.time for r in find_zero_sums(rot, f, Fraction(1, 10), 1000)]
    assert large[: len(small)] == small


def test_ambiguous_start_raises_with_step():
    bad = FixedReal(ONE // 2, 1 << 90)  # straddles the cocycle wall at 1/2
    with pytest.raises(PrecisionExhaustedError) as info:
        find_zero_sums(golden(), pm_one(), bad, 10)
    assert info.value.step == 0


def test_count_must_be_positive():
    with pytest.raises(ValueError):
        find_zero_sums(golden(), pm_one(), 0, 0)


KERNEL_CHUNK = 1 << 16
SEAM_STEPS = 200_000  # more than three kernel chunks
NEAR_WALL_STEP = 3 * KERNEL_CHUNK + 7


@pytest.mark.parametrize(
    "angle, wall_offset",
    [("golden", None), ("sqrt2", None), ("golden", 1 << 100), ("sqrt2", -(1 << 100))],
    ids=["golden", "sqrt2", "golden-above-wall", "sqrt2-below-wall"],
)
def test_kernel_zero_times_stitch_across_chunks(angle, wall_offset, monkeypatch):
    """Zero times across the kernel's chunk seams equal the big-integer reference.

    With a wall offset, the start is chosen so that the orbit point at
    ``NEAR_WALL_STEP`` lies that many 192-bit ulps from the wall at 1/2:
    inside the coarse 64-bit margin, so the step must take the exact
    fallback, yet far outside the accumulated error, so it is decided.
    """
    rot, f = CircleRotation(AngleSpec.preset(angle)), pm_one()
    if wall_offset is None:
        x = FixedReal.of(Fraction(1, 10))
    else:
        shift = NEAR_WALL_STEP * rot.alpha.resolved.mantissa
        x = FixedReal((ONE // 2 + wall_offset - shift) % ONE)
    fallback_steps = []
    exact_cell = cocycles._exact_cell

    def spy(walls, mantissa, err, step):
        fallback_steps.append(step)
        return exact_cell(walls, mantissa, err, step)

    with monkeypatch.context() as patch:
        patch.setattr(cocycles, "_exact_cell", spy)
        zeros = find_zero_sums(rot, f, x, SEAM_STEPS)
    want = [n for n, s in enumerate(birkhoff_sums(rot, f, x, SEAM_STEPS), start=1) if s == 0]
    assert zeros.times.dtype == np.int64
    assert np.all(np.diff(zeros.times) > 0)
    assert zeros.times.tolist() == want
    assert set(((zeros.times - 1) // KERNEL_CHUNK).tolist()) == {0, 1, 2, 3}
    assert all(type(r.time) is int and r.value == 0 for r in zeros)
    if wall_offset is not None:
        assert NEAR_WALL_STEP in fallback_steps


# --------------------------------------------------------------------------- #
# near_returns
# --------------------------------------------------------------------------- #


def test_period_three_near_returns():
    rot = CircleRotation(AngleSpec.rational(1, 3))
    assert near_returns(rot, 0, 10, Fraction(1, 10**9)).times.tolist() == [3, 6, 9]


def test_eps_one_accepts_everything():
    assert near_returns(golden(), Fraction(1, 3), 12, 1).times.tolist() == list(range(1, 13))


def test_golden_near_returns_are_fibonacci_denominators():
    got = near_returns(golden(), Fraction(1, 10), 100, Fraction(1, 100)).times.tolist()
    assert got == [55, 89]
    # independent check at 50 digits
    with mpmath.workdps(50):
        alpha = (mpmath.sqrt(5) - 1) / 2
        want = [
            n
            for n in range(1, 101)
            if min(mpmath.frac(n * alpha), 1 - mpmath.frac(n * alpha))
            < mpmath.mpf(1) / 100
        ]
    assert got == want


def test_near_returns_rational_matches_oracle():
    rot = CircleRotation(AngleSpec.rational(3, 7))
    eps = Fraction(1, 5)
    got = near_returns(rot, Fraction(1, 9), 200, eps).times.tolist()
    assert got == near_return_times(3, 7, 200, eps)


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(min_value=1, max_value=500),
    p=st.integers(min_value=0, max_value=2000),
    count=st.integers(min_value=0, max_value=1000),
    eps_den=st.integers(min_value=1, max_value=60),
)
def test_near_returns_rational_laps_match_oracle(q, p, count, eps_den):
    """One period of three-gap residues gives the same times as a step-by-step Fraction orbit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        rot = CircleRotation(AngleSpec.rational(p, q))
    eps = Fraction(1, eps_den)
    got = near_returns(rot, Fraction(1, 9), count, eps)
    assert isinstance(got, Returns) and got.times.dtype == np.int64 and got.distance is None
    g = math.gcd(p, q)
    assert got.times.tolist() == near_return_times(p // g, q // g, count, eps)


def test_near_returns_on_interval_exchange():
    iet = IntervalExchange([Fraction(1, 4), Fraction(3, 4)], (2, 1))  # rotation by 3/4
    got = near_returns(iet, Fraction(1, 10), 12, Fraction(1, 10**6))
    assert got.times.tolist() == [4, 8, 12]


NEAR_ANGLES = [
    AngleSpec.preset("golden"),
    AngleSpec.preset("sqrt2"),
    AngleSpec.quadratic(1, 2, 7, 9),
    AngleSpec.quadratic(3, -1, 11, 4),
]
# one step, either side of the 2**16-element kernel block, and three blocks
NEAR_COUNTS = [1, 2**16 - 1, 2**16, 2**16 + 1, 140_000]
TINY = Fraction(1, 2**200)
NEAR_EPS = [Fraction(1, 100), Fraction(3, 7), TINY, HALF - TINY, HALF, HALF + TINY, 1, 3]


@st.composite
def rotation_near_cases(draw):
    """An angle, a count and an eps from the grid or at a chosen ``||n alpha||``.

    A chosen eps sits 0, 1, ``n`` or ``n + 1`` ulps either side of the
    nominal distance at step ``n``, whose radius is ``n`` ulps: inside the
    radius the scan must refuse at ``n``, just outside it must decide.  A
    third of an ulp either way makes it non-dyadic.
    """
    rotation = CircleRotation(draw(st.sampled_from(NEAR_ANGLES)))
    count = draw(st.sampled_from(NEAR_COUNTS))
    if draw(st.booleans()):
        return rotation, count, draw(st.sampled_from(NEAR_EPS))
    boundary = [c for c in NEAR_COUNTS if c <= count]
    n = draw(st.one_of(st.integers(1, count), st.sampled_from(boundary)))
    ulps = draw(st.sampled_from([0, 1, -1, n, -n, n + 1, -n - 1]))
    third = draw(st.sampled_from([-1, 0, 1]))
    m = n * rotation.alpha.resolved.mantissa % ONE
    return rotation, count, Fraction(3 * (min(m, ONE - m) + ulps) + third, 3 * ONE)


def rotation_joint_oracle(rotation, f, x, count, eps):
    """Zero times that are oracle near times, with the nominal distance."""
    near = set(reference_rotation_near_times(rotation, count, eps))
    rows = []
    for n in find_zero_sums(rotation, f, x, count).times.tolist():
        if n in near:
            m = n * rotation.alpha.resolved.mantissa % ONE
            rows.append((n, float(Fraction(min(m, ONE - m), ONE))))
    return rows


@settings(max_examples=50, deadline=None)
@given(case=rotation_near_cases())
def test_irrational_near_times_match_the_per_n_oracle(case):
    """Near and joint rows on irrational angles, refusal steps included."""
    rotation, count, eps = case
    x = Fraction(1, 10)
    want = scan_outcome(reference_rotation_near_times, rotation, count, eps)
    near = scan_outcome(near_list, rotation, x, count, eps)
    joint = scan_outcome(joint_zero_returns, rotation, pm_one(), x, count, eps)
    if isinstance(want, tuple):
        assert near == joint == want
        event("refused")
    else:
        assert near == want
        assert joint == rotation_joint_oracle(rotation, pm_one(), x, count, eps)
        event("decided")


def test_an_angle_below_one_ulp_is_near_at_every_step():
    """``sqrt(10**120 + 1) mod 1`` is about ``5e-61``: it resolves to 0 ± 1 ulp.

    The displacement after ``n`` steps is then 0 ± ``n`` ulps, far inside any
    eps the scan can name, so every time is near and nothing is refused.
    """
    rotation = CircleRotation(AngleSpec.quadratic(0, 1, 10**120 + 1, 1))
    resolved = rotation.alpha.resolved
    assert (resolved.mantissa, resolved.err_ulps) == (0, 1)
    count, eps = 2**16 + 1, Fraction(1, 100)
    every = list(range(1, count + 1))
    assert reference_rotation_near_times(rotation, count, eps) == every
    assert near_returns(rotation, Fraction(1, 10), count, eps).times.tolist() == every
    zeros = find_zero_sums(rotation, pm_one(), Fraction(1, 10), count)
    joint = joint_zero_returns(rotation, pm_one(), Fraction(1, 10), count, eps)
    assert joint.times.tolist() == zeros.times.tolist()
    assert joint.distance.tolist() == [0.0] * len(zeros)


def test_an_angle_within_one_ulp_of_half_refuses_only_up_to_half():
    """``1/2 + sqrt(10**120 + 1)`` resolves to 1/2 ± 1 ulp, so ``||alpha||`` straddles 1/2.

    Up to eps 1/2 the first step is refused, as the oracle refuses it.  Past
    1/2 every step is near: no circle distance exceeds 1/2, although the
    bound ``distance + radius`` does, so the oracle caps it at 1/2.
    """
    rotation = CircleRotation(AngleSpec.quadratic(1, 2, 10**120 + 1, 2))
    resolved = rotation.alpha.resolved
    assert (resolved.mantissa, resolved.err_ulps) == (ONE // 2, 1)
    for eps in (HALF - TINY, HALF):
        refused = (PrecisionExhaustedError, 1)
        assert scan_outcome(reference_rotation_near_times, rotation, 6, eps) == refused
        assert scan_outcome(near_list, rotation, 0, 6, eps) == refused
    every = [1, 2, 3, 4, 5, 6]
    assert reference_rotation_near_times(rotation, 6, HALF + TINY) == every
    assert near_returns(rotation, 0, 6, HALF + TINY).times.tolist() == every


# --------------------------------------------------------------------------- #
# the three-gap walk of sparse rotation near scans
# --------------------------------------------------------------------------- #


@st.composite
def multiple_cases(draw):
    """``(a, m, lo, hi)`` with ``m <= 2**12``: shared factors, ``a = 0``, ``lo = 0``, empty ranges."""
    d = draw(st.sampled_from([1, 1, 2, 3, 8, 64]))
    m = d * draw(st.integers(1, (1 << 12) // d))
    a = d * draw(st.integers(0, 2 * m // d))
    lo = draw(st.one_of(st.just(0), st.integers(0, m - 1)))
    hi = draw(st.integers(0, m - 1))
    return a, m, lo, hi


@settings(max_examples=400, deadline=None)
@given(case=multiple_cases())
@example(case=(0, 97, 0, 5))
@example(case=(0, 97, 1, 96))
@example(case=(6, 36, 1, 5))
@example(case=(6, 36, 7, 11))
@example(case=(5, 36, 9, 8))
def test_least_multiple_in_range_matches_brute_force(case):
    """The Euclid-like recursion finds the least ``x`` with ``lo <= a x mod m <= hi``.

    ``a x mod m`` repeats with a period dividing ``m``, so ``x < m`` covers it.
    """
    a, m, lo, hi = case
    want = next((x for x in range(m) if lo <= a * x % m <= hi), None)
    assert cocycles.least_multiple_in_range(a, m, lo, hi) == want
    event("none" if want is None else "found")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_arc_returns_match_brute_force(data):
    """The three-gap walk lists every time ``n a mod m`` lands in the arc, on any modulus."""
    d = data.draw(st.sampled_from([1, 1, 2, 4, 6]))
    m = d * data.draw(st.integers(1, 256 // d))
    a = data.draw(st.integers(0, 2 * m))
    start = data.draw(st.integers(0, m - 1))
    length = data.draw(st.integers(1, m))
    count = data.draw(st.integers(0, 3 * m))
    want = [n for n in range(1, count + 1) if (n * a - start) % m < length]
    assert cocycles.arc_returns(a, m, start, length, count) == want
    gaps = t1, t2 = cocycles.return_gaps(a, m, length)
    assert t1 == next(n for n in range(1, m + 1) if n * a % m < length)
    assert t2 == next((n for n in range(1, m + 1) if n * a % m > m - length), None)
    assert cocycles.arc_returns(a, m, start, length, count, gaps) == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_steps_within_match_brute_force(data):
    """Every step ``0 <= n < count`` whose point lies within the radius, step 0 included."""
    m = data.draw(st.integers(1, 256))
    a = data.draw(st.integers(0, 2 * m))
    x, point = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    radius = data.draw(st.integers(0, (m - 1) // 2))
    count = data.draw(st.integers(0, 3 * m))
    want = [
        n for n in range(count) if min((x + n * a - point) % m, (point - x - n * a) % m) <= radius
    ]
    assert cocycles.steps_within(a, m, x, point, radius, count) == want


def refuse_kernel(*args, **kwargs):
    raise AssertionError("the near scan ran the cell kernel")


def refuse_walk(*args, **kwargs):
    raise AssertionError("the near scan took the three-gap walk")


def engine_outcome(engine: str, rotation, count: int, eps: Fraction):
    """One engine's near times, or the type, message and step of its refusal.

    ``walk`` lowers the crossover gap to 1 and refuses the cell kernel, so
    every scan that reaches an engine takes the walk; ``kernel`` does the
    opposite.
    """
    with pytest.MonkeyPatch.context() as patch:
        if engine == "walk":
            patch.setattr(recurrence, "_WALK_MIN_GAP", 1)
            patch.setattr(recurrence, "certified_cells", refuse_kernel)
        else:
            patch.setattr(recurrence, "_WALK_MIN_GAP", math.inf)
            patch.setattr(recurrence, "_near_walk", refuse_walk)
        try:
            return near_list(rotation, 0, count, eps)
        except PrecisionExhaustedError as exc:
            return type(exc), str(exc), exc.step


@settings(max_examples=40, deadline=None)
@given(case=rotation_near_cases())
def test_the_walk_engine_matches_the_oracle_and_the_kernel(case):
    """The walk, forced past the crossover rule, gives the oracle's times and refusal step.

    Its refusals carry the cell kernel's type, message and step as well,
    and a joint scan on the walk keeps the oracle's rows.
    """
    rotation, count, eps = case
    walk = engine_outcome("walk", rotation, count, eps)
    want = scan_outcome(reference_rotation_near_times, rotation, count, eps)
    assert walk == engine_outcome("kernel", rotation, count, eps)
    x = Fraction(1, 10)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recurrence, "_WALK_MIN_GAP", 1)
        joint = scan_outcome(joint_zero_returns, rotation, pm_one(), x, count, eps)
    if isinstance(want, tuple):
        assert (walk[0], walk[2]) == want == joint
        event("refused")
    else:
        assert walk == want
        assert joint == rotation_joint_oracle(rotation, pm_one(), x, count, eps)
        event("decided")


# golden, sqrt2 and a surd of the benchmark's (a + b sqrt(c)) / d family
LONG_ANGLES = {
    "golden": AngleSpec.preset("golden"),
    "sqrt2": AngleSpec.preset("sqrt2"),
    "(2+sqrt11)/7": AngleSpec.quadratic(2, 1, 11, 7),
}


@st.composite
def surd_near_cases(draw):
    """A true quadratic-surd angle ``(a + b sqrt c)/d``, a rational eps below 1/2 and a horizon."""
    c = draw(st.sampled_from([c for c in range(2, 60) if math.isqrt(c) ** 2 != c]))
    surd = (draw(st.integers(-20, 20)), draw(st.sampled_from([*range(-12, 0), *range(1, 13)])),
            c, draw(st.integers(1, 40)))
    eps = Fraction(draw(st.integers(1, 9)), draw(st.integers(19, 20_000)))
    return surd, eps, draw(st.integers(100, 4000))


@settings(max_examples=40, deadline=None)
@given(case=surd_near_cases())
def test_near_times_match_the_exact_surd_orbit(case):
    """Near times from 0 on both engines are the true surd orbit's, up to any refusal.

    The oracle places ``{n alpha}`` against the walls ``0, eps, 1 - eps``
    in ``Q(sqrt c)``: a step is near where it lies in the first or the last
    cell.  The scan runs as chosen by the return gap, then forced onto the
    three-gap walk and onto the cell kernel; a refusal at step ``s`` is
    compared on the steps before it.
    """
    surd, eps, count = case
    rotation = CircleRotation(AngleSpec.quadratic(*surd))
    outcomes = [scan_outcome(near_list, rotation, 0, count, eps),
                *(engine_outcome(engine, rotation, count, eps) for engine in ("walk", "kernel"))]
    refusals = [outcome[-1] for outcome in outcomes if isinstance(outcome, tuple)]
    if refusals:
        event("refused")
        assert len(refusals) == 3 and len(set(refusals)) == 1
        count = refusals[0] - 1
        outcomes = [engine_outcome(engine, rotation, count, eps) for engine in ("walk", "kernel")]
    cells = surd_orbit_cells(surd, Fraction(0), [Fraction(0), eps, 1 - eps], count + 1)
    want = [n for n in range(1, count + 1) if cells[n] != 1]
    event("near" if want else "never near")
    assert all(outcome == want for outcome in outcomes)


@pytest.mark.parametrize("angle", LONG_ANGLES)
@pytest.mark.parametrize("count", [10**6, 10**7])
@pytest.mark.parametrize("eps", [Fraction(1, 997), Fraction(1, 1_000_003), Fraction(1, 10**9)], ids=str)
def test_the_walk_engine_matches_the_kernel_at_long_horizons(angle, count, eps):
    """Sparse and dense near times up to 10**7 steps: the walk lists the kernel's."""
    rotation = CircleRotation(LONG_ANGLES[angle])
    walk = engine_outcome("walk", rotation, count, eps)
    assert isinstance(walk, list)
    assert walk == engine_outcome("kernel", rotation, count, eps)


@pytest.mark.parametrize("angle", LONG_ANGLES)
@pytest.mark.parametrize("ulps", [-2, 0, 3])
def test_the_walk_refuses_where_the_kernel_does_past_a_long_horizon(angle, ulps):
    """An eps a few ulps from ``||q alpha||``, ``q`` a convergent denominator past 10**5.

    No earlier step comes as close (a best approximation), and the radius
    at ``q`` is ``q`` ulps, so both engines refuse at ``q``.
    """
    spec = LONG_ANGLES[angle]
    rotation = CircleRotation(spec)
    q = next(c.denominator for c in cf_convergents(spec, 30) if c.denominator > 10**5)
    m = q * rotation.alpha.resolved.mantissa % ONE
    eps = Fraction(min(m, ONE - m) + ulps, ONE)
    walk = engine_outcome("walk", rotation, 3 * q, eps)
    assert walk[0] is PrecisionExhaustedError and walk[2] == q
    assert walk == engine_outcome("kernel", rotation, 3 * q, eps)


def test_a_radius_past_the_safety_margin_keeps_the_kernel(monkeypatch):
    """A horizon whose radius reaches ``2**128`` ulps is refused up front, with no step.

    On golden that horizon lies past ``2**62`` steps, so the kernel
    refuses it with its horizon message.  From
    ``2**63`` steps ``near_returns`` refuses before either engine runs (the
    walk's listing is patched too, since it would list about ``2 eps count``
    times); a sparse scan just below takes the walk, since the engine is
    chosen by the return gap alone.
    """
    horizon = "the orbit horizon exceeds the scans' step limit"
    rotation = golden()
    a_e = rotation.alpha.resolved.err_ulps
    eps = Fraction(1, 1_000_003)
    monkeypatch.setattr(recurrence, "_WALK_MIN_GAP", 1)
    monkeypatch.setattr(recurrence, "_near_walk", refuse_walk)
    monkeypatch.setattr(recurrence, "arc_returns", refuse_walk)
    count = -(-(1 << 128) // a_e) - 1  # the least with (count + 1) err >= 2**128
    with pytest.raises(PrecisionExhaustedError) as refused:
        near_returns(rotation, 0, count, eps)
    assert str(refused.value) == horizon
    assert refused.value.step is None
    monkeypatch.setattr(recurrence, "certified_cells", refuse_kernel)
    with pytest.raises(PrecisionExhaustedError) as refused:
        near_returns(rotation, 0, 2**63, eps)
    assert str(refused.value) == horizon and refused.value.step is None
    monkeypatch.undo()
    monkeypatch.setattr(recurrence, "certified_cells", refuse_kernel)
    sparse = Fraction(1, 10**18)
    times = near_list(rotation, 0, 2**63 - 1, sparse)
    a_m = rotation.alpha.resolved.mantissa
    assert times[-1] > 2**62
    assert all(min(n * a_m % ONE, -n * a_m % ONE) + n * a_e < _eps_bound(sparse) for n in times)


@pytest.mark.parametrize(
    "ulps, step",
    [(MAX_ERR_ULPS - 5, 6), (MAX_ERR_ULPS, 1), (MAX_ERR_ULPS + 1, 0)],
    ids=["margin-5", "margin", "margin+1"],
)
def test_zero_scans_refuse_past_the_margin_where_the_reference_does(ulps, step):
    """A golden start 1/10 whose radius first passes ``MAX_ERR_ULPS`` at ``step``.

    :func:`birkhoff_sums` refuses there, with the message of
    :meth:`Walls.locate`, and so do the zero and joint scans: the kernel
    refuses the first radius past the margin at its step, and a start
    already past it at step 0.
    """
    rotation, start = golden(), FixedReal(ONE // 10, ulps)
    with pytest.raises(PrecisionExhaustedError, match="safety margin") as reference:
        list(birkhoff_sums(rotation, pm_one(), start, 20))
    assert reference.value.step == step
    scans = [
        lambda: find_zero_sums(rotation, pm_one(), start, 20),
        lambda: joint_zero_returns(rotation, pm_one(), start, 20, Fraction(1, 3)),
    ]
    for scan in scans:
        with pytest.raises(PrecisionExhaustedError) as refused:
            scan()
        assert (refused.value.step, str(refused.value)) == (step, str(reference.value))


def test_exchange_scans_refuse_a_start_past_the_margin_at_step_zero():
    """A start whose radius is already past ``MAX_ERR_ULPS`` is refused at step 0 by the zero and near scans alike.

    The near scan walks without a cocycle, and its walk still refuses the
    start's radius with its step.
    """
    iet, start = IntervalExchange(*DYADIC_IET), FixedReal(ONE // 7, MAX_ERR_ULPS + 1)
    refusals = []
    for scan in (
        lambda: find_zero_sums(iet, pm_one(), start, 10),
        lambda: near_returns(iet, start, 10, Fraction(1, 7)),
    ):
        with pytest.raises(PrecisionExhaustedError, match="safety margin") as refused:
            scan()
        refusals.append((refused.value.step, str(refused.value)))
    assert refusals[0] == refusals[1] and refusals[0][0] == 0


def refuse_guarded_walk(*args, **kwargs):
    raise AssertionError("the scan walked before it was refused")


@pytest.mark.parametrize("count", [2**62, 2**63, 2**64], ids=["2**62", "2**63", "2**64"])
def test_a_horizon_past_the_64_bit_words_is_refused_up_front(count, monkeypatch):
    """From ``2**62`` steps the kernel's words certify nothing: refused with no step.

    The kernel steps uint64 words, and lists the steps within ``(count + 2)
    2**128`` ulps of a wall, an arc that must fit on the circle.  A sparse
    near scan takes the three-gap walk instead, which uses no words, and
    answers: golden at eps ``10**-18`` returns about every ``10**17``
    steps, at Fibonacci numbers among others.  From ``2**63`` steps a time
    could pass the int64 column, so that sparse scan is refused like the
    dense one, and so is every lap scan (a rational angle, a dyadic interval
    exchange, or an eps above 1/2), which would expand times past that
    column: before, they answered no time, failed to allocate the laps or
    overflowed the column.  Each detector refuses such a horizon before its
    first step, so an interval exchange whose walk never returns (lengths
    3/10 and 1/5 round to the grid) is refused at once instead of walking
    without end; the guarded walk is patched to fail if any scan reaches it.
    """
    horizon = "the orbit horizon exceeds the scans' step limit"
    monkeypatch.setattr(recurrence, "guarded_walk", refuse_guarded_walk)
    scans = [
        lambda: find_zero_sums(golden(), pm_one(), Fraction(1, 10), count),
        lambda: near_returns(golden(), 0, count, Fraction(3, 7)),
    ]
    if count >= 2**63:
        half, third = (CircleRotation(AngleSpec.rational(1, q)) for q in (2, 3))
        iet, x = IntervalExchange(*DYADIC_IET), Fraction(5, 9)
        rounded, y = IntervalExchange(*NON_DYADIC_IET), Fraction(1, 7)
        far_zero = StepCocycle([0, Fraction(1, 4), HALF], [-(2**62), 2**62 + 2, -1])
        scans += [
            lambda: near_returns(golden(), 0, count, Fraction(1, 10**18)),
            lambda: near_returns(golden(), 0, count, Fraction(3, 5)),
            lambda: find_zero_sums(half, pm_one(), Fraction(1, 7), count),
            # lap sum 1 after -2**62: the one zero, 3 * 2**62 + 1, passes the column
            lambda: find_zero_sums(third, far_zero, Fraction(1, 8), count),
            lambda: joint_zero_returns(half, pm_one(), Fraction(1, 7), count, Fraction(1, 3)),
            lambda: near_returns(third, 0, count, Fraction(1, 7)),
            lambda: find_zero_sums(iet, pm_one(), x, count),
            lambda: near_returns(iet, x, count, Fraction(1, 7)),
            lambda: joint_zero_returns(iet, pm_one(), x, count, Fraction(1, 7)),
            lambda: find_zero_sums(rounded, pm_one(), y, count),
            lambda: near_returns(rounded, y, count, Fraction(1, 7)),
            lambda: joint_zero_returns(rounded, pm_one(), y, count, Fraction(1, 7)),
        ]
    for scan in scans:
        with pytest.raises(PrecisionExhaustedError) as refused, warnings.catch_warnings():
            warnings.simplefilter("ignore", RationalAngleWarning)
            scan()
        assert str(refused.value) == horizon and refused.value.step is None
    eps = Fraction(1, 10**18)
    times = near_list(golden(), 0, 2**62, eps)
    a_m = golden().alpha.resolved.mantissa
    assert all(min(n * a_m % ONE, -n * a_m % ONE) + n < _eps_bound(eps) for n in times)
    fibonacci = [1, 2]
    while fibonacci[-1] < 2**62:
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    assert {n for n in fibonacci[:-1] if n > 10**18} <= set(times)


def refuse_listing(*args, **kwargs):
    raise AssertionError("the scan listed times before it was refused")


def test_a_listing_past_the_row_limit_is_refused_before_it_lists(monkeypatch):
    """A scan that could list more than ``MAX_ROWS`` times raises ``RowLimitError`` up front.

    Each scan bounds its rows before it lists any: a lap scan by its
    residues times its laps (a rational angle's near residues, the zero
    lap of the rotation by 1/2, every step at an eps above 1/2), the
    three-gap walk over the returns of ``n alpha`` to the eps arc by
    ``count // min(t1, t2) + 1``.
    ``np.arange``, and for the irrational scans ``arc_returns``, are
    patched to fail, so a scan that lists before it checks fails here
    instead of exhausting memory.  With the limit cut to 6, the rotation by
    1/3 near 0 lists its 6 returns by step 18 and refuses step 19.
    """
    half, third = (CircleRotation(AngleSpec.rational(1, q)) for q in (2, 3))
    far = 2**62
    monkeypatch.setattr(np, "arange", refuse_listing)
    lap_scans = [
        lambda: near_returns(third, 0, far, Fraction(1, 7)),
        lambda: near_returns(golden(), 0, far, Fraction(3, 4)),
        lambda: find_zero_sums(half, pm_one(), Fraction(1, 7), far),
        lambda: joint_zero_returns(half, pm_one(), Fraction(1, 7), far, Fraction(1, 3)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        for scan in lap_scans:
            with pytest.raises(RowLimitError, match="MAX_ROWS"):
                scan()
        monkeypatch.setattr(recurrence, "arc_returns", refuse_listing)
        with pytest.raises(RowLimitError, match="MAX_ROWS"):
            near_returns(golden(), 0, far, Fraction(1, 10**6))
        monkeypatch.undo()
        monkeypatch.setattr(recurrence, "MAX_ROWS", 6)
        assert near_list(third, 0, 18, Fraction(1, 7)) == [3, 6, 9, 12, 15, 18]
        with pytest.raises(RowLimitError):
            near_returns(third, 0, 19, Fraction(1, 7))


def test_a_winding_grid_past_the_row_limit_is_refused_before_its_first_block(monkeypatch):
    """Each grid point of a winding scan past 0 ends at most one zero, so the grid bounds the rows.

    With ``MAX_ROWS`` cut to the grid of ``t_max = 30`` the near scan
    answers as before; one below, it is refused before the scan runs (the
    scan is patched to fail), and so is ``t_max = 10**12`` at the real
    limit: about ``2 10**13`` grid points.
    """
    w, f, start = TorusWinding(AngleSpec.preset("sqrt2")), TrigPolynomial.cos_x(), TorusPoint(0, 0)
    want = flow_zero_near_returns(w, f, start, 30, 0.05)
    points = cocycles._winding_grid(w, f, 30.0)[1]
    limit = recurrence.MAX_ROWS
    monkeypatch.setattr(recurrence, "MAX_ROWS", points)
    assert flow_zero_near_returns(w, f, start, 30, 0.05) == want
    monkeypatch.setattr(recurrence, "winding_zero_times", refuse_listing)
    monkeypatch.setattr(recurrence, "MAX_ROWS", points - 1)
    with pytest.raises(RowLimitError, match=f"up to {points} rows"):
        flow_zero_near_returns(w, f, start, 30, 0.05)
    monkeypatch.setattr(recurrence, "MAX_ROWS", limit)
    with pytest.raises(RowLimitError, match="MAX_ROWS"):
        flow_zero_near_returns(w, f, start, 10**12, 0.05)


def test_sparse_rotation_near_scans_skip_the_cell_kernel(monkeypatch):
    """sqrt2 at eps about 10**-6 returns about every 5 * 10**5 steps: 10**8 steps take the walk.

    The near half of a joint scan takes it too; its zero half is stubbed
    here, since the zero scan runs the kernel.
    """
    rotation = CircleRotation(AngleSpec.preset("sqrt2"))
    count, eps = 10**8, Fraction(1, 1_000_003)
    monkeypatch.setattr(recurrence, "certified_cells", refuse_kernel)
    near = near_returns(rotation, 0, count, eps).times.tolist()
    assert len(near) == 200 and near[0] == 470_832  # a Pell denominator
    a_m = rotation.alpha.resolved.mantissa
    distances = [min(n * a_m % ONE, ONE - n * a_m % ONE) for n in near]
    assert max(distances) < _eps_bound(eps) and near[-1] <= count

    def zeros(*args):
        return Returns(np.array([1, 2, *near, count], dtype=np.int64))

    monkeypatch.setattr(recurrence, "find_zero_sums", zeros)
    joint = joint_zero_returns(rotation, pm_one(), 0, count, eps)
    assert joint.times.tolist() == near
    assert joint.distance.tolist() == [float(Fraction(d, ONE)) for d in distances]


@pytest.mark.parametrize(
    "spec, count, eps",
    [("sqrt2", 10**5, Fraction(3, 7)), ("golden", 10**6, Fraction(1, 150))],
    ids=["sqrt2-3/7", "golden-1/150"],
)
def test_dense_rotation_near_scans_keep_the_cell_kernel(monkeypatch, spec, count, eps):
    """A near time every few steps (``min(t1, t2)`` of 1 and 34) stays on the kernel."""
    rotation = CircleRotation(AngleSpec.preset(spec))
    monkeypatch.setattr(recurrence, "_near_walk", refuse_walk)
    times = near_returns(rotation, 0, count, eps).times
    assert len(times) > count // 200


SWAP_COCYCLES = [
    ([0, HALF], [1, -1]),
    ([0, Fraction(3, 8)], [5, -3]),
    ([0, Fraction(1, 4), HALF, Fraction(3, 4)], [0, 1, 0, -1]),
]


@settings(max_examples=80, deadline=None)
@given(
    x=st.builds(
        lambda i, inexact: FixedReal((i << (SCALE - 12)) + 2 * inexact, inexact),
        st.integers(0, (1 << 12) - 1),
        st.booleans(),
    ),
    count=st.integers(1, 12),
    eps=st.sampled_from([HALF - TINY, HALF, HALF + TINY, 1, 3]),
    cocycle=st.sampled_from(SWAP_COCYCLES),
)
def test_the_half_swap_scans_like_the_rotation_by_half(x, count, eps, cocycle):
    """The exchange of two halves is the rotation by 1/2, for near and joint scans too.

    Odd steps lie at distance 1/2 from the start.  An eps above 1/2 takes
    every step on both systems, whatever the start's radius.  From an exact
    start the exchange decides every eps exactly, as the rational angle
    does.  A 1-ulp start lies 2 ulps above a grid point, clear of the
    cocycle walls and of the exchange's walls at 0 and 1/2, where the
    exchange alone would refuse.  From it, up to eps 1/2, the exchange's
    distance ``1/2 ± 2`` ulps straddles eps, so it refuses the first odd
    step it tests; the rational angle's distances are exact for any start.
    """
    iet = IntervalExchange([HALF, HALF], (2, 1))
    rotation = CircleRotation(AngleSpec.rational(1, 2))
    f = StepCocycle(*cocycle)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        near = scan_outcome(near_list, rotation, x, count, eps)
        joint = scan_outcome(joint_zero_returns, rotation, f, x, count, eps)
        zeros = find_zero_sums(rotation, f, x, count).times.tolist()
    if x.is_exact or eps > HALF:
        assert scan_outcome(near_list, iet, x, count, eps) == near
        assert scan_outcome(joint_zero_returns, iet, f, x, count, eps) == joint
        event("decided")
        return
    assert scan_outcome(near_list, iet, x, count, eps) == (PrecisionExhaustedError, 1)
    odd = [n for n in zeros if n % 2]
    want = (PrecisionExhaustedError, odd[0]) if odd else joint
    assert scan_outcome(joint_zero_returns, iet, f, x, count, eps) == want
    event("joint refused" if odd else "joint decided")


# --------------------------------------------------------------------------- #
# joint_zero_returns
# --------------------------------------------------------------------------- #


def test_joint_period_two_distances_vanish():
    with pytest.warns(RationalAngleWarning):
        records = joint_zero_returns(
            CircleRotation(AngleSpec.rational(1, 2)), pm_one(), 0, 10, Fraction(1, 10**9)
        )
    assert [r.time for r in records] == [2, 4, 6, 8, 10]
    assert all(r.distance == 0 for r in records)


def test_joint_zero_cocycle_reduces_to_near_returns():
    f = StepCocycle([0, HALF], [0, 0])
    with pytest.warns(RationalAngleWarning):
        records = joint_zero_returns(
            CircleRotation(AngleSpec.rational(1, 3)), f, 0, 10, Fraction(1, 10**9)
        )
    assert [r.time for r in records] == [3, 6, 9]


def test_joint_golden_is_exact_intersection():
    rot, f = golden(), pm_one()
    x = Fraction(1, 10)
    eps = Fraction(1, 100)
    records = joint_zero_returns(rot, f, x, 10**4, eps)
    assert records, "no joint zero/near-return events found"
    zero_times = {r.time for r in find_zero_sums(rot, f, x, 10**4)}
    near_times = set(near_returns(rot, x, 10**4, eps).times.tolist())
    assert {r.time for r in records} == zero_times & near_times
    assert all(0 < r.distance < float(eps) for r in records)


def test_joint_rational_angle_from_an_inexact_start_is_exact():
    """Near times of a rational angle come from the exact rational walk for any start.

    ``||n/3|| = 1/3 = eps`` exactly for n = 1, 2 mod 3, which no guarded
    comparison on the rounded angle can decide.  From 1/5 the cocycle
    ``[1, 0, -1, 0]`` sums to 0 over each lap, so every multiple of 3 is a
    zero time and a near time.
    """
    rot = CircleRotation(AngleSpec.rational(1, 3))
    f = StepCocycle([0, Fraction(1, 4), HALF, Fraction(3, 4)], [1, 0, -1, 0])
    x, eps, count = FixedReal.of(Fraction(1, 5)), Fraction(1, 3), 300
    assert not x.is_exact
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        joint = joint_zero_returns(rot, f, x, count, eps)
        zeros = set(find_zero_sums(rot, f, x, count).times.tolist())
    near = set(near_returns(rot, x, count, eps).times.tolist())
    assert joint.times.tolist() == sorted(zeros & near) == list(range(3, count + 1, 3))
    assert joint.distance == [0] * (count // 3)


@pytest.mark.parametrize("p, q", [(5, 12), (5, 13), (97, 1009), (-5, 12), (1, 2)])
@pytest.mark.parametrize("above", [0, Fraction(1, 10**30)], ids=["at-a-distance", "just-above"])
def test_rational_near_and_joint_scans_at_a_residue_distance(p, q, above):
    """An eps equal to a residue distance ``k/q`` leaves that residue out; just above it, in.

    Each scan must give the times, and the joint scan the exact distances,
    of a ``Fraction`` orbit from 1/7.  The 60 steps on 97/1009 end inside
    the first period, -5/12 has a negative numerator, and the residue of
    1/2 sits exactly at eps 1/2.
    """
    rotation, f, x0, count = CircleRotation(AngleSpec.rational(p, q)), pm_one(), Fraction(1, 7), 60
    orbit = rotation_orbit(p, q, x0, count + 1)
    distances = [oracle_distance(point, x0) for point in orbit[1:]]
    sums = oracle_sums(p, q, x0, PM_WALLS, PM_VALUES, count)
    on_eps = []  # joint rows whose distance is k/q itself
    for k in range(q // 2 + 1):
        eps = Fraction(k, q) + above
        if eps <= 0:
            continue
        near = [n for n, d in enumerate(distances, start=1) if d < eps]
        assert near_returns(rotation, x0, count, eps).times.tolist() == near
        with pytest.warns(RationalAngleWarning):
            joint = joint_zero_returns(rotation, f, x0, count, eps)
        want = [(n, distances[n - 1]) for n in near if sums[n - 1] == 0]
        assert [(r.time, r.distance) for r in joint] == want
        assert all(type(r.distance) is Fraction for r in joint)
        on_eps += [n for n, d in want if d == Fraction(k, q)]
    assert bool(on_eps) == bool(above)


DYADIC_IET = ([Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 4)], (4, 3, 2, 1))
NON_DYADIC_IET = ([Fraction(3, 10), Fraction(1, 5), Fraction(1, 2)], (3, 2, 1))


def apply_calls(monkeypatch, scan):
    """The result of ``scan()`` and the number of ``IntervalExchange.apply`` calls it made."""
    apply = IntervalExchange.apply
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(
            IntervalExchange, "apply", lambda self, p: calls.append(p) or apply(self, p)
        )
        result = scan()
    return result, len(calls)


def joint_apply_calls(monkeypatch, iet, eps) -> int:
    """``apply`` calls of a 5,000-step joint scan from 5/9, after checking its rows.

    The rows must be the zero times that are near times, with distances
    below eps.
    """
    f, x, count = pm_one(), Fraction(5, 9), 5_000
    zeros = set(find_zero_sums(iet, f, x, count).times.tolist())
    near = set(near_returns(iet, x, count, eps).times.tolist())
    assert zeros & near and zeros - near
    joint, calls = apply_calls(monkeypatch, lambda: joint_zero_returns(iet, f, x, count, eps))
    assert joint.times.tolist() == sorted(zeros & near)
    assert all(0 <= d < float(eps) for d in joint.distance.tolist())
    return calls


def test_joint_walks_an_interval_exchange_once(monkeypatch):
    """From 5/9 the dyadic exchange is back at the start after 8 steps.

    The error radius is back too, so the scan walks that one lap and takes
    every later lap from it: 8 ``apply`` calls for 5,000 steps.
    """
    assert joint_apply_calls(monkeypatch, IntervalExchange(*DYADIC_IET), Fraction(1, 5)) == 8


@pytest.mark.parametrize("scan", ["zero", "near"])
def test_zero_and_near_scans_walk_an_interval_exchange_once(monkeypatch, scan):
    """The zero and near scans from 5/9 walk the same 8-step lap, and match every step."""
    iet, f, count, eps = IntervalExchange(*DYADIC_IET), pm_one(), 5_000, Fraction(1, 5)
    x = FixedReal.of(Fraction(5, 9))
    if scan == "zero":
        want = reference_zero_times(iet, f, x, count)
        got, calls = apply_calls(monkeypatch, lambda: find_zero_sums(iet, f, x, count))
    else:
        want = reference_near_times(iet, x, count, eps)
        got, calls = apply_calls(monkeypatch, lambda: near_returns(iet, x, count, eps))
    assert got.times.tolist() == want and want
    assert calls == 8


def test_joint_walks_a_non_dyadic_exchange_step_by_step(monkeypatch):
    """Offsets with an error radius: the walk never returns exactly, one apply per step."""
    iet = IntervalExchange(*NON_DYADIC_IET)
    assert joint_apply_calls(monkeypatch, iet, Fraction(3, 20)) == 5_000


def test_a_walk_that_cannot_close_tests_eps_at_its_zeros_only(monkeypatch):
    """Once a point's radius outgrows the start's, eps is decided at zeros alone.

    Every offset of the non-dyadic exchange carries an error radius, so from
    1/7 the radius grows at the first step and the walk can never be back at
    its start: one ``circle_distance`` call per zero, not one per step.
    """
    iet, f, x, count = IntervalExchange(*NON_DYADIC_IET), pm_one(), Fraction(1, 7), 20_000
    eps = Fraction(3, 5)
    zeros = find_zero_sums(iet, f, x, count).times.tolist()
    distance = recurrence.circle_distance
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(recurrence, "circle_distance", lambda p, q: calls.append(p) or distance(p, q))
        joint = joint_zero_returns(iet, f, x, count, eps)
    assert joint.times.tolist() == zeros and zeros
    assert len(calls) == len(zeros) < count


def test_birkhoff_sums_never_close_a_lap(monkeypatch):
    """The reference walks every step even where the orbit returns after 8."""
    iet = IntervalExchange(*DYADIC_IET)
    apply = IntervalExchange.apply
    calls = []
    monkeypatch.setattr(
        IntervalExchange, "apply", lambda self, p: calls.append(p) or apply(self, p)
    )
    sums = list(birkhoff_sums(iet, pm_one(), FixedReal.of(Fraction(5, 9)), 1_000))
    assert len(sums) == len(calls) == 1_000
    assert calls[8] == calls[0] == FixedReal.of(Fraction(5, 9))


@pytest.mark.parametrize(
    "base",
    [
        golden,
        lambda: CircleRotation(AngleSpec.rational(2, 5)),
        lambda: IntervalExchange(*DYADIC_IET),
        lambda: IntervalExchange(*NON_DYADIC_IET),
    ],
    ids=["irrational", "rational", "dyadic-iet", "non-dyadic-iet"],
)
def test_an_empty_near_scan_returns_no_times(base):
    """``count=0`` walks no step: an empty ``Returns`` on every base."""
    got = near_returns(base(), Fraction(5, 9), 0, Fraction(1, 5))
    assert isinstance(got, Returns) and got.times.tolist() == [] and got == []


# --------------------------------------------------------------------------- #
# closed laps
# --------------------------------------------------------------------------- #

# Dyadic exchanges with 2-5 intervals on a 2**-k grid (k <= 8), integer
# cocycles on dyadic walls, and starts exact or with a 1-ulp radius: every
# such orbit returns to its start within 2**k steps.
CLOSURE_COCYCLES = [
    ([0, HALF], [1, -1]),
    ([0, Fraction(3, 8)], [5, -3]),
    ([0, Fraction(1, 4), HALF], [2, 2, -2]),
    ([0], [0]),
]


@st.composite
def dyadic_exchanges(draw):
    m = draw(st.integers(min_value=2, max_value=5))
    size = 1 << draw(st.integers(min_value=3, max_value=8))
    cuts = sorted(draw(st.sets(st.integers(1, size - 1), min_size=m - 1, max_size=m - 1)))
    lengths = [Fraction(b - a, size) for a, b in zip([0, *cuts], [*cuts, size])]
    permutation = draw(st.permutations(range(1, m + 1)))
    return IntervalExchange(lengths, permutation), size


@st.composite
def closure_starts(draw, size):
    """An exact start, a 1-ulp start anywhere, or a 1-ulp start near a grid point.

    Grid starts lie 1 ulp below, on, 1 ulp above or 2**100 ulps above a
    point of the ``1/size`` grid, where the exchange's walls lie, so some
    orbit point in the first lap may sit within an ulp of a wall.
    """
    kind = draw(st.sampled_from(["exact", "ulp", "grid"]))
    if kind == "exact":
        return FixedReal(draw(st.integers(0, (1 << 12) - 1)) << (SCALE - 12))
    if kind == "ulp":
        return FixedReal(draw(st.integers(0, ONE - 1)), 1)
    grid = draw(st.integers(0, size - 1)) * (ONE // size)
    return FixedReal((grid + draw(st.sampled_from([-1, 0, 1, 1 << 100]))) % ONE, 1)


def lap_of(base, x, limit):
    """Steps until the walk from ``x`` is back at ``x`` exactly, or None."""
    try:
        for n, p in enumerate(walk_points(base, x, limit), start=1):
            if p == x:
                return n
    except PrecisionExhaustedError:
        return None
    return None


def near_list(*args) -> list[int]:
    """The times of :func:`near_returns` as a list of ints."""
    return near_returns(*args).times.tolist()


def scan_outcome(detector, *args):
    """The detector's rows, or the type and step of its refusal."""
    try:
        got = detector(*args)
    except PrecisionExhaustedError as exc:
        return type(exc), exc.step
    if isinstance(got, Returns):
        return [(r.time, r.distance) for r in got]
    return got


@settings(max_examples=300, deadline=None)
@given(case=dyadic_exchanges(), data=st.data())
def test_closed_laps_match_the_per_step_walk(case, data):
    """Zero, near and joint scans that close a lap equal the per-step oracle."""
    iet, size = case
    x = data.draw(closure_starts(size))
    f = StepCocycle(*data.draw(st.sampled_from(CLOSURE_COCYCLES)))
    lap = lap_of(iet, x, size) or 8
    laps, shift = data.draw(st.integers(0, 4)), data.draw(st.sampled_from([-1, 0, 1]))
    count = max(1, laps * lap + shift)
    eps = data.draw(st.one_of(
        st.builds(lambda k, third: Fraction(k, size) + third,
                  st.integers(1, size // 2), st.sampled_from([0, Fraction(1, 3 * size)])),
        st.just(HALF + TINY),  # above every distance, even one whose interval passes 1/2
    ))
    assert scan_outcome(find_zero_sums, iet, f, x, count) == scan_outcome(
        lambda *a: [(n, None) for n in reference_zero_times(*a)], iet, f, x, count
    )
    assert scan_outcome(near_list, iet, x, count, eps) == scan_outcome(
        reference_near_times, iet, x, count, eps
    )
    joint = scan_outcome(joint_zero_returns, iet, f, x, count, eps)
    assert joint == scan_outcome(reference_joint_rows, iet, f, x, count, eps)
    lap_sums = scan_outcome(lambda: list(birkhoff_sums(iet, f, x, lap)))
    if lap_of(iet, x, size) is None or isinstance(lap_sums, tuple):
        event("refused or open within the grid size")
    else:
        event(f"closed, lap sum {'zero' if lap_sums[-1] == 0 else 'nonzero'}")
        event("count on a lap multiple" if count % lap == 0 else "count between laps")
        if isinstance(joint, tuple) and joint[1] > lap:
            event("joint refusal past the first lap")


@settings(max_examples=15, deadline=None)
@given(case=dyadic_exchanges(), data=st.data())
def test_closed_laps_match_the_per_step_excess_estimate(case, data):
    iet, _ = case
    f = StepCocycle(*data.draw(st.sampled_from(CLOSURE_COCYCLES)))
    n_list = data.draw(st.lists(st.integers(1, 300), min_size=1, max_size=4))
    args = (iet, f, n_list, Fraction(1, 20))
    seed = data.draw(st.integers(0, 1 << 20))
    assert sublinearity_estimate(*args, samples=100, seed=seed) == reference_excess(
        *args, samples=100, seed=seed
    )


@pytest.mark.parametrize(
    "lengths, permutation, walls, values, start, lap, eps, step",
    [
        ([Fraction(5, 16), Fraction(5, 8), Fraction(1, 16)], (2, 1, 3),
         [0, Fraction(3, 8)], [5, -3], Fraction(1, 4), 3, Fraction(5, 16), 8),
        ([Fraction(1, 8), Fraction(5, 16), HALF, Fraction(1, 16)], (1, 3, 4, 2),
         [0, HALF], [1, -1], Fraction(3, 16), 14, Fraction(1, 8), 16),
        ([Fraction(5, 16), Fraction(1, 8), Fraction(5, 16), Fraction(1, 4)], (2, 4, 3, 1),
         [0, HALF], [1, -1], Fraction(9, 16), 11, Fraction(1, 4), 24),
    ],
    ids=["no-zero-in-lap-1", "decided-zero-in-lap-1", "two-refusals-past-lap-1"],
)
def test_joint_refusal_first_reached_in_a_later_lap(
    lengths, permutation, walls, values, start, lap, eps, step
):
    """A zero past the first lap whose distance is exactly eps raises at its own step.

    The start is 2**-7 past a 2**-4 grid point with a 1-ulp radius, so every
    distance to it is a multiple of 1/16 known to within 2 ulps.  The lap
    sum is nonzero, and the zero at ``step`` lies in a residue with no zero in
    the first lap.  In the last case a second such zero, at step 26, also
    straddles eps: the earlier one names the refusal.
    """
    iet, f = IntervalExchange(lengths, permutation), StepCocycle(walls, values)
    x = FixedReal(start.numerator * (ONE // start.denominator) + (ONE >> 7), 1)
    assert lap_of(iet, x, 100) == lap < step
    want = scan_outcome(reference_joint_rows, iet, f, x, 400, eps)
    assert want == (PrecisionExhaustedError, step)
    assert scan_outcome(joint_zero_returns, iet, f, x, 400, eps) == want


@pytest.mark.parametrize(
    "eps, near_step, joint_step",
    [(Fraction(1, 5), 2, 2), (Fraction(1, 10), 3, 6), (Fraction(3, 10), 1, 8)],
)
def test_a_straddling_zero_is_refused_before_a_later_wall(eps, near_step, joint_step):
    """A zero whose distance straddles eps names the refusal, not a wall met later.

    From 0 the rounded exchange ``[3/10, 1/5, 1/2]`` never returns to its
    start and is refused at its own walls at step 9, without a step.  Its
    exact orbit lies in ``(1/10)Z``, so an eps on that grid straddles at the
    first zero that meets it (any step, for a near scan), and the scans name
    that step, as the per-step walk does.
    """
    iet, f, x = IntervalExchange(*NON_DYADIC_IET), pm_one(), FixedReal(0)
    near = scan_outcome(near_returns, iet, x, 100, eps)
    assert near == scan_outcome(reference_near_times, iet, x, 100, eps)
    joint = scan_outcome(joint_zero_returns, iet, f, x, 100, eps)
    assert joint == scan_outcome(reference_joint_rows, iet, f, x, 100, eps)
    assert (near, joint) == ((PrecisionExhaustedError, near_step),
                             (PrecisionExhaustedError, joint_step))


def test_returns_rows_are_plain_python_views():
    rot, f = golden(), pm_one()
    joint = joint_zero_returns(rot, f, Fraction(1, 10), 10**4, Fraction(1, 100))
    assert joint.times.dtype == np.int64 and joint.distance.dtype == np.float64
    rows = list(joint)
    assert rows == joint and len(rows) == len(joint) > 0
    for rec in (joint[0], joint[-1], *rows):
        assert type(rec.time) is int and type(rec.distance) is float and rec.value == 0
    assert joint[-1] == rows[-1] and f"{joint[0].distance:.3e}"
    head = joint[:3]
    assert isinstance(head, Returns) and list(head) == rows[:3] and head == rows[:3]
    assert list(joint[1::2]) == rows[1::2] and list(joint[len(joint):]) == []
    empty = find_zero_sums(rot, StepCocycle([0, HALF], [1, -1]), Fraction(1, 10), 1)
    assert not empty and empty == [] and list(empty) == []


def test_joint_min_distance_shrinks_with_horizon():
    rot, f = golden(), pm_one()
    x = Fraction(1, 10)
    eps = Fraction(1, 5)
    d1 = min(r.distance for r in joint_zero_returns(rot, f, x, 10**3, eps))
    d2 = min(r.distance for r in joint_zero_returns(rot, f, x, 10**4, eps))
    assert d2 <= d1


def test_a_return_with_a_wider_radius_does_not_close_the_lap():
    """Back on its start's mantissa is not back at the start.

    Lengths ``(a, 1 - 2a, a)`` with 1-ulp radii, reversed: the first and last
    intervals trade places by ``±(1 - a)``, so the walk from 20 ulps below
    the wall at ``a`` is back on its mantissa every 2 steps, 4 ulps wider
    each time.  The radius reaches that wall at step 10, where the exchange
    refuses; no scan may take the first two steps for a lap.  The start is
    the first sample of seed 2, so the excess estimate meets it too.
    """
    seed, samples = 2, 100
    raw = np.random.default_rng(seed).integers(0, 1 << 64, size=samples, dtype=np.uint64)[0]
    x = FixedReal(int(raw) << 128)
    a = x.mantissa + 20
    lengths = [FixedReal(a, 1), FixedReal(ONE - 2 * a, 1), FixedReal(a, 1)]
    iet = IntervalExchange(lengths, (3, 2, 1))
    f, eps = pm_one(), Fraction(1, 10)
    assert [p.mantissa == x.mantissa for p in walk_points(iet, x, 4)] == [False, True] * 2
    refused = (PrecisionExhaustedError, None)
    assert scan_outcome(find_zero_sums, iet, f, x, 100) == refused
    assert scan_outcome(lambda: reference_zero_times(iet, f, x, 100)) == refused
    assert scan_outcome(near_list, iet, x, 100, eps) == refused
    assert scan_outcome(reference_near_times, iet, x, 100, eps) == refused
    assert scan_outcome(joint_zero_returns, iet, f, x, 100, eps) == refused
    assert scan_outcome(reference_joint_rows, iet, f, x, 100, eps) == refused
    excess = (iet, f, [30], Fraction(1, 20), samples, seed)
    assert scan_outcome(sublinearity_estimate, *excess) == refused
    assert scan_outcome(reference_excess, *excess) == refused


# --------------------------------------------------------------------------- #
# integer laps and eps tests
# --------------------------------------------------------------------------- #


@settings(max_examples=25, deadline=None)
@given(
    q=st.integers(min_value=1, max_value=10**4),
    p=st.integers(min_value=0, max_value=10**4),
    wall=st.one_of(st.integers(1, 8), st.integers(1, ONE // 2 - 1)),
    on_wall=st.one_of(st.none(), st.integers(0, 3)),
    start=st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**6)),
)
@example(q=9973, p=4986, wall=3, on_wall=2, start=Fraction(0))
@example(q=10**4, p=5001, wall=1, on_wall=None, start=Fraction(999_999, 1_000_000))
def test_integer_rational_laps_match_fraction_stepping(q, p, wall, on_wall, start):
    """Prefix sums over one period equal a ``Fraction`` walk of the orbit.

    The walls ``{0, w, 1/2, 1/2 + w}`` carry ``(1, -1, -1, 1)``, zero mean for
    any ``w``; a ``w`` of a few ulps puts two pairs of walls a few ulps apart.
    Starts lie on a wall or at a rational with a large denominator.
    """
    alpha = Fraction(p % q, q)
    walls = [Fraction(m, ONE) for m in (0, wall, ONE // 2, ONE // 2 + wall)]
    f = StepCocycle(walls, [1, -1, -1, 1])
    x0 = start if on_wall is None else walls[on_wall]
    want, total = [0], 0
    for point in rotation_orbit(alpha.numerator, alpha.denominator, x0, alpha.denominator):
        total += step_value(point, walls, f.values)
        want.append(total)
    lap = cocycles.rational_walk(alpha, f, x0, alpha.denominator)
    assert [0, *[total for total, _ in lap]] == want


EPS_CASES = {
    "hi-on-eps": lambda k, e: FixedReal(k - e, e),
    "lo-on-eps": lambda k, e: FixedReal(k + e, e),
    "hi-below-eps": lambda k, e: FixedReal(k - e - 1, e),
    "lo-below-eps": lambda k, e: FixedReal(k + e - 1, e),
    "exact-on-eps": lambda k, e: FixedReal(k, 0),
    "exact-below-eps": lambda k, e: FixedReal(k - 1, 0),
}


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1 << 100, ONE - 1),
    err=st.one_of(st.integers(0, 4), st.integers(0, 1 << 99)),
    case=st.sampled_from(sorted(EPS_CASES)),
    den=st.one_of(st.just(ONE), st.integers(1, 10**12)),
)
def test_integer_eps_test_matches_the_fraction_interval(k, err, case, den):
    """The integer bound decides exactly as the ``interval()`` bounds do.

    ``den = 2**192`` puts eps on the grid, so the interval's ends meet it
    exactly; other denominators put it between grid points.  No circle
    distance exceeds 1/2, so a straddle is near when eps > 1/2.
    """
    value = EPS_CASES[case](k, err)
    eps = Fraction(k, ONE) if den == ONE else Fraction(k * den // ONE + 1, den)
    lo, hi = value.interval()
    want = True if hi < eps else False if lo >= eps else True if eps > HALF else None
    assert _near_side(value, _eps_bound(eps)) == want


# --------------------------------------------------------------------------- #
# target sets
# --------------------------------------------------------------------------- #


def test_target_set_membership_and_measure():
    target = TargetSet([(0, Fraction(1, 4)), (HALF, Fraction(3, 4))])
    assert target.measure() == HALF
    assert target.contains(FixedReal.of(Fraction(1, 8)))
    assert target.contains(FixedReal.of(HALF))  # half-open: left endpoint in
    assert not target.contains(FixedReal.of(Fraction(1, 4)))  # right endpoint out
    assert not target.contains(FixedReal.of(Fraction(9, 10)))


def test_target_set_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        TargetSet([(0, HALF), (Fraction(1, 4), Fraction(3, 4))])


def test_target_membership_ambiguity_raises():
    target = TargetSet([(0, HALF)])
    fuzzy = FixedReal(ONE // 2, 1 << 90)
    with pytest.raises(PrecisionExhaustedError):
        target.contains(fuzzy)


def test_target_band_restricts_height():
    target = TargetSet([(0, HALF)], band=(Fraction(1, 4), HALF))
    inside = SpecialFlowState(Fraction(1, 10), Fraction(3, 10))
    below = SpecialFlowState(Fraction(1, 10), Fraction(1, 10))
    assert target.contains_state(inside)
    assert not target.contains_state(below)


THIRD = Fraction(1, 3)
TINY = Fraction(1, 10**70)  # far below one ulp of the 2**-192 grid
C_THIRD = math.ceil(Fraction(ONE, 3))

# targets whose seam lies inside A, outside A, or on a boundary of A
NAMED_TARGETS = [
    [(0, Fraction(1, 4)), (Fraction(3, 4), 1)],
    [(Fraction(1, 4), HALF)],
    [(0, THIRD)],
    [(Fraction(3, 7), 1)],
    [(Fraction(1, 10), Fraction(3, 7)), (HALF, Fraction(9, 10))],
    [(0, THIRD), (THIRD, Fraction(3, 7))],  # touching halves join
    [(0, 1)],
]
ENDPOINTS = sorted(
    {Fraction(k, d) for d in (2, 3, 4, 7, 10) for k in range(d + 1)}
    | {TINY, THIRD + TINY, 1 - TINY}
)


@st.composite
def target_intervals(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(NAMED_TARGETS))
    cuts = draw(
        st.lists(st.sampled_from(ENDPOINTS), min_size=2, max_size=6, unique=True)
    )
    cuts.sort()
    return [(cuts[i], cuts[i + 1]) for i in range(0, len(cuts) - 1, 2)]


def membership(target, p):
    try:
        return target.contains(p)
    except PrecisionExhaustedError:
        return "ambiguous"


@settings(max_examples=400, deadline=None)
@given(
    intervals=target_intervals(),
    data=st.data(),
    offset=st.integers(min_value=-4, max_value=4),
    err=st.integers(min_value=0, max_value=5),
)
def test_target_contains_matches_arc_oracle(intervals, data, offset, err):
    """Guarded membership decides exactly like the Fraction arc oracle.

    Points sit within 4 ulps of every endpoint and of the seam, where the
    grid walls ``ceil(r * 2**192)`` and the seam rule do all the work.
    """
    target = TargetSet(intervals)
    anchors = [0, ONE]
    for pair in intervals:
        for r in pair:
            anchors += [math.floor(r * ONE), math.ceil(r * ONE)]
    m = data.draw(st.sampled_from(anchors)) + offset
    expected = target_arc_membership(
        intervals, Fraction(m - err, ONE), Fraction(m + err, ONE)
    )
    assert membership(target, FixedReal(m, err)) == expected


@given(
    m=st.integers(min_value=-ONE, max_value=2 * ONE),
    err=st.integers(min_value=0, max_value=1 << 96),
)
def test_whole_target_contains_every_arc(m, err):
    assert TargetSet.whole().contains(FixedReal(m, err))


@pytest.mark.parametrize(
    "intervals, decisions",
    [
        (
            [(0, THIRD), (THIRD + TINY, 1)],
            [((C_THIRD - 1, 0), True), ((C_THIRD - 1, 2), "ambiguous"),
             ((C_THIRD + 5, 0), True), ((C_THIRD + 5, 2), True), ((0, 3), True)],
        ),
        (
            [(THIRD, THIRD + TINY)],
            [((C_THIRD - 1, 2), "ambiguous"), ((C_THIRD - 1, 0), False),
             ((C_THIRD + 5, 0), False), ((C_THIRD + 5, 2), False), ((0, 3), False)],
        ),
        (
            [(HALF, 1 - TINY)],
            [((ONE - 1, 0), True), ((ONE - 1, 2), "ambiguous"), ((0, 3), "ambiguous")],
        ),
    ],
    ids=["sub-ulp-gap", "sub-ulp-interval", "sub-ulp-below-seam"],
)
def test_sub_ulp_targets_keep_their_decisions(intervals, decisions):
    """Endpoints closer than one ulp share a grid wall, which must still guard."""
    target = TargetSet(intervals)
    for (m, err), expected in decisions:
        assert membership(target, FixedReal(m, err)) == expected, (m, err)


# --------------------------------------------------------------------------- #
# flow detectors
# --------------------------------------------------------------------------- #


def halves_flow(angle: AngleSpec):
    base = CircleRotation(angle)
    roof = Roof([0, HALF], [1, 1], base)
    return roof, PhaseFunction.from_base_values(roof, [1, -1])


def test_flow_set_returns_period_two():
    roof, f = halves_flow(AngleSpec.rational(1, 2))
    target = TargetSet([(0, HALF)])
    with pytest.warns(RationalAngleWarning):
        records = flow_zero_set_returns(roof, f, SpecialFlowState(0), 6, target)
    assert [r.time for r in records] == [2, 4, 6]
    assert all(r.in_set for r in records)


def test_flow_set_returns_whole_space_is_plain_zero_set():
    roof, f = halves_flow(AngleSpec.rational(1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        whole = flow_zero_set_returns(roof, f, SpecialFlowState(0), 6, TargetSet.whole())
        half = flow_zero_set_returns(roof, f, SpecialFlowState(0), 6, TargetSet([(0, HALF)]))
    assert [r.time for r in whole] == [r.time for r in half] == [2, 4, 6]


def test_flow_set_returns_misses_shifted_target():
    roof, f = halves_flow(AngleSpec.rational(1, 2))
    target = TargetSet([(Fraction(1, 4), HALF)])
    with pytest.warns(RationalAngleWarning):
        records = flow_zero_set_returns(roof, f, SpecialFlowState(0), 6, target)
    assert records == []


def test_flow_start_with_zero_value_is_rejected():
    base = CircleRotation(AngleSpec.rational(1, 2))
    roof = Roof([0, HALF], [1, 1], base)
    f = PhaseFunction(roof, [[(HALF, 0), (HALF, 2)], [(1, -1)]])
    start = SpecialFlowState(0)  # sits in the zero-valued band
    with pytest.warns(RationalAngleWarning):
        with pytest.raises(ZeroValueStartError):
            flow_zero_set_returns(roof, f, start, 6, TargetSet.whole())
        records = flow_zero_set_returns(
            roof, f, start, 6, TargetSet.whole(), allow_zero_value=True
        )
    assert all(r.value == 0 for r in records)


def test_flow_near_returns_special_flow_exact():
    roof, f = halves_flow(AngleSpec.rational(1, 2))
    with pytest.warns(RationalAngleWarning):
        records = flow_zero_near_returns(
            roof, f, SpecialFlowState(0), 6, Fraction(1, 10**9)
        )
    assert [(r.time, r.distance) for r in records] == [(2, 0), (4, 0), (6, 0)]


def test_flow_near_returns_zero_function_reports_node_grid():
    roof, _ = halves_flow(AngleSpec.rational(1, 2))
    f = PhaseFunction.from_base_values(roof, [0, 0])
    with pytest.warns(RationalAngleWarning):
        records = flow_zero_near_returns(
            roof, f, SpecialFlowState(0), 3, 1, allow_zero_value=True
        )
    assert [r.time for r in records] == [1, 2, 3]


def test_flow_detectors_apply_the_base_once_per_crossing(monkeypatch):
    """One pass, no re-stepping: an exchange roof applies its base once per crossing.

    A rotation roof applies it at no crossing: one certified kernel pass
    places them all, and only a zero on the roof at the horizon applies the
    base once, for its glued state.  Roof height 1 from height 0 makes one
    crossing per unit of time.
    """
    calls, scans = [], []
    for base in (CircleRotation, IntervalExchange):
        monkeypatch.setattr(
            base, "apply", lambda self, p, apply=base.apply: calls.append(p) or apply(self, p)
        )
    certified = cocycles.certified_cells
    monkeypatch.setattr(
        cocycles, "certified_cells", lambda *args: scans.append(args) or certified(*args)
    )
    exchange_roof = Roof([0, HALF], [1, 1], IntervalExchange(*DYADIC_IET))
    exchange_f = PhaseFunction.from_base_values(exchange_roof, [1, -1])
    golden_roof, golden_f = halves_flow(AngleSpec.preset("golden"))
    half_roof, half_f = halves_flow(AngleSpec.rational(1, 2))
    cases = [  # (applies, kernel passes) per scan
        (exchange_roof, exchange_f, SpecialFlowState(Fraction(1, 10)), Fraction(801, 2), 400, 0),
        (golden_roof, golden_f, SpecialFlowState(Fraction(1, 10)), Fraction(801, 2), 0, 1),
        (half_roof, half_f, SpecialFlowState(0), 6, 1, 1),  # zeros 2, 4, 6 on the roof
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        for roof, f, start, t_max, applies, passes in cases:
            calls.clear(), scans.clear()
            found = flow_zero_set_returns(roof, f, start, t_max, TargetSet.whole())
            assert (len(calls), len(scans)) == (applies, passes) and len(found) > 2
            calls.clear(), scans.clear()
            near = flow_zero_near_returns(roof, f, start, t_max, 1)
            assert (len(calls), len(scans)) == (applies, passes) and near.times == found.times


def test_flow_near_returns_refuse_an_eps_inside_the_error_interval():
    """eps equal to a reported distance lies inside that distance's error interval."""
    roof, f = halves_flow(AngleSpec.preset("golden"))
    start = SpecialFlowState(Fraction(1, 10))
    rows = flow_zero_near_returns(roof, f, start, 2000, Fraction(1, 20))
    # at integer times the orbit sits on the floor, so the base distance is the distance
    row = next(r for r in rows if r.time.denominator == 1)
    with pytest.raises(PrecisionExhaustedError) as refused:
        flow_zero_near_returns(roof, f, start, 2000, row.distance)
    assert refused.value.step == row.time  # roof crossing k starts at time k
    above = flow_zero_near_returns(roof, f, start, 2000, row.distance + Fraction(1, 2**150))
    below = flow_zero_near_returns(roof, f, start, 2000, row.distance - Fraction(1, 2**150))
    assert row.time in above.times and row.time not in below.times


@pytest.mark.parametrize("wide", [False, True], ids=["on-a-wall", "past-the-margin"])
def test_a_flow_refusal_names_its_roof_crossing(wide):
    """Crossing 37 of a golden flow lands on the roof wall 1/2, inside its 37-ulp radius.

    From height 0 under roof height 1, crossing ``k`` starts at time ``k``.
    The kernel's scan (both detectors) and the walk (the profile) refuse at
    crossing 37 once the horizon passes time 37.  The kernel scans a fixed
    number of crossings, but a refusal past the horizon does not surface:
    at horizon 73/2 the scans answer as the reference does.  A start
    ``MAX_ERR_ULPS - 36`` ulps wide, far from the walls, passes the safety
    margin of :meth:`Walls.locate` at crossing 37 instead.
    """
    rotation = golden()
    roof = Roof([0, HALF], [1, 1], rotation)
    f = PhaseFunction.from_base_values(roof, [1, -1])
    a_m = rotation.alpha.resolved.mantissa
    start = SpecialFlowState(
        FixedReal((ONE // 2 - 37 * a_m) % ONE) if not wide
        else FixedReal((3 * ONE // 4 - 37 * a_m) % ONE, MAX_ERR_ULPS - 36)
    )
    scans = [
        lambda t: flow_zero_set_returns(roof, f, start, t, TargetSet.whole()),
        lambda t: flow_zero_near_returns(roof, f, start, t, 1),
        lambda t: cocycles.integral_profile(roof, f, start, t),
    ]
    for scan in scans:
        with pytest.raises(PrecisionExhaustedError, match="margin" if wide else "wall") as refused:
            scan(Fraction(75, 2))
        assert refused.value.step == 37
    early = Fraction(73, 2)
    assert flow_rows(flow_zero_set_returns(roof, f, start, early, TargetSet.whole()), "in_set") == (
        reference_flow_set_rows(roof, f, start, early, TargetSet.whole())
    )


def test_an_exchange_flow_refusal_names_its_roof_crossing():
    """Over an interval exchange the walk tags the crossing too.

    The start, one ulp wide, is the exchange's preimage of the roof wall
    1/2, so crossing 1 cannot be placed.
    """
    roof = Roof([0, HALF], [1, 1], IntervalExchange(*DYADIC_IET))
    f = PhaseFunction.from_base_values(roof, [1, -1])
    start = SpecialFlowState(FixedReal(roof.base.inverse_apply(FixedReal(ONE // 2)).mantissa, 1))
    for scan in (
        lambda: flow_zero_set_returns(roof, f, start, Fraction(3, 2), TargetSet.whole()),
        lambda: cocycles.integral_profile(roof, f, start, Fraction(3, 2)),
    ):
        with pytest.raises(PrecisionExhaustedError, match="wall") as refused:
            scan()
        assert refused.value.step == 1
    assert cocycles.integral_profile(roof, f, start, HALF).nodes[-1] == (HALF, -HALF)


def test_a_flow_membership_refusal_names_its_roof_crossing():
    """A target ending at a zero's base point, one ulp from the 1-ulp start, cannot decide it."""
    roof, f = halves_flow(AngleSpec.preset("golden"))
    start = SpecialFlowState(Fraction(1, 10))
    zeros = flow_zero_set_returns(roof, f, start, 50, TargetSet.whole())
    k = int(next(t for t in zeros.times if t.denominator == 1))  # on the floor of crossing k
    point = (start.a.mantissa + k * roof.base.alpha.resolved.mantissa) % ONE
    with pytest.raises(PrecisionExhaustedError, match="ambiguous") as refused:
        flow_zero_set_returns(roof, f, start, 50, TargetSet([(0, Fraction(point, ONE))]))
    assert refused.value.step == k


def test_flow_zero_on_the_roof_at_the_horizon_is_located_after_gluing():
    """The glued state reported at the horizon has its cell decided, or the scan refuses.

    Three thirds of a turn bring the start 0 back within 3 ulps of the wall
    at 0, which the 1-ulp angle 1/3 cannot decide.
    """
    roof = Roof([0], [1], CircleRotation(AngleSpec.rational(1, 3)))
    f = PhaseFunction(roof, [[(HALF, 1), (HALF, -1)]])  # integral 0 on every visit
    start = SpecialFlowState(0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        found = flow_zero_set_returns(roof, f, start, Fraction(5, 2), TargetSet.whole())
        assert found.times == [1, 2]
        with pytest.raises(PrecisionExhaustedError):
            flow_zero_set_returns(roof, f, start, 3, TargetSet.whole())
        with pytest.raises(PrecisionExhaustedError):
            flow_zero_near_returns(roof, f, start, 3, 1)


def test_flow_eps_above_half_tests_the_height_alone():
    """No circle distance exceeds 1/2, so an eps above 1/2 never meets the base radius.

    Over the rotation by 1/2 the 1-ulp start 1/10 comes back at distance
    1/2 at odd times, known to within 2 ulps; an eps just above 1/2 then
    takes every zero, as eps 1 and the oracle, capped at 1/2, do.
    """
    roof = Roof([0, Fraction(1, 4), HALF, Fraction(3, 4)], [1] * 4,
                CircleRotation(AngleSpec.rational(1, 2)))
    f = PhaseFunction.from_base_values(roof, [0, 1, 0, -1])
    start = SpecialFlowState(FixedReal(ONE // 10, 1), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        wide = flow_zero_near_returns(roof, f, start, 4, 1, allow_zero_value=True)
        just = flow_zero_near_returns(roof, f, start, 4, HALF + TINY, allow_zero_value=True)
        want = reference_flow_near_rows(roof, f, start, 4, HALF + TINY)
    assert wide.times == [1, 2, 3, 4]
    assert flow_rows(just, "distance") == flow_rows(wide, "distance") == want


FLOW_ANGLES = ["golden", "sqrt2", (1, 2), (1, 3), (2, 5)]
BAND_CUTS = [Fraction(1, 3), Fraction(2, 5), HALF, Fraction(5, 7), Fraction(3, 4)]
BAND_VALUES = [0, 1, -1, 2, -3, Fraction(1, 3), Fraction(-5, 2), Fraction(7, 6)]
FLOW_STARTS = [Fraction(k, 64) for k in range(64)] + [Fraction(k, 99) for k in range(1, 99, 7)]
TARGET_CUTS = [Fraction(0), Fraction(1, 5), THIRD, HALF, Fraction(3, 4), Fraction(1)]


def roof_times(roof, start, t_max):
    """The times up to ``t_max`` at which the reference walk meets the roof."""
    times, a, t = [], start.a, roof.height_at(start.a) - start.b
    try:
        while t <= t_max:
            times.append(t)
            a = roof.base.apply(a)
            t += roof.height_at(a)
    except PrecisionExhaustedError:
        pass
    return times


@st.composite
def flow_cases(draw):
    """A dyadic roof with non-dyadic band tops, a start under it, a horizon, a budget.

    The start is rational, or a ``FixedReal`` a few ulps from a roof wall at
    a seeded crossing, exact or one ulp wide, so the scans meet that wall
    at the crossing's radius: before, at or past the horizon.  The horizon
    is free, or lands on a node (a band top or the roof), on a zero of the
    reference profile or on the roof.
    """
    angle = draw(st.sampled_from(FLOW_ANGLES))
    angle = AngleSpec.preset(angle) if isinstance(angle, str) else AngleSpec.rational(*angle)
    inner = draw(st.sets(st.integers(1, 7), max_size=2))
    walls = [Fraction(0)] + [Fraction(k, 8) for k in sorted(inner)]
    heights = [Fraction(draw(st.integers(1, 12)), 4) for _ in walls]
    roof = Roof(walls, heights, CircleRotation(angle))
    bands = []
    for h in heights:
        tops = [h * c for c in sorted(draw(st.sets(st.sampled_from(BAND_CUTS), max_size=2)))]
        tops.append(h)
        lows = [Fraction(0)] + tops[:-1]
        bands.append([[top - lo, draw(st.sampled_from(BAND_VALUES))] for lo, top in zip(lows, tops)])
    # the last band's value makes the mean vanish
    widths = roof.walls.widths()
    last = bands[-1][-1]
    last[1] = 0
    mean = sum(w * h * v for w, cell in zip(widths, bands) for h, v in cell)
    last[1] = -mean / (widths[-1] * last[0])
    f = PhaseFunction(roof, bands)
    x = SpecialFlowState(draw(st.sampled_from(FLOW_STARTS))).a
    if draw(st.booleans()):
        crossing, wall = draw(st.integers(1, 60)), draw(st.sampled_from(roof.walls.mantissas))
        shift = draw(st.integers(-3, 3)) - crossing * angle.resolved.mantissa
        x = FixedReal((wall + shift) % ONE, draw(st.integers(0, 1)))
    try:
        height = heights[roof.cell_of(x)]
    except PrecisionExhaustedError:  # the scans refuse this start, as the reference does
        height = min(heights)
    start = SpecialFlowState(x, height * Fraction(draw(st.integers(0, 5)), 6))
    t_max = Fraction(draw(st.integers(1, 120)), draw(st.sampled_from([1, 2, 3, 7, 10])))
    landing = draw(st.sampled_from(["free", "node", "zero", "roof"]))
    if landing != "free":
        try:
            nodes = reference_profile_nodes(roof, f, start, t_max)
        except PrecisionExhaustedError:
            nodes = [(0, 0)]
        times = {
            "node": lambda: [t for t, _ in nodes[1:]],
            "zero": lambda: IntegralProfile(nodes).zeros(),
            "roof": lambda: roof_times(roof, start, t_max) if len(nodes) > 1 else [],
        }[landing]()
        if times:
            t_max = draw(st.sampled_from(times))
    cuts = sorted(draw(st.sets(st.sampled_from(TARGET_CUTS), min_size=2, max_size=4)))
    band = draw(st.sampled_from([None, (0, HALF), (THIRD, 2)]))
    target = TargetSet(list(zip(cuts[::2], cuts[1::2])), band=band)
    eps = draw(st.sampled_from([Fraction(1, 50), Fraction(1, 10), THIRD, Fraction(1)]))
    return roof, f, start, t_max, target, eps


def outcome(run):
    """The result of ``run()``, or the type of the exception it raised."""
    try:
        return run()
    except Exception as exc:
        return type(exc)


def flow_rows(returns: Returns, column: str) -> list[tuple]:
    assert all(type(t) is Fraction for t in returns.times)
    return [(r.time, r.value, getattr(r, column)) for r in returns]


@settings(max_examples=300, deadline=None)
@given(case=flow_cases())
def test_one_flow_walk_matches_the_two_walk_reference(case):
    """Profile nodes and detector rows equal the Fraction walk plus re-stepping, refusals included."""
    roof, f, start, t_max, target, eps = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        nodes = outcome(lambda: cocycles.integral_profile(roof, f, start, t_max).nodes)
        in_set = outcome(lambda: flow_rows(flow_zero_set_returns(
            roof, f, start, t_max, target, True), "in_set"))
        near = outcome(lambda: flow_rows(flow_zero_near_returns(
            roof, f, start, t_max, eps, True), "distance"))
    assert nodes == outcome(lambda: reference_profile_nodes(roof, f, start, t_max))
    assert in_set == outcome(lambda: reference_flow_set_rows(roof, f, start, t_max, target))
    assert near == outcome(lambda: reference_flow_near_rows(roof, f, start, t_max, eps))


def test_a_flow_scan_across_kernel_blocks_matches_the_walk():
    """About 70,000 roof crossings take two blocks of the kernel; the zeros are the walk's.

    Heights 1/2 and 3/2 under a phase of two bands per cell: the rotation
    engine's prefix sums carry time and integral across the block boundary
    at crossing ``2**16``, and every zero equals one of the profile that
    :func:`~ergolab.cocycles.integral_profile` walks crossing by crossing.
    """
    roof = Roof([0, HALF], [HALF, Fraction(3, 2)], golden())
    f = PhaseFunction(roof, [[(Fraction(1, 4), 2), (Fraction(1, 4), 4)],
                             [(HALF, -2), (1, Fraction(-1, 2))]])
    start, t_max = SpecialFlowState(Fraction(1, 10), Fraction(1, 8)), Fraction(140_001, 2)
    zeros = cocycles.integral_profile(roof, f, start, t_max).zeros()
    found = flow_zero_set_returns(roof, f, start, t_max, TargetSet.whole())
    near = flow_zero_near_returns(roof, f, start, t_max, 1)
    assert found.times == near.times == zeros
    assert len(zeros) > 1000 and zeros[-1] > 2**16


def test_winding_near_returns_unit_eps_gives_half_grid():
    w = TorusWinding(AngleSpec.preset("sqrt2"))
    records = flow_zero_near_returns(w, TrigPolynomial.cos_x(), TorusPoint(0, 0), 3, 1)
    assert len(records) == 6
    for rec, want in zip(records, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]):
        assert abs(rec.time - want) < 1e-9
        assert abs(rec.value) < 1e-9


def test_winding_near_returns_small_eps_filters_by_both_coordinates():
    w = TorusWinding(AngleSpec.preset("sqrt2"))
    records = flow_zero_near_returns(w, TrigPolynomial.cos_x(), TorusPoint(0, 0), 3, 0.05)
    assert records == []  # at T=3 no half-integer time has {t*sqrt(2)} near 0
    longer = flow_zero_near_returns(w, TrigPolynomial.cos_x(), TorusPoint(0, 0), 30, 0.05)
    assert [round(r.time) for r in longer] == [12, 17, 29]
    for rec in longer:
        assert rec.distance < 0.05


@st.composite
def winding_near_cases(draw):
    """A surd or rational slope, 1-3 non-resonant modes, a dyadic start, a horizon and an eps."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a rational slope warns
        if draw(st.booleans()):
            slope = AngleSpec.rational(draw(st.integers(-12, 12)), draw(st.integers(1, 12)))
        else:
            slope = AngleSpec.quadratic(draw(st.integers(-9, 9)), draw(st.sampled_from([-2, -1, 1, 2])),
                                        draw(st.sampled_from([2, 3, 5, 7, 11])), draw(st.integers(1, 6)))
        w = TorusWinding(slope)
    amplitude = st.sampled_from([0.25, -0.5, 1.0, 1.75])
    pairs = st.sampled_from([(j, k) for j in range(-2, 3) for k in range(-2, 3) if (j, k) != (0, 0)])
    terms = draw(st.lists(st.tuples(pairs, amplitude, amplitude), min_size=1, max_size=3))
    f = TrigPolynomial([(j, k, c, s) for (j, k), c, s in terms])
    assume(all(abs(j + k * w.slope) >= 1e-9 for j, k, _, _ in f.terms))
    start = TorusPoint(Fraction(draw(st.integers(0, 63)), 64), Fraction(draw(st.integers(0, 63)), 64))
    eps = draw(st.one_of(st.sampled_from([1e-3, 0.05, 0.2, 0.5, 0.75]), st.floats(1e-4, 0.6)))
    return w, f, start, draw(st.floats(0.5, 60.0)), eps


def winding_rows(w, f, start, t_max, eps) -> list[tuple[float, float, float]]:
    found = flow_zero_near_returns(w, f, start, t_max, eps, allow_zero_value=True)
    return [(r.time, r.value, r.distance) for r in found]


@settings(max_examples=60, deadline=None)
@given(case=winding_near_cases())
@example(case=(TorusWinding(AngleSpec.preset("sqrt2")), TrigPolynomial.cos_x(), TorusPoint(0, 0), 30.0, 0.05))
def test_winding_near_rows_match_the_per_zero_exact_test(case):
    """The float distance screen drops only zeros that the exact 192-bit test drops.

    Times, residuals and distances equal those of the per-zero reference,
    which flows every zero on the grid and tests the float of its guarded
    distance; the example is ``theorem-b-winding``.
    """
    w, f, start, t_max, eps = case
    assert winding_rows(w, f, start, t_max, eps) == reference_winding_near_rows(w, f, start, t_max, eps)


def test_winding_near_eps_at_a_zeros_own_distance():
    """eps equal to a zero's float distance leaves that zero out, and one ulp above keeps it."""
    w, f, start = TorusWinding(AngleSpec.preset("sqrt2")), TrigPolynomial.cos_x(), TorusPoint(0, 0)
    every = reference_winding_near_rows(w, f, start, 30.0, 1.0)
    t, _, d = next(row for row in every if round(row[0]) == 17)
    at, above = winding_rows(w, f, start, 30.0, d), winding_rows(w, f, start, 30.0, math.nextafter(d, 1.0))
    assert at == reference_winding_near_rows(w, f, start, 30.0, d)
    assert above == reference_winding_near_rows(w, f, start, 30.0, math.nextafter(d, 1.0))
    assert t not in [row[0] for row in at] and t in [row[0] for row in above]


def test_winding_near_refusal_is_the_first_zeros():
    """Zeros whose flows refuse take the exact test in order, so the earliest refusal surfaces.

    With the slope ``10**-20``, ``gamma t`` lies about 0.28 from an integer
    at both ``t = 2**97`` and ``t = 2**100``, but the screen's bound grows
    with ``t`` past every distance, so neither zero is skipped.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a rational slope warns
        w = TorusWinding(AngleSpec.rational(1, 10**20))
    start = TorusPoint(0, 0)
    with pytest.raises(PrecisionExhaustedError) as first:
        w.flow(start, 2.0**97)
    with pytest.raises(PrecisionExhaustedError) as refused:
        recurrence._winding_near(w, start, [0.5, 2.0**97, 2.0**100], 0.1)
    assert str(refused.value) == str(first.value)


# --------------------------------------------------------------------------- #
# sublinearity estimator
# --------------------------------------------------------------------------- #


def test_excess_probability_zero_cocycle():
    f = StepCocycle([0, HALF], [0, 0])
    got = sublinearity_estimate(golden(), f, [10, 100], Fraction(1, 20), samples=200, seed=1)
    assert got == [(10, 0.0), (100, 0.0)]


def test_excess_probability_golden_vanishes():
    """Golden-rotation sums stay logarithmically small: no sample exceeds eps*n."""
    got = sublinearity_estimate(
        golden(), pm_one(), [100, 1000], Fraction(1, 20), samples=10**4, seed=7
    )
    assert got == [(100, 0.0), (1000, 0.0)]


def test_excess_probability_periodic_control_is_one():
    """Period-3 orbits have mean +-1/3 or +-1, so |S_n| grows like n/3:
    at eps=1/20 every start exceeds the threshold."""
    with pytest.warns(RationalAngleWarning):
        got = sublinearity_estimate(
            CircleRotation(AngleSpec.rational(1, 3)),
            pm_one(),
            [1000],
            Fraction(1, 20),
            samples=2000,
            seed=7,
        )
    assert got == [(1000, 1.0)]
    assert excess_fraction_exact(1, 3, PM_WALLS, PM_VALUES, 1000, Fraction(1, 20)) == 1


def test_excess_probability_periodic_control_at_matched_eps():
    """At eps=1/3 exactly the orbit classes split 2:1 (the exact excess is 2/3)."""
    exact = excess_fraction_exact(1, 3, PM_WALLS, PM_VALUES, 100, Fraction(1, 3))
    assert exact == Fraction(2, 3)
    with pytest.warns(RationalAngleWarning):
        got = sublinearity_estimate(
            CircleRotation(AngleSpec.rational(1, 3)),
            pm_one(),
            [100],
            Fraction(1, 3),
            samples=10**4,
            seed=7,
        )
    assert abs(got[0][1] - 2 / 3) < 0.05


@pytest.mark.parametrize("angle", ["golden", "sqrt2"])
def test_excess_probability_is_exact_at_a_wall_inside_the_64_bit_word(angle):
    """A wall a few ulps below an orbit point is decided exactly where it clears the radius.

    The cocycle on walls ``{0, w, 1/2, 1/2 + w}`` with values ``(1, -1, -1, 1)``
    has zero mean for every ``w``.  One of ``w`` and ``1/2 + w`` sits ``gap``
    ulps below the first seeded sample's orbit point at step 5, whose radius
    is 5 ulps.  At a gap of 2**60 ulps the two share their top 64 bits, so a
    scan on 64-bit words alone puts the point on the wrong side; at 6 and 5
    ulps the wall lies just outside the radius.  Each estimate must equal
    the guarded per-sample reference.  At 3 ulps the wall lies inside the
    radius, and the estimate refuses at step 5 as the certified cell kernel
    does.
    """
    rot = CircleRotation(AngleSpec.preset(angle))
    samples, seed, n_list, eps = 100, 0, list(range(6, 31)), Fraction(1, 1000)
    xs = np.random.default_rng(seed).integers(0, 1 << 64, size=samples, dtype=np.uint64).tolist()
    point = ((xs[0] << 128) + 5 * rot.alpha.resolved.mantissa) % ONE
    assert 5 * rot.alpha.resolved.err_ulps == 5
    assert (point - (1 << 60)) >> 128 == point >> 128
    for gap in (1 << 60, 6, 5, 3):
        w = (point - gap) % (ONE // 2)
        f = StepCocycle([FixedReal(m) for m in (0, w, ONE // 2, ONE // 2 + w)], [1, -1, -1, 1])
        args = (rot, f, n_list, eps)
        if gap >= 5:
            got = sublinearity_estimate(*args, samples=samples, seed=seed)
            assert got == reference_excess(*args, samples, seed)
            continue
        with pytest.raises(PrecisionExhaustedError) as refused:
            sublinearity_estimate(*args, samples=samples, seed=seed)
        with pytest.raises(PrecisionExhaustedError) as kernel:
            kernel_excess(*args, xs)
        assert refused.value.step == kernel.value.step == 5
        assert str(refused.value) == str(kernel.value)


# the near-scan angles, two that resolve within an ulp of 0 and of 1/2, and
# sqrt(4**188 + 1) mod 1 ~ 2**-189, 8 ulps: its jump points -j alpha crowd
# below 1, so a start just past a wall meets them across the seam
SWEEP_ANGLES = [
    *NEAR_ANGLES,
    AngleSpec.quadratic(0, 1, 10**120 + 1, 1),
    AngleSpec.quadratic(1, 2, 10**120 + 1, 2),
    AngleSpec.quadratic(0, 1, 4**188 + 1, 1),
]
# one step, a repeated n, an unsorted list, and either side of a 2**16-step block
SWEEP_N_LISTS = [[1], [9, 9], [30, 1, 12], [2**16 - 1, 2**16, 2**16 + 1]]
# the raw 64-bit starts of 0, 1/4 and 1/2
CRAFTED_STARTS = [0, 1 << 62, 1 << 63]


def cocycle_with_wall(cells: int, wall: int, p: int = 1, q: int = -1) -> StepCocycle:
    """A zero-mean cocycle of 3 or 4 cells with a wall at the mantissa ``wall``.

    3 cells: walls ``{0, w, 1 - w}``, values ``(p, 0, -p)``; 4 cells: walls
    ``{0, w, 1/2, 1/2 + w}``, values ``(p, q, -p, -q)``.  A wall at 0 or 1/2
    takes 4 cells with ``w`` one ulp.
    """
    w = min(wall, ONE - wall)
    if cells == 3 and 0 < w < ONE // 2:
        return StepCocycle([FixedReal(m) for m in (0, w, ONE - w)], [p, 0, -p])
    w = wall % (ONE // 2) or 1
    return StepCocycle([FixedReal(m) for m in (0, w, ONE // 2, ONE // 2 + w)], [p, q, -p, -q])


def orbit_wall(rotation: CircleRotation, raw: int, k: int, gap: int) -> int:
    """The mantissa ``gap`` radius units from the raw start's orbit point at step ``k``."""
    alpha = rotation.alpha.resolved
    return ((raw << 128) + k * alpha.mantissa + gap * alpha.err_ulps) % ONE


@st.composite
def sweep_cases(draw):
    """A rotation, a 2 to 4 cell cocycle, an ``n_list``, eps and a few raw starts.

    Walls lie on the 1/16 grid (the crafted starts then sit on some), at any
    mantissa, or near the orbit point of one start at a step ``k`` of radius
    ``k err``: within ``k + 1`` ulps either side, so the point is refused at
    ``k`` or decided just outside its radius.  ``k`` is often the first or
    last step of a block, where the block's largest radius is the point's
    own or the start itself is the block's first jump point.
    """
    rotation = CircleRotation(draw(st.sampled_from(SWEEP_ANGLES)))
    n_list = draw(st.one_of(
        st.sampled_from(SWEEP_N_LISTS), st.lists(st.integers(1, 300), min_size=1, max_size=4)
    ))
    crafted = draw(st.lists(st.sampled_from(CRAFTED_STARTS), max_size=3, unique=True))
    randoms = draw(st.lists(st.integers(0, (1 << 64) - 1), max_size=3))
    xs = draw(st.permutations(crafted + randoms)) if crafted or randoms else [1 << 61]
    eps = draw(st.sampled_from([Fraction(1, 20), Fraction(1, 3), Fraction(1, 10**6)]))
    p, q = draw(st.integers(1, 3)), draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(["halves", "grid", "any", "orbit", "orbit"]))
    if kind == "halves":
        return rotation, StepCocycle([0, HALF], [p, -p]), n_list, eps, xs
    if kind == "grid":
        wall = draw(st.integers(1, 15)) * (ONE // 16)
    elif kind == "any":
        wall = draw(st.integers(1, ONE - 1))
    else:
        top = max(n_list)
        edges = sorted({0, 1, *(n - 1 for n in n_list), *n_list} - {top})
        k = draw(st.one_of(st.sampled_from(edges), st.integers(0, top - 1)))
        gap = draw(st.sampled_from([0, 1, -1, k - 1, 1 - k, k, -k, k + 1, -k - 1]))
        wall = orbit_wall(rotation, draw(st.sampled_from(xs)), k, gap)
    f = cocycle_with_wall(draw(st.integers(3, 4)), wall, p, q)
    return rotation, f, n_list, eps, xs


def excess_outcome(estimator, *args):
    """Exceedance counts, or the type, message and step of the refusal."""
    try:
        return estimator(*args)
    except PrecisionExhaustedError as exc:
        return type(exc), str(exc), exc.step


# an angle of 0 ± 1 ulp keeps every start put: the wall 5 ulps above the
# second start refuses it at step 5, the mirrored wall 5 ulps below the
# first start refuses that one only at step 6
MIRROR_RAW = 0x1234_5678_9ABC_DEF0
MIRROR_WALL = (MIRROR_RAW << 128) + 5
# a wall k or k - 1 ulps from the golden orbit point at the last step k of a
# block, whose radius k is the block's largest: both are refused at k
EDGE_RAW = 0x9E37_79B9_7F4A_7C15
EDGE_ROTATION = CircleRotation(AngleSpec.preset("golden"))


@settings(max_examples=150, deadline=None)
@given(case=sweep_cases())
@example(case=(
    CircleRotation(AngleSpec.quadratic(0, 1, 10**120 + 1, 1)),
    cocycle_with_wall(3, MIRROR_WALL),
    [10],
    Fraction(1, 20),
    [(1 << 64) - MIRROR_RAW, MIRROR_RAW],
))
@example(case=(
    EDGE_ROTATION,
    cocycle_with_wall(4, orbit_wall(EDGE_ROTATION, EDGE_RAW, 29, 29)),
    [30, 12],
    Fraction(1, 20),
    [1 << 63, EDGE_RAW],
))
@example(case=(
    EDGE_ROTATION,
    cocycle_with_wall(3, orbit_wall(EDGE_ROTATION, EDGE_RAW, 29, -28)),
    [30, 12],
    Fraction(1, 20),
    [EDGE_RAW, 1 << 62],
))
def test_jump_point_sweep_matches_the_kernel_and_per_sample_sums(case):
    """The sweep's counts equal the kernel's and ``birkhoff_sums``', its refusals the kernel's.

    A refusal names the earliest refused step of any start, then the first
    such start, which need not be the first start that refuses.
    """
    rotation, f, n_list, eps, xs = case
    want = excess_outcome(kernel_excess, rotation, f, n_list, eps, xs)
    assert excess_outcome(_excess_rotation, rotation, f, n_list, eps, xs) == want
    if isinstance(want, tuple):
        event("refused at step 1" if want[2] == 1 else "refused past step 1")
        return
    assert want == reference_excess_counts(rotation, f, n_list, eps, xs)
    event("decided")


# a repeated n, an unsorted list, and either side of a 2**16-step block
RATIONAL_N_LISTS = [[9, 9], [30, 1, 12], [2**16 - 1, 2**16, 2**16 + 1]]


def rational_orbit_wall(p: int, q: int, seed: int, k: int) -> int:
    """The last mantissa at or below the first seeded sample's point at step ``k`` of ``p/q``."""
    raw = int(np.random.default_rng(seed).integers(0, 1 << 64, size=100, dtype=np.uint64)[0])
    point = (raw * q + k * (p % q << 64)) % (q << 64)  # on the grid of q 2**64 points
    return (point << 128) // q


@st.composite
def rational_excess_cases(draw):
    """A rational angle ``p/q``, any sign of ``p``, with a zero-mean cocycle, n, eps and seed.

    Walls lie at 1/2, 1 to 3 ulps apart, within ``2**128 / q`` ulps of 0 and
    1 (where the grid edge of the wall near 1 is the whole circle), at or
    one ulp past the first sample's orbit point at a step ``k``, or
    anywhere.
    """
    q = draw(st.one_of(st.integers(1, 400), st.sampled_from([1009, 4099])))
    p = draw(st.integers(-3 * q, 3 * q))
    n_list = draw(st.one_of(
        st.sampled_from(RATIONAL_N_LISTS), st.lists(st.integers(1, 3 * q), min_size=1, max_size=4)
    ))
    seed = draw(st.integers(0, 1 << 20))
    kind = draw(st.sampled_from(["halves", "ulps", "near-one", "orbit", "any"]))
    if kind == "halves":
        f = StepCocycle([0, HALF], [1, -1])
    elif kind == "ulps":
        f = cocycle_with_wall(4, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    elif kind == "near-one":
        f = cocycle_with_wall(3, ONE - draw(st.integers(1, (1 << 128) // q)))
    elif kind == "orbit":
        k = draw(st.integers(0, min(q, max(n_list)) - 1))
        wall = rational_orbit_wall(p, q, seed, k) + draw(st.integers(0, 1))
        f = cocycle_with_wall(draw(st.integers(3, 4)), wall)
    else:
        f = cocycle_with_wall(draw(st.integers(3, 4)), draw(st.integers(1, ONE - 1)))
    eps = draw(st.sampled_from([Fraction(1, 20), Fraction(1, 3), Fraction(1, 10**30)]))
    return AngleSpec.rational(p, q), f, n_list, eps, seed


@settings(max_examples=40, deadline=None)
@given(case=rational_excess_cases())
@example(case=(
    AngleSpec.rational(-4001, 65537),
    cocycle_with_wall(3, ONE - (1 << 111)),
    [2**16 + 1, 2**16 - 1],
    Fraction(1, 10**30),
    7,
))
@example(case=(AngleSpec.rational(5, 10007), cocycle_with_wall(4, 2, 3), [10007, 1], HALF, 0))
@example(case=(  # a wall one ulp past the first sample's point at step 2
    AngleSpec.rational(3, 7),
    cocycle_with_wall(3, rational_orbit_wall(3, 7, 0, 2) + 1),
    [5, 40],
    Fraction(1, 10**30),
    0,
))
def test_rational_sweep_matches_the_orbit_class_estimator(case):
    """A rational angle swept on the ``q 2**64`` grid gives the per-sample lap estimate."""
    angle, f, n_list, eps, seed = case
    rotation = CircleRotation(angle)
    with pytest.warns(RationalAngleWarning):
        got = sublinearity_estimate(rotation, f, n_list, eps, samples=100, seed=seed)
    xs = np.random.default_rng(seed).integers(0, 1 << 64, size=100, dtype=np.uint64).tolist()
    counts = rational_excess(angle.as_fraction(), f, n_list, eps, xs)
    assert got == [(n, counts[n] / 100) for n in n_list]
    event("past one period" if max(n_list) > angle.q else "within one period")


def test_the_excess_sweep_refuses_a_lap_past_the_scans_horizon(monkeypatch):
    """A swept lap of ``2**63`` steps or more is refused before the first block, with no step.

    Golden at ``n = 2**97`` would sweep every step (the sweep's bisection is
    patched to fail, so it cannot start); a rational angle sweeps one
    period at most, so ``1/3`` at ``n = 2**100`` answers.
    """
    with monkeypatch.context() as patch:
        patch.setattr(recurrence, "bisect_right", refuse_listing)
        for n in (2**63, 2**97):
            with pytest.raises(PrecisionExhaustedError) as refused:
                sublinearity_estimate(golden(), pm_one(), [7, n], Fraction(1, 20), samples=100)
            assert str(refused.value) == recurrence.PAST_HORIZON and refused.value.step is None
    with pytest.warns(RationalAngleWarning):
        got = sublinearity_estimate(
            CircleRotation(AngleSpec.rational(1, 3)), pm_one(), [2**100], Fraction(1, 20), samples=100
        )
    assert got == [(2**100, 1.0)]  # every orbit of 1/3 sums to ±1 per period: |S_n| ~ n/3


def test_excess_probability_rejects_an_empty_n_list():
    with pytest.raises(ValueError, match="n_list must not be empty"):
        sublinearity_estimate(golden(), pm_one(), [], Fraction(1, 20), samples=100)


def test_excess_probability_never_scans_every_orbit_point(monkeypatch):
    """Irrational rotations take the jump-point sweep, never the per-point cell kernel."""

    def refuse(*args, **kwargs):
        raise AssertionError("the excess estimate scanned every orbit point")

    monkeypatch.setattr(recurrence, "certified_cells", refuse)
    got = sublinearity_estimate(golden(), pm_one(), [100, 1000], Fraction(1, 20), samples=500)
    assert got == [(100, 0.0), (1000, 0.0)]


def test_every_rotation_takes_the_excess_sweep(monkeypatch):
    """Wide cocycles and rational angles never reach the per-sample estimators."""
    wide = (golden(), StepCocycle([0, HALF], [WIDE, -WIDE]), [7, 100, 1000], Fraction(1, 20))
    rational_angle = CircleRotation(AngleSpec.rational(4001, 10007))
    rational = (rational_angle, pm_one(), [10, 10**5], Fraction(1, 10**4))
    xs = np.random.default_rng(3).integers(0, 1 << 64, size=100, dtype=np.uint64).tolist()
    alpha = rational_angle.alpha.as_fraction()
    want = {
        "wide": reference_excess(*wide, samples=100, seed=3),
        "rational": [(n, c / 100) for n, c in rational_excess(alpha, *rational[1:], xs).items()],
    }

    def refuse(*args, **kwargs):
        raise AssertionError("a rotation took a per-sample estimator")

    monkeypatch.setattr(recurrence, "_excess_loop", refuse)
    monkeypatch.setattr(recurrence, "rational_walk", refuse)
    assert sublinearity_estimate(*wide, samples=100, seed=3) == want["wide"]
    with pytest.warns(RationalAngleWarning):
        assert sublinearity_estimate(*rational, samples=100, seed=3) == want["rational"]


@pytest.mark.parametrize(
    "values, eps",
    [([1, -1], Fraction(1, 4 * 10**18)), ([1 << 61, -(1 << 61)], Fraction(1, 20))],
    ids=["tiny-eps", "huge-values"],
)
def test_excess_probability_stays_exact_past_int64(values, eps):
    """``|S_n| * den`` and ``S_n`` itself may leave int64; the estimate may not."""
    f = StepCocycle([0, HALF], values)
    args = (golden(), f, [7, 8, 30], eps)
    assert sublinearity_estimate(*args, samples=100, seed=3) == reference_excess(
        *args, samples=100, seed=3
    )


REPEAT_BASES = {
    "rotation": golden,
    "rational": lambda: CircleRotation(AngleSpec.rational(1, 3)),
    "interval-exchange": lambda: IntervalExchange([Fraction(1, 4), Fraction(3, 4)], (2, 1)),
}


@pytest.mark.parametrize("system", REPEAT_BASES)
def test_excess_probability_counts_a_repeated_n_once(system):
    """Each estimator path gives a repeated n its own probability, not a double count."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        args = (REPEAT_BASES[system](), pm_one())
        once = sublinearity_estimate(*args, [10], Fraction(1, 20), samples=100, seed=5)
        twice = sublinearity_estimate(*args, [10, 10], Fraction(1, 20), samples=100, seed=5)
    assert twice == once * 2


def test_excess_probability_deterministic_under_seed():
    args = (golden(), pm_one(), [50, 500], Fraction(1, 20))
    a = sublinearity_estimate(*args, samples=500, seed=42)
    b = sublinearity_estimate(*args, samples=500, seed=42)
    assert a == b


def test_sample_floor_enforced():
    with pytest.raises(ValueError):
        sublinearity_estimate(golden(), pm_one(), [10], Fraction(1, 2), samples=50)
