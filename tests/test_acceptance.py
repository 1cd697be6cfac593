"""Release-gate checks: ten end-to-end criteria, one printed PASS/FAIL line each.

Every test here settles a user-visible claim of the package — exact zero
detection at scale, agreement with exhaustive enumeration on periodic
systems, cocycle additivity, the desk-checkable flow and winding examples,
the induced-map reduction, excess-probability decay, measure preservation,
fiber telescoping, and byte-level determinism of the preset catalog.  The
tolerances and sample sizes are part of the contract; loosening them to
make a red line green is never acceptable.
"""
import hashlib
import itertools
import math
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from _oracles import (
    excess_fraction_exact,
    first_return,
    interval_cell_fractions,
    piecewise_classes,
    step_value,
)
from ergolab.angles import AngleSpec
from ergolab.cocycles import (
    PhaseFunction,
    StepCocycle,
    TrigPolynomial,
    birkhoff_sums,
    orbit_integral,
    winding_integral,
    winding_zero_times,
)
from ergolab.errors import RationalAngleWarning
from ergolab.experiments import list_presets, preset_config, run_experiment
from ergolab.fixedpoint import ONE, SCALE, FixedReal
from ergolab.induced import induce_point, induced_statistics
from ergolab.recurrence import (
    TargetSet,
    find_zero_sums,
    flow_zero_near_returns,
    flow_zero_set_returns,
    near_returns,
    sublinearity_estimate,
)
from ergolab.skew import ProductState, SkewSystem, orbit_statistics
from ergolab.stats import dkw_epsilon
from ergolab.systems import (
    CircleRotation,
    IntervalExchange,
    Roof,
    SpecialFlowState,
    TorusPoint,
    TorusWinding,
    special_flow_step,
)

HALF = Fraction(1, 2)
LEFT_HALF = TargetSet([(0, HALF)])


def golden() -> CircleRotation:
    return CircleRotation(AngleSpec.preset("golden"))


@pytest.fixture
def gate(capsys):
    """One PASS/FAIL line per criterion, printed through pytest's capture."""

    def _report(name: str, ok: bool, detail: str = "") -> None:
        line = f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else "")
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


# --------------------------------------------------------------------------- #
# 1. zero-sum scan at scale
# --------------------------------------------------------------------------- #


def test_01_golden_zero_sums_at_one_million_steps(gate):
    """>= 100 exact zeros from x = 1/10 in under five seconds, re-verified
    by an independent integer-mantissa walk over the same grid rotation."""
    base = golden()
    f = StepCocycle.step_at_half()
    started = time.perf_counter()
    records = find_zero_sums(base, f, Fraction(1, 10), 1_000_000)
    elapsed = time.perf_counter() - started

    step = base.alpha.resolved.mantissa
    m = FixedReal.of(Fraction(1, 10)).mantissa
    half = ONE >> 1
    total = 0
    zeros = []
    for n in range(1, 1_000_001):
        total += 1 if m < half else -1
        m = (m + step) % ONE
        if total == 0:
            zeros.append(n)

    ok = (
        len(records) >= 100
        and elapsed < 5.0
        and all(r.value == 0 for r in records)
        and [r.time for r in records] == zeros
    )
    gate(
        "01 zero-sum scan at 10^6 steps",
        ok,
        f"{len(records)} zeros in {elapsed:.2f}s, independent walk agrees",
    )


# --------------------------------------------------------------------------- #
# 2. exhaustive agreement on periodic systems
# --------------------------------------------------------------------------- #


def test_02_rational_angles_match_orbit_tables(gate):
    """Every reduced angle p/q with q <= 12, against every admissible integer
    step cocycle on the fixed grid (walls from the quarter marks including 0,
    cell values bounded by 3, exact zero mean as the constructor demands):
    zero-sum times, near-return times and single-point induction all agree
    exactly with orbit-table enumeration to N = 10^4."""
    N = 10_000
    x0 = Fraction(1, 10)
    quarters = (Fraction(0), Fraction(1, 4), HALF, Fraction(3, 4))
    wall_sets = [
        ws
        for size in (2, 3, 4)
        for ws in itertools.combinations(quarters, size)
        if ws[0] == 0
    ]

    def zero_mean_values(walls):
        widths = [b - a for a, b in zip(walls, walls[1:])] + [1 - walls[-1]]
        return [
            values
            for values in itertools.product(range(-3, 4), repeat=len(walls))
            if sum(w * v for w, v in zip(widths, values)) == 0
        ]

    value_grid = {walls: zero_mean_values(walls) for walls in wall_sets}
    angles = [(p, q) for q in range(2, 13) for p in range(1, q) if math.gcd(p, q) == 1]
    eps_list = (Fraction(1, 100), Fraction(1, 10), Fraction(1, 3))

    failures: list[str] = []
    pairs = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        for p, q in angles:
            base = CircleRotation(AngleSpec.rational(p, q))
            residues = [(n * p) % q for n in range(q)]
            for eps in eps_list:
                want = [
                    n
                    for n in range(1, N + 1)
                    if min(residues[n % q], q - residues[n % q]) * eps.denominator
                    < eps.numerator * q
                ]
                if near_returns(base, x0, N, eps).times.tolist() != want:
                    failures.append(f"near p/q={p}/{q} eps={eps}")
            orbit = [(x0 + Fraction(k * p, q)) % 1 for k in range(q)]
            reps = N // q + 1
            for walls in wall_sets:
                wl = list(walls)
                for values in value_grid[walls]:
                    vl = list(values)
                    per_orbit = np.array(
                        [step_value(x, wl, vl) for x in orbit], dtype=np.int64
                    )
                    sums = np.cumsum(np.tile(per_orbit, reps)[:N])
                    want_zeros = (np.nonzero(sums == 0)[0] + 1).tolist()
                    f = StepCocycle(wl, vl)
                    got_zeros = [r.time for r in find_zero_sums(base, f, x0, N)]
                    if got_zeros != want_zeros:
                        failures.append(f"zeros p/q={p}/{q} walls={wl} values={vl}")
                    for start in (x0, Fraction(0)):
                        n_want, x_want, t_want = first_return(
                            p, q, start, Fraction(0), HALF, wl, vl
                        )
                        sample = induce_point(base, f, LEFT_HALF, start)
                        lo, hi = sample.return_point.interval()
                        if not (
                            sample.n == n_want
                            and sample.f_tilde == t_want
                            and lo <= x_want <= hi
                        ):
                            failures.append(
                                f"induce p/q={p}/{q} start={start} walls={wl} values={vl}"
                            )
                    pairs += 1
    gate(
        "02 periodic systems vs orbit tables",
        not failures,
        f"{pairs} angle/cocycle pairs, {len(angles)} angles"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )


# --------------------------------------------------------------------------- #
# 3. cocycle additivity
# --------------------------------------------------------------------------- #


def test_03_cocycle_additivity_identities(gate):
    """S_{n+m}(x) = S_n(x) + S_m(S^n x) exactly for 10^3 discrete triples;
    the exact flow integral satisfies the same identity in Fraction
    arithmetic, and the trigonometric winding integral satisfies it to
    1e-9 on 10^3 random triples."""
    rng = np.random.default_rng(31)
    f = StepCocycle.step_at_half()
    discrete_ok = True
    systems = [golden(), IntervalExchange([Fraction(1, 4), Fraction(3, 4)], (2, 1))]
    for base in systems:
        for _ in range(500):
            n = int(rng.integers(1, 120))
            m = int(rng.integers(1, 120))
            x = FixedReal(int(rng.integers(0, 1 << 63)) << (SCALE - 63), 0)
            sums = list(birkhoff_sums(base, f, x, n + m))
            y = x
            for _ in range(n):
                y = base.apply(y)
            tail = list(birkhoff_sums(base, f, y, m))[-1]
            if sums[n + m - 1] != sums[n - 1] + tail:
                discrete_ok = False

    roof = Roof([0, HALF], [1, Fraction(3, 2)], golden())
    phase = PhaseFunction.from_base_values(roof, [3, -2])
    flow_ok = True
    for _ in range(1000):
        x = Fraction(int(rng.integers(0, 1 << 32)), 1 << 32)
        b = Fraction(int(rng.integers(0, 64)), 64)
        state = SpecialFlowState(x, b)
        t = Fraction(int(rng.integers(1, 20 * 16)), 16)
        u = Fraction(int(rng.integers(1, 20 * 16)), 16)
        moved, _ = special_flow_step(roof, state, t)
        left = orbit_integral(roof, phase, state, t + u)
        right = orbit_integral(roof, phase, state, t) + orbit_integral(
            roof, phase, moved, u
        )
        if left != right:
            flow_ok = False

    winding = TorusWinding(AngleSpec.preset("sqrt2"))
    trig = TrigPolynomial([(1, 0, 1.0, 0.0), (0, 1, 0.5, 0.25), (1, 1, 0.0, 1.0)])
    trig_worst = 0.0
    for _ in range(1000):
        p = TorusPoint(Fraction(int(rng.integers(0, 1 << 32)), 1 << 32),
                       Fraction(int(rng.integers(0, 1 << 32)), 1 << 32))
        t = float(rng.uniform(0.01, 20.0))
        u = float(rng.uniform(0.01, 20.0))
        moved = winding.flow(p, t)
        gap = abs(
            winding_integral(winding, trig, p, t + u)
            - winding_integral(winding, trig, p, t)
            - winding_integral(winding, trig, moved, u)
        )
        trig_worst = max(trig_worst, gap)

    ok = discrete_ok and flow_ok and trig_worst <= 1e-9
    gate(
        "03 cocycle additivity",
        ok,
        f"discrete exact, flow exact, trig worst gap {trig_worst:.2e}",
    )


# --------------------------------------------------------------------------- #
# 4. flow zeros landing in a target set
# --------------------------------------------------------------------------- #


def test_04_flow_set_returns_desk_check(gate):
    """Period-two base: in-set zeros exactly {2, 4, 6}; golden base up to
    T = 10^4: at least one in-set zero."""
    target = TargetSet([(0, HALF)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        periodic = Roof([0, HALF], [1, 1], CircleRotation(AngleSpec.rational(1, 2)))
        f2 = PhaseFunction.from_base_values(periodic, [1, -1])
        records = flow_zero_set_returns(
            periodic, f2, SpecialFlowState(Fraction(0), 0), 6, target
        )
    desk = [r.time for r in records] == [2, 4, 6] and all(r.in_set for r in records)

    irrational = Roof([0, HALF], [1, 1], golden())
    fg = PhaseFunction.from_base_values(irrational, [1, -1])
    golden_records = flow_zero_set_returns(
        irrational, fg, SpecialFlowState(Fraction(1, 10), 0), 10_000, target
    )
    ok = desk and len(golden_records) >= 1
    gate(
        "04 flow zeros in a half-circle target",
        ok,
        f"periodic rows {[int(r.time) for r in records]}, golden count {len(golden_records)}",
    )


# --------------------------------------------------------------------------- #
# 5. winding zeros against the closed-form grid
# --------------------------------------------------------------------------- #


def test_05_winding_zero_grid_and_near_filter(gate):
    """cos(2 pi x) along the sqrt(2) line from the origin: integral zeros
    are the half-integers k/2 (within 1e-9); the eps = 0.05 near-return
    filter keeps exactly the k whose both coordinates are within 0.05 of
    the start, cross-checked by direct evaluation."""
    winding = TorusWinding(AngleSpec.preset("sqrt2"))
    f = TrigPolynomial.cos_x()
    start = TorusPoint(0, 0)
    t_max = 30
    zeros = winding_zero_times(winding, f, start, float(t_max))
    expected = [k / 2 for k in range(1, 2 * t_max + 1)]
    grid_ok = len(zeros) == len(expected) and all(
        abs(z - e) <= 1e-9 for z, e in zip(zeros, expected)
    )

    eps = Fraction(1, 20)
    records = flow_zero_near_returns(winding, f, start, t_max, eps)
    got_ks = sorted(round(2 * r.time) for r in records)
    with mpmath.workdps(60):
        root2 = mpmath.sqrt(2)
        want_ks = []
        for k in range(1, 2 * t_max + 1):
            dx = min(Fraction(k % 2, 2), 1 - Fraction(k % 2, 2))
            frac_y = (k * root2 / 2) % 1
            dy = min(frac_y, 1 - frac_y)
            if dx < Fraction(1, 20) and dy < mpmath.mpf(1) / 20:
                want_ks.append(k)
    filter_ok = got_ks == want_ks and all(r.distance < 0.05 for r in records)
    ok = grid_ok and filter_ok
    gate(
        "05 winding zeros on the half-integer grid",
        ok,
        f"{len(zeros)} zeros, near-return k {got_ks}",
    )


# --------------------------------------------------------------------------- #
# 6. induced-map reduction
# --------------------------------------------------------------------------- #


def test_06_induced_map_expectations(gate):
    """Quarter angle: exact E[n] = 2 and E[f~] = 0 by piecewise enumeration
    over the orbit-refined partition; golden angle: 10^5 Monte Carlo
    samples put E[n] * mu(A) within 4 standard errors of 1 and E[f~]
    within 4 standard errors of 0."""
    f = StepCocycle.step_at_half()
    pieces = [
        (lo, hi)
        for lo, hi in piecewise_classes(1, 4, [Fraction(0), HALF])
        if hi <= HALF
    ]
    measure = sum(hi - lo for lo, hi in pieces)
    exact_ok = measure == HALF
    e_n = Fraction(0)
    e_f = Fraction(0)
    quarter = CircleRotation(AngleSpec.rational(1, 4))
    for lo, hi in pieces:
        probes = [lo, lo + (hi - lo) / 3, lo + (hi - lo) * 2 / 3]
        outcomes = {
            (s.n, s.f_tilde)
            for s in (induce_point(quarter, f, LEFT_HALF, x) for x in probes)
        }
        if len(outcomes) != 1:
            exact_ok = False
            continue
        n_val, f_val = outcomes.pop()
        e_n += Fraction(n_val) * (hi - lo)
        e_f += Fraction(f_val) * (hi - lo)
    e_n /= measure
    e_f /= measure
    exact_ok = exact_ok and e_n == 2 and e_f == 0

    stats = induced_statistics(golden(), f, LEFT_HALF, samples=100_000, seed=5)
    mu = float(stats.target_measure)
    kac_ok = abs(stats.mean_return * mu - 1.0) <= 4 * stats.se_return * mu
    drift_ok = abs(stats.mean_cocycle) <= 4 * stats.se_cocycle
    ok = exact_ok and kac_ok and drift_ok and stats.censored == 0
    gate(
        "06 induced-map expectations",
        ok,
        f"exact E[n]={e_n}, E[f~]={e_f}; MC kac={stats.mean_return * mu:.5f}"
        f"+-{stats.se_return * mu:.5f}, E[f~]={stats.mean_cocycle:.5f}"
        f"+-{stats.se_cocycle:.5f}",
    )


# --------------------------------------------------------------------------- #
# 7. excess-probability decay and its periodic control
# --------------------------------------------------------------------------- #


def test_07_excess_probability_decay(gate):
    """Golden rotation at eps = 1/20: the estimate is non-increasing over
    n in {100, 1000, 10000} and reaches exactly 0.  The period-three
    control at eps = 1/3 stays strictly positive at the exactly-known
    level 2/3 (within 0.05), separating the recurrent regime from the
    periodic one."""
    f = StepCocycle.step_at_half()
    n_list = [100, 1000, 10_000]
    decay = sublinearity_estimate(golden(), f, n_list, Fraction(1, 20), samples=10_000, seed=7)
    values = [v for _, v in decay]
    decay_ok = values[0] >= values[1] >= values[2] and values[2] == 0.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        control = sublinearity_estimate(
            CircleRotation(AngleSpec.rational(1, 3)),
            f,
            n_list,
            Fraction(1, 3),
            samples=10_000,
            seed=7,
        )
    walls = [Fraction(0), HALF]
    exact_levels = [
        excess_fraction_exact(1, 3, walls, [1, -1], n, Fraction(1, 3)) for n in n_list
    ]
    control_ok = all(e == Fraction(2, 3) for e in exact_levels) and all(
        v > 0 and abs(v - 2 / 3) <= 0.05 for _, v in control
    )
    ok = decay_ok and control_ok
    gate(
        "07 excess-probability decay vs periodic control",
        ok,
        f"golden {values}, control {[round(v, 4) for _, v in control]} (exact level 2/3)",
    )


# --------------------------------------------------------------------------- #
# 8. measure preservation under DKW bands
# --------------------------------------------------------------------------- #


def _cdf_gap(samples: list[float], cdf_at) -> float:
    """Sup over 20 cell boundaries of |empirical CDF - true CDF|."""
    cells = interval_cell_fractions(samples, 20)
    worst = 0.0
    cum = 0.0
    for j, frac in enumerate(cells):
        cum += frac
        worst = max(worst, abs(cum - cdf_at(Fraction(j + 1, 20))))
    return worst


def test_08_measure_preservation_histograms(gate):
    """Uniform (or roof-weighted) samples pushed through one map application
    keep their distribution within the 0.999-confidence DKW band at
    n = 10^5 for the rotation, an interval exchange, a variable-roof
    special flow, and a skew product."""
    n = 100_000
    tol = dkw_epsilon(n, 0.001)
    rng = np.random.default_rng(2718)
    gaps: dict[str, float] = {}

    grid = rng.integers(0, 1 << 64, size=n, dtype=np.uint64).tolist()
    base = golden()
    pushed = [float(base.apply(FixedReal(g << (SCALE - 64), 0))) for g in grid]
    gaps["rotation"] = _cdf_gap(pushed, float)

    iet = IntervalExchange([Fraction(1, 4), Fraction(3, 4)], (2, 1))
    pushed = [float(iet.apply(FixedReal(g << (SCALE - 64), 0))) for g in grid]
    gaps["interval_exchange"] = _cdf_gap(pushed, float)

    roof = Roof([0, HALF], [1, Fraction(3, 2)], golden())
    area = roof.area()

    def roof_cdf(c: Fraction) -> float:
        mass = min(c, HALF) * 1 + max(c - HALF, 0) * Fraction(3, 2)
        return float(mass / area)

    heights = rng.integers(0, 1 << 64, size=n, dtype=np.uint64).tolist()
    pushed = []
    for g, h in zip(grid, heights):
        scaled = Fraction(int(g), 1 << 64) * area
        # invert the piecewise-linear roof CDF: slope 1 below 1/2, 3/2 above
        x = scaled if scaled < HALF else HALF + (scaled - HALF) * Fraction(2, 3)
        b = Fraction(int(h), 1 << 64) * roof.height_at(FixedReal.from_fraction(x))
        state, _ = special_flow_step(roof, SpecialFlowState(x, b), Fraction(1, 3))
        pushed.append(float(state.a))
    gaps["special_flow"] = _cdf_gap(pushed, roof_cdf)

    skew = SkewSystem(golden(), CircleRotation(AngleSpec.preset("sqrt2")), StepCocycle.step_at_half())
    ys = rng.integers(0, 1 << 64, size=n, dtype=np.uint64).tolist()
    out_x: list[float] = []
    out_y: list[float] = []
    for g, h in zip(grid, ys):
        state, _ = skew.step(
            ProductState(FixedReal(g << (SCALE - 64), 0), FixedReal(h << (SCALE - 64), 0))
        )
        out_x.append(float(state.x))
        out_y.append(float(state.y))
    gaps["skew_base"] = _cdf_gap(out_x, float)
    gaps["skew_fiber"] = _cdf_gap(out_y, float)

    ok = all(g <= tol for g in gaps.values())
    summary = ", ".join(f"{k} {v:.4f}" for k, v in gaps.items())
    gate("08 measure preservation (DKW 0.999)", ok, f"tol {tol:.4f}: {summary}")


# --------------------------------------------------------------------------- #
# 9. fiber telescoping
# --------------------------------------------------------------------------- #


def test_09_fiber_displacement_telescopes(gate):
    """Running fiber displacement over 10^4 skew steps equals the running
    Birkhoff scan of the exponent, step by step and at the end."""
    base = golden()
    f = StepCocycle.step_at_half()
    system = SkewSystem(base, CircleRotation(AngleSpec.preset("sqrt2")), f)
    x0 = FixedReal.of(Fraction(1, 10))
    state = ProductState(x0, FixedReal.of(Fraction(1, 4)))
    running = 0
    scan_ok = True
    expected = birkhoff_sums(base, f, x0, 10_000)
    for want in expected:
        state, n = system.step(state)
        running += n
        if running != want:
            scan_ok = False
            break
    stats = orbit_statistics(
        system,
        ProductState(x0, FixedReal.of(Fraction(1, 4))),
        10_000,
        [((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))],
    )
    ok = scan_ok and stats.fiber_displacement == running
    gate(
        "09 fiber displacement telescopes",
        ok,
        f"scan matched at every step; final displacement {running}",
    )


# --------------------------------------------------------------------------- #
# 10. preset determinism
# --------------------------------------------------------------------------- #


# SHA-256 of every preset result file: a change to these bytes is a change
# of output format, and only an intended one may record new digests.
PRESET_RESULT_SHA256 = {
    ("krygin-atkinson", "results.csv"):
        "9c6faf4d42391e66320d5a7907240e2ea5a1d258978f01defaf9d34c8bcbd0b1",
    ("shneiberg", "results.csv"):
        "da142ae8f597edddb3b210e45882f0e219546d32ca449c8cd05bd7e9a1c7261c",
    ("theorem-a", "results.csv"):
        "9321f53581eb0af63689b41d09b28735989df04e0e3a0ee5be79d64b163be8a3",
    ("theorem-b-flow", "results.csv"):
        "dc11732f4929e10eef52dc164c46e4589c5948784873cecb6fda77a3f7bbab9d",
    ("theorem-b-winding", "results.csv"):
        "b522d286b9672cce8f1e4d7e52fb249b8bdc188fafcdf726bacd5fae5c88ae91",
    ("theorem-c-induced", "results.csv"):
        "25793788e6f619c0eb5c9397e182a08334542e2f5fcf74f1f46c3018d6b984ab",
    ("theorem-c-induced", "results.json"):
        "94491dc68c00204f503c27966461d579e255e1bbdb9d2f1e1a9d098f3937133e",
    ("theorem-d-weiss", "results.csv"):
        "2bb911db938d6bb03cf833f2293e8fa8b7f275447ea51f16a0709f490042fdc6",
    ("skew-construct", "results.csv"):
        "f308f7eb807b91f37e0e2e0210a35135df712d720f0103ad50613b531e5a7f6c",
    ("skew-construct", "results.json"):
        "7ee40fd46cf416df99e60fdbce03d3e6220c01c87bf3a029573ad922ac916298",
}


def test_10_presets_rerun_byte_identical(gate, tmp_path):
    """Every preset, run twice with its stored seed, produces byte-identical
    config and result files, each run well under a minute, and its result
    files hash to the recorded digests."""
    mismatches = []
    slow = []
    pinned = set()
    for name, _ in list_presets():
        config = preset_config(name)
        first = run_experiment(config, out_root=tmp_path / "a")
        second = run_experiment(config, out_root=tmp_path / "b")
        if max(first.duration_seconds, second.duration_seconds) >= 60:
            slow.append(name)
        for artifact in first.outputs:
            a = (tmp_path / "a" / config["output"]["directory"] / artifact).read_bytes()
            b = (tmp_path / "b" / config["output"]["directory"] / artifact).read_bytes()
            if a != b:
                mismatches.append(f"{name}/{artifact}")
            if artifact.startswith("results."):
                pinned.add((name, artifact))
                if hashlib.sha256(a).hexdigest() != PRESET_RESULT_SHA256.get((name, artifact)):
                    mismatches.append(f"{name}/{artifact} digest")
    mismatches += [
        f"{name}/{artifact} missing" for name, artifact in PRESET_RESULT_SHA256.keys() - pinned
    ]
    ok = not mismatches and not slow
    gate(
        "10 preset determinism",
        ok,
        f"{len(list(list_presets()))} presets"
        + (f"; mismatches {mismatches}" if mismatches else "")
        + (f"; slow {slow}" if slow else ""),
    )
