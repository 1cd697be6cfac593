"""Independent brute-force oracles used to freeze expected values.

Everything in here deliberately avoids the package's own orbit machinery:
rational-rotation orbits are enumerated with ``fractions.Fraction``, surds
are evaluated with mpmath at 60 significant digits, and measures are summed
over explicit cell decompositions.  Tests compare the fast production paths
against these dumb-but-obviously-correct routes.  The orbit of a true
quadratic surd ``(a + b sqrt c)/d`` is decided exactly in ``Q(sqrt c)``,
with integer square roots and sign tests only.  The special-flow
reference is the exception: it is the package's former two-walk path (a
``Fraction`` profile walk, then :func:`special_flow_step` from zero to
zero), kept here to pin the single scaled-integer walk that replaced it.
The per-step cascade references are the other exception: they walk every
step with ``birkhoff_sums`` and ``apply``, never closing a lap, and decide
eps on ``Fraction`` bounds, to pin the detectors that close periodic laps.
So is :func:`kernel_excess`, the former excess scan over every orbit point
with ``certified_cells``, kept to pin the jump-point sweep that replaced it,
refusals included, and :func:`rational_excess`, the former rational-angle
estimator, kept to pin the sweep on the exact rational grid; it takes each
start's period from ``rational_walk``, which the ``Fraction`` oracles here
pin in turn (:func:`rational_excursion`, the former rational induction, is
one of them).  The winding references are the former point-by-point scan,
:func:`reference_winding_zero_times` (libm sums, one bisection after the
other), and the per-zero exact near test on its zeros,
:func:`reference_winding_near_rows`, kept to pin the numpy scan and the
float distance screen.  Last come the small reference helpers that no
detector calls: the one-step cascade and skew maps, an interval exchange
on exact rationals, and the cell fractions of a sample.
"""
from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np

from ergolab import cocycles
from ergolab.cocycles import IntegralProfile
from ergolab.errors import PrecisionExhaustedError, ReturnBudgetError
from ergolab.fixedpoint import ONE, SCALE, FixedReal
from ergolab.stats import decimal_string
from ergolab.systems import BaseMap, special_flow_step

HALF = Fraction(1, 2)

mpmath.mp.dps = 60


def surd_decimal(a: int, b: int, c: int, d: int) -> mpmath.mpf:
    """(a + b*sqrt(c))/d at 60 significant digits."""
    return (a + b * mpmath.sqrt(c)) / d


def surd_sign(p: int, r: int, c: int) -> int:
    """The sign of ``p + r sqrt(c)`` for integers ``p``, ``r`` and a non-square ``c > 0``."""
    if p >= 0 and r >= 0 or p <= 0 and r <= 0:
        return (p > 0 or r > 0) - (p < 0 or r < 0)
    # opposite signs; p**2 == r**2 c is impossible for a non-square c
    return (1 if p > 0 else -1) if p * p > r * r * c else (1 if r > 0 else -1)


def surd_orbit_cells(surd, x: Fraction, walls: list[Fraction], count: int) -> list[int]:
    """The cells of ``{x + n alpha}``, ``0 <= n < count``, for the true ``alpha = (a + b sqrt c)/d``.

    ``walls`` are rational, ascending, and start at 0.  The point is
    ``(N + B sqrt c) / D`` with ``D > 0``: its integer part starts from
    :func:`math.isqrt` and is corrected by :func:`surd_sign`, and it lies
    at or past a wall ``g/h`` exactly when ``(N - k D) h - g D + B h sqrt c``
    is not negative.
    """
    a, b, c, d = surd
    if d < 0:
        a, b, d = -a, -b, -d
    cells = []
    for n in range(count):
        big_n = x.numerator * d + n * a * x.denominator
        big_b, big_d = n * b * x.denominator, x.denominator * d
        root = math.isqrt(big_b * big_b * c)  # |B| sqrt c lies in [root, root + 1)
        k = (big_n + (root if big_b >= 0 else -root)) // big_d
        while surd_sign(big_n - k * big_d, big_b, c) < 0:
            k -= 1
        while surd_sign(big_n - (k + 1) * big_d, big_b, c) >= 0:
            k += 1
        rest = big_n - k * big_d
        cells.append(sum(
            surd_sign(rest * w.denominator - w.numerator * big_d, big_b * w.denominator, c) >= 0
            for w in walls[1:]
        ))
    return cells


def step_value(x: Fraction, walls: list[Fraction], values: list[int]):
    """Value of the piecewise-constant function at x (walls ascending, walls[0]=0)."""
    idx = 0
    for i, w in enumerate(walls):
        if x >= w:
            idx = i
    return values[idx]


def rotation_orbit(p: int, q: int, x0: Fraction, n: int) -> list[Fraction]:
    """Points x0, Sx0, ..., S^{n-1}x0 of the rational rotation by p/q."""
    alpha = Fraction(p, q)
    pts = []
    x = x0 % 1
    for _ in range(n):
        pts.append(x)
        x = (x + alpha) % 1
    return pts


def birkhoff_sums(p: int, q: int, x0: Fraction, walls, values, n: int) -> list[int]:
    """S_1..S_n of the step function along the rational rotation orbit."""
    sums = []
    total = 0
    for x in rotation_orbit(p, q, x0, n):
        total += step_value(x, walls, values)
        sums.append(total)
    return sums


def zero_sum_times(p, q, x0, walls, values, n) -> list[int]:
    return [i + 1 for i, s in enumerate(birkhoff_sums(p, q, x0, walls, values, n)) if s == 0]


def circle_distance(a: Fraction, b: Fraction) -> Fraction:
    d = (a - b) % 1
    return min(d, 1 - d)


def near_return_times(p: int, q: int, n: int, eps: Fraction) -> list[int]:
    """n <= N with ||n p/q|| < eps (rotation distance is start-independent)."""
    alpha = Fraction(p, q)
    out = []
    for i in range(1, n + 1):
        if circle_distance(i * alpha % 1, Fraction(0)) < eps:
            out.append(i)
    return out


def first_return(p, q, x0: Fraction, a_lo: Fraction, a_hi: Fraction, walls, values, budget=10**6):
    """(n, return point, accumulated value) of the first return to [a_lo, a_hi)."""
    alpha = Fraction(p, q)
    x = x0 % 1
    assert a_lo <= x < a_hi, "oracle requires a start inside the target interval"
    total = 0
    for n in range(1, budget + 1):
        total += step_value(x, walls, values)
        x = (x + alpha) % 1
        if a_lo <= x < a_hi:
            return n, x, total
    raise AssertionError("oracle budget exhausted")


def rational_excursion(alpha: Fraction, walls, values, target, x: Fraction, budget: int):
    """``(n, return point, f~)`` of the first return of ``x`` to ``target`` under the rotation by ``alpha``.

    Steps the orbit in ``Fraction``s, one :func:`step_value` and one
    ``target.contains_fraction`` per step: the former rational path of
    ``induce_point``.  A start outside the target raises :class:`ValueError`,
    no return within ``budget`` steps :class:`ReturnBudgetError`.
    """
    x %= 1
    if not target.contains_fraction(x):
        raise ValueError("the starting point must lie in the target set")
    total, p = 0, x
    for n in range(1, budget + 1):
        total += step_value(p, walls, values)
        p = (p + alpha) % 1
        if target.contains_fraction(p):
            return n, p, total
    raise ReturnBudgetError(f"no return within {budget} steps")


def piecewise_classes(p: int, q: int, walls: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    """Partition of [0,1) on which every orbit point's cell is constant.

    Refines the walls by all backward rotates {w - i*p/q}; on each piece the
    classification of x, Sx, ..., S^{q-1}x never changes.
    """
    cuts = {Fraction(0), Fraction(1)}
    alpha = Fraction(p, q)
    for w in walls:
        for i in range(q):
            cuts.add((w - i * alpha) % 1)
    cuts.add(Fraction(1))
    edges = sorted(cuts)
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1) if edges[i] < edges[i + 1]]


def excess_fraction_exact(p: int, q: int, walls, values, n: int, eps: Fraction) -> Fraction:
    """mu{x : |S_n(x)| > eps*n} for the rational rotation, by exact cell decomposition."""
    total = Fraction(0)
    for lo, hi in piecewise_classes(p, q, walls):
        mid = (lo + hi) / 2
        s_n = birkhoff_sums(p, q, mid, walls, values, n)[-1]
        if Fraction(abs(s_n)) > eps * n:
            total += hi - lo
    return total


def target_arc_membership(intervals, lo: Fraction, hi: Fraction):
    """Is the closed circle arc ``[lo, hi]`` inside the union of ``[a, b)`` intervals?

    True when every point of the arc lies in the union, False when none
    does, ``"ambiguous"`` otherwise.  ``lo`` and ``hi`` may lie outside
    ``[0, 1)`` (the arc wraps past the seam) as long as ``0 <= hi - lo < 1``.
    Membership is right-continuous, so the arc is one-coloured exactly when
    no jump point ``t`` of the indicator lies in ``(lo, hi]`` mod 1.
    """
    intervals = [(Fraction(a), Fraction(b)) for a, b in intervals]

    def member(x: Fraction) -> bool:
        return any(a <= x % 1 < b for a, b in intervals)

    def member_left_of(t: Fraction) -> bool:
        # membership just below t; just below 0 means just below 1
        t = t % 1 or Fraction(1)
        return any(a < t <= b for a, b in intervals)

    jumps = {
        t % 1 for pair in intervals for t in pair if member(t) != member_left_of(t)
    }
    if any(lo < t + k <= hi for t in jumps for k in (-1, 0, 1)):
        return "ambiguous"
    return member(lo)


def _render_cell(value, digits: int) -> str:
    """Stable text for one CSV cell: exact decimals for rationals, repr for floats."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, Fraction)):
        return decimal_string(value, digits)
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def reference_csv_bytes(header, rows, digits: int) -> bytes:
    """The result-file bytes of a table given row by row, one cell at a time.

    ``csv.writer`` with newline line endings and a type test per cell; the
    oracle for the experiment runner's column-wise writer.
    """
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_render_cell(cell, digits) for cell in row])
    return buffer.getvalue().encode("ascii")


def reference_profile_nodes(roof, f, state, t_max):
    """Orbit-integral nodes of a special flow by a ``Fraction`` walk, event by event.

    Band tops, then the roof gluing, up to the horizon.
    """
    horizon = Fraction(t_max)
    a, b = state.a, state.b
    t = sigma = Fraction(0)
    nodes = [(t, sigma)]
    while True:
        cell = roof.cell_of(a)
        tops, vals = f.band_tops[cell], f.band_values[cell]
        band = bisect_right(tops, b)
        while band < len(tops):
            dt = tops[band] - b
            if t + dt >= horizon:
                sigma += vals[band] * (horizon - t)
                nodes.append((horizon, sigma))
                return nodes
            t += dt
            sigma += vals[band] * dt
            nodes.append((t, sigma))
            b = tops[band]
            band += 1
        a = roof.base.apply(a)
        b = Fraction(0)


def reference_flow_zero_states(roof, f, start, t_max):
    """``(t, state)`` at each profile zero, re-stepped with ``special_flow_step``."""
    nodes = reference_profile_nodes(roof, f, start, t_max)
    out = []
    state, t_cur = start, Fraction(0)
    for t in IntegralProfile(nodes).zeros():
        state, _ = special_flow_step(roof, state, t - t_cur)
        t_cur = t
        out.append((t, state))
    return out


def reference_flow_set_rows(roof, f, start, t_max, target):
    """``(time, value, in_set)`` rows of the flow zero/set scan."""
    zeros = reference_flow_zero_states(roof, f, start, t_max)
    return [(t, Fraction(0), True) for t, state in zeros if target.contains_state(state)]


def reference_flow_near_rows(roof, f, start, t_max, eps):
    """``(time, value, distance)`` rows of the flow zero/near scan.

    The base distance is known to within the summed error radii of the two
    base points, and no circle distance exceeds 1/2: the eps test is decided
    on that interval capped at 1/2, and raises
    :class:`PrecisionExhaustedError` where the interval straddles eps.
    """
    rows = []
    for t, state in reference_flow_zero_states(roof, f, start, t_max):
        base = circle_distance(Fraction(start.a.mantissa, ONE), Fraction(state.a.mantissa, ONE))
        radius = Fraction(start.a.err_ulps + state.a.err_ulps, ONE)
        height = abs(start.b - state.b)
        if height >= eps or base - radius >= eps:
            continue
        if min(base + radius, HALF) >= eps:
            raise PrecisionExhaustedError("ambiguous eps test")
        rows.append((t, Fraction(0), max(base, height)))
    return rows


# --------------------------------------------------------------------------- #
# torus-winding references
# --------------------------------------------------------------------------- #


def reference_winding_zero_times(winding, f, p, t_max: float) -> list[float]:
    """Zeros of the winding orbit integral in ``(0, t_max]``, one grid point at a time.

    The former :func:`ergolab.cocycles.winding_zero_times`, unchanged: the
    scalar libm sum at each grid point, and each sign-change bracket
    bisected to 1e-12 before the scan moves on.  Past ``t = 2**13`` one
    ulp exceeds 1e-12 and a bisection never ends, so compare horizons
    below that.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    grid_step = 1.0 / (8 * f.max_frequency() * (1 + abs(winding.slope)))
    tol = 1e-12

    modes = cocycles._winding_modes(winding, f, p)

    def sigma(t: float) -> float:
        return cocycles._winding_sum(modes, t)

    # scan one grid step past the horizon so a zero sitting exactly at t_max
    # still gets a sign-change bracket (float residue there can have either
    # sign); accepted zeros are clamped back to the horizon.
    zeros: list[float] = []
    steps = int(math.ceil(t_max / grid_step)) + 1
    slack = 8 * tol
    prev_t, prev_v = 0.0, 0.0  # sigma(0) = 0 by definition; not a reported zero
    for i in range(1, steps + 1):
        t = i * grid_step
        v = sigma(t)
        if v == 0.0:
            if t <= t_max + slack:
                zeros.append(min(t, t_max))
        elif prev_v == 0.0:
            pass  # zero already handled at the previous grid point (or t=0)
        elif (prev_v < 0 < v) or (v < 0 < prev_v):
            lo, hi = prev_t, t
            flo = prev_v
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fmid = sigma(mid)
                if fmid == 0.0:
                    lo = hi = mid
                    break
                if (flo < 0) == (fmid < 0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            root = 0.5 * (lo + hi)
            if root <= t_max + slack:
                zeros.append(min(root, t_max))
        prev_t, prev_v = t, v
    return [z for z in zeros if z > 0]


def reference_winding_near_rows(winding, f, start, t_max: float, eps: float):
    """``(time, residual, distance)`` rows of the winding zero/near scan, zero by zero.

    Every zero of :func:`reference_winding_zero_times` takes the exact flow
    on the 192-bit grid and the guarded distance, whose float is tested
    against ``eps``; the residual is the closed-form integral there.
    """
    rows = []
    for t in reference_winding_zero_times(winding, f, start, t_max):
        d = float(winding.distance(start, winding.flow(start, t)))
        if d < eps:
            rows.append((t, cocycles.winding_integral(winding, f, start, t), d))
    return rows


# --------------------------------------------------------------------------- #
# per-step cascade references
# --------------------------------------------------------------------------- #


def walk_points(base, x, count: int):
    """``S x, ..., S^count x``, one ``apply`` per step."""
    p = x
    for _ in range(count):
        p = base.apply(p)
        yield p


def eps_side(p, x, eps: Fraction, step: int) -> tuple[bool, Fraction]:
    """``(d(p, x) < eps, nominal distance)`` on the ``Fraction`` error interval.

    No circle distance exceeds 1/2, so the interval is capped there.  Raises
    :class:`PrecisionExhaustedError` with ``step`` where it straddles eps.
    """
    delta = Fraction((p.mantissa - x.mantissa) % ONE, ONE)
    distance = min(delta, 1 - delta)
    radius = Fraction(p.err_ulps + x.err_ulps, ONE)
    if min(distance + radius, HALF) < eps:
        return True, distance
    if distance - radius >= eps:
        return False, distance
    raise PrecisionExhaustedError("ambiguous eps test", step=step)


def reference_zero_times(base, f, x, count: int) -> list[int]:
    """Times ``n <= count`` with ``S_n = 0``, every step of ``birkhoff_sums``."""
    return [n for n, s in enumerate(cocycles.birkhoff_sums(base, f, x, count), start=1) if s == 0]


def reference_near_times(base, x, count: int, eps: Fraction) -> list[int]:
    """Times ``n <= count`` with ``d(S^n x, x) < eps``, stepping every point."""
    points = walk_points(base, x, count)
    return [n for n, p in enumerate(points, start=1) if eps_side(p, x, eps, n)[0]]


def reference_rotation_near_times(rotation, count: int, eps: Fraction) -> list[int]:
    """Times ``n <= count`` with ``||n alpha|| < eps``, each decided by :func:`eps_side`.

    The displacement ``n alpha`` is ``n`` times the resolved angle's mantissa
    with ``n`` times its radius.  A displacement whose correctly rounded float
    distance lies more than ``2**-40`` from ``float(eps)`` skips ``eps_side``,
    which would decide it the same way: the float distance is within
    ``2**-54`` of the nominal one, ``float(eps)`` is within ``2**-52`` of an
    eps below 2 (and at least 1 for any larger eps, above every distance),
    and the radius stays below ``2**-60``.
    """
    alpha = rotation.alpha.resolved
    assert count * alpha.err_ulps < ONE >> 60, "the float shortcut needs a radius below 2**-60"
    origin, eps_float = FixedReal(0), float(eps)
    times = []
    for n in range(1, count + 1):
        m = n * alpha.mantissa % ONE
        distance = min(m, ONE - m) / ONE
        if abs(distance - eps_float) > 2.0**-40:
            near = distance < eps_float
        else:
            near = eps_side(FixedReal(m, n * alpha.err_ulps), origin, eps, n)[0]
        if near:
            times.append(n)
    return times


def reference_joint_rows(base, f, x, count: int, eps: Fraction) -> list[tuple[int, float]]:
    """``(n, distance)`` at zero times that are near times, in step order."""
    rows = []
    steps = zip(cocycles.birkhoff_sums(base, f, x, count), walk_points(base, x, count))
    for n, (s, p) in enumerate(steps, start=1):
        if s == 0:
            near, distance = eps_side(p, x, eps, n)
            if near:
                rows.append((n, float(distance)))
    return rows


def reference_excess_counts(base, f, n_list, eps: Fraction, xs) -> dict[int, int]:
    """Exceedance counts per n, each raw start ``x = raw / 2**64`` stepped through ``birkhoff_sums``."""
    counts = dict.fromkeys(n_list, 0)
    for raw in xs:
        sums = list(cocycles.birkhoff_sums(base, f, FixedReal(raw << 128), max(n_list)))
        for n in counts:
            counts[n] += abs(sums[n - 1]) * eps.denominator > eps.numerator * n
    return counts


def reference_excess(base, f, n_list, eps: Fraction, samples: int, seed: int):
    """``P(|S_n| > eps n)`` with each seeded sample stepped through ``birkhoff_sums``."""
    xs = np.random.default_rng(seed).integers(0, 1 << 64, size=samples, dtype=np.uint64)
    counts = reference_excess_counts(base, f, n_list, eps, xs.tolist())
    return [(n, counts[n] / samples) for n in n_list]


def kernel_excess(base, f, n_list, eps: Fraction, xs) -> dict[int, int]:
    """Exceedance counts per n from ``certified_cells`` over every orbit point.

    ``xs`` are raw 64-bit starts ``x = raw / 2**64``, each scanned on its
    own; a refusal names the earliest refused step of any start, then the
    first such start (a refusal without a step comes first).  ``f`` must
    keep ``max |v| * max(n_list)`` below ``2**62``.
    """
    values = np.asarray(f.values, dtype=np.int64)
    counts = dict.fromkeys(n_list, 0)
    refusals = []
    for r, raw in enumerate(xs):
        start = FixedReal(raw << (SCALE - 64))
        try:
            scan = cocycles.certified_cells(base, f.walls, start, max(n_list))
            sums = np.cumsum(values[np.concatenate([cells for _, cells in scan])])
        except PrecisionExhaustedError as exc:
            refusals.append((-1 if exc.step is None else exc.step, r, exc))
            continue
        for n in counts:
            # |S_n| * den > num * n  iff  |S_n| > floor(num * n / den); |S_n| < 2**62
            counts[n] += int(abs(sums[n - 1]) > min(eps.numerator * n // eps.denominator, 1 << 62))
    if refusals:
        raise min(refusals, key=lambda refusal: refusal[:2])[2]
    return counts


def rational_excess(alpha: Fraction, f, n_list, eps: Fraction, xs) -> dict[int, int]:
    """Exceedance counts per n from each raw start's closed-form orbit-class sums.

    Every start ``x = raw / 2**64`` steps one period of the rational angle
    ``alpha`` on ``cocycles.rational_walk``, and ``S_n`` follows from that
    lap's prefix sums.
    """
    counts = dict.fromkeys(n_list, 0)
    q = alpha.denominator
    for raw in xs:
        lap = cocycles.rational_walk(alpha, f, Fraction(raw, 1 << 64), q)
        prefix = [0, *[total for total, _ in lap]]
        for n in counts:
            total = n // q * prefix[q] + prefix[n % q]
            counts[n] += abs(total) * eps.denominator > eps.numerator * n
    return counts


# --------------------------------------------------------------------------- #
# one-step maps and sample histograms
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class CascadeState:
    """A point ``(x, z)`` of the cylinder: base point and exact integer fiber."""

    x: FixedReal
    z: int


def cascade_apply(base: BaseMap, f, state: CascadeState) -> CascadeState:
    """One cascade step ``(x, z) -> (Sx, z + f(x))``."""
    if not f.is_integer:
        raise ValueError("the cascade fiber needs an integer-valued cocycle")
    return CascadeState(base.apply(state.x), state.z + f.value_at(state.x))


def skew_step(system, state):
    """One skew-product step ``(x, y) -> (Sx, T^{n(x)} y)``, without the exponent."""
    return system.step(state)[0]


def fraction_exchange(lengths: Sequence[Fraction], permutation: Sequence[int], y: Fraction, n: int) -> Fraction:
    """``T^n y`` in exact rationals for the exchange of ``lengths`` by ``permutation``; negative ``n`` inverts.

    ``y`` lies in ``[0, 1)``.  Interval ``i`` starts at the sum of the
    lengths before it and lands at the sum of the lengths whose image comes
    before its own.
    """
    m = len(lengths)
    starts = [sum(lengths[:i], Fraction(0)) for i in range(m)]
    images = [sum((lengths[j] for j in range(m) if permutation[j] < permutation[i]), Fraction(0))
              for i in range(m)]
    source, target = (starts, images) if n > 0 else (images, starts)
    for _ in range(abs(n)):
        i = next(i for i in range(m) if source[i] <= y < source[i] + lengths[i])
        y += target[i] - source[i]
    return y


def interval_cell_fractions(samples: Sequence[float], n_cells: int) -> list[float]:
    """Fraction of circle samples in each cell of a uniform partition of [0, 1)."""
    if n_cells <= 0:
        raise ValueError("need a positive cell count")
    counts = [0] * n_cells
    for x in samples:
        counts[min(int(x * n_cells), n_cells - 1)] += 1
    n = len(samples)
    if n == 0:
        raise ValueError("empty sample")
    return [c / n for c in counts]
