"""Seeded experiment batches for the four benchmark workloads.

Every batch is drawn from ``random.Random`` seeded by the workload name and
the ``--seed`` argument, so the same seed always gives byte-identical
configs.  The program under test only ever sees the config documents; the
``check`` entry next to each config is what the output checks in
``checks.py`` need to know about it.

Record-heavy scans (``zero_sums`` over irrational rotations, the dyadic
interval exchange) have a zero count that depends strongly on the start.
So that a pass does a comparable amount of work on every seed, starts are
drawn until an estimate of the zero count falls near a fixed target.  The
estimate uses the benchmark's own integer arithmetic, never ``ergolab``.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

WORKLOADS = ("rotation-scan", "distribution", "flow-integrals", "reference-scan")

ONE = 1 << 192

GOLDEN = ("preset:golden", (-1, 1, 5, 2))
SQRT2 = ("preset:sqrt2", (0, 1, 2, 1))
# Third irrational angle of rotation-scan, as (a, b, c, d) = (a + b*sqrt(c))/d.
# Each has starts with about ZERO_SUMS_TARGET zeros under the 2-cell cocycle
# ((-1+sqrt(13))/6, for one, has none between 88k and 141k).
EXTRA_SURDS = ((1, 1, 3, 4), (0, 1, 7, 3), (2, 1, 11, 7), (1, 1, 6, 5))

HALF_STEP = {"kind": "step", "breakpoints": ["0", "1/2"], "values": [1, -1]}
DYADIC_IET = {
    "kind": "interval_exchange",
    "lengths": ["1/8", "1/4", "3/8", "1/4"],
    "permutation": [4, 3, 2, 1],
}
# Non-dyadic walls: orbits from multiples of 1/10 land on a wall with a
# nonzero error radius, which the guarded grid must refuse.
REFUSAL_IET = {
    "kind": "interval_exchange",
    "lengths": ["3/10", "1/5", "1/2"],
    "permutation": [3, 2, 1],
}
REFUSAL_STARTS = ("0", "1/10", "1/5", "3/10", "2/5", "1/2", "3/5", "7/10", "4/5", "9/10")

ZERO_SUMS_STEPS = 10**6
ZERO_SUMS_TARGET = 120_000  # zeros per 10^6-step rotation scan
NEAR_STEPS = 10**8
FLOW_STEPS = 30_000  # t_max of the golden flows: one roof crossing per unit time
FLOW_ZEROS_TARGET = 6_500
ROOF3_ZEROS_TARGET = 6_000


@dataclass
class Experiment:
    """One config of a batch plus what its output check needs."""

    name: str
    config: dict
    check: dict = field(default_factory=dict)

    @property
    def detector(self) -> str:
        return self.config["detector"]["kind"]

    def digest(self) -> str:
        """SHA-256 of the canonical config bytes (sorted keys, compact, ASCII)."""
        text = json.dumps(self.config, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
        return hashlib.sha256(text.encode("ascii")).hexdigest()


def batch_digest(batch: list[Experiment]) -> str:
    return hashlib.sha256("".join(e.digest() for e in batch).encode("ascii")).hexdigest()


def build(workload: str, seed: int) -> list[Experiment]:
    rng = random.Random(f"perfbench/{workload}/{seed}")
    builders = {
        "rotation-scan": _rotation_scan,
        "distribution": _distribution,
        "flow-integrals": _flow_integrals,
        "reference-scan": _reference_scan,
    }
    batch = builders[workload](rng)
    for i, exp in enumerate(batch):
        exp.name = f"{i:02d}-{exp.name}"
        exp.config["output"] = {"directory": exp.name, "formats": ["csv", "json"]}
    return batch


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #


def surd_mantissa(a: int, b: int, c: int, d: int) -> int:
    """(a + b*sqrt(c))/d mod 1 on the 2^-192 grid, within 2 ulps (integer sqrt)."""
    shift = 256
    root = math.isqrt(c << (2 * shift))
    value = ((a << shift) + b * root) // d
    return (value % (1 << shift)) >> (shift - 192)


def surd_text(surd: tuple[int, int, int, int]) -> str:
    a, b, c, d = surd
    return f"surd:({a}{'+' if b >= 0 else '-'}{abs(b)}*sqrt({c}))/{d}"


def angle_tag(text: str) -> str:
    """Short directory-safe label: ``golden``, ``sqrt2``, ``surd3`` ..."""
    if text.startswith("preset:"):
        return text.split(":")[1]
    return "surd" + text.split("sqrt(")[1].split(")")[0]


def step_cocycle(walls: list[Fraction], values: list[int]) -> dict:
    return {"kind": "step", "breakpoints": [str(w) for w in walls], "values": list(values)}


def _random_rational(rng: random.Random) -> Fraction:
    q = rng.randrange(3, 98)
    return Fraction(rng.randrange(1, q), q)


def _odd_rational(rng: random.Random) -> Fraction:
    """A start with odd denominator: never within 1/(8q) of a dyadic wall."""
    q = rng.randrange(3, 100, 2)
    return Fraction(rng.randrange(1, q), q)


def estimate_zero_sums(alpha_m: int, walls: list[Fraction], values: list[int],
                       x_m: int, steps: int, chunk: int = 1 << 16) -> int:
    """Zeros and sign changes of S_n on the top 64 bits of the grid (load estimate only)."""
    walls64 = np.array([int(w * (1 << 64)) for w in walls], dtype=np.uint64)
    vals = np.asarray(values, dtype=np.int64)
    a64 = np.uint64(alpha_m >> 128)
    x64 = np.uint64(x_m >> 128)
    total = zeros = 0
    for offset in range(0, steps, chunk):
        length = min(chunk, steps - offset)
        points = x64 + np.arange(offset, offset + length, dtype=np.uint64) * a64
        sums = np.cumsum(vals[np.searchsorted(walls64, points, side="right") - 1]) + total
        previous = np.concatenate(([total], sums[:-1]))
        # a zero of S_n, or a sign change between steps (a flow profile
        # crosses 0 inside the segment)
        zeros += int(np.count_nonzero((sums == 0) | (previous * sums < 0)))
        total = int(sums[-1])
    return zeros


def near_wall_start(rng: random.Random, alpha_m: int, walls: list[Fraction],
                    values: list[int]) -> tuple[Fraction, int]:
    """A start whose orbit passes within ~1e-25 of an interior wall at a seeded step.

    Candidates differ in the wall, the step and the side; the one whose
    estimated zero count is closest to ``ZERO_SUMS_TARGET`` wins.
    """
    best = None
    for _ in range(60):
        wall = rng.choice(walls[1:])
        step = rng.randrange(500, 5000)
        side = rng.choice((-1, 1))
        delta = side * int((1 + rng.random()) * 1e-25 * 2**112) << 80  # 1e-25..2e-25
        x_m = (wall.numerator * ONE // wall.denominator - step * alpha_m + delta) % ONE
        # nudge the estimate 2^-34 towards the chosen side so the near-wall
        # step classifies as it will on the exact grid
        est_m = (x_m + side * (1 << 158)) % ONE
        zeros = estimate_zero_sums(alpha_m, walls, values, est_m, ZERO_SUMS_STEPS)
        miss = abs(zeros - ZERO_SUMS_TARGET)
        if best is None or miss < best[0]:
            best = (miss, Fraction(x_m, ONE), step)
        if miss <= ZERO_SUMS_TARGET * 2 // 25:
            break
    return best[1], best[2]


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #


def _rotation_scan(rng: random.Random) -> list[Experiment]:
    extra = rng.choice(EXTRA_SURDS)
    angles = [GOLDEN, SQRT2, (surd_text(extra), extra)]
    half = ([Fraction(0), Fraction(1, 2)], [1, -1])
    quarter_walls = [Fraction(k, 4) for k in range(4)]
    four = (quarter_walls, [1, -1, 2, -2])
    slots = [(angles[0], half), (angles[1], four), (angles[2], half)]
    batch = []
    starts = []
    for (text, surd), (walls, values) in slots:
        alpha_m = surd_mantissa(*surd)
        start, step = near_wall_start(rng, alpha_m, walls, values)
        starts.append(start)
        batch.append(Experiment(
            f"zero_sums-{angle_tag(text)}",
            {
                "system": {"kind": "rotation", "angle": text},
                "cocycle": step_cocycle(walls, values),
                "detector": {"kind": "zero_sums", "start": str(start),
                             "count": ZERO_SUMS_STEPS},
            },
            {"kind": "zero_sums_prefix", "prefix": step + 2000, "near_wall_step": step},
        ))
    eps = Fraction(1, rng.randrange(100, 200))
    batch.append(Experiment(
        "joint_returns-golden",
        {
            "system": {"kind": "rotation", "angle": GOLDEN[0]},
            "cocycle": step_cocycle(*half),
            "detector": {"kind": "joint_returns", "start": str(starts[0]),
                         "count": ZERO_SUMS_STEPS, "eps": str(eps)},
        },
        {"kind": "joint_intersection", "zeros_from": 0, "alpha": GOLDEN[1]},
    ))
    # one kernel-bound scan: numpy work tracks the calibration loop less
    # closely than the record path, so more of it would widen the spread
    eps = Fraction(1, rng.randrange(800_000, 1_200_000))
    batch.append(Experiment(
        "near_returns-sqrt2",
        {
            "system": {"kind": "rotation", "angle": SQRT2[0]},
            "detector": {"kind": "near_returns", "start": "0", "count": NEAR_STEPS,
                         "eps": str(eps)},
        },
        {"kind": "near_displacement", "alpha": SQRT2[1]},
    ))
    return batch


def _distribution(rng: random.Random) -> list[Experiment]:
    batch = [Experiment(
        "induced-golden",
        {
            "system": {"kind": "rotation", "angle": GOLDEN[0]},
            "cocycle": HALF_STEP,
            "detector": {"kind": "induced", "target": {"intervals": [["0", "1/2"]]}},
            "sampling": {"samples": 10_000, "seed": rng.randrange(1 << 30)},
        },
        {"kind": "induced", "measure": "1/2"},
    )]
    while True:  # two separated slots of width 1/8: a two-interval A of measure 1/4
        lo, hi = sorted(rng.sample(range(8), 2))
        if hi - lo >= 2:
            break
    intervals = [[str(Fraction(k, 8)), str(Fraction(k + 1, 8))] for k in (lo, hi)]
    batch.append(Experiment(
        "induced-sqrt2",
        {
            "system": {"kind": "rotation", "angle": SQRT2[0]},
            "cocycle": HALF_STEP,
            "detector": {"kind": "induced", "target": {"intervals": intervals}},
            "sampling": {"samples": 7_000, "seed": rng.randrange(1 << 30)},
        },
        {"kind": "induced", "measure": "1/4"},
    ))
    batch.append(Experiment(
        "sublinearity-golden",
        {
            "system": {"kind": "rotation", "angle": GOLDEN[0]},
            "cocycle": HALF_STEP,
            "detector": {"kind": "sublinearity", "n_list": [100, 1000, 10_000],
                         "eps": str(Fraction(1, rng.randrange(20, 31)))},
            "sampling": {"samples": 7_000, "seed": rng.randrange(1 << 30)},
        },
        {"kind": "sublinearity"},
    ))
    fibers = [("rotation", {"kind": "rotation", "angle": SQRT2[0]}, 2),
              ("iet", DYADIC_IET, 1)]
    for tag, fiber, n_rects in fibers:
        rects = []
        for _ in range(n_rects):
            x0 = rng.randrange(0, 8)
            y0 = rng.randrange(0, 8)
            rects.append([[str(Fraction(x0, 16)), str(Fraction(x0 + 8, 16))],
                          [str(Fraction(y0, 16)), str(Fraction(y0 + 8, 16))]])
        batch.append(Experiment(
            f"skew_orbit-{tag}",
            {
                "system": {"kind": "rotation", "angle": GOLDEN[0]},
                "cocycle": HALF_STEP,
                "detector": {"kind": "skew_orbit", "fiber": fiber,
                             "start": {"x": str(_random_rational(rng)),
                                       "y": str(_random_rational(rng))},
                             "steps": 10_000, "rectangles": rects},
            },
            {"kind": "skew"},
        ))
    return batch


def _flow_integrals(rng: random.Random) -> list[Experiment]:
    golden_flow = {"kind": "special_flow", "angle": GOLDEN[0],
                   "roof_breakpoints": ["0", "1/2"], "roof_heights": ["1", "1"]}

    def balanced_start(surd, walls, areas, crossings, target) -> Fraction:
        """A start whose profile has about ``target`` zeros.

        At the k-th roof crossing the orbit integral is the Birkhoff sum of
        height * phase value over the base cells, and between crossings it
        is monotone, so its zeros are the zeros and sign changes of that sum.
        """
        alpha_m = surd_mantissa(*surd)
        best = None
        for _ in range(60):
            x = _random_rational(rng)
            zeros = estimate_zero_sums(alpha_m, walls, areas,
                                       x.numerator * ONE // x.denominator, crossings)
            miss = abs(zeros - target)
            if best is None or miss < best[0]:
                best = (miss, x)
            if miss <= target // 10:
                break
        return best[1]

    half = [Fraction(0), Fraction(1, 2)]

    pm_phase = {"kind": "phase", "values": [1, -1]}
    batch = [Experiment(
        "flow_set_returns-golden",
        {
            "system": golden_flow,
            "cocycle": pm_phase,
            "detector": {"kind": "flow_set_returns",
                         "start": {"x": str(balanced_start(GOLDEN[1], half, [1, -1], FLOW_STEPS,
                                                           FLOW_ZEROS_TARGET)),
                                   "height": "0"},
                         "t_max": str(FLOW_STEPS), "target": {"intervals": [["0", "1/3"]]}},
        },
        {"kind": "flow_zeros"},
    )]
    # 3-cell roof: widths 1/4, 1/4, 1/2 and heights 1, 2, 3/2 give areas
    # 1/4, 1/2, 3/4, so the phase values (1, 1, -1) have mean zero.
    band_lo = Fraction(rng.randrange(0, 4), 8)
    # height * phase per cell is (1, 2, -3/2); doubled to integers.  The mean
    # height is 3/2, so t_max crosses the roof about 2 * FLOW_STEPS / 3 times.
    roof3_start = balanced_start(SQRT2[1], [Fraction(0), Fraction(1, 4), Fraction(1, 2)],
                                 [2, 4, -3], 2 * FLOW_STEPS // 3, ROOF3_ZEROS_TARGET)
    batch.append(Experiment(
        "flow_set_returns-roof3",
        {
            "system": {"kind": "special_flow", "angle": SQRT2[0],
                       "roof_breakpoints": ["0", "1/4", "1/2"],
                       "roof_heights": ["1", "2", "3/2"]},
            "cocycle": {"kind": "phase", "values": [1, 1, -1]},
            "detector": {"kind": "flow_set_returns",
                         "start": {"x": str(roof3_start), "height": "0"},
                         "t_max": str(FLOW_STEPS),
                         "target": {"intervals": [["0", "1/2"]],
                                    "band": [str(band_lo), str(band_lo + Fraction(1, 2))]}},
        },
        {"kind": "flow_zeros"},
    ))
    batch.append(Experiment(
        "flow_near_returns-golden",
        {
            "system": golden_flow,
            "cocycle": pm_phase,
            "detector": {"kind": "flow_near_returns",
                         "start": {"x": str(balanced_start(GOLDEN[1], half, [1, -1], FLOW_STEPS,
                                                           FLOW_ZEROS_TARGET)),
                                   "height": "0"},
                         "t_max": str(FLOW_STEPS), "eps": "1/20"},
        },
        {"kind": "flow_zeros"},
    ))
    # the zero count of a winding integral grows with its frequencies
    # j + k*gamma, so the modes are fixed and only amplitudes and starts vary
    modes = [[1, 0], [0, 1], [1, -1]]
    for n_modes in (1, 2, 3):
        while True:
            terms = [[j, k, str(Fraction(rng.randrange(1, 9), 4)), str(Fraction(rng.randrange(0, 5), 4))]
                     for j, k in modes[:n_modes]]
            x, y = _random_rational(rng), _random_rational(rng)
            value = sum(float(Fraction(c)) * math.cos(2 * math.pi * (j * x + k * y))
                        + float(Fraction(s)) * math.sin(2 * math.pi * (j * x + k * y))
                        for j, k, c, s in terms)
            if abs(value) > 1e-3:  # the detector refuses a start where f vanishes
                break
        batch.append(Experiment(
            f"flow_near_returns-winding{n_modes}",
            {
                "system": {"kind": "torus_winding", "slope": SQRT2[0]},
                "cocycle": {"kind": "trig", "terms": terms},
                "detector": {"kind": "flow_near_returns",
                             "start": {"x": str(x), "y": str(y)},
                             "t_max": "800", "eps": "1/20"},
            },
            {"kind": "winding_zeros"},
        ))
    return batch


def _reference_scan(rng: random.Random) -> list[Experiment]:
    from oracle import zero_times  # benchmark-local, no ergolab

    batch = [Experiment(
        "zero_sums-rational-half",
        {
            "system": {"kind": "rotation", "angle": "rational:1/2"},
            "cocycle": HALF_STEP,
            "detector": {"kind": "zero_sums", "start": str(_random_rational(rng)),
                         "count": 250_000},
        },
        {"kind": "oracle"},
    )]
    q = rng.choice([10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079])
    p = rng.randrange(q // 4, 3 * q // 4)
    batch.append(Experiment(
        "zero_sums-rational-largeq",
        {
            "system": {"kind": "rotation", "angle": f"rational:{p}/{q}"},
            "cocycle": HALF_STEP,
            "detector": {"kind": "zero_sums", "start": str(_random_rational(rng)),
                         "count": 500_000},
        },
        {"kind": "oracle"},
    ))
    # the dyadic IET is periodic: keep a start whose zero count is high, so
    # the guarded per-step loop and the record path both carry load
    while True:
        x = _odd_rational(rng)
        if len(zero_times(DYADIC_IET, HALF_STEP, x, 10_000)) >= 4_000:
            break
    eps = str(Fraction(1, rng.randrange(64, 129)))
    for kind, extra in (("zero_sums", {}), ("near_returns", {"eps": eps}),
                        ("joint_returns", {"eps": eps})):
        config = {"system": DYADIC_IET,
                  "detector": {"kind": kind, "start": str(x), "count": 50_000, **extra}}
        if kind != "near_returns":
            config["cocycle"] = HALF_STEP
        batch.append(Experiment(f"{kind}-dyadic-iet", config, {"kind": "oracle"}))
    q_small = 29  # the rational estimator costs O(q) per sample: keep q fixed
    batch.append(Experiment(
        "sublinearity-rational",
        {
            "system": {"kind": "rotation", "angle": f"rational:{rng.randrange(1, q_small)}/{q_small}"},
            "cocycle": HALF_STEP,
            "detector": {"kind": "sublinearity", "n_list": [10, 100, 1000], "eps": "1/20"},
            "sampling": {"samples": 1000, "seed": rng.randrange(1 << 30)},
        },
        {"kind": "sublinearity"},
    ))
    batch.append(Experiment(
        "sublinearity-dyadic-iet",
        {
            "system": DYADIC_IET,
            "cocycle": HALF_STEP,
            "detector": {"kind": "sublinearity", "n_list": [10, 100], "eps": "1/20"},
            "sampling": {"samples": 1000, "seed": rng.randrange(1 << 30)},
        },
        {"kind": "sublinearity"},
    ))
    for kind in ("zero_sums", "near_returns", "joint_returns"):
        start = rng.choice(REFUSAL_STARTS)
        config = {"system": REFUSAL_IET,
                  "detector": {"kind": kind, "start": start, "count": 100_000}}
        if kind != "zero_sums":
            config["detector"]["eps"] = "1/100"
        if kind != "near_returns":
            config["cocycle"] = HALF_STEP
        batch.append(Experiment(f"{kind}-refusal", config,
                                {"kind": "refusal", "key": f"{kind}@{start}"}))
    return batch
