"""Output checks behind ``failed_ratio``; they run outside the timed region.

``check_experiment`` returns a list of problems (empty when the outcome is
right) for one experiment's run directory.  What counts as right:

* every run writes a manifest whose config digest matches the canonical
  config bytes, with status ``ok`` — or, for an expected refusal,
  ``PrecisionExhaustedError`` at the step recorded in ``expected.json``;
* ``zero_sums`` over irrational rotations agrees with the ``birkhoff_sums``
  reference on a prefix that contains the seeded near-wall step;
  ``joint_returns`` equals zeros intersected with near times; near times
  satisfy ``||n alpha|| < eps`` on an independently computed angle;
* rational and dyadic-IET scans equal the pure-rational loops of
  ``oracle.py``;
* flow zeros are exact zeros of the orbit integral (every row against one
  exact profile, a few rows re-derived with ``orbit_integral``); winding
  residuals are at most 1e-9 with distance below eps;
* induced statistics are uncensored and consistent, with Kac's product and
  the mean induced cocycle within 6 standard errors of 1 and 0; the skew
  fiber displacement equals the Birkhoff sum S_N f(x0).

Byte-identity across passes, and against the digests recorded for the
default seed, is checked by the runner from ``file_digests``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import oracle
from workloads import ONE, Experiment, surd_mantissa

RESULT_FILES = ("config.json", "results.csv", "results.json")


def file_digests(run_dir: Path) -> dict[str, str]:
    """SHA-256 of the deterministic files of one run directory."""
    out = {}
    for name in RESULT_FILES:
        path = run_dir / name
        if path.exists():
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def read_rows(run_dir: Path) -> tuple[list[str], list[list[str]]]:
    with open(run_dir / "results.csv", newline="", encoding="ascii") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def decimal_text(value: Fraction, digits: int = 30) -> str:
    """Round-half-up rendering with ``digits`` fractional digits (integers bare)."""
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10**digits
    units, rest = divmod(scaled.numerator, scaled.denominator)
    if 2 * rest >= scaled.denominator:
        units += 1
    whole, frac = divmod(units, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def exact_time(text: str) -> Fraction:
    """The exact rational behind a 30-digit rendering of a small-denominator time."""
    value = Fraction(text).limit_denominator(10**9)
    if decimal_text(value) != text:
        raise ValueError(f"{text} is not the rendering of a small-denominator rational")
    return value


def check_experiment(exp: Experiment, cfg, run_dir: Path, outcome: BaseException | None,
                     expected_refusals: dict, outputs: dict[str, Path]) -> list[str]:
    """Problems with one experiment's outcome; ``outputs`` maps names to run dirs."""
    import ergolab

    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        return [f"no manifest ({outcome!r})"]
    manifest = json.loads(manifest_path.read_text(encoding="ascii"))
    problems = []
    if manifest["config_digest"] != exp.digest():
        problems.append("manifest digest differs from the canonical config digest")
    if exp.check["kind"] == "refusal":
        want = expected_refusals.get(exp.check["key"])
        if want is None:
            return problems + [f"no recorded refusal for {exp.check['key']}"]
        if not isinstance(outcome, ergolab.PrecisionExhaustedError):
            return problems + [f"expected PrecisionExhaustedError, got {outcome!r}"]
        if outcome.step != want["step"] or manifest.get("error_step") != want["step"]:
            problems.append(f"refused at step {outcome.step}, expected {want['step']}")
        if manifest["status"] != "error":
            problems.append("refusal manifest does not say error")
        return problems
    if outcome is not None:
        return problems + [f"unexpected {type(outcome).__name__}: {outcome}"]
    if manifest["status"] != "ok":
        problems.append(f"status {manifest['status']}")
    try:
        problems += CHECKS[exp.check["kind"]](exp, cfg, run_dir, outputs)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        problems.append(f"unreadable results: {type(exc).__name__}: {exc}")
    return problems


def _times(rows: list[list[str]]) -> list[int]:
    return [int(row[0]) for row in rows]


def _increasing_within(times: list[int], count: int) -> list[str]:
    if any(b <= a for a, b in zip(times, times[1:])) or (times and not 1 <= times[0] <= times[-1] <= count):
        return ["times are not increasing within 1..count"]
    return []


def _zero_sums_prefix(exp, cfg, run_dir, outputs):
    from ergolab import FixedReal, birkhoff_sums

    header, rows = read_rows(run_dir)
    times = _times(rows)
    problems = _increasing_within(times, cfg.detector_args["count"])
    if header != ["time", "value"] or any(row[1] != "0" for row in rows):
        problems.append("zero_sums rows must read time,0")
    prefix = exp.check["prefix"]
    x = FixedReal.of(cfg.detector_args["x"]).frac()
    reference = [n for n, s in enumerate(birkhoff_sums(cfg.system, cfg.cocycle, x, prefix), 1)
                 if s == 0]
    if [t for t in times if t <= prefix] != reference:
        problems.append(f"zeros up to step {prefix} differ from the birkhoff_sums reference")
    return problems


def _within_eps(n: int, alpha_m: int, eps: Fraction) -> bool:
    disp = n * alpha_m % ONE
    return min(disp, ONE - disp) * eps.denominator < eps.numerator * ONE


def _joint_intersection(exp, cfg, run_dir, outputs):
    zeros_dir = outputs[exp.check["zeros_from"]]
    zeros = _times(read_rows(zeros_dir)[1])
    alpha_m = surd_mantissa(*exp.check["alpha"])
    eps = cfg.detector_args["eps"]
    want = [n for n in zeros if _within_eps(n, alpha_m, eps)]
    header, rows = read_rows(run_dir)
    problems = []
    if _times(rows) != want:
        problems.append("joint times differ from zeros intersected with near times")
    if any(not float(row[2]) < eps for row in rows):
        problems.append("a joint distance is not below eps")
    return problems


def _near_displacement(exp, cfg, run_dir, outputs):
    _, rows = read_rows(run_dir)
    times = _times(rows)
    args = cfg.detector_args
    alpha_m = surd_mantissa(*exp.check["alpha"])
    problems = _increasing_within(times, args["count"])
    if not all(_within_eps(n, alpha_m, args["eps"]) for n in times):
        problems.append("a reported near time has ||n alpha|| >= eps")
    # equidistribution: about 2 * eps * count times qualify
    expected = 2 * float(args["eps"]) * args["count"]
    if abs(len(times) - expected) > 0.2 * expected:
        problems.append(f"{len(times)} near times, expected about {expected:.0f}")
    return problems


def _oracle(exp, cfg, run_dir, outputs):
    config = exp.config
    det = config["detector"]
    x = Fraction(det["start"])
    count = det["count"]
    header, rows = read_rows(run_dir)
    times = _times(rows)
    if det["kind"] == "near_returns":
        want = oracle.near_times(config["system"], x, count, Fraction(det["eps"]))
    else:
        want = oracle.zero_times(config["system"], config["cocycle"], x, count)
        if any(row[1] != "0" for row in rows):
            return ["zero-sum rows must have value 0"]
    if det["kind"] == "joint_returns":
        eps = Fraction(det["eps"])
        near = set(oracle.near_times(config["system"], x, count, eps))
        want = [n for n in want if n in near]
        if any(not Fraction(row[2]) < eps for row in rows):
            return ["a joint distance is not below eps"]
    if times != want:
        return [f"{len(times)} times differ from the pure-rational loop ({len(want)})"]
    return []


def _sublinearity(exp, cfg, run_dir, outputs):
    header, rows = read_rows(run_dir)
    samples = cfg.samples
    problems = []
    if [int(row[0]) for row in rows] != cfg.detector_args["n_list"]:
        problems.append("n column differs from n_list")
    for row in rows:
        p = float(row[1])
        if not 0 <= p <= 1 or abs(p * samples - round(p * samples)) > 1e-6:
            problems.append(f"probability {row[1]} is not a count over {samples} samples")
    return problems


def _summary(run_dir: Path) -> dict:
    return json.loads((run_dir / "results.json").read_text(encoding="ascii"))


def _induced(exp, cfg, run_dir, outputs):
    _, rows = read_rows(run_dir)
    table = {row[0]: row[1] for row in rows}
    summary = _summary(run_dir)
    measure = float(Fraction(exp.check["measure"]))
    problems = []
    for key in ("mean_return", "se_return", "mean_cocycle", "se_cocycle", "kac_product"):
        if float(table[key]) != summary[key]:
            problems.append(f"{key} differs between results.csv and results.json")
    mean_n, se_n = float(table["mean_return"]), float(table["se_return"])
    mean_f, se_f = float(table["mean_cocycle"]), float(table["se_cocycle"])
    kac = float(table["kac_product"])
    if int(table["censored"]) != 0:
        problems.append(f"{table['censored']} censored excursions")
    if int(table["samples"]) != cfg.samples:
        problems.append("sample count differs from the config")
    if not math.isclose(kac, mean_n * measure, rel_tol=1e-12):
        problems.append("kac_product is not mean_return * mu(A)")
    if abs(kac - 1) > 6 * se_n * measure:
        problems.append(f"Kac product {kac} is more than 6 SE from 1")
    if abs(mean_f) > 6 * se_f:
        problems.append(f"mean induced cocycle {mean_f} is more than 6 SE from 0")
    return problems


def _skew(exp, cfg, run_dir, outputs):
    from ergolab import birkhoff_sums

    _, rows = read_rows(run_dir)
    summary = _summary(run_dir)
    problems = []
    args = cfg.detector_args
    total = 0
    for total in birkhoff_sums(cfg.system, cfg.cocycle, args["start"].x, args["steps"]):
        pass
    if int(rows[-1][1]) != total or summary["fiber_displacement"] != total:
        problems.append(f"fiber displacement {rows[-1][1]} is not S_N f(x0) = {total}")
    averages = [float(row[1]) for row in rows[:-1]]
    if averages != summary["averages"] or not all(0 <= a <= 1 for a in averages):
        problems.append("rectangle averages are inconsistent or outside [0, 1]")
    return problems


def _flow_zeros(exp, cfg, run_dir, outputs):
    from ergolab import integral_profile, orbit_integral, special_flow_step
    from ergolab.systems import flow_distance

    header, rows = read_rows(run_dir)
    args = cfg.detector_args
    roof, f, start = cfg.system, cfg.cocycle, args["start"]
    times = [exact_time(row[0]) for row in rows]
    problems = []
    if any(b <= a for a, b in zip(times, times[1:])) or (times and not 0 < times[0] <= times[-1] <= args["t_max"]):
        problems.append("flow times are not increasing within (0, t_max]")
    if any(row[1] != "0" for row in rows):
        problems.append("flow zero rows must have value 0")
    nodes = integral_profile(roof, f, start, args["t_max"]).nodes
    node_times = [t for t, _ in nodes]
    for t in times:
        j = bisect_right(node_times, t) - 1
        (t1, s1), (t2, s2) = nodes[j], nodes[min(j + 1, len(nodes) - 1)]
        value = s1 if t2 == t1 else s1 + (s2 - s1) * (t - t1) / (t2 - t1)
        if value != 0:
            problems.append(f"orbit integral is {value} at reported zero {t}")
            break
    for t in times[:3]:
        state, _ = special_flow_step(roof, start, t)
        if orbit_integral(roof, f, start, t) != 0:
            problems.append(f"orbit_integral is not 0 at {t}")
        if "target" in args and not args["target"].contains_state(state):
            problems.append(f"state at {t} is outside the target")
        if "eps" in args and decimal_text(flow_distance(roof, start, state)) != rows[times.index(t)][2]:
            problems.append(f"distance at {t} differs from the recomputed one")
    if "target" in args and any(row[2] != "1" for row in rows):
        problems.append("flow_set_returns rows must be in the set")
    if "eps" in args and any(not Fraction(row[2]) < args["eps"] for row in rows):
        problems.append("a flow distance is not below eps")
    return problems


def _winding_zeros(exp, cfg, run_dir, outputs):
    from ergolab import winding_integral

    _, rows = read_rows(run_dir)
    args = cfg.detector_args
    eps = float(args["eps"])
    problems = []
    for row in rows:
        t, value, distance = (float(v) for v in row)
        residual = winding_integral(cfg.system, cfg.cocycle, args["start"], t)
        if abs(value) > 1e-9 or abs(residual) > 1e-9 or not distance < eps:
            problems.append(f"winding zero at t={t}: residual {value}, distance {distance}")
    return problems


CHECKS = {
    "zero_sums_prefix": _zero_sums_prefix,
    "joint_intersection": _joint_intersection,
    "near_displacement": _near_displacement,
    "oracle": _oracle,
    "sublinearity": _sublinearity,
    "induced": _induced,
    "skew": _skew,
    "flow_zeros": _flow_zeros,
    "winding_zeros": _winding_zeros,
}


def corrupt_first_row(run_dir: Path) -> None:
    """Change one number in the first data row of results.csv (self-test input)."""
    path = run_dir / "results.csv"
    lines = path.read_text(encoding="ascii").split("\n")
    cells = lines[1].split(",")
    k = 1 if not cells[0][:1].isdigit() else 0
    value = Fraction(cells[k])
    cells[k] = str(value + 1) if value.denominator == 1 else decimal_text(value * 3 / 2)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="ascii")
