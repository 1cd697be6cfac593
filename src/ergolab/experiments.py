"""Declarative experiment runner: JSON config in, CSV/JSON artifacts + manifest out.

A config document names a system, a cocycle, a detector and its budgets;
:func:`run_experiment` validates it, executes the detector, and persists the
results together with a manifest carrying the canonical-config digest, tool
version, precision scale and any warnings raised during the run.  Identical
configs produce byte-identical result files (manifests differ only in their
wall-clock duration), which is what the determinism checks lean on.

Numbers inside configs are JSON strings parsed exactly (``"1/10"``,
``"0.35"``) so that no binary-float drift can enter through the config
itself; angles use the ``rational:p/q`` / ``preset:name`` /
``surd:(a+b*sqrt(c))/d`` syntax of :func:`ergolab.angles.parse_angle`.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import Any, Mapping, NoReturn, Sequence

import numpy as np

from .angles import AngleSpec, parse_angle
from .cocycles import PhaseFunction, StepCocycle, TrigPolynomial, mode_frequencies
from .errors import ConfigError, ResonantFrequencyError
from .fixedpoint import SCALE, FixedReal
from .induced import DEFAULT_RETURN_BUDGET, induced_statistics
from .recurrence import (
    TargetSet,
    find_zero_sums,
    flow_zero_near_returns,
    flow_zero_set_returns,
    is_column,
    joint_zero_returns,
    near_returns,
    sublinearity_estimate,
)
from .skew import ProductState, SkewSystem, orbit_statistics
from .stats import decimal_string
from .systems import (
    CircleRotation,
    IntervalExchange,
    Roof,
    SpecialFlowState,
    TorusPoint,
    TorusWinding,
)

TOOL_VERSION = "0.1.0"

_CASCADE_DETECTORS = {"zero_sums", "near_returns", "joint_returns", "sublinearity"}
_SAMPLED_DETECTORS = {"sublinearity", "induced"}


# --------------------------------------------------------------------------- #
# config parsing
# --------------------------------------------------------------------------- #


def _fail(message: str) -> NoReturn:
    raise ConfigError(message)


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{where}: expected an integer, got {value!r}")
    return value


def _number(value: Any, where: str) -> Fraction:
    """Exact rational from a JSON string or integer (floats are rejected)."""
    if isinstance(value, bool) or isinstance(value, float):
        _fail(f"{where}: numbers must be strings or integers, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(f"{where}: cannot parse {value!r} as an exact rational")
    _fail(f"{where}: expected a number string, got {value!r}")


def _count(value: Any, where: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{where}: expected an integer, got {value!r}")
    if value < minimum:
        _fail(f"{where}: must be at least {minimum}, got {value}")
    return value


def _angle(value: Any, where: str) -> AngleSpec:
    if not isinstance(value, str):
        _fail(f"{where}: angles are strings like 'rational:1/2', got {value!r}")
    try:
        return parse_angle(value)
    except ValueError as exc:
        _fail(f"{where}: {exc}")


def _block(raw: Mapping[str, Any], name: str, required: bool = True) -> dict:
    block = raw.get(name)
    if block is None:
        if required:
            _fail(f"missing config block {name!r}")
        return {}
    if not isinstance(block, Mapping):
        _fail(f"config block {name!r} must be an object")
    return dict(block)


def _no_extras(block: Mapping[str, Any], allowed: set, where: str) -> None:
    extras = set(block) - allowed
    if extras:
        _fail(f"{where}: unknown keys {sorted(extras)}")


def _target_set(spec: Any, where: str) -> TargetSet:
    if not isinstance(spec, Mapping):
        _fail(f"{where}: expected an object with 'intervals'")
    intervals = spec.get("intervals")
    if not isinstance(intervals, Sequence) or not intervals:
        _fail(f"{where}: 'intervals' must be a non-empty list of [lo, hi] pairs")
    pairs = []
    for pair in intervals:
        if not isinstance(pair, Sequence) or len(pair) != 2:
            _fail(f"{where}: each interval must be a [lo, hi] pair")
        pairs.append((_number(pair[0], where), _number(pair[1], where)))
    band = spec.get("band")
    if band is not None:
        if not isinstance(band, Sequence) or len(band) != 2:
            _fail(f"{where}: 'band' must be a [lo, hi] pair")
        band = (_number(band[0], where), _number(band[1], where))
    try:
        return TargetSet(pairs, band=band)
    except ValueError as exc:
        _fail(f"{where}: {exc}")


@dataclass
class ExperimentConfig:
    """A validated experiment: resolved objects plus the raw document."""

    raw: dict
    system_kind: str
    system: object
    cocycle: object | None
    detector: str
    detector_args: dict
    samples: int | None
    seed: int | None
    directory: str
    formats: tuple[str, ...]
    digits: int

    def canonical_bytes(self) -> bytes:
        return json.dumps(
            self.raw, sort_keys=True, separators=(",", ":"), ensure_ascii=True
        ).encode("ascii")

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


def _build_system(block: Mapping[str, Any]) -> tuple[str, object]:
    kind = block.get("kind")
    if kind == "rotation":
        _no_extras(block, {"kind", "angle"}, "system")
        return kind, CircleRotation(_angle(block.get("angle"), "system.angle"))
    if kind == "interval_exchange":
        _no_extras(block, {"kind", "lengths", "permutation"}, "system")
        lengths = block.get("lengths")
        perm = block.get("permutation")
        if not isinstance(lengths, Sequence) or not isinstance(perm, Sequence):
            _fail("system: interval_exchange needs 'lengths' and 'permutation' lists")
        try:
            return kind, IntervalExchange(
                [_number(v, "system.lengths") for v in lengths],
                tuple(_count(p, "system.permutation") for p in perm),
            )
        except ValueError as exc:
            _fail(f"system: {exc}")
    if kind == "special_flow":
        _no_extras(block, {"kind", "angle", "roof_breakpoints", "roof_heights"}, "system")
        base = CircleRotation(_angle(block.get("angle"), "system.angle"))
        breaks = block.get("roof_breakpoints")
        heights = block.get("roof_heights")
        if not isinstance(breaks, Sequence) or not isinstance(heights, Sequence):
            _fail("system: special_flow needs 'roof_breakpoints' and 'roof_heights'")
        try:
            roof = Roof(
                [_number(b, "system.roof_breakpoints") for b in breaks],
                [_number(h, "system.roof_heights") for h in heights],
                base,
            )
        except ValueError as exc:
            _fail(f"system: {exc}")
        return kind, roof
    if kind == "torus_winding":
        _no_extras(block, {"kind", "slope"}, "system")
        return kind, TorusWinding(_angle(block.get("slope"), "system.slope"))
    _fail(f"system: unknown kind {kind!r}")


def _build_cocycle(block: Mapping[str, Any], system_kind: str, system: object):
    kind = block.get("kind")
    if kind == "step":
        _no_extras(block, {"kind", "breakpoints", "values"}, "cocycle")
        breaks = block.get("breakpoints")
        values = block.get("values")
        if not isinstance(breaks, Sequence) or not isinstance(values, Sequence):
            _fail("cocycle: step needs 'breakpoints' and 'values' lists")
        parsed = [
            v if isinstance(v, int) and not isinstance(v, bool)
            else _number(v, "cocycle.values")
            for v in values
        ]
        try:
            return StepCocycle([_number(b, "cocycle.breakpoints") for b in breaks], parsed)
        except ValueError as exc:
            _fail(f"cocycle: {exc}")
    if kind == "phase":
        if system_kind != "special_flow":
            _fail("cocycle: phase functions require a special_flow system")
        _no_extras(block, {"kind", "values"}, "cocycle")
        values = block.get("values")
        if not isinstance(values, Sequence):
            _fail("cocycle: phase needs a 'values' list (one per roof cell)")
        parsed = [
            v if isinstance(v, int) and not isinstance(v, bool)
            else _number(v, "cocycle.values")
            for v in values
        ]
        try:
            return PhaseFunction.from_base_values(system, parsed)
        except ValueError as exc:
            _fail(f"cocycle: {exc}")
    if kind == "trig":
        if system_kind != "torus_winding":
            _fail("cocycle: trig polynomials require a torus_winding system")
        _no_extras(block, {"kind", "terms"}, "cocycle")
        terms = block.get("terms")
        if not isinstance(terms, Sequence) or not terms:
            _fail("cocycle: trig needs a non-empty 'terms' list")
        tuples = []
        for term in terms:
            if not isinstance(term, Sequence) or len(term) != 4:
                _fail("cocycle: each trig term is [j, k, cos_amp, sin_amp]")
            tuples.append(
                (_integer(term[0], "cocycle.terms"),
                 _integer(term[1], "cocycle.terms"),
                 float(_number(term[2], "cocycle.terms")),
                 float(_number(term[3], "cocycle.terms")))
            )
        try:
            return TrigPolynomial(tuples)
        except ValueError as exc:
            _fail(f"cocycle: {exc}")
    _fail(f"cocycle: unknown kind {kind!r}")


def validate_config(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Parse and cross-check a config document; raises :class:`ConfigError`.

    Validation builds the actual system/cocycle objects (so range errors
    surface here) but runs nothing.
    """
    if not isinstance(raw, Mapping):
        _fail("config must be a JSON object")
    _no_extras(
        raw, {"system", "cocycle", "detector", "sampling", "output"}, "config"
    )
    system_block = _block(raw, "system")
    detector_block = _block(raw, "detector")
    output_block = _block(raw, "output")

    system_kind, system = _build_system(system_block)

    detector = detector_block.get("kind")
    if not isinstance(detector, str):
        _fail("detector: missing 'kind'")

    cocycle = None
    if "cocycle" in raw:
        cocycle = _build_cocycle(_block(raw, "cocycle"), system_kind, system)

    sampling_block = _block(raw, "sampling", required=detector in _SAMPLED_DETECTORS)
    samples = seed = None
    if detector in _SAMPLED_DETECTORS:
        _no_extras(sampling_block, {"samples", "seed"}, "sampling")
        samples = _count(sampling_block.get("samples"), "sampling.samples", minimum=100)
        if "seed" not in sampling_block:
            _fail("sampling: a seed is required whenever sampling is used")
        seed = _count(sampling_block.get("seed"), "sampling.seed", minimum=0)
    elif raw.get("sampling"):
        _fail(f"sampling: detector {detector!r} does not sample")

    args = _detector_args(detector, detector_block, system_kind, system, cocycle)

    directory = output_block.get("directory")
    if not isinstance(directory, str) or not directory:
        _fail("output: 'directory' must be a non-empty string")
    if Path(directory).is_absolute():
        _fail("output: 'directory' must be relative (root comes from the runner)")
    formats = output_block.get("formats", ["csv"])
    if not isinstance(formats, Sequence) or not formats or any(
        f not in ("csv", "json") for f in formats
    ):
        _fail("output: 'formats' must be a non-empty subset of ['csv', 'json']")
    digits = output_block.get("digits", 30)
    digits = _count(digits, "output.digits", minimum=1)
    _no_extras(output_block, {"directory", "formats", "digits"}, "output")

    return ExperimentConfig(
        raw=dict(raw),
        system_kind=system_kind,
        system=system,
        cocycle=cocycle,
        detector=detector,
        detector_args=args,
        samples=samples,
        seed=seed,
        directory=directory,
        formats=tuple(formats),
        digits=digits,
    )


def _detector_args(
    detector: str,
    block: Mapping[str, Any],
    system_kind: str,
    system: object,
    cocycle: object | None,
) -> dict:
    """Per-detector argument parsing and system/cocycle compatibility checks."""
    args: dict = {}
    if detector in _CASCADE_DETECTORS or detector == "induced":
        if system_kind not in ("rotation", "interval_exchange"):
            _fail(f"detector {detector!r} needs a rotation or interval_exchange system")
    if detector in ("zero_sums", "joint_returns", "sublinearity", "induced", "skew_orbit"):
        if cocycle is None:
            _fail(f"detector {detector!r} needs a cocycle block")

    if detector == "zero_sums":
        _no_extras(block, {"kind", "start", "count"}, "detector")
        args["x"] = _number(block.get("start"), "detector.start")
        args["count"] = _count(block.get("count"), "detector.count")
    elif detector == "near_returns":
        _no_extras(block, {"kind", "start", "count", "eps"}, "detector")
        args["x"] = _number(block.get("start"), "detector.start")
        args["count"] = _count(block.get("count"), "detector.count")
        args["eps"] = _positive(_number(block.get("eps"), "detector.eps"), "detector.eps")
    elif detector == "joint_returns":
        _no_extras(block, {"kind", "start", "count", "eps"}, "detector")
        args["x"] = _number(block.get("start"), "detector.start")
        args["count"] = _count(block.get("count"), "detector.count")
        args["eps"] = _positive(_number(block.get("eps"), "detector.eps"), "detector.eps")
    elif detector == "flow_set_returns":
        if system_kind != "special_flow":
            _fail("detector flow_set_returns needs a special_flow system")
        if not isinstance(cocycle, PhaseFunction):
            _fail("detector flow_set_returns needs a phase cocycle")
        _no_extras(
            block,
            {"kind", "start", "t_max", "target", "allow_zero_value"},
            "detector",
        )
        args["start"] = _flow_start(block.get("start"))
        args["t_max"] = _positive(_number(block.get("t_max"), "detector.t_max"), "detector.t_max")
        args["target"] = _target_set(block.get("target"), "detector.target")
        args["allow_zero_value"] = _flag(block.get("allow_zero_value", False))
    elif detector == "flow_near_returns":
        if system_kind not in ("special_flow", "torus_winding"):
            _fail("detector flow_near_returns needs a special_flow or torus_winding system")
        _no_extras(
            block, {"kind", "start", "t_max", "eps", "allow_zero_value"}, "detector"
        )
        if system_kind == "special_flow":
            if not isinstance(cocycle, PhaseFunction):
                _fail("detector flow_near_returns over a flow needs a phase cocycle")
            args["start"] = _flow_start(block.get("start"))
        else:
            if not isinstance(cocycle, TrigPolynomial):
                _fail("detector flow_near_returns over a winding needs a trig cocycle")
            try:
                mode_frequencies(system, cocycle)
            except ResonantFrequencyError as exc:
                _fail(f"cocycle: {exc}")
            args["start"] = _torus_start(block.get("start"))
        args["t_max"] = _positive(_number(block.get("t_max"), "detector.t_max"), "detector.t_max")
        args["eps"] = _positive(_number(block.get("eps"), "detector.eps"), "detector.eps")
        args["allow_zero_value"] = _flag(block.get("allow_zero_value", False))
    elif detector == "sublinearity":
        _no_extras(block, {"kind", "n_list", "eps"}, "detector")
        n_list = block.get("n_list")
        if not isinstance(n_list, Sequence) or not n_list:
            _fail("detector.n_list must be a non-empty list of counts")
        args["n_list"] = [_count(n, "detector.n_list") for n in n_list]
        args["eps"] = _positive(_number(block.get("eps"), "detector.eps"), "detector.eps")
    elif detector == "induced":
        _no_extras(block, {"kind", "target", "budget"}, "detector")
        args["target"] = _target_set(block.get("target"), "detector.target")
        args["budget"] = _count(block.get("budget", DEFAULT_RETURN_BUDGET), "detector.budget")
    elif detector == "skew_orbit":
        if system_kind not in ("rotation", "interval_exchange"):
            _fail("detector skew_orbit needs a rotation or interval_exchange base")
        _no_extras(block, {"kind", "fiber", "start", "steps", "rectangles"}, "detector")
        fiber_kind, fiber = _build_system(_block(block, "fiber"))
        if fiber_kind not in ("rotation", "interval_exchange"):
            _fail("detector.fiber must be a rotation or interval_exchange")
        try:
            args["system"] = SkewSystem(system, fiber, cocycle)
        except ValueError as exc:
            _fail(f"detector: {exc}")
        args["start"] = _product_start(block.get("start"))
        args["steps"] = _count(block.get("steps"), "detector.steps")
        rects = block.get("rectangles")
        if not isinstance(rects, Sequence) or not rects:
            _fail("detector.rectangles must be a non-empty list")
        parsed_rects = []
        for rect in rects:
            if (
                not isinstance(rect, Sequence)
                or len(rect) != 2
                or any(not isinstance(side, Sequence) or len(side) != 2 for side in rect)
            ):
                _fail("detector.rectangles entries are [[x_lo,x_hi],[y_lo,y_hi]]")
            parsed_rects.append(
                (
                    (_number(rect[0][0], "rectangles"), _number(rect[0][1], "rectangles")),
                    (_number(rect[1][0], "rectangles"), _number(rect[1][1], "rectangles")),
                )
            )
        args["rectangles"] = parsed_rects
    else:
        _fail(f"detector: unknown kind {detector!r}")
    if args.get("allow_zero_value") is False:
        start = args["start"]
        value = cocycle.value(start) if system_kind == "torus_winding" else cocycle.value_at(start)
        if value == 0:
            _fail("detector.start: the observable vanishes there (allow_zero_value overrides)")
    return args


def _positive(value: Fraction, where: str) -> Fraction:
    if value <= 0:
        _fail(f"{where}: must be positive, got {value}")
    return value


def _flag(value: Any) -> bool:
    if not isinstance(value, bool):
        _fail(f"expected true/false, got {value!r}")
    return value


def _flow_start(spec: Any) -> SpecialFlowState:
    if not isinstance(spec, Mapping) or "x" not in spec:
        _fail("detector.start for a flow is {'x': ..., 'height': ...}")
    x = _number(spec["x"], "detector.start.x")
    height = _number(spec.get("height", 0), "detector.start.height")
    if not 0 <= x < 1 or height < 0:
        _fail("detector.start: need 0 <= x < 1 and height >= 0")
    return SpecialFlowState(x, height)


def _torus_start(spec: Any) -> TorusPoint:
    if not isinstance(spec, Mapping) or "x" not in spec or "y" not in spec:
        _fail("detector.start for a winding is {'x': ..., 'y': ...}")
    return TorusPoint(
        _number(spec["x"], "detector.start.x"), _number(spec["y"], "detector.start.y")
    )


def _product_start(spec: Any) -> ProductState:
    if not isinstance(spec, Mapping) or "x" not in spec or "y" not in spec:
        _fail("detector.start for a skew orbit is {'x': ..., 'y': ...}")
    return ProductState(
        FixedReal.of(_number(spec["x"], "detector.start.x")),
        FixedReal.of(_number(spec["y"], "detector.start.y")),
    )


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #


@dataclass
class RunManifest:
    """Provenance record written next to every run's artifacts."""

    config_digest: str
    tool_version: str = TOOL_VERSION
    precision_scale: int = SCALE
    csv_digits: int = 30
    duration_seconds: float = 0.0
    outputs: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    status: str = "ok"
    error: str | None = None
    error_step: object = None

    def to_dict(self) -> dict:
        doc = {
            "config_digest": self.config_digest,
            "tool_version": self.tool_version,
            "precision_scale": self.precision_scale,
            "csv_digits": self.csv_digits,
            "duration_seconds": self.duration_seconds,
            "outputs": self.outputs,
            "warnings": self.warnings,
            "status": self.status,
        }
        if self.status != "ok":
            doc["error"] = self.error
            doc["error_step"] = self.error_step
        return doc


def _execute(config: ExperimentConfig) -> tuple[list[str], list, dict | None]:
    """Run the detector; returns (csv header, csv columns, json summary or None).

    Each column is a sequence with one cell per row or a scalar shared by
    every row; :func:`_write_csv` renders it.
    """
    kind = config.detector
    args = config.detector_args
    system = config.system
    f = config.cocycle
    if kind == "zero_sums":
        zeros = find_zero_sums(system, f, args["x"], args["count"])
        return ["time", "value"], [zeros.times, zeros.value], None
    if kind == "near_returns":
        times = near_returns(system, args["x"], args["count"], args["eps"])
        return ["time"], [times], None
    if kind == "joint_returns":
        joint = joint_zero_returns(system, f, args["x"], args["count"], args["eps"])
        return ["time", "value", "distance"], [joint.times, joint.value, joint.distance], None
    if kind == "flow_set_returns":
        hits = flow_zero_set_returns(
            system, f, args["start"], args["t_max"], args["target"],
            allow_zero_value=args["allow_zero_value"],
        )
        return ["time", "value", "in_set"], [hits.times, hits.value, hits.in_set], None
    if kind == "flow_near_returns":
        hits = flow_zero_near_returns(
            system, f, args["start"], args["t_max"], args["eps"],
            allow_zero_value=args["allow_zero_value"],
        )
        return ["time", "value", "distance"], [hits.times, hits.value, hits.distance], None
    if kind == "sublinearity":
        pairs = sublinearity_estimate(
            system, f, args["n_list"], args["eps"],
            samples=config.samples, seed=config.seed,
        )
        return ["n", "probability"], [list(column) for column in zip(*pairs)], None
    if kind == "induced":
        stats = induced_statistics(
            system, f, args["target"],
            samples=config.samples, seed=config.seed, budget=args["budget"],
        )
        summary = {
            "samples": stats.samples,
            "censored": stats.censored,
            "mean_return": stats.mean_return,
            "se_return": stats.se_return,
            "mean_cocycle": stats.mean_cocycle,
            "se_cocycle": stats.se_cocycle,
            "kac_product": stats.kac_product(),
            "target_measure": str(stats.target_measure),
        }
        metrics = ["mean_return", "se_return", "mean_cocycle", "se_cocycle",
                   "kac_product", "samples", "censored"]
        values = [repr(summary[name]) for name in metrics]
        return ["metric", "value"], [metrics, values], summary
    if kind == "skew_orbit":
        stats = orbit_statistics(
            args["system"], args["start"], args["steps"], args["rectangles"]
        )
        summary = {
            "steps": stats.steps,
            "averages": list(stats.averages),
            "standard_errors": list(stats.standard_errors),
            "fiber_displacement": stats.fiber_displacement,
            "final_state": {
                "x": repr(float(stats.final_state.x)),
                "y": repr(float(stats.final_state.y)),
            },
        }
        names = [f"rectangle_{i}" for i in range(len(stats.averages))]
        columns = [
            [*names, "fiber_displacement"],
            [*map(repr, stats.averages), str(stats.fiber_displacement)],
            [*map(repr, stats.standard_errors), ""],
        ]
        return ["observable", "average", "standard_error"], columns, summary
    raise ConfigError(f"detector: unknown kind {kind!r}")  # unreachable after validate


def resolve_output_dir(config: ExperimentConfig, out_root: str | os.PathLike | None) -> Path:
    """Run directory = (explicit root | $ERGOLAB_OUTPUT_ROOT | cwd) / config directory."""
    root = Path(out_root) if out_root else Path(os.environ.get("ERGOLAB_OUTPUT_ROOT", "."))
    return root / config.directory


def run_experiment(
    raw: Mapping[str, Any] | ExperimentConfig,
    out_root: str | os.PathLike | None = None,
) -> RunManifest:
    """Validate, execute and persist one experiment.

    Creates the run directory and writes ``config.json`` (canonical bytes),
    ``results.csv`` / ``results.json`` per the requested formats, and
    ``manifest.json``.  Config errors raise before anything is written; a
    failure during execution still writes the manifest (status ``error``
    with the offending step when known) and then re-raises for the caller
    to map onto an exit code.
    """
    config = raw if isinstance(raw, ExperimentConfig) else validate_config(raw)
    out_dir = resolve_output_dir(config, out_root)
    manifest = RunManifest(config_digest=config.digest(), csv_digits=config.digits)
    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_bytes(config.canonical_bytes() + b"\n")
    manifest.outputs.append("config.json")
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            header, rows, summary = _execute(config)
        manifest.warnings = sorted({str(w.message) for w in caught})
        if "csv" in config.formats:
            _write_csv(out_dir / "results.csv", header, rows, config.digits)
            manifest.outputs.append("results.csv")
        if "json" in config.formats and summary is not None:
            text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
            (out_dir / "results.json").write_text(text, encoding="ascii")
            manifest.outputs.append("results.json")
    except Exception as exc:
        manifest.status = "error"
        manifest.error = f"{type(exc).__name__}: {exc}"
        manifest.error_step = getattr(exc, "step", None)
        manifest.duration_seconds = time.perf_counter() - started
        _write_manifest(out_dir, manifest)
        raise
    manifest.duration_seconds = time.perf_counter() - started
    _write_manifest(out_dir, manifest)
    return manifest


def _column_text(column: np.ndarray | Sequence, digits: int) -> list[str]:
    """The cells of one CSV column, rendered in one pass chosen by the column's type.

    Integers print through ``str``, exact rationals through
    :func:`decimal_string` with ``digits`` fractional digits, floats as the
    ``repr`` of the Python float (never a numpy scalar repr), flags as
    ``1``/``0`` and ``None`` as an empty cell.  Text cells are written as
    they are, so they must not need CSV quoting.
    """
    if isinstance(column, np.ndarray):
        column = column.tolist()
    if not column:
        return []
    first = column[0]
    if first is None:
        return [""] * len(column)
    if isinstance(first, bool):
        return ["1" if cell else "0" for cell in column]
    if isinstance(first, int):
        return list(map(str, column))
    if isinstance(first, Fraction):
        return [decimal_string(cell, digits) for cell in column]
    if isinstance(first, float):  # numpy float64 scalars included
        return [repr(float(cell)) for cell in column]
    if isinstance(first, str):
        return list(column)
    raise TypeError(f"no CSV rendering for {type(first).__name__} cells")


def _write_csv(path: Path, header: list[str], columns: list, digits: int) -> None:
    """Write a table given column by column; a scalar column repeats on every row.

    Columns follow :func:`~ergolab.recurrence.is_column`.  The row count is
    the length of the sequence columns, so a table of scalars alone has no
    rows.

    Rows end in a newline and no cell is quoted, which matches
    ``csv.writer`` for every cell the detectors produce.
    """
    rows = max((len(column) for column in columns if is_column(column)), default=0)
    cells = [
        _column_text(column, digits) if is_column(column)
        else repeat(_column_text([column], digits)[0])
        for column in columns
    ]
    with open(path, "w", newline="", encoding="ascii") as handle:
        handle.write(",".join(header) + "\n")
        if rows:
            handle.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_manifest(out_dir: Path, manifest: RunManifest) -> None:
    text = json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
    (out_dir / "manifest.json").write_text(text, encoding="ascii")


def check_run_directory(path: str | os.PathLike) -> bool:
    """Re-derive the digest of a stored ``config.json`` and match the manifest."""
    directory = Path(path)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="ascii"))
    stored = (directory / "config.json").read_bytes()
    return hashlib.sha256(stored.rstrip(b"\n")).hexdigest() == manifest["config_digest"]


# --------------------------------------------------------------------------- #
# preset catalog
# --------------------------------------------------------------------------- #


def _preset_configs() -> dict[str, tuple[str, dict]]:
    half_step = {"kind": "step", "breakpoints": ["0", "1/2"], "values": [1, -1]}
    golden_flow = {
        "kind": "special_flow",
        "angle": "preset:golden",
        "roof_breakpoints": ["0", "1/2"],
        "roof_heights": ["1", "1"],
    }
    return {
        "krygin-atkinson": (
            "zero Birkhoff sums of the +-1 step cocycle over the golden rotation",
            {
                "system": {"kind": "rotation", "angle": "preset:golden"},
                "cocycle": half_step,
                "detector": {"kind": "zero_sums", "start": "1/10", "count": 100_000},
                "output": {"directory": "krygin-atkinson", "formats": ["csv"]},
            },
        ),
        "shneiberg": (
            "zero orbit integrals of a +-1 phase function over a golden special flow",
            {
                "system": golden_flow,
                "cocycle": {"kind": "phase", "values": [1, -1]},
                "detector": {
                    "kind": "flow_set_returns",
                    "start": {"x": "1/10", "height": "0"},
                    "t_max": "2000",
                    "target": {"intervals": [["0", "1"]]},
                },
                "output": {"directory": "shneiberg", "formats": ["csv"]},
            },
        ),
        "theorem-a": (
            "flow zeros landing in a half-circle target for the period-two flow",
            {
                "system": {
                    "kind": "special_flow",
                    "angle": "rational:1/2",
                    "roof_breakpoints": ["0", "1/2"],
                    "roof_heights": ["1", "1"],
                },
                "cocycle": {"kind": "phase", "values": [1, -1]},
                "detector": {
                    "kind": "flow_set_returns",
                    "start": {"x": "0", "height": "0"},
                    "t_max": "6",
                    "target": {"intervals": [["0", "1/2"]]},
                },
                "output": {"directory": "theorem-a", "formats": ["csv"]},
            },
        ),
        "theorem-b-flow": (
            "simultaneous zero integral and near-return for the golden special flow",
            {
                "system": golden_flow,
                "cocycle": {"kind": "phase", "values": [1, -1]},
                "detector": {
                    "kind": "flow_near_returns",
                    "start": {"x": "1/10", "height": "0"},
                    "t_max": "10000",
                    "eps": "1/20",
                },
                "output": {"directory": "theorem-b-flow", "formats": ["csv"]},
            },
        ),
        "theorem-b-winding": (
            "zero cosine integrals along the sqrt(2) torus winding that nearly return",
            {
                "system": {"kind": "torus_winding", "slope": "preset:sqrt2"},
                "cocycle": {"kind": "trig", "terms": [[1, 0, "1", "0"]]},
                "detector": {
                    "kind": "flow_near_returns",
                    "start": {"x": "0", "y": "0"},
                    "t_max": "30",
                    "eps": "1/20",
                },
                "output": {"directory": "theorem-b-winding", "formats": ["csv"]},
            },
        ),
        "theorem-c-induced": (
            "first-return statistics to [0, 1/2) under the golden rotation",
            {
                "system": {"kind": "rotation", "angle": "preset:golden"},
                "cocycle": half_step,
                "detector": {
                    "kind": "induced",
                    "target": {"intervals": [["0", "1/2"]]},
                },
                "sampling": {"samples": 100_000, "seed": 2024},
                "output": {
                    "directory": "theorem-c-induced",
                    "formats": ["csv", "json"],
                },
            },
        ),
        "theorem-d-weiss": (
            "excess-probability decay of |S_n| > eps*n for the golden rotation",
            {
                "system": {"kind": "rotation", "angle": "preset:golden"},
                "cocycle": half_step,
                "detector": {
                    "kind": "sublinearity",
                    "n_list": [100, 1000, 10000],
                    "eps": "1/20",
                },
                "sampling": {"samples": 10_000, "seed": 7},
                "output": {"directory": "theorem-d-weiss", "formats": ["csv"]},
            },
        ),
        "skew-construct": (
            "skew product over the golden rotation with a sqrt(2) fiber rotation",
            {
                "system": {"kind": "rotation", "angle": "preset:golden"},
                "cocycle": half_step,
                "detector": {
                    "kind": "skew_orbit",
                    "fiber": {"kind": "rotation", "angle": "preset:sqrt2"},
                    "start": {"x": "1/10", "y": "1/4"},
                    "steps": 10_000,
                    "rectangles": [
                        [["0", "1/2"], ["0", "1/2"]],
                        [["0", "1/2"], ["0", "1"]],
                    ],
                },
                "output": {
                    "directory": "skew-construct",
                    "formats": ["csv", "json"],
                },
            },
        ),
    }


def list_presets() -> list[tuple[str, str]]:
    """Catalog of ready-made configs: (name, one-line summary) pairs."""
    return [(name, summary) for name, (summary, _) in _preset_configs().items()]


def preset_config(name: str) -> dict:
    """The raw config document for a named preset."""
    try:
        return json.loads(json.dumps(_preset_configs()[name][1]))
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(_preset_configs())}"
        ) from None
