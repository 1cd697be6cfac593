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
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from .angles import AngleSpec, parse_angle
from .cocycles import PhaseFunction, StepCocycle, TrigPolynomial, mode_frequencies
from .errors import ConfigError, PrecisionExhaustedError, ResonantFrequencyError
from .fixedpoint import SCALE, FixedReal
from .induced import DEFAULT_RETURN_BUDGET, grid_ranges, induced_statistics
from .recurrence import (
    Returns,
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
    if _integer(value, where) < minimum:
        _fail(f"{where}: must be at least {minimum}, got {value}")
    return value


def _positive(value: Any, where: str) -> Fraction:
    number = _number(value, where)
    if number <= 0:
        _fail(f"{where}: must be positive, got {number}")
    return number


def _flag(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        _fail(f"{where}: expected true/false, got {value!r}")
    return value


def _angle(value: Any, where: str) -> AngleSpec:
    if not isinstance(value, str):
        _fail(f"{where}: angles are strings like 'rational:1/2', got {value!r}")
    try:
        return parse_angle(value)
    except ValueError as exc:
        _fail(f"{where}: {exc}")


def _numbers(values: Any, where: str) -> list[Fraction]:
    if not isinstance(values, Sequence):
        _fail(f"{where}: expected a list of numbers")
    return [_number(v, where) for v in values]


def _counts(values: Any, where: str) -> list[int]:
    if not isinstance(values, Sequence) or not values:
        _fail(f"{where} must be a non-empty list of counts")
    return [_count(n, where) for n in values]


def _values(values: Any, where: str) -> list[int | Fraction]:
    """Cocycle values: JSON integers stay ``int`` (an integer-valued cocycle), the rest exact."""
    if not isinstance(values, Sequence):
        _fail(f"{where}: expected a list of values")
    return [
        v if isinstance(v, int) and not isinstance(v, bool) else _number(v, where)
        for v in values
    ]


def _pair(value: Any, where: str) -> tuple[Fraction, Fraction]:
    if not isinstance(value, Sequence) or len(value) != 2:
        _fail(f"{where}: expected a [lo, hi] pair")
    return _number(value[0], where), _number(value[1], where)


def _block(raw: Mapping[str, Any], name: str) -> dict:
    block = raw.get(name)
    if block is None:
        _fail(f"missing config block {name!r}")
    if not isinstance(block, Mapping):
        _fail(f"config block {name!r} must be an object")
    return dict(block)


def _no_extras(block: Mapping[str, Any], allowed: set, where: str) -> None:
    extras = set(block) - allowed
    if extras:
        _fail(f"{where}: unknown keys {sorted(extras)}")


def _lookup(table: Mapping[str, Any], kind: Any, where: str) -> Any:
    if not isinstance(kind, str) or kind not in table:
        _fail(f"{where}: unknown kind {kind!r}")
    return table[kind]


def _target_set(spec: Any, where: str) -> TargetSet:
    if not isinstance(spec, Mapping):
        _fail(f"{where}: expected an object with 'intervals'")
    intervals = spec.get("intervals")
    if not isinstance(intervals, Sequence) or not intervals:
        _fail(f"{where}: 'intervals' must be a non-empty list of [lo, hi] pairs")
    band = spec.get("band")
    band = None if band is None else _pair(band, f"{where}.band")
    try:
        return TargetSet([_pair(pair, where) for pair in intervals], band=band)
    except ValueError as exc:
        _fail(f"{where}: {exc}")


def _sampled_target_set(spec: Any, where: str) -> TargetSet:
    target = _target_set(spec, where)
    if not grid_ranges(target):
        _fail(f"{where}: the target holds no point of the 2^-64 sampling grid")
    return target


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


# --------------------------------------------------------------------------- #
# systems and cocycles: kind -> (block keys with their parsers, builder)
# --------------------------------------------------------------------------- #


def _terms(terms: Any, where: str) -> list[tuple[int, int, float, float]]:
    if not isinstance(terms, Sequence) or not terms:
        _fail(f"{where}: trig needs a non-empty list of terms")
    for term in terms:
        if not isinstance(term, Sequence) or len(term) != 4:
            _fail(f"{where}: each trig term is [j, k, cos_amp, sin_amp]")
    return [
        (_integer(j, where), _integer(k, where),
         float(_number(c, where)), float(_number(s, where)))
        for j, k, c, s in terms
    ]


def _phase(system: object, values: list) -> PhaseFunction:
    if not isinstance(system, Roof):
        _fail("cocycle: phase functions require a special_flow system")
    return PhaseFunction.from_base_values(system, values)


def _trig(system: object, terms: list) -> TrigPolynomial:
    """A trigonometric polynomial with no resonant mode along the winding."""
    if not isinstance(system, TorusWinding):
        _fail("cocycle: trig polynomials require a torus_winding system")
    polynomial = TrigPolynomial(terms)
    mode_frequencies(system, polynomial)
    return polynomial


# builders take the parsed fields in order (cocycle builders the system first)
_SYSTEMS: dict[str, tuple[dict[str, Callable], Callable]] = {
    "rotation": ({"angle": _angle}, CircleRotation),
    "interval_exchange": ({"lengths": _numbers, "permutation": _counts}, IntervalExchange),
    "special_flow": (
        {"angle": _angle, "roof_breakpoints": _numbers, "roof_heights": _numbers},
        lambda angle, breakpoints, heights: Roof(breakpoints, heights, CircleRotation(angle)),
    ),
    "torus_winding": ({"slope": _angle}, TorusWinding),
}
_COCYCLES: dict[str, tuple[dict[str, Callable], Callable]] = {
    "step": ({"breakpoints": _numbers, "values": _values},
             lambda system, breakpoints, values: StepCocycle(breakpoints, values)),
    "phase": ({"values": _values}, _phase),
    "trig": ({"terms": _terms}, _trig),
}


def _build(table: Mapping[str, tuple], block: Mapping[str, Any], where: str, *context) -> tuple:
    """Look up ``block['kind']``, parse its fields and build; returns (kind, object)."""
    kind = block.get("kind")
    fields, build = _lookup(table, kind, where)
    _no_extras(block, {"kind", *fields}, where)
    parsed = [parse(block.get(key), f"{where}.{key}") for key, parse in fields.items()]
    try:
        return kind, build(*context, *parsed)
    except (ValueError, ResonantFrequencyError) as exc:
        _fail(f"{where}: {exc}")


# --------------------------------------------------------------------------- #
# detectors: kind -> systems, cocycles, block fields, sampling, runner
# --------------------------------------------------------------------------- #


class _Field(NamedTuple):
    """A detector-block key: the detector argument it fills, its parser, its default.

    Parsers are called as ``parse(value, where, system, cocycle)``.
    """

    arg: str
    parse: Callable[[Any, str, object, object], Any]
    default: Any = None


def _plain(parse: Callable[[Any, str], Any]) -> Callable[[Any, str, object, object], Any]:
    """A field parser that needs neither the system nor the cocycle."""
    return lambda value, where, system, cocycle: parse(value, where)


def _xy(spec: Any, where: str, what: str) -> tuple[Fraction, Fraction]:
    if not isinstance(spec, Mapping) or "x" not in spec or "y" not in spec:
        _fail(f"{where} for a {what} is {{'x': ..., 'y': ...}}")
    return _number(spec["x"], f"{where}.x"), _number(spec["y"], f"{where}.y")


def _flow_start(
    spec: Any, where: str, system: object, cocycle: object
) -> SpecialFlowState | TorusPoint:
    """A torus point, or a point ``(x, height)`` under the roof: ``0 <= height < r(x)``."""
    if isinstance(system, TorusWinding):
        return TorusPoint(*_xy(spec, where, "winding"))
    if not isinstance(spec, Mapping) or "x" not in spec:
        _fail(f"{where} for a flow is {{'x': ..., 'height': ...}}")
    x = _number(spec["x"], f"{where}.x")
    height = _number(spec.get("height", 0), f"{where}.height")
    try:
        inside = 0 <= x < 1 and 0 <= height < system.height_at(FixedReal.of(x))
    except PrecisionExhaustedError:
        _fail(f"{where}.x is too close to a roof wall to place at 192 bits")
    if not inside:
        _fail(f"{where}: need 0 <= x < 1 and 0 <= height < the roof height at x")
    return SpecialFlowState(x, height)


def _product_start(spec: Any, where: str) -> ProductState:
    x, y = _xy(spec, where, "skew orbit")
    if not (0 <= x < 1 and 0 <= y < 1):
        _fail(f"{where}: need 0 <= x < 1 and 0 <= y < 1")
    return ProductState(FixedReal.of(x), FixedReal.of(y))


def _skew_system(spec: Any, where: str, base: object, cocycle: object) -> SkewSystem:
    """The skew product over the configured base with the fiber map ``spec``."""
    if not isinstance(spec, Mapping):
        _fail(f"{where} must be a system object")
    fiber_kind, fiber = _build(_SYSTEMS, spec, where)
    if fiber_kind not in _CASCADE_BASES:
        _fail(f"{where} must be a rotation or interval_exchange")
    return SkewSystem(base, fiber, cocycle)


def _rectangles(rects: Any, where: str) -> list:
    if not isinstance(rects, Sequence) or not rects:
        _fail(f"{where} must be a non-empty list")
    for rect in rects:
        if not isinstance(rect, Sequence) or len(rect) != 2:
            _fail(f"{where} entries are [[x_lo,x_hi],[y_lo,y_hi]]")
    parsed = [(_pair(rect[0], where), _pair(rect[1], where)) for rect in rects]
    if not all(0 <= lo < hi <= 1 for rect in parsed for lo, hi in rect):
        _fail(f"{where}: every side needs 0 <= lo < hi <= 1")
    return parsed


def _returns_table(returns: Returns, *extra: str) -> tuple[list[str], list, None]:
    """The CSV table of a :class:`Returns`: time, value and the named extra columns."""
    columns = [returns.times, returns.value, *(getattr(returns, name) for name in extra)]
    return ["time", "value", *extra], columns, None


def _run_sublinearity(config: ExperimentConfig) -> tuple[list[str], list, None]:
    pairs = sublinearity_estimate(
        config.system, config.cocycle, **config.detector_args,
        samples=config.samples, seed=config.seed,
    )
    return ["n", "probability"], [list(column) for column in zip(*pairs)], None


def _run_induced(config: ExperimentConfig) -> tuple[list[str], list, dict]:
    stats = induced_statistics(
        config.system, config.cocycle, **config.detector_args,
        samples=config.samples, seed=config.seed,
    )
    summary = {  # in CSV row order; the JSON file sorts its keys
        "mean_return": stats.mean_return,
        "se_return": stats.se_return,
        "mean_cocycle": stats.mean_cocycle,
        "se_cocycle": stats.se_cocycle,
        "kac_product": stats.kac_product(),
        "samples": stats.samples,
        "censored": stats.censored,
    }
    columns = [list(summary), [repr(value) for value in summary.values()]]
    summary["target_measure"] = str(stats.target_measure)
    return ["metric", "value"], columns, summary


def _run_skew_orbit(config: ExperimentConfig) -> tuple[list[str], list, dict]:
    stats = orbit_statistics(**config.detector_args)
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


class _Detector(NamedTuple):
    """Everything validation and execution know about one detector kind.

    ``run`` calls the detector with ``detector_args`` as keyword arguments
    and returns ``(csv header, csv columns, json summary or None)``.
    """

    systems: tuple[str, ...]
    cocycles: tuple[str, ...]  # cocycle kinds, "none" for no cocycle block
    fields: dict[str, _Field]
    samples: bool
    run: Callable[[ExperimentConfig], tuple[list[str], list, dict | None]]


_CASCADE_BASES = ("rotation", "interval_exchange")
_STEPS = ("integer step", "rational step")
_CASCADE_START = _Field("x", _plain(_number))
_COUNT = _Field("count", _plain(_count))
_EPS = _Field("eps", _plain(_positive))
_FLOW_START = _Field("start", _flow_start)
_T_MAX = _Field("t_max", _plain(_positive))
_TARGET = _Field("target", _plain(_target_set))
_ALLOW_ZERO_VALUE = _Field("allow_zero_value", _plain(_flag), False)

_DETECTORS: dict[str, _Detector] = {
    "zero_sums": _Detector(
        _CASCADE_BASES, ("integer step",), {"start": _CASCADE_START, "count": _COUNT}, False,
        lambda c: _returns_table(find_zero_sums(c.system, c.cocycle, **c.detector_args)),
    ),
    "near_returns": _Detector(
        _CASCADE_BASES, ("none", *_STEPS),
        {"start": _CASCADE_START, "count": _COUNT, "eps": _EPS}, False,
        lambda c: (["time"], [near_returns(c.system, **c.detector_args).times], None),
    ),
    "joint_returns": _Detector(
        _CASCADE_BASES, ("integer step",),
        {"start": _CASCADE_START, "count": _COUNT, "eps": _EPS}, False,
        lambda c: _returns_table(
            joint_zero_returns(c.system, c.cocycle, **c.detector_args), "distance"
        ),
    ),
    "flow_set_returns": _Detector(
        ("special_flow",), ("phase",),
        {"start": _FLOW_START, "t_max": _T_MAX, "target": _TARGET,
         "allow_zero_value": _ALLOW_ZERO_VALUE}, False,
        lambda c: _returns_table(
            flow_zero_set_returns(c.system, c.cocycle, **c.detector_args), "in_set"
        ),
    ),
    "flow_near_returns": _Detector(
        ("special_flow", "torus_winding"), ("phase", "trig"),
        {"start": _FLOW_START, "t_max": _T_MAX, "eps": _EPS,
         "allow_zero_value": _ALLOW_ZERO_VALUE}, False,
        lambda c: _returns_table(
            flow_zero_near_returns(c.system, c.cocycle, **c.detector_args), "distance"
        ),
    ),
    "sublinearity": _Detector(
        _CASCADE_BASES, ("integer step",),
        {"n_list": _Field("n_list", _plain(_counts)), "eps": _EPS}, True, _run_sublinearity,
    ),
    "induced": _Detector(
        _CASCADE_BASES, _STEPS,
        {"target": _Field("target", _plain(_sampled_target_set)),
         "budget": _Field("budget", _plain(_count), DEFAULT_RETURN_BUDGET)},
        True, _run_induced,
    ),
    "skew_orbit": _Detector(
        _CASCADE_BASES, ("integer step",),
        {"fiber": _Field("system", _skew_system), "start": _Field("start", _plain(_product_start)),
         "steps": _Field("steps", _plain(_count)),
         "rectangles": _Field("rectangles", _plain(_rectangles))}, False, _run_skew_orbit,
    ),
}


def validate_config(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Parse and cross-check a config document; raises :class:`ConfigError`.

    Validation builds the actual system/cocycle objects (so range errors
    surface here) but runs nothing.  What a detector accepts comes from its
    entry in ``_DETECTORS``.
    """
    if not isinstance(raw, Mapping):
        _fail("config must be a JSON object")
    _no_extras(
        raw, {"system", "cocycle", "detector", "sampling", "output"}, "config"
    )
    system_block = _block(raw, "system")
    detector_block = _block(raw, "detector")
    output_block = _block(raw, "output")

    system_kind, system = _build(_SYSTEMS, system_block, "system")
    detector = detector_block.get("kind")
    spec = _lookup(_DETECTORS, detector, "detector")
    cocycle_kind, cocycle = "none", None
    if "cocycle" in raw:
        cocycle_kind, cocycle = _build(_COCYCLES, _block(raw, "cocycle"), "cocycle", system)
        if cocycle_kind == "step":  # all values JSON integers, or some exact rationals
            cocycle_kind = "integer step" if cocycle.is_integer else "rational step"
    if system_kind not in spec.systems:
        _fail(f"detector {detector!r} needs a {' or '.join(spec.systems)} system")
    if cocycle_kind not in spec.cocycles:
        _fail(
            f"detector {detector!r} accepts cocycles {list(spec.cocycles)}, "
            f"got {cocycle_kind!r}"
        )

    samples = seed = None
    if spec.samples:
        sampling_block = _block(raw, "sampling")
        _no_extras(sampling_block, {"samples", "seed"}, "sampling")
        samples = _count(sampling_block.get("samples"), "sampling.samples", minimum=100)
        if "seed" not in sampling_block:
            _fail("sampling: a seed is required whenever sampling is used")
        seed = _count(sampling_block.get("seed"), "sampling.seed", minimum=0)
    elif "sampling" in raw:
        _fail(f"sampling: detector {detector!r} does not sample")

    _no_extras(detector_block, {"kind", *spec.fields}, "detector")
    args = {
        field.arg: field.parse(
            detector_block.get(key, field.default), f"detector.{key}", system, cocycle
        )
        for key, field in spec.fields.items()
    }
    if args.get("allow_zero_value") is False:
        start = args["start"]
        value = cocycle.value(start) if system_kind == "torus_winding" else cocycle.value_at(start)
        if value == 0:
            _fail("detector.start: the observable vanishes there (allow_zero_value overrides)")

    directory = output_block.get("directory")
    if not isinstance(directory, str) or not directory:
        _fail("output: 'directory' must be a non-empty string")
    if Path(directory).is_absolute():
        _fail("output: 'directory' must be relative (root comes from the runner)")
    if ".." in Path(directory).parts:
        _fail("output: 'directory' must not contain '..' (it stays inside the root)")
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
    return _DETECTORS[config.detector].run(config)


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

    The one per-type switch of the writer; :func:`_write_csv` sends every
    column here except an int64 array, which :func:`_int_block` renders
    to the same digits.  Integers print through ``str``, exact rationals
    through :func:`decimal_string` with ``digits`` fractional digits,
    floats as the ``repr`` of the Python float (never a numpy scalar
    repr), flags as ``1``/``0`` and ``None`` as an empty cell.  Text cells
    are written as they are, so they must be ASCII and not need CSV
    quoting.  Any other cell type raises :class:`TypeError`.
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


_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)


def _int_block(values: np.ndarray) -> np.ndarray:
    """The decimal text of an int64 array as a ``(rows, width)`` uint8 block, NUL-padded on the left.

    A value's digit count is one more than the number of powers of 10 at
    or below its magnitude, which is taken in uint64 so that ``-2**63``
    has one.  Digits are written right to left, one position per pass
    over the whole column, and a ``-`` precedes each negative value.  The
    passes reuse two buffers: a fresh temporary per pass costs more than
    the arithmetic.
    """
    negative = values < 0
    rest = values.astype(np.uint64)
    np.negative(rest, out=rest, where=negative)  # wraps to |v|, also for -2**63
    ndigits = np.searchsorted(_POWERS_OF_TEN, rest, side="right") + 1
    width = int((ndigits + negative).max(initial=1))
    block = np.zeros((width, len(values)), dtype=np.uint8)  # one row per position
    quotient, digit = np.empty_like(rest), np.empty_like(rest)
    for position in range(width - 1, width - 1 - int(ndigits.max(initial=1)), -1):
        np.floor_divide(rest, 10, out=quotient)
        np.subtract(rest, np.multiply(quotient, 10, out=digit), out=digit)
        block[position] = digit
        rest, quotient = quotient, rest
    block += ord("0")
    # clear the zeros left of each value's leading digit, then sign the negatives
    block[np.arange(width)[:, None] < width - ndigits] = 0
    block[width - 1 - ndigits[negative], negative] = ord("-")
    return block.T


def _cell_block(cells: list[str]) -> np.ndarray:
    """ASCII cells as a ``(rows, width)`` uint8 block, NUL-padded on the right."""
    text = np.array(cells, dtype=bytes)
    return text.view(np.uint8).reshape(len(cells), text.itemsize)


def _write_csv(path: Path, header: list[str], columns: list, digits: int) -> None:
    """Write a table given column by column; a scalar column repeats on every row.

    Columns follow :func:`~ergolab.recurrence.is_column`.  The row count is
    the length of the sequence columns, so a table of scalars alone has no
    rows.

    Each column becomes one ``(rows, width)`` uint8 block of its cells'
    ASCII, NUL-padded to the widest cell: an int64 array through
    :func:`_int_block`, anything else through :func:`_column_text`, with a
    scalar rendered once and broadcast down the rows.  The blocks are laid
    side by side with a ``,`` column after each and a ``\\n`` column after
    the last, and the body is the table's bytes with every NUL dropped: no
    ASCII cell holds one, so the padding is the mask.  The whole table is
    rendered before the file is opened, so a column that cannot be
    rendered leaves no file.

    Rows end in a newline and no cell is quoted, which matches
    ``csv.writer`` for every cell the detectors produce.
    """
    rows = max((len(column) for column in columns if is_column(column)), default=0)
    comma, newline = (np.full((rows, 1), ord(end), dtype=np.uint8) for end in ",\n")
    blocks = []
    for column in columns:
        if isinstance(column, np.ndarray) and column.dtype == np.int64:
            block = _int_block(column)
        elif is_column(column):
            block = _cell_block(_column_text(column, digits))
        else:
            cell = _cell_block(_column_text([column], digits))
            block = np.broadcast_to(cell, (rows, cell.shape[1]))
        blocks += [block, comma]
    blocks[-1] = newline
    table = np.hstack(blocks)
    head, body = (",".join(header) + "\n").encode("ascii"), table[table != 0].tobytes()
    with open(path, "wb") as handle:
        handle.write(head)
        handle.write(body)


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
