"""Config validation, artifact layout and exit codes of the experiment runner."""
import hashlib
import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ergolab
from _oracles import reference_csv_bytes
from ergolab import experiments, recurrence
from ergolab.cli import main
from ergolab.errors import (
    ConfigError,
    PrecisionExhaustedError,
    RationalAngleError,
    RationalAngleWarning,
    RowLimitError,
)
from ergolab.experiments import (
    _write_csv,
    check_run_directory,
    list_presets,
    preset_config,
    run_experiment,
    validate_config,
)

PRESET_NAMES = [
    "krygin-atkinson",
    "shneiberg",
    "theorem-a",
    "theorem-b-flow",
    "theorem-b-winding",
    "theorem-c-induced",
    "theorem-d-weiss",
    "skew-construct",
]


def small_zero_sum_config(count=10, directory="zs"):
    return {
        "system": {"kind": "rotation", "angle": "rational:1/2"},
        "cocycle": {"kind": "step", "breakpoints": ["0", "1/2"], "values": [1, -1]},
        "detector": {"kind": "zero_sums", "start": "1/10", "count": count},
        "output": {"directory": directory, "formats": ["csv"]},
    }


# --------------------------------------------------------------------------- #
# validation
# --------------------------------------------------------------------------- #


def test_preset_catalog_is_complete():
    assert [name for name, _ in list_presets()] == PRESET_NAMES
    for name in PRESET_NAMES:
        validate_config(preset_config(name))


def test_unknown_preset_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_config("theorem-e")


def skew_fiber(**fields):
    """A mangle that swaps in the ``skew-construct`` preset and edits its fiber block."""
    def mangle(config):
        config.clear()
        config.update(preset_config("skew-construct"))
        config["detector"]["fiber"].update(fields)
    return mangle


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda c: c.pop("system"), "missing config block"),
        (lambda c: c["system"].update(kind="cylinder"), "unknown kind"),
        (lambda c: c["detector"].update(count=-5), "at least 1"),
        (lambda c: c["detector"].update(typo=True), "unknown keys"),
        (lambda c: c["output"].update(directory="/abs/path"), "must be relative"),
        (lambda c: c["output"].update(directory="../escape"), r"must not contain '\.\.'"),
        (lambda c: c["output"].update(directory="a/../../b"), r"must not contain '\.\.'"),
        (lambda c: c["output"].update(formats=["yaml"]), "formats"),
        (lambda c: c["detector"].update(start=0.1), "strings or integers"),
        (lambda c: c["system"].update(angle="rational:1/0"), "angle"),
        (lambda c: c.update(sampling={}), "does not sample"),
        (skew_fiber(angle="bogus"), r"^detector\.fiber\.angle: angle 'bogus' is missing"),
        (skew_fiber(extra=1), r"^detector\.fiber: unknown keys \['extra'\]"),
    ],
)
def test_malformed_configs_raise_config_errors(mangle, message):
    config = small_zero_sum_config()
    mangle(config)
    with pytest.raises(ConfigError, match=message):
        validate_config(config)


def test_sampled_detectors_require_a_seed():
    config = {
        "system": {"kind": "rotation", "angle": "preset:golden"},
        "cocycle": {"kind": "step", "breakpoints": ["0", "1/2"], "values": [1, -1]},
        "detector": {"kind": "induced", "target": {"intervals": [["0", "1/2"]]}},
        "sampling": {"samples": 200},
        "output": {"directory": "ind", "formats": ["json"]},
    }
    with pytest.raises(ConfigError, match="seed"):
        validate_config(config)
    config["sampling"]["seed"] = 1
    validate_config(config)


def test_flow_detector_rejects_step_cocycle():
    config = {
        "system": {
            "kind": "special_flow",
            "angle": "preset:golden",
            "roof_breakpoints": ["0", "1/2"],
            "roof_heights": ["1", "1"],
        },
        "cocycle": {"kind": "step", "breakpoints": ["0", "1/2"], "values": [1, -1]},
        "detector": {
            "kind": "flow_set_returns",
            "start": {"x": "1/10", "height": "0"},
            "t_max": "10",
            "target": {"intervals": [["0", "1"]]},
        },
        "output": {"directory": "flow", "formats": ["csv"]},
    }
    with pytest.raises(ConfigError, match="phase"):
        validate_config(config)


def test_config_error_writes_no_files(tmp_path):
    config = small_zero_sum_config(count=-3, directory="nothing")
    with pytest.raises(ConfigError):
        run_experiment(config, out_root=tmp_path)
    assert not (tmp_path / "nothing").exists()


MATRIX_SYSTEMS = {
    "rotation": {"kind": "rotation", "angle": "preset:golden"},
    "interval_exchange": {
        "kind": "interval_exchange",
        "lengths": ["1/2", "1/4", "1/4"],
        "permutation": [3, 2, 1],
    },
    "special_flow": {
        "kind": "special_flow",
        "angle": "preset:golden",
        "roof_breakpoints": ["0", "1/2"],
        "roof_heights": ["1", "1"],
    },
    "torus_winding": {"kind": "torus_winding", "slope": "preset:sqrt2"},
}
MATRIX_COCYCLES = {
    "none": None,
    "integer-step": {"kind": "step", "breakpoints": ["0", "1/2"], "values": [1, -1]},
    "rational-step": {"kind": "step", "breakpoints": ["0", "1/2"], "values": ["1", "-1"]},
    "phase": {"kind": "phase", "values": [1, -1]},
    "trig": {"kind": "trig", "terms": [[1, 0, "1", "0"]]},
}
# every (detector, system, cocycle) cell that validate_config accepts; the
# other cells of the matrix raise ConfigError.  zero_sums, joint_returns and
# sublinearity refuse a rational step cocycle, which they cannot run.
ACCEPTED_CELLS = {
    ("zero_sums", "rotation", "integer-step"),
    ("zero_sums", "interval_exchange", "integer-step"),
    ("near_returns", "rotation", "none"),
    ("near_returns", "rotation", "integer-step"),
    ("near_returns", "rotation", "rational-step"),
    ("near_returns", "interval_exchange", "none"),
    ("near_returns", "interval_exchange", "integer-step"),
    ("near_returns", "interval_exchange", "rational-step"),
    ("joint_returns", "rotation", "integer-step"),
    ("joint_returns", "interval_exchange", "integer-step"),
    ("sublinearity", "rotation", "integer-step"),
    ("sublinearity", "interval_exchange", "integer-step"),
    ("induced", "rotation", "integer-step"),
    ("induced", "rotation", "rational-step"),
    ("induced", "interval_exchange", "integer-step"),
    ("induced", "interval_exchange", "rational-step"),
    ("skew_orbit", "rotation", "integer-step"),
    ("skew_orbit", "interval_exchange", "integer-step"),
    ("flow_set_returns", "special_flow", "phase"),
    ("flow_near_returns", "special_flow", "phase"),
    ("flow_near_returns", "torus_winding", "trig"),
}


def matrix_config(detector, system, cocycle):
    """A config that is well formed in every block, for one cell of the matrix."""
    if system == "torus_winding":
        flow_start = {"x": "0", "y": "0"}
    else:
        flow_start = {"x": "1/10", "height": "0"}
    block = {
        "zero_sums": {"start": "1/10", "count": 10},
        "near_returns": {"start": "1/10", "count": 10, "eps": "1/10"},
        "joint_returns": {"start": "1/10", "count": 10, "eps": "1/10"},
        "sublinearity": {"n_list": [10], "eps": "1/10"},
        "induced": {"target": {"intervals": [["0", "1/2"]]}},
        "skew_orbit": {
            "fiber": {"kind": "rotation", "angle": "preset:sqrt2"},
            "start": {"x": "1/10", "y": "1/4"},
            "steps": 10,
            "rectangles": [[["0", "1/2"], ["0", "1/2"]]],
        },
        "flow_set_returns": {
            "start": flow_start, "t_max": "10", "target": {"intervals": [["0", "1"]]}
        },
        "flow_near_returns": {"start": flow_start, "t_max": "10", "eps": "1/20"},
    }[detector]
    config = {
        "system": MATRIX_SYSTEMS[system],
        "detector": {"kind": detector, **block},
        "output": {"directory": "matrix"},
    }
    if MATRIX_COCYCLES[cocycle] is not None:
        config["cocycle"] = MATRIX_COCYCLES[cocycle]
    if detector in ("sublinearity", "induced"):
        config["sampling"] = {"samples": 100, "seed": 0}
    return json.loads(json.dumps(config))


@pytest.mark.parametrize("cocycle", list(MATRIX_COCYCLES))
@pytest.mark.parametrize("system", list(MATRIX_SYSTEMS))
@pytest.mark.parametrize("detector", sorted({cell[0] for cell in ACCEPTED_CELLS}))
def test_validation_matrix(detector, system, cocycle):
    """Each cell is accepted or refused with a ConfigError, never another exception."""
    config = matrix_config(detector, system, cocycle)
    if (detector, system, cocycle) in ACCEPTED_CELLS:
        validate_config(config)
    else:
        with pytest.raises(ConfigError):
            validate_config(config)


# --------------------------------------------------------------------------- #
# artifacts
# --------------------------------------------------------------------------- #


def test_period_two_flow_target_rows(tmp_path):
    """The half-circle target run reports exactly the in-set zeros 2, 4, 6."""
    manifest = run_experiment(preset_config("theorem-a"), out_root=tmp_path)
    csv_text = (tmp_path / "theorem-a" / "results.csv").read_text()
    assert csv_text == "time,value,in_set\n2,0,1\n4,0,1\n6,0,1\n"
    assert manifest.status == "ok"
    assert any("rational" in w for w in manifest.warnings)


def test_manifest_records_provenance(tmp_path):
    config = small_zero_sum_config()
    manifest = run_experiment(config, out_root=tmp_path)
    out = tmp_path / "zs"
    stored = json.loads((out / "manifest.json").read_text())
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    assert stored["config_digest"] == hashlib.sha256(canonical).hexdigest()
    assert stored["config_digest"] == manifest.config_digest
    assert stored["tool_version"] == "0.1.0"
    assert stored["precision_scale"] == 192
    assert stored["outputs"] == ["config.json", "results.csv"]
    assert stored["status"] == "ok"
    assert stored["duration_seconds"] >= 0
    assert check_run_directory(out)


def test_digest_check_catches_tampering(tmp_path):
    run_experiment(small_zero_sum_config(), out_root=tmp_path)
    out = tmp_path / "zs"
    config = json.loads((out / "config.json").read_text())
    config["detector"]["count"] = 999
    (out / "config.json").write_text(json.dumps(config, sort_keys=True, separators=(",", ":")))
    assert not check_run_directory(out)


def test_rerun_is_byte_identical(tmp_path):
    """Same config, same seed: result files match byte for byte."""
    config = preset_config("theorem-d-weiss")
    config["sampling"]["samples"] = 500
    run_experiment(config, out_root=tmp_path / "a")
    run_experiment(config, out_root=tmp_path / "b")
    for name in ("config.json", "results.csv"):
        first = (tmp_path / "a" / "theorem-d-weiss" / name).read_bytes()
        second = (tmp_path / "b" / "theorem-d-weiss" / name).read_bytes()
        assert first == second


def test_failed_run_still_writes_manifest(tmp_path):
    """A budget blow-up records status and error before re-raising."""
    from ergolab.errors import ReturnBudgetError

    config = {
        "system": {"kind": "rotation", "angle": "preset:golden"},
        "cocycle": {"kind": "step", "breakpoints": ["0", "1/2"], "values": [1, -1]},
        "detector": {
            "kind": "induced",
            "target": {"intervals": [["0", "1/1000000"]]},
            "budget": 10,
        },
        "sampling": {"samples": 100, "seed": 0},
        "output": {"directory": "sliver", "formats": ["json"]},
    }
    with pytest.raises(ReturnBudgetError):
        run_experiment(config, out_root=tmp_path)
    stored = json.loads((tmp_path / "sliver" / "manifest.json").read_text())
    assert stored["status"] == "error"
    assert "ReturnBudgetError" in stored["error"]


@pytest.mark.parametrize("start", [str(Fraction(k, 10)) for k in range(10)])
@pytest.mark.parametrize("kind", ["zero_sums", "near_returns", "joint_returns"])
def test_a_rounded_exchange_is_refused_at_its_own_walls(tmp_path, kind, start):
    """Lengths 3/10 and 1/5 round to the 192-bit grid, so the orbit never closes.

    From every multiple of 1/10 the walk meets one of the exchange's walls
    with a nonzero radius, and ``IntervalExchange.apply`` refuses it.  That
    refusal carries no step, so the manifest records ``error_step: null``.
    """
    detector = {"kind": kind, "start": start, "count": 100_000}
    config = {
        "system": {"kind": "interval_exchange", "lengths": ["3/10", "1/5", "1/2"],
                   "permutation": [3, 2, 1]},
        "detector": detector,
        "output": {"directory": "iet", "formats": ["csv"]},
    }
    if kind != "zero_sums":
        detector["eps"] = "1/100"
    if kind != "near_returns":
        config["cocycle"] = {"kind": "step", "breakpoints": ["0", "1/2"], "values": [1, -1]}
    with pytest.raises(PrecisionExhaustedError) as refusal:
        run_experiment(config, out_root=tmp_path)
    assert refusal.value.step is None
    stored = json.loads((tmp_path / "iet" / "manifest.json").read_text())
    assert stored["status"] == "error" and stored["error_step"] is None


GOLDEN = {"kind": "rotation", "angle": "preset:golden"}
DYADIC_IET = {"kind": "interval_exchange", "lengths": ["1/8", "1/4", "3/8", "1/4"],
              "permutation": [4, 3, 2, 1]}
ROUNDED_IET = {"kind": "interval_exchange", "lengths": ["3/10", "1/5", "1/2"],
               "permutation": [3, 2, 1]}


def refuse_guarded_walk(*args, **kwargs):
    raise AssertionError("the scan walked before it was refused")


@pytest.mark.parametrize(
    "system, kind, eps, start",
    [
        (GOLDEN, "zero_sums", None, "1/10"),
        (GOLDEN, "near_returns", "3/7", "1/10"),
        (GOLDEN, "near_returns", f"1/{10**18}", "1/10"),
        ({"kind": "rotation", "angle": "rational:1/2"}, "zero_sums", None, "1/7"),
        ({"kind": "rotation", "angle": "rational:1/2"}, "joint_returns", "1/3", "1/7"),
        ({"kind": "rotation", "angle": "rational:1/3"}, "near_returns", "1/7", "1/7"),
        (DYADIC_IET, "zero_sums", None, "5/9"),
        (DYADIC_IET, "near_returns", "1/7", "5/9"),
        (ROUNDED_IET, "zero_sums", None, "1/7"),
        (ROUNDED_IET, "joint_returns", "1/7", "1/7"),
    ],
    ids=["zero_sums", "near_returns", "sparse-near_returns", "rational-zero_sums",
         "rational-joint_returns", "rational-near_returns", "exchange-zero_sums",
         "exchange-near_returns", "refusal-exchange-zero_sums",
         "refusal-exchange-joint_returns"],
)
def test_a_horizon_past_the_64_bit_words_exits_two(
    tmp_path, monkeypatch, system, kind, eps, start
):
    """A count of ``2**64`` is a precision refusal, not a crash nor an empty answer.

    The run records the kernel's horizon message with no step, and the
    command line exits with code 2.  On the golden rotation the kernel
    refuses it; a sparse near scan, which would walk the three-gap returns,
    is refused the same way.  A lap scan, on a rational angle or a dyadic
    interval exchange, would expand times past the int64 column, and an
    exchange whose walk never returns (lengths 3/10 and 1/5 round to the
    grid) would walk without end: each is refused before its first step, so
    the guarded walk is patched to fail if a scan reaches it.
    """
    monkeypatch.setattr(recurrence, "guarded_walk", refuse_guarded_walk)
    config = {
        "system": system,
        "detector": {"kind": kind, "start": start, "count": 2**64},
        "output": {"directory": "far", "formats": ["csv"]},
    }
    if kind != "near_returns":
        config["cocycle"] = {"kind": "step", "breakpoints": ["0", "1/2"], "values": [1, -1]}
    if eps is not None:
        config["detector"]["eps"] = eps
    with pytest.raises(PrecisionExhaustedError) as refusal:
        run_experiment(config, out_root=tmp_path / "api")
    assert refusal.value.step is None
    stored = json.loads((tmp_path / "api" / "far" / "manifest.json").read_text())
    assert stored["status"] == "error" and stored["error_step"] is None
    assert stored["error"] == (
        "PrecisionExhaustedError: the orbit horizon exceeds the scans' step limit"
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "cli")]) == 2


def test_a_listing_past_the_row_limit_exits_four(tmp_path, monkeypatch):
    """The rotation by 1/3 near its start over ``2**62`` steps would list ``2**62 / 3`` times.

    The scan is refused before it lists any (``np.arange`` is patched to
    fail), the run leaves an error manifest, and the command line exits
    with code 4.
    """
    monkeypatch.setattr(np, "arange", refuse_guarded_walk)
    config = {
        "system": {"kind": "rotation", "angle": "rational:1/3"},
        "detector": {"kind": "near_returns", "start": "0", "count": 2**62, "eps": "1/7"},
        "output": {"directory": "wide", "formats": ["csv"]},
    }
    with pytest.raises(RowLimitError), warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        run_experiment(config, out_root=tmp_path / "api")
    stored = json.loads((tmp_path / "api" / "wide" / "manifest.json").read_text())
    assert stored["status"] == "error" and stored["error"].startswith("RowLimitError: ")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        assert main(["run", str(path), "--out", str(tmp_path / "cli")]) == 4


def test_a_dense_kernel_near_scan_past_the_row_limit_exits_four(tmp_path, monkeypatch):
    """Golden near its start at eps 3/7 returns at least every other step: the certified kernel's side.

    Its least return gap is below the walk's minimum, so the scan runs on
    the kernel, and ``10**6`` steps could list ``10**6 + 1`` times.  With
    ``MAX_ROWS`` cut to 1,000 the scan is refused after the kernel's own
    checks and before it lists a block (the blocks are patched to fail);
    the run leaves an error manifest, and the command line exits with
    code 4.
    """
    kernel = recurrence.certified_cells

    def unlisted(*args):
        kernel(*args)  # the kernel's horizon refusal still comes first
        return (refuse_guarded_walk() for _ in [None])  # fails at the first block

    monkeypatch.setattr(recurrence, "MAX_ROWS", 1000)
    monkeypatch.setattr(recurrence, "certified_cells", unlisted)
    config = {
        "system": {"kind": "rotation", "angle": "preset:golden"},
        "detector": {"kind": "near_returns", "start": "0", "count": 10**6, "eps": "3/7"},
        "output": {"directory": "dense", "formats": ["csv"]},
    }
    with pytest.raises(RowLimitError, match="1000001 rows"):
        run_experiment(config, out_root=tmp_path / "api")
    stored = json.loads((tmp_path / "api" / "dense" / "manifest.json").read_text())
    assert stored["status"] == "error" and stored["error"].startswith("RowLimitError: ")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "cli")]) == 4


def test_a_winding_grid_past_the_row_limit_exits_four(tmp_path, monkeypatch):
    """``t_max = 10**12`` along the sqrt2 winding has about ``2 10**13`` grid points, past ``MAX_ROWS``.

    Each grid point ends at most one zero, so the scan is refused before
    its first block (the scan is patched to fail); the run leaves an error
    manifest, and the command line exits with code 4.
    """
    monkeypatch.setattr(recurrence, "winding_zero_times", refuse_guarded_walk)
    config = preset_config("theorem-b-winding")
    config["detector"]["t_max"] = str(10**12)
    with pytest.raises(RowLimitError, match="MAX_ROWS"):
        run_experiment(config, out_root=tmp_path / "api")
    stored = json.loads((tmp_path / "api" / "theorem-b-winding" / "manifest.json").read_text())
    assert stored["status"] == "error" and stored["error"].startswith("RowLimitError: ")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "cli")]) == 4


def test_a_failed_flow_run_records_its_roof_crossing(tmp_path):
    """An eps equal to a zero's base distance lies inside that distance's error interval.

    The golden flow from ``(1/10, 0)`` under roof height 1 starts crossing
    ``k`` at time ``k``, on the floor.  The scan refuses at the crossing of
    the first zero whose distance straddles eps, the manifest records it
    as ``error_step``, and the command line exits with code 2.
    """
    roof = ergolab.Roof([0, Fraction(1, 2)], [1, 1],
                        ergolab.CircleRotation(ergolab.AngleSpec.preset("golden")))
    f = ergolab.PhaseFunction.from_base_values(roof, [1, -1])
    rows = ergolab.flow_zero_near_returns(
        roof, f, ergolab.SpecialFlowState(Fraction(1, 10)), 200, Fraction(1, 20)
    )
    row = next(r for r in rows if r.time.denominator == 1)
    config = {
        "system": MATRIX_SYSTEMS["special_flow"],
        "cocycle": {"kind": "phase", "values": [1, -1]},
        "detector": {"kind": "flow_near_returns", "start": {"x": "1/10", "height": "0"},
                     "t_max": "200", "eps": str(row.distance)},
        "output": {"directory": "flow", "formats": ["csv"]},
    }
    with pytest.raises(PrecisionExhaustedError) as refusal:
        run_experiment(config, out_root=tmp_path / "api")
    assert refusal.value.step == row.time
    stored = json.loads((tmp_path / "api" / "flow" / "manifest.json").read_text())
    assert stored["status"] == "error" and stored["error_step"] == row.time
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "cli")]) == 2


# --------------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------------- #


def test_cli_run_preset(tmp_path, capsys):
    assert main(["run", "--preset", "theorem-a", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.split()
    assert "results.csv" in printed
    assert (tmp_path / "theorem-a" / "results.csv").exists()


def test_cli_validate(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(small_zero_sum_config()))
    assert main(["validate", str(good)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(small_zero_sum_config(count=-1)))
    assert main(["validate", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_missing_and_malformed_files_exit_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["run", str(broken)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_budget_exit_code(tmp_path, capsys):
    config = {
        "system": {"kind": "rotation", "angle": "preset:golden"},
        "cocycle": {"kind": "step", "breakpoints": ["0", "1/2"], "values": [1, -1]},
        "detector": {
            "kind": "induced",
            "target": {"intervals": [["0", "1/1000000"]]},
            "budget": 10,
        },
        "sampling": {"samples": 100, "seed": 0},
        "output": {"directory": "sliver", "formats": ["json"]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 3
    assert "budget" in capsys.readouterr().err


def test_cli_precision_exit_code(tmp_path, monkeypatch, capsys):
    """Exit code 2 is reserved for precision exhaustion (mapping test)."""
    import ergolab.cli as cli_module

    def explode(raw, out_root=None):
        raise PrecisionExhaustedError("ambiguous comparison", step=17)

    monkeypatch.setattr(cli_module, "run_experiment", explode)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_zero_sum_config()))
    assert main(["run", str(path)]) == 2
    assert "step 17" in capsys.readouterr().err


def zero_phase_config():
    """The golden flow preset with a phase function that vanishes everywhere."""
    config = preset_config("theorem-b-flow")
    config["cocycle"]["values"] = [0, 0]
    config["output"]["directory"] = "zero-phase"
    return config


def resonant_winding_config():
    """Slope 1/2 with the mode (1, -2), whose frequency 1 - 2 * 1/2 is 0."""
    config = preset_config("theorem-b-winding")
    config["system"]["slope"] = "rational:1/2"
    config["cocycle"]["terms"] = [[1, -2, "1", "0"]]
    config["output"]["directory"] = "resonant"
    return config


def rational_step_config(preset, **detector):
    """A step-cocycle preset with its values as strings, which parse to Fractions."""
    config = preset_config(preset)
    config["cocycle"]["values"] = ["1", "-1"]
    config["detector"].update(detector)
    return config


def skew_config(**detector):
    """The skew-construct preset, shortened, with detector keys replaced."""
    config = preset_config("skew-construct")
    config["detector"].update(steps=10, **detector)
    return config


def induced_target_config(lo, hi):
    """The induced preset on the golden rotation with the target ``[lo, hi)``."""
    config = preset_config("theorem-c-induced")
    config["detector"]["target"] = {"intervals": [[lo, hi]]}
    return config


def roof_start_config(height, allow_zero_value):
    """The golden flow preset (roof height 1) started at ``height``."""
    config = preset_config("theorem-b-flow")
    config["detector"]["start"]["height"] = height
    config["detector"]["allow_zero_value"] = allow_zero_value
    return config


def roof_wall_start_config():
    """The golden flow preset started 10**-60 below its roof wall at 1/2."""
    config = preset_config("theorem-b-flow")
    config["detector"]["start"]["x"] = str(Fraction(1, 2) - Fraction(1, 10**60))
    return config


@pytest.mark.parametrize(
    "config, message",
    [
        (zero_phase_config(), "vanishes"),
        (resonant_winding_config(), "resonant"),
        (rational_step_config("krygin-atkinson"), "integer step"),
        (rational_step_config("krygin-atkinson", kind="joint_returns", eps="1/20"),
         "integer step"),
        (rational_step_config("theorem-d-weiss"), "integer step"),
        (roof_start_config("1", allow_zero_value=False), "roof height"),
        (roof_start_config("5", allow_zero_value=True), "roof height"),
        (roof_wall_start_config(), "too close to a roof wall"),
        (skew_config(rectangles=[[["0", "2"], ["0", "1"]]]), "0 <= lo < hi <= 1"),
        (skew_config(rectangles=[[["1/2", "0"], ["0", "1"]]]), "0 <= lo < hi <= 1"),
        (skew_config(start={"x": "3", "y": "1/4"}), "0 <= x < 1"),
        (induced_target_config(f"1/{10**30}", f"2/{10**30}"), "sampling grid"),
    ],
    ids=[
        "zero-value-start",
        "resonant-mode",
        "rational-step-zero-sums",
        "rational-step-joint-returns",
        "rational-step-sublinearity",
        "start-on-roof",
        "start-above-roof-allowing-zero-value",
        "start-within-an-ulp-of-a-roof-wall",
        "skew-rectangle-beyond-circle",
        "skew-rectangle-reversed",
        "skew-start-beyond-circle",
        "induced-target-between-grid-points",
    ],
)
def test_cli_rejects_run_time_failures_as_config_errors(tmp_path, capsys, config, message):
    """Each condition is decided from the config: exit 1 and nothing written."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        assert main(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("directory", ["../escape", "a/../../b"])
def test_cli_keeps_run_directories_inside_the_output_root(tmp_path, capsys, directory):
    """A ``..`` component is a config error: exit 1, and nothing appears anywhere."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_zero_sum_config(directory=directory)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RationalAngleWarning)
        assert main(["run", str(path), "--out", str(tmp_path / "root" / "out")]) == 1
    assert "config error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_zero_value_start_is_allowed_on_request():
    config = zero_phase_config()
    config["detector"]["allow_zero_value"] = True
    validate_config(config)


@pytest.mark.parametrize(
    "exc, code",
    [(RationalAngleError("no expansion"), 4), (RuntimeError("bug"), 5)],
    ids=["other-ergolab-error", "unexpected-exception"],
)
def test_cli_other_failures_have_distinct_exit_codes(tmp_path, monkeypatch, exc, code):
    import ergolab.cli as cli_module

    def explode(raw, out_root=None):
        raise exc

    monkeypatch.setattr(cli_module, "run_experiment", explode)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_zero_sum_config()))
    assert main(["run", str(path)]) == code


def test_cli_presets_lists_catalog(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESET_NAMES:
        assert name in out


def test_cli_module_entry_point(tmp_path):
    """``python -m ergolab.cli`` runs a preset end to end in a subprocess.

    The child imports the same ``ergolab`` as this test process, whether
    that is a source checkout or an installed copy, and writes the same
    result bytes as an in-process run.
    """
    package_root = Path(ergolab.__file__).resolve().parents[1]
    cli_root = tmp_path / "cli"
    env = {
        "ERGOLAB_OUTPUT_ROOT": str(cli_root),
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(package_root),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "ergolab.cli", "run", "--preset", "theorem-a"],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["config.json", "results.csv"]
    cli_dir = cli_root / "theorem-a"
    assert (cli_dir / "manifest.json").exists()

    run_experiment(preset_config("theorem-a"), out_root=tmp_path / "inproc")
    for name in ("config.json", "results.csv"):
        assert (cli_dir / name).read_bytes() == (
            tmp_path / "inproc" / "theorem-a" / name
        ).read_bytes(), name


# --------------------------------------------------------------------------- #
# column-wise CSV writer against the per-cell csv.writer oracle
# --------------------------------------------------------------------------- #

SUMMARY_TEXT = [
    "mean_return", "se_return", "kac_product", "samples", "censored",
    "rectangle_0", "rectangle_12", "fiber_displacement", "0.2629", "-1.5e-07", "",
]
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, 1e300, 0.1]
# every digit count of int64 from 1 to 19, at the powers of 10 on either side, with both signs
INT64_EDGES = sorted({
    sign * v
    for v in [0, 2**63 - 1, *(10**k for k in range(19)), *(10**k - 1 for k in range(1, 19))]
    for sign in (1, -1)
} | {-(2**63)})


def half_up_fractions(digits):
    """Values exactly halfway between two neighbours at ``digits`` decimals."""
    return st.builds(
        lambda k, sign: sign * Fraction(2 * k + 1, 2 * 10**digits),
        st.integers(0, 10**12),
        st.sampled_from([1, -1]),
    )


@st.composite
def csv_column(draw, rows, digits):
    """(kind, what the writer is given, the cells the per-cell oracle is given)."""
    kind = draw(st.sampled_from(
        ["int64", "zero", "fraction", "float", "bool", "true", "none", "text"]
    ))

    def cells_of(elements):
        return draw(st.lists(elements, min_size=rows, max_size=rows))

    if kind == "int64":
        cells = cells_of(
            st.integers(-(2**63), 2**63 - 1) | st.integers(2**31, 2**40) | st.sampled_from(INT64_EDGES)
        )
        return kind, np.array(cells, dtype=np.int64), cells
    if kind == "zero":
        constant = draw(st.sampled_from([0, Fraction(0)]))
        return kind, constant, [constant] * rows
    if kind == "fraction":
        integers = st.integers(-(10**20), 10**20).map(Fraction)
        cells = cells_of(st.fractions() | half_up_fractions(digits) | integers)
        return kind, cells, cells
    if kind == "float":
        cells = cells_of(st.floats() | st.sampled_from(EDGE_FLOATS))
        given = draw(st.sampled_from([
            list(cells), [np.float64(c) for c in cells], np.array(cells, dtype=np.float64),
        ]))
        return kind, given, cells
    if kind == "bool":
        cells = cells_of(st.booleans())
        return kind, draw(st.sampled_from([list(cells), np.array(cells, dtype=bool)])), cells
    if kind == "true":
        return kind, True, [True] * rows
    if kind == "none":
        return kind, draw(st.sampled_from([None, [None] * rows])), [None] * rows
    cells = cells_of(st.sampled_from(SUMMARY_TEXT))
    return kind, cells, cells


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "results.csv"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_column_writer_matches_per_cell_csv(data, csv_path):
    rows = data.draw(st.integers(0, 12), label="rows")
    digits = data.draw(st.integers(1, 40), label="digits")
    columns = data.draw(st.lists(csv_column(rows, digits), min_size=1, max_size=4))
    # the rows come from the sequence columns; scalars repeat on each of them
    assume(rows == 0 or any(isinstance(given, (list, np.ndarray)) for _, given, _ in columns))
    # csv.writer quotes a lone empty field; no single-column table has one
    assume(len(columns) > 1 or columns[0][0] not in ("none", "text"))
    header = [f"c{i}" for i in range(len(columns))]
    _write_csv(csv_path, header, [given for _, given, _ in columns], digits)
    written = csv_path.read_bytes()
    want = reference_csv_bytes(header, zip(*(cells for _, _, cells in columns)), digits)
    assert written == want
    assert b"np." not in written


@pytest.mark.parametrize("increasing", [False, True], ids=["unsorted", "increasing"])
def test_column_writer_matches_per_cell_csv_at_scale(increasing, csv_path):
    """10**5 rows of int64 edges beside a float distance, exact rationals and every kind of scalar."""
    rows, digits = 10**5, 12
    rng = np.random.default_rng(7)
    times = np.resize(np.array(INT64_EDGES, dtype=np.int64), rows)
    times = np.sort(times) if increasing else rng.permutation(times)
    distance = rng.random(rows) * 10.0 ** rng.integers(-12, 3, rows)
    rationals = [Fraction(int(p), int(q)) for p, q in zip(rng.integers(-10**6, 10**6, rows),
                                                          rng.integers(1, 10**4, rows))]
    scalars = [0, Fraction(0), True, None]
    header = ["time", "distance", "value", "zero", "exact_zero", "flag", "empty"]
    _write_csv(csv_path, header, [times, distance, rationals, *scalars], digits)
    cells = [times.tolist(), distance.tolist(), rationals, *([c] * rows for c in scalars)]
    assert csv_path.read_bytes() == reference_csv_bytes(header, zip(*cells), digits)


@pytest.mark.parametrize("column", [[1j, 2j, 3j], 1j], ids=["sequence", "scalar"])
def test_a_column_the_writer_cannot_render_leaves_no_results_file(column, tmp_path, monkeypatch):
    """The table is rendered before the file is opened: a ``TypeError``, no ``results.csv``, an error manifest."""
    path = tmp_path / "results.csv"
    with pytest.raises(TypeError, match="no CSV rendering for complex cells"):
        _write_csv(path, ["time", "z"], [np.arange(3), column], 12)
    assert not path.exists()
    monkeypatch.setattr(
        experiments, "_execute", lambda config: (["time", "z"], [np.arange(3), column], None)
    )
    with pytest.raises(TypeError):
        run_experiment(small_zero_sum_config(), out_root=tmp_path)
    assert not (tmp_path / "zs" / "results.csv").exists()
    stored = json.loads((tmp_path / "zs" / "manifest.json").read_text())
    assert stored["status"] == "error" and stored["outputs"] == ["config.json"]
    assert stored["error"] == "TypeError: no CSV rendering for complex cells"
