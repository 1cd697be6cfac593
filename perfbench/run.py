"""ergolab benchmark: seeded experiment batches through the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rotation-scan --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

Load model: closed loop, one client.  A single thread runs the workload's
batch of experiment configs back to back through ``validate_config`` and
``run_experiment``, writing into a temporary directory under
``.perfbench/`` in the checkout.  One untimed warm-up pass comes first;
its outputs are checked (``checks.py``) and every timed pass must
reproduce them byte for byte.  Timed passes repeat until ``--seconds``
have been measured, with ``gc.collect()`` between passes, never inside one.
Times are reported in reference seconds (``calibration.py``): each
experiment's median over the passes, rescaled by the calibration loops
run before and after it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time on untraced passes and half on passes traced by ``tracing.py``, and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status is 0 when a result was printed, nonzero when the run could
not be made (for example, without ``src/ergolab`` next to this directory).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import calibration
import checks
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
DETECTORS = ("zero_sums", "near_returns", "joint_returns", "flow_set_returns",
             "flow_near_returns", "sublinearity", "induced", "skew_orbit")


def env_line(tag: str) -> str:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = ["?"]
    return (f"env {tag}: python={platform.python_version()} numpy={np.__version__} "
            f"nproc={os.cpu_count()} loadavg={' '.join(loadavg)}")


def summarize(values: list[float]) -> str:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    text = f"median of n={n}"
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - p / 100) >= 10:
            k = min(n - 1, int(p / 100 * n))
            return text + f", p{p:g}={ordered[k]!r}"
    return text + " (too few samples for a tail percentile)"


def measure_setup(batch_path: Path) -> list[float]:
    """Import + validate in fresh interpreters, one after another."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(batch_path)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_pass(ergolab, batch, configs, out_root: Path, tracer: Tracer | None = None):
    """One pass of the batch.

    Returns (measured seconds, reference seconds, outcomes), one entry per
    experiment; each experiment sits between two calibration loops.
    """
    times, scaled, outcomes = [], [], []
    before = calibration.loop_seconds()
    for exp, cfg in zip(batch, configs):
        if tracer is not None:
            tracer.experiment = exp.name
        t0 = time.perf_counter()
        try:
            ergolab.run_experiment(cfg, out_root)
            outcome = None
        except Exception as exc:  # recorded and judged by the output checks
            outcome = exc
        seconds = time.perf_counter() - t0
        after = calibration.loop_seconds()
        times.append(seconds)
        scaled.append(calibration.reference_seconds(seconds, before, after))
        outcomes.append(outcome)
        before = after
    return times, scaled, outcomes


def per_experiment_median(passes: list[list[float]]) -> list[float]:
    return [statistics.median(column) for column in zip(*passes)]


def output_size(out_root: Path) -> tuple[int, int]:
    rows = size = 0
    for path in out_root.rglob("*"):
        if path.is_file():
            size += path.stat().st_size
            if path.name == "results.csv":
                with open(path, "rb") as handle:
                    rows += sum(1 for _ in handle) - 1
    return rows, size


def run_workload(args) -> int:
    if not (SRC / "ergolab" / "__init__.py").is_file():
        print(f"perfbench: no ergolab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(env_line("before"))
    batch = workloads.build(args.workload, args.seed)
    print(f"batch digest {workloads.batch_digest(batch)} ({len(batch)} configs)")
    for exp in batch:
        print(f"config {exp.name} {exp.digest()}")
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(args, batch, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, batch, tmp: Path) -> int:
    batch_path = tmp / "batch.json"
    batch_path.write_text(json.dumps([e.config for e in batch]), encoding="ascii")
    setup = measure_setup(batch_path)

    sys.path.insert(0, str(SRC))
    import ergolab

    configs = [ergolab.validate_config(e.config) for e in batch]
    expected = json.loads(EXPECTED.read_text(encoding="ascii"))
    recorded = expected["digests"].get(args.workload) if args.seed == DEFAULT_SEED else None

    # warm-up pass: untimed, and the reference every timed pass must reproduce
    warm_root = tmp / "warmup"
    warm_outcomes = run_pass(ergolab, batch, configs, warm_root)[2]
    dirs = [warm_root / e.name for e in batch]
    reference = [checks.file_digests(d) for d in dirs]
    bad = set()
    for i, (exp, cfg, outcome) in enumerate(zip(batch, configs, warm_outcomes)):
        problems = checks.check_experiment(exp, cfg, dirs[i], outcome,
                                           expected["refusals"], dirs)
        if recorded is not None and recorded.get(exp.name) != reference[i]:
            problems.append("result files differ from the digests recorded for the default seed")
        for problem in problems:
            print(f"FAIL {exp.name}: {problem}")
        if problems:
            bad.add(i)
    selftest_ok = self_test(batch, configs, dirs, warm_outcomes, expected, tmp)
    del warm_outcomes
    gc.collect()

    untraced, traced_passes = [], []  # (measured seconds, reference seconds) per pass
    layer_runs, tracers = [], []
    attempted = failed = 0
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    measured = 0.0
    k = 0
    while measured < args.seconds or (args.trace and not traced_passes):
        traced = bool(args.trace) and measured >= untraced_budget
        out_root = tmp / f"pass{k}"
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
            for exp in batch:  # validation is traced but kept out of the pass time
                tracer.experiment = exp.name
                ergolab.validate_config(exp.config)
        try:
            times, scaled, outcomes = run_pass(ergolab, batch, configs, out_root, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        measured += sum(times)
        (traced_passes if traced else untraced).append((times, scaled))
        for i, exp in enumerate(batch):
            attempted += 1
            ok = (i not in bad
                  and checks.file_digests(out_root / exp.name) == reference[i]
                  and (outcomes[i] is None) == (exp.check["kind"] != "refusal"))
            if not ok:
                failed += 1
                print(f"FAIL {exp.name}: pass {k} did not reproduce the checked outcome")
        if tracer is not None:
            tracers.append(tracer)
            layer_runs.append(tracer.metrics(*output_size(out_root)))
        shutil.rmtree(out_root, ignore_errors=True)
        del outcomes
        gc.collect()
        k += 1

    correct = failed == 0 and not bad and selftest_ok
    walls = [sum(times) for times, _ in untraced]
    per_exp = per_experiment_median([scaled for _, scaled in untraced])
    print(f"measured pass seconds: median {statistics.median(walls)!r}, "
          f"min {min(walls)!r}, max {max(walls)!r} ({summarize(walls)})")
    metrics: dict[str, dict] = {}
    if args.trace:
        traced_exp = per_experiment_median([scaled for _, scaled in traced_passes])
        correct &= report_layers(args, batch, sum(traced_exp) / sum(per_exp),
                                 layer_runs, tracers, metrics)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"wall_s {sum(per_exp)!r} s  (reference seconds: sum of per-experiment "
              f"medians over {len(walls)} passes)")
        for exp, seconds in zip(batch, per_exp):
            print(f"  {exp.name} {seconds!r} s")
        for name in DETECTORS:
            chosen = [t for t, exp in zip(per_exp, batch) if exp.detector == name]
            if chosen:
                print(f"detector_s.{name} {sum(chosen)!r} s  ({len(chosen)} experiments)")
        print(f"setup_s {statistics.median(setup)!r} s  {summarize(setup)}")
        print(f"peak_rss_mb {peak_mb!r} MB")
        metrics = {
            "wall_s": {"value": sum(per_exp), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(f"failed_ratio {failed / attempted!r} ({failed} of {attempted} experiments)")
    print(env_line("after"))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def self_test(batch, configs, dirs, outcomes, expected, tmp: Path) -> bool:
    """A result file with one corrupted row must fail its check."""
    i = next(i for i, e in enumerate(batch)
             if e.check["kind"] not in ("refusal", "sublinearity") and outcomes[i] is None)
    copy = tmp / "selftest" / batch[i].name
    shutil.copytree(dirs[i], copy)
    checks.corrupt_first_row(copy)
    caught = checks.check_experiment(batch[i], configs[i], copy, None,
                                     expected["refusals"], dirs)
    print(f"self-test: corrupted first row of {batch[i].name}: "
          f"{'caught' if caught else 'NOT caught'}")
    return bool(caught)


def report_layers(args, batch, overhead, layer_runs, tracers, metrics) -> bool:
    """Print per-layer metrics (median over traced passes); returns trace-side correctness."""
    names = list(layer_runs[0])
    for name in names:
        value = statistics.median_low(run[name][0] for run in layer_runs)
        metrics[name] = {"value": value, "unit": layer_runs[0][name][1]}
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    absent = tracers[0].absent
    print(f"absent wrappers: {', '.join(absent) if absent else 'none'}")
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(
        [{"pass": k, "spans": t.span_records()} for k, t in enumerate(tracers)]),
        encoding="ascii")
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    refusals = sum(e.check["kind"] == "refusal" for e in batch)
    ok = all(t.precision_errors == refusals for t in tracers)
    if not ok:
        print(f"FAIL trace: precision errors {[t.precision_errors for t in tracers]}, "
              f"expected {refusals} refusals per pass")
    return ok


def run_all(args) -> int:
    """Every workload in its own fresh process, so set-up and memory stay per workload."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
