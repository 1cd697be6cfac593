"""Re-record ``expected.json``: default-seed result digests and refusal steps.

Run from the root of a checkout, only when a change to the result files or
to a refusal is intended:

    python3 perfbench/record.py

For every workload it runs the default-seed batch once and stores the
SHA-256 of each run's result files; for every candidate refusal config it
stores the step carried by the ``PrecisionExhaustedError``.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
import warnings

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import ergolab

    run.WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=run.WORK)
    try:
        digests = {}
        for name in workloads.WORKLOADS:
            batch = workloads.build(name, run.DEFAULT_SEED)
            configs = [ergolab.validate_config(e.config) for e in batch]
            out_root = run.Path(tmp) / name
            run.run_pass(ergolab, batch, configs, out_root)
            digests[name] = {e.name: checks.file_digests(out_root / e.name) for e in batch}
        refusals = {}
        for kind in ("zero_sums", "near_returns", "joint_returns"):
            for start in workloads.REFUSAL_STARTS:
                detector = {"kind": kind, "start": start, "count": 100_000}
                if kind != "zero_sums":
                    detector["eps"] = "1/100"
                raw = {"system": workloads.REFUSAL_IET, "detector": detector,
                       "output": {"directory": "refusal"}}
                if kind != "near_returns":
                    raw["cocycle"] = workloads.HALF_STEP
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        ergolab.run_experiment(raw, tmp)
                except ergolab.PrecisionExhaustedError as exc:
                    refusals[f"{kind}@{start}"] = {"error": "PrecisionExhaustedError",
                                                   "step": exc.step}
                    continue
                raise SystemExit(f"{kind} from {start} was not refused")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps({"default_seed": run.DEFAULT_SEED, "digests": digests,
                                        "refusals": refusals}, indent=1, sort_keys=True) + "\n",
                            encoding="ascii")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
