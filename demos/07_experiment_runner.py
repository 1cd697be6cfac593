"""Reproducible experiment runs: configs, artifacts, and the preset catalog.

Everything the detectors can do is also reachable through a declarative
JSON config.  A run leaves behind a self-describing directory -- the
canonical config, the results, and a manifest whose digest pins the two
together.  The same runner backs the ``ergolab`` command line tool.
"""
import json
import tempfile
from pathlib import Path

from ergolab import check_run_directory, list_presets, preset_config, run_experiment

print("built-in presets:")
for name, summary in list_presets():
    print(f"  {name:20s} {summary}")

# run one preset into a scratch directory
with tempfile.TemporaryDirectory(prefix="ergolab-demo-") as scratch:
    root = Path(scratch)
    config = preset_config("theorem-a")
    manifest = run_experiment(config, out_root=root)

    run_dir = root / config["output"]["directory"]
    print(f"\nrun directory: {run_dir}")
    print("artifacts:", manifest.outputs)
    print("warnings captured:", manifest.warnings)
    print("results.csv:")
    print((run_dir / "results.csv").read_text())

    # the manifest's digest re-validates against the stored config bytes
    print("digest check:", check_run_directory(run_dir))
    stored = json.loads((run_dir / "manifest.json").read_text())
    print(f"tool {stored['tool_version']}, precision scale {stored['precision_scale']} bits,"
          f" {stored['duration_seconds']:.3f}s")

    # hand-rolled configs use the same schema; numbers travel as exact strings
    custom = {
        "system": {"kind": "rotation", "angle": "surd:(0+1*sqrt(3))/2"},
        "cocycle": {"kind": "step", "breakpoints": ["0", "1/2"], "values": [1, -1]},
        "detector": {"kind": "zero_sums", "start": "1/7", "count": 2_000},
        "output": {"directory": "sqrt3-zeros", "formats": ["csv"]},
    }
    manifest = run_experiment(custom, out_root=root)
    rows = (root / "sqrt3-zeros" / "results.csv").read_text().splitlines()
    print(f"\ncustom run: {len(rows) - 1} zero-sum records, first rows {rows[1:4]}")
