"""Set-up probe: seconds to import ``ergolab`` plus ``validate_config`` of a batch.

Run in a fresh interpreter so the import is cold for the process:

    python3 perfbench/setup_probe.py SRC_DIR BATCH_JSON

Prints the measured seconds, rescaled to reference seconds by two
calibration loops run right after (see ``calibration.py``), as the
``repr`` of a float on one line.  The loops run after the measurement
because they import ``fractions``, which ``ergolab``'s import must pay for.
"""
import sys
import time


def main() -> None:
    src, batch_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    started = time.perf_counter()
    import ergolab

    imported = time.perf_counter()
    import json

    with open(batch_path, encoding="ascii") as handle:
        batch = json.load(handle)
    loaded = time.perf_counter()
    for raw in batch:
        ergolab.validate_config(raw)
    done = time.perf_counter()
    import calibration

    measured = (imported - started) + (done - loaded)
    first, second = calibration.loop_seconds(), calibration.loop_seconds()
    print(repr(calibration.reference_seconds(measured, first, second)))


if __name__ == "__main__":
    main()
