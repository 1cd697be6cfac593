"""Every script under ``demos/`` runs to completion as a standalone program."""
import subprocess
import sys
from pathlib import Path

import pytest

import ergolab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    """The child imports the same ``ergolab`` as the tests and leaves its ``TMPDIR`` empty."""
    scratch, cwd = tmp_path / "tmp", tmp_path / "cwd"
    scratch.mkdir()
    cwd.mkdir()
    env = {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(Path(ergolab.__file__).resolve().parents[1]),
        "TMPDIR": str(scratch),
    }
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(cwd),
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in scratch.iterdir()) == []
