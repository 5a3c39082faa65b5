"""The examples that call the checkpoint API run end to end.

Each example runs as its own process from an empty working directory,
the way a reader runs it, so an API change that breaks one fails the
suite instead of only the docs job.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name",
    ["quickstart", "failure_recovery", "online_training", "transfer_learning"],
)
def test_example_runs(name, tmp_path):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert list(tmp_path.iterdir()) == []
