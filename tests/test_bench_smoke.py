"""The benchmark's own smoke run passes on this checkout.

``perfbench/smoke.py`` runs every workload at tiny size, untraced and
traced, and checks each run's result line and correctness checks; it also
checks that the benchmark refuses to run without ``src/``. The hook tests
only resolve the names the benchmark patches, so without this a workload
whose own output checks fail would go unnoticed until the benchmark runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_exits_zero():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, timeout=900,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stdout[-3000:]
