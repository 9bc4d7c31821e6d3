"""The benchmark harness still runs against the package.

``perfbench/run.py --self-check`` makes tiny traced and untraced
``run-all`` runs on every workload, so a renamed or restructured layer
that the tracer wraps, or an artifact the gate no longer accepts, fails
here instead of only when the full benchmark is run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_check_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "self-check: 0 failure(s)" in proc.stdout
