"""The benchmark's own self-test, run as part of the suite.

``perfbench/`` reads library fields (``WeakValue.value``,
``AblDistribution.entries``, ``ReadingSample.readings``, a mixture's
``coefficients`` and ``shifts``); a change that breaks what it reads shows
here, not only when the benchmark itself is run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "self-test passed" in proc.stdout
