"""The suite's own pytest settings.

``filterwarnings = ["error"]`` turns every warning into a failure.  When a
Hypothesis test fails, its pytest plugin imports ``hypothesis.extra._patching``
and through it libcst, which defines a TypedDict via ``mypy_extensions``; the
DeprecationWarning that raises must not become an INTERNALERROR that stops
the run at the first failing property test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_passes():
    assert True
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
