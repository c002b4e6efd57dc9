"""The repo's pytest settings report a failing property test and run on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_probe_fails(n):
    assert n < 0


def test_probe_passes():
    pass
'''


def test_a_failing_given_test_is_reported_and_the_run_goes_on(tmp_path):
    # hypothesis's failure report once raised a DeprecationWarning that the
    # "error" filter turned into an INTERNALERROR, ending the whole run
    (tmp_path / "test_probe.py").write_text(PROBE)
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-v", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 1, r.stdout + r.stderr
    assert "INTERNALERROR" not in r.stdout + r.stderr
    assert "FAILED test_probe.py::test_probe_fails" in r.stdout
    assert "test_probe.py::test_probe_passes PASSED" in r.stdout
    assert "1 failed, 1 passed" in r.stdout
