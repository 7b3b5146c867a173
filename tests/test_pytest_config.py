"""The suite's warning filters let a failing test fail without ending the session."""

import shutil
import subprocess
import sys
from pathlib import Path

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # a failing @given test makes hypothesis import libcst, whose import warns;
    # the error::DeprecationWarning filter must not turn that into an INTERNALERROR
    shutil.copy(Path(__file__).resolve().parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert out.strip().splitlines()[-1].startswith("1 failed, 1 passed"), out
