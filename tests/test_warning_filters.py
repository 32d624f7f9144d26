"""The pytest warning filters of ``pyproject.toml``: a warning raised by
project code is an error, and a failing hypothesis example fails its own
test without aborting the run."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = textwrap.dedent("""
    import warnings

    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(database=None)
    @given(st.integers())
    def test_fails(n):
        assert n < 0


    def test_warning_is_error():
        warnings.warn("deprecated", DeprecationWarning)


    def test_passes():
        pass
""")


def test_failing_example_does_not_abort_the_run(tmp_path):
    # the failure report imports libcst, whose import warns with a
    # DeprecationWarning; under error::DeprecationWarning alone that ended
    # the run in an INTERNALERROR before the later tests ran
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "2 failed, 1 passed" in out
    assert "FAILED test_probe.py::test_warning_is_error" in out
