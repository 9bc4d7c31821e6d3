import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_a_falsified_property_fails_only_its_own_test(tmp_path):
    # the probe runs under this suite's pyproject.toml warning filters and conftest.py
    shutil.copy(TESTS.parent / "pyproject.toml", tmp_path)
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 3\n"
        "\n"
        "\n"
        "def test_after():\n"
        "    pass\n"
    )
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
