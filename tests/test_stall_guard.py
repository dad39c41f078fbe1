"""The suite-wide ``timeout`` ini key is enforced with or without
pytest-timeout: a hung test fails instead of wedging the run."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_hung_test_fails_instead_of_wedging(tmp_path):
    tests = tmp_path / "tests"
    tests.mkdir()
    shutil.copy(REPO / "tests" / "conftest.py", tests / "conftest.py")
    (tmp_path / "pyproject.toml").write_text(
        '[tool.pytest.ini_options]\ntestpaths = ["tests"]\ntimeout = 1\n'
    )
    (tests / "test_hang.py").write_text(
        "import time\n\n"
        "def test_quick():\n    pass\n\n"
        "def test_hangs():\n    time.sleep(60)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "Timeout" in output
    assert "Unknown config option" not in output
