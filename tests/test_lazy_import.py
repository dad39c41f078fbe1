"""``import repro`` loads no subpackage; each one loads on first access."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


def test_bare_import_loads_no_subpackage_and_attributes_resolve():
    result = run(
        "import sys\n"
        "import repro\n"
        "loaded = [m for m in sys.modules if m.startswith('repro.')]\n"
        "assert not loaded, loaded\n"
        "tangle, learning = repro.dag.Tangle, repro.fl.TangleLearning\n"
        "assert 'repro.dag' in sys.modules and 'repro.fl' in sys.modules\n"
        "from repro.dag import Tangle\n"
        "from repro.fl import TangleLearning\n"
        "assert (tangle, learning) == (Tangle, TangleLearning)\n"
        "try:\n"
        "    repro.missing\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('repro.missing resolved')\n"
    )
    assert result.returncode == 0, result.stderr


def test_star_import_loads_every_subpackage():
    result = run(
        "import repro\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "names = [name for name in repro.__all__ if name != '__version__']\n"
        "assert all(namespace[name].__name__ == 'repro.' + name for name in names)\n"
        "assert namespace['__version__'] == repro.__version__\n"
    )
    assert result.returncode == 0, result.stderr


def test_substrate_imports_first():
    """Without the eager package init, ``repro.substrate`` can be the
    first import; its round plan imports ``repro.fl``, which loads the
    event engine, which imports the substrate back."""
    result = run("from repro.substrate import execute_round, make_executor")
    assert result.returncode == 0, result.stderr
