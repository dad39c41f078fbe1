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


def test_workload_imports_load_no_http_pool_or_shared_memory():
    """A process that walks, scores and trains in-process never loads the
    HTTP front, the process pool or shared memory; the HTTP names still
    resolve on first access, and ``from repro.service import *`` binds
    every name."""
    result = run(
        "import sys\n"
        "from repro.dag.persistence import load_tangle, save_tangle\n"
        "from repro.data import make_fedprox_synthetic, make_fmnist_clustered\n"
        "from repro.fl import DagConfig, TangleLearning, TrainingConfig\n"
        "from repro.nn import zoo\n"
        "from repro.service import GatewayConfig, TangleGateway\n"
        "import repro.sim\n"
        "unused = ('http.server', 'socketserver', 'ssl', 'email',\n"
        "          'multiprocessing', 'concurrent.futures')\n"
        "loaded = [name for name in unused if name in sys.modules]\n"
        "assert not loaded, loaded\n"
        "import repro.service\n"
        "from repro.service import GatewayHTTPServer, serve_background\n"
        "from repro.service.http import GatewayHTTPServer as direct\n"
        "assert GatewayHTTPServer is direct and callable(serve_background)\n"
        "try:\n"
        "    repro.service.missing\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('repro.service.missing resolved')\n"
        "namespace = {}\n"
        "exec('from repro.service import *', namespace)\n"
        "missing = [n for n in repro.service.__all__ if n not in namespace]\n"
        "assert not missing, missing\n"
    )
    assert result.returncode == 0, result.stderr
