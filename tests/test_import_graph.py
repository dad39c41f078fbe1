"""The package import graph: ``repro.fl.dag_learning`` subclasses the
event engine while the engine imports ``repro.fl`` submodules (a
package-level cycle that must stay a module-level DAG), and
``repro.dag`` sits below both."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Bypasses ``repro/__init__`` (which imports every subpackage in a fixed
# order) so the statement under test really is the first import.
BARE_PACKAGE = (
    "import sys, types\n"
    "pkg = types.ModuleType('repro')\n"
    f"pkg.__path__ = [{str(SRC / 'repro')!r}]\n"
    "sys.modules['repro'] = pkg\n"
)
NO_UPWARD_IMPORTS = (
    "import repro.dag\n"
    "leaked = [m for m in sys.modules if m.startswith(('repro.fl', 'repro.sim'))]\n"
    "assert not leaked, leaked\n"
)


def run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


def test_every_entry_point_imports_first_and_dag_stays_below():
    first_imports = [
        "import repro.sim",
        "import repro.fl",
        "import repro.dag.walk_engine",
        "from repro.fl.async_learning import TimedTangleView",
    ]
    scripts = first_imports + [
        BARE_PACKAGE + "import repro.sim\nimport repro.fl",
        BARE_PACKAGE + "import repro.fl\nimport repro.sim",
        BARE_PACKAGE + NO_UPWARD_IMPORTS,
    ]
    for script in scripts:
        result = run(script)
        assert result.returncode == 0, f"{script}\n{result.stderr}"


def test_scipy_loads_only_when_glyphs_render():
    """scipy renders the FMNIST glyphs and nothing else: importing the
    package leaves it unloaded, and datasets that render no glyph build
    with scipy blocked."""
    result = run(
        "import sys\n"
        "import repro\n"
        "assert 'scipy' not in sys.modules, 'import repro loaded scipy'\n"
        "sys.modules['scipy'] = None  # any scipy import now raises\n"
        "from repro.data import make_fedprox_synthetic\n"
        "dataset = make_fedprox_synthetic(num_clients=3, seed=0)\n"
        "assert len(dataset.clients) == 3\n"
    )
    assert result.returncode == 0, result.stderr


def test_fmnist_datasets_build_without_scipy():
    """The glyph kernels are numpy: every FMNIST variant builds with scipy
    blocked."""
    result = run(
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises\n"
        "from repro.data import make_fmnist_by_writer, make_fmnist_clustered\n"
        "clustered = make_fmnist_clustered(num_clients=3, samples_per_client=10)\n"
        "relaxed = make_fmnist_clustered(\n"
        "    num_clients=3, samples_per_client=20, foreign_fraction=(0.15, 0.2)\n"
        ")\n"
        "by_writer = make_fmnist_by_writer(num_clients=2, samples_per_client=20, num_classes=16)\n"
        "assert relaxed.name == 'fmnist-clustered-relaxed'\n"
        "assert len(clustered.clients) == 3 and len(by_writer.clients) == 2\n"
    )
    assert result.returncode == 0, result.stderr
