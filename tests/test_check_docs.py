"""``tools/check_docs.py``'s knob-table check: a docs "Knobs" row that
names a ``DagConfig`` knob must state the default the code has."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STALE_TABLE = """\
## Knobs

All walk-protocol knobs live on `DagConfig` (`repro.fl.config`):

| Knob | Default | Meaning |
| --- | --- | --- |
| `alpha` | `10.0` | walk bias sharpness |
| `walk_engine` | `False` | the row PR 16's parent still carried |
| `walk_motor` | `True` | never existed |

## Next section
| `alpha` | `0.0` | not part of the knob table |
"""

WHERE_TABLE = """\
## Knobs

| Knob | Where | Default | Meaning |
| --- | --- | --- | --- |
| `store_dtype` | `Tangle(...)` | `np.float64` | someone else's knob |
| `aggregator` | `DagConfig` | `"median"` | stale default |
"""


def test_knob_tables_are_checked_against_dag_config_source():
    check_docs = load_check_docs()
    defaults = check_docs.dag_config_defaults(
        (ROOT / "src" / "repro" / "fl" / "config.py").read_text()
    )
    assert defaults["alpha"] == 10.0 and defaults["walk_engine"] is True
    stale = check_docs.knob_table_failures("dag.md", STALE_TABLE, defaults)
    assert len(stale) == 2
    assert "`walk_engine` defaults to False" in stale[0]
    assert "`walk_motor`, not a DagConfig field" in stale[1]
    where = check_docs.knob_table_failures("nn-planes.md", WHERE_TABLE, defaults)
    assert len(where) == 1 and "`aggregator`" in where[0]
    assert check_docs.knob_table_failures("x.md", "no table here", defaults) == []
    assert check_docs.check_knob_tables() == []  # the repo's own docs
