"""``tools/check_docs.py``'s knob-table check: a docs "Knobs" row that
names a ``*Config`` knob (``DagConfig``, ``GatewayConfig``,
``SimConfig``, ...) must state the default the code has."""

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


STALE_GATEWAY_TABLE = """\
## Knobs

All resilience knobs live on `GatewayConfig` (`repro.service.gateway`):

| Knob | Default | Meaning |
| --- | --- | --- |
| `deadline_budget` | `0.5` | stale: the code says 0.25 |
| `alpha` / `normalization` / `depth_range` | `10.0` / `"dynamic"` / `(2, 10)` | one stale of three |
| `breaker_failure_threshold` / `breaker_reset_timeout` | `5` / `0.5` | fresh pair |
| `seed` | the run's seed | non-literal: only the name is checked |
| `score_cache_size` | `1024` | never a field |

Fault knobs live on `FaultModel` (`repro.sim.faults`):

| Knob | Default | Meaning |
| --- | --- | --- |
| `drop_rate` | `0.5` | not a *Config table: skipped |
"""


def test_knob_tables_are_checked_against_every_config_class():
    check_docs = load_check_docs()
    source = (ROOT / "src" / "repro" / "service" / "gateway.py").read_text()
    defaults = check_docs.config_defaults(source, "GatewayConfig")
    assert defaults["depth_range"] == (2, 10)
    failures = check_docs.knob_table_failures(
        "service.md", STALE_GATEWAY_TABLE, defaults, "GatewayConfig"
    )
    assert len(failures) == 3
    assert "`deadline_budget` defaults to 0.5, GatewayConfig says 0.25" in failures[0]
    assert '`normalization` defaults to "dynamic"' in failures[1]
    assert "`score_cache_size`, not a GatewayConfig field" in failures[2]
    # A field whose code default is not a literal is only name-checked.
    sim = check_docs.config_defaults(
        (ROOT / "src" / "repro" / "sim" / "config.py").read_text(), "SimConfig"
    )
    assert sim["quantum"] == 0.0 and sim["faults"] is check_docs.NON_LITERAL
    # Every owner the repo's docs name resolves to its module.
    owners = {
        row[0]
        for doc in (ROOT / "docs").glob("*.md")
        for row in check_docs.knob_rows(doc.read_text())
    }
    assert {"DagConfig", "GatewayConfig", "SimConfig"} <= owners


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
