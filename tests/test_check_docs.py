"""``tools/check_docs.py``'s knob-table check: a docs "Knobs" row that
names a ``*Config`` knob (``DagConfig``, ``GatewayConfig``,
``SimConfig``, ...) must state the default the code has; and its
constructor-keyword check: a backticked ``Name(kw=…)`` must pass a
keyword class ``Name`` accepts."""

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


# A line the service docs carried while the accuracy selector still took
# a batch callback by keyword.
STALE_CONSTRUCTOR_LINE = """\
  slices the tip ids back per request. A group whose key has a scorer
  walks with an `AccuracyTipSelector(batch_accuracy_fn=scorer, …)`
  built with the gateway's walk parameters — the simulator's own
"""

CONSTRUCTOR_SPANS = """\
`SimConfig(faults=FaultModel(drop_rate=0.1, drop=0.2), quantum=0.5)`,
`Tangle(genesis, store_dtype=np.float32)`, `np.zeros(3, dtype=float)`,
`DagConfig(alpha=1.0) == DagConfig(alpha=1.0)`, and

```python
AccuracyTipSelector(batch_accuracy_fn=scorer)  # fenced: not checked
```
"""


def test_constructor_keywords_are_checked_against_src_classes():
    check_docs = load_check_docs()
    parameters = check_docs.class_parameters(
        path.read_text() for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
    )
    assert {"scores", "alpha", "depth_range"} <= parameters["AccuracyTipSelector"]
    assert "drop_rate" in parameters["FaultModel"]  # a dataclass's fields
    stale = check_docs.keyword_failures(
        "service.md", STALE_CONSTRUCTOR_LINE, parameters
    )
    assert stale == [
        "service.md: `AccuracyTipSelector(batch_accuracy_fn=scorer, …)` "
        "passes `batch_accuracy_fn`, which AccuracyTipSelector does not take"
    ]
    # A nested keyword is credited to the innermost call; other calls
    # and fenced code are skipped.
    nested = check_docs.keyword_failures("x.md", CONSTRUCTOR_SPANS, parameters)
    assert len(nested) == 1 and "passes `drop`, which FaultModel" in nested[0]
    # **kwargs, or any base but object, accepts any keyword.
    loose = check_docs.class_parameters(
        [
            "class Open:\n    def __init__(self, **kwargs): ...\n",
            "class Server(socketserver.TCPServer):\n    timeout: float\n",
            "class Plain(object):\n    def __init__(self, a): ...\n",
        ]
    )
    assert loose == {"Open": None, "Server": None, "Plain": {"a"}}
    assert check_docs.check_constructor_keywords() == []  # the repo's own docs
