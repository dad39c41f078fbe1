"""Self-tests of the end-to-end benchmark harness.

Not collected by tier-1 (``testpaths = tests``); run with

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_harness.py -q
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import layers  # noqa: E402
from spans import Recorder, Span, group_stats, self_times  # noqa: E402
from workloads import WORKLOADS, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """Advances only when told to, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ------------------------------------------------------- span arithmetic
def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def leaf():
        clock.advance(2.0)

    leaf = recorder.wrap(leaf, "leaf", lambda args, kwargs, result: 3)

    def middle():
        clock.advance(1.0)
        leaf()
        clock.advance(1.0)
        leaf()

    middle = recorder.wrap(middle, "middle")

    def root():
        clock.advance(0.5)
        middle()
        clock.advance(0.25)

    root = recorder.wrap(root, "root")

    root()  # recording is off: nothing may be recorded
    assert recorder.threads() == {}

    recorder.enabled = True
    root()
    recorder.enabled = False
    [spans] = recorder.threads().values()
    assert [s.name for s in spans] == ["root", "middle", "leaf", "leaf"]
    assert [s.parent for s in spans] == [-1, 0, 1, 1]
    assert [s.duration for s in spans] == [6.75, 6.0, 2.0, 2.0]
    assert self_times(spans) == [0.75, 2.0, 2.0, 2.0]
    # Self times partition the root's duration exactly.
    assert sum(self_times(spans)) == spans[0].duration
    stats = group_stats(spans, {"g": ("leaf",)})["g"]
    assert stats == {"calls": 2, "self_s": 4.0, "n": 6.0, "max_ms": 2000.0}


def test_group_members_nested_in_each_other_are_one_call():
    spans = [
        Span("outer", 0.0, 10.0, -1, 0),
        Span("many", 1.0, 9.0, 0, 0),  # unfused accuracy_many ...
        Span("glue", 2.0, 8.0, 1, 0),
        Span("one", 3.0, 5.0, 2, 1),  # ... re-entering accuracy
        Span("one", 5.0, 7.0, 2, 1),
        Span("one", 9.0, 10.0, 0, 1),  # a direct call
    ]
    stats = group_stats(spans, {"g": ("many", "one"), "other": ("glue",)})["g"]
    assert stats["calls"] == 2
    assert stats["n"] == 3
    assert stats["self_s"] == pytest.approx((8.0 - 6.0) + 2.0 + 2.0 + 1.0)


def test_spans_are_kept_per_thread():
    clock = FakeClock()
    recorder = Recorder(clock=clock)
    lock = threading.Lock()

    def work():
        with lock:  # FakeClock is shared; serialize the advances
            clock.advance(1.0)

    work = recorder.wrap(work, "work")
    recorder.enabled = True
    threads = [threading.Thread(target=work, name=f"t{i}") for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    with recorder.span("own"):
        work()
    recorder.enabled = False
    logs = recorder.threads()
    assert sorted(logs) == ["MainThread", "t0", "t1"]
    assert [s.parent for s in logs["t0"]] == [-1]
    assert [(s.name, s.parent) for s in logs["MainThread"]] == [
        ("own", -1),
        ("work", 0),
    ]


def test_dump_writes_one_line_per_span_with_request_ids(tmp_path):
    clock = FakeClock()
    recorder = Recorder(clock=clock)
    inner = recorder.wrap(lambda: clock.advance(1.0), "inner")
    outer = recorder.wrap(lambda: inner(), "outer")
    recorder.enabled = True
    outer()
    outer()
    recorder.enabled = False
    path = tmp_path / "spans.jsonl"
    assert recorder.dump(path) == 4
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["request"] for row in rows] == [0, 0, 2, 2]
    assert [row["parent"] for row in rows] == [-1, 0, -1, 2]


# ------------------------------------------------------ install / remove
def test_wrappers_install_and_are_fully_removed():
    import repro.fl.aggregation as aggregation
    import repro.service.coalescer as coalescer
    import repro.service.gateway as gateway
    from repro.dag import walk_engine
    from repro.dag.walk_engine import TangleSnapshot
    from repro.nn.model import Classifier

    originals = {
        "mean_flat": aggregation.mean_flat,
        "registry": aggregation.FLAT_AGGREGATORS["mean"],
        "snapshot_for": walk_engine.snapshot_for,
        "accuracy": Classifier.__dict__["accuracy"],
        "build": TangleSnapshot.__dict__["build"],
    }
    recorder = Recorder()
    layers.install(recorder)
    try:
        assert recorder.tracing
        patched = recorder.patched
        # By-name imports and the registry all point at one wrapper.
        assert aggregation.mean_flat is not originals["mean_flat"]
        assert aggregation.FLAT_AGGREGATORS["mean"] is aggregation.mean_flat
        assert gateway.mean_flat is aggregation.mean_flat
        assert coalescer.snapshot_for is walk_engine.snapshot_for
        assert gateway.snapshot_for is walk_engine.snapshot_for
        assert walk_engine.snapshot_for is not originals["snapshot_for"]
        assert isinstance(TangleSnapshot.__dict__["build"], classmethod)
        assert Classifier.__dict__["accuracy"] is not originals["accuracy"]
    finally:
        recorder.uninstall()
    assert not recorder.tracing
    for holder, key, original, is_item in patched:
        current = holder[key] if is_item else vars(holder)[key]
        assert current is original, (holder, key)
    assert aggregation.mean_flat is originals["mean_flat"]
    assert aggregation.FLAT_AGGREGATORS["mean"] is originals["registry"]
    assert gateway.snapshot_for is originals["snapshot_for"]
    assert Classifier.__dict__["accuracy"] is originals["accuracy"]
    assert TangleSnapshot.__dict__["build"] is originals["build"]


# --------------------------------------------------- fixed-input metrics
def test_untraced_share_counts_only_the_load_threads():
    threads = {
        "MainThread": [
            Span("a", 0.0, 6.0, -1),
            Span("b", 1.0, 3.0, 0),
            Span("c", 7.0, 9.0, -1),
        ],
        "tip-coalescer": [Span("w", 0.0, 100.0, -1)],
    }
    share = layers.untraced_share(threads, {"MainThread": 10.0})
    assert share == pytest.approx(1.0 - 8.0 / 10.0)
    two = layers.untraced_share(
        {"caller-0": [Span("x", 0.0, 4.0, -1)], "caller-1": [Span("x", 0.0, 2.0, -1)]},
        {"caller-0": 5.0, "caller-1": 5.0},
    )
    assert two == pytest.approx(1.0 - 6.0 / 10.0)


@pytest.mark.parametrize(
    "n, percentile",
    [(200, 95.0), (30, 100.0 * 20 / 30), (120, 100.0 * 110 / 120), (4000, 99.0), (16, 50.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    value, chosen, count = tail_percentile(samples)
    assert count == n
    assert chosen == pytest.approx(percentile)
    beyond = sum(1 for sample in samples if sample > value)
    assert beyond == max(10, n // 100) if n >= 20 else beyond == n // 2


def test_layer_metrics_from_a_fixed_span_set():
    threads = {
        "MainThread": [
            Span("dag.walk_engine.snapshot_for", 0.0, 4.0, -1),
            Span("dag.walk_engine.snapshot_build", 1.0, 3.0, 0),
            Span("dag.walk_engine.snapshot_for", 4.0, 5.0, -1),
            Span("dag.walk_engine.snapshot_for", 5.0, 6.0, -1),
            Span("dag.walk_engine.snapshot_for", 6.0, 8.0, -1),
            Span("dag.walk_engine.snapshot_extend", 6.5, 7.5, 4),
            Span("fl.client.tx_accuracies", 8.0, 10.0, -1, 10),
            Span("nn.accuracy_many", 8.5, 9.5, 6, 4),
        ]
    }
    metrics = layers.layer_metrics(
        threads, 10.0, {"MainThread": 10.0}, {"sim_events": 8.0, "sim_cycles": 2.0}
    )
    assert metrics["dag.walk_engine.snapshot_for.calls"] == 4
    assert metrics["dag.walk_engine.snapshot_build.calls"] == 1
    assert metrics["dag.walk_engine.snapshot_reuse_ratio"] == pytest.approx(0.5)
    assert metrics["dag.walk_engine.snapshot_build.share"] == pytest.approx(0.2)
    assert metrics["fl.client.score.ids"] == 10
    assert metrics["fl.client.score.cache_hit_ratio"] == pytest.approx(0.6)
    assert metrics["nn.eval.fused_share"] == 1.0
    assert metrics["sim.engine.cycles_per_event"] == 0.25
    assert metrics["trace.untraced_share"] == pytest.approx(0.0)


# ------------------------------------------------- contract consistency
def test_benchmark_json_matches_the_code():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_passes_its_output_checks(workload, trace):
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--quick",
            "--repeats",
            "2",
            "--workload",
            workload,
            "--seed",
            "0",
            "--trace",
            str(trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    if trace:
        assert result["metrics"]["trace.untraced_share"]["value"] <= 0.10
