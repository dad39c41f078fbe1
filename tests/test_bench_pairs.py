"""``tools/bench_pairs.py`` on canned results: the summary's medians,
quartiles, wins and spread flags, the run order, and the exit code —
without starting a benchmark run."""

import ast
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


END_TO_END = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.25},
]


def result(ops, rss, *, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": ops, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def canned_pairs():
    parent_ops, change_ops = [10, 12, 14, 16, 30], [11, 11, 15, 17, 31]
    parent_rss, change_rss = [100, 101, 102, 103, 104], [90, 91, 92, 93, 105]
    return [
        {"seed": seed, "parent": result(po, pr), "change": result(co, cr)}
        for seed, po, co, pr, cr in zip(
            range(301, 306), parent_ops, change_ops, parent_rss, change_rss
        )
    ]


def test_summary_of_canned_pairs():
    tool = load_bench_pairs()
    lines = tool.summarize("async_churn", canned_pairs(), END_TO_END)
    assert lines[0] == (
        "async_churn: 5 pairs (seeds 301 302 303 304 305), faulty runs parent=0 change=0"
    )
    # ops: parent 10 12 14 16 30 -> q1 12, median 14, q3 16 (IQR 4, 28.6% of 14:
    # wider than the 0.25 bound); change 11 11 15 17 31 -> 11, 15, 17.
    assert lines[1] == (
        "  ops_per_s    parent 14 [12-16]  change 15 [11-17]  d=+7.1%  wins 4/5"
        "  |d|>IQR False  parent IQR/median 28.6%"
        "  unresolved (parent, change IQR > bound)"
    )
    # rss: the change is lower in 4 of 5 pairs and the medians differ by
    # 10 MB against a 2 MB parent IQR.
    assert lines[2] == (
        "  peak_rss_mb  parent 102 [101-103]  change 92 [91-93]  d=-9.8%  wins 4/5"
        "  |d|>IQR True  parent IQR/median 2.0%"
    )
    assert lines[3:] == [
        "    ops_per_s    parent 10 12 14 16 30",
        "    ops_per_s    change 11 11 15 17 31",
        "    peak_rss_mb  parent 100 101 102 103 104",
        "    peak_rss_mb  change 90 91 92 93 105",
    ]


def test_wins_compare_runs_of_one_seed_when_one_side_failed():
    tool = load_bench_pairs()
    pairs = canned_pairs()
    # The change run of seed 302 gave no result; the parent run of seed 304
    # lacks one metric.  Neither may shift the later seeds' pairings.
    pairs[1]["change"] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    del pairs[3]["parent"]["metrics"]["peak_rss_mb"]
    lines = tool.summarize("async_churn", pairs, END_TO_END)
    assert lines[0].endswith("faulty runs parent=0 change=1")
    # ops over seeds 301 303 304 305: change 11 15 17 31 vs parent 10 14 16 30.
    assert "wins 4/4" in lines[1]
    # rss over seeds 301 303 305: change 90 92 105 vs parent 100 102 104.
    assert "wins 2/3" in lines[2]
    assert lines[3:] == [
        "    ops_per_s    parent 10 12 14 16 30",
        "    ops_per_s    change 11 - 15 17 31",
        "    peak_rss_mb  parent 100 101 102 - 104",
        "    peak_rss_mb  change 90 - 92 93 105",
    ]


def test_one_pair_is_its_own_quartiles():
    tool = load_bench_pairs()
    assert tool.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert tool.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_runs_alternate_by_seed_parity_and_faults_exit_nonzero(tmp_path, monkeypatch, capsys):
    tool = load_bench_pairs()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        tree.mkdir()
    spec = {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "run_seconds": 15,
        "end_to_end": END_TO_END,
    }
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run(tree, command):
        seed = int(command[command.index("--seed") + 1])
        calls.append((tree.name, seed))
        assert command == [
            "python3", "benchmarks/e2e/run.py", "--workload", "async_churn",
            "--seed", str(seed), "--seconds", "15", "--trace", "0",
        ]
        if tree == change and seed == 3:
            return result(1.0, 1.0, failed=1)
        return result(1.0, 1.0)

    monkeypatch.setattr(tool, "run_tree", fake_run)
    argv = [str(parent), str(change), "--workload", "async_churn", "--seeds"]
    assert tool.main(argv + ["2", "4"]) == 0
    assert calls == [("parent", 2), ("change", 2), ("parent", 4), ("change", 4)]
    calls.clear()
    assert tool.main(argv + ["3"]) == 1
    assert calls == [("change", 3), ("parent", 3)]
    assert "faulty runs parent=0 change=1" in capsys.readouterr().out

    def incorrect(tree, command):
        return result(1.0, 1.0, correct=tree != parent)

    monkeypatch.setattr(tool, "run_tree", incorrect)
    assert tool.main(argv + ["5"]) == 1


def test_imports_nothing_from_the_package():
    tree = ast.parse((ROOT / "tools" / "bench_pairs.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "argparse", "json", "statistics", "subprocess", "sys", "pathlib"}
