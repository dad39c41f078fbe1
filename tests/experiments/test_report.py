"""Markdown report generation."""

import json

import pytest

from repro.experiments.report import SUMMARIZERS, build_report, summarize_result


def test_summarizers_cover_registry():
    """Every registered experiment must have a report summarizer."""
    from repro.experiments.registry import EXPERIMENTS

    assert set(EXPERIMENTS) <= set(SUMMARIZERS)


def test_summarize_table2():
    result = {
        "experiment": "table2",
        "rows": {
            "fmnist-clustered": {
                "base_pureness": 1 / 3,
                "pureness": 0.9,
                "late_pureness": 0.95,
            }
        },
    }
    lines = summarize_result(result)
    assert any("fmnist-clustered" in line and "0.900" in line for line in lines)


def test_summarize_handles_multiseed_aggregates():
    result = {
        "experiment": "fig10_11",
        "fedavg": {"accuracy": {"mean": [0.1, 0.2]}, "loss": {"mean": [2.0, 1.0]}},
        "fedprox": {"accuracy": {"mean": [0.1, 0.2]}, "loss": {"mean": [2.0, 1.0]}},
        "dag": {"accuracy": {"mean": [0.3, 0.4]}, "loss": {"mean": [1.0, 0.5]}},
    }
    lines = summarize_result(result)
    assert any("dag" in line and "0.350" in line for line in lines)


def _fig9_seed(shift: float) -> dict:
    def groups(mean):
        return [
            {"rounds": [0, 4], "mean": 0.1, "std": 0.05, "median": 0.1},
            {"rounds": [5, 9], "mean": mean + shift, "std": 0.1 + shift, "median": mean},
        ]

    return {
        "experiment": "fig9",
        "datasets": {"poets": {"fedavg": groups(0.3), "dag": groups(0.6)}},
    }


def test_summarize_fig9_reads_a_multiseed_aggregate():
    from repro.experiments.multiseed import aggregate_results

    result = aggregate_results([_fig9_seed(s) for s in (0.0, 0.01, 0.02)])
    lines = summarize_result(result)
    assert "| poets | 0.310 ± 0.110 | 0.610 ± 0.110 |" in lines
    # One seed renders exactly as before aggregation existed.
    assert "| poets | 0.300 ± 0.100 | 0.600 ± 0.100 |" in summarize_result(_fig9_seed(0.0))


def _service_demo_seed(ok: int, restarts: int) -> dict:
    def phase(rps):
        return {
            "outcomes": {"ok": ok, "shed": 0, "rejected": 2, "degraded": 0},
            "elapsed_s": 0.5,
            "requests_per_s": rps,
            "ladder": {"accuracy": ok, "degraded": 1},
            "coalescer": {"batches": 4, "restarts": restarts},
        }

    return {
        "experiment": "service-demo",
        "calm": phase(100.0),
        "chaos": dict(phase(80.0), quarantined=3),
        "tangle_size": 40 + ok,
    }


def test_summarize_service_demo_reads_a_multiseed_aggregate():
    from repro.experiments.multiseed import aggregate_results

    result = aggregate_results(
        [_service_demo_seed(ok, restarts) for ok, restarts in ((10, 0), (12, 2), (14, 4))]
    )
    lines = summarize_result(result)
    assert "| calm | 100.0 | 12 | 1 | 0 | 2 |" in lines
    assert "| chaos | 80.0 | 12 | 1 | 3 | 2 |" in lines
    assert lines[-1] == "\nfinal tangle size: 52"


def test_summarize_unknown_experiment():
    assert "no summarizer" in summarize_result({"experiment": "fig99"})[0]


def test_build_report_from_directory(tmp_path):
    result = {
        "experiment": "comparison-gossip",
        "scale": "smoke",
        "gossip": {"final_accuracy": 0.5, "final_spread": 0.2},
        "dag": {"final_accuracy": 0.8, "final_spread": 0.1},
    }
    (tmp_path / "comparison-gossip-smoke-seed0.json").write_text(json.dumps(result))
    report = build_report(tmp_path)
    assert "## comparison-gossip (scale smoke)" in report
    assert "0.800" in report


def test_build_report_skips_non_experiment_json(tmp_path):
    (tmp_path / "junk.json").write_text(json.dumps({"foo": 1}))
    (tmp_path / "ok.json").write_text(
        json.dumps(
            {
                "experiment": "comparison-gossip",
                "scale": "smoke",
                "gossip": {"final_accuracy": 0.5, "final_spread": 0.2},
                "dag": {"final_accuracy": 0.8, "final_spread": 0.1},
            }
        )
    )
    report = build_report(tmp_path)
    assert report.count("##") == 1


def test_build_report_empty_dir_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        build_report(tmp_path)


def test_report_cli(tmp_path, capsys):
    from repro.experiments.__main__ import main

    (tmp_path / "r.json").write_text(
        json.dumps(
            {
                "experiment": "comparison-gossip",
                "scale": "smoke",
                "gossip": {"final_accuracy": 0.5, "final_spread": 0.2},
                "dag": {"final_accuracy": 0.8, "final_spread": 0.1},
            }
        )
    )
    assert main(["report", "--results", str(tmp_path)]) == 0
    assert "comparison-gossip" in capsys.readouterr().out


def test_report_cli_writes_file(tmp_path):
    from repro.experiments.__main__ import main

    (tmp_path / "r.json").write_text(
        json.dumps(
            {
                "experiment": "comparison-gossip",
                "scale": "smoke",
                "gossip": {"final_accuracy": 0.5, "final_spread": 0.2},
                "dag": {"final_accuracy": 0.8, "final_spread": 0.1},
            }
        )
    )
    out = tmp_path / "report.md"
    assert main(["report", "--results", str(tmp_path), "--out", str(out)]) == 0
    assert out.read_text().startswith("# Measured results")
