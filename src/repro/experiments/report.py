"""Markdown report generation from saved experiment results.

``build_report`` scans a results directory for the JSON files the CLI
writes and renders one markdown section per experiment with its headline
numbers, so a markdown summary of every result can be regenerated after
any re-run::

    python -m repro.experiments run table2
    python -c "from repro.experiments.report import build_report; \\
               print(build_report('results'))"
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["build_report", "summarize_result", "SUMMARIZERS"]


def _late_mean(series: list[float], k: int = 3) -> float:
    values = [v for v in series[-k:] if isinstance(v, (int, float))]
    return float(np.nanmean(values)) if values else float("nan")


def _series(maybe_aggregated) -> list[float]:
    """Accept both raw series and multiseed {mean: [...]} aggregates."""
    if isinstance(maybe_aggregated, dict) and "mean" in maybe_aggregated:
        return maybe_aggregated["mean"]
    return maybe_aggregated


def _scalar(maybe_aggregated) -> float:
    if isinstance(maybe_aggregated, dict) and "mean" in maybe_aggregated:
        return float(maybe_aggregated["mean"])
    return float(maybe_aggregated)


def _per_seed(maybe_aggregated) -> list:
    """A non-numeric leaf per seed: multiseed aggregation keeps one that
    differs across seeds as ``{values: [...]}``, one seed's is itself."""
    if isinstance(maybe_aggregated, dict) and set(maybe_aggregated) == {"values"}:
        return maybe_aggregated["values"]
    return [maybe_aggregated]


def _summarize_table2(result: dict) -> list[str]:
    lines = ["| dataset | base | pureness | late pureness |", "|---|---|---|---|"]
    for name, row in sorted(result["rows"].items()):
        lines.append(
            f"| {name} | {_scalar(row['base_pureness']):.3f} "
            f"| {_scalar(row['pureness']):.3f} "
            f"| {_scalar(row['late_pureness']):.3f} |"
        )
    return lines


def _summarize_alpha_sweep(result: dict) -> list[str]:
    lines = ["| alpha | late accuracy | final pureness |", "|---|---|---|"]
    for alpha, data in sorted(result["alphas"].items(), key=lambda kv: float(kv[0])):
        lines.append(
            f"| {alpha} | {_late_mean(_series(data['accuracy'])):.3f} "
            f"| {_scalar(data.get('final_pureness', float('nan'))):.3f} |"
        )
    return lines


def _summarize_fig5(result: dict) -> list[str]:
    lines = [
        "| alpha | modularity | partitions | misclassification |",
        "|---|---|---|---|",
    ]
    for alpha, data in sorted(result["alphas"].items(), key=lambda kv: float(kv[0])):
        final = data["final"]
        lines.append(
            f"| {alpha} | {_scalar(final['modularity']):.3f} "
            f"| {_scalar(final['num_partitions']):.0f} "
            f"| {_scalar(final['misclassification']):.3f} |"
        )
    return lines


def _summarize_fig9(result: dict) -> list[str]:
    lines = [
        "| dataset | FedAvg (mean ± std) | DAG (mean ± std) |",
        "|---|---|---|",
    ]
    for name, data in sorted(result["datasets"].items()):
        cells = []
        for algo in ("fedavg", "dag"):
            # The last accuracy group of every seed, averaged over seeds.
            last = [groups[-1] for groups in _per_seed(data[algo])]
            mean = np.mean([_scalar(group["mean"]) for group in last])
            std = np.mean([_scalar(group["std"]) for group in last])
            cells.append(f"{mean:.3f} ± {std:.3f}")
        lines.append(f"| {name} | {cells[0]} | {cells[1]} |")
    return lines


def _summarize_fig10_11(result: dict) -> list[str]:
    lines = ["| algorithm | late accuracy | late loss |", "|---|---|---|"]
    for algo in ("fedavg", "fedprox", "dag"):
        data = result[algo]
        lines.append(
            f"| {algo} | {_late_mean(_series(data['accuracy'])):.3f} "
            f"| {_late_mean(_series(data['loss'])):.3f} |"
        )
    return lines


def _summarize_poisoning(result: dict) -> list[str]:
    lines = [
        "| scenario | late flipped rate | late approved poisoned |",
        "|---|---|---|",
    ]
    for label, data in sorted(result["scenarios"].items()):
        lines.append(
            f"| {label} | {_late_mean(_series(data['flipped_rate'])):.3f} "
            f"| {_late_mean(_series(data['approved_poisoned'])):.1f} |"
        )
    return lines


def _summarize_fig15(result: dict) -> list[str]:
    lines = [
        "| active clients | mean walk duration [s] | mean evaluations |",
        "|---|---|---|",
    ]
    for active, data in sorted(result["runs"].items(), key=lambda kv: int(kv[0])):
        lines.append(
            f"| {active} | {_scalar(data['mean_duration']):.4f} "
            f"| {_scalar(data['mean_evaluations']):.1f} |"
        )
    return lines


def _summarize_variants(result: dict) -> list[str]:
    lines = ["| variant | headline values |", "|---|---|"]
    for label, data in sorted(result["variants"].items()):
        scalars = []
        for key, value in data.items():
            if isinstance(value, (int, float)):
                scalars.append(f"{key}={value:.3f}")
            elif isinstance(value, dict) and "mean" in value and isinstance(
                value["mean"], (int, float)
            ):
                scalars.append(f"{key}={value['mean']:.3f}")
        lines.append(f"| {label} | {', '.join(scalars) or '-'} |")
    return lines


def _summarize_async(result: dict) -> list[str]:
    sync, asynchronous = result["sync"], result["async"]
    return [
        "| mode | final accuracy | pureness | transactions |",
        "|---|---|---|---|",
        f"| rounds | {_scalar(sync['final_accuracy']):.3f} "
        f"| {_scalar(sync['pureness']):.3f} | {_scalar(sync['transactions']):.0f} |",
        f"| continuous | {_scalar(asynchronous['final_accuracy']):.3f} "
        f"| {_scalar(asynchronous['pureness']):.3f} "
        f"| {_scalar(asynchronous['transactions']):.0f} |",
    ]


def _summarize_gossip(result: dict) -> list[str]:
    return [
        "| algorithm | final accuracy | client spread |",
        "|---|---|---|",
        f"| gossip | {_scalar(result['gossip']['final_accuracy']):.3f} "
        f"| {_scalar(result['gossip']['final_spread']):.3f} |",
        f"| dag | {_scalar(result['dag']['final_accuracy']):.3f} "
        f"| {_scalar(result['dag']['final_spread']):.3f} |",
    ]


def _summarize_service_demo(result: dict) -> list[str]:
    lines = [
        "| phase | rps | ok | degraded | quarantined | restarts |",
        "|---|---|---|---|---|---|",
    ]
    for phase in ("calm", "chaos"):
        data = result[phase]
        lines.append(
            f"| {phase} | {_scalar(data['requests_per_s']):.1f} "
            f"| {_scalar(data['outcomes'].get('ok', 0)):.0f} "
            f"| {_scalar(data['ladder']['degraded']):.0f} "
            f"| {_scalar(data.get('quarantined', 0)):.0f} "
            f"| {_scalar(data['coalescer']['restarts']):.0f} |"
        )
    lines.append(f"\nfinal tangle size: {_scalar(result['tangle_size']):.0f}")
    return lines


SUMMARIZERS: dict[str, Callable[[dict], list[str]]] = {
    "table2": _summarize_table2,
    "fig5": _summarize_fig5,
    "fig6": _summarize_alpha_sweep,
    "fig7": _summarize_alpha_sweep,
    "fig8": _summarize_alpha_sweep,
    "fig9": _summarize_fig9,
    "fig10_11": _summarize_fig10_11,
    "fig12_13_14": _summarize_poisoning,
    "fig15": _summarize_fig15,
    "ablation-tip-selection": _summarize_variants,
    "ablation-publish-gate": _summarize_variants,
    "ablation-num-tips": _summarize_variants,
    "ablation-walk-depth": _summarize_variants,
    "ablation-personalization": _summarize_variants,
    "ablation-visibility-delay": _summarize_variants,
    "ablation-aggregation": _summarize_variants,
    "attack-random-weights": _summarize_variants,
    "async-convergence": _summarize_async,
    "comparison-gossip": _summarize_gossip,
    "service-demo": _summarize_service_demo,
}


def summarize_result(result: dict) -> list[str]:
    """Markdown lines summarizing one result dict."""
    experiment = result.get("experiment", "")
    summarize = SUMMARIZERS.get(experiment)
    if summarize is None:
        return [f"(no summarizer for experiment {experiment!r})"]
    return summarize(result)


def build_report(results_dir: str | Path, *, title: str = "Measured results") -> str:
    """Render a markdown report over every result JSON in a directory."""
    results_dir = Path(results_dir)
    paths = sorted(results_dir.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no result JSON files in {results_dir}")
    sections = [f"# {title}", ""]
    for path in paths:
        with open(path) as handle:
            result = json.load(handle)
        if "experiment" not in result:
            continue
        scale = result.get("scale", "?")
        seeds = result.get("seeds")
        seed_note = f", seeds {seeds}" if seeds else ""
        sections.append(f"## {result['experiment']} (scale {scale}{seed_note})")
        sections.append("")
        sections.extend(summarize_result(result))
        sections.append("")
    return "\n".join(sections)
