#!/usr/bin/env python3
"""Compare two checkouts on one end-to-end workload, in interleaved pairs.

For each seed, runs the benchmark's driver command (``command`` of the
change tree's ``BENCHMARK.json``, for its ``run_seconds``) in both trees::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds 15 --trace 0

An even seed runs the parent first and an odd seed the change first, so
a slow episode on a shared box lands on both sides alike.  Each run's
last stdout line is its result object.  For every end-to-end metric of
the change tree's ``BENCHMARK.json`` the tool prints each side's median
and inclusive quartiles, the change of the medians in %, how many pairs
the change won (by the metric's ``better``, out of the pairs where both
sides gave the metric), whether the change exceeds
the parent's interquartile range, and that range as a share of the
parent's median; a side whose IQR share is wider than the metric's
``bound`` is marked ``unresolved``.  Every run follows, one line per
metric and side, in seed order.

Usage::

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload async_churn \\
        --seeds 301 302 303 304 305 306 307 308 309 310

Exits 1 when any run is not ``correct``, reports a failed operation, or
gives no result object.  Nothing of the package under test is imported;
the benchmark's files are only run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_tree(tree: Path, command: list[str]) -> dict:
    """One driver run in ``tree``: its result object, or a failed stand-in
    when the run printed none."""
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def run_pairs(parent: Path, change: Path, spec: dict, workload: str, seeds) -> list[dict]:
    """``{"seed", "parent", "change"}`` per seed; an even seed runs the
    parent first, an odd one the change."""
    trees = dict(zip(SIDES, (parent, change)))
    pairs = []
    for seed in seeds:
        command = spec["command"] + [
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(spec["run_seconds"]),
            "--trace",
            "0",
        ]
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed}
        for side in order:
            pair[side] = run_tree(trees[side], command)
            print(f"# seed {seed} {side} done", file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def faults(pairs: list[dict]) -> dict[str, int]:
    """Per side, the runs that were not ``correct`` or failed an operation."""
    return {
        side: sum(1 for pair in pairs if not pair[side]["correct"] or pair[side]["failed"])
        for side in SIDES
    }


def value(run: dict, name: str) -> float | None:
    """The run's value of metric ``name``, or None when it has none."""
    metric = run["metrics"].get(name)
    return None if metric is None else metric["value"]


def summarize(workload: str, pairs: list[dict], end_to_end: list[dict]) -> list[str]:
    """The report's lines: a header, one summary line per metric, then
    every run."""
    bad = faults(pairs)
    lines = [
        f"{workload}: {len(pairs)} pairs (seeds {' '.join(str(p['seed']) for p in pairs)}),"
        f" faulty runs parent={bad['parent']} change={bad['change']}"
    ]
    fmt = "{:.4g}".format
    for metric in end_to_end:
        name = metric["name"]
        values = {
            side: [v for pair in pairs if (v := value(pair[side], name)) is not None]
            for side in SIDES
        }
        if not values["parent"] or not values["change"]:
            lines.append(f"  {name:<12} no values")
            continue
        stats = {side: quartiles(values[side]) for side in SIDES}
        (p1, pm, p3), (c1, cm, c3) = stats["parent"], stats["change"]
        # Wins compare the two runs of one seed, so only pairs where both
        # sides gave the metric count, and they are the denominator.
        both = [
            (p, c)
            for pair in pairs
            if (p := value(pair["parent"], name)) is not None
            and (c := value(pair["change"], name)) is not None
        ]
        lower = metric["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in both)
        share = {side: (stats[side][2] - stats[side][0]) / stats[side][1] for side in SIDES}
        unresolved = [side for side in SIDES if share[side] > metric["bound"]]
        lines.append(
            f"  {name:<12} parent {fmt(pm)} [{fmt(p1)}-{fmt(p3)}]"
            f"  change {fmt(cm)} [{fmt(c1)}-{fmt(c3)}]"
            f"  d={100.0 * (cm - pm) / pm:+.1f}%  wins {wins}/{len(both)}"
            f"  |d|>IQR {abs(cm - pm) > p3 - p1}"
            f"  parent IQR/median {100.0 * share['parent']:.1f}%"
            + (f"  unresolved ({', '.join(unresolved)} IQR > bound)" if unresolved else "")
        )
    for metric in end_to_end:
        name = metric["name"]
        for side in SIDES:
            runs = " ".join(
                "-" if (v := value(pair[side], name)) is None else fmt(v) for pair in pairs
            )
            lines.append(f"    {name:<12} {side:<6} {runs}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = run_pairs(args.parent, args.change, spec, args.workload, args.seeds)
    print("\n".join(summarize(args.workload, pairs, spec["end_to_end"])))
    return 1 if any(faults(pairs).values()) else 0


if __name__ == "__main__":
    sys.exit(main())
