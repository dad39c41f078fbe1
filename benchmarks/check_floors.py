#!/usr/bin/env python
"""Benchmark-floor regression guard.

Parses every ``BENCH_*.json`` trajectory file the benchmark suite emits
and fails (exit 1) if any recorded speedup dropped below the floor
recorded next to it.  The benchmarks assert their own floors when they
run, but this guard is the belt to those braces: it re-checks the
*written* numbers as the last CI step, so a benchmark that silently
stopped asserting (or a file produced by a stale run) cannot slip a
regression through.

The one floor convention every emitter follows: ``{"speedup": s,
"floor": f}`` in one object (e.g. ``BENCH_substrate.json``'s large
workload — the parallel-beats-serial floor, emitted only on multi-core
runners where the win is physically possible).

A floor with no matching speedup is itself a failure: it means the file
format drifted and the guard would otherwise silently check nothing.

Usage::

    python benchmarks/check_floors.py [BENCH_a.json BENCH_b.json ...]

With no arguments, checks every ``BENCH_*.json`` in the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

NUMBER = (int, float)


def iter_checks(node, path):
    """Yield ``(label, speedup_or_None, floor)`` for every floor found."""
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, (dict, list)):
                yield from iter_checks(value, f"{path}.{key}")
        floor = node.get("floor")
        if isinstance(floor, NUMBER) and not isinstance(floor, bool):
            yield f"{path}.speedup", node.get("speedup"), floor
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from iter_checks(value, f"{path}[{index}]")


def check_file(path: Path) -> tuple[int, list[str]]:
    """Return (floors_checked, failure_messages) for one trajectory file."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        return 0, [f"{path.name}: unreadable trajectory file: {error}"]
    checked = 0
    failures = []
    for label, speedup, floor in iter_checks(data, path.name):
        checked += 1
        if not isinstance(speedup, NUMBER) or isinstance(speedup, bool):
            failures.append(
                f"{label}: floor {floor} has no matching recorded speedup "
                "(emitter format drift?)"
            )
        elif speedup < floor:
            failures.append(f"{label}: {speedup:.3f}x is below its floor {floor}x")
        else:
            print(f"  ok  {label}: {speedup:.3f}x >= {floor}x")
    return checked, failures


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(arg) for arg in argv] or sorted(root.glob("BENCH_*.json"))
    if not paths:
        print("check_floors: no BENCH_*.json files found", file=sys.stderr)
        return 1
    total_checked = 0
    all_failures: list[str] = []
    for path in paths:
        print(f"{path.name}:")
        checked, failures = check_file(path)
        if not checked and not failures:
            print("  (no floors recorded)")
        total_checked += checked
        all_failures.extend(failures)
    if all_failures:
        print(f"\n{len(all_failures)} floor violation(s):", file=sys.stderr)
        for failure in all_failures:
            print(f"  FAIL {failure}", file=sys.stderr)
        return 1
    print(f"\nall {total_checked} recorded floors hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
