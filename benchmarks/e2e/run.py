#!/usr/bin/env python3
"""End-to-end benchmark of the DAG-FL reproduction: five whole-system
workloads, absolute numbers, and a per-layer attribution of the wall
clock.  See ``benchmarks/e2e/README.md``.

    python3 benchmarks/e2e/run.py --seed 0               # every workload
    python3 benchmarks/e2e/run.py --selfcheck            # twice, compared
    python3 benchmarks/e2e/run.py --workload rounds_mlp --seed 3 \
        --seconds 15 --trace 0                           # one driver run

Every measurement happens in a fresh subprocess (``--child``), so
``peak_rss_mb``, the snapshot cache and ``setup_s`` belong to one run.
End-to-end numbers come from ``--repeats`` untraced children with no
wrapper installed (best repeat for timings, median for set-up and
memory); one more child with the span wrappers installed gives the
per-layer numbers.
"""

import time

_PROCESS_START = time.perf_counter()  # setup_s counts the imports below

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: ``--seconds`` at which sizes are the documented ones (scale 1.0).
NOMINAL_SECONDS = 15.0
CHILD_TIMEOUT_S = 170.0
#: Acceptance limits of the traced run (reported, enforced by --selfcheck).
MAX_UNTRACED_SHARE = 0.10
MAX_OVERHEAD_RATIO = 1.25


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------------ child
def child_main(args) -> int:
    """One measurement: set up, run the timed region, report raw JSON."""
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from spans import Recorder
    from workloads import OUT_DIR, WORKLOADS

    workload = WORKLOADS[args.workload]
    params = workload.params(args.seconds / NOMINAL_SECONDS)
    recorder = Recorder()
    if args.trace:
        layers.install(recorder)
    state = None
    try:
        state = workload.setup(params, args.seed)
        setup_s = time.perf_counter() - _PROCESS_START
        outcome = workload.run(state, params, recorder)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = asdict(outcome)
        result.update(
            workload=args.workload,
            params=params,
            setup_s=setup_s,
            peak_rss_mb=peak_rss_mb,
            ops_per_s=outcome.ops / outcome.wall_s,
            ops_unit=workload.ops_unit,
        )
        if args.trace:
            threads = recorder.threads()
            facts = dict(
                outcome.facts,
                op_p50_ms=outcome.op_p50_ms,
                op_tail_ms=outcome.op_tail_ms,
                op_tail_percentile=outcome.tail_percentile,
            )
            result["layers"] = layers.layer_metrics(
                threads, outcome.wall_s, outcome.load_walls, facts
            )
            OUT_DIR.mkdir(exist_ok=True)
            result["spans"] = recorder.dump(
                OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
            )
    finally:
        recorder.uninstall()
        if state is not None:
            state.close()
    print(json.dumps(result))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--trace",
        "1" if trace else "0",
    ]
    # One BLAS thread: the workloads are serial by design (parallelism=1),
    # and a BLAS worker pool on a shared 2-core box measures the
    # scheduler — runs were twice as far apart with it.
    env = dict(os.environ)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    # subprocess.run kills and reaps the child on timeout.
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, env=env
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ aggregation
#: End-to-end metrics by contract name; each is a key of a child's result.
END_TO_END = ("setup_s", "wall_s", "ops_per_s", "op_p50_ms", "peak_rss_mb")


def estimate(name: str, values: list[float]) -> float:
    """One run's value of a metric from its repeats.

    Timings take the best repeat: on the shared reference box
    interference comes in episodes of 5-60 s that slow a whole child by
    20-40% and only ever add time, so the fastest of three fresh
    processes is the steadiest estimate of the undisturbed cost (the
    median of three was 1.4x as far apart between runs).  ``setup_s``
    and ``peak_rss_mb`` are medians.
    """
    if name in ("setup_s", "peak_rss_mb"):
        return statistics.median(values)
    return max(values) if name == "ops_per_s" else min(values)


def estimates(children: list[dict]) -> dict[str, float]:
    """Every end-to-end metric of one run from its untraced children."""
    return {
        name: estimate(name, [child[name] for child in children])
        for name in END_TO_END
    }


def problems_of(children: list[dict]) -> list[str]:
    """Failed output checks, failed operations, and disagreement between
    runs of one seed (fingerprint and every count must repeat exactly —
    the traced child included: tracing may not perturb the seeded run)."""
    problems = []
    for index, child in enumerate(children):
        for check, passed in child["checks"].items():
            if not passed:
                problems.append(f"run {index}: check {check} failed")
        if child["failed"]:
            problems.append(
                f"run {index}: {child['failed']} of {child['attempted']} "
                "operations failed"
            )
    first = children[0]
    for index, child in enumerate(children[1:], start=1):
        if child["fingerprint"] != first["fingerprint"]:
            problems.append(f"run {index}: trace_fingerprint differs from run 0")
        if child["counts"] != first["counts"]:
            problems.append(
                f"run {index}: counts {child['counts']} != {first['counts']}"
            )
    return problems


def measure(workload: str, seed: int, seconds: float, repeats: int) -> dict:
    """``repeats`` untraced children and one traced child of a workload."""
    untraced = [run_child(workload, seed, seconds, False) for _ in range(repeats)]
    reference = statistics.median(child["wall_s"] for child in untraced)
    traced = run_child(workload, seed, seconds, True)
    if traced["wall_s"] / reference > MAX_OVERHEAD_RATIO:
        # A single traced child inherits the box's interference
        # episodes (+20-40%); a second one tells those from overhead.
        again = run_child(workload, seed, seconds, True)
        traced = min(traced, again, key=lambda child: child["wall_s"])
    summary = {}
    for name, value in estimates(untraced).items():
        values = [child[name] for child in untraced]
        summary[name] = {
            "value": value,
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "n": len(values),
        }
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / reference
    return {
        "workload": workload,
        "seed": seed,
        "params": untraced[0]["params"],
        "end_to_end": summary,
        "per_layer": layers,
        "counts": untraced[0]["counts"],
        "extras": untraced[0]["extras"],
        "tail": (
            min(child["op_tail_ms"] for child in untraced),
            untraced[0]["tail_percentile"],
            untraced[0]["tail_samples"],
        ),
        "ops_unit": untraced[0]["ops_unit"],
        "fingerprint": untraced[0]["fingerprint"],
        "attempted": sum(child["attempted"] for child in untraced),
        "failed": sum(child["failed"] for child in untraced),
        "problems": problems_of(untraced + [traced]),
    }


# ---------------------------------------------------------------- reports
def print_measurement(result: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {result['workload']}  seed={result['seed']}  {result['params']}")
    for name, stats in result["end_to_end"].items():
        note = f"  ({result['ops_unit']}/s)" if name == "ops_per_s" else ""
        print(
            f"  {name:<14}{stats['value']:>12.4f} {units[name]:<6}"
            f" median {stats['median']:.4f} min {stats['min']:.4f}"
            f" max {stats['max']:.4f} n={stats['n']}{note}"
        )
    tail, percentile, samples = result["tail"]
    print(f"  op_tail_ms    {tail:>12.4f} ms     p{percentile:.1f}, n={samples} (unbounded)")
    failed, attempted = result["failed"], result["attempted"]
    print(f"  failed_share  {failed / attempted:>12.6f} ratio  ({failed}/{attempted})")
    for name, value in result["extras"].items():
        print(f"  {name:<28}{value:>12.4f}")
    print(f"  counts {result['counts']}  trace_fingerprint {result['fingerprint'][:16]}")
    print("  -- per layer (traced run)")
    for name, value in result["per_layer"].items():
        if value:
            print(f"  {name:<44}{value:>14.6f} {units[name]}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def coverage_problems(result: dict) -> list[str]:
    layers = result["per_layer"]
    problems = []
    if layers["trace.untraced_share"] > MAX_UNTRACED_SHARE:
        problems.append(
            f"trace.untraced_share {layers['trace.untraced_share']:.3f} "
            f"> {MAX_UNTRACED_SHARE}"
        )
    if layers["trace.overhead_ratio"] > MAX_OVERHEAD_RATIO:
        problems.append(
            f"trace.overhead_ratio {layers['trace.overhead_ratio']:.3f} "
            f"> {MAX_OVERHEAD_RATIO}"
        )
    return problems


def selfcheck(first: list[dict], second: list[dict], spec: dict) -> list[str]:
    """Two sets of runs of the same code must agree: every end-to-end
    value within that metric's own bound, fingerprints and counts
    exactly.  Prints the spread table."""
    problems = []
    print("== selfcheck: set A vs set B (same checkout, same seed)")
    print(f"  {'workload':<16}{'metric':<14}{'A':>12}{'B':>12}{'spread':>9}{'bound':>7}")
    for a, b in zip(first, second):
        name = a["workload"]
        if a["fingerprint"] != b["fingerprint"] or a["counts"] != b["counts"]:
            problems.append(f"{name}: fingerprint or counts differ between sets")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            x, y = a["end_to_end"][key]["value"], b["end_to_end"][key]["value"]
            spread = abs(x - y) / min(x, y)
            flag = "" if spread <= bound else "  OUTSIDE"
            print(f"  {name:<16}{key:<14}{x:>12.4f}{y:>12.4f}{spread:>9.3f}{bound:>7.2f}{flag}")
            if spread > bound:
                problems.append(f"{name}: {key} differs by {spread:.3f} > {bound}")
        for result in (a, b):
            problems.extend(f"{name}: {p}" for p in coverage_problems(result))
    return problems


# ------------------------------------------------------------------- main
def driver_run(args, spec: dict) -> int:
    """One run under the benchmark contract: the last stdout line is the
    result object, with the end-to-end metrics (``--trace 0``, see
    :func:`estimate`) or the per-layer metrics (``--trace 1``)."""
    if args.trace:
        untraced = [run_child(args.workload, args.seed, args.seconds, False)]
        traced = run_child(args.workload, args.seed, args.seconds, True)
        children = untraced + [traced]
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = traced["wall_s"] / untraced[0]["wall_s"]
        declared = spec["per_layer"]
    else:
        children = [
            run_child(args.workload, args.seed, args.seconds, False)
            for _ in range(args.repeats)
        ]
        values = estimates(children)
        declared = spec["end_to_end"]
    problems = problems_of(children)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(child["attempted"] for child in children),
                "failed": sum(child["failed"] for child in children),
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared
                },
            }
        )
    )
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0, help="1 is held out")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true", help="1/10 sizes")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument(
        "--seconds",
        type=float,
        default=NOMINAL_SECONDS,
        help="work measured per run on the reference box, split over the repeats",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="contract mode: print the result object for one workload",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seconds <= 0:
        parser.error("--repeats must be >= 1 and --seconds > 0")
    if args.quick:
        args.seconds = NOMINAL_SECONDS / 10.0
    if args.child:
        return child_main(args)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return driver_run(args, spec)

    selected = [args.workload] if args.workload else names
    sets = []
    for _ in range(2 if args.selfcheck else 1):
        results = [
            measure(name, args.seed, args.seconds, args.repeats) for name in selected
        ]
        for result in results:
            print_measurement(result, spec)
        sets.append(results)
    problems = [
        f"{result['workload']}: {problem}"
        for results in sets
        for result in results
        for problem in result["problems"]
    ]
    if args.selfcheck:
        problems.extend(selfcheck(sets[0], sets[1], spec))
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("OK" if not problems else f"FAILED ({len(problems)} problems)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
