"""Helpers shared between benchmark modules."""

import time


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def best_of(fn, repeats):
    """Best wall time of ``repeats`` consecutive calls of ``fn``, and the
    last call's result."""
    return interleaved_best_of([fn], windows=1, calls=repeats)[0]


def interleaved_best_of(fns, windows, calls):
    """Best time and last result of each of ``fns``, timed in alternating
    windows of ``calls`` consecutive calls (``windows`` per leg), so a
    noisy stretch of the box lands on every leg alike."""
    best, results = [float("inf")] * len(fns), [None] * len(fns)
    for _ in range(windows):
        for i, fn in enumerate(fns):
            for _ in range(calls):
                start = time.perf_counter()
                results[i] = fn()
                best[i] = min(best[i], time.perf_counter() - start)
    return list(zip(best, results))


def scenario_subset(*labels: str):
    """Select poisoning scenarios by label (see fig12_13_14.SCENARIOS)."""
    from repro.experiments.fig12_13_14 import SCENARIOS

    chosen = [s for s in SCENARIOS if s[0] in labels]
    missing = set(labels) - {s[0] for s in chosen}
    if missing:
        raise KeyError(f"unknown scenario labels: {sorted(missing)}")
    return tuple(chosen)
