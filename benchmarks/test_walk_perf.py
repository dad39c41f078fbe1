"""Walk-evaluation benchmarks: the fused multi-model forward pass.

The accuracy-biased walk's hot path evaluates each walk step's K
candidate approvers on the selecting client's small local test set.
PR 2 made each single evaluation cheap (``load_flat`` + accuracy-only
forward); this plane fuses the K evaluations of a step into **one**
vectorized pass over a ``(K, P)`` stack sliced from the tangle's weight
arena (``Classifier.accuracy_many``).

Enforced floors, recorded to ``BENCH_walk.json`` for CI:

- **Fused walk step**: evaluating 8 MLP candidates per step must be
  >= 2x faster than the per-model ``load_flat`` + ``accuracy`` loop, in
  the walk's real regime — the test-suite simulation profile's MLP
  (10x10 inputs, 16 hidden units) on an 8-sample local test set, where
  per-model Python/layer dispatch dominates — with **bit-identical**
  float64 accuracies (the fused kernels perform the same per-model
  numpy products, so even the logits match exactly).
- **Fused conv walk step**: the same 8-candidate step on the
  simulation-profile CNN (fmnist-cnn-small, 10x10 inputs) must be
  >= 1.5x faster fused — the shared test set is unfolded once and all
  8 kernels run in one matmul per layer — again bit-identical.

Also recorded (no floor): a mid-size MLP where the step cost is
dominated by moving K x P weight bytes (the fused gather pays the same
memory traffic as K ``load_flat`` copies, so the win shrinks — the
trajectory documents that honestly) and the end-to-end
``Client.tx_accuracies`` step.

Timings are best-of-N so a noisy-neighbor stall on a shared CI runner
cannot flake the comparison.
"""

import json
import os
from pathlib import Path

import numpy as np

from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.fl import Client, TrainingConfig
from repro.nn import zoo

from benchmarks_shared import best_of

WALK_STEP_FLOOR = 2.0
CONV_STEP_FLOOR = 1.5
CANDIDATES = 8
STEPS = 30

_RESULTS: dict = {}


def _grown_tangle(model, n=64, sigma=0.05, seed=2):
    genesis = model.get_weights()
    tangle = Tangle([w.copy() for w in genesis])
    ids = [GENESIS_ID]
    rng = np.random.default_rng(seed)
    for i in range(n):
        parents = tuple(
            dict.fromkeys(ids[int(rng.integers(0, len(ids)))] for _ in range(2))
        )
        perturbed = [w + rng.normal(0.0, sigma, size=w.shape) for w in genesis]
        tangle.add(Transaction(f"t{i}", parents, perturbed, i % 10, i // 10))
        ids.append(f"t{i}")
    return tangle, ids


def _walk_steps(ids, steps=STEPS, k=CANDIDATES, seed=3):
    """The candidate ids of each simulated walk step (fixed across
    paths so both evaluate exactly the same models)."""
    rng = np.random.default_rng(seed)
    return [
        [ids[int(rng.integers(0, len(ids)))] for _ in range(k)]
        for _ in range(steps)
    ]


# ------------------------------------------------------------- fused walk
def _measure_walk(model, *, sample_shape, batch):
    """Timed per-model-loop vs fused evaluation of the same walk steps;
    returns (loop_time, fused_time) after asserting bit-identity."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=(batch,) + sample_shape)  # small local test set
    y = rng.integers(0, 10, size=batch)
    tangle, ids = _grown_tangle(model)
    steps = _walk_steps(ids)
    arena = tangle.arena

    def per_model_loop():
        accuracies = []
        for candidates in steps:
            for tx_id in candidates:
                model.load_flat(tangle.flat_weights(tx_id))
                accuracies.append(model.accuracy(x, y))
        return np.array(accuracies)

    def fused():
        accuracies = []
        for candidates in steps:
            rows = arena.rows(
                [tangle.get(tx_id).arena_location()[1] for tx_id in candidates]
            )
            accuracies.append(model.accuracy_many(rows, x, y))
        return np.concatenate(accuracies)

    loop_time, loop_accs = best_of(per_model_loop, 5)
    fused_time, fused_accs = best_of(fused, 5)
    # Equivalence oracle: bit-identical float64 accuracies.
    np.testing.assert_array_equal(loop_accs, fused_accs)
    assert loop_accs.dtype == fused_accs.dtype == np.float64
    return loop_time, fused_time


def test_fused_walk_step_speedup_and_equivalence():
    """8-candidate walk steps over the simulation-profile MLP
    (10x10 inputs, 16 hidden units — the regime every test-suite walk
    runs in), per-model loop vs one fused pass over arena rows."""
    model = zoo.build_mlp(
        np.random.default_rng(0), in_features=100, hidden=(16,), num_classes=10
    )
    assert model.supports_fused_eval
    loop_time, fused_time = _measure_walk(model, sample_shape=(100,), batch=8)
    speedup = loop_time / fused_time
    _RESULTS["fused_walk_step"] = {
        "workload": f"{STEPS} steps x {CANDIDATES} candidates, "
        f"mlp-100-16-10 ({model.flat_spec.total} params), "
        "8-sample local test set",
        "steps": STEPS,
        "candidates": CANDIDATES,
        "parameters": model.flat_spec.total,
        "per_model_ms": loop_time * 1e3,
        "fused_ms": fused_time * 1e3,
        "speedup": speedup,
        "floor": WALK_STEP_FLOOR,
        "bit_identical_float64": True,
    }
    assert speedup >= WALK_STEP_FLOOR, (
        f"fused walk-step evaluation only {speedup:.2f}x over the "
        f"per-model loop (floor {WALK_STEP_FLOOR}x)"
    )


def test_midsize_mlp_walk_step_recorded():
    """Mid-size MLP (14x14 inputs, 64 hidden): here K x P weight-byte
    traffic dominates the step and the fused gather pays the same bytes
    the per-model loads paid, so the speedup shrinks toward the memory
    bound.  Recorded without a floor — the trajectory should show where
    the fusion wins and where the hardware does."""
    model = zoo.build_mlp(
        np.random.default_rng(0), in_features=196, hidden=(64,), num_classes=10
    )
    loop_time, fused_time = _measure_walk(model, sample_shape=(196,), batch=8)
    _RESULTS["midsize_walk_step"] = {
        "workload": f"{STEPS} steps x {CANDIDATES} candidates, "
        f"mlp-196-64-10 ({model.flat_spec.total} params), "
        "8-sample local test set",
        "per_model_ms": loop_time * 1e3,
        "fused_ms": fused_time * 1e3,
        "speedup": loop_time / fused_time,
        "bit_identical_float64": True,
        "note": "no floor: weight-byte traffic bounds both paths at this size",
    }


# ------------------------------------------------------------ fused conv
def test_conv_fused_walk_step_speedup_and_equivalence():
    """The same 8-candidate steps on the simulation-profile CNN: the
    step's shared test set goes through im2col once and every conv is
    one matmul over the 8 stacked kernels."""
    model = zoo.build_fmnist_cnn(
        np.random.default_rng(0), image_size=10, size="small"
    )
    assert model.supports_fused_eval
    loop_time, fused_time = _measure_walk(model, sample_shape=(1, 10, 10), batch=8)
    speedup = loop_time / fused_time
    _RESULTS["conv_fused"] = {
        "workload": f"{STEPS} steps x {CANDIDATES} candidates, "
        f"fmnist-cnn-small 10x10 ({model.flat_spec.total} params), "
        "8-sample local test set",
        "per_model_ms": loop_time * 1e3,
        "fused_ms": fused_time * 1e3,
        "speedup": speedup,
        "floor": CONV_STEP_FLOOR,
        "bit_identical_float64": True,
    }
    assert speedup >= CONV_STEP_FLOOR, (
        f"fused conv walk-step evaluation only {speedup:.2f}x over the "
        f"per-model loop (floor {CONV_STEP_FLOOR}x)"
    )


# ----------------------------------------------------------- client level
def test_client_walk_step_end_to_end_recorded():
    """The walk's real entry point (``Client.tx_accuracies`` with cache
    cleared per step, i.e. every step all-misses) — recorded to show the
    fused plane's end-to-end effect including cache and stacking
    overhead (no floor; the kernel-level floor above is the gate)."""

    class _Data:
        client_id = 0
        metadata: dict = {}

        def __init__(self, rng):
            self.x_train = rng.normal(size=(16, 100))
            self.y_train = rng.integers(0, 10, size=16)
            self.x_test = rng.normal(size=(8, 100))
            self.y_test = rng.integers(0, 10, size=8)

    model = zoo.build_mlp(
        np.random.default_rng(0), in_features=100, hidden=(16,), num_classes=10
    )
    client = Client(_Data(np.random.default_rng(4)), model, TrainingConfig(), rng=1)
    tangle, ids = _grown_tangle(model)
    steps = _walk_steps(ids, steps=10)

    def fused_steps():
        accuracies = []
        for candidates in steps:
            client.reset_cache()
            accuracies.append(client.tx_accuracies(tangle, candidates))
        return np.concatenate(accuracies)

    def sequential_steps():
        accuracies = []
        for candidates in steps:
            client.reset_cache()
            accuracies.append(
                np.array([client.tx_accuracy(tangle, t) for t in candidates])
            )
        return np.concatenate(accuracies)

    sequential_time, sequential_accs = best_of(sequential_steps, 5)
    fused_time, fused_accs = best_of(fused_steps, 5)
    np.testing.assert_array_equal(sequential_accs, fused_accs)
    _RESULTS["client_walk_step"] = {
        "workload": "10 all-miss steps x 8 candidates via Client.tx_accuracies",
        "sequential_ms": sequential_time * 1e3,
        "fused_ms": fused_time * 1e3,
        "speedup": sequential_time / fused_time,
        "bit_identical_float64": True,
    }


def test_zzz_emit_bench_walk_json():
    """Write the trajectory file CI uploads (runs after the measurements;
    the zzz prefix keeps pytest's in-file ordering explicit)."""
    assert "fused_walk_step" in _RESULTS
    out = Path(
        os.environ.get(
            "BENCH_WALK_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_walk.json",
        )
    )
    out.write_text(json.dumps(_RESULTS, indent=2) + "\n")
    assert out.exists()
