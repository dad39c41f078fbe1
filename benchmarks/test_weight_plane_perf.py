"""Weight-plane benchmarks: vectorized aggregation and the flat round loop.

Two enforced floors, recorded to ``BENCH_weights.json`` for CI:

- **Aggregation**: merging 32 arena-resident models with the vectorized
  stacked-matrix mean must be >= 3x faster than the per-layer Python
  loop the seed shipped (``REFERENCE_AGGREGATORS``).  Median and
  trimmed mean are reported alongside (no floor — they were already
  numpy-dominated per layer).
- **Round loop**: a walk-evaluate/merge/publish loop over the flat plane
  (``Classifier.load_flat`` + accuracy-only evaluation + flat mean +
  ``Transaction.from_flat``) must be >= 1.3x faster than the same loop
  through the seed's primitives (reallocating ``set_weights``, full
  loss+accuracy ``evaluate``, per-layer mean, list-of-arrays publish) —
  while producing **bit-identical** accuracies and merged models in
  float64 (two-parent merges reduce in the same order on both paths).

Timings are best-of-N so a noisy-neighbor stall on a shared CI runner
cannot flake the comparison.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID, Transaction
from repro.fl.aggregation import FLAT_AGGREGATORS, REFERENCE_AGGREGATORS
from repro.nn import zoo

AGGREGATION_FLOOR = 3.0
ROUND_LOOP_FLOOR = 1.3

_RESULTS: dict = {}


def _best_of(fn, repeats=5):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _legacy_set_weights(model, weights):
    """The seed's weight load: fresh value and grad arrays per layer."""
    for param, value in zip(model.net.parameters(), weights):
        param.value = np.array(value, dtype=np.float64, copy=True)
        param.grad = np.zeros_like(param.value)


# ------------------------------------------------------------ aggregation
def test_vectorized_aggregation_speedup_on_32_model_merge():
    """32 FMNIST-CNN models (8 parameter arrays each, the regime where
    the per-layer loop's Python overhead is at its most realistic)."""
    cnn = zoo.build_fmnist_cnn(np.random.default_rng(0), image_size=14, size="small")
    spec = cnn.flat_spec
    rng = np.random.default_rng(1)
    k = 32
    # Old system: each model its own list of per-layer arrays.
    weight_sets = [[rng.normal(size=s) for s in spec.shapes] for _ in range(k)]
    # New system: the same models as rows of a tangle's arena; a
    # contiguous run of rows stacks as a zero-copy slab view.
    slab = np.stack([spec.flatten(ws) for ws in weight_sets])

    report = {}
    for name in ["mean", "median", "trimmed_mean"]:
        legacy_time, legacy = _best_of(lambda: REFERENCE_AGGREGATORS[name](weight_sets))
        flat_time, flat = _best_of(lambda: spec.unflatten(FLAT_AGGREGATORS[name](slab)))
        for a, b in zip(legacy, flat):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        report[name] = {
            "legacy_ms": legacy_time * 1e3,
            "flat_ms": flat_time * 1e3,
            "speedup": legacy_time / flat_time,
        }

    report["mean"]["floor"] = AGGREGATION_FLOOR
    _RESULTS["aggregation"] = {
        "workload": f"{k}-model merge, fmnist-cnn-small ({spec.total} params, "
        f"{len(spec)} arrays)",
        "models": k,
        "parameters": spec.total,
        **report,
    }
    speedup = report["mean"]["speedup"]
    assert speedup >= AGGREGATION_FLOOR, (
        f"vectorized mean only {speedup:.1f}x over the per-layer loop "
        f"(floor {AGGREGATION_FLOOR}x)"
    )


# ------------------------------------------------------------- round loop
def _grown_tangle(genesis, n=60):
    tangle = Tangle([w.copy() for w in genesis])
    ids = [GENESIS_ID]
    rng = np.random.default_rng(2)
    for i in range(n):
        parents = tuple(
            dict.fromkeys(ids[int(rng.integers(0, len(ids)))] for _ in range(2))
        )
        perturbed = [w + rng.normal(0.0, 0.05, size=w.shape) for w in genesis]
        tangle.add(Transaction(f"t{i}", parents, perturbed, i % 10, i // 10))
        ids.append(f"t{i}")
    return tangle, ids


def test_flat_round_loop_speedup_and_equivalence():
    """Walk-evaluate candidates, merge two parents, publish — the per-round
    data-plane work — through seed primitives vs the flat plane."""
    model = zoo.build_mlp(
        np.random.default_rng(0), in_features=196, hidden=(256,), num_classes=10
    )
    spec = model.flat_spec
    rng = np.random.default_rng(1)
    x = rng.normal(size=(8, 196))  # small local test set, the walk's regime
    y = rng.integers(0, 10, size=8)
    tangle, ids = _grown_tangle(model.get_weights())
    rounds, candidates = 20, 12

    def legacy_loop():
        walk_rng = np.random.default_rng(3)
        accuracies, published = [], []
        for _ in range(rounds):
            chosen = [
                ids[int(walk_rng.integers(0, len(ids)))] for _ in range(candidates)
            ]
            for tx_id in chosen:
                _legacy_set_weights(model, tangle.get(tx_id).model_weights)
                accuracies.append(model.evaluate(x, y)[1])
            parents = [tangle.get(p).model_weights for p in dict.fromkeys([chosen[0], chosen[-1]])]
            published.append(REFERENCE_AGGREGATORS["mean"](parents))
        return accuracies, [spec.flatten(w) for w in published]

    def flat_loop():
        walk_rng = np.random.default_rng(3)
        accuracies, published = [], []
        for _ in range(rounds):
            chosen = [
                ids[int(walk_rng.integers(0, len(ids)))] for _ in range(candidates)
            ]
            for tx_id in chosen:
                model.load_flat(tangle.flat_weights(tx_id))
                accuracies.append(model.accuracy(x, y))
            parent_rows = np.stack(
                [tangle.flat_weights(p) for p in dict.fromkeys([chosen[0], chosen[-1]])]
            )
            published.append(FLAT_AGGREGATORS["mean"](parent_rows))
        return accuracies, published

    legacy_time, (legacy_accs, legacy_models) = _best_of(legacy_loop)
    flat_time, (flat_accs, flat_models) = _best_of(flat_loop)

    # Equivalence: same walks, bit-identical accuracies and merged models.
    assert legacy_accs == flat_accs
    for a, b in zip(legacy_models, flat_models):
        np.testing.assert_array_equal(a, b)

    speedup = legacy_time / flat_time
    _RESULTS["round_loop"] = {
        "workload": f"{rounds} rounds x {candidates} walk evaluations, "
        f"mlp-196-256-10 ({spec.total} params), 8-sample local test set",
        "legacy_ms": legacy_time * 1e3,
        "flat_ms": flat_time * 1e3,
        "speedup": speedup,
        "floor": ROUND_LOOP_FLOOR,
        "bit_identical_float64": True,
    }
    assert speedup >= ROUND_LOOP_FLOOR, (
        f"flat round loop only {speedup:.2f}x over the list-of-arrays "
        f"baseline (floor {ROUND_LOOP_FLOOR}x)"
    )


def test_zzz_emit_bench_weights_json():
    """Write the trajectory file CI uploads (runs after the measurements;
    the zzz prefix keeps pytest's in-file ordering explicit)."""
    assert "aggregation" in _RESULTS and "round_loop" in _RESULTS
    out = Path(
        os.environ.get(
            "BENCH_WEIGHTS_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_weights.json",
        )
    )
    out.write_text(json.dumps(_RESULTS, indent=2) + "\n")
    assert out.exists()
