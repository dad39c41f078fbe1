"""Training-plane benchmarks: lockstep local SGD across a round's clients.

The last unvectorized hot path of a round: K clients each running local
SGD as an independent Python loop of tiny numpy calls.  The lockstep
plane (``repro.nn.training_plane``) stacks the K models into one
``(K, P)`` weight matrix and advances every client's batch in one fused
forward/backward/update superstep.

Enforced floors, recorded to ``BENCH_training.json`` for CI:

- **Lockstep local training**: a round's worth of local SGD — 10
  clients x the paper's fmnist schedule (10 batches of 10) — on the
  simulation-profile MLP (10x10 inputs, 16 hidden units) must be
  >= 2x faster fused than the sequential per-client loop, with
  **bit-identical** float64 trained weights and mean losses (the fused
  kernels perform the same per-model numpy products).
- **Lockstep conv training**: the same schedule on the
  simulation-profile CNN (fmnist-cnn-small, 10x10 inputs) must not be
  slower fused than the per-client loop (floor 1x), bit-identical.
  Both paths run the same im2col/BLAS kernels and a 10-image conv
  batch is already throughput-bound in them, so stacking K models
  saves only the dispatch overhead and the lowest conv's input
  gradient (~1.2x).
- **CNN kernels**: ReLU forward + backward and 2x2 max-pool forward +
  backward on the ``rounds_cnn`` training blocks (10 models x 10 images
  x 8x14x14 and x 16x7x7) must be >= 2x faster than the ``np.where`` /
  ``im2col``-window formulations they replaced (kept below as the
  reference), with bit-identical outputs and input gradients.  The
  end-to-end effect is the ``rounds_cnn`` row of ``benchmarks/e2e``.

Enforced ceiling: one lockstep superstep of the paper CIFAR CNN at
32x32 (10 clients x a batch of 10) must peak under 250 MiB of traced
heap (617 MiB while every conv layer cached its ``(K, N, F, P)`` patch stack
for the whole backward pass), its trained rows bit-identical to the
per-client loop; its wall time is recorded.

Also recorded (no floor): the same comparison at the round level — full
``TangleLearning`` rounds on each route of ``execute_round`` (in-process
rounds train in lockstep; an executor that does not advertise being
in-process gets whole per-client units), asserted bit-identical down to
post-round tangle weights (the acceptance oracle), with
walks/evaluations diluting the measured win honestly.

Timings are best-of-N so a noisy-neighbor stall on a shared CI runner
cannot flake the comparison.
"""

import json
import os
import tracemalloc
from pathlib import Path

import numpy as np

from repro.data import make_fmnist_clustered
from repro.fl import DagConfig, TangleLearning, TrainingConfig
from repro.nn import SGD, zoo
from repro.nn.layers import MaxPool2D, ReLU
from repro.nn.layers.conv import col2im
from repro.nn.model import plan_local_batches
from repro.nn.training_plane import LockstepTrainer, TrainJob
from repro.substrate import SerialExecutor
from repro.utils.blocks import warm_malloc

from benchmarks_shared import best_of, interleaved_best_of

TRAINING_FLOOR = 2.0
CONV_TRAINING_FLOOR = 1.0
CNN_KERNELS_FLOOR = 2.0
PAPER_SUPERSTEP_CEILING_MB = 250.0
CLIENTS = 10
BATCHES = 10
BATCH_SIZE = 10

_RESULTS: dict = {}


def _make_jobs(model, *, clients=CLIENTS, n=100, feature_shape=(100,), classes=10):
    rng = np.random.default_rng(1)
    start = model.get_flat()
    jobs = []
    for client in range(clients):
        x = rng.normal(size=(n,) + feature_shape)
        y = rng.integers(0, classes, size=n)
        batches = plan_local_batches(
            n,
            np.random.default_rng(1000 + client),
            epochs=1,
            batch_size=BATCH_SIZE,
            max_batches=BATCHES,
        )
        jobs.append(TrainJob(x=x, y=y, batches=batches, start_flat=start.copy()))
    return jobs


def _measure(model_builder, *, feature_shape=(100,), classes=10, repeats=5):
    """Timed sequential per-client loop vs one lockstep pass over the
    same jobs; returns (loop_time, fused_time) after asserting
    bit-identical float64 weights and losses."""
    sequential_model = model_builder()
    fused_model = model_builder()
    jobs = _make_jobs(sequential_model, feature_shape=feature_shape, classes=classes)

    def per_client_loop():
        out = []
        for job in jobs:
            sequential_model.load_flat(job.start_flat)
            optimizer = SGD(0.05)
            losses = [
                sequential_model.train_batch(job.x[idx], job.y[idx], optimizer)
                for idx in job.batches
            ]
            out.append((sequential_model.get_flat(), float(np.mean(losses))))
        return out

    def lockstep():
        return LockstepTrainer(lr=0.05).train(fused_model, jobs)

    loop_time, loop_out = best_of(per_client_loop, repeats)
    fused_time, fused_out = best_of(lockstep, repeats)
    for (row_a, loss_a), (row_b, loss_b) in zip(loop_out, fused_out):
        np.testing.assert_array_equal(row_a, row_b)
        assert row_a.dtype == row_b.dtype == np.float64
        assert loss_a == loss_b
    return loop_time, fused_time


def test_lockstep_training_speedup_and_equivalence():
    """10 clients x 10 batches of 10 on the simulation-profile MLP
    (10x10 inputs, 16 hidden units — the regime every test-suite round
    trains in): per-client loop vs fused lockstep supersteps."""
    builder = lambda: zoo.build_mlp(
        np.random.default_rng(0), in_features=100, hidden=(16,), num_classes=10
    )
    assert builder().supports_fused_train
    loop_time, fused_time = _measure(builder)
    speedup = loop_time / fused_time
    _RESULTS["lockstep_local_training"] = {
        "workload": f"{CLIENTS} clients x {BATCHES} batches of {BATCH_SIZE}, "
        f"mlp-100-16-10 ({builder().flat_spec.total} params), "
        "paper fmnist schedule",
        "clients": CLIENTS,
        "batches": BATCHES,
        "batch_size": BATCH_SIZE,
        "per_client_ms": loop_time * 1e3,
        "lockstep_ms": fused_time * 1e3,
        "speedup": speedup,
        "floor": TRAINING_FLOOR,
        "bit_identical_float64": True,
    }
    assert speedup >= TRAINING_FLOOR, (
        f"lockstep local training only {speedup:.2f}x over the "
        f"per-client loop (floor {TRAINING_FLOOR}x)"
    )


class _PerClientUnits(SerialExecutor):
    """In-process, but not advertised: ``execute_round`` routes such an
    executor whole ``execute_unit``s — the per-client training loop."""

    def runs_in_process(self, items):
        return False


def test_round_level_training_plane_recorded():
    """Full rounds on the lockstep route vs the per-client route: walks
    and evaluations dilute the training win, so no floor — but
    post-round weights must be bit-identical (the acceptance oracle),
    which is asserted over every transaction of both tangles."""
    data = make_fmnist_clustered(
        num_clients=10,
        samples_per_client=100,
        image_size=10,
        clusters=((0, 1), (7, 8)),
        seed=7,
    )
    builder = lambda rng: zoo.build_mlp(
        rng, in_features=100, hidden=(16,), num_classes=10
    )
    config = TrainingConfig(
        local_epochs=1, local_batches=10, batch_size=10, learning_rate=0.05
    )
    rounds = 6

    def run(plane):
        sim = TangleLearning(
            data,
            builder,
            config,
            DagConfig(alpha=10.0, depth_range=(2, 5)),
            clients_per_round=10,
            seed=0,
            executor=None if plane else _PerClientUnits(),
        )
        try:
            sim.run(rounds)
        finally:
            sim.close()
        return sim

    baseline_time, baseline = best_of(lambda: run(False), 3)
    plane_time, plane = best_of(lambda: run(True), 3)
    assert len(baseline.tangle) == len(plane.tangle)
    for t1, t2 in zip(baseline.tangle.transactions(), plane.tangle.transactions()):
        assert t1.tx_id == t2.tx_id
        for w1, w2 in zip(t1.model_weights, t2.model_weights):
            np.testing.assert_array_equal(w1, w2)
    for ra, rb in zip(baseline.history, plane.history):
        assert ra.client_loss == rb.client_loss
        assert ra.published == rb.published
    _RESULTS["round_level"] = {
        "workload": f"{rounds} rounds x 10 clients, 10 batches of 10, "
        "mlp-100-16-10, accuracy walks included",
        "per_client_seconds": baseline_time,
        "training_plane_seconds": plane_time,
        "speedup": baseline_time / plane_time,
        "post_round_weights_bit_identical_float64": True,
        "note": "no floor: walks and evaluations dominate the remainder",
    }


def test_conv_fused_training_speedup_and_equivalence():
    """The same 10 clients x 10 batches of 10 on the simulation-profile
    CNN: Conv2D/MaxPool2D run the fused supersteps like every other
    layer, bit-identical to the per-client loop."""
    builder = lambda: zoo.build_fmnist_cnn(
        np.random.default_rng(0), image_size=10, size="small"
    )
    assert builder().supports_fused_train
    loop_time, fused_time = _measure(builder, feature_shape=(1, 10, 10), classes=10)
    speedup = loop_time / fused_time
    _RESULTS["conv_fused"] = {
        "workload": f"{CLIENTS} clients x {BATCHES} batches of {BATCH_SIZE}, "
        f"fmnist-cnn-small 10x10 ({builder().flat_spec.total} params)",
        "per_client_ms": loop_time * 1e3,
        "lockstep_ms": fused_time * 1e3,
        "speedup": speedup,
        "floor": CONV_TRAINING_FLOOR,
        "bit_identical_float64": True,
    }
    assert speedup >= CONV_TRAINING_FLOOR, (
        f"lockstep conv training {speedup:.2f}x of the per-client loop "
        f"(floor {CONV_TRAINING_FLOOR}x)"
    )


def _reference_relu(x, grad):
    mask = x > 0
    return np.where(mask, x, 0.0), np.where(mask, grad, 0.0)


def _reference_pool(x, grad):
    """2x2 / stride-2 pooling over a slice-loop unfold of the windows,
    the gradient routed back through ``np.where`` and ``col2im``."""
    out_h, out_w = x.shape[-2] // 2, x.shape[-1] // 2
    cols = np.empty(x.shape[:-2] + (2, 2, out_h, out_w))
    for i in range(2):
        for j in range(2):
            cols[..., i, j, :, :] = x[..., i : i + 2 * out_h : 2, j : j + 2 * out_w : 2]
    windows = cols.reshape(x.shape[:-2] + (4, out_h, out_w))
    out = windows.max(axis=-3)
    chosen = windows == out[..., None, :, :]
    seen = chosen[..., 0, :, :].copy()
    for q in range(1, 4):
        plane = chosen[..., q, :, :]
        plane &= ~seen
        seen |= plane
    grad_windows = np.where(chosen, grad[..., None, :, :], 0.0)
    grad_cols = grad_windows.reshape(x.shape[:-2] + (2, 2, out_h, out_w))
    return out, col2im(grad_cols, x.shape, 2, 2, 2, 0)


def _kernels(x, grad_relu, grad_pool):
    relu, pool = ReLU(), MaxPool2D(2, 2)
    relu_cache: dict = {}
    pool_cache: dict = {}
    relu_out, _ = relu.forward_many(x, [], batched=True, cache=relu_cache)
    relu_grad = relu.backward_many(grad_relu, [], [], relu_cache)
    pool_out, _ = pool.forward_many(relu_out, [], batched=True, cache=pool_cache)
    pool_grad = pool.backward_many(grad_pool, [], [], pool_cache)
    return relu_out, relu_grad, pool_out, pool_grad


def _reference(x, grad_relu, grad_pool):
    relu_out, relu_grad = _reference_relu(x, grad_relu)
    pool_out, pool_grad = _reference_pool(relu_out, grad_pool)
    return relu_out, relu_grad, pool_out, pool_grad


def test_cnn_kernels_speedup_and_equivalence():
    """ReLU + 2x2 max-pool, forward and backward, on the ``rounds_cnn``
    fused training blocks: the branch-free kernels against the
    ``np.where`` / window-unfold reference, bit for bit.

    The allocator is warmed first, as a tangle's arena warms it: on a
    cold heap every temporary of these blocks is a fresh mapping, and
    both legs spent about half their time in minor page faults (800 to
    1,300 a call), a cost that moves with the host's load.
    """
    warm_malloc(16 << 20)  # at most glibc's 32 MB dynamic mmap threshold
    rng = np.random.default_rng(3)
    blocks = {}
    reference_total = kernel_total = 0.0
    for channels, size in ((8, 14), (16, 7)):
        shape = (CLIENTS, BATCH_SIZE, channels, size, size)
        x = rng.normal(size=shape)
        grad_relu = rng.normal(size=shape)
        grad_pool = rng.normal(size=shape[:-2] + (size // 2, size // 2))
        # Calls stay consecutive within a window: the kernels called
        # right after the reference find their memory evicted and ran
        # 1.3-1.7 times slower, which one call per turn would time on
        # every call.
        (reference_time, expected), (kernel_time, actual) = interleaved_best_of(
            [
                lambda: _reference(x, grad_relu, grad_pool),
                lambda: _kernels(x, grad_relu, grad_pool),
            ],
            windows=10,
            calls=5,
        )
        for a, b in zip(actual, expected):
            assert a.dtype == b.dtype == np.float64
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
        blocks["x".join(map(str, shape))] = {
            "reference_ms": reference_time * 1e3,
            "kernels_ms": kernel_time * 1e3,
            "speedup": reference_time / kernel_time,
        }
        reference_total += reference_time
        kernel_total += kernel_time
    speedup = reference_total / kernel_total
    _RESULTS["cnn_kernels"] = {
        "workload": "ReLU fwd+bwd and 2x2 max-pool fwd+bwd on the rounds_cnn "
        "fused training blocks (models x images x C x H x W)",
        "blocks": blocks,
        "reference_ms": reference_total * 1e3,
        "kernels_ms": kernel_total * 1e3,
        "speedup": speedup,
        "floor": CNN_KERNELS_FLOOR,
        "bit_identical_float64": True,
    }
    assert speedup >= CNN_KERNELS_FLOOR, (
        f"CNN kernels only {speedup:.2f}x over the np.where/window "
        f"reference (floor {CNN_KERNELS_FLOOR}x)"
    )


def test_paper_cnn_superstep_time_and_peak_memory():
    """One superstep of the paper CIFAR CNN (5x5 convs of 32/64/128
    filters on 32x32 RGB inputs, 829k parameters): 10 clients x one
    batch of 10.  Records its wall time and tracemalloc heap peak; the
    peak (MiB) must stay under ``PAPER_SUPERSTEP_CEILING_MB`` — 126 of it
    are the ``(K, P)`` weight and gradient stacks themselves, the rest
    one K-chunk of conv patches at a time plus the activations.  The
    trained rows must equal the per-client loop bit for bit."""
    model = zoo.build_cifar_cnn(
        np.random.default_rng(0), image_size=32, num_classes=100, size="paper"
    )
    rng = np.random.default_rng(1)
    start = model.get_flat()
    jobs = [
        TrainJob(
            x=rng.normal(size=(BATCH_SIZE, 3, 32, 32)),
            y=rng.integers(0, 100, size=BATCH_SIZE),
            batches=[np.random.default_rng(client).permutation(BATCH_SIZE)],
            start_flat=start,
        )
        for client in range(CLIENTS)
    ]
    trainer = LockstepTrainer(lr=0.05)
    wall, trained = best_of(lambda: trainer.train(model, jobs), 3)
    tracemalloc.start()
    try:
        trainer.train(model, jobs)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    for job, (row, loss) in zip(jobs, trained):
        model.load_flat(job.start_flat)
        idx = job.batches[0]
        assert model.train_batch(job.x[idx], job.y[idx], SGD(0.05)) == loss
        np.testing.assert_array_equal(model.get_flat(), row)
    _RESULTS["paper_cnn_superstep"] = {
        "workload": f"{CLIENTS} clients x 1 batch of {BATCH_SIZE}, cifar-cnn-paper "
        f"32x32 ({model.flat_spec.total} params), one lockstep superstep",
        "wall_ms": wall * 1e3,
        "peak_mb": peak_mb,
        "ceiling_mb": PAPER_SUPERSTEP_CEILING_MB,
        "bit_identical_float64": True,
    }
    assert peak_mb <= PAPER_SUPERSTEP_CEILING_MB, (
        f"paper CNN superstep peaked at {peak_mb:.1f} MB "
        f"(ceiling {PAPER_SUPERSTEP_CEILING_MB} MB)"
    )


def test_zzz_emit_bench_training_json():
    """Write the trajectory file CI uploads (runs after the measurements;
    the zzz prefix keeps pytest's in-file ordering explicit)."""
    assert "lockstep_local_training" in _RESULTS
    out = Path(
        os.environ.get(
            "BENCH_TRAINING_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_training.json",
        )
    )
    out.write_text(json.dumps(_RESULTS, indent=2) + "\n")
    assert out.exists()
