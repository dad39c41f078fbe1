"""Working-set bounds of the fused conv passes.

A fused conv pass caches its *input*, not its ``(K, N, F, P)`` patch
stack, and walks every patch stack in K-chunks under
``conv._PATCH_BYTES``; ``Sequential.backward_many_train`` drops each
layer's cache as soon as that layer's backward has run.  These tests
pin the resulting transient heap peaks (tracemalloc, numpy's own
allocations included; MB here are MiB) at the ``rounds_cnn``
end-to-end shapes: the small FMNIST CNN on 14x14 images, K = 10 clients
training 8 batches of 10 in lockstep, and one K = 30 scoring call over
a client's 8 test samples.  While conv layers cached their patch stacks
the same calls peaked at 9.8 MB and 8.7 MB; the bounds sit between that
and the 4.0 MB / 5.7 MB they peak at now.
"""

import tracemalloc

import numpy as np

from repro.nn import zoo
from repro.nn.model import plan_local_batches
from repro.nn.training_plane import TrainJob, train_grouped

TRAIN_PEAK_MB = 6.0
SCORE_PEAK_MB = 7.0


def _rounds_cnn_model():
    return zoo.build_fmnist_cnn(np.random.default_rng(0), image_size=14, size="small")


def _transient_peak_mb(call):
    """Heap high-water of ``call()`` above what was live before it, after
    one warm-up call (so one-time caches such as patch indices are not
    counted)."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_lockstep_cnn_training_peak_is_bounded():
    model = _rounds_cnn_model()
    rng = np.random.default_rng(1)
    start = model.get_flat()
    jobs = []
    for client in range(10):
        x = rng.normal(size=(80, 1, 14, 14))
        y = rng.integers(0, 10, size=80)
        batches = plan_local_batches(
            80, np.random.default_rng(100 + client), epochs=1, batch_size=10,
            max_batches=8,
        )
        jobs.append(
            TrainJob(x=x, y=y, batches=batches, start_flat=start.copy(), tag=client, lr=0.05)
        )
    peak = _transient_peak_mb(lambda: train_grouped([(model, jobs)]))
    assert peak < TRAIN_PEAK_MB, f"train_grouped peaked at {peak:.2f} MB"


def test_cnn_scoring_peak_is_bounded():
    model = _rounds_cnn_model()
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(30, model.flat_spec.total)) * 0.1
    x = rng.normal(size=(8, 1, 14, 14))
    y = rng.integers(0, 10, size=8)
    peak = _transient_peak_mb(lambda: model.accuracy_many(rows, x, y))
    assert peak < SCORE_PEAK_MB, f"accuracy_many peaked at {peak:.2f} MB"


def test_backward_releases_each_layer_cache():
    model = _rounds_cnn_model()
    net = model.net
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(3, model.flat_spec.total)) * 0.1
    params = model.flat_spec.unflatten_many(rows)
    grads = model.flat_spec.unflatten_many(np.zeros_like(rows))
    caches = [{} for _ in net.layers]
    logits, _ = net.forward_many(
        rng.normal(size=(3, 4, 1, 14, 14)), params, caches, batched=True
    )
    assert all(caches)
    net.backward_many_train(rng.normal(size=logits.shape), params, grads, caches)
    assert caches == [{} for _ in net.layers]
