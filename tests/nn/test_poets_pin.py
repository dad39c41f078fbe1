"""Digest pins for a small Poets model (embedding -> LSTM -> dense head).

The digests were recorded from the one-model ``LSTM`` / ``Embedding``
kernels that predate their K-model kernels: two epochs of three batches
of momentum SGD for three clients (trained rows and every batch loss)
and the logits of a fixed token batch.  The per-client loop and the
lockstep trainer must both still reproduce them, so the K-model kernels
equal the retired ones bit for bit.  Re-record with
``PYTHONPATH=src python tests/nn/test_poets_pin.py``.
"""

import hashlib

import numpy as np

from repro.nn import SGD, zoo
from repro.nn.model import plan_local_batches
from repro.nn.training_plane import LockstepTrainer, TrainJob

VOCAB, LENGTH, CLIENTS = 11, 6, 3
LR, MOMENTUM = 0.1, 0.9

PINS = {
    "trained": "8d2204e63d075631a80a9b56da9d6ba03ab8e4d0dc9dd74d5f2570a356733466",
    "lockstep": "f282f2a580f424d90cc8cb27737439c300abf64a4a024cb361b8d60f7bb84e4f",
    "logits": "0fd6b4c20a8fbe8544561168b2ac4a523ba986facd920eff3e453667017d3c32",
}


def _model():
    return zoo.build_poets_lstm(
        np.random.default_rng(2024), vocab_size=VOCAB, embedding_dim=4
    )


def _jobs(model):
    rng = np.random.default_rng(7)
    start = model.get_flat()
    jobs = []
    for client in range(CLIENTS):
        x = rng.integers(0, VOCAB, size=(12, LENGTH))
        y = rng.integers(0, VOCAB, size=12)
        batches = plan_local_batches(
            12, np.random.default_rng(100 + client), epochs=2, batch_size=5, max_batches=3
        )
        jobs.append(TrainJob(x=x, y=y, batches=batches, start_flat=start, lr=LR, momentum=MOMENTUM))
    return jobs


def _digest(rows, losses) -> str:
    sha = hashlib.sha256()
    for row, batch_losses in zip(rows, losses):
        sha.update(np.ascontiguousarray(row, dtype=np.float64).tobytes())
        sha.update(np.asarray(batch_losses, dtype=np.float64).tobytes())
    return sha.hexdigest()


def per_client_digest() -> str:
    model = _model()
    rows, losses = [], []
    for job in _jobs(model):
        model.load_flat(job.start_flat)
        optimizer = SGD(LR, momentum=MOMENTUM)
        losses.append([model.train_batch(job.x[idx], job.y[idx], optimizer) for idx in job.batches])
        rows.append(model.get_flat())
    return _digest(rows, losses)


def lockstep_digest() -> str:
    """The lockstep trainer reports mean losses only: its digest covers
    the trained rows and those means."""
    model = _model()
    jobs = _jobs(model)
    outcomes = LockstepTrainer(lr=LR, momentum=MOMENTUM).train(model, jobs)
    return _digest([row for row, _ in outcomes], [[loss] for _, loss in outcomes])


def logits_digest() -> str:
    tokens = np.random.default_rng(11).integers(0, VOCAB, size=(9, LENGTH))
    return hashlib.sha256(_model().logits(tokens).tobytes()).hexdigest()


def test_per_client_training_matches_the_pin():
    assert per_client_digest() == PINS["trained"]


def test_lockstep_training_matches_the_pin():
    assert lockstep_digest() == PINS["lockstep"]


def test_logits_match_the_pin():
    assert logits_digest() == PINS["logits"]


if __name__ == "__main__":
    print(f'    "trained": "{per_client_digest()}",')
    print(f'    "lockstep": "{lockstep_digest()}",')
    print(f'    "logits": "{logits_digest()}",')
