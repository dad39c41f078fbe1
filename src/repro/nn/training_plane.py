"""Lockstep training plane: batched forward/backward SGD across models.

A federated round's dominant cost is K clients each running the same
local-SGD loop over the same architecture — K independent Python loops
issuing tiny numpy calls.  This module fuses them: the K models' weights
live as rows of one ``(K, P)`` float64 stack, viewed zero-copy as
per-parameter ``(K, *shape)`` stacks
(:meth:`~repro.nn.serialization.FlatSpec.unflatten_many`), and every
global batch index advances **all** models with one fused forward
(cached activations), one batched loss, one fused backward
(grad accumulation into a ``(K, P)`` gradient stack), and one
element-wise SGD update — a *superstep*.  A job carrying ``mu`` trains
the FedProx local objective: the superstep adds the proximal pull
``mu * (w - w_start)`` to the gradient stack before the update.

Equivalence contract: the fused kernels perform, model for model, the
same numpy products, reductions, and element-wise updates the sequential
``train_batch`` loop performs, so in float64 the trained weights — and
the per-batch losses — are **bit-identical** to training each client one
after another.  Train-mode dropout holds too: each model draws its masks
from a forked stream positioned exactly where the sequential run's
shared layer stream would have been when that model's training began
(:meth:`~repro.nn.layers.dropout.Dropout.fork_stream`), and the layer's
own stream is advanced past all of them afterwards, so subsequent
rounds continue from the same state either way.

A single job, or a model without parameters, trains through the
sequential per-model loop — same entry point, same results, nothing to
fuse; jobs whose batch schedules disagree train in separate fused
groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.nn.layers.dropout import Dropout
from repro.nn.losses import softmax_cross_entropy_many
from repro.nn.optimizers import SGD, ProximalSGD

if TYPE_CHECKING:  # only for annotations; no runtime import cycle
    from repro.nn.model import Classifier

__all__ = ["TrainJob", "LockstepTrainer", "train_grouped", "draws_dropout_masks"]


def draws_dropout_masks(model: "Classifier") -> bool:
    """Whether training ``model`` consumes a generator held on the model
    itself (a train-active :class:`Dropout` layer's mask stream)."""
    return any(
        isinstance(layer, Dropout) and layer.train_active
        for layer in model.net.layers
    )


def train_grouped(
    jobs_by_model: "list[tuple[Classifier, list[TrainJob]]]",
) -> dict:
    """Advance every model's whole job list in lockstep; tag -> (row, loss).

    The library's one local-training entry point — every round (the
    baselines' included) and event-engine superstep through
    :func:`repro.substrate.round_plan.run_training_plane_round`, and
    :meth:`repro.fl.client.Client.train` with one job.  Each ``(model,
    jobs)`` pair goes through **one** :meth:`LockstepTrainer.train` call
    — all of a model's jobs must share that call because dropout stream
    order is defined across the whole job list.  Jobs must carry their own
    ``lr``/``momentum`` (the first job's values seed the trainer's
    defaults) and a hashable ``tag`` identifying the result.
    """
    trained: dict = {}
    for model, jobs in jobs_by_model:
        if not jobs:
            continue
        if jobs[0].lr is None:
            raise ValueError("train_grouped jobs must carry an explicit lr")
        trainer = LockstepTrainer(
            lr=jobs[0].lr, momentum=jobs[0].momentum or 0.0
        )
        for job, outcome in zip(jobs, trainer.train(model, jobs)):
            trained[job.tag] = outcome
    return trained


@dataclass
class TrainJob:
    """One model's local-training work, in lockstep-ready form.

    ``batches`` is the full batch index schedule (all epochs flattened,
    in training order) as produced by
    :func:`~repro.nn.model.plan_local_batches` — planning it is how the
    caller consumes the client's shuffle rng, so the trainer itself
    draws nothing from it.  ``start_flat`` is the starting weights as
    one flat ``(P,)`` vector; float32 rows (e.g. out of a float32 weight
    arena) are widened to float64 exactly as ``set_weights`` would cast
    them.  ``lr``/``momentum`` override the trainer's optimizer config
    for this job (``None`` inherits it); ``mu`` adds FedProx's proximal
    term anchored at ``start_flat`` (``None`` is plain SGD, ``0.0`` is
    still proximal).  Jobs with different configs cannot share
    supersteps, so they land in separate fused groups, but they still
    belong in **one** :meth:`LockstepTrainer.train` call: dropout
    stream order is defined across a model's whole job list.
    """

    x: np.ndarray
    y: np.ndarray
    batches: list[np.ndarray]
    start_flat: np.ndarray
    tag: object = None
    lr: float | None = None
    momentum: float | None = None
    mu: float | None = None

    def signature(self, default_lr: float, default_momentum: float) -> tuple:
        """Lockstep-compatibility key: jobs fuse only when every
        superstep stacks same-shaped batches and applies the same
        optimizer update."""
        return (
            tuple(len(idx) for idx in self.batches),
            tuple(self.x.shape[1:]),
            self.x.dtype.str,
            self.y.dtype.str,
            self.lr if self.lr is not None else default_lr,
            self.momentum if self.momentum is not None else default_momentum,
            self.mu,
        )


@dataclass
class _Group:
    """Jobs that advance together, in caller (round) order."""

    indices: list[int] = field(default_factory=list)
    jobs: list[TrainJob] = field(default_factory=list)


class LockstepTrainer:
    """Advance several same-architecture local-SGD runs in lockstep.

    The trainer's ``lr``/``momentum`` are the default optimizer
    configuration (the plain ``SGD(lr, momentum)`` every DAG client
    uses); individual jobs may override it.  :meth:`train` takes the
    jobs of **one** model in the caller's sequential order, groups them
    by batch-schedule/optimizer signature, and runs each group's
    supersteps fused — or runs the sequential per-model loop when there
    is a single job.
    Results come back in job order either way, bit-identical between
    the two paths.  Dropout streams are forked once across the *whole*
    job list (client-major, the sequential interleaving), so a model's
    jobs must all arrive in one call even when optimizer configs differ
    between them.
    """

    def __init__(self, *, lr: float, momentum: float = 0.0):
        self.lr = lr
        self.momentum = momentum

    def _job_config(self, job: TrainJob) -> tuple[float, float]:
        return (
            job.lr if job.lr is not None else self.lr,
            job.momentum if job.momentum is not None else self.momentum,
        )

    # ------------------------------------------------------------- entry
    def train(
        self, model: "Classifier", jobs: list[TrainJob]
    ) -> list[tuple[np.ndarray, float]]:
        """Train every job from its ``start_flat``; returns, per job in
        order, ``(trained_flat_row, mean_batch_loss)`` — exactly what
        the sequential ``set_weights`` + ``train_local`` pair produces.
        """
        if not jobs:
            return []
        total = model.flat_spec.total
        for job in jobs:
            if job.start_flat.shape != (total,):
                raise ValueError(
                    f"start_flat must have shape ({total},), "
                    f"got {job.start_flat.shape}"
                )
        # One job has nothing to fuse with: a stacked pass of one
        # equals the reference loop bit for bit and, wherever Python
        # dispatch matters, costs more per batch.
        if len(jobs) == 1 or not any(layer.parameters() for layer in model.net.layers):
            return [self._train_sequential(model, job) for job in jobs]

        groups: dict[tuple, _Group] = {}
        for index, job in enumerate(jobs):
            group = groups.setdefault(
                job.signature(self.lr, self.momentum), _Group()
            )
            group.indices.append(index)
            group.jobs.append(job)

        dropout_streams = self._fork_dropout_streams(model, jobs)
        results: list[tuple[np.ndarray, float] | None] = [None] * len(jobs)
        for group in groups.values():
            group_streams = {
                layer_index: [streams[i] for i in group.indices]
                for layer_index, streams in dropout_streams.items()
            }
            stack, losses = self._train_group(model, group.jobs, group_streams)
            for row_index, job_index in enumerate(group.indices):
                results[job_index] = (stack[row_index], losses[row_index])
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------ one job
    def _train_sequential(
        self, model: "Classifier", job: TrainJob
    ) -> tuple[np.ndarray, float]:
        """The per-model reference loop over a precomputed schedule.

        Identical to ``Classifier.train_local`` with the same schedule
        (under :class:`ProximalSGD` for a job with ``mu``): the only
        deviation is that shuffles were planned ahead (which consumes
        the shuffle rng identically).
        """
        lr, momentum = self._job_config(job)
        model.load_flat(job.start_flat)
        if job.mu is None:
            optimizer = SGD(lr, momentum=momentum)
        else:
            optimizer = ProximalSGD(lr, job.mu, momentum=momentum)
            optimizer.set_reference(model.flat_spec.unflatten(job.start_flat))
        losses = [
            model.train_batch(job.x[idx], job.y[idx], optimizer)
            for idx in job.batches
        ]
        return model.get_flat(), float(np.mean(losses))

    # ----------------------------------------------------- dropout streams
    @staticmethod
    def _probe_dropout_sample_shapes(
        model: "Classifier", job: TrainJob
    ) -> dict[int, tuple[int, ...]]:
        """Per-sample input shape at each train-active dropout layer.

        One evaluation-mode forward over the job's first batch, recording
        shapes layer by layer (eval forwards draw nothing, so no stream
        is consumed).  Per-sample shapes are batch-size independent, so
        one probe serves every group of the model.
        """
        shapes: dict[int, tuple[int, ...]] = {}
        x = job.x[job.batches[0]]
        for index, layer in enumerate(model.net.layers):
            if isinstance(layer, Dropout) and layer.train_active:
                shapes[index] = x.shape[1:]
            x = layer.forward(x)
        return shapes

    def _fork_dropout_streams(
        self, model: "Classifier", jobs: list[TrainJob]
    ) -> dict[int, list[np.random.Generator]]:
        """One forked stream per (train-active dropout layer, job).

        Job ``j``'s stream for a layer starts where the layer's own
        generator would stand after jobs ``0..j-1`` drew all their masks
        — the sequential interleaving, client-major.  The layer
        generator itself is advanced past every job's draws so the next
        (sequential or fused) training run continues identically.
        """
        if not draws_dropout_masks(model):
            return {}
        sample_shapes = self._probe_dropout_sample_shapes(model, jobs[0])
        streams: dict[int, list[np.random.Generator]] = {}
        for layer_index, sample_shape in sample_shapes.items():
            layer = model.net.layers[layer_index]
            per_sample = int(np.prod(sample_shape, dtype=np.int64)) if sample_shape else 1
            offset = 0
            forked: list[np.random.Generator] = []
            for job in jobs:
                forked.append(layer.fork_stream(offset))
                offset += per_sample * sum(len(idx) for idx in job.batches)
            layer.consume_draws(offset)
            streams[layer_index] = forked
        return streams

    # ---------------------------------------------------------- supersteps
    def _train_group(
        self,
        model: "Classifier",
        jobs: list[TrainJob],
        layer_streams: dict[int, list[np.random.Generator]],
    ) -> tuple[np.ndarray, list[float]]:
        """Fused supersteps over one compatible group; returns the
        trained ``(K, P)`` stack and per-job mean losses."""
        spec = model.flat_spec
        net = model.net
        k = len(jobs)
        lr, momentum = self._job_config(jobs[0])  # uniform per signature
        mu = jobs[0].mu
        stack = np.empty((k, spec.total), dtype=np.float64)
        for row, job in zip(stack, jobs):
            row[...] = job.start_flat  # widens float32 rows like set_weights
        start_stack = None if mu is None else stack.copy()
        params = spec.unflatten_many(stack)
        grad_stack = np.zeros_like(stack)
        grads = spec.unflatten_many(grad_stack)
        velocity = np.zeros_like(stack) if momentum != 0.0 else None
        lowest_param_layer = min(
            i for i, layer in enumerate(net.layers) if layer.parameters()
        )
        losses: list[list[float]] = [[] for _ in range(k)]
        sample_shape = jobs[0].x.shape[1:]
        label_dtype = jobs[0].y.dtype
        for batch_index in range(len(jobs[0].batches)):
            batch_len = len(jobs[0].batches[batch_index])
            # Gather straight into the stacked buffers (one copy per job,
            # no intermediate per-job arrays + restack).
            xb = np.empty((k, batch_len) + sample_shape, dtype=jobs[0].x.dtype)
            yb = np.empty((k, batch_len), dtype=label_dtype)
            for row_index, job in enumerate(jobs):
                idx = job.batches[batch_index]
                np.take(job.x, idx, axis=0, out=xb[row_index])
                np.take(job.y, idx, axis=0, out=yb[row_index])
            grad_stack.fill(0.0)  # zero where consumed, like train_batch
            caches: list[dict] = [{} for _ in net.layers]
            for layer_index, streams in layer_streams.items():
                caches[layer_index]["streams"] = streams
            logits, _ = net.forward_many(xb, params, caches, batched=True)
            batch_losses, grad = softmax_cross_entropy_many(logits, yb)
            net.backward_many_train(
                grad, params, grads, caches, stop_at=lowest_param_layer
            )
            if start_stack is not None:
                # Mirrors ProximalSGD.step: grad += mu * (w - w_ref).
                grad_stack += mu * (stack - start_stack)
            # The step ``lr * direction`` lands in ``grad_stack``, which
            # the next superstep zeroes anyway: no (K, P) temporary.
            if velocity is None:
                grad_stack *= lr
            else:
                # Mirrors SGD._direction: v = momentum * v + grad.
                velocity *= momentum
                velocity += grad_stack
                np.multiply(velocity, lr, out=grad_stack)
            stack -= grad_stack
            for row_index, loss in enumerate(batch_losses.tolist()):
                losses[row_index].append(loss)
        return stack, [float(np.mean(job_losses)) for job_losses in losses]
