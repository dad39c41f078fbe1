"""Configuration of the discrete-event simulator (:mod:`repro.sim`).

Everything here is declarative and deterministic: distributions are
named specs sampled from explicitly keyed generators inside the engine,
churn is a schedule of events, and staleness handling is a pure weight
policy.  A :class:`SimConfig` therefore pins a scenario completely — two
engines built from the same ``(seed, SimConfig, DagConfig)`` produce the
same event trace, transaction for transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.faults import FaultModel
from repro.utils.validation import check_positive

__all__ = [
    "LatencyModel",
    "StalenessPolicy",
    "ChurnEvent",
    "SimConfig",
    "random_churn",
]

_LATENCY_KINDS = ("exponential", "lognormal", "uniform", "constant")
_STALENESS_MODES = ("none", "constant", "polynomial", "hinge")


@dataclass(frozen=True)
class LatencyModel:
    """Distribution spec for a nonnegative duration.

    - ``"exponential"`` — mean ``mean`` (one draw; a zero mean draws
      nothing and yields 0.0, so a zero propagation delay skips its
      draw — the parity digests pin this);
    - ``"lognormal"`` — ``mean * lognormal(0, sigma)`` (the default
      training-time law; the median is ``mean``);
    - ``"uniform"`` — uniform on ``[0, 2 * mean]``;
    - ``"constant"`` — exactly ``mean``, **no draw consumed** (the
      degenerate/uniform-schedule building block: a constant model
      never shifts any stream).
    """

    kind: str = "exponential"
    mean: float = 1.0
    sigma: float = 0.3

    def __post_init__(self) -> None:
        if self.kind not in _LATENCY_KINDS:
            raise ValueError(
                f"unknown latency kind {self.kind!r}; expected one of "
                f"{_LATENCY_KINDS}"
            )
        check_positive("latency mean", self.mean, strict=False)
        check_positive("latency sigma", self.sigma, strict=False)

    def sample(self, rng: np.random.Generator) -> float:
        """One duration; consumes the generator only when stochastic."""
        if self.kind == "constant" or self.mean == 0.0:
            return float(self.mean)
        if self.kind == "exponential":
            return float(rng.exponential(self.mean))
        if self.kind == "lognormal":
            return float(self.mean * rng.lognormal(0.0, self.sigma))
        return float(rng.uniform(0.0, 2.0 * self.mean))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` durations in one block; the deterministic cases
        (constant kind, zero mean) consume the generator not at all,
        matching :meth:`sample`'s skip-draw contract."""
        if self.kind == "constant" or self.mean == 0.0:
            return np.full(size, float(self.mean))
        if self.kind == "exponential":
            return rng.exponential(self.mean, size)
        if self.kind == "lognormal":
            return self.mean * rng.lognormal(0.0, self.sigma, size)
        return rng.uniform(0.0, 2.0 * self.mean, size)


@dataclass(frozen=True)
class StalenessPolicy:
    """Staleness-aware reference aggregation (the fedasync idiom).

    A training cycle's reference model averages the selected parent
    (tip) models; under asynchrony those parents were published at
    different times, and an old parent should count for less.  The
    policy maps each parent's staleness ``s = now - published_at`` to a
    weight, normalized over the parents:

    - ``"none"`` — disabled: the configured ``DagConfig.aggregator``
      runs unchanged (the degenerate/parity setting);
    - ``"constant"`` — uniform weights (staleness measured, ignored);
    - ``"polynomial"`` — ``(1 + s) ** -alpha``;
    - ``"hinge"`` — weight 1 up to ``beta``, then ``1 / (alpha * (s -
      beta) + 1)``.

    Weights are always positive and normalized to sum to one, so the
    weighted mean is a convex combination of the parents (the property
    suite pins this).
    """

    mode: str = "none"
    alpha: float = 0.5
    beta: float = 4.0

    def __post_init__(self) -> None:
        if self.mode not in _STALENESS_MODES:
            raise ValueError(
                f"unknown staleness mode {self.mode!r}; expected one of "
                f"{_STALENESS_MODES}"
            )
        check_positive("staleness alpha", self.alpha, strict=False)
        check_positive("staleness beta", self.beta, strict=False)

    def weights(self, staleness: np.ndarray) -> np.ndarray:
        """Normalized parent weights for a staleness vector (>= 0)."""
        s = np.maximum(np.asarray(staleness, dtype=np.float64), 0.0)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("staleness must be a non-empty 1-D array")
        if self.mode in ("none", "constant"):
            raw = np.ones_like(s)
        elif self.mode == "polynomial":
            raw = (1.0 + s) ** (-self.alpha)
        else:  # hinge: flat inside the grace period, hyperbolic after
            raw = 1.0 / (self.alpha * np.maximum(s - self.beta, 0.0) + 1.0)
        return raw / raw.sum()


@dataclass(frozen=True)
class ChurnEvent:
    """A scheduled membership change: a client joins or leaves at ``time``.

    At equal timestamps the engine processes joins before leaves before
    training-cycle completions, so a client leaving at exactly a cycle's
    finish time never publishes that cycle.
    """

    time: float
    action: str
    client_id: int

    def __post_init__(self) -> None:
        if self.action not in ("join", "leave"):
            raise ValueError(f"unknown churn action {self.action!r}")
        check_positive("churn time", self.time, strict=False)


@dataclass(frozen=True)
class SimConfig:
    """Scenario parameters of the event-driven simulator.

    - ``think`` / ``train`` / ``propagation`` — the per-cycle idle,
      training-duration, and per-transaction network-delay laws.  The
      defaults are the paper's asynchronous deployment model
      (:meth:`async_compat` with its default means).
    - ``quantum`` — the scheduling quantum.  Every cycle runs as a
      superstep; ``0`` closes each one at its first cycle (pure
      discrete-event semantics); ``q > 0`` collects every training cycle
      completing within ``q`` of the next one into **one fused
      superstep** (shared walk snapshots, one lockstep-training pass),
      with intra-batch publications deferred to the batch barrier — the
      same freeze semantics round mode applies at round boundaries.
    - ``rate_spread`` — lognormal sigma of per-client compute rates
      (0 = homogeneous); ``straggler_fraction`` / ``straggler_slowdown``
      additionally slow a deterministic subset of clients by a factor.
      Both draw from a dedicated ``"rates"`` stream so enabling them
      never shifts the event-time stream.
    - ``churn`` — a schedule of :class:`ChurnEvent`; ``initially_active``
      restricts the starting membership (``None`` = everyone).
    - ``staleness`` — the reference-aggregation :class:`StalenessPolicy`.
    - ``faults`` — the :class:`~repro.sim.faults.FaultModel` fault
      schedule (drops, duplicates, jitter, partitions, crashes, payload
      corruption).  The default injects nothing and leaves the engine on
      the exact clean code path; every stochastic fault draws from a
      dedicated ``"faults"`` stream, so the schedule replays per seed
      and inert knobs never shift the clean streams.
    - ``attackers`` — client ids running the ``"random_weights"`` attack
      (random parents, random payload tagged malicious) instead of
      honest training, in every regime: cycles under churn/stragglers
      and :meth:`~repro.sim.engine.EventDrivenTangleLearning.run_rounds`
      (the round substrate's attack path; what
      ``TangleLearning(attackers=...)`` maps onto).  Label-flip
      attackers need no hook — they are data-level
      (:func:`repro.poisoning.poison_dataset_label_flip`).
    """

    think: LatencyModel = LatencyModel("exponential", 1.0)
    train: LatencyModel = LatencyModel("lognormal", 1.0, 0.3)
    propagation: LatencyModel = LatencyModel("exponential", 0.1)
    quantum: float = 0.0
    rate_spread: float = 0.0
    straggler_fraction: float = 0.0
    straggler_slowdown: float = 4.0
    churn: tuple[ChurnEvent, ...] = ()
    initially_active: frozenset[int] | None = None
    staleness: StalenessPolicy = field(default_factory=StalenessPolicy)
    faults: FaultModel = field(default_factory=FaultModel)
    attackers: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        check_positive("quantum", self.quantum, strict=False)
        if self.think.mean <= 0 and self.train.mean <= 0:
            raise ValueError(
                "think and train latencies cannot both be zero-mean "
                "(cycles would complete instantly forever)"
            )
        check_positive("rate_spread", self.rate_spread, strict=False)
        if not 0.0 <= self.straggler_fraction <= 1.0:
            raise ValueError("straggler_fraction must be in [0, 1]")
        if not self.straggler_slowdown >= 1.0:
            raise ValueError(
                f"straggler_slowdown must be >= 1, got {self.straggler_slowdown!r}"
            )
        # Normalize churn to a tuple of ChurnEvents (accepts any iterable).
        object.__setattr__(self, "churn", tuple(self.churn))
        if self.initially_active is not None:
            object.__setattr__(
                self, "initially_active", frozenset(self.initially_active)
            )
        object.__setattr__(self, "attackers", frozenset(self.attackers))

    @classmethod
    def async_compat(
        cls,
        *,
        mean_think_time: float = 1.0,
        mean_train_time: float = 1.0,
        train_time_sigma: float = 0.3,
        mean_propagation_delay: float = 0.1,
    ) -> "SimConfig":
        """The paper's asynchronous deployment model: every client
        alternates exponential think time and lognormal training
        cycles, and publications reach other clients after an
        exponential propagation delay.  The parity suite's anchor: its
        traces are pinned to digests recorded from the retired
        standalone asynchronous simulator."""
        if min(mean_think_time, mean_train_time) <= 0:
            raise ValueError("think and train times must be positive")
        return cls(
            think=LatencyModel("exponential", mean_think_time),
            train=LatencyModel("lognormal", mean_train_time, train_time_sigma),
            propagation=LatencyModel("exponential", mean_propagation_delay),
        )


def random_churn(
    client_ids,
    *,
    mean_uptime: float,
    mean_downtime: float,
    horizon: float,
    rng: np.random.Generator,
) -> tuple[ChurnEvent, ...]:
    """A Poisson leave/rejoin schedule over ``[0, horizon]``.

    Each client independently alternates exponential uptime and downtime
    periods; the schedule is materialized up front (sorted by time) so
    the engine's event trace stays a pure function of ``(seed, config)``.
    """
    if min(mean_uptime, mean_downtime) <= 0:
        raise ValueError("mean uptime/downtime must be positive")
    events: list[ChurnEvent] = []
    for client_id in sorted(client_ids):
        t = float(rng.exponential(mean_uptime))
        while t < horizon:
            events.append(ChurnEvent(t, "leave", client_id))
            t += float(rng.exponential(mean_downtime))
            if t >= horizon:
                break
            events.append(ChurnEvent(t, "join", client_id))
            t += float(rng.exponential(mean_uptime))
    events.sort(key=lambda e: (e.time, e.action, e.client_id))
    return tuple(events)
