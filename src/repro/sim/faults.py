"""The fault-injection plane of the event-driven simulator.

:class:`FaultModel` declares the systems-level failures a scenario
injects under :class:`~repro.sim.engine.EventDrivenTangleLearning` — the
messy network the Middleware setting assumes and a round schedule
cannot express:

- **per-link message faults** — every publication is delivered per
  receiving client, and each link independently drops the copy
  (``drop_rate``), duplicates it (``duplicate_rate``; the effective
  arrival is the *earliest surviving* copy, so duplication is also
  redundancy against drops), or delays it by an extra exponential
  ``jitter`` (which reorders deliveries across receivers);
- **transient partitions** — scheduled :class:`Partition` windows
  during which messages crossing group boundaries are held until the
  partition heals (visible no earlier than the window's end);
- **client crashes** — each scheduled training cycle crashes mid-way
  with probability ``crash_rate``.  Unlike a graceful churn ``leave``
  (which merely stops scheduling new work), a crash *loses in-flight
  state*: the running cycle is aborted unpublished and the client's
  evaluation cache is wiped, then the client rejoins after an
  exponential ``recovery`` delay;
- **payload corruption** — each publication is corrupted in flight with
  probability ``corruption_rate``: ``"nan"`` / ``"inf"`` poison a
  random tenth of the weights with non-finite values (caught by the
  publish-path quarantine), ``"noise"`` replaces the whole vector with
  large finite garbage (admitted, and left to the walk's accuracy bias
  and the robust aggregators — the paper's implicit defense).

**Determinism contract.**  Every stochastic fault decision draws from
the engine's dedicated ``"faults"`` RNG stream, in a fixed order tied
to the event schedule (per-cycle draws at scheduling time, per-link
blocks at publication commit time), so a fault schedule is a pure
function of ``(seed, SimConfig)`` and replays identically.  Knobs at
their inert defaults draw **nothing** — a ``FaultModel()`` (or any
config with every rate at zero and no partitions) leaves the engine on
the exact clean code path, bit-for-bit.  ``always_on`` forces the
per-link delivery machinery active with zero fault rates: the trace
stays identical to the clean run while the bookkeeping overhead becomes
measurable (the ``BENCH_robustness.json`` overhead floor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive, check_probability

__all__ = ["FaultModel", "Partition", "apply_corruption"]

_CORRUPTION_MODES = ("nan", "inf", "noise")


def apply_corruption(
    flat: np.ndarray, mode: str, rng: np.random.Generator
) -> np.ndarray:
    """One in-flight payload corruption of ``flat``, drawn from ``rng``.

    The shared kernel behind every corruption injection site — the event
    engine's publish path and the service gateway's chaos adapter — so
    the modes mean the same thing everywhere:

    - ``"noise"`` replaces the whole vector with large finite garbage
      (one ``rng.normal`` block): admitted by the publish quarantine and
      left to the walk's accuracy bias and the robust aggregators;
    - ``"nan"`` / ``"inf"`` poison a random tenth of the coordinates
      with non-finite values (one ``rng.integers`` block): caught at the
      publish gate, never reaching the weight arena.

    Always returns a fresh array; the input is never mutated.  Draw
    order is part of the fault plane's determinism contract — exactly
    one block per call, so schedules replay bit-for-bit per seed.
    """
    if mode not in _CORRUPTION_MODES:
        raise ValueError(
            f"unknown corruption mode {mode!r}; expected one of {_CORRUPTION_MODES}"
        )
    if mode == "noise":
        return rng.normal(0.0, 100.0, flat.shape[0])
    flat = np.array(flat, dtype=np.float64, copy=True)
    count = max(1, flat.shape[0] // 10)
    idx = rng.integers(0, flat.shape[0], size=count)
    flat[idx] = np.nan if mode == "nan" else np.inf
    return flat


@dataclass(frozen=True)
class Partition:
    """A transient network partition over ``[start, end)``.

    ``groups`` are disjoint sets of client ids; while the partition is
    live, a message published by a member of one group reaches members
    of *other* groups no earlier than ``end`` (held until the partition
    heals).  Clients not listed in any group — and messages published
    outside the window — are unaffected.
    """

    start: float
    end: float
    groups: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(
                f"partition window must have start < end, got "
                f"[{self.start}, {self.end})"
            )
        groups = tuple(frozenset(g) for g in self.groups)
        if len(groups) < 2:
            raise ValueError("a partition needs at least two groups")
        seen: set[int] = set()
        for group in groups:
            if seen & group:
                raise ValueError(f"partition groups overlap: {sorted(seen & group)}")
            seen |= group
        object.__setattr__(self, "groups", groups)

    def group_of(self, client_id: int) -> int | None:
        """The index of ``client_id``'s group, or ``None`` if unlisted."""
        for index, group in enumerate(self.groups):
            if client_id in group:
                return index
        return None


@dataclass(frozen=True)
class FaultModel:
    """Declarative fault schedule parameters (see module docstring).

    All rates are probabilities; ``jitter`` and ``recovery`` are means
    of exponential delays (zero = disabled / instant, drawing nothing).
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    jitter: float = 0.0
    partitions: tuple[Partition, ...] = ()
    crash_rate: float = 0.0
    recovery: float = 1.0
    corruption_rate: float = 0.0
    corruption_mode: str = "nan"
    always_on: bool = False

    def __post_init__(self) -> None:
        check_probability("drop_rate", self.drop_rate)
        check_probability("duplicate_rate", self.duplicate_rate)
        check_probability("crash_rate", self.crash_rate)
        check_probability("corruption_rate", self.corruption_rate)
        check_positive("jitter", self.jitter, strict=False)
        check_positive("recovery", self.recovery, strict=False)
        if self.corruption_mode not in _CORRUPTION_MODES:
            raise ValueError(
                f"unknown corruption mode {self.corruption_mode!r}; "
                f"expected one of {_CORRUPTION_MODES}"
            )
        object.__setattr__(self, "partitions", tuple(self.partitions))

    @property
    def link_faults(self) -> bool:
        """Per-link delivery machinery needed (per-observer visibility)."""
        return (
            self.drop_rate > 0
            or self.duplicate_rate > 0
            or self.jitter > 0
            or bool(self.partitions)
            or self.always_on
        )

    @property
    def enabled(self) -> bool:
        """Any fault mechanism active (``False`` = the clean code path)."""
        return self.link_faults or self.crash_rate > 0 or self.corruption_rate > 0
