"""Random walks over the tangle.

A walk starts at a transaction sampled some depth behind the tips (the
paper follows Popov and samples at depth 15-25) and repeatedly moves to
one of the current transaction's approvers until it reaches a tip.  The
transition rule is supplied by the tip selector.

No configuration selects this walker: it is the reference the lockstep
engine (:mod:`repro.dag.walk_engine`) is tested against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.dag.tangle import Tangle
from repro.dag.transaction import GENESIS_ID

__all__ = ["sample_walk_start", "random_walk", "sequential_select_tips"]

Transition = Callable[[str, list[str], np.random.Generator], str]


def sample_walk_start(
    tangle: Tangle,
    rng: np.random.Generator,
    *,
    depth_range: tuple[int, int] = (15, 25),
) -> str:
    """Sample a walk starting point at the configured depth behind a tip.

    From a uniformly chosen tip, follow approval edges (towards the past)
    for ``d ~ U[depth_range]`` steps, choosing uniformly among parents;
    stops early at genesis.  Mirrors the paper's scalability setup
    ("started the random walk at a transaction sampled at a depth of 15-25
    transactions from the tips, as proposed by Popov").
    """
    low, high = depth_range
    if low < 0 or high < low:
        raise ValueError(f"invalid depth range {depth_range}")
    tips = tangle.tips()
    current = tips[int(rng.integers(0, len(tips)))]
    depth = int(rng.integers(low, high + 1))
    for _ in range(depth):
        # Only descend visible edges: on a delay-bounded view a
        # transaction can be visible before one of its parents (the
        # issuer exemption makes this reachable in the async
        # simulator), and stepping to an invisible parent would blow up
        # on the next get().  On a raw tangle every parent passes.
        parents = [p for p in tangle.get(current).parents if p in tangle]
        if not parents:  # reached genesis (or only invisible parents)
            break
        current = parents[int(rng.integers(0, len(parents)))]
    return current


def random_walk(
    tangle: Tangle,
    start: str,
    transition: Transition,
    rng: np.random.Generator,
    *,
    step_callback: Callable[[str, list[str]], None] | None = None,
) -> str:
    """Walk from ``start`` to a tip using ``transition`` at each step.

    ``step_callback`` (if given) observes every decision point — used by
    the scalability experiment to count model evaluations.
    """
    current = start if start in tangle else GENESIS_ID
    while True:
        approvers = tangle.approvers(current)
        if not approvers:
            return current
        if step_callback is not None:
            step_callback(current, approvers)
        current = transition(current, approvers, rng)


def sequential_select_tips(
    selector, tangle: Tangle, count: int, rng: np.random.Generator
) -> list[str]:
    """``selector.select_tips(tangle, count, rng)`` as the sequential
    reference computes it: one walk per tip from a ``depth_range``
    start, ``selector.transition`` at every step."""

    def step(_node: str, approvers: list[str], step_rng: np.random.Generator) -> str:
        return selector.transition(tangle, approvers, step_rng)

    return [
        random_walk(
            tangle,
            sample_walk_start(tangle, rng, depth_range=selector.depth_range),
            step,
            rng,
        )
        for _ in range(count)
    ]
