"""repro.substrate — the round-execution layer.

The federated simulators (:mod:`repro.fl`) describe *what* happens in a
round; this package decides *how* that work runs.  The split follows the
middleware tradition of separating the coordination substrate from
application logic: simulators build a round plan of independent
per-client work units over a frozen tangle view, and an executor
evaluates them — serially or across a process pool — with bit-identical
results for a fixed seed.

- :mod:`repro.substrate.executor` — :class:`Executor` strategies
  (:class:`SerialExecutor`, :class:`ParallelExecutor`,
  :class:`AutoExecutor`, :func:`make_executor`); selected through the
  ``parallelism`` knob of :class:`repro.fl.config.DagConfig` (``"auto"``
  routes per round: serial on single-core machines or tiny round plans,
  a machine-sized pool otherwise).
- :mod:`repro.substrate.round_plan` — picklable work units, the shared
  :class:`RoundContext`, :func:`execute_unit`, and the state-delta
  machinery that folds worker results back into coordinator clients.
  :func:`run_training_plane_round` runs every in-process round and
  every event-engine superstep: per-unit walk/reference preps
  (:func:`execute_prep_unit`) through any executor, then one fused
  local-SGD pass across all participants
  (:mod:`repro.nn.training_plane`), then per-unit finalization;
  :func:`execute_unit` is the same three phases for one client, so the
  two are bit-identical.

See ``docs/architecture.md`` for the layer map and a walkthrough of one
round through this substrate.
"""

from repro.substrate.cost import estimate_payload
from repro.substrate.executor import (
    AutoExecutor,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    available_cores,
    make_executor,
)
from repro.substrate.round_plan import (
    ClientPrepResult,
    ClientRoundResult,
    ClientStateDelta,
    ClientWorkUnit,
    RoundContext,
    apply_result,
    build_selector,
    execute_prep_unit,
    execute_round,
    execute_unit,
    probe_in_process,
    reference_flat,
    run_training_plane_round,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "AutoExecutor",
    "available_cores",
    "estimate_payload",
    "make_executor",
    "ClientWorkUnit",
    "ClientStateDelta",
    "ClientPrepResult",
    "ClientRoundResult",
    "RoundContext",
    "build_selector",
    "execute_unit",
    "execute_prep_unit",
    "execute_round",
    "probe_in_process",
    "apply_result",
    "reference_flat",
    "run_training_plane_round",
]
