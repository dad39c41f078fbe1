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
  :func:`make_executor`); selected through the ``parallelism`` setting
  of :class:`repro.fl.config.DagConfig` (validated by
  :func:`check_parallelism`).  A coordinator asks an executor one
  question, ``runs_in_process(items)``, and its ``map`` routes by the
  same answer: always yes for the serial executor; on the pool, yes
  for a one-worker pool and otherwise the answer of a payload cost
  model against the module constants ``MIN_UNITS``, ``IPC_BUDGET`` and
  ``MIN_WORK_BYTES``.
- :mod:`repro.substrate.round_plan` — picklable work units, the shared
  :class:`RoundContext`, and the state-delta machinery that folds
  worker results back into coordinator clients.
  :func:`run_training_plane_round` is the one pipeline every unit runs:
  per-unit walk/reference preps (:func:`execute_prep_unit`) through any
  executor, then one fused local-SGD pass across all participants
  (:mod:`repro.nn.training_plane`), then per-unit finalization.  It
  runs every in-process round and every event-engine superstep, and
  :func:`execute_unit` — what a pooled round maps — is that pipeline
  over one payload.  The context records its coordinator's pid, and a
  unit ships a :class:`ClientStateDelta` only when it runs in another
  process.

See ``docs/architecture.md`` for the layer map and a walkthrough of one
round through this substrate.
"""

# ``round_plan`` imports ``repro.fl`` submodules, and ``repro.fl`` loads
# the event engine, which imports this package's submodules: loading
# ``repro.fl`` first enters that chain from the one side that resolves,
# whatever the caller imported first.
import repro.fl  # noqa: F401  (import order, see above)

from repro.substrate.cost import estimate_payload
from repro.substrate.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    available_cores,
    check_parallelism,
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
    reference_flat,
    run_training_plane_round,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "available_cores",
    "check_parallelism",
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
    "apply_result",
    "reference_flat",
    "run_training_plane_round",
]
