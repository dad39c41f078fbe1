"""repro.sim — the event-driven tangle simulator.

One discrete-event engine (:class:`EventDrivenTangleLearning`) is the
repo's only implementation of a training cycle and of a round:

- at ``quantum = 0`` it runs the paper's asynchronous deployment model
  one cycle at a time (:meth:`SimConfig.async_compat`), each cycle a
  superstep of one through the same pipeline batches use;
- at ``quantum > 0`` cycles completing close together run as fused
  supersteps (shared walk snapshots, one lockstep-training pass), the
  shape that makes 1000-client scenarios a sequence of wide batches;
- :meth:`EventDrivenTangleLearning.run_rounds` runs the paper's
  discrete comparison schedule through the round substrate —
  :class:`repro.fl.TangleLearning` is a thin constructor over it.

On top of the schedule the engine adds what a deployment study needs
and rounds cannot express: per-client latency laws and compute rates
(:class:`LatencyModel`, stragglers), mid-run membership churn
(:class:`ChurnEvent`, :func:`random_churn`), and staleness-aware
reference aggregation (:class:`StalenessPolicy`).  See ``docs/sim.md``
for the event lifecycle.
"""

# ``repro.fl.dag_learning`` subclasses the engine and the engine imports
# ``repro.fl`` submodules: loading ``repro.fl`` first enters that chain
# from the one side that resolves, whatever the caller imported first.
import repro.fl  # noqa: F401  (import order, see above)

from repro.sim.config import (
    ChurnEvent,
    LatencyModel,
    SimConfig,
    StalenessPolicy,
    random_churn,
)
from repro.sim.engine import EventDrivenTangleLearning, SimEvent
from repro.sim.faults import FaultModel, Partition, apply_corruption

__all__ = [
    "ChurnEvent",
    "EventDrivenTangleLearning",
    "FaultModel",
    "LatencyModel",
    "Partition",
    "SimConfig",
    "SimEvent",
    "StalenessPolicy",
    "apply_corruption",
    "random_churn",
]
