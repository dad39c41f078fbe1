"""Compatibility re-export of :class:`repro.dag.view.TimedTangleView`.

The asynchronous simulator that lived here is gone — the event engine
(:class:`repro.sim.EventDrivenTangleLearning`) is the only cycle
implementation — and the view moved down beside ``TangleView``.  This
module survives **only because** the frozen end-to-end benchmark
(``benchmarks/e2e/layers.py``) imports the view from this path; a later
benchmark PR that switches that import to ``repro.dag.view`` can delete
the file.
"""

from repro.dag.view import TimedTangleView

__all__ = ["TimedTangleView"]
