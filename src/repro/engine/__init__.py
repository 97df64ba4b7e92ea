"""Columnar batch round-engine for million-node protocol simulation.

The reference simulator (:mod:`repro.distributed`) executes one Python
object per node and one object per message — the right shape for
developing and validating protocols, and the wrong shape for running
them at :math:`n \\approx 10^6`.  This package is the scale path: the
same synchronous-round semantics (§1.1 of the paper), executed over flat
per-vertex arrays and the CSR buffers of
:class:`~repro.graphs.graph.Graph`:

* :mod:`~repro.engine.primitives` — the ``gather_sum`` neighbour
  reduction behind ``live_degrees``; numpy-accelerated with a
  bit-identical pure-Python fallback (``REPRO_KERNEL=py``);
* :mod:`~repro.engine.core` — :class:`BatchEngine`: rounds, halt mask,
  :class:`~repro.distributed.metrics.NetworkStats` accounting, CONGEST
  ``word_budget`` enforcement, round streams and causal logs;
* :mod:`~repro.engine.broadcast` — the shifted-value flood epoch shared
  by the decomposition protocols;
* :mod:`~repro.engine.en` / :mod:`~repro.engine.ls` /
  :mod:`~repro.engine.mpx` — executors behind the ``backend="batch"``
  parameter of the distributed EN / LS / MPX drivers.

Everything here is pinned bit-identical to the reference simulator by
the equivalence suite in ``tests/engine`` — outputs, round counts,
message totals, violation rounds and causal logs alike.
"""

from ._backend import backend_name, numpy_enabled
from .broadcast import LiveTopology, ShiftedFlood, announce_round
from .core import BatchEngine
from .primitives import gather_sum, live_degrees

__all__ = [
    "BatchEngine",
    "LiveTopology",
    "ShiftedFlood",
    "announce_round",
    "backend_name",
    "gather_sum",
    "live_degrees",
    "numpy_enabled",
]
