"""Columnar batch round-engine for million-node protocol simulation.

The reference simulator (:mod:`repro.distributed`) executes one Python
object per node and one object per message — the right shape for
developing and validating protocols, and the wrong shape for running
them at :math:`n \\approx 10^6`.  This package is the scale path: the
same synchronous-round semantics (§1.1 of the paper), executed over flat
per-vertex arrays and the CSR buffers of
:class:`~repro.graphs.graph.Graph`:

* :mod:`~repro.engine.core` — :class:`BatchEngine`: a halt mask over the
  :class:`~repro.distributed.metrics.RoundBooks` the reference engines
  keep too (rounds, :class:`~repro.distributed.metrics.NetworkStats`,
  CONGEST ``word_budget`` enforcement, round streams and causal halts);
* :mod:`~repro.engine.broadcast` — the shifted-value flood epoch shared
  by the decomposition protocols: :class:`ShiftedFlood`, the stdlib
  per-message loop, and the live-set and announce-round plumbing around
  it;
* :mod:`~repro.engine.numpy_flood` — :class:`NumpyFlood`, the same epoch
  with one vectorised merge per round.  ``flood_epoch()`` picks it
  whenever the numpy kernel is enabled (no size threshold, no fallback
  under telemetry) and :class:`ShiftedFlood` under ``REPRO_KERNEL=py``.
  The engine has no numpy switch of its own: it reads the one in
  :mod:`repro.graphs._kernel`;
* :mod:`~repro.engine.en` / :mod:`~repro.engine.ls` /
  :mod:`~repro.engine.mpx` — executors behind the ``backend="batch"``
  parameter of the distributed EN / LS / MPX drivers.

Everything here is pinned bit-identical to the reference simulator by
the equivalence suite in ``tests/engine`` — outputs, round counts,
message totals, violation rounds and causal logs alike, on both flood
epochs (``tests/engine/test_cross_kernel.py`` compares them directly).
"""

from .broadcast import LiveTopology, ShiftedFlood, announce_round, flood_epoch
from .core import BatchEngine
from .numpy_flood import NumpyFlood

__all__ = [
    "BatchEngine",
    "LiveTopology",
    "NumpyFlood",
    "ShiftedFlood",
    "announce_round",
    "flood_epoch",
]
