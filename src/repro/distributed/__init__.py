"""Distributed runtime substrate: a synchronous LOCAL/CONGEST simulator.

The paper's model (§1.1): each vertex hosts a processor, processors
communicate over the graph's edges in synchronous rounds, and running time
is the number of rounds.  This package provides that model in executable
form:

* :class:`~repro.distributed.node.NodeAlgorithm` /
  :class:`~repro.distributed.node.Context` — the node-side programming API;
* :class:`~repro.distributed.network.SyncNetwork` — the deterministic round
  engine with message delivery, halting, and bandwidth accounting;
* :class:`~repro.distributed.metrics.NetworkStats` — rounds / messages /
  words-per-edge-per-round measurements, kept by the
  :class:`~repro.distributed.metrics.RoundBooks` every engine (sync,
  async and the columnar batch engine) extends;
* :func:`~repro.distributed.message.payload_words` — the O(1)-words
  CONGEST cost model;
* :class:`~repro.distributed.async_net.AsyncNetwork` + the α-synchronizer
  (:mod:`~repro.distributed.synchronizer`) — the same node contract and
  the same core as ``SyncNetwork``, under asynchronous delivery
  (:mod:`~repro.distributed.schedule`) and seeded fault injection
  (:mod:`~repro.distributed.faults`); see ``docs/async.md``;
* :mod:`~repro.distributed.phases` — the driver harness of the EN/LS/MPX
  protocols: backend validation, engine construction, telemetry wiring,
  the shared phase loop and the node-side phase state machine.
"""

from .async_net import AsyncNetwork, AsyncStats, live_networks
from .faults import CrashWindow, FaultPlan
from .message import Message, payload_words
from .metrics import NetworkStats
from .network import SyncNetwork
from .node import Context, NodeAlgorithm
from .schedule import Schedule, parse_schedule
from .synchronizer import AlphaSynchronizer

__all__ = [
    "AlphaSynchronizer",
    "AsyncNetwork",
    "AsyncStats",
    "Context",
    "CrashWindow",
    "FaultPlan",
    "Message",
    "NetworkStats",
    "NodeAlgorithm",
    "Schedule",
    "SyncNetwork",
    "live_networks",
    "parse_schedule",
    "payload_words",
]
