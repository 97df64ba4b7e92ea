"""Batch-engine port of the distributed Miller–Peng–Xu partition.

MPX is a single flood epoch (:func:`~repro.engine.broadcast.flood_epoch`)
over the whole graph: every vertex injects ``δ_v ~ Exp(β)``, shifted values
flood for ``B = max ⌊δ_v⌋`` rounds, and each vertex is assigned to the
origin of the largest shifted value it heard (smallest id on ties) —
exactly the flood core's streaming ``best`` summary.  The driver
(:func:`repro.baselines.distributed_mpx.partition_distributed`) selects
this path with ``backend="batch"`` and reassembles the result object, so
both backends return bit-identical partitions and
:class:`~repro.distributed.metrics.NetworkStats`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Mapping, Tuple

from ..distributed.metrics import NetworkStats
from ..graphs.graph import Graph
from .broadcast import LiveTopology, flood_epoch
from .core import BatchEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.causality import CausalLog
    from ..telemetry.rounds import RoundStream

__all__ = ["run_mpx_batch"]


def run_mpx_batch(
    graph: Graph,
    shifts: Mapping[int, float],
    budget: int,
    mode: str,
    word_budget: int | None = None,
    rounds: "RoundStream | None" = None,
    causal: "CausalLog | None" = None,
) -> Tuple[Dict[int, int], NetworkStats]:
    """One-shot MPX competition; returns ``(center_of, stats)``.

    ``shifts`` and ``budget`` come from the driver (drawn from the same
    ``(seed, "mpx-shift", vertex)`` streams the reference nodes use).
    Runs ``budget + 1`` rounds: ``budget`` broadcast rounds plus the
    decision round in which every vertex halts.
    """
    engine = BatchEngine(graph, word_budget, rounds=rounds, causal=causal)
    topology = LiveTopology(graph)
    caps = {v: math.floor(s) for v, s in shifts.items()}
    flood = flood_epoch()(
        engine,
        topology,
        shifts,
        caps,
        "full" if mode == "full" else 1,
    )
    flood.run(budget)
    center_of = dict(enumerate(flood.best_origin))
    engine.halt(range(graph.num_vertices))
    engine.finish_rounds()
    return center_of, engine.stats
