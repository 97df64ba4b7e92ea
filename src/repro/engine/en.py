"""Batch-engine port of the distributed Elkin–Neiman protocol.

:class:`BatchENPhases` executes the per-phase data plane of
:mod:`repro.core.distributed_en` columnarly: one flood epoch per phase
(``B_t`` broadcast rounds + the decision merge round; see
:func:`~repro.engine.broadcast.flood_epoch`), then the shared announce
round.  The phase *control* plane — schedule, radii, budgets,
truncation bookkeeping — stays in :func:`repro.core.distributed_en.decompose_distributed`,
whose phase loop (:meth:`repro.distributed.phases.DriverRun.run_phases`) drives
either this class or the reference node algorithms through the same
``run_phase`` call, selected by its ``backend=`` parameter.

Equivalence contract (``tests/engine/test_en_equivalence.py``): for any
fixed ``(graph, seed, mode, schedule)`` both backends produce the same
decomposition, the same ``rounds_per_phase`` and bit-identical
:class:`~repro.distributed.metrics.NetworkStats` — including the peak
words-per-edge-per-round CONGEST figure and the exact round of a
``word_budget`` violation.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Mapping

from ..graphs.graph import Graph
from .broadcast import BatchPhases

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.causality import CausalLog
    from ..telemetry.rounds import RoundStream

__all__ = ["BatchENPhases"]


class BatchENPhases(BatchPhases):
    """Columnar phase executor for the distributed EN protocol."""

    def __init__(
        self,
        graph: Graph,
        mode: str,
        word_budget: int | None = None,
        rounds: "RoundStream | None" = None,
        causal: "CausalLog | None" = None,
    ) -> None:
        super().__init__(graph, word_budget, rounds, causal)
        self._policy = "full" if mode == "full" else 2

    def run_phase(
        self, phase: int, budget: int, radii: Mapping[int, float]
    ) -> Dict[int, int]:
        """Run one phase (``budget + 2`` rounds); returns ``joiner -> center``.

        ``radii`` are the driver's per-vertex draws for this phase — the
        same ``Exp(beta)`` values the reference nodes derive from the
        shared streams.
        """
        caps = {v: math.floor(r) for v, r in radii.items()}
        flood = self._flood(radii, caps, self._policy, budget)
        joined: Dict[int, int] = {}
        best_value, second_value = flood.best_value, flood.second_value
        best_origin, num_entries = flood.best_origin, flood.num_entries
        for v in self.topology.live_list:
            second = second_value[v] if num_entries[v] > 1 else 0.0
            if best_value[v] - second > 1.0:
                joined[v] = best_origin[v]
        return self._announce(joined)
