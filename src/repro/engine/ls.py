"""Batch-engine port of the distributed Linial–Saks protocol.

Same split as :mod:`repro.engine.en`: the phase control plane stays in
:func:`repro.baselines.distributed_ls.decompose_distributed`, whose phase
loop selects this executor with ``backend="batch"``; each phase's data plane
is one full-forwarding flood epoch
(:func:`~repro.engine.broadcast.flood_epoch`) over integer radii,
followed by the shared announce round.

LS-specific wrinkles, both carried by the flood core's summaries:

* the broadcast range of an integer radius ``r`` is ``r`` itself
  (a value may take a hop while ``distance + 1 <= r``);
* the decision is minimum-**id**, not maximum-value: a vertex joins the
  smallest origin it heard iff that origin's value arrived with
  ``distance < radius`` — i.e. its shifted value is still positive.
"""

from __future__ import annotations

from typing import Dict, Mapping

from .broadcast import BatchPhases

__all__ = ["BatchLSPhases"]


class BatchLSPhases(BatchPhases):
    """Columnar phase executor for the distributed LS protocol."""

    def run_phase(
        self, phase: int, budget: int, radii: Mapping[int, int]
    ) -> Dict[int, int]:
        """Run one phase (``budget + 2`` rounds); returns ``joiner -> center``."""
        # Integer radii are their own broadcast caps.
        flood = self._flood(radii, radii, "full", budget)
        joined: Dict[int, int] = {}
        min_origin, min_shifted = flood.min_origin, flood.min_shifted
        for v in self.topology.live_list:
            if min_shifted[v] > 0:  # winner's value arrived with distance < radius
                joined[v] = min_origin[v]
        return self._announce(joined)
