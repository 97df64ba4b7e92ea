"""The batch-synchronous round engine core.

:class:`BatchEngine` is the columnar counterpart of
:class:`~repro.distributed.network.SyncNetwork`.  Both extend the same
:class:`~repro.distributed.metrics.RoundBooks` — round counter,
:class:`~repro.distributed.metrics.NetworkStats`, CONGEST budget
enforcement, causal halt records and round-stream rows — so the §1.1
accounting exists once.  What the batch engine adds is the halt mask; it
never materialises per-message objects.  Protocols report each round's
traffic in aggregate (message count, word count, the peak
per-directed-edge word load and the offending edge) through
:meth:`~repro.distributed.metrics.RoundBooks.account_sends`, which is
all the simulator-level bookkeeping ever consumed.

Equivalence contract (pinned by ``tests/engine``): for every ported
protocol, the engine's stats, round counts, round streams and causal
logs are bit-identical to a :class:`SyncNetwork` run of the reference
node algorithms.  In particular a ``word_budget`` violation raises
:class:`~repro.errors.CongestViolation` in the *exact* round (and with
the exact offending edge) the reference engine would report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..distributed.metrics import RoundBooks
from ..graphs.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.causality import CausalLog
    from ..telemetry.rounds import RoundStream

__all__ = ["BROADCAST_WORDS", "BatchEngine", "first_live_edge"]

#: CONGEST cost of one ``(tag, origin, value, distance)`` broadcast record
#: — the payload shape shared by the EN, LS and MPX protocols.
BROADCAST_WORDS = 4


def first_live_edge(graph: Graph, live, sender: int) -> tuple[int, int] | None:
    """``(sender, w)`` for the smallest live neighbour ``w`` — the edge the
    reference engine names first in a CongestViolation for this sender."""
    indptr, indices = graph.csr()
    for position in range(indptr[sender], indptr[sender + 1]):
        if live[indices[position]]:
            return (sender, indices[position])
    return None  # pragma: no cover - peak senders always have live fan-out


class BatchEngine(RoundBooks):
    """Round books plus a halt mask, for columnar protocol simulations.

    Parameters are :class:`~repro.distributed.metrics.RoundBooks`'s.
    Round-stream rows are emitted lazily, at the next
    :meth:`~repro.distributed.metrics.RoundBooks.begin_round`, so callers
    must finish with ``finish_rounds()`` to emit the last one.  With a
    causal log attached, protocols derive per-message parent edges from
    their broadcast columns (the flood epoch scans each sender's live CSR
    row) and :meth:`halt` writes the halt records — row-identical to the
    reference engine's causal log on seeded runs.
    """

    def __init__(
        self,
        graph: Graph,
        word_budget: int | None = None,
        rounds: "RoundStream | None" = None,
        causal: "CausalLog | None" = None,
    ) -> None:
        super().__init__(graph, word_budget, rounds, causal)
        self.halted = bytearray(graph.num_vertices)

    def halt(self, vertices: Iterable[int]) -> None:
        """Mark ``vertices`` halted; books the new halts in ascending order."""
        halted = self.halted
        newly = []
        for v in sorted(vertices):
            if not halted[v]:
                halted[v] = 1
                newly.append(v)
        self.record_halts(newly)
