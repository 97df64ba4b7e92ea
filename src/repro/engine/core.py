"""The batch-synchronous round engine core.

:class:`BatchEngine` is the columnar counterpart of
:class:`~repro.distributed.network.SyncNetwork`: it owns the round
counter, the halt mask, the :class:`~repro.distributed.metrics.NetworkStats`
accumulator, CONGEST budget enforcement and the two optional telemetry
subscribers — but it never materialises per-message objects.  Protocols
report each round's traffic in aggregate (message count, word count, the
peak per-directed-edge word load and the offending edge), which is all
the simulator-level bookkeeping ever consumed.

Equivalence contract (pinned by ``tests/engine``): for every ported
protocol, the engine's stats, round counts, round streams and causal
logs are bit-identical to a :class:`SyncNetwork` run of the reference
node algorithms.  In particular a ``word_budget`` violation raises
:class:`~repro.errors.CongestViolation` in the *exact* round (and with
the exact offending edge) the reference engine would report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..distributed.metrics import NetworkStats
from ..errors import CongestViolation
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


class BatchEngine:
    """Shared round/halt/stats state for columnar protocol simulations.

    Parameters
    ----------
    graph:
        Communication topology.
    word_budget:
        Per-directed-edge, per-round word limit (CONGEST mode), or
        ``None`` for the LOCAL model (unbounded but measured).
    rounds:
        Optional :class:`~repro.telemetry.rounds.RoundStream`; when
        attached, the engine emits one per-round metrics row keyed
        identically to the reference engine's.  Rounds are flushed
        lazily at the next ``begin_round`` — callers must finish with
        :meth:`finish_rounds` to emit the last one.
    causal:
        Optional :class:`~repro.telemetry.causality.CausalLog`; when
        attached, protocols derive per-message parent edges from their
        broadcast columns (the flood epoch scans each sender's live CSR
        row) and the engine emits halt records —
        row-identical to the reference engine's causal log on seeded
        runs.
    """

    def __init__(
        self,
        graph: Graph,
        word_budget: int | None = None,
        rounds: "RoundStream | None" = None,
        causal: "CausalLog | None" = None,
    ) -> None:
        self.graph = graph
        self.word_budget = word_budget
        self.rounds = rounds
        self.causal = causal
        self.stats = NetworkStats()
        self.halted = bytearray(graph.num_vertices)
        self.num_live = graph.num_vertices
        self.round = 0

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------
    def begin_round(self) -> None:
        """Advance to the next synchronous round (mirrors one ``step()``)."""
        if self.rounds is not None and self.round:
            self.rounds.end_round(self.round, self.stats, self.num_live)
        self.round += 1
        self.stats.rounds += 1

    def finish_rounds(self) -> None:
        """Flush the final round to an attached round stream (idempotent)."""
        if self.rounds is not None and self.round:
            self.rounds.end_round(self.round, self.stats, self.num_live)

    def deliver(self, count: int) -> None:
        """Record ``count`` messages handed to live receivers this round."""
        self.stats.messages_delivered += count

    def account_sends(
        self,
        messages: int,
        words: int,
        peak_words: int,
        offender: tuple[int, int] | None = None,
        senders: int = 0,
    ) -> None:
        """Record one round's aggregate outgoing traffic.

        ``peak_words`` is the largest word total that crossed a single
        directed edge this round; ``offender`` names such an edge (only
        consulted when the budget is exceeded).  ``senders`` is the
        number of distinct sending vertices — the round stream's
        frontier column (protocols may pass 0 when no stream is
        attached).  Raises :class:`CongestViolation` exactly when the
        reference engine's flush would.
        """
        self.stats.messages_sent += messages
        self.stats.words_sent += words
        if senders and self.rounds is not None:
            self.rounds.note_frontier(senders)
        if peak_words > self.stats.max_words_per_edge_round:
            self.stats.max_words_per_edge_round = peak_words
        if self.word_budget is not None and peak_words > self.word_budget:
            raise CongestViolation(
                f"edge {offender} carried {peak_words} words in round "
                f"{self.round}, budget is {self.word_budget}"
            )

    # ------------------------------------------------------------------
    # Halting
    # ------------------------------------------------------------------
    def halt(self, vertices: Iterable[int]) -> None:
        """Mark ``vertices`` halted; logs causal halts in ascending order."""
        rounds, causal = self.rounds, self.causal
        if rounds is None and causal is None:
            for v in vertices:
                self.halted[v] = 1
            return
        newly = 0
        for v in sorted(vertices) if causal is not None else vertices:
            if not self.halted[v]:
                newly += 1
                if causal is not None:
                    causal.halt(v, self.round)
            self.halted[v] = 1
        if rounds is not None:
            self.num_live -= newly
            rounds.note_halts(newly)
