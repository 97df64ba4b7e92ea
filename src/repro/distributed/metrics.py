"""Run statistics collected by the simulator, and the books that keep them.

:class:`NetworkStats` is how the benchmark harness measures the costs the
paper reports: rounds of communication, number of messages, and bandwidth
per edge per round (the CONGEST budget).  :class:`RoundBooks` keeps them:
the §1.1 accounting that :class:`~repro.distributed.network.SyncNetwork`,
:class:`~repro.distributed.async_net.AsyncNetwork` and the columnar
:class:`~repro.engine.core.BatchEngine` all extend, so it exists once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..errors import CongestViolation, ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graphs.graph import Graph
    from ..telemetry.causality import CausalLog
    from ..telemetry.rounds import RoundStream

__all__ = ["NetworkStats", "RoundBooks"]


@dataclass
class NetworkStats:
    """Mutable accumulator of communication costs for one simulation run.

    Attributes
    ----------
    rounds:
        Number of rounds executed so far.
    messages_sent:
        Total messages enqueued (including ones dropped because the
        receiver had halted).
    messages_delivered:
        Messages actually handed to a receiver's ``on_round``.
    words_sent:
        Total bandwidth in words across all messages sent.
    max_words_per_edge_round:
        The largest number of words that crossed a single directed edge in
        a single round — the quantity the CONGEST model bounds.  The
        paper's top-two optimisation exists precisely to keep this O(1).
    """

    rounds: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    words_sent: int = 0
    max_words_per_edge_round: int = 0

    def merge(self, other: "NetworkStats") -> "NetworkStats":
        """Combine two runs (e.g. per-phase stats into a total)."""
        return NetworkStats(
            rounds=self.rounds + other.rounds,
            messages_sent=self.messages_sent + other.messages_sent,
            messages_delivered=self.messages_delivered + other.messages_delivered,
            words_sent=self.words_sent + other.words_sent,
            max_words_per_edge_round=max(
                self.max_words_per_edge_round, other.max_words_per_edge_round
            ),
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"rounds={self.rounds} messages={self.messages_sent} "
            f"words={self.words_sent} "
            f"max_words/edge/round={self.max_words_per_edge_round}"
        )


class RoundBooks:
    """Round counter, traffic stats, CONGEST policing and telemetry rows.

    Engines differ in how a round's traffic is produced and delivered;
    they report it here in aggregate.  ``word_budget`` is the
    per-directed-edge, per-round word limit (CONGEST mode), an
    ``int >= 1``, or ``None`` for the LOCAL model (unbounded but
    measured); anything else raises :class:`~repro.errors.ParameterError`
    at construction.  An attached
    :class:`~repro.telemetry.rounds.RoundStream` gets one row per round;
    an attached :class:`~repro.telemetry.causality.CausalLog` gets the
    halt records here and its parent edges from the engine.
    """

    def __init__(
        self,
        graph: "Graph",
        word_budget: int | None = None,
        rounds: "RoundStream | None" = None,
        causal: "CausalLog | None" = None,
    ) -> None:
        if word_budget is not None and (
            not isinstance(word_budget, int)
            or isinstance(word_budget, bool)
            or word_budget < 1
        ):
            raise ParameterError(
                f"word_budget must be None or an int >= 1, got {word_budget!r}"
            )
        self.graph = graph
        self.word_budget = word_budget
        self.rounds = rounds
        self.causal = causal
        self.stats = NetworkStats()
        self.num_live = graph.num_vertices
        self.round = 0

    def begin_round(self) -> None:
        """Advance to the next round, first emitting the finished one's
        row if the engine has not (emission is idempotent per round)."""
        if self.round:
            self.emit_round()
        self.round += 1
        self.stats.rounds += 1

    def emit_round(self) -> None:
        """Emit the current round's row to an attached round stream."""
        if self.rounds is not None:
            self.rounds.end_round(self.round, self.stats, self.num_live)

    def finish_rounds(self) -> None:
        """Flush the final round to an attached round stream (idempotent)."""
        if self.round:
            self.emit_round()

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
        frontier column (0 is fine when no stream is attached).  Raises
        :class:`CongestViolation` over budget, after counting the traffic.
        """
        stats = self.stats
        stats.messages_sent += messages
        stats.words_sent += words
        if senders and self.rounds is not None:
            self.rounds.note_frontier(senders)
        if peak_words > stats.max_words_per_edge_round:
            stats.max_words_per_edge_round = peak_words
        if self.word_budget is not None and peak_words > self.word_budget:
            raise CongestViolation(
                f"edge {offender} carried {peak_words} words in round "
                f"{self.round}, budget is {self.word_budget}"
            )

    def record_halts(self, vertices: Sequence[int]) -> None:
        """Book ``vertices`` — newly halted, ascending — as halted this round."""
        self.num_live -= len(vertices)
        if self.causal is not None:
            for v in vertices:
                self.causal.halt(v, self.round)
        if self.rounds is not None:
            self.rounds.note_halts(len(vertices))
