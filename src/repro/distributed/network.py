"""The synchronous round engine.

:class:`SyncNetwork` executes a :class:`~repro.distributed.node.NodeAlgorithm`
per vertex of a :class:`~repro.graphs.graph.Graph` under the standard
synchronous message-passing model (§1.1 of the paper):

* computation proceeds in global rounds;
* a message sent during round ``t`` is delivered at the start of round
  ``t + 1``;
* in each round every non-halted node receives its inbox, computes, and
  sends messages to neighbours.

Bandwidth can be policed (CONGEST mode) by setting ``word_budget``: if the
messages crossing one directed edge in one round exceed the budget, the
engine raises :class:`~repro.errors.CongestViolation`.  With
``word_budget=None`` (LOCAL mode) bandwidth is unlimited but still
*measured*, so experiments can report the budget an algorithm would need.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Sequence

from ..errors import CongestViolation, SimulationError
from ..graphs.graph import Graph
from ..rng import DEFAULT_SEED, stream
from .message import Message
from .metrics import NetworkStats
from .node import Context, NodeAlgorithm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.causality import CausalLog
    from ..telemetry.rounds import RoundStream

__all__ = ["SyncNetwork"]


class SyncNetwork:
    """Synchronous message-passing simulator over a fixed graph.

    Parameters
    ----------
    graph:
        Communication topology.
    algorithms:
        One :class:`NodeAlgorithm` per vertex (``len == n``), or a factory
        ``vertex -> NodeAlgorithm``.
    seed:
        Root seed; node ``v`` receives the private stream
        ``stream(seed, "node", v)``.
    word_budget:
        Per-directed-edge, per-round word limit (CONGEST mode), or ``None``
        for the LOCAL model (unbounded but measured).
    rounds:
        Optional per-round metrics subscriber
        (:class:`~repro.telemetry.rounds.RoundStream`): one
        identically-keyed row per round, matching the batch engine's.
    causal:
        Optional causal provenance subscriber
        (:class:`~repro.telemetry.causality.CausalLog`): one aggregated
        parent-edge record per ``(sender, send round)`` run of each
        delivered inbox, plus one halt record per halted node — emitted
        in the engine's deterministic order (receivers ascending,
        sender-sorted inboxes), which the batch engine reproduces
        row-identically.

    Notes
    -----
    The engine is deterministic: inboxes are sorted by sender and nodes are
    stepped in ascending id order, so a fixed ``(graph, algorithms, seed)``
    triple always yields identical runs.

    **Inbox-order contract.** The per-round inbox handed to ``on_round``
    is *sorted by sender id* — this is part of the node API, not an
    accident of the queue: :meth:`step` sorts each inbox explicitly, so
    the internal order of ``_pending`` (outbox flush order) is
    deliberately irrelevant and any permutation of it yields an
    identical run (``tests/distributed/test_network.py::
    TestInboxOrderContract``).  Protocols may therefore rely on
    sender-sorted delivery; protocols that must *survive* arbitrary
    arrival order are exercised on the async engine
    (:class:`~repro.distributed.async_net.AsyncNetwork`), where inboxes
    arrive in schedule order instead.
    """

    def __init__(
        self,
        graph: Graph,
        algorithms: Sequence[NodeAlgorithm] | Callable[[int], NodeAlgorithm],
        seed: int = DEFAULT_SEED,
        word_budget: int | None = None,
        rounds: "RoundStream | None" = None,
        causal: "CausalLog | None" = None,
    ) -> None:
        self.graph = graph
        n = graph.num_vertices
        if callable(algorithms):
            self._algorithms = [algorithms(v) for v in range(n)]
        else:
            self._algorithms = list(algorithms)
        if len(self._algorithms) != n:
            raise SimulationError(
                f"need one algorithm per vertex: got {len(self._algorithms)} for n={n}"
            )
        self._contexts = [
            Context(self, v, graph.neighbors(v), stream(seed, "node", v))
            for v in range(n)
        ]
        self._word_budget = word_budget
        self._rounds = rounds
        self._causal = causal
        # Live-node list (ascending): rebuilt only on rounds where some
        # node halts, so late rounds of a mostly-carved graph dispatch
        # O(survivors) instead of rescanning all n vertices.
        self._live: list[int] = list(range(n))
        self._halted_seen: set[int] = set()
        self._outbox: list[Message] = []
        self._pending: list[Message] = []
        self._round = 0
        self._started = False
        self.stats = NetworkStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_round(self) -> int:
        """The round currently executing (0 before/during ``on_start``)."""
        return self._round

    @property
    def num_nodes(self) -> int:
        """Number of nodes (= vertices of the graph)."""
        return len(self._algorithms)

    def algorithm(self, v: int) -> NodeAlgorithm:
        """The algorithm instance running at vertex ``v``."""
        return self._algorithms[v]

    def context(self, v: int) -> Context:
        """The context of vertex ``v`` (for harness-level inspection)."""
        return self._contexts[v]

    def halted(self, v: int) -> bool:
        """Whether vertex ``v`` has halted."""
        return self._contexts[v].halted

    @property
    def all_halted(self) -> bool:
        """Whether every node has halted."""
        return all(ctx.halted for ctx in self._contexts)

    @property
    def messages_in_flight(self) -> int:
        """Messages awaiting delivery at the next round."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run every node's ``on_start`` callback (idempotent)."""
        if self._started:
            return
        self._started = True
        for v, algorithm in enumerate(self._algorithms):
            ctx = self._contexts[v]
            if not ctx.halted:
                algorithm.on_start(ctx)
        self._flush_outbox()

    def step(self) -> None:
        """Execute one synchronous round."""
        if not self._started:
            self.start()
        self._round += 1
        self.stats.rounds += 1
        inboxes: dict[int, list[Message]] = defaultdict(list)
        for message in self._pending:
            inboxes[message.receiver].append(message)
        self._pending = []
        any_halted = False
        for v in self._live:
            ctx = self._contexts[v]
            if ctx.halted:
                any_halted = True
                continue
            inbox = sorted(inboxes.get(v, ()), key=lambda msg: msg.sender)
            self.stats.messages_delivered += len(inbox)
            if self._causal is not None and inbox:
                self._log_deliveries(v, inbox)
            self._algorithms[v].on_round(ctx, inbox)
            if ctx.halted:
                any_halted = True
        if any_halted:
            self._live = [v for v in self._live if not self._contexts[v].halted]
        self._flush_outbox()

    def run_rounds(self, count: int) -> None:
        """Execute exactly ``count`` rounds."""
        for _ in range(count):
            self.step()

    def run_until_quiet(self, max_rounds: int = 1_000_000) -> int:
        """Run until no messages are in flight or everyone has halted.

        Returns the number of rounds executed.  Raises
        :class:`SimulationError` if the bound is exceeded (a liveness bug
        in the algorithm under test).
        """
        if not self._started:
            self.start()
        executed = 0
        while self._pending and not self.all_halted:
            if executed >= max_rounds:
                raise SimulationError(
                    f"network not quiet after {max_rounds} rounds"
                )
            self.step()
            executed += 1
        return executed

    def finish_rounds(self) -> None:
        """Flush the final round to an attached round stream.

        The sync engine emits at the end of every flush, so this is a
        no-op here (``end_round`` is idempotent per round) — it exists
        so drivers can finish either backend uniformly.
        """
        if self._rounds is not None:
            live = sum(1 for ctx in self._contexts if not ctx.halted)
            self._rounds.end_round(self._round, self.stats, live)

    # ------------------------------------------------------------------
    # Engine internals (called from Context)
    # ------------------------------------------------------------------
    def _log_deliveries(self, v: int, inbox: "Sequence[Message]") -> None:
        """One causal edge per ``(sender, sent_round)`` run of ``inbox``.

        The inbox is sender-sorted, so aggregating consecutive runs
        yields exactly one record per sending neighbour per round — the
        shape the batch engine derives from its broadcast columns.
        """
        causal = self._causal
        sender, sent_round = inbox[0].sender, inbox[0].sent_round
        count = 0
        for message in inbox:
            if message.sender != sender or message.sent_round != sent_round:
                causal.message(sender, sent_round, v, self._round, count)
                sender, sent_round, count = message.sender, message.sent_round, 0
            count += 1
        causal.message(sender, sent_round, v, self._round, count)

    def _enqueue(self, message: Message) -> None:
        self._outbox.append(message)

    def _flush_outbox(self) -> None:
        """Move sent messages into the pending queue, enforcing bandwidth."""
        newly_halted: list[int] = []
        if self._rounds is not None or self._causal is not None:
            for v, ctx in enumerate(self._contexts):
                if ctx.halted and v not in self._halted_seen:
                    self._halted_seen.add(v)
                    newly_halted.append(v)
        if self._causal is not None:
            for v in newly_halted:
                self._causal.halt(v, self._round)
        edge_words: dict[tuple[int, int], int] = defaultdict(int)
        for message in self._outbox:
            self.stats.messages_sent += 1
            self.stats.words_sent += message.words
            key = (message.sender, message.receiver)
            edge_words[key] += message.words
        if edge_words:
            peak = max(edge_words.values())
            self.stats.max_words_per_edge_round = max(
                self.stats.max_words_per_edge_round, peak
            )
            if self._word_budget is not None and peak > self._word_budget:
                offender = max(edge_words, key=edge_words.get)
                raise CongestViolation(
                    f"edge {offender} carried {edge_words[offender]} words in round "
                    f"{self._round}, budget is {self._word_budget}"
                )
        if self._rounds is not None:
            if self._outbox:
                self._rounds.note_frontier(
                    len({message.sender for message in self._outbox})
                )
            self._rounds.note_halts(len(newly_halted))
            live = sum(1 for ctx in self._contexts if not ctx.halted)
            self._rounds.end_round(self._round, self.stats, live)
        # Messages to halted receivers are dropped (counted above as sent).
        self._pending.extend(
            message
            for message in self._outbox
            if not self._contexts[message.receiver].halted
        )
        self._outbox = []
