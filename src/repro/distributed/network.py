"""The node-algorithm round engines: a shared core and the synchronous engine.

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

:class:`NodeNetwork` is the core it shares with
:class:`~repro.distributed.async_net.AsyncNetwork`: the per-vertex
algorithms and contexts, the pruned live list, the run loop, the
introspection surface and the end-of-round flush, on top of the
:class:`~repro.distributed.metrics.RoundBooks` the batch engine keeps
too.  A subclass supplies only ``step`` (how a round's inboxes form)
and ``_route`` (where a surviving message waits).
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Sequence

from ..errors import SimulationError
from ..graphs.graph import Graph
from ..rng import DEFAULT_SEED, stream
from .message import Message
from .metrics import RoundBooks
from .node import Context, NodeAlgorithm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.causality import CausalLog
    from ..telemetry.rounds import RoundStream

__all__ = ["SyncNetwork"]


class NodeNetwork(RoundBooks):
    """One :class:`NodeAlgorithm` per vertex, run round by round.

    ``algorithms`` is one :class:`NodeAlgorithm` per vertex (``len ==
    n``) or a factory ``vertex -> NodeAlgorithm``; node ``v`` gets the
    private stream ``stream(seed, "node", v)`` whatever the engine.
    ``word_budget``, ``rounds`` and ``causal`` are
    :class:`~repro.distributed.metrics.RoundBooks`'s; round rows are
    emitted at the end of each round's flush.
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
        super().__init__(graph, word_budget, rounds, causal)
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
        # Live-node list (ascending): rebuilt only on rounds where some
        # node halts, so late rounds of a mostly-carved graph dispatch
        # O(survivors) instead of rescanning all n vertices.
        self._live: list[int] = list(range(n))
        self._outbox: list[Message] = []
        #: Messages awaiting a later round; the subclass decides the shape.
        self._pending: list = []
        self._started = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_round(self) -> int:
        """The round currently executing (0 before/during ``on_start``)."""
        return self.round

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
        """Whether every node has halted (halting is permanent, so only
        the live list needs checking)."""
        contexts = self._contexts
        return all(contexts[v].halted for v in self._live)

    @property
    def messages_in_flight(self) -> int:
        """Messages awaiting delivery at a later round."""
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
        self._prune()
        self._flush_outbox()

    def run_rounds(self, count: int) -> None:
        """Execute exactly ``count`` rounds."""
        for _ in range(count):
            self.step()

    def run_until_quiet(self, max_rounds: int = 1_000_000) -> int:
        """Run until no messages are pending or everyone has halted.

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

    # ------------------------------------------------------------------
    # Engine internals
    # ------------------------------------------------------------------
    def _enqueue(self, message: Message) -> None:
        self._outbox.append(message)

    def _prune(self) -> None:
        """Drop halted nodes from the live list, booking them as halted
        this round in ascending order."""
        contexts = self._contexts
        newly = [v for v in self._live if contexts[v].halted]
        if newly:
            self._live = [v for v in self._live if not contexts[v].halted]
            self.record_halts(newly)

    def _log_deliveries(self, v: int, inbox: "Sequence[Message]") -> None:
        """One causal edge per ``(sender, sent_round)`` run of ``inbox``.

        A sender-sorted inbox yields exactly one record per sending
        neighbour per round — the shape the batch engine derives from
        its broadcast columns.
        """
        causal = self.causal
        sender, sent_round = inbox[0].sender, inbox[0].sent_round
        count = 0
        for message in inbox:
            if message.sender != sender or message.sent_round != sent_round:
                causal.message(sender, sent_round, v, self.round, count)
                sender, sent_round, count = message.sender, message.sent_round, 0
            count += 1
        causal.message(sender, sent_round, v, self.round, count)

    def _flush_outbox(self) -> None:
        """Account the round's sends, route the survivors, emit the row."""
        outbox, self._outbox = self._outbox, []
        edge_words: dict[tuple[int, int], int] = defaultdict(int)
        words = 0
        for message in outbox:
            words += message.words
            edge_words[message.sender, message.receiver] += message.words
        offender = max(edge_words, key=edge_words.get) if edge_words else None
        self.account_sends(
            len(outbox),
            words,
            edge_words[offender] if offender else 0,
            offender,
            senders=len({message.sender for message in outbox})
            if self.rounds is not None
            else 0,
        )
        self._route(outbox)
        self.emit_round()

    def _route(self, outbox: "list[Message]") -> None:
        """Hold this round's accounted messages for delivery."""
        raise NotImplementedError


class SyncNetwork(NodeNetwork):
    """Synchronous message-passing simulator over a fixed graph.

    Parameters are :class:`NodeNetwork`'s.  With ``rounds`` attached the
    engine emits one identically-keyed row per round, matching the batch
    engine's; with ``causal`` attached, one aggregated parent-edge record
    per ``(sender, send round)`` run of each delivered inbox, plus one
    halt record per halted node — emitted in the engine's deterministic
    order (receivers ascending, sender-sorted inboxes), which the batch
    engine reproduces row-identically.

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

    def step(self) -> None:
        """Execute one synchronous round."""
        if not self._started:
            self.start()
        self.begin_round()
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
            self.deliver(len(inbox))
            if self.causal is not None and inbox:
                self._log_deliveries(v, inbox)
            self._algorithms[v].on_round(ctx, inbox)
            if ctx.halted:
                any_halted = True
        if any_halted:
            self._prune()
        self._flush_outbox()

    def _route(self, outbox: "list[Message]") -> None:
        """Queue messages for the next round; those to halted receivers
        are dropped (the flush has counted them as sent)."""
        contexts = self._contexts
        self._pending.extend(
            message for message in outbox if not contexts[message.receiver].halted
        )
