"""The asynchronous round engine: event-driven delivery under an adversary.

:class:`AsyncNetwork` executes the same
:class:`~repro.distributed.node.NodeAlgorithm` contract as
:class:`~repro.distributed.network.SyncNetwork`, but message delivery is
governed by a :class:`~repro.distributed.schedule.Schedule` (bounded
delays, adversarial orderings) and an optional
:class:`~repro.distributed.faults.FaultPlan` (seeded node crash/recovery
and message drops).  Logical rounds survive asynchrony via the
α-synchronizer (:mod:`.synchronizer`): messages are tagged with their
sender's pulse and a pulse executes only when safe, so ``step()`` still
advances one logical round — what the adversary controls is each
message's *arrival time* inside its pulse (inbox order), each node's
virtual clock (execution order and skew), and, with faults, which
messages and nodes participate at all.

Determinism contract: a run is a pure function of
``(graph, algorithms, seed, delivery, faults)``.  Schedules and fault
plans derive their streams from ``(seed, spec)``, events are totally
ordered by ``(arrival_time, order, seq)``, and nodes execute in
``(ready_time, id)`` order — replaying the same pair is byte-identical
(``tests/distributed/test_schedule_properties.py``).

Equivalence contract: under the FIFO schedule with no fault plan, every
observable — decompositions, :class:`~repro.distributed.metrics
.NetworkStats`, telemetry round streams, causal logs — is bit-identical
to a :class:`SyncNetwork` run: delays are zero, arrival order equals
send order (which equals the sync engine's sender-sorted inbox order),
and ready times degenerate to ascending node id.

Inbox ordering is the one semantic difference from the sync engine:
inboxes arrive in *arrival order*, not sorted by sender.  Protocols
whose per-round merges are order-oblivious (EN/LS/MPX — commutative
min/max merges, see ``engine/broadcast.py``) are unaffected; a protocol
that is not order-oblivious will diverge under non-FIFO schedules, which
is precisely what the harness exists to detect.

Shared core: contexts, the live list, the run loop, the introspection
surface and the end-of-pulse flush — halt records, traffic stats, budget
enforcement, round-stream rows — are
:class:`~repro.distributed.network.NodeNetwork`'s, the same code the
sync engine runs.  This module adds the pulse (fault transitions, event
heap drain, α-synchronizer order) and the routing (drop coins, schedule
delays, the adversary's round-stream columns).  Messages to halted
receivers are dropped at flush and counted as sent (sync semantics);
fault-dropped messages are also counted as sent, never delivered;
messages to *crashed* receivers are dropped — or buffered for
redelivery — at their delivery pulse.  Async-only counters live in
:class:`AsyncStats`, never in ``NetworkStats``, so the stats equality
the tier-1 equivalence suites assert stays exact.

Every live instance registers in a module-level weak set; the suite-wide
leak guard in ``tests/conftest.py`` fails any test that abandons a
network with undelivered messages (call :meth:`AsyncNetwork.close` to
opt a deliberately-abandoned network out).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Sequence

from ..errors import ParameterError
from ..graphs.graph import Graph
from ..rng import DEFAULT_SEED
from .faults import FaultPlan
from .message import Message
from .network import NodeNetwork
from .node import NodeAlgorithm
from .schedule import Schedule, parse_schedule
from .synchronizer import AlphaSynchronizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.causality import CausalLog
    from ..telemetry.rounds import RoundStream

__all__ = ["AsyncNetwork", "AsyncStats", "live_networks"]

#: Async-only round-stream columns (enabled for non-FIFO/faulty runs).
EXTRA_ROUND_KEYS = ("delayed", "dropped", "reordered")

#: Weak registry of live engines, consumed by the test-suite leak guard.
_REGISTRY: "weakref.WeakSet[AsyncNetwork]" = weakref.WeakSet()


def live_networks() -> "list[AsyncNetwork]":
    """Currently-alive :class:`AsyncNetwork` instances (leak guard hook)."""
    return list(_REGISTRY)


@dataclass
class AsyncStats:
    """Asynchrony/fault counters, separate from :class:`NetworkStats`.

    Kept out of the shared stats object on purpose: the sync/batch/async
    equivalence tests compare ``NetworkStats`` dataclasses for equality,
    and these counters are identically zero only on FIFO fault-free runs.
    """

    delayed: int = 0      #: messages assigned a positive delivery delay
    reordered: int = 0    #: inbox positions out of sender order
    dropped: int = 0      #: messages lost to faults (drop coins + crashes)
    redelivered: int = 0  #: buffered messages delivered after recovery
    crashes: int = 0      #: crash transitions
    recoveries: int = 0   #: recovery transitions
    max_skew: float = 0.0  #: largest within-pulse virtual-clock spread

    def as_dict(self) -> dict:
        return {
            "delayed": self.delayed,
            "reordered": self.reordered,
            "dropped": self.dropped,
            "redelivered": self.redelivered,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "max_skew": round(self.max_skew, 6),
        }


class AsyncNetwork(NodeNetwork):
    """Asynchronous message-passing simulator (see module docstring).

    Parameters match :class:`SyncNetwork` plus:

    delivery:
        A :mod:`.schedule` spec string (or :class:`Schedule`);
        default ``"fifo"``.
    faults:
        A :mod:`.faults` spec string (or :class:`FaultPlan`), or
        ``None`` for a fault-free run.

    ``_pending`` is the event heap: ``(arrival_time, order, seq,
    send_time, Message)`` entries, all tagged for the next pulse and
    drained fully per step.  ``seq`` is unique, so the trailing fields
    never get compared.
    """

    def __init__(
        self,
        graph: Graph,
        algorithms: Sequence[NodeAlgorithm] | Callable[[int], NodeAlgorithm],
        seed: int = DEFAULT_SEED,
        word_budget: int | None = None,
        rounds: "RoundStream | None" = None,
        causal: "CausalLog | None" = None,
        delivery: "str | Schedule | None" = "fifo",
        faults: "str | FaultPlan | None" = None,
    ) -> None:
        super().__init__(graph, algorithms, seed, word_budget, rounds, causal)
        n = graph.num_vertices
        self._schedule = parse_schedule(delivery, seed)
        self._faults = FaultPlan.parse(faults)
        if self._faults is not None:
            for window in self._faults.windows:
                if not 0 <= window.node < n:
                    raise ParameterError(
                        f"crash window names node {window.node}, graph has n={n}"
                    )
            self._faults.reset(seed)
        # The adversary's round-stream columns and causal timing extras
        # share one gate: fault-free FIFO rows stay identical to the sync
        # engine's.
        adversarial = self._schedule.bound > 0 or self._faults is not None
        self._extras_enabled = rounds is not None and adversarial
        if self._extras_enabled:
            rounds.enable_extras(*EXTRA_ROUND_KEYS)
        if causal is not None and adversarial:
            causal.enable_extras()
        self._synchronizer = AlphaSynchronizer(graph)
        self._crashed: set[int] = set()
        self._redelivery: dict[int, list[Message]] = {}
        self._seq = 0
        self.closed = False
        self.async_stats = AsyncStats()
        self._round_delayed = 0
        self._round_dropped = 0
        self._round_reordered = 0
        _REGISTRY.add(self)

    # ------------------------------------------------------------------
    # Introspection beyond the shared surface
    # ------------------------------------------------------------------
    def crashed(self, v: int) -> bool:
        """Whether node ``v`` is currently down (crashed, not halted)."""
        return v in self._crashed

    @property
    def messages_in_flight(self) -> int:
        """Undelivered messages: scheduled events + redelivery buffers.

        Redelivery buffers parked at permanently-crashed nodes do not
        keep :meth:`run_until_quiet` alive (they can never drain); they
        still count here and trip the leak guard.
        """
        return len(self._pending) + sum(
            len(buffer) for buffer in self._redelivery.values()
        )

    @property
    def schedule(self) -> Schedule:
        return self._schedule

    @property
    def fault_plan(self) -> "FaultPlan | None":
        return self._faults

    def clock(self, v: int) -> float:
        """Node ``v``'s virtual clock (α-synchronizer pulse time)."""
        return self._synchronizer.clock(v)

    @property
    def leaked(self) -> bool:
        """Abandoned with undelivered messages (leak-guard predicate)."""
        return (
            not self.closed
            and self.messages_in_flight > 0
            and not self.all_halted
        )

    def close(self) -> None:
        """Mark this network deliberately abandoned (silences the guard)."""
        self.closed = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one pulse (= one logical synchronous round)."""
        if not self._started:
            self.start()
        self.begin_round()
        pulse = self.round
        inboxes = self._apply_faults_and_deliver(pulse)
        arrivals = {v: inbox[-1][0] for v, inbox in inboxes.items() if inbox}
        executing = [
            v
            for v in self._live
            if not self._contexts[v].halted and v not in self._crashed
        ]
        def waived(u: int) -> bool:
            return self._contexts[u].halted or u in self._crashed

        order = self._synchronizer.ready_times(pulse, executing, arrivals, waived)
        self.async_stats.max_skew = self._synchronizer.max_skew
        any_halted = len(executing) < len(self._live) and any(
            self._contexts[v].halted for v in self._live
        )
        causal = self.causal
        for ready, v in order:
            ctx = self._contexts[v]
            entries = inboxes.get(v, ())
            inbox = [message for _time, _sent, message in entries]
            self.deliver(len(inbox))
            if causal is not None and entries:
                if causal.extras_enabled:
                    self._log_timed_deliveries(v, ready, entries)
                else:
                    self._log_deliveries(v, inbox)
            self._algorithms[v].on_round(ctx, inbox)
            if ctx.halted:
                any_halted = True
        if any_halted:
            self._prune()
        self._flush_outbox()

    # ------------------------------------------------------------------
    # Engine internals
    # ------------------------------------------------------------------
    def _log_timed_deliveries(
        self,
        v: int,
        ready: float,
        entries: "Sequence[tuple[float, float, Message]]",
    ) -> None:
        """Causal edges for one delivered inbox, with the timing extras.

        Consecutive ``(sender, sent_round)`` runs of the arrival order
        aggregate into one edge record, as in the sync engine's log
        (which is what fault-free FIFO runs write); each record here also
        carries the send, arrival and ready times.  A sentinel arrival of
        ``0.0`` marks a redelivered (crash-buffered) edge.
        """
        causal = self.causal
        arrival, send_time, message = entries[0]
        sender, sent_round = message.sender, message.sent_round
        last_arrival, count = arrival, 0
        pulse = self.round

        def flush() -> None:
            fault = (
                self._faults.buffered_rounds(sent_round, pulse)
                if last_arrival == 0.0 and self._faults is not None
                else 0
            )
            causal.message(
                sender,
                sent_round,
                v,
                pulse,
                count,
                send_time=send_time,
                arrive=last_arrival,
                recv_time=ready,
                fault=fault,
            )

        for arrival, next_send_time, message in entries:
            if message.sender != sender or message.sent_round != sent_round:
                flush()
                sender, sent_round = message.sender, message.sent_round
                send_time, count = next_send_time, 0
            last_arrival = arrival
            count += 1
        flush()

    def _apply_faults_and_deliver(
        self, pulse: int
    ) -> dict[int, list[tuple[float, float, Message]]]:
        """Fault transitions + event-queue drain for ``pulse``.

        Returns per-receiver inboxes in arrival order, each entry
        ``(arrival_time, send_time, message)``.  Redelivered messages
        (buffered while their receiver was crashed) lead the inbox —
        they are older than anything arriving this pulse — and carry
        the sentinel arrival time ``0.0`` (real arrivals are ``>= 1``),
        which the causal log records as a fault edge.
        """
        plan = self._faults
        inboxes: dict[int, list[tuple[float, float, Message]]] = {}
        if plan is not None:
            for window in plan.windows:
                v = window.node
                if self._contexts[v].halted:
                    continue  # halted nodes left the computation; crashes moot
                down = plan.crashed(v, pulse)
                if down and v not in self._crashed:
                    self._crashed.add(v)
                    self.async_stats.crashes += 1
                    plan.record("crash", pulse, node=v)
                elif not down and v in self._crashed:
                    self._crashed.discard(v)
                    self.async_stats.recoveries += 1
                    plan.record("recover", pulse, node=v)
                    buffered = self._redelivery.pop(v, None)
                    if buffered:
                        self.async_stats.redelivered += len(buffered)
                        plan.record("redeliver", pulse, node=v, count=len(buffered))
                        inboxes[v] = [
                            (0.0, float(message.sent_round), message)
                            for message in buffered
                        ]
        while self._pending:
            arrival, _order, _seq, send_time, message = heappop(self._pending)
            v = message.receiver
            if v in self._crashed:
                if plan is not None and plan.redeliver:
                    self._redelivery.setdefault(v, []).append(message)
                else:
                    self.async_stats.dropped += 1
                    self._round_dropped += 1
                    if plan is not None:
                        plan.record(
                            "crash-drop", pulse, node=v, sender=message.sender
                        )
                continue
            inbox = inboxes.setdefault(v, [])
            if inbox and inbox[-1][2].sender > message.sender:
                self.async_stats.reordered += 1
                self._round_reordered += 1
            inbox.append((arrival, send_time, message))
        return inboxes

    def _route(self, outbox: "list[Message]") -> None:
        """Schedule surviving messages as delivery events for the next pulse.

        Drop coins are rolled here, in send order, *after* the bandwidth
        accounting: a lost message still crossed the wire.
        """
        plan, sched, clocks = self._faults, self._schedule, self._synchronizer.clocks
        for message in outbox:
            if self._contexts[message.receiver].halted:
                continue  # sync semantics: counted as sent, silently dropped
            if plan is not None and plan.drops(
                message.sender, message.receiver, self.round
            ):
                self.async_stats.dropped += 1
                self._round_dropped += 1
                continue
            seq = self._seq
            self._seq += 1
            delay, order = sched.assign(
                message.sender, message.receiver, self.round, seq
            )
            if delay > 0.0:
                self.async_stats.delayed += 1
                self._round_delayed += 1
            heappush(
                self._pending,
                (
                    clocks[message.sender] + 1.0 + delay,
                    order,
                    seq,
                    clocks[message.sender],
                    message,
                ),
            )
        if self._extras_enabled:
            self.rounds.note_extras(
                delayed=self._round_delayed,
                dropped=self._round_dropped,
                reordered=self._round_reordered,
            )
        self._round_delayed = self._round_dropped = self._round_reordered = 0
