"""Causal message provenance: the parent-edge log under critical paths.

A :class:`CausalLog` subscribes to an engine the same way a
:class:`~repro.telemetry.rounds.RoundStream` does —
``SyncNetwork(causal=...)``, ``AsyncNetwork(causal=...)`` or
``BatchEngine(..., causal=...)`` — and records *who caused what*: one
compact ``"causal"`` record per delivered parent edge, aggregated per
``(send, send_round, recv, recv_round)``, plus one record per halt
event.  Two record shapes share the stream:

* ``edge="msg"`` — ``count`` messages from ``send`` (sent in round
  ``send_round``) were delivered to ``recv`` at the start of round
  ``recv_round``;
* ``edge="halt"`` — ``node`` halted at the end of round ``round``.

The log is the *provenance half* of the telemetry layer's round
contract.  Halt records come from one place, the
:class:`~repro.distributed.metrics.RoundBooks` every engine extends
(``record_halts``, ascending node id within a round).  Edges come from
where each engine delivers: the sync engine emits them per receiver in
ascending-id order with sender-sorted inboxes, and the batch engine
derives the same edges from its per-(vertex, origin) broadcast columns,
so fault-free runs of the two backends produce **row-identical** causal
logs (``tests/telemetry/test_causality.py``).  The async engine emits
edges in arrival order, which degenerates to the sync order under the
FIFO schedule with no faults — and on adversarial runs it extends each
edge with timing *extras* (gated exactly like the round stream's
adversary columns, so fault-free FIFO logs stay bit-comparable):

* ``send_time`` — the sender's virtual clock when the message left;
* ``arrive`` — the arrival time the delivery schedule assigned
  (``0`` marks a fault edge: the message sat in a redelivery buffer
  while its receiver was crashed);
* ``recv_time`` — the receiver's α-synchronizer ready time for the
  delivery pulse;
* ``fault`` — rounds the message spent buffered by a crash window.

:func:`lamport_timestamps` derives logical clocks from the log alone:
the Lamport clock of an event is one more than the maximum clock among
its causal predecessors (the node's previous event and, for each
incoming edge, the sender's latest event at or before the send round).
Because the clocks are a pure function of the *edge multiset grouped by
round*, they are invariant under any delivery permutation — the
property ``tests/distributed/test_schedule_properties.py`` pins across
all adversarial schedules.

Everything downstream — critical-path extraction, per-edge delay
attribution, slack — lives in :mod:`repro.telemetry.critical`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Telemetry

__all__ = ["CausalLog", "causal_records", "causal_streams", "lamport_timestamps"]


def _num(value: float):
    """Canonical JSON number: ints stay ints, floats round to 6 places."""
    if value == int(value):
        return int(value)
    return round(value, 6)


class CausalLog:
    """One protocol run's parent-edge log (see module docstring)."""

    __slots__ = ("stream", "records", "_telemetry", "_extras")

    def __init__(self, telemetry: "Telemetry", stream: str) -> None:
        self.stream = stream
        self.records: list[dict] = []
        self._telemetry = telemetry
        self._extras = False

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def enable_extras(self) -> None:
        """Extend edge records with the async timing columns.

        Enabled only on runs where a non-FIFO schedule or a fault plan
        is active — the same gate the round stream's adversary columns
        use, so fault-free FIFO logs stay row-identical to the sync
        engine's.
        """
        self._extras = True

    @property
    def extras_enabled(self) -> bool:
        return self._extras

    def message(
        self,
        send: int,
        send_round: int,
        recv: int,
        recv_round: int,
        count: int = 1,
        *,
        send_time: float | None = None,
        arrive: float | None = None,
        recv_time: float | None = None,
        fault: int = 0,
    ) -> None:
        """Record ``count`` delivered messages along one parent edge."""
        record = {
            "kind": "causal",
            "stream": self.stream,
            "edge": "msg",
            "send": send,
            "send_round": send_round,
            "recv": recv,
            "recv_round": recv_round,
            "count": count,
        }
        if self._extras:
            record["send_time"] = _num(send_time if send_time is not None else send_round)
            record["arrive"] = _num(arrive if arrive is not None else recv_round)
            record["recv_time"] = _num(recv_time if recv_time is not None else recv_round)
            record["fault"] = fault
        self._keep(record)

    def halt(self, node: int, round_number: int) -> None:
        """Record that ``node`` halted at the end of ``round_number``."""
        self._keep(
            {
                "kind": "causal",
                "stream": self.stream,
                "edge": "halt",
                "node": node,
                "round": round_number,
            }
        )

    def _keep(self, record: dict) -> None:
        # Same dual landing as round records: the per-stream view feeds
        # the cross-backend identity checks, the shared collector feeds
        # trace files and artifact blocks; both respect the bound.
        telemetry = self._telemetry
        if len(self.records) < telemetry.limit:
            self.records.append(record)
        else:
            telemetry.truncated = True
        telemetry._keep(telemetry.causal, record)


# --------------------------------------------------------------------------
# Log readers


def causal_records(
    records: Iterable[Mapping], stream: "str | None" = None
) -> list[dict]:
    """The ``"causal"`` records of a trace, optionally one stream's."""
    return [
        dict(record)
        for record in records
        if record.get("kind") == "causal"
        and (stream is None or record.get("stream") == stream)
    ]


def causal_streams(records: Iterable[Mapping]) -> list[str]:
    """Distinct causal stream names, in first-appearance order."""
    seen: dict[str, None] = {}
    for record in records:
        if record.get("kind") == "causal":
            seen.setdefault(str(record.get("stream")), None)
    return list(seen)


def lamport_timestamps(
    records: Iterable[Mapping], stream: "str | None" = None
) -> dict[tuple[int, int], int]:
    """Lamport clocks for every logged event, keyed ``(node, round)``.

    An *event* is one node's participation in one round: receiving its
    inbox, halting, or both (a halt merges with the same round's
    receive).  Clocks are the causal height over the edge log —
    ``1 + max`` over the node's previous event and, per incoming edge,
    the sender's latest event at or before the send round (``0`` when a
    predecessor has no logged event: protocol starts are height zero).

    Pure function of the edge multiset grouped by round: permuting the
    delivery order inside any round — what adversarial schedules do —
    cannot change the result.
    """
    rows = causal_records(records, stream)
    edges_by_round: dict[int, list[dict]] = {}
    halts_by_round: dict[int, list[int]] = {}
    for row in rows:
        if row["edge"] == "msg":
            edges_by_round.setdefault(row["recv_round"], []).append(row)
        else:
            halts_by_round.setdefault(row["round"], []).append(row["node"])
    clocks: dict[tuple[int, int], int] = {}
    # Per-node event history as parallel (rounds, clocks) lists so the
    # "latest event at or before round r" lookup is a bisect.
    history_rounds: dict[int, list[int]] = {}
    history_clocks: dict[int, list[int]] = {}

    def latest(node: int, upto: int) -> int:
        rounds = history_rounds.get(node)
        if not rounds:
            return 0
        index = bisect_right(rounds, upto)
        return history_clocks[node][index - 1] if index else 0

    for round_number in sorted(set(edges_by_round) | set(halts_by_round)):
        incoming: dict[int, int] = {}
        for row in edges_by_round.get(round_number, ()):
            parent = latest(row["send"], row["send_round"])
            if parent > incoming.get(row["recv"], -1):
                incoming[row["recv"]] = parent
        nodes = set(incoming)
        nodes.update(halts_by_round.get(round_number, ()))
        for node in sorted(nodes):
            clock = 1 + max(latest(node, round_number - 1), incoming.get(node, 0))
            clocks[(node, round_number)] = clock
            history_rounds.setdefault(node, []).append(round_number)
            history_clocks.setdefault(node, []).append(clock)
    return clocks
