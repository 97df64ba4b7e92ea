"""Columnar shifted-value broadcast phases (the carving epoch of §2).

Every decomposition protocol in this library — Elkin–Neiman, the
Linial–Saks baseline, the Miller–Peng–Xu partition — runs the same kind
of epoch: each live vertex injects a (value, range) pair drawn from a
shared stream, values flood outward one hop per round for ``B`` rounds
(shrinking by 1 per hop), and every vertex then applies a local decision
rule to the shifted values it heard.  The epoch has two bit-identical
forms, and :func:`flood_epoch` picks one at call time from the kernel
switch alone: :class:`~repro.engine.numpy_flood.NumpyFlood`, one
vectorised merge per round, whenever numpy is enabled; and
:class:`ShiftedFlood`, the stdlib per-message loop, under
``REPRO_KERNEL=py`` (it is also the reference the cross-kernel tests
compare against).  :class:`ShiftedFlood` works columnarly too:

* per-(vertex, origin) state lives in **one** packed-key dict
  (``key = vertex * n + origin -> best known distance``) instead of one
  Python dict per simulated node;
* the decision inputs are maintained *streamingly* in flat per-vertex
  arrays — the top-two shifted values with the reference tie-breaks
  (Elkin–Neiman's ``m1 - m2 > 1`` rule), the minimum-id origin
  (Linial–Saks' rule) and the distinct-origin count — so no per-vertex
  scan is needed at decision time;
* forwarding replicates the reference node algorithms *exactly*,
  including the CONGEST top-``k`` rule's subtle slice semantics: the
  reference picks the top-``k`` eligible origins **before** dropping
  already-sent ones, so a vertex whose leaders were already forwarded
  stays silent even when lower-ranked entries were not;
* messages are never materialised: a round's traffic is a list of
  ``(sender, origin, distance)`` broadcast records, delivered by
  scanning the sender's live CSR row.

:class:`LiveTopology` tracks the shrinking vertex set :math:`G_t`
(byte mask + live-degree array maintained incrementally),
:func:`announce_round` implements the shared "joiners tell their
neighbours and halt" round, including the reference engine's
dropped-message accounting for messages addressed to co-joiners, and
:class:`BatchPhases` is the shell of the EN/LS phase executors.
"""

from __future__ import annotations

import math
from array import array
from operator import sub
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Sequence, Tuple

from ..graphs import _kernel
from .core import BROADCAST_WORDS, BatchEngine, first_live_edge
from .numpy_flood import NumpyFlood

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graphs.graph import Graph
    from ..telemetry.causality import CausalLog
    from ..telemetry.rounds import RoundStream

__all__ = [
    "BROADCAST_WORDS",
    "BatchPhases",
    "LiveTopology",
    "ShiftedFlood",
    "announce_round",
    "flood_epoch",
]

_NEG_INF = -math.inf


class LiveTopology:
    """The shrinking live-vertex structure shared by multi-phase runs.

    Keeps the 0/1 ``live`` byte mask, the ascending ``live_list`` and the
    per-vertex live degree (broadcast fan-out in the current phase), all
    updated incrementally as blocks are carved out.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        n = graph.num_vertices
        self.live = bytearray(b"\x01") * n
        self.live_list: List[int] = list(range(n))
        # Every vertex is live, so each live degree is a CSR row length.
        if _kernel.numpy_enabled():
            indptr = graph._numpy_csr()[0]
            self.live_deg = _kernel.as_long_array(indptr[1:] - indptr[:-1])
        else:
            indptr = graph.csr()[0]
            self.live_deg = array("l", map(sub, indptr[1:], indptr[:-1]))

    def remove(self, vertices: Iterable[int]) -> None:
        """Carve ``vertices`` out of the live set, updating degrees."""
        removed = set(vertices)
        if not removed:
            return
        live = self.live
        for v in removed:
            live[v] = 0
        indptr, indices = self.graph.csr()
        live_deg = self.live_deg
        for v in removed:
            for position in range(indptr[v], indptr[v + 1]):
                w = indices[position]
                if live[w]:
                    live_deg[w] -= 1
        self.live_list = [v for v in self.live_list if v not in removed]


class ShiftedFlood:
    """One broadcast epoch over the current live subgraph.

    Parameters
    ----------
    engine:
        The :class:`BatchEngine` doing round/stats bookkeeping.
    topology:
        The live-vertex structure; only live vertices inject, relay or
        receive.
    values:
        ``origin -> injected value`` (float radii for EN/MPX, int radii
        for LS) for every live vertex.
    caps:
        ``origin -> int`` broadcast range: a value may travel to
        distance ``caps[origin]`` (``⌊r⌋`` for EN/MPX, ``r`` for LS).
    policy:
        ``"full"`` forwards every newly improved entry (LOCAL-style);
        an integer ``k`` applies the CONGEST top-``k`` rule (2 for EN's
        top-two mode, 1 for MPX's top-one mode).
    first_round_delivered:
        Messages already in flight into this epoch's round 1 (the
        previous phase's announce messages), counted as delivered there.
    """

    def __init__(
        self,
        engine: BatchEngine,
        topology: LiveTopology,
        values: Mapping[int, float],
        caps: Mapping[int, int],
        policy,
        first_round_delivered: int = 0,
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.values = values
        self.caps = caps
        self.policy = policy
        self.words = BROADCAST_WORDS
        self.first_round_delivered = first_round_delivered
        graph = topology.graph
        n = graph.num_vertices
        self._n = n
        self._indptr, self._indices = graph.csr()
        # Packed per-(vertex, origin) distances: key = vertex * n + origin.
        self.entries: Dict[int, int] = {}
        # Streaming decision summaries, indexed by vertex.
        self.best_value = [_NEG_INF] * n
        self.best_origin = [-1] * n
        self.second_value = [_NEG_INF] * n
        self.num_entries = [0] * n
        self.min_origin = [n] * n
        self.min_shifted = [_NEG_INF] * n
        # Forwarding state.
        self._sent: set[int] = set()
        self._candidates: Dict[int, List[int]] = {}
        self._pending_count = 0
        for v in topology.live_list:
            value = values[v]
            self.entries[v * n + v] = 0
            self.best_value[v] = value
            self.best_origin[v] = v
            self.num_entries[v] = 1
            self.min_origin[v] = v
            self.min_shifted[v] = value
            if policy != "full" and caps[v] >= 1:
                self._candidates[v] = [v]

    # ------------------------------------------------------------------
    # Epoch execution
    # ------------------------------------------------------------------
    def run(self, budget: int) -> None:
        """Execute rounds ``1 .. budget + 1``: broadcasts plus the final
        merge round in which the decision inputs become complete."""
        engine = self.engine
        outgoing: List[Tuple[int, int, int]] = []
        for round_in_phase in range(1, budget + 2):
            engine.begin_round()
            if round_in_phase == 1 and self.first_round_delivered:
                engine.deliver(self.first_round_delivered)
            updated = self._deliver(outgoing)
            if round_in_phase == 1:
                outgoing = self._initial_sends() if budget >= 1 else []
            elif round_in_phase <= budget:
                if self.policy == "full":
                    outgoing = self._send_full(updated)
                else:
                    outgoing = self._send_topk(sorted(updated))
            else:
                outgoing = []

    def _initial_sends(self) -> List[Tuple[int, int, int]]:
        """Round 1: every live vertex with range ``>= 1`` forwards its own
        value — under *any* policy, since its sole entry is trivially the
        top candidate and nothing has been sent yet."""
        engine = self.engine
        n, caps = self._n, self.caps
        topk = self.policy != "full"
        sent = self._sent
        live_deg = self.topology.live_deg
        outgoing: List[Tuple[int, int, int]] = []
        messages = 0
        senders = 0
        offender_sender = -1
        for v in self.topology.live_list:
            if caps[v] < 1:
                continue
            if topk:
                sent.add(v * n + v)
            outgoing.append((v, v, 0))
            if live_deg[v]:
                messages += live_deg[v]
                senders += 1
                if offender_sender < 0:
                    offender_sender = v
        engine.account_sends(
            messages,
            self.words * messages,
            self.words if messages else 0,
            self._first_live_edge(offender_sender) if messages else None,
            senders=senders,
        )
        self._pending_count = messages
        return outgoing

    # ------------------------------------------------------------------
    # Delivery + streaming merge
    # ------------------------------------------------------------------
    def _deliver(self, outgoing: Sequence[Tuple[int, int, int]]):
        """Deliver last round's broadcasts; returns the updated vertices
        (top-``k`` policy: a set) or the new frontier (full policy).

        Order-oblivious by construction: every streaming merge below is
        a commutative max/min with a deterministic id tie-break, so any
        permutation of ``outgoing`` leaves the decision arrays
        (``best_*``, ``second_value``, ``min_*``, ``num_entries``)
        identical (``tests/engine/test_broadcast_order.py``).  This is
        the same property that lets the async engine deliver the
        reference protocols' traffic in adversarial arrival order
        without changing decompositions (``docs/async.md``).
        """
        engine = self.engine
        if self._pending_count:
            engine.deliver(self._pending_count)
            self._pending_count = 0
        full = self.policy == "full"
        updated_set: set[int] = set()
        frontier: List[Tuple[int, int, int]] = []
        if not outgoing:
            return frontier if full else updated_set
        if engine.causal is not None:
            self._log_deliveries(outgoing)
        n = self._n
        indptr, indices = self._indptr, self._indices
        live = self.topology.live
        entries = self.entries
        values, caps = self.values, self.caps
        best_value, best_origin = self.best_value, self.best_origin
        second_value, num_entries = self.second_value, self.num_entries
        min_origin, min_shifted = self.min_origin, self.min_shifted
        candidates = self._candidates
        for sender, origin, distance in outgoing:
            carried = distance + 1
            value = values[origin]
            shifted = value - carried
            cap = caps[origin]
            eligible = carried + 1 <= cap
            for position in range(indptr[sender], indptr[sender + 1]):
                w = indices[position]
                if not live[w]:
                    continue
                key = w * n + origin
                known = entries.get(key)
                if known is not None and carried >= known:
                    continue
                entries[key] = carried
                if known is None:
                    num_entries[w] += 1
                # -- streaming top-two with the reference tie-breaks --
                current_best = best_origin[w]
                if origin == current_best:
                    best_value[w] = shifted
                elif shifted > best_value[w] or (
                    shifted == best_value[w] and origin < current_best
                ):
                    if second_value[w] < best_value[w]:
                        second_value[w] = best_value[w]
                    best_value[w] = shifted
                    best_origin[w] = origin
                elif shifted > second_value[w]:
                    second_value[w] = shifted
                # -- streaming minimum-id origin (Linial–Saks rule) --
                if origin < min_origin[w]:
                    min_origin[w] = origin
                    min_shifted[w] = shifted
                elif origin == min_origin[w]:
                    min_shifted[w] = shifted
                # -- forwarding bookkeeping --
                if full:
                    if eligible:
                        frontier.append((w, origin, carried))
                else:
                    updated_set.add(w)
                    if eligible:
                        row = candidates.get(w)
                        if row is None:
                            candidates[w] = [origin]
                        else:
                            row.append(origin)
        return frontier if full else updated_set

    def _log_deliveries(self, outgoing: Sequence[Tuple[int, int, int]]) -> None:
        """Causal parent edges for one delivered broadcast column.

        Provenance is derived per sender from the columnar records: a
        sender with ``c`` outgoing ``(sender, origin, distance)``
        records put ``c`` messages on every live CSR neighbour last
        round, so the edge log is ``(sender -> w, count=c)`` for each
        live ``w`` — emitted sorted by ``(receiver, sender)``, exactly
        the reference engine's ascending-receiver, sender-sorted-inbox
        order.  Merge improvements are irrelevant: the reference engine
        delivers (and logs) every inbox message whether or not it
        updates the decision arrays.
        """
        per_sender: Dict[int, int] = {}
        for sender, _origin, _distance in outgoing:
            per_sender[sender] = per_sender.get(sender, 0) + 1
        indptr, indices = self._indptr, self._indices
        live = self.topology.live
        counts: Dict[Tuple[int, int], int] = {}
        for sender, count in per_sender.items():
            for position in range(indptr[sender], indptr[sender + 1]):
                w = indices[position]
                if live[w]:
                    counts[(w, sender)] = count
        causal = self.engine.causal
        recv_round = self.engine.round
        for (w, sender) in sorted(counts):
            causal.message(sender, recv_round - 1, w, recv_round, counts[(w, sender)])

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _send_full(self, frontier: List[Tuple[int, int, int]]):
        engine = self.engine
        live_deg = self.topology.live_deg
        counts: Dict[int, int] = {}
        messages = 0
        for sender, _origin, _distance in frontier:
            counts[sender] = counts.get(sender, 0) + 1
            messages += live_deg[sender]
        peak_count = 0
        peak_sender = -1
        for sender, count in counts.items():
            if live_deg[sender] and (
                count > peak_count or (count == peak_count and sender < peak_sender)
            ):
                peak_count, peak_sender = count, sender
        # Frontier = distinct senders with live fan-out (matches the
        # reference engine, where a sender with no live neighbours puts
        # nothing in the outbox); counted only when a stream listens.
        senders = (
            sum(1 for sender in counts if live_deg[sender])
            if engine.rounds is not None
            else 0
        )
        engine.account_sends(
            messages,
            self.words * messages,
            self.words * peak_count,
            self._first_live_edge(peak_sender) if peak_count else None,
            senders=senders,
        )
        self._pending_count = messages
        return frontier

    def _send_topk(self, armed: Sequence[int]):
        engine = self.engine
        n, k = self._n, self.policy
        entries, values = self.entries, self.values
        candidates, sent = self._candidates, self._sent
        live_deg = self.topology.live_deg
        outgoing: List[Tuple[int, int, int]] = []
        messages = 0
        senders = 0
        peak_count = 0
        peak_sender = -1
        for v in armed:
            row = candidates.get(v)
            if not row:
                continue
            base = v * n
            if len(row) == 1:  # common case: only the vertex's own entry
                origin = row[0]
                key = base + origin
                if key in sent:
                    continue
                sent.add(key)
                outgoing.append((v, origin, entries[key]))
                if live_deg[v]:
                    messages += live_deg[v]
                    senders += 1
                    if peak_count == 0:
                        peak_count, peak_sender = 1, v
                continue
            top1 = top2 = -1
            val1 = val2 = _NEG_INF
            for origin in row:
                if origin == top1 or origin == top2:
                    continue
                shifted = values[origin] - entries[base + origin]
                if shifted > val1 or (shifted == val1 and origin < top1):
                    top2, val2 = top1, val1
                    top1, val1 = origin, shifted
                elif k > 1 and (shifted > val2 or (shifted == val2 and origin < top2)):
                    top2, val2 = origin, shifted
            sends = 0
            for origin in (top1, top2)[:k]:
                if origin < 0:
                    continue
                key = base + origin
                if key in sent:
                    continue
                sent.add(key)
                outgoing.append((v, origin, entries[key]))
                sends += 1
            if sends and live_deg[v]:
                messages += sends * live_deg[v]
                senders += 1
                if sends > peak_count:
                    peak_count, peak_sender = sends, v
        engine.account_sends(
            messages,
            self.words * messages,
            self.words * peak_count,
            self._first_live_edge(peak_sender) if peak_count else None,
            senders=senders,
        )
        self._pending_count = messages
        return outgoing

    def _first_live_edge(self, sender: int) -> Tuple[int, int] | None:
        return first_live_edge(self.topology.graph, self.topology.live, sender)


def flood_epoch() -> type:
    """The flood epoch to run: :class:`NumpyFlood` whenever the numpy
    kernel is enabled, :class:`ShiftedFlood` otherwise.

    Read at call time, so toggling ``repro.graphs._kernel.USE_NUMPY``
    switches it at once.  There is no size threshold and no fallback
    under telemetry: both epochs emit identical round streams and causal
    logs, so a traced run times the same kernel as an untraced one.
    """
    return NumpyFlood if _kernel.numpy_enabled() else ShiftedFlood


def announce_round(
    engine: BatchEngine,
    topology: LiveTopology,
    joined: Sequence[int],
) -> int:
    """The shared "joiners announce and halt" round of EN/LS.

    Every joiner broadcasts a 1-word ``left`` notice to its live
    neighbours (co-joiners included — the reference engine counts those
    as sent, then drops them at flush because the receiver has halted)
    and halts.  Prunes ``joined`` out of ``topology`` and returns the
    number of notices that survivors will receive, to be credited as
    delivered in the next phase's first round.
    """
    engine.begin_round()
    indptr, indices = engine.graph.csr()
    live = topology.live
    live_deg = topology.live_deg
    joined_set = set(joined)
    messages = 0
    senders = 0
    carried_over = 0
    offender: Tuple[int, int] | None = None
    for v in sorted(joined_set):
        if live_deg[v]:
            messages += live_deg[v]
            senders += 1
        for position in range(indptr[v], indptr[v + 1]):
            w = indices[position]
            if not live[w]:
                continue
            if offender is None:
                offender = (v, w)
            if w not in joined_set:
                carried_over += 1
    engine.account_sends(
        messages, messages, 1 if messages else 0, offender, senders=senders
    )
    engine.halt(joined_set)
    causal = engine.causal
    if causal is not None:
        # The notices surviving to non-joined neighbours are delivered
        # at the next phase's first round; the reference engine logs
        # them there (ascending receiver, sender-sorted), after this
        # round's halt records — same sequence here.  Notices to
        # co-joiners never get logged: the reference drops them at
        # flush because the receiver has halted.
        announce_round_number = engine.round
        pairs = []
        for v in sorted(joined_set):
            for position in range(indptr[v], indptr[v + 1]):
                w = indices[position]
                if live[w] and w not in joined_set:
                    pairs.append((w, v))
        for w, v in sorted(pairs):
            causal.message(v, announce_round_number, w, announce_round_number + 1)
    topology.remove(joined_set)
    return carried_over


class BatchPhases:
    """Shell of the columnar EN/LS phase executors.

    Holds the run's :class:`BatchEngine` and :class:`LiveTopology` and the
    announce messages in flight into the next phase.  A subclass's
    ``run_phase`` floods (:meth:`_flood`), applies its decision rule to
    the flood's summaries, and announces (:meth:`_announce`).
    """

    def __init__(
        self,
        graph: "Graph",
        word_budget: int | None = None,
        rounds: "RoundStream | None" = None,
        causal: "CausalLog | None" = None,
    ) -> None:
        self.engine = BatchEngine(graph, word_budget, rounds=rounds, causal=causal)
        self.topology = LiveTopology(graph)
        self._carry = 0  # announce messages in flight into the next phase

    @property
    def stats(self):
        """The accumulated :class:`NetworkStats` of the run so far."""
        return self.engine.stats

    def finish(self) -> None:
        """Flush the last round to an attached round stream."""
        self.engine.finish_rounds()

    def _flood(self, radii, caps, policy, budget: int):
        """Rounds ``1 .. budget + 1`` of a phase: broadcasts and the merge."""
        flood = flood_epoch()(
            self.engine,
            self.topology,
            radii,
            caps,
            policy,
            first_round_delivered=self._carry,
        )
        flood.run(budget)
        return flood

    def _announce(self, joined: Dict[int, int]) -> Dict[int, int]:
        """Round ``budget + 2``: the joiners announce and halt."""
        self._carry = announce_round(self.engine, self.topology, list(joined))
        return joined
