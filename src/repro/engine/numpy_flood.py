"""The shifted-value flood epoch in numpy.

:class:`NumpyFlood` runs the epoch of
:class:`~repro.engine.broadcast.ShiftedFlood` — same constructor, same
``run(budget)``, same decision summaries, and bit-identical
:class:`~repro.distributed.metrics.NetworkStats`, round streams and
causal logs — with one vectorised merge per round in place of a
per-message Python loop.  A round gathers the senders' CSR rows, drops
dead receivers and dedupes the int64 keys ``w * n + o`` by sort and
neighbour diff (:func:`~repro.graphs._kernel.frontier_keys`); the full
policy also drops the keys of the last two rounds
(:func:`~repro.graphs._kernel.drop_seen`).  The new entries are merged
per receiver with the kernel's per-run reductions (``run_heads``,
``run_lengths``, ``run_argmax``).  The centralized carve
(:func:`~repro.core.carving.carve_block`) builds on the same helpers.
Traffic counters come from the live degrees in bulk.

No per-(vertex, origin) table is kept.  Three invariants of the epoch
make that exact:

* **fixed distance per round** — every record delivered in round ``r``
  carries distance ``r - 1``, so an entry never improves after it first
  arrives;
* **full forwarding** — each origin's flood is a BFS of the live
  subgraph, so an arrival ``(w, o)`` repeats an entry iff ``w == o`` or
  it arrived in one of the two previous rounds; their sorted keys are
  the only memory;
* **top-k forwarding** — an entry can enter a vertex's eligible top-k
  only in the round it arrives (later arrivals only push it down), so
  the reference rule "pick the top k, then drop those already sent" is
  "send what entered a slot this round".  A vertex keeps its k slots.
  An origin that arrives again was eligible when it first arrived (it
  has travelled further since), so unless it still holds a slot, k
  eligible entries beat it and its smaller repeat value; an eligible
  best origin always holds the first slot, and the minimum-id origin
  only moves to a smaller origin.  A repeat arrival thus changes nothing
  unless its origin is the vertex itself or in a slot, and is checked
  against those alone.  ``num_entries`` saturates at 2 (only ``> 1`` is
  read).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Tuple

from ..graphs._kernel import _np as np
from ..graphs._kernel import (
    drop_seen,
    frontier_keys,
    gather_frontier_rows,
    run_argmax,
    run_heads,
    run_lengths,
)
from .core import BROADCAST_WORDS, BatchEngine, first_live_edge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .broadcast import LiveTopology

__all__ = ["NumpyFlood"]

_EMPTY = np.empty(0, dtype=np.int64) if np is not None else None


def _as_list(array_name: str) -> property:
    return property(lambda self: getattr(self, array_name).tolist())


class NumpyFlood:
    """One broadcast epoch over the current live subgraph, in numpy.

    The parameters are :class:`~repro.engine.broadcast.ShiftedFlood`'s.
    The decision summaries (``best_value``, ``best_origin``,
    ``second_value``, ``num_entries``, ``min_origin``, ``min_shifted``)
    read as lists.  A round's traffic is a column ``(senders, origins)``
    of int64 arrays, sorted by sender.
    """

    def __init__(
        self,
        engine: BatchEngine,
        topology: "LiveTopology",
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
        self._indptr, self._indices = graph._numpy_csr()
        self._live = np.frombuffer(topology.live, dtype=np.uint8)
        self._live_deg = np.frombuffer(topology.live_deg, dtype=np.dtype("l"))
        self._pending_count = 0
        live_list = topology.live_list
        live = np.array(live_list, dtype=np.int64)
        self._live_list = live
        self._value = np.full(n, -np.inf)
        self._value[live] = list(map(values.__getitem__, live_list))
        self._cap = np.zeros(n, dtype=np.int64)
        self._cap[live] = list(map(caps.__getitem__, live_list))
        # Decision summaries, indexed by vertex.
        self._best_value = self._value.copy()
        self._best_origin = np.full(n, -1, dtype=np.int64)
        self._best_origin[live] = live
        self._second_value = np.full(n, -np.inf)
        self._num_entries = np.zeros(n, dtype=np.int64)
        self._num_entries[live] = 1
        self._min_origin = np.full(n, n, dtype=np.int64)
        self._min_origin[live] = live
        self._min_shifted = self._value.copy()
        if policy == "full":
            # Keys of the entries that arrived in the last two rounds.
            self._recent = (_EMPTY, _EMPTY)
        else:
            # Slot j holds each vertex's (j+1)-th largest eligible entry
            # (origin -1 = empty); initially the vertex's own value.
            self._slot_origin = [np.full(n, -1, dtype=np.int64) for _ in range(policy)]
            self._slot_value = [np.full(n, -np.inf) for _ in range(policy)]
            own = live[self._cap[live] >= 1]
            self._slot_origin[0][own] = own
            self._slot_value[0][own] = self._value[own]

    # The decision summaries the EN, LS and MPX rules read, as lists.
    best_value = _as_list("_best_value")
    best_origin = _as_list("_best_origin")
    second_value = _as_list("_second_value")
    num_entries = _as_list("_num_entries")
    min_origin = _as_list("_min_origin")
    min_shifted = _as_list("_min_shifted")

    # ------------------------------------------------------------------
    # Epoch execution
    # ------------------------------------------------------------------
    def run(self, budget: int) -> None:
        """Execute rounds ``1 .. budget + 1``: broadcasts plus the final
        merge round in which the decision inputs become complete."""
        engine = self.engine
        column = (_EMPTY, _EMPTY)
        for round_in_phase in range(1, budget + 2):
            engine.begin_round()
            if round_in_phase == 1 and self.first_round_delivered:
                engine.deliver(self.first_round_delivered)
            arrived = self._deliver(column, round_in_phase - 1)
            if round_in_phase == 1:
                # Every live vertex with range >= 1 sends its own value.
                own = self._live_list[self._cap[self._live_list] >= 1]
                column = (own, own) if budget >= 1 else (_EMPTY, _EMPTY)
            elif round_in_phase <= budget:
                column = arrived
            else:
                column = (_EMPTY, _EMPTY)
            if round_in_phase <= budget:
                self._account(column[0])

    def _deliver(self, column: Tuple, carried: int) -> Tuple:
        """Deliver last round's ``column`` — every record arrives at
        distance ``carried`` — and merge the new entries.

        Returns the column this round forwards: the new eligible entries
        (full policy) or the new entries that took a top-k slot.  The
        merge is a function of the *set* of records, whatever their order
        (``tests/engine/test_broadcast_order.py``); only the causal log
        reads runs of equal senders, which the epoch's columns keep.
        """
        engine = self.engine
        if self._pending_count:
            engine.deliver(self._pending_count)
            self._pending_count = 0
        senders, origins = column
        if len(senders) and engine.causal is not None:
            self._log_deliveries(senders)
        keys = frontier_keys(
            self._indptr, self._indices, self._live, senders, origins, self._n, drop_own=True
        )
        if self.policy == "full":
            keys = drop_seen(keys, self._recent)
            self._recent = (keys, self._recent[0])
        w, o = np.divmod(keys, self._n)
        if self.policy != "full":
            repeat = np.zeros(len(o), dtype=bool)
            for slot in self._slot_origin:
                repeat |= slot[w] == o
            w, o = w[~repeat], o[~repeat]
        if not len(w):
            return (_EMPTY, _EMPTY)
        shifted = self._value[o] - carried
        self._merge(w, o, shifted)
        eligible = self._cap[o] >= carried + 1
        if self.policy == "full":
            return (w[eligible], o[eligible])
        return self._fill_slots(w[eligible], o[eligible], shifted[eligible])

    def _merge(self, w, o, shifted) -> None:
        """Fold new entries — sorted by ``(receiver, origin)`` — into the
        per-vertex summaries, with the reference tie-breaks: best is the
        largest value (smallest origin on ties), second the largest value
        of any other origin, min the smallest origin."""
        heads = run_heads(w)
        receiver = w[heads]
        sizes = run_lengths(heads, len(w))
        # Origins ascend within a receiver's run: its head is the minimum.
        first = o[heads]
        lower = first < self._min_origin[receiver]
        self._min_origin[receiver[lower]] = first[lower]
        self._min_shifted[receiver[lower]] = shifted[heads[lower]]
        top_at = run_argmax(shifted, heads, sizes)
        top, top_origin = shifted[top_at], o[top_at]
        rest = shifted.copy()
        rest[top_at] = -np.inf
        runner_up = np.maximum.reduceat(rest, heads)
        best = self._best_value[receiver]
        best_origin = self._best_origin[receiver]
        second = self._second_value[receiver]
        wins = (top > best) | ((top == best) & (top_origin < best_origin))
        self._second_value[receiver] = np.where(
            wins,
            np.maximum(np.maximum(second, best), runner_up),
            np.maximum(second, top),
        )
        self._best_value[receiver] = np.where(wins, top, best)
        self._best_origin[receiver] = np.where(wins, top_origin, best_origin)
        if self.policy == "full":
            self._num_entries[receiver] += sizes
        else:
            self._num_entries[receiver] = 2

    def _fill_slots(self, w, o, shifted) -> Tuple:
        """Top-k policy: merge new eligible entries — sorted by
        ``(receiver, origin)`` — into the slots; returns the entries that
        took a slot, this round's sends.

        Each receiver's k best entrants come from k arg-max passes over
        the runs, and merge with its k slots as two sorted lists merge,
        under the ``(value, -origin)`` order.
        """
        last_value = self._slot_value[-1][w]
        last_origin = self._slot_origin[-1][w]
        # Only an entry that beats its receiver's k-th slot can take a slot.
        enters = (shifted > last_value) | ((shifted == last_value) & (o < last_origin))
        w, o, shifted = w[enters], o[enters], shifted[enters]
        if not len(w):
            return (_EMPTY, _EMPTY)
        heads = run_heads(w)
        receiver = w[heads]
        sizes = run_lengths(heads, len(w))
        k = self.policy
        # Best first; a run with fewer than k entrants pads with -inf.
        left = shifted.copy()
        pick_at, pick_value = [], []
        for _ in range(k):
            at = run_argmax(left, heads, sizes)
            pick_at.append(at)
            pick_value.append(left[at])
            left[at] = -np.inf
        pick_at, pick_value = np.array(pick_at), np.array(pick_value)
        pick_origin = o[pick_at]
        # Empty slots hold (-inf, -1), so they lose to any entrant and win
        # over padding.
        slot_value = np.array([slot[receiver] for slot in self._slot_value])
        slot_origin = np.array([slot[receiver] for slot in self._slot_origin])
        runs = np.arange(len(receiver))
        i = np.zeros(len(receiver), dtype=np.int64)  # next pick
        j = np.zeros(len(receiver), dtype=np.int64)  # next slot
        sent = np.empty((len(receiver), k), dtype=np.int64)
        for rank in range(k):
            a_value, a_origin = pick_value[i, runs], pick_origin[i, runs]
            b_value, b_origin = slot_value[j, runs], slot_origin[j, runs]
            take = (a_value > b_value) | ((a_value == b_value) & (a_origin < b_origin))
            self._slot_value[rank][receiver] = np.where(take, a_value, b_value)
            self._slot_origin[rank][receiver] = np.where(take, a_origin, b_origin)
            sent[:, rank] = np.where(take, pick_at[i, runs], -1)
            i += take
            j += ~take
        sent = sent.ravel()
        sent = sent[sent >= 0]
        return (w[sent], o[sent])

    # ------------------------------------------------------------------
    # Accounting and provenance
    # ------------------------------------------------------------------
    def _account(self, senders) -> None:
        """Record one round's sends: each record of a sender crosses each
        of its live edges; the peak edge load is the largest per-sender
        record count (smallest sender on ties)."""
        messages = peak = loud_senders = 0
        offender = None
        if len(senders):
            heads = run_heads(senders)
            sender = senders[heads]
            count = run_lengths(heads, len(senders))
            degree = self._live_deg[sender]
            messages = int(np.dot(count, degree))
            loud = np.where(degree > 0, count, 0)
            loud_senders = int(np.count_nonzero(loud))
            if loud_senders:
                top = int(loud.argmax())
                peak = int(loud[top])
                offender = first_live_edge(
                    self.topology.graph, self.topology.live, int(sender[top])
                )
        self.engine.account_sends(
            messages,
            self.words * messages,
            self.words * peak,
            offender,
            senders=loud_senders,
        )
        self._pending_count = messages

    def _log_deliveries(self, senders) -> None:
        """Causal parent edges for one delivered column: a sender with
        ``c`` records puts ``c`` messages on each live edge, logged as
        ``(sender -> w, count=c)`` sorted by ``(receiver, sender)``."""
        heads = run_heads(senders)
        sender = senders[heads]
        count = run_lengths(heads, len(senders))
        receivers, fanout = gather_frontier_rows(self._indptr, self._indices, sender)
        if receivers is None:
            return
        sender = np.repeat(sender, fanout)
        count = np.repeat(count, fanout)
        live = self._live[receivers] != 0
        receivers, sender, count = receivers[live], sender[live], count[live]
        order = np.lexsort((sender, receivers))
        causal = self.engine.causal
        recv_round = self.engine.round
        for w, s, c in zip(
            receivers[order].tolist(), sender[order].tolist(), count[order].tolist()
        ):
            causal.message(s, recv_round - 1, w, recv_round, c)

