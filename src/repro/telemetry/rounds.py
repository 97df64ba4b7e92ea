"""Per-round metrics streams: one identically-keyed row per round.

A :class:`RoundStream` subscribes to an engine —
``SyncNetwork(rounds=...)``, ``AsyncNetwork(rounds=...)`` or
``BatchEngine(..., rounds=...)`` — and emits one record per executed
round with the keys of :data:`ROUND_KEYS`:

* ``round`` — the global round number (1-based; the sync engine's
  round-0 ``on_start`` flush is recorded only if it carried traffic);
* ``live`` — nodes not yet halted at the end of the round;
* ``frontier`` — distinct vertices that sent at least one message;
* ``messages`` / ``words`` — traffic sent this round;
* ``delivered`` — messages handed to live receivers this round;
* ``halts`` — nodes that halted this round.

Traffic columns are **deltas of the engine's own**
:class:`~repro.distributed.metrics.NetworkStats` totals, so the stream
can never disagree with the stats the equivalence tests pin — and the
sync/batch backends therefore produce row-identical streams on a seeded
run (``tests/telemetry/test_rounds.py``), differing only in the
``backend`` attribute the driver stamps on the stream.

Every engine feeds the stream from one place, the
:class:`~repro.distributed.metrics.RoundBooks` it extends: the books
note each round's frontier (``account_sends``) and halts
(``record_halts``) and emit its row.  Only the emission point differs:
the sync and async engines emit at the end of each round's outbox
flush; the batch engine emits each round lazily at the *next*
``begin_round()`` plus an explicit ``finish_rounds()`` for the last
round (the driver calls it once after the phase loop) —
:meth:`RoundStream.end_round` is idempotent per round, so mixed calls
never double-emit.

Per-round **wall time** never appears in the records — it would differ
across backends and break the row-identity contract above.  Instead,
each stream feeds the interval between consecutive emissions into the
trace's ``<stream>.round_seconds``
:class:`~repro.telemetry.hist.LogHistogram` (for the batch engine's
lazy flush that interval is exactly one round's compute), so p50/p99
round latency survives as a mergeable histogram while the rows stay
bit-comparable.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..distributed.metrics import NetworkStats
    from .core import Telemetry

__all__ = ["ROUND_KEYS", "RoundStream"]

#: The shared per-round schema, identical across backends.
ROUND_KEYS = ("round", "live", "frontier", "messages", "words", "delivered", "halts")


class RoundStream:
    """One protocol run's per-round metrics (see module docstring)."""

    __slots__ = (
        "stream",
        "attrs",
        "records",
        "_telemetry",
        "_prev_messages",
        "_prev_words",
        "_prev_delivered",
        "_frontier",
        "_halts",
        "_flushed_round",
        "_extra_names",
        "_extras",
        "_hist",
        "_last_emit",
    )

    def __init__(self, telemetry: "Telemetry", stream: str, attrs: dict) -> None:
        self.stream = stream
        self.attrs = attrs
        self.records: list[dict] = []
        self._telemetry = telemetry
        self._prev_messages = 0
        self._prev_words = 0
        self._prev_delivered = 0
        self._frontier = 0
        self._halts = 0
        self._flushed_round = -1
        self._extra_names: tuple = ()
        self._extras: dict = {}
        self._hist = None  # lazy: created at the first emitted round
        self._last_emit = perf_counter()

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def enable_extras(self, *names: str) -> None:
        """Extend the per-round schema with engine-specific columns.

        The async engine adds its adversary counters (``delayed`` /
        ``dropped`` / ``reordered``) this way — but only on runs where a
        non-FIFO schedule or fault plan is active, so FIFO fault-free
        async streams stay row-identical to the sync engine's (the
        bit-identity contract strips only the ``backend`` attribute).
        """
        self._extra_names = names
        self._extras = dict.fromkeys(names, 0)

    def note_extras(self, **counts: int) -> None:
        """Accumulate extra-column values for the current round."""
        for name, value in counts.items():
            self._extras[name] = self._extras.get(name, 0) + value
    def note_frontier(self, senders: int) -> None:
        """Record ``senders`` distinct sending vertices this round."""
        self._frontier += senders

    def note_halts(self, count: int) -> None:
        """Record ``count`` nodes newly halted this round."""
        self._halts += count

    def end_round(self, round_number: int, stats: "NetworkStats", live: int) -> None:
        """Emit the row for ``round_number`` (idempotent per round).

        ``stats`` is the engine's cumulative accumulator — the row's
        traffic columns are the deltas since the previous emitted round.
        """
        if round_number <= self._flushed_round:
            return
        now = perf_counter()
        elapsed = now - self._last_emit
        self._last_emit = now
        messages = stats.messages_sent - self._prev_messages
        words = stats.words_sent - self._prev_words
        delivered = stats.messages_delivered - self._prev_delivered
        frontier, halts = self._frontier, self._halts
        extras = dict(self._extras)
        self._prev_messages = stats.messages_sent
        self._prev_words = stats.words_sent
        self._prev_delivered = stats.messages_delivered
        self._frontier = 0
        self._halts = 0
        if self._extra_names:
            self._extras = dict.fromkeys(self._extra_names, 0)
        self._flushed_round = round_number
        if round_number == 0 and not (
            messages or words or delivered or frontier or halts
            or any(extras.values())
        ):
            # The sync engine's on_start flush when nothing was sent —
            # the batch engine has no round 0 at all.
            return
        record = {
            "kind": "round",
            "stream": self.stream,
            **self.attrs,
            "round": round_number,
            "live": live,
            "frontier": frontier,
            "messages": messages,
            "words": words,
            "delivered": delivered,
            "halts": halts,
        }
        if self._extra_names:
            record.update(extras)
        if self._hist is None:
            self._hist = self._telemetry.histogram(f"{self.stream}.round_seconds")
        self._hist.record(elapsed)
        # Records land in both the per-stream view (used by the
        # cross-backend equality checks) and the shared collector; both
        # respect the telemetry object's bound.
        if len(self.records) < self._telemetry.limit:
            self.records.append(record)
        else:
            self._telemetry.truncated = True
        self._telemetry._keep(self._telemetry.rounds, record)
