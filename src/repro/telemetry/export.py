"""Chrome trace-event export: make any trace file Perfetto-clickable.

:func:`chrome_trace` converts the records of one trace (as returned by
:func:`~repro.telemetry.sink.read_trace`, or a live collector's lists)
into the Chrome trace-event JSON object format —
``{"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}``
— loadable in ``ui.perfetto.dev`` or ``chrome://tracing``.  The mapping
is **lossless**: every input record lands in the output somewhere.

* **span** records become complete (``"ph": "X"``) events on the
  ``spans`` process, placed at their real wall-clock offset (the
  collector stamps each span's ``start`` relative to the trace epoch;
  traces from before that field are laid out end-to-end instead).
  Attributes, counters, status and self time ride in ``args``.
* **round** records become counter (``"ph": "C"``) events on the
  ``rounds`` process, one track per stream, on a synthetic clock of
  :data:`ROUND_TICK_US` µs per protocol round (round records carry no
  wall time by design — the cross-backend bit-identity contract).  The
  numeric columns (live/frontier/messages/... plus the async engine's
  delayed/dropped/reordered extras) chart directly; the stream's
  non-numeric attributes (``backend``, ``mode``, ...) are emitted once
  as an instant event per stream.
* **causal** records (:mod:`~repro.telemetry.causality`) become flow
  events on the ``rounds`` process: each message edge is one
  ``"s"``/``"f"`` pair (flow start at the send round's tick, flow end —
  with ``"bp": "e"`` — at the receive round's tick) sharing a unique
  integer ``id``, so Perfetto draws the causal arrows over the round
  counters; halt edges become instant events on the same track.
* **hist**, **profile**, **summary**, **truncated** and **header**
  records are carried under ``otherData`` verbatim — histograms stay
  mergeable after export.

:func:`validate_chrome_trace` is the schema check the tests and the CI
campaign smoke run over exported artifacts.
"""

from __future__ import annotations

import json
from typing import Iterable

__all__ = [
    "ROUND_TICK_US",
    "chrome_trace",
    "export_text",
    "validate_chrome_trace",
]

#: Synthetic round clock: one protocol round = 1 ms of timeline.
ROUND_TICK_US = 1000

# One Chrome "process" per record family keeps the Perfetto UI grouped.
_PID_SPANS = 1
_PID_ROUNDS = 2

_PROCESS_NAMES = {_PID_SPANS: "spans", _PID_ROUNDS: "rounds"}

#: Round-record columns that chart as counter series.
_NON_SERIES_ROUND_KEYS = frozenset(("kind", "stream", "round"))

_VALID_PHASES = frozenset(("X", "C", "i", "M", "s", "f"))


def _micros(seconds: float) -> int:
    return int(round(float(seconds) * 1_000_000))


def _meta(pid: int, tid: int, name: str, args: dict) -> dict:
    return {"name": name, "ph": "M", "pid": pid, "tid": tid, "args": args}


def chrome_trace(records: Iterable[dict]) -> dict:
    """The Chrome trace-event object for one trace's records."""
    events: list[dict] = []
    other: dict = {}
    used_pids: set[int] = set()
    stream_tids: dict[str, int] = {}
    fallback_ts = 0  # pre-`start` traces: lay spans out end-to-end
    flow_id = 0  # unique id shared by each causal "s"/"f" pair

    def stream_tid(stream: str) -> int:
        tid = stream_tids.get(stream)
        if tid is None:
            tid = stream_tids[stream] = len(stream_tids) + 1
            events.append(_meta(_PID_ROUNDS, tid, "thread_name", {"name": stream}))
        return tid

    for record in records:
        kind = record.get("kind")
        if kind == "span":
            used_pids.add(_PID_SPANS)
            duration = _micros(record.get("seconds", 0.0))
            start = record.get("start")
            if start is None:
                ts = fallback_ts
                fallback_ts += duration + 1
            else:
                ts = _micros(start)
            events.append(
                {
                    "name": record.get("path") or record.get("name", "?"),
                    "cat": "span",
                    "ph": "X",
                    "ts": ts,
                    "dur": duration,
                    "pid": _PID_SPANS,
                    "tid": 1,
                    "args": {
                        key: record[key]
                        for key in (
                            "name",
                            "depth",
                            "status",
                            "self_seconds",
                            "attrs",
                            "counters",
                        )
                        if key in record
                    },
                }
            )
        elif kind == "round":
            used_pids.add(_PID_ROUNDS)
            stream = str(record.get("stream", "rounds"))
            tid = stream_tids.get(stream)
            if tid is None:
                tid = stream_tids[stream] = len(stream_tids) + 1
                events.append(
                    _meta(_PID_ROUNDS, tid, "thread_name", {"name": stream})
                )
                # The stream's driver attributes (backend, mode, ...) are
                # constant per stream: carried once, losslessly.
                labels = {
                    key: value
                    for key, value in record.items()
                    if key not in _NON_SERIES_ROUND_KEYS
                    and not isinstance(value, (int, float))
                }
                if labels:
                    events.append(
                        {
                            "name": f"stream:{stream}",
                            "cat": "round",
                            "ph": "i",
                            "s": "t",
                            "ts": 0,
                            "pid": _PID_ROUNDS,
                            "tid": tid,
                            "args": labels,
                        }
                    )
            series = {
                key: value
                for key, value in record.items()
                if key not in _NON_SERIES_ROUND_KEYS
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
            }
            events.append(
                {
                    "name": stream,
                    "cat": "round",
                    "ph": "C",
                    "ts": int(record.get("round", 0)) * ROUND_TICK_US,
                    "pid": _PID_ROUNDS,
                    "tid": tid,
                    "args": series,
                }
            )
        elif kind == "causal":
            used_pids.add(_PID_ROUNDS)
            stream = str(record.get("stream", "causal"))
            tid = stream_tid(stream)
            if record.get("edge") == "halt":
                events.append(
                    {
                        "name": "halt",
                        "cat": "causal",
                        "ph": "i",
                        "s": "t",
                        "ts": int(record.get("round", 0)) * ROUND_TICK_US,
                        "pid": _PID_ROUNDS,
                        "tid": tid,
                        "args": {"node": record.get("node")},
                    }
                )
            else:
                flow_id += 1
                args = {
                    key: record[key]
                    for key in (
                        "send", "recv", "count", "send_time", "arrive",
                        "recv_time", "fault",
                    )
                    if key in record
                }
                common = {
                    "name": "msg",
                    "cat": "causal",
                    "id": flow_id,
                    "pid": _PID_ROUNDS,
                    "tid": tid,
                }
                events.append(
                    {
                        **common,
                        "ph": "s",
                        "ts": int(record.get("send_round", 0)) * ROUND_TICK_US,
                        "args": args,
                    }
                )
                events.append(
                    {
                        **common,
                        "ph": "f",
                        "bp": "e",
                        "ts": int(record.get("recv_round", 0)) * ROUND_TICK_US,
                        "args": args,
                    }
                )
        elif kind == "hist":
            payload = {k: v for k, v in record.items() if k not in ("kind", "name")}
            other.setdefault("hists", {})[str(record.get("name", "?"))] = payload
        elif kind == "profile":
            other["profile"] = {k: v for k, v in record.items() if k != "kind"}
        elif kind == "summary":
            other["summary"] = {k: v for k, v in record.items() if k != "kind"}
        elif kind == "truncated":
            other["truncated_dropped"] = other.get("truncated_dropped", 0) + int(
                record.get("dropped", 0)
            )
        elif kind == "header":
            other["header"] = {k: v for k, v in record.items() if k != "kind"}
        else:  # unknown kinds survive the conversion too (losslessness)
            other.setdefault("unknown_records", []).append(record)

    names = [_meta(pid, 0, "process_name", {"name": _PROCESS_NAMES[pid]})
             for pid in sorted(used_pids)]
    events.sort(key=lambda event: (event.get("ts", 0), event["pid"], event["tid"]))
    return {
        "traceEvents": names + events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def validate_chrome_trace(payload: object) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid trace object.

    Checks the object format's envelope and, per event, the fields the
    trace-event schema requires for the phases this exporter emits
    (``X``/``C``/``i``/``M``/``s``/``f``) — plus JSON-serializability, so
    a payload that validates is guaranteed to load in Perfetto.  Flow
    events must pair up: every flow start (``"s"``) needs a flow end
    (``"f"``) with the same integer ``id`` and vice versa, and every
    non-metadata event needs a non-negative integer timestamp.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    flow_starts: set[int] = set()
    flow_ends: set[int] = set()
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            raise ValueError(f"{where} has unsupported phase {phase!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where} lacks a string name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                raise ValueError(f"{where} lacks an integer {field}")
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"{where} args is not an object")
        if phase == "M":
            continue
        if not isinstance(event.get("ts"), int) or event["ts"] < 0:
            raise ValueError(f"{where} lacks a non-negative integer ts")
        if phase == "X" and (
            not isinstance(event.get("dur"), int) or event["dur"] < 0
        ):
            raise ValueError(f"{where} is a complete event without a valid dur")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            raise ValueError(f"{where} is an instant event without a valid scope")
        if phase in ("s", "f"):
            flow = event.get("id")
            if not isinstance(flow, int) or isinstance(flow, bool):
                raise ValueError(f"{where} is a flow event without an integer id")
            (flow_starts if phase == "s" else flow_ends).add(flow)
    unpaired = flow_starts.symmetric_difference(flow_ends)
    if unpaired:
        raise ValueError(
            "flow events are not paired: ids "
            f"{sorted(unpaired)[:5]} lack a matching start/end"
        )
    try:
        json.dumps(payload)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"trace payload is not JSON-serializable: {exc}") from exc


def export_text(records: Iterable[dict], fmt: str = "chrome") -> str:
    """Render records as ``chrome`` (one JSON object) or ``jsonl`` text.

    Both formats carry the same validated events; ``jsonl`` writes one
    trace event per line (the streaming-friendly shape; ``otherData``
    is chrome-format only).
    """
    payload = chrome_trace(records)
    validate_chrome_trace(payload)
    if fmt == "chrome":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "jsonl":
        return "\n".join(
            json.dumps(event, sort_keys=True) for event in payload["traceEvents"]
        ) + "\n"
    raise ValueError(f"unknown export format {fmt!r} (expected chrome or jsonl)")
