"""The bounded append-only JSONL trace sink.

Same durability posture as the campaign journal
(:mod:`repro.experiments.checkpoint`): one JSON object per line, a
schema-version header line first, whole-line appends so a crash leaves
at most one torn trailing line, and a reader that skips unparseable
lines instead of failing.  Two deliberate differences:

* **no fsync per record** — telemetry is high-volume and advisory; a
  lost tail after a crash costs observability, not correctness;
* **bounded** — after ``limit`` records the sink stops writing and
  :meth:`JsonlSink.close` appends a single ``{"kind": "truncated"}``
  marker with the drop count, so a trace file is always a *prefix* of
  the run.

The file handle is opened lazily in append mode on the first write, so
a configured-but-silent process never creates an empty file, and forked
campaign workers inheriting the handle interleave whole lines (each
write is one flushed line; a torn line is tolerated by the reader).
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import IO, Iterable

from ..errors import ParameterError

__all__ = ["TELEMETRY_VERSION", "JsonlSink", "read_trace"]

#: Bumped when the record schema changes incompatibly.
TELEMETRY_VERSION = "en16.telemetry.v1"

#: Default record cap per sink (all record kinds combined).
DEFAULT_SINK_LIMIT = 250_000


class JsonlSink:
    """Bounded append-only JSONL sink for telemetry records."""

    def __init__(self, path: pathlib.Path | str, limit: int = DEFAULT_SINK_LIMIT):
        if limit < 1:
            raise ParameterError(f"sink limit must be >= 1, got {limit}")
        self.path = pathlib.Path(path)
        self.limit = limit
        self.written = 0
        self.dropped = 0
        #: Records *offered* per kind — dropped writes included, so a
        #: truncated trace's summary still says what the run produced.
        self.kind_counts: dict[str, int] = {}
        self._handle: IO[str] | None = None

    def _file(self) -> IO[str]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._handle = self.path.open("a", encoding="utf8")
            if fresh:
                self._emit({"kind": "header", "telemetry_version": TELEMETRY_VERSION,
                            "created_unix": round(time.time(), 3)})
        return self._handle

    def _emit(self, record: dict) -> None:
        handle = self._file()
        handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
            + "\n"
        )
        handle.flush()

    def write(self, record: dict) -> None:
        """Append one record, or silently drop it past the bound."""
        kind = str(record.get("kind", "unknown"))
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        if self.written >= self.limit:
            self.dropped += 1
            return
        self._emit(record)
        self.written += 1

    @property
    def truncated(self) -> bool:
        """Whether the bound was hit (some records were dropped)."""
        return self.dropped > 0

    def close(self) -> None:
        """Write the truncation marker (if any drops) and close the file."""
        if self.dropped and self._handle is not None:
            self._emit({"kind": "truncated", "dropped": self.dropped})
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_trace(
    path: pathlib.Path | str,
) -> tuple[dict | None, list[dict]]:
    """``(header, records)`` of a trace file; torn-tail tolerant.

    Lines that fail to parse — the torn tail of a killed writer, or an
    interleaved fragment from a forked worker — are skipped, exactly as
    the campaign journal reader does.  ``header`` is ``None`` when the
    file carries no recognisable header line (records are still
    returned so a damaged trace stays inspectable).
    """
    header: dict | None = None
    records: list[dict] = []
    with pathlib.Path(path).open("r", encoding="utf8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if not isinstance(payload, dict):
                continue
            if payload.get("kind") == "header":
                if header is None:
                    header = payload
                continue
            records.append(payload)
    return header, records


def records_of_kind(records: Iterable[dict], kind: str) -> list[dict]:
    """Filter helper: the records whose ``kind`` field equals ``kind``."""
    return [record for record in records if record.get("kind") == kind]
