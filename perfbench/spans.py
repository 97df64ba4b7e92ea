"""Spans recorded by the benchmark around calls into the program.

The benchmark never switches on the program's own telemetry: a traced run
replaces selected public functions with thin wrappers (see
:func:`patched`) that time each call into an in-memory span with a name,
start, end and parent.  A layer's self time is its spans' duration minus
the part covered by their child spans.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from time import perf_counter


class SpanRecorder:
    """In-memory span tree of one traced pass (single-threaded callers)."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._epoch = perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter() - self._epoch,
            "end": None,
            "attrs": attrs,
        }
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter() - self._epoch
            self._stack.pop()

    def wrap(self, function, name: str, on_result=None):
        """``function`` timed as span ``name``; ``on_result(attrs, args, result)``
        runs after the span closes, so its cost is not charged to the layer."""

        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
            if on_result is not None:
                on_result(record["attrs"], args, result)
            return result

        return wrapper

    def _named(self, name: str) -> list[tuple[int, dict]]:
        return [(i, r) for i, r in enumerate(self.records) if r["name"] == name]

    def count(self, name: str) -> int:
        return len(self._named(name))

    def seconds(self, name: str) -> float:
        return sum(r["end"] - r["start"] for _, r in self._named(name))

    def self_seconds(self, name: str) -> float:
        """Duration of spans ``name`` minus the time their children cover."""
        indices = {i for i, _ in self._named(name)}
        total = sum(self.records[i]["end"] - self.records[i]["start"] for i in indices)
        covered = sum(
            r["end"] - r["start"] for r in self.records if r["parent"] in indices
        )
        return total - covered

    def seconds_within(self, name: str, ancestor: str) -> float:
        """Duration of the spans ``name`` that run inside a span ``ancestor``."""
        total = 0.0
        for _, record in self._named(name):
            parent = record["parent"]
            while parent is not None and self.records[parent]["name"] != ancestor:
                parent = self.records[parent]["parent"]
            if parent is not None:
                total += record["end"] - record["start"]
        return total

    def attr_sum(self, name: str, key: str) -> float:
        return sum(r["attrs"].get(key, 0) for _, r in self._named(name))

    def dump(self, path) -> None:
        path.write_text(json.dumps({"spans": self.records}) + "\n", encoding="utf8")


@contextmanager
def patched(recorder: SpanRecorder, targets):
    """Route calls through ``recorder`` for the duration of the block.

    ``targets`` holds ``(owner, attribute, span name, on_result)`` tuples:
    ``owner.attribute`` is replaced by a timing wrapper (static methods
    stay static) and restored on exit.  Patch the name a caller looks up:
    a module that did ``from x import f`` holds its own reference to ``f``.
    """
    saved = []
    try:
        for owner, attribute, name, on_result in targets:
            original = inspect.getattr_static(owner, attribute)
            if isinstance(original, staticmethod):
                replacement = staticmethod(
                    recorder.wrap(original.__func__, name, on_result)
                )
            else:
                replacement = recorder.wrap(original, name, on_result)
            setattr(owner, attribute, replacement)
            saved.append((owner, attribute, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
