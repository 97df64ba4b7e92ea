"""Blocking client for the serving protocol (loadgen, tests, scripts).

One :class:`ServeClient` is one TCP connection speaking the
newline-delimited JSON protocol of :mod:`repro.serving.protocol`,
strictly request/response (no pipelining): every call sends one line,
reads one line, and checks that the echoed ``id`` matches.  Not
thread-safe — the load generator gives each worker thread its own
client, which is also how it measures per-connection latency honestly.
"""

from __future__ import annotations

import socket
from typing import List, Sequence, Tuple

from .protocol import ProtocolError, decode_line, encode_message

__all__ = ["ServeClient"]


class ServeClient:
    """A connected protocol client (use as a context manager)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._next_id = 0

    # ------------------------------------------------------------------
    # Wire primitive
    # ------------------------------------------------------------------
    def request(self, op: str, **payload) -> dict:
        """Send one request, await its response, return the response dict.

        Raises :class:`ProtocolError` on transport EOF, a mismatched
        ``id`` echo, or an ``ok: false`` response (carrying the server's
        error text).
        """
        self._next_id += 1
        request_id = self._next_id
        message = {"id": request_id, "op": op}
        message.update(payload)
        self._sock.sendall(encode_message(message))
        line = self._reader.readline()
        if not line:
            raise ProtocolError(f"server closed the connection during {op!r}")
        response = decode_line(line)
        if not response.get("ok"):
            raise ProtocolError(
                f"server rejected {op!r}: {response.get('error', 'unknown error')}"
            )
        if response.get("id") != request_id:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}"
            )
        return response

    # ------------------------------------------------------------------
    # Typed operations
    # ------------------------------------------------------------------
    def distances(self, pairs: Sequence[Tuple[int, int]]) -> List[int]:
        """Batched distance estimates for ``pairs``."""
        return self.request("distance", pairs=[list(pair) for pair in pairs])[
            "estimates"
        ]

    def routes(self, pairs: Sequence[Tuple[int, int]]) -> List:
        """Batched explicit routes for ``pairs`` (``None`` when unreachable)."""
        return self.request("route", pairs=[list(pair) for pair in pairs])["routes"]

    def stats(self) -> dict:
        """The server's ``stats`` payload."""
        return self.request("stats")["stats"]

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return bool(self.request("ping").get("ok"))

    def shutdown(self) -> None:
        """Ask the server to stop (acknowledged before it winds down)."""
        self.request("shutdown")

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
