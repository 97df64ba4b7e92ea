"""The `repro serve` daemon: asyncio TCP front, micro-batched oracle back.

One :class:`OracleServer` owns a built
:class:`~repro.oracle.tables.DistanceOracle` and serves the wire
protocol of :mod:`repro.serving.protocol` on a TCP socket.  The request
path is:

1. a connection handler parses one request line and checks each pair
   against the :class:`~repro.serving.cache.AnswerCache` (key
   ``(op, s, t)``);
2. cache misses are enqueued into the
   :class:`~repro.serving.batcher.MicroBatcher` as request chunks of at
   most ``max_batch`` pairs (one future per chunk, so large requests
   cost O(1) futures); the batch flushes when it accumulates
   ``max_batch`` pairs or ``max_wait_us`` after its first pair,
   whichever is first;
3. the flushed batch is answered by the existing batched query engine —
   directly on the event loop when ``workers == 0``, or in one of N
   worker processes that attached the daemon's shared-memory tables
   (:mod:`repro.serving.shm`) when ``workers > 0``;
4. the handler awaits its futures, fills the cache, and writes the
   response line.

Telemetry (when an ambient trace is configured or one is passed in):
``serve.request`` / ``serve.batch`` spans, plus the mergeable
``serve.request_seconds`` / ``serve.batch_seconds`` latency histograms
(:mod:`repro.telemetry.hist`) that the ``stats`` op and the trace
summary report.

:class:`ServerThread` hosts the daemon inside another process (tests,
benchmarks, the serving adapter) without blocking the caller;
:func:`run_server` is the blocking entry point the CLI uses.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter

from ..errors import ParameterError, ReproError
from ..oracle.tables import DistanceOracle
from ..telemetry import Telemetry, maybe_span, resolve
from .batcher import MicroBatcher
from .cache import MISS, AnswerCache
from .protocol import OPS, ProtocolError, decode_line, encode_message, parse_pairs
from .shm import ShmOracleTables
from .workers import worker_answer, worker_init

__all__ = ["ServerConfig", "OracleServer", "ServerThread", "run_server", "default_workers"]

#: Longest accepted request line, newline included (asyncio's default
#: stream limit, about 6k pairs).  A longer line gets one ``ok: false``
#: response and the connection is closed.
MAX_LINE_BYTES = 2**16


def default_workers() -> int:
    """Worker-pool size from ``REPRO_SERVE_WORKERS`` (default 0: in-process)."""
    setting = os.environ.get("REPRO_SERVE_WORKERS", "").strip()
    if not setting:
        return 0
    try:
        workers = int(setting)
    except ValueError as exc:
        raise ParameterError(
            f"REPRO_SERVE_WORKERS must be an integer, got {setting!r}"
        ) from exc
    if workers < 0:
        raise ParameterError(f"REPRO_SERVE_WORKERS must be >= 0, got {workers}")
    return workers


@dataclass(frozen=True)
class ServerConfig:
    """Daemon knobs (all mirrored as ``repro serve`` flags).

    ``port=0`` binds an ephemeral port (the bound address is reported via
    :attr:`OracleServer.address` / the ``--ready-file``).  ``workers=0``
    answers batches on the event loop of the daemon process itself —
    deterministic and dependency-free; ``workers=N`` fans batches out to
    ``N`` processes sharing the tables through one shared-memory segment.
    ``cache_size=0`` disables the answer cache.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 64
    max_wait_us: int = 500
    cache_size: int = 4096
    workers: int = 0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ParameterError(f"workers must be >= 0, got {self.workers}")
        if not 0 <= self.port <= 65535:
            raise ParameterError(f"port must be in 0..65535, got {self.port}")
        # max_batch / max_wait_us / cache_size are validated by the
        # MicroBatcher and AnswerCache constructors.


class OracleServer:
    """One serving daemon instance (see module docstring for the path)."""

    def __init__(
        self,
        oracle: DistanceOracle,
        config: ServerConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.oracle = oracle
        self.config = config or ServerConfig()
        self.telemetry = resolve(telemetry)
        self.cache = AnswerCache(self.config.cache_size)
        self.batcher = MicroBatcher(self.config.max_batch, self.config.max_wait_us)
        self.counters = {
            "requests": 0,
            "batches": 0,
            "batched_pairs": 0,
            "largest_batch": 0,
            "errors": 0,
        }
        self.address: tuple[str, int] | None = None
        self._server: asyncio.base_events.Server | None = None
        self._stop_event: asyncio.Event | None = None
        self._timer: asyncio.TimerHandle | None = None
        self._executor: ProcessPoolExecutor | None = None
        self._shm: ShmOracleTables | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._batch_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind the socket (and spin up workers); returns ``(host, port)``."""
        if self._server is not None:
            raise ReproError("server is already started")
        if self.config.workers > 0:
            self._shm = ShmOracleTables.create(self.oracle)
            self._executor = ProcessPoolExecutor(
                max_workers=self.config.workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=worker_init,
                initargs=(self._shm.name,),
            )
        self._stop_event = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._on_connection, self.config.host, self.config.port,
                limit=MAX_LINE_BYTES,
            )
        except OSError as exc:  # address in use, not local, no permission
            raise ParameterError(
                f"cannot serve on {self.config.host}:{self.config.port}: {exc}"
            ) from exc
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    def request_stop(self) -> None:
        """Ask the serve loop to wind down (must run on the event loop)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve(self, ready_callback=None) -> None:
        """Start, report readiness, and block until :meth:`request_stop`.

        Whatever :meth:`start` acquired is released also when it fails
        (a port already in use, say) or readiness reporting raises.
        """
        if self._server is not None:
            raise ReproError("server is already started")
        try:
            host, port = await self.start()
            if ready_callback is not None:
                ready_callback(host, port)
            await self._stop_event.wait()
        finally:
            await self._shutdown()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        # Answer whatever is still queued so in-flight handlers can
        # respond before their connections wind down.
        items = self.batcher.drain()
        if items:
            await self._run_batch(items)
        if self._batch_tasks:
            await asyncio.gather(*self._batch_tasks, return_exceptions=True)
        if self._conn_tasks:
            done, pending = await asyncio.wait(self._conn_tasks, timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._shm is not None:
            self._shm.close()
            self._shm.unlink()
            self._shm = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        stop_after = False
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line overran the stream limit; the rest of it
                    # cannot be framed, so answer once and hang up.
                    self.counters["requests"] += 1
                    self.counters["errors"] += 1
                    writer.write(encode_message({
                        "id": None,
                        "ok": False,
                        "error": f"request line exceeds {MAX_LINE_BYTES} bytes",
                    }))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response, stop_after = await self._respond(line)
                writer.write(encode_message(response))
                await writer.drain()
                if stop_after:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            if stop_after:
                self.request_stop()

    async def _respond(self, line: bytes) -> tuple[dict, bool]:
        """One response dict for one request line, plus a stop flag."""
        request_id = None
        self.counters["requests"] += 1
        try:
            message = decode_line(line)
            request_id = message.get("id")
            op = message.get("op")
            if op not in OPS:
                raise ProtocolError(f"unknown op {op!r} (expected one of {OPS})")
            if op == "ping":
                return {"id": request_id, "ok": True, "op": "ping"}, False
            if op == "shutdown":
                return {"id": request_id, "ok": True, "op": "shutdown"}, True
            if op == "stats":
                return (
                    {"id": request_id, "ok": True, "op": "stats", "stats": self.stats()},
                    False,
                )
            answers = await self._answer_query(op, parse_pairs(message))
            field = "estimates" if op == "distance" else "routes"
            return {"id": request_id, "ok": True, "op": op, field: answers}, False
        except ReproError as exc:
            self.counters["errors"] += 1
            return {"id": request_id, "ok": False, "error": str(exc)}, False

    async def _answer_query(self, op: str, pairs) -> list:
        started = perf_counter()
        n = self.oracle.graph.num_vertices
        for s, t in pairs:
            if not (0 <= s < n and 0 <= t < n):
                raise ProtocolError(f"pair ({s}, {t}) out of range [0, {n})")
        with maybe_span(self.telemetry, "serve.request", op=op) as span:
            answers: list = [None] * len(pairs)
            misses: list[int] = []
            for i, (s, t) in enumerate(pairs):
                value = self.cache.get((op, s, t))
                if value is MISS:
                    misses.append(i)
                else:
                    answers[i] = value
            if misses:
                # One future per <= max_batch chunk (not per pair): the
                # chunking keeps max_batch an engine-call bound while a
                # large request costs O(1) futures, not O(pairs).
                miss_pairs = [pairs[i] for i in misses]
                chunk_size = self.batcher.max_batch
                waiting = [
                    (start, self._enqueue(op, miss_pairs[start : start + chunk_size]))
                    for start in range(0, len(miss_pairs), chunk_size)
                ]
                await asyncio.gather(*(future for _, future in waiting))
                for start, future in waiting:
                    for offset, answer in enumerate(future.result()):
                        i = misses[start + offset]
                        answers[i] = answer
                        self.cache.put((op, *pairs[i]), answer)
            if span is not None:
                span.add("pairs", len(pairs))
                span.add("cache_hits", len(pairs) - len(misses))
        if self.telemetry is not None:
            self.telemetry.histogram("serve.request_seconds").record(
                perf_counter() - started
            )
        return answers

    # ------------------------------------------------------------------
    # Micro-batching
    # ------------------------------------------------------------------
    def _enqueue(self, op: str, pairs: list) -> asyncio.Future:
        """Queue one request chunk; the future resolves to its answer list."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        full = self.batcher.add((op, pairs, future), loop.time(), weight=len(pairs))
        if full:
            self._flush()
        elif self._timer is None:
            self._timer = loop.call_later(self.batcher.wait_seconds, self._on_timer)
        return future

    def _on_timer(self) -> None:
        self._timer = None
        self._flush()

    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        items = self.batcher.drain()
        if not items:
            return
        task = asyncio.get_running_loop().create_task(self._run_batch(items))
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(self, items: list) -> None:
        total_pairs = sum(len(pairs) for _, pairs, _ in items)
        self.counters["batches"] += 1
        self.counters["batched_pairs"] += total_pairs
        self.counters["largest_batch"] = max(
            self.counters["largest_batch"], total_pairs
        )
        # One flushed batch may mix ops; answer each op's chunks as one
        # engine call, preserving enqueue order within the op.
        groups: dict[str, list] = {}
        for op, pairs, future in items:
            groups.setdefault(op, []).append((pairs, future))
        for op, group in groups.items():
            flat = [pair for pairs, _ in group for pair in pairs]
            try:
                with maybe_span(self.telemetry, "serve.batch", op=op) as span:
                    started = perf_counter()
                    answers = await self._answer_batch(op, flat)
                    elapsed = perf_counter() - started
                    if span is not None:
                        span.add("pairs", len(flat))
                if self.telemetry is not None:
                    self.telemetry.histogram("serve.batch_seconds").record(elapsed)
            except Exception as exc:
                for _, future in group:
                    if not future.done():
                        future.set_exception(
                            exc if isinstance(exc, ReproError)
                            else ReproError(f"batch failed: {exc}")
                        )
                continue
            offset = 0
            for pairs, future in group:
                if not future.done():
                    future.set_result(answers[offset : offset + len(pairs)])
                offset += len(pairs)

    async def _answer_batch(self, op: str, pairs: list) -> list:
        if self._executor is not None:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._executor, worker_answer, op, pairs
            )
        return worker_answer_direct(self.oracle, op, pairs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``stats`` op payload: identity, knobs, counters, cache."""
        return {
            "n": self.oracle.graph.num_vertices,
            "m": self.oracle.graph.num_edges,
            "scales": self.oracle.num_scales,
            "seed": self.oracle.seed,
            "stretch_bound": self.oracle.stretch_bound,
            "workers": self.config.workers,
            "max_batch": self.config.max_batch,
            "max_wait_us": self.config.max_wait_us,
            **self.counters,
            "cache": self.cache.stats(),
        }


def worker_answer_direct(oracle: DistanceOracle, op: str, pairs: list) -> list:
    """The ``workers == 0`` answer path: same dispatch, local oracle."""
    if op == "distance":
        return oracle.distances(pairs)
    if op == "route":
        return oracle.routes(pairs)
    raise ReproError(f"unknown batch op {op!r}")


def run_server(
    oracle: DistanceOracle,
    config: ServerConfig | None = None,
    telemetry: Telemetry | None = None,
    ready_callback=None,
) -> None:
    """Blocking daemon entry point (the CLI's ``repro serve``)."""
    server = OracleServer(oracle, config, telemetry=telemetry)
    asyncio.run(server.serve(ready_callback=ready_callback))


class ServerThread:
    """Host an :class:`OracleServer` on a background thread.

    The constructor arguments mirror :class:`OracleServer`.  Use as a
    context manager: ``__enter__`` starts the daemon and returns once the
    socket is bound (:attr:`address` is then set); ``__exit__`` stops it
    and joins the thread.  Startup failures re-raise in the caller.
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        config: ServerConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.server = OracleServer(oracle, config, telemetry=telemetry)
        self.address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )

    def _main(self) -> None:
        try:
            asyncio.run(self._async_main())
        except BaseException as exc:  # startup or serve failure
            self._error = exc
        finally:
            self._ready.set()

    async def _async_main(self) -> None:
        self._loop = asyncio.get_running_loop()

        def on_ready(host: str, port: int) -> None:
            self.address = (host, port)
            self._ready.set()

        await self.server.serve(ready_callback=on_ready)

    def start(self) -> tuple[str, int]:
        """Start the daemon; returns the bound ``(host, port)``."""
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._error is not None:
            raise self._error
        if self.address is None:
            raise ReproError("serving thread did not become ready")
        return self.address

    def stop(self) -> None:
        """Stop the daemon and join the thread (idempotent)."""
        if self._loop is not None and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        if self._thread.is_alive():
            self._thread.join(timeout=30)
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
