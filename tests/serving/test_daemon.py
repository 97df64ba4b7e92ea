"""Daemon loopback: row identity, counters, error handling, lifecycle.

Every test spins an :class:`~repro.serving.daemon.ServerThread` on an
ephemeral loopback port and talks to it through the real wire protocol
— the served answers must be **row-identical** to calling the oracle's
batched query engine directly, on both kernel backends.
"""

from __future__ import annotations

import asyncio
import pathlib
import socket

import pytest

from repro.errors import ParameterError, ReproError
from repro.graphs import _kernel
from repro.oracle import build_oracle
from repro.rng import stream
from repro.serving import (
    OracleServer,
    ProtocolError,
    ServeClient,
    ServerConfig,
    ServerThread,
    decode_line,
    default_workers,
    encode_message,
    run_closed_loop,
    run_open_loop,
    sample_pairs,
)
from repro.serving.daemon import MAX_LINE_BYTES
from repro.telemetry import Telemetry


def _pairs(oracle, count=200, label="daemon"):
    n = oracle.graph.num_vertices
    rng = stream(43, "test-daemon", label)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


class TestConfig:
    def test_defaults(self):
        config = ServerConfig()
        assert (config.host, config.port) == ("127.0.0.1", 0)
        assert config.workers == 0

    def test_rejects_negative_workers(self):
        with pytest.raises(ParameterError):
            ServerConfig(workers=-1)

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_rejects_ports_outside_the_tcp_range(self, port):
        with pytest.raises(ParameterError, match="port"):
            ServerConfig(port=port)

    def test_batch_and_cache_knobs_validated_at_server_construction(
        self, grid_oracle
    ):
        with pytest.raises(ParameterError):
            OracleServer(grid_oracle, ServerConfig(max_batch=0))
        with pytest.raises(ParameterError):
            OracleServer(grid_oracle, ServerConfig(cache_size=-1))


class TestDefaultWorkers:
    def test_unset_means_in_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_WORKERS", raising=False)
        assert default_workers() == 0

    def test_env_value_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "3")
        assert default_workers() == 3

    @pytest.mark.parametrize("bad", ["nope", "-2", "1.5"])
    def test_bad_env_value_raises(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", bad)
        with pytest.raises(ParameterError):
            default_workers()


class TestLoopbackIdentity:
    @pytest.mark.parametrize("fixture", ["gnp_oracle", "disconnected_oracle"])
    def test_served_answers_match_direct_query(self, fixture, request):
        oracle = request.getfixturevalue(fixture)
        pairs = _pairs(oracle)
        with ServerThread(oracle) as thread:
            host, port = thread.address
            with ServeClient(host, port) as client:
                assert client.distances(pairs) == oracle.distances(pairs)
                assert client.routes(pairs) == oracle.routes(pairs)

    def test_pure_python_kernel_serves_identical_rows(
        self, gnp_oracle, monkeypatch
    ):
        """The daemon inherits the kernel switch: REPRO_KERNEL=py parity."""
        pairs = _pairs(gnp_oracle)
        expected = gnp_oracle.distances(pairs)
        expected_routes = gnp_oracle.routes(pairs)
        monkeypatch.setattr(_kernel, "USE_NUMPY", False)
        assert gnp_oracle.distances(pairs) == expected  # parity precondition
        with ServerThread(gnp_oracle) as thread:
            with ServeClient(*thread.address) as client:
                assert client.distances(pairs) == expected
                assert client.routes(pairs) == expected_routes

    def test_cache_hits_serve_the_same_rows(self, grid_oracle):
        pairs = _pairs(grid_oracle, count=64, label="cached")
        with ServerThread(grid_oracle, ServerConfig(cache_size=1024)) as thread:
            with ServeClient(*thread.address) as client:
                first = client.distances(pairs)
                second = client.distances(pairs)  # all cache hits
                stats = client.stats()
        assert first == second == grid_oracle.distances(pairs)
        assert stats["cache"]["hits"] >= len(pairs)


class TestCountersAndStats:
    def test_deterministic_batch_and_cache_counters(self, grid_oracle):
        """A fixed sequential request sequence yields exact counters."""
        n = grid_oracle.graph.num_vertices
        pairs = [(0, 1), (0, 2), (0, 3), (0, n - 1)]
        config = ServerConfig(max_batch=4, max_wait_us=200_000, cache_size=64)
        with ServerThread(grid_oracle, config) as thread:
            with ServeClient(*thread.address) as client:
                client.distances(pairs)  # 4 misses -> one size-4 batch
                client.distances(pairs)  # 4 hits -> no batch
                client.routes(pairs)  # distinct (op, s, t) keys -> one batch
                stats = client.stats()
        assert stats["requests"] == 4  # three queries + the stats call
        assert stats["batches"] == 2
        assert stats["batched_pairs"] == 8
        assert stats["largest_batch"] == 4
        assert stats["errors"] == 0
        assert stats["cache"] == {
            "capacity": 64,
            "size": 8,
            "hits": 4,
            "misses": 8,
            "evictions": 0,
        }

    def test_stats_reports_oracle_identity_and_knobs(self, grid_oracle):
        config = ServerConfig(max_batch=7, max_wait_us=123, cache_size=9)
        with ServerThread(grid_oracle, config) as thread:
            with ServeClient(*thread.address) as client:
                stats = client.stats()
        assert stats["n"] == grid_oracle.graph.num_vertices
        assert stats["m"] == grid_oracle.graph.num_edges
        assert stats["scales"] == grid_oracle.num_scales
        assert stats["stretch_bound"] == grid_oracle.stretch_bound
        assert (stats["max_batch"], stats["max_wait_us"]) == (7, 123)
        assert stats["workers"] == 0

    def test_deadline_flush_answers_a_lone_request(self, grid_oracle):
        """max_batch far above the load: the deadline timer must fire."""
        config = ServerConfig(max_batch=10_000, max_wait_us=2_000)
        with ServerThread(grid_oracle, config) as thread:
            with ServeClient(*thread.address) as client:
                assert client.distances([(0, 1)]) == grid_oracle.distances(
                    [(0, 1)]
                )
                stats = client.stats()
        assert stats["batches"] == 1
        assert stats["batched_pairs"] == 1


class TestErrorHandling:
    def test_bad_requests_keep_the_connection_usable(self, grid_oracle):
        n = grid_oracle.graph.num_vertices
        with ServerThread(grid_oracle) as thread:
            with ServeClient(*thread.address) as client:
                with pytest.raises(ProtocolError, match="unknown op"):
                    client.request("bogus")
                with pytest.raises(ProtocolError, match="out of range"):
                    client.distances([(0, n + 5)])
                with pytest.raises(ProtocolError, match="bad pair"):
                    client.request("distance", pairs=[[0, "x"]])
                # The session survives every rejected line.
                assert client.ping()
                assert client.distances([(0, 1)]) == grid_oracle.distances(
                    [(0, 1)]
                )
                stats = client.stats()
        assert stats["errors"] == 3

    def test_oversized_request_line_gets_a_typed_error(self, grid_oracle):
        line = encode_message({"id": 1, "op": "distance", "pairs": [[0, 1]] * 12000})
        assert len(line) > MAX_LINE_BYTES
        with ServerThread(grid_oracle) as thread:
            with socket.create_connection(thread.address, timeout=30) as sock:
                sock.sendall(line)
                reader = sock.makefile("rb")
                response = decode_line(reader.readline())
                try:
                    tail = reader.readline()
                except ConnectionResetError:  # closed with the line unread
                    tail = b""
                reader.close()
            with ServeClient(*thread.address) as client:
                stats = client.stats()
        assert response == {
            "id": None,
            "ok": False,
            "error": f"request line exceeds {MAX_LINE_BYTES} bytes",
        }
        assert tail == b""  # the server hung up
        assert stats["errors"] == 1

    def test_out_of_range_pair_never_reaches_the_batcher(self, grid_oracle):
        """Rejected requests must not poison the shared batch."""
        n = grid_oracle.graph.num_vertices
        with ServerThread(grid_oracle) as thread:
            with ServeClient(*thread.address) as client:
                with pytest.raises(ProtocolError):
                    client.distances([(0, 1), (0, n)])
                stats = client.stats()
        assert stats["batched_pairs"] == 0


class TestLifecycle:
    def test_shutdown_op_stops_the_server(self, grid_oracle):
        thread = ServerThread(grid_oracle)
        thread.start()
        with ServeClient(*thread.address) as client:
            client.shutdown()
        thread.stop()
        assert not thread._thread.is_alive()

    def test_failed_bind_releases_the_workers_and_their_segment(self, grid_oracle):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            config = ServerConfig(port=taken.getsockname()[1], workers=1)
            server = OracleServer(grid_oracle, config)
            ready = []
            with pytest.raises(ParameterError, match="cannot serve"):
                asyncio.run(server.serve(ready_callback=lambda *a: ready.append(a)))
        assert not ready
        assert server._shm is None and server._executor is None

    def test_ping(self, grid_oracle):
        with ServerThread(grid_oracle) as thread:
            with ServeClient(*thread.address) as client:
                assert client.ping()

    def test_double_start_is_rejected(self, grid_oracle):
        server = OracleServer(grid_oracle)

        async def boot_twice():
            await server.start()
            try:
                await server.start()
            finally:
                server.request_stop()
                await server._shutdown()

        import asyncio

        with pytest.raises(ReproError, match="already started"):
            asyncio.run(boot_twice())

    def test_serve_on_a_running_server_leaves_it_running(self, grid_oracle):
        with ServerThread(grid_oracle) as thread:
            again = asyncio.run_coroutine_threadsafe(
                thread.server.serve(), thread._loop
            )
            with pytest.raises(ReproError, match="already started"):
                again.result(timeout=30)
            with ServeClient(*thread.address) as client:
                assert client.ping()


class TestTelemetry:
    def test_spans_and_histograms_flow_into_the_trace(self, grid_oracle):
        telemetry = Telemetry()
        pairs = _pairs(grid_oracle, count=32, label="telemetry")
        with ServerThread(grid_oracle, telemetry=telemetry) as thread:
            with ServeClient(*thread.address) as client:
                client.distances(pairs)
                client.routes(pairs[:8])
        names = {span["name"] for span in telemetry.spans}
        assert {"serve.request", "serve.batch"} <= names
        assert telemetry.histogram("serve.request_seconds").count >= 2
        assert telemetry.histogram("serve.batch_seconds").count >= 2


class TestWorkerPool:
    def test_worker_processes_serve_identical_rows(self, gnp_oracle):
        """workers=2: batches fan out over shared-memory attachers."""
        pairs = _pairs(gnp_oracle, count=96, label="workers")
        config = ServerConfig(workers=2, cache_size=0, max_batch=16)
        with ServerThread(gnp_oracle, config) as thread:
            with ServeClient(*thread.address) as client:
                assert client.distances(pairs) == gnp_oracle.distances(pairs)
                assert client.routes(pairs[:24]) == gnp_oracle.routes(pairs[:24])
                assert client.stats()["workers"] == 2


class TestCliWorkerSpawn:
    def test_module_entry_point_is_spawn_safe(self, tmp_path):
        """``python -m repro serve --workers 1`` must come up and answer.

        The worker pool uses the multiprocessing ``spawn`` context, so
        the daemon's own entry point must stay importable in children
        without side effects (CPython skips ``*.__main__`` re-execution,
        and ``repro/__main__.py`` guards on ``__name__`` as well — this
        pins the whole CLI worker path end-to-end: ready-file handshake,
        a validated loadgen run exiting 0, clean shutdown).
        """
        import os
        import subprocess
        import sys

        root = pathlib.Path(__file__).parent.parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        spec = "grid:8:8"
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", spec, "--port", "0",
             "--workers", "1", "--ready-file", "serve.addr"],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            loadgen = subprocess.run(
                [sys.executable, "-m", "repro", "loadgen", "--addr-file",
                 "serve.addr", "--graph", spec, "--clients", "2",
                 "--requests", "10", "--validate", "16", "--shutdown"],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                timeout=90,
            )
            assert loadgen.returncode == 0, loadgen.stderr
            assert "row-identical" in loadgen.stdout
            assert daemon.wait(timeout=30) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()


class TestLoadGenerator:
    def test_sample_pairs_is_seeded_and_in_range(self):
        pairs = sample_pairs(50, 64, seed=9)
        assert pairs == sample_pairs(50, 64, seed=9)
        assert pairs != sample_pairs(50, 64, seed=10)
        assert all(0 <= s < 50 and 0 <= t < 50 for s, t in pairs)
        with pytest.raises(ParameterError):
            sample_pairs(0, 4, seed=9)

    def test_closed_loop_reports_and_validates(self, grid_oracle):
        pairs = sample_pairs(grid_oracle.graph.num_vertices, 128, seed=5)
        with ServerThread(grid_oracle, ServerConfig(max_batch=8)) as thread:
            host, port = thread.address
            report = run_closed_loop(
                host,
                port,
                pairs,
                clients=3,
                requests_per_client=20,
                pairs_per_request=2,
                keep_answers=True,
            )
        assert report.mode == "closed"
        assert report.requests == 60
        assert report.pairs == 120
        assert report.errors == 0
        assert report.throughput_pairs > 0
        assert report.quantile_us(0.99) is not None
        row = report.row()
        assert row["p50_us"] is not None and row["p50_us"] <= row["p99_us"]
        assert "throughput q/s" in row
        # keep_answers makes the run row-verifiable after the fact.
        assert len(report.answers) == 60
        for chunk, answer in report.answers:
            assert answer == grid_oracle.distances(chunk)

    def test_open_loop_measures_from_the_schedule(self, grid_oracle):
        pairs = sample_pairs(grid_oracle.graph.num_vertices, 64, seed=5)
        with ServerThread(grid_oracle) as thread:
            host, port = thread.address
            report = run_open_loop(
                host, port, pairs, rate=400.0, duration=0.25, connections=2
            )
        assert report.mode == "open"
        assert report.offered_rate == 400.0
        assert report.errors == 0
        assert 0 < report.requests <= 100
        assert "offered q/s" in report.row()

    def test_loadgen_validation_errors(self, grid_oracle):
        with pytest.raises(ParameterError):
            run_closed_loop("127.0.0.1", 1, [], clients=0)
        with pytest.raises(ParameterError):
            run_open_loop("127.0.0.1", 1, [], rate=0, duration=1)
