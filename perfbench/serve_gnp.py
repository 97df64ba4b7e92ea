"""``serve-gnp``: the oracle behind the ``repro serve`` daemon.

A ``repro --seed S serve gnp_fast:N:P`` subprocess runs with the default
config (``max_batch=64``, ``max_wait_us=500``, ``cache_size=4096``,
``workers=0``).  This process drives it over two connections, one thread
each, in two phases:

* open: 8-pair ``distance`` requests on a fixed schedule of ``RATE`` per
  second, about 40% of what two blocking connections sustain.  An 8-pair
  request never fills a 64-pair batch, so it waits for the 500 us flush
  timer.  Each latency is timed from the request's scheduled send time,
  and a failed request counts as slower than every percentile;
* bulk: a closed loop of 256-pair requests, which split into full 64-pair
  chunks that flush at once.

Decomposition and table build happen during setup, so the measured phases
stress only the daemon and the query engine: a flush-policy change should
move the open-loop percentiles and leave bulk throughput alone.  Pairs are
uniform over n^2, far more than the cache holds, so the answer cache is
cold by design.

The served tables are fixed (the CLI's default seed) and the traffic
derives from ``--seed``: query cost per pair differs by up to 2x between
table builds of the same spec (3 to 5 stored scales), which would swamp
any change to the serving path.  The open-loop percentiles are the median
over ``OPEN_WINDOWS`` consecutive windows of each window's percentile, so
a burst of load from another tenant of the machine moves one window, not
the result.

Setup is timed from spawning the daemon until its ready file appears;
``SETUPS`` daemons start per run and the last one is measured.  The
daemon's memory and CPU are read from ``/proc/<pid>`` before it is
stopped with the ``shutdown`` op.
"""

from __future__ import annotations

import math
import os
import pathlib
import random
import subprocess
import sys
import threading
from time import perf_counter, sleep

import repro
from repro.oracle import load
from repro.rng import DEFAULT_SEED
from repro.serving.client import ServeClient
from repro.telemetry.sink import read_trace

import layers
from common import median, percentile

N = 10000
P = 0.0006
SERVED_SEED = DEFAULT_SEED
RATE = 400
OPEN_SHARE = 0.5
OPEN_WINDOWS = 6
OPEN_PAIRS = 8
BULK_PAIRS = 256
CONNECTIONS = 2
SETUPS = 3
SLAB_REQUESTS = 4
BULK_SLICE_S = 0.5
START_TIMEOUT = 120.0
STOP_TIMEOUT = 20.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: The daemon runs the same source tree this process imported.
_SRC = pathlib.Path(repro.__file__).resolve().parents[1]


class Daemon:
    """One ``repro serve`` subprocess, observed from outside."""

    def __init__(self, run, spec: str, index: int, trace_path=None) -> None:
        self.run = run
        self.spec = spec
        self.ready = run.state_dir / f"serve-ready-{os.getpid()}-{index}.txt"
        self.log = run.state_dir / f"serve-{os.getpid()}-{index}.log"
        self.trace_path = trace_path
        self.proc = None
        self.proc_dir = None
        self.address = None

    def start(self) -> float:
        """Spawn the daemon; returns the seconds until its ready file
        appeared."""
        self.ready.unlink(missing_ok=True)
        command = [sys.executable, "-m", "repro", "--seed", str(SERVED_SEED)]
        if self.trace_path is not None:
            self.trace_path.unlink(missing_ok=True)
            command += ["--trace", str(self.trace_path)]
        command += ["serve", self.spec, "--workers", "0", "--ready-file", str(self.ready)]
        env = {**os.environ, "PYTHONPATH": str(_SRC), "REPRO_TELEMETRY": "off"}
        started = perf_counter()
        with self.log.open("wb") as log:
            self.proc = subprocess.Popen(
                command, env=env, stdout=subprocess.DEVNULL, stderr=log
            )
        self.proc_dir = pathlib.Path(f"/proc/{self.proc.pid}")
        while True:
            text = self.ready.read_text() if self.ready.exists() else ""
            if text.endswith("\n"):
                break
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}; see {self.log}")
            if perf_counter() - started > START_TIMEOUT:
                raise RuntimeError(f"daemon not ready after {START_TIMEOUT:g}s")
            sleep(0.002)
        elapsed = perf_counter() - started
        host, _, port = text.strip().rpartition(":")
        self.address = (host, int(port))
        return elapsed

    def cpu_seconds(self) -> float:
        """utime + stime of the daemon so far."""
        stat = (self.proc_dir / "stat").read_text()
        fields = stat[stat.rindex(")") + 2 :].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        for line in (self.proc_dir / "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """``shutdown`` op, then wait; a daemon that does not exit fails the run."""
        if self.proc is None or self.proc.poll() is not None:
            return
        try:
            with ServeClient(*self.address) as client:
                client.shutdown()
            self.proc.wait(timeout=STOP_TIMEOUT)
        except Exception as exc:  # the daemon must not outlive the run
            self.run.fail(f"daemon did not stop on the shutdown op: {exc!r}")
            self.proc.kill()
            self.proc.wait()
        else:
            if self.run.check(self.proc.returncode == 0, f"daemon exited with {self.proc.returncode}"):
                self.log.unlink()
        self.ready.unlink(missing_ok=True)

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _pairs(seed: int, n: int, count: int) -> list:
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def _open_loop(clients, requests, rate):
    """Send ``requests`` on a fixed schedule; latency from the scheduled time."""
    interval = 1.0 / rate
    latency = [math.inf] * len(requests)
    late = [0.0] * len(requests)
    answers = [None] * len(requests)
    epoch = perf_counter() + 0.05

    def worker(index, client):
        for slot in range(index, len(requests), len(clients)):
            scheduled = epoch + slot * interval
            delay = scheduled - perf_counter()
            if delay > 0:
                sleep(delay)
            late[slot] = perf_counter() - scheduled
            try:
                answers[slot] = client.distances(requests[slot])
            except Exception:  # a refused or failed request stays at +inf
                continue
            latency[slot] = perf_counter() - scheduled

    _run_threads(worker, clients, len(requests) * interval + 60)
    return latency, late, answers


def _closed_loop(clients, pool, seconds, offset):
    """Back-to-back ``BULK_PAIRS`` requests until ``seconds`` pass, reading
    the pool from ``offset`` on; the pool is split between the clients."""
    answered = [0] * len(clients)
    failed = [0] * len(clients)
    latency = [[] for _ in clients]
    slab = [[] for _ in clients]
    deadline = perf_counter() + seconds
    per_client = len(pool) // len(clients)

    def worker(index, client):
        cursor = index * per_client + offset
        while perf_counter() < deadline:
            chunk = [pool[(cursor + j) % len(pool)] for j in range(BULK_PAIRS)]
            cursor += BULK_PAIRS
            sent = perf_counter()
            try:
                estimates = client.distances(chunk)
            except Exception:  # counted, and the loop goes on
                failed[index] += 1
                continue
            latency[index].append(perf_counter() - sent)
            answered[index] += len(estimates)
            if len(slab[index]) < SLAB_REQUESTS:
                slab[index].append((chunk, estimates))

    started = perf_counter()
    _run_threads(worker, clients, seconds + 60)
    elapsed = perf_counter() - started
    return (
        sum(answered),
        sum(failed),
        elapsed,
        [value for values in latency for value in values],
        [entry for entries in slab for entry in entries],
    )


def _run_threads(worker, clients, timeout):
    threads = [
        threading.Thread(target=worker, args=(index, client), daemon=True)
        for index, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")


def _delta(before: dict, after: dict) -> dict:
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    batches = after["batches"] - before["batches"]
    return {
        # The second stats call is itself one request.
        "requests": after["requests"] - before["requests"] - 1,
        "batches": batches,
        "mean_batch_pairs": (after["batched_pairs"] - before["batched_pairs"]) / batches
        if batches else 0.0,
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "errors": after["errors"] - before["errors"],
    }


def _drive(run, daemon, open_requests, bulk_pool, seconds) -> dict:
    """The open phase, then the bulk phase, against one daemon."""
    out = {}
    clients = [ServeClient(*daemon.address) for _ in range(CONNECTIONS)]
    try:
        stats = clients[0].stats()
        cpu = daemon.cpu_seconds()
        started = perf_counter()
        latency, late, answers = _open_loop(clients, open_requests, RATE)
        wall = perf_counter() - started
        after = clients[0].stats()
        used = daemon.cpu_seconds() - cpu
        failed = sum(answer is None for answer in answers)
        run.attempted += len(open_requests)
        if failed:
            run.fail(f"{failed} of {len(open_requests)} open-loop requests failed", failed)
        capped = [min(value, wall) for value in latency]
        width = math.ceil(len(capped) / OPEN_WINDOWS)
        windows = [capped[i : i + width] for i in range(0, len(capped), width)]
        out["open"] = {
            **_delta(stats, after),
            "cpu_us_per_request": used / len(open_requests) * 1e6,
            "busy_frac": used / wall,
            "p50_ms": median([percentile(w, 0.50) for w in windows]) * 1e3,
            "p90_ms": median([percentile(w, 0.90) for w in windows]) * 1e3,
            "p99_ms": percentile(capped, 0.99) * 1e3,
            "late_p99_ms": percentile(late, 0.99) * 1e3,
            "samples": len(latency),
            "slab": list(zip(open_requests, answers)),
        }

        # The bulk phase runs in short slices and reports the median
        # slice, so a burst of load from another tenant of the machine
        # moves one slice, not the result.
        stats, cpu = after, daemon.cpu_seconds()
        slices = max(1, round(seconds * (1 - OPEN_SHARE) / BULK_SLICE_S))
        per_1000 = []
        latency = []
        slab = []
        wall = 0.0
        offset = 0
        for _ in range(slices):
            pairs, failed, elapsed, times, kept = _closed_loop(
                clients, bulk_pool, BULK_SLICE_S, offset
            )
            offset += pairs + failed * BULK_PAIRS
            wall += elapsed
            run.attempted += pairs // BULK_PAIRS + failed
            if failed:
                run.fail(f"{failed} bulk requests failed", failed)
            per_1000.append(elapsed / max(pairs, 1) * 1e6)
            latency.extend(times)
            slab = slab or kept
        after = clients[0].stats()
        used = daemon.cpu_seconds() - cpu
        delta = _delta(stats, after)
        out["bulk"] = {
            **delta,
            "cpu_us_per_request": used / max(delta["requests"], 1) * 1e6,
            "busy_frac": used / wall,
            "ms_per_1000_pairs": median(per_1000),
            "p50_ms": percentile(latency, 0.50) * 1e3 if latency else wall * 1e3,
            "slab": slab,
        }
        out["peak_rss_mb"] = daemon.peak_rss_mb()
    finally:
        for client in clients:
            client.close()
    return out


def _ops(phases) -> dict:
    """The end-to-end op slots of this workload."""
    return {
        "op1_ms": phases["open"]["p50_ms"],
        "op2_ms": phases["open"]["p90_ms"],
        "op3_ms": phases["bulk"]["ms_per_1000_pairs"],
        "op4_ms": phases["bulk"]["p50_ms"],
    }


def _check_slab(run, reference, phases) -> None:
    """Served answers must be row-identical to the in-process tables."""
    for phase in ("open", "bulk"):
        entries = [(p, a) for p, a in phases[phase]["slab"] if a is not None]
        pairs = [pair for chunk, _ in entries for pair in chunk]
        served = [value for _, answer in entries for value in answer]
        expected = reference.distances(pairs)
        mismatched = sum(a != b for a, b in zip(served, expected))
        run.check(
            mismatched == 0 and len(served) == len(expected),
            f"{phase}: {mismatched} of {len(served)} served answers differ from "
            "DistanceOracle.distances",
        )


def _request_spans(trace_path):
    """Per-phase daemon request and batch latencies from its trace file."""
    _, records = read_trace(trace_path)
    spans = [r for r in records if r.get("kind") == "span"]
    requests = [r for r in spans if r["name"] == "serve.request"]
    batches = [r for r in spans if r["name"] == "serve.batch"]
    bulk = [r for r in requests if r["counters"].get("pairs") == BULK_PAIRS]
    boundary = min((r["start"] for r in bulk), default=math.inf)
    out = {}
    for phase, size in (("open", OPEN_PAIRS), ("bulk", BULK_PAIRS)):
        mine = [r["seconds"] for r in requests if r["counters"].get("pairs") == size]
        in_phase = [
            r["seconds"] for r in batches if (r["start"] >= boundary) == (phase == "bulk")
        ]
        out[phase] = {
            "request_p50_ms": median(mine) * 1e3 if mine else 0.0,
            "batch_p50_ms": median(in_phase) * 1e3 if in_phase else 0.0,
        }
    return out


def _serve(run, spec, open_requests, bulk_pool, seconds, setups, trace_path=None):
    """Start ``setups`` daemons in turn (the last one with ``trace_path``) and
    drive the last; returns ``(setup seconds, phases)``."""
    setup = []
    daemons = []
    try:
        for i in range(setups):
            last = i == setups - 1
            daemon = Daemon(run, spec, len(daemons), trace_path if last else None)
            daemons.append(daemon)
            setup.append(daemon.start())
            if not last:
                daemon.stop()
        phases = _drive(run, daemons[-1], open_requests, bulk_pool, seconds)
        daemons[-1].stop()
    finally:
        for daemon in daemons:
            daemon.kill()
    return setup, phases


def run_workload(run) -> None:
    n = run.size(N, 200)
    spec = f"gnp_fast:{n}:{P * N / n:g}"
    share = run.seconds / 2 if run.traced else run.seconds
    open_count = max(1, round(RATE * share * OPEN_SHARE))
    open_pool = _pairs(run.sub_seed("open"), n, open_count * OPEN_PAIRS)
    open_requests = [
        open_pool[i : i + OPEN_PAIRS] for i in range(0, len(open_pool), OPEN_PAIRS)
    ]
    bulk_pool = _pairs(run.sub_seed("bulk"), n, 400 * BULK_PAIRS)

    setup, phases = _serve(run, spec, open_requests, bulk_pool, share, SETUPS)
    run.end_to_end["setup_s"] = median(setup)
    run.end_to_end["peak_rss_mb"] = phases["peak_rss_mb"]
    run.end_to_end.update(_ops(phases))
    # The same tables, built in this process, are the reference answers.
    elapsed, reference = run.timed(
        "reference_build", "serve", load, spec, seed=SERVED_SEED, use_cache=False
    )
    if reference is None:
        return
    _check_slab(run, reference, phases)
    run.fingerprint(
        "tables",
        {
            "n": reference.graph.num_vertices,
            "m": reference.graph.num_edges,
            "scales": [(s.radius, s.num_clusters, s.entries) for s in reference.scales],
            "skipped": list(reference.skipped_radii),
        },
    )
    run.notes["ops"] = (
        f"op1, op2 = open-loop p50, p90 ({OPEN_PAIRS}-pair requests at {RATE}/s, "
        f"{phases['open']['samples']} samples); op3 = bulk ms per 1000 pairs "
        f"({BULK_PAIRS}-pair closed loop, {CONNECTIONS} connections); "
        f"op4 = bulk request p50 (ms); reference tables built in {elapsed:.2f} s"
    )
    run.notes["open loop"] = (
        f"p99 {phases['open']['p99_ms']:.3f} ms over {phases['open']['samples']} samples; "
        f"generator late p99 {phases['open']['late_p99_ms']:.3f} ms"
    )
    run.notes["input"] = f"repro --seed {SERVED_SEED} serve {spec}; traffic from seed {run.seed}"
    if not run.traced:
        return

    trace_path = run.state_dir / f"serve-trace-{os.getpid()}.jsonl"
    _, traced = _serve(run, spec, open_requests, bulk_pool, share, 1, trace_path)
    with run.tracing():
        run.timed("reference_build", "serve", load, spec, seed=SERVED_SEED, use_cache=False)
    run.layers.update(layers.metrics(run.recorder, 1))
    daemon_spans = _request_spans(trace_path)
    trace_path.unlink()
    for phase in ("open", "bulk"):
        for key in ("requests", "batches", "mean_batch_pairs", "cache_hit_ratio",
                    "errors", "cpu_us_per_request", "busy_frac"):
            run.layers[f"serving.{key}.{phase}"] = phases[phase][key]
        for key, value in daemon_spans[phase].items():
            run.layers[f"serving.{key}.{phase}"] = value
    run.layers["serving.wire_p50_ms.open"] = (
        traced["open"]["p50_ms"] - daemon_spans["open"]["request_p50_ms"]
    )
    run.layers["loadgen.late_p99_ms"] = phases["open"]["late_p99_ms"]
    run.layers["loadgen.samples"] = phases["open"]["samples"]
    run.layers["serve_p99_ms"] = phases["open"]["p99_ms"]
    run.layers["graphs.vertices"] = reference.graph.num_vertices
    run.layers["graphs.edges"] = reference.graph.num_edges
    run.layers["oracle.build.scales_stored"] = reference.num_scales
    run.layers["oracle.build.scales_skipped"] = len(reference.skipped_radii)
    run.layers["oracle.build.entries"] = sum(s.entries for s in reference.scales)
    attempted = run.layers["oracle.build.scales_attempted"]
    run.layers["oracle.build.stored_ratio"] = reference.num_scales / attempted if attempted else 0.0
    for name, value in _ops(traced).items():
        run.layers[f"trace.overhead.{name}"] = value / run.end_to_end[name]
