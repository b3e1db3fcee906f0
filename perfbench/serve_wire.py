"""Workload ``serve-wire``: served requests over loopback TCP.

A ``repro.net.server`` process (started through ``launcher.py``) serves
an independent catalog of 10,000 objects in 4 dimensions with SB on the
memory backend. This process is the load: one asyncio loop, at most two
connections, 16 functions per request. Each request is, with chance
1/2, one of 64 hot workloads drawn Zipf(1), which fit in the server's
128-entry result cache; otherwise a workload never sent before, so the
working set outgrows the cache. Two phases:

* open loop: bursts of 8 requests sent at a fixed rate (about half of
  what the server sustains here), pipelined over two raw connections,
  each request timed from its scheduled send time;
* closed loop: two ``AsyncMatchingClient`` connections, each keeping a
  pipelined window of 8 requests in flight.

This is the path users call: codec and framing, micro-batching, the
cache and duplicate partitioning, the vectorized scorer, and SB's tree
path for a batch's single miss (rare with bursts of 8).
"""

from __future__ import annotations

import asyncio
import json
import queue
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.engine.batch import linear_batch_results
from repro.errors import ReproError
from repro.net import codec
from repro.net.frames import read_frame_async, write_frame_async

from common import (ROOT, Outcome, canonical_pairs, covered_seconds,
                    engine_metrics, median, percentile)
from spans import CLIENT_CODEC_POINTS, Tracer, combine

OBJECTS = 10_000
DIMS = 4
FUNCTIONS = 16
HOT_WORKLOADS = 64
HOT_SHARE = 0.5
#: Open-loop send rate, requests per second, in bursts of ``BURST``
#: requests scheduled at the same instant. Single arrivals make the
#: server alternate chaotically between batches of one miss (SB's tree
#: path, ~10x the per-workload cost of the vectorized path) and larger
#: batches, which left latency too unsteady from run to run to gate on.
#: The rate stays well below saturation even when the machine runs slow,
#: where latency would otherwise amplify every speed change.
RATE = 32.0
BURST = 8
#: Share of ``--seconds`` spent in the open-loop phase.
OPEN_SHARE = 0.6
CONNECTIONS = 2
WINDOW = 8
#: Server launches per run; ``setup_s`` is their median.
SETUPS = 3
#: A request still unanswered this long after its phase ends failed.
GRACE_S = 30.0
#: Workloads per reference scoring pass (bounds its score matrix).
REFERENCE_CHUNK = 32
LAUNCHER = ROOT / "perfbench" / "launcher.py"


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class Mix:
    """The request stream of one sender: hot Zipf(1) or never-seen.

    Workload keys are ``("hot", i)`` or ``("cold", stream, j)``; every
    key maps to one fixed 16-function workload of the run's seed.
    """

    def __init__(self, seed: int, stream: int) -> None:
        self.rng = np.random.default_rng([seed, stream])
        self.stream = stream
        self.cold = 0
        ranks = 1.0 / np.arange(1, HOT_WORKLOADS + 1)
        self.zipf = ranks / ranks.sum()

    def next(self) -> Tuple:
        if self.rng.random() < HOT_SHARE:
            return ("hot", int(self.rng.choice(HOT_WORKLOADS, p=self.zipf)))
        self.cold += 1
        return ("cold", self.stream, self.cold)


class Inputs:
    def __init__(self, seed: int) -> None:
        catalog, hot, cold = np.random.SeedSequence([seed]).generate_state(3)
        self.seed = seed
        self.catalog_seed = int(catalog)
        self._hot_seed = int(hot)
        self._cold_seed = int(cold)
        self._workloads: Dict[Tuple, list] = {}

    def workload(self, key: Tuple) -> list:
        if key not in self._workloads:
            if key[0] == "hot":
                seed = [self._hot_seed, key[1]]
            else:
                seed = [self._cold_seed, key[1], key[2]]
            prefs_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
            self._workloads[key] = repro.generate_preferences(
                FUNCTIONS, DIMS, seed=prefs_seed)
        return self._workloads[key]

    def catalog(self):
        """The catalog the server generates from ``--seed``."""
        return repro.generate_independent(OBJECTS, DIMS, seed=self.catalog_seed)


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One launcher subprocess; its stdout lines arrive on a queue."""

    def __init__(self, inputs: Inputs, traced: bool) -> None:
        argv = [sys.executable, str(LAUNCHER)]
        if traced:
            argv.append("--trace")
        argv += ["--", "--objects", str(OBJECTS), "--dims", str(DIMS),
                 "--seed", str(inputs.catalog_seed), "--algorithm", "sb",
                 "--backend", "memory"]
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.recent: deque = deque(maxlen=20)
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, text=True, cwd=str(ROOT),
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def wait_for(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError(
                    f"server sent no {prefix!r} line; last output: "
                    + " | ".join(self.recent))
            if line.startswith(prefix):
                return line
            self.recent.append(line)

    def address(self, timeout: float = 60.0) -> Tuple[str, int]:
        _, host, port = self.wait_for("LISTENING ", timeout).split()
        return host, int(port)

    def reset_spans(self) -> None:
        self.process.send_signal(signal.SIGUSR1)
        self.wait_for("RESET", 10.0)

    def stop(self) -> dict:
        """SIGTERM; returns the launcher's RESULT (peak RSS, spans)."""
        try:
            self.process.send_signal(signal.SIGTERM)
            line = self.wait_for("RESULT ", 30.0)
            self.process.wait(30.0)
        finally:
            self.kill()
        return json.loads(line[len("RESULT "):])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._reader.join(10.0)


async def start_server(inputs: Inputs, traced: bool):
    """Launch, wait for LISTENING, connect a client and call ``health``."""
    start = time.perf_counter()
    server = Server(inputs, traced)
    try:
        host, port = await asyncio.to_thread(server.address)
        client = repro.AsyncMatchingClient(host, port)
        await client.connect()
        await client.health()
    except BaseException:
        server.kill()
        raise
    return server, client, (host, port), time.perf_counter() - start


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
class Ledger:
    """Every answered request (for the checks) and every failure."""

    def __init__(self) -> None:
        self.answers: List[Tuple[Tuple, object]] = []
        self.attempted = 0
        self.failures: Dict[str, int] = {}

    def fail(self, reason: str, count: int = 1) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + count

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


async def open_loop(address, inputs: Inputs, seconds: float,
                    ledger: Ledger) -> dict:
    """Send bursts at ``RATE`` over raw pipelined connections; time each
    request from its scheduled send."""
    mix = Mix(inputs.seed, 0)
    count = max(1, int(RATE * seconds))
    keys = [mix.next() for _ in range(count)]
    requests = [repro.MatchingRequest(inputs.workload(key)) for key in keys]
    ledger.attempted += count
    connections = [await asyncio.open_connection(*address)
                   for _ in range(CONNECTIONS)]
    origin = time.monotonic() + 0.05
    scheduled = [origin + (i // BURST) * BURST / RATE for i in range(count)]
    done: List[Optional[float]] = [None] * count
    lag: List[float] = []
    wire_bytes = [0]

    async def send() -> None:
        for i, request in enumerate(requests):
            delay = scheduled[i] - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            lag.append(time.monotonic() - scheduled[i])
            frame = json.dumps({"id": i, "op": "match",
                                "payload": codec.encode_request(request)})
            data = frame.encode("utf-8")
            wire_bytes[0] += len(data) + 4
            await write_frame_async(connections[i % CONNECTIONS][1], data)

    async def receive(reader, expected: int) -> None:
        for _ in range(expected):
            frame = await read_frame_async(reader)
            if frame is None:
                return
            wire_bytes[0] += len(frame) + 4
            message = json.loads(frame)
            i = message["id"]
            if message.get("ok"):
                result = codec.decode_result(message["payload"])
                done[i] = time.monotonic()
                ledger.answers.append((keys[i], result))
            else:
                ledger.fail(f"error {message['error'].get('code')}")
                done[i] = float("inf")

    receivers = [
        asyncio.ensure_future(receive(reader, len(range(c, count, CONNECTIONS))))
        for c, (reader, _) in enumerate(connections)
    ]
    sender = asyncio.ensure_future(send())
    try:
        await asyncio.wait_for(asyncio.gather(sender, *receivers),
                               timeout=seconds + GRACE_S)
    except (asyncio.TimeoutError, OSError, ReproError, ValueError):
        pass    # whatever is still unanswered is counted below
    for task in (sender, *receivers):
        task.cancel()
    await asyncio.gather(sender, *receivers, return_exceptions=True)
    for _, writer in connections:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    latencies = []
    for i in range(count):
        if done[i] is None:
            ledger.fail("timeout or lost connection")
        if done[i] is None or done[i] == float("inf"):
            latencies.append(GRACE_S)   # a failure misses every limit
        else:
            latencies.append(done[i] - scheduled[i])
    return {"latencies": latencies, "lag": lag,
            "bytes_per_request": wire_bytes[0] / count}


async def closed_loop(address, first_client, inputs: Inputs, seconds: float,
                      ledger: Ledger) -> dict:
    """Each connection keeps a window of ``WINDOW`` requests in flight."""
    clients = [first_client] + [
        repro.AsyncMatchingClient(*address) for _ in range(CONNECTIONS - 1)
    ]
    start = time.monotonic()
    stop_at = start + seconds
    completed = [0]

    async def drive(client, stream: int) -> None:
        mix = Mix(inputs.seed, stream)
        while time.monotonic() < stop_at:
            keys = [mix.next() for _ in range(WINDOW)]
            ledger.attempted += WINDOW
            try:
                results = await asyncio.wait_for(
                    client.submit_many([inputs.workload(k) for k in keys]),
                    timeout=GRACE_S)
            except asyncio.TimeoutError:
                ledger.fail("timeout or lost connection", WINDOW)
                return
            except (OSError, ReproError) as error:
                ledger.fail(type(error).__name__, WINDOW)
                return
            completed[0] += WINDOW
            ledger.answers.extend(zip(keys, results))

    await asyncio.gather(*(drive(client, 1 + c)
                           for c, client in enumerate(clients)))
    end = time.monotonic()
    for client in clients[1:]:
        await client.aclose()
    return {"throughput": completed[0] / (end - start), "window": (start, end)}


async def run_pass(inputs: Inputs, seconds: float, traced: bool,
                   setups: int) -> dict:
    """Launch (``setups`` times), warm the hot set, run both phases."""
    setup_times = []
    for _ in range(setups - 1):
        server, client, _, elapsed = await start_server(inputs, False)
        setup_times.append(elapsed)
        await client.aclose()
        await asyncio.to_thread(server.stop)
    server, client, address, elapsed = await start_server(inputs, traced)
    setup_times.append(elapsed)
    ledger = Ledger()
    tracer = Tracer() if traced else None
    try:
        hot = [("hot", i) for i in range(HOT_WORKLOADS)]
        ledger.attempted += len(hot)
        results = await asyncio.wait_for(
            client.submit_many([inputs.workload(k) for k in hot]), GRACE_S)
        ledger.answers.extend(zip(hot, results))
        if tracer is not None:
            tracer.install(CLIENT_CODEC_POINTS)
            await asyncio.to_thread(server.reset_spans)
        before = await client.stats()
        opened = await open_loop(address, inputs, seconds * OPEN_SHARE, ledger)
        closed = await closed_loop(address, client, inputs,
                                   seconds * (1 - OPEN_SHARE), ledger)
        after = await client.stats()
        await client.aclose()
        served = await asyncio.to_thread(server.stop)
    except BaseException:
        server.kill()
        raise
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "setups": setup_times, "ledger": ledger, "open": opened,
        "closed": closed, "stats": (before, after),
        "rss_mb": served["peak_rss_kb"] / 1024.0,
        "client_trace": None if tracer is None else tracer.export(),
        "server_trace": served["trace"],
    }


def check(inputs: Inputs, ledger: Ledger) -> int:
    """Wrong answers: every served result against the canonical greedy
    matching on the same catalog, pairs and scores bit-exact.

    The server's vectorized path runs that same greedy code, so each
    distinct workload's reference is also checked for blocking pairs
    (``verify_stable_matching``), which shares none of it.
    """
    catalog = inputs.catalog()
    keys = sorted({key for key, _ in ledger.answers}, key=repr)
    expected = {}
    for i in range(0, len(keys), REFERENCE_CHUNK):
        chunk = keys[i:i + REFERENCE_CHUNK]
        workloads = [inputs.workload(key) for key in chunk]
        results = linear_batch_results(catalog, workloads)
        for key, workload, result in zip(chunk, workloads, results):
            stable = repro.verify_stable_matching(
                result.to_matching(), catalog, workload)
            expected[key] = canonical_pairs(result) if stable else None
    return sum(canonical_pairs(result) != expected[key]
               for key, result in ledger.answers)


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    inputs = Inputs(seed)
    measured = asyncio.run(run_pass(inputs, seconds, False,
                                    1 if traced else SETUPS))
    ledger = measured["ledger"]
    wrong = check(inputs, ledger)
    latencies = measured["open"]["latencies"]
    notes = {
        "open_loop_requests": str(len(latencies)),
        "open_loop_rate": f"{RATE:g} 1/s",
        "generator_lag_ms_p99": f"{percentile(measured['open']['lag'], 99) * 1e3:.6g} ms",
        "failures": json.dumps(ledger.failures),
    }
    attempted, failed = ledger.attempted, ledger.failed + wrong
    if not traced:
        metrics = {
            "setup_s": (median(measured["setups"]), "s"),
            "latency_p50_ms": (median(latencies) * 1e3, "ms"),
            "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
            "throughput_ops": (measured["closed"]["throughput"], "1/s"),
            "peak_rss_mb": (measured["rss_mb"], "MB"),
        }
        return Outcome(attempted, failed, wrong, metrics, notes)

    tracing = asyncio.run(run_pass(inputs, seconds, True, 1))
    traced_ledger = tracing["ledger"]
    traced_wrong = check(inputs, traced_ledger)
    before, after = tracing["stats"]
    requests = after["requests"] - before["requests"]
    export = combine(tracing["client_trace"], tracing["server_trace"])
    window = tracing["closed"]["window"]
    extra = {
        **engine_metrics(before, after),
        "net.frame_bytes_per_req": tracing["open"]["bytes_per_request"],
        "bench.generator_lag_ms_p99": percentile(tracing["open"]["lag"], 99) * 1e3,
        "trace.overhead_frac": measured["closed"]["throughput"]
        / tracing["closed"]["throughput"] - 1.0,
        "trace.coverage_frac": covered_seconds(
            tracing["server_trace"]["outer"], [window]) / (window[1] - window[0]),
    }
    return Outcome(attempted + traced_ledger.attempted,
                   failed + traced_ledger.failed + traced_wrong,
                   wrong + traced_wrong, extra, notes, (export, requests))
