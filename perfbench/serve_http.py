"""Workload ``serve_http_mixed``: ``ServeHTTPServer`` on loopback.

The server runs in its own process (``http_server.py``) with the ``repro
serve`` defaults, as ``repro serve`` would.  ``CLIENTS`` client threads
drive a closed loop of ``POST /predict`` requests, each on a new connection
as the HTTP/1.0 server closes it.  The request bodies are a seeded mix:
``SINGLE_SHARE`` of them carry one row, the rest 2 to ``max_batch`` rows,
and ``LABELLED_SHARE`` carry ``groups`` and ``labels``.
``FairnessMonitor.observe`` runs for every request; only the labelled ones
take its write path into the fairness windows.  No measured request traffic
exists for this program, so the client count and both shares are
assumptions; the reason for each is given where it is set.  Bodies are
encoded before the clock starts and answers are decoded and checked after it
stops.  With one request in flight and a queue depth of 128 the server has
no reason to refuse or shed anything, so any answer but 200 fails the run.

Alone in its batch, a request under ``max_batch`` rows waits out the 5 ms
batch window; the JSON frontend and the forward make up the rest of its
latency, the frontend most of it for multi-row requests.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import subprocess
import sys
import threading
import time
from collections import defaultdict, deque
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from common import BENCH_DIR, BenchmarkFailure, child_env, median, percentile, work_dir
from serving import SETUPS, Accounting, Oracle, QueueWaitJoin, serve_layers

#: One client.  Two (one per core of the 2-core machine the bounds were set
#: on) kept both cores busy with client and server threads, and the
#: run-to-run spread of latency and throughput doubled: range over median
#: 0.26 against 0.13 over four alternated 30 s runs of each.
CLIENTS = 1
BODIES = 512
#: Assumed, not measured.  Sizes run from 1 row up to ``max_batch`` (64 by
#: default, the most one batch takes); spread evenly they would make 1-row
#: requests 1/64 of the bodies, too few for a p99 of their frontend time in
#: a traced run.  Under one half, so the gated median lands among the
#: multi-row requests, whose frontend time grows with their size, rather
#: than on the edge between the two classes.
SINGLE_SHARE = 0.4
#: Assumed, not measured: enough labelled requests that the monitor's
#: window updates run thousands of times in a run, while requests without
#: labels, the plain predict path, stay the majority.
LABELLED_SHARE = 0.3
MAX_ROWS = 64
#: the closed loop's p50 latency and throughput are medians over this many
#: windows
WINDOWS = 5
#: requests per second the body order is long enough for (~10x measured)
MAX_RATE = 2000
#: no body is sent twice within this many requests
GAP = 128
SERVER = BENCH_DIR / "http_server.py"

Sent = Tuple[int, float, float, int, bytes]  # (body, start, end, status, reply)


class Bodies:
    """The seeded request mix, encoded once."""

    def __init__(self, rows: Dict[str, np.ndarray], seed: int) -> None:
        rng = np.random.default_rng([seed, 0x477])
        features = self.features = rows["features"]
        attributes = sorted(key[len("group:") :] for key in rows if key.startswith("group:"))
        # The mix itself is fixed (exact shares, multi-row sizes spread
        # evenly over 2..MAX_ROWS); the seed shuffles it and picks the rows,
        # so every seed asks for the same amount of work.  Distinct first
        # rows make (rows, first value) identify a body.
        singles = round(SINGLE_SHARE * BODIES)
        sizes = np.concatenate(
            [np.ones(singles, dtype=np.int64),
             np.rint(np.linspace(2, MAX_ROWS, BODIES - singles)).astype(np.int64)]
        )
        sizes = rng.permutation(sizes)
        labelled_mask = np.zeros(BODIES, dtype=bool)
        labelled_mask[: round(LABELLED_SHARE * BODIES)] = True
        labelled_mask = rng.permutation(labelled_mask)
        firsts = rng.choice(features.shape[0], size=BODIES, replace=False)
        self.rows: List[np.ndarray] = []
        self.encoded: List[bytes] = []
        for first, size, labelled in zip(firsts, sizes.tolist(), labelled_mask.tolist()):
            picked = np.concatenate([[first], rng.integers(0, features.shape[0], size=size - 1)])
            body = {"features": features[picked].tolist()}
            if labelled:
                body["groups"] = {a: rows[f"group:{a}"][picked].tolist() for a in attributes}
                body["labels"] = rows["labels"][picked].tolist()
            self.rows.append(picked)
            self.encoded.append(json.dumps(body).encode())
        keys = {self.key(i) for i in range(BODIES)}
        if len(keys) != BODIES:
            raise BenchmarkFailure("request bodies are not distinguishable by their first value")
        self.order_rng = np.random.default_rng([seed, 0x0D3])

    def order(self, seconds: float) -> Iterator[int]:
        """The seeded order in which the clients take the bodies: fresh
        permutations of the mix, back to back, enough for ``MAX_RATE``.

        One permutation repeated would fix the sequence for the whole run;
        with two clients, where it fixed which bodies ran side by side, that
        alone moved the median latency by ~10 % from seed to seed.  A body
        of the last ``GAP`` of one permutation moves to the end of the next,
        so equal keys stay far apart for the traced run's join
        (``http_layers``).
        """
        sequence: List[int] = []
        for _ in range(max(2, math.ceil(MAX_RATE * seconds / BODIES))):
            recent = set(sequence[-GAP:])
            cycle = self.order_rng.permutation(BODIES).tolist()
            sequence += [i for i in cycle if i not in recent] + [i for i in cycle if i in recent]
        # a C-level iterator: the client threads share it safely
        return itertools.cycle(sequence)

    def key(self, index: int) -> Tuple[int, float]:
        picked = self.rows[index]
        return len(picked), float(self.features[picked[0], 0])


class ServerProcess:
    """The ``http_server.py`` child and its line protocol."""

    def __init__(self, artifact, rows_path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER), "--artifact", str(artifact), "--rows", str(rows_path),
             "--setups", str(SETUPS)],
            cwd=str(work_dir()),
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.hello = self._reply()
        self.port = int(self.hello["port"])

    def _reply(self) -> Dict[str, object]:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise BenchmarkFailure(f"the HTTP server process exited with {self.proc.returncode}")
        return json.loads(line)

    def command(self, text: str) -> Dict[str, object]:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


def closed_loop(port: int, bodies: Bodies, seconds: float, order: Iterator[int]) -> Tuple[List[Sent], float, float]:
    """``CLIENTS`` threads, each sending its next body when the last one
    is answered; returns every request, the start time and the wall time."""
    sent: List[Sent] = []
    stop_at = time.perf_counter() + seconds
    headers = {"Content-Type": "application/json"}

    def client() -> None:
        clock = time.perf_counter
        while clock() < stop_at:
            index = next(order)
            start = clock()
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            try:
                conn.request("POST", "/predict", bodies.encoded[index], headers)
                reply = conn.getresponse()
                status, data = reply.status, reply.read()
            except (OSError, http.client.HTTPException):
                status, data = 0, b""  # counted as errored, never dropped
            finally:
                conn.close()
            sent.append((index, start, clock(), status, data))

    begin = time.perf_counter()
    threads = [threading.Thread(target=client, name=f"bench-client-{i}") for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
    if any(thread.is_alive() for thread in threads):
        raise BenchmarkFailure("an HTTP client thread did not finish")
    return sent, begin, time.perf_counter() - begin


def account_and_check(sent: List[Sent], elapsed: float, bodies: Bodies, oracle: Oracle, phase: str) -> Accounting:
    """Count the requests by outcome and check every answer; raise
    :class:`BenchmarkFailure` on any answer but 200 or any wrong one."""
    account = Accounting(phase=phase, sent=len(sent), elapsed_s=elapsed)
    rows, predictions, consensus, probabilities = [], [], [], []
    for index, start, end, status, data in sent:
        if status == 429:
            account.refused += 1
            continue
        if status == 504:
            account.shed += 1
            continue
        if status != 200:
            account.errored += 1
            continue
        answer = json.loads(data)
        account.ok += 1
        account.latencies_ms.append((end - start) * 1000.0)
        rows.append(bodies.rows[index])
        predictions.append(answer["predictions"])
        consensus.append(answer["consensus"])
        probabilities.append(answer["probabilities"])
    if account.failed:
        raise BenchmarkFailure(
            f"serve_http_mixed/{phase}: {account.failed} of {account.sent} requests were "
            f"not answered with 200 {json.dumps(account.summary())}"
        )
    if rows:
        oracle.check(
            np.concatenate(rows),
            np.concatenate([np.asarray(p, dtype=np.int64) for p in predictions]),
            np.concatenate([np.asarray(c, dtype=bool) for c in consensus]),
            np.concatenate([np.asarray(p, dtype=np.float64) for p in probabilities]),
            f"serve_http_mixed/{phase}",
        )
    return account


def run(artifact, rows_path, rows, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    bodies = Bodies(rows, seed)
    oracle = Oracle(artifact, rows["features"])
    server = ServerProcess(artifact, rows_path)
    order = bodies.order(seconds)
    layers: Optional[Dict[str, float]] = None
    try:
        setups = [float(s) for s in server.hello["setup_s"]]
        if trace:
            base_sent, _, base_elapsed = closed_loop(server.port, bodies, seconds / 2, order)
            server.command("trace")
            sent, begin, elapsed = closed_loop(server.port, bodies, seconds / 2, order)
        else:
            sent, begin, elapsed = closed_loop(server.port, bodies, seconds, order)
        final = server.command("stop")
    finally:
        server.close()
    phases = []
    if trace:
        baseline = account_and_check(base_sent, base_elapsed, bodies, oracle, "closed-untraced")
        phases.append(baseline)
    account = account_and_check(sent, elapsed, bodies, oracle, "closed")
    phases.append(account)
    if trace:
        layers = http_layers(final, sent, bodies)
        untraced = baseline.ok / baseline.elapsed_s
        layers["trace.overhead_pct"] = 100.0 * (untraced - account.ok / elapsed) / untraced
    windows = time_windows(sent, begin, elapsed)
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": float(final["rss_mb"]),
        "lat_p50_ms": median([percentile(w, 50) for w in windows]),
        "lat_p99_ms": percentile(typical_latencies(sent), 99),
        "throughput_rps": median([len(w) for w in windows]) * len(windows) / elapsed,
    }
    return {
        "attempted": sum(a.sent for a in phases),
        "failed": sum(a.failed for a in phases),
        "metrics": metrics,
        "layers": layers,
        "phases": [a.summary() for a in phases],
        "detail": {
            "setup_s_all": [round(s, 4) for s in setups],
            "window_p50_ms": [round(percentile(w, 50), 3) for w in windows],
            "window_requests": [len(w) for w in windows],
        },
    }


def time_windows(sent: List[Sent], begin: float, elapsed: float) -> List[List[float]]:
    """Latencies (ms) of the requests, all answered with 200, by the window
    of the loop their send fell in; the end-to-end numbers are medians over
    windows, so a few seconds of interference from elsewhere moves one
    window only."""
    windows: List[List[float]] = [[] for _ in range(WINDOWS)]
    for _, start, end, _, _ in sent:
        slot = min(WINDOWS - 1, int((start - begin) / elapsed * WINDOWS))
        windows[slot].append((end - start) * 1000.0)
    return windows


def typical_latencies(sent: List[Sent]) -> List[float]:
    """Each request's latency (ms) replaced by the median latency of all
    sends of its body, so the p99 is the tail of the request mix: how long
    the slowest bodies take, about 1 % of the sends.

    Each body is sent ~10 times in a 50 s run.  The p99 of the raw
    latencies lands among the few sends that interference from elsewhere
    on the host delayed, and follows how often that happens: over ten runs
    on a shared 2-vCPU host its spread reached 0.29 of its median, while a
    CPU hog busy 3 s in every 10 moved this p99 by under 6 %.
    """
    by_body: Dict[int, List[float]] = defaultdict(list)
    for index, start, end, _, _ in sent:
        by_body[index].append((end - start) * 1000.0)
    typical = {index: median(latencies) for index, latencies in by_body.items()}
    return [typical[index] for index, _, _, _, _ in sent]


def http_layers(final: Dict[str, object], sent: List[Sent], bodies: Bodies) -> Dict[str, float]:
    """Per-layer numbers of the traced phase from the server's shim records.

    Each answered request is joined to its ``InferenceServer.submit`` and
    ``ServeClient.predict`` calls on the body's key, in order (a key recurs
    only after ``GAP`` other requests).  Frontend time is the client latency
    minus the ``predict`` time; queue wait is submit to the start of the
    forward named by the response's ``shard`` and ``batch_id``.
    """
    from shims import Recorder

    recorder = Recorder()
    recorder.samples = final["samples"]
    recorder.events = final["events"]
    join = QueueWaitJoin(recorder, {int(slot): count for slot, count in final["offsets"].items()})
    join.refresh()
    keyed: Dict[str, Dict[Tuple[int, float], deque]] = {}
    for log in ("client.predict", "admit"):
        keyed[log] = defaultdict(deque)
        for key, value in recorder.log(log):
            keyed[log][(int(key[0]), float(key[1]))].append(value)
    frontend: Dict[bool, List[float]] = {True: [], False: []}
    for index, start, end, _, data in sorted(sent, key=lambda item: item[1]):
        key = bodies.key(index)
        predicted, admitted = keyed["client.predict"].get(key), keyed["admit"].get(key)
        if not predicted or not admitted:
            raise BenchmarkFailure("an answered HTTP request has no recorded predict/submit call")
        frontend[len(bodies.rows[index]) > 1].append((end - start - predicted.popleft()) * 1000.0)
        answer = json.loads(data)
        join.add(admitted.popleft(), answer["shard"], answer["batch_id"], answer["batch_rows"])
    layers = serve_layers(recorder, join)
    layers.update(
        {
            "http.frontend_p50_ms.single": percentile(frontend[False], 50),
            "http.frontend_p99_ms.single": percentile(frontend[False], 99),
            "http.frontend_p50_ms.multi": percentile(frontend[True], 50),
            "http.frontend_p99_ms.multi": percentile(frontend[True], 99),
        }
    )
    return layers
