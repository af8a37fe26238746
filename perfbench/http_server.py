"""Server process of the ``serve_http_mixed`` workload.

Loads the artifact and starts ``ServeHTTPServer`` with the ``repro serve``
defaults on an ephemeral loopback port, ``--setups`` times (each set-up is
timed from artifact load to an answered warm-up burst; all but the last
server are stopped again).  Then it prints one JSON line with the port and
the set-up times and obeys commands on stdin, one per line:

``trace``  install the outside shims (answers ``{"traced": true}``)
``stop``   stop the server and print the shim records, the batch counts
           each shard had reached when they went in, and peak RSS; then exit
"""

from __future__ import annotations

import argparse
import http.client
import json
import resource
import sys
import time

import numpy as np

from serving import WARMUP_REQUESTS


def start(artifact: str, warm_body: bytes):
    from repro.serve import InferenceServer, ServeConfig, ServeHTTPServer
    from repro.zoo import load_fused_model

    began = time.perf_counter()
    model = load_fused_model(artifact)
    httpd = ServeHTTPServer(InferenceServer(model, ServeConfig()), host="127.0.0.1", port=0)
    httpd.start_background()
    host, port = httpd.address
    for _ in range(WARMUP_REQUESTS):
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/predict", warm_body, {"Content-Type": "application/json"})
            reply = conn.getresponse()
            reply.read()
        finally:
            conn.close()
        if reply.status != 200:
            raise RuntimeError(f"warm-up request answered {reply.status}")
    return httpd, time.perf_counter() - began


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--rows", required=True)
    parser.add_argument("--setups", type=int, default=5)
    args = parser.parse_args()

    with np.load(args.rows) as rows:
        warm_body = json.dumps({"features": rows["features"][:1].tolist()}).encode()
    httpd = None
    setups = []
    for _ in range(args.setups):
        if httpd is not None:
            httpd.stop()
        httpd, seconds = start(args.artifact, warm_body)
        setups.append(seconds)
    print(json.dumps({"port": httpd.address[1], "setup_s": setups}), flush=True)

    recorder = shims = None
    offsets = {}
    for line in sys.stdin:
        command = line.strip()
        if command == "trace" and shims is None:
            from shims import Recorder, install_serve

            recorder = Recorder()
            # batch ids count on from here (see serving.QueueWaitJoin)
            offsets = {s.slot: s.batches_attempted for s in httpd.inference.shards}
            shims = install_serve(recorder)
            print(json.dumps({"traced": True}), flush=True)
        elif command == "stop":
            break
    if shims is not None:
        shims.remove()
    httpd.stop()
    payload = {
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": recorder.samples if recorder is not None else {},
        "events": recorder.events if recorder is not None else {},
        "offsets": offsets,
    }
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
