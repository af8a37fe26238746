"""The repository benchmark: one command, two workloads, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see each module's docstring for why it was chosen):

* ``search_quickstart`` (search_quickstart.py): fresh ``repro run`` of
  ``examples/specs/quickstart.json`` in a fresh interpreter, repeated;
* ``serve_http_mixed`` (serve_http.py): ``ServeHTTPServer`` on loopback
  under a closed loop of mixed request sizes, some labelled.

``--trace 0`` measures the end-to-end metrics with nothing installed in the
program.  ``--trace 1`` is a separate run that wraps the public functions of
each layer from outside (shims.py) and reports the per-layer metrics plus
the tracing overhead.  Both runs check every answer: a served prediction
must equal ``FusedModel.predict_features`` on the same rows of a separately
loaded artifact, and a search's ``result_hash()`` must equal the reference
for its seed in ``references.json``.  A wrong answer exits 1 and prints no
result.

Every run prints an environment header, the request accounting of each
phase and the metrics by name with their units; its last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Every workload
reports every metric of the requested kind; a per-layer metric of a layer
the workload bypasses reads 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from common import BenchmarkFailure, cpu_times, environment, require_program, steal_pct

WORKLOADS = ("search_quickstart", "serve_http_mixed")

#: end-to-end metrics: (name, unit).  Each workload gives them its meaning:
#: a search "request" is one fresh pipeline run, a serving one a predict call.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("throughput_rps", "1/s"),
)

#: per-layer metrics: (name, unit, workload that exercises the layer,
#: end-to-end metric it should move there).
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("stage.pool_s", "s", "search_quickstart", "lat_p50_ms"),
    ("stage.search_s", "s", "search_quickstart", "lat_p50_ms"),
    ("stage.other_s", "s", "search_quickstart", "lat_p50_ms"),
    ("pool.train_calls", "count", "search_quickstart", "lat_p50_ms"),
    ("pool.train_s", "s", "search_quickstart", "lat_p50_ms"),
    ("heads.fused_tasks", "count", "search_quickstart", "lat_p50_ms"),
    ("heads.fused_s", "s", "search_quickstart", "lat_p50_ms"),
    ("heads.autograd_tasks", "count", "search_quickstart", "lat_p50_ms"),
    ("heads.autograd_s", "s", "search_quickstart", "lat_p50_ms"),
    ("executor.map_s", "s", "search_quickstart", "lat_p50_ms"),
    ("executor.bytes_raw", "bytes", "search_quickstart", "lat_p50_ms"),
    ("executor.bytes_shipped", "bytes", "search_quickstart", "lat_p50_ms"),
    ("controller.sample_s", "s", "search_quickstart", "lat_p50_ms"),
    ("controller.update_s", "s", "search_quickstart", "lat_p50_ms"),
    ("metrics.evaluate_calls", "count", "search_quickstart", "lat_p50_ms"),
    ("metrics.evaluate_s", "s", "search_quickstart", "lat_p50_ms"),
    ("body_cache.hits", "count", "search_quickstart", "lat_p50_ms"),
    ("body_cache.misses", "count", "search_quickstart", "lat_p50_ms"),
    ("admit.p50_us", "us", "serve_http_mixed", "lat_p50_ms"),
    ("admit.p99_us", "us", "serve_http_mixed", "lat_p99_ms"),
    ("queue_wait.p50_ms", "ms", "serve_http_mixed", "lat_p50_ms"),
    ("queue_wait.p99_ms", "ms", "serve_http_mixed", "lat_p99_ms"),
    ("batch.rows_mean", "rows", "serve_http_mixed", "throughput_rps"),
    ("batch.count", "count", "serve_http_mixed", "throughput_rps"),
    ("forward.calls", "count", "serve_http_mixed", "throughput_rps"),
    ("forward.p50_us", "us", "serve_http_mixed", "lat_p50_ms"),
    ("forward.p99_us", "us", "serve_http_mixed", "lat_p99_ms"),
    ("forward.us_per_row", "us", "serve_http_mixed", "throughput_rps"),
    ("arbitrate.p50_us", "us", "serve_http_mixed", "throughput_rps"),
    ("settle.p50_us", "us", "serve_http_mixed", "throughput_rps"),
    ("http.frontend_p50_ms.single", "ms", "serve_http_mixed", "lat_p50_ms"),
    ("http.frontend_p99_ms.single", "ms", "serve_http_mixed", "lat_p99_ms"),
    ("http.frontend_p50_ms.multi", "ms", "serve_http_mixed", "lat_p50_ms"),
    ("http.frontend_p99_ms.multi", "ms", "serve_http_mixed", "lat_p99_ms"),
    ("monitor.observe_calls", "count", "serve_http_mixed", "throughput_rps"),
    ("monitor.observe_us", "us", "serve_http_mixed", "throughput_rps"),
    ("trace.overhead_pct", "%", "all", "none: the cost of tracing itself"),
)


def run_workload(args) -> Dict[str, object]:
    if args.workload == "search_quickstart":
        import search_quickstart

        return search_quickstart.run(args.seed, args.seconds, bool(args.trace), args.references)
    from artifact import ensure_artifact, load_rows

    artifact, rows_path = ensure_artifact()
    import serve_http

    return serve_http.run(
        artifact, rows_path, load_rows(rows_path), args.seed, args.seconds, bool(args.trace)
    )


def report(workload: str, outcome: Dict[str, object], trace: bool) -> Dict[str, object]:
    """Print the human-readable report and return the result object."""
    for phase in outcome["phases"]:
        print("# phase " + json.dumps(phase))
    print("# detail " + json.dumps(outcome["detail"]))
    metrics: Dict[str, Dict[str, object]] = {}
    if trace:
        layers = outcome["layers"] or {}
        print(f"# per-layer table ({workload}); 0 = layer bypassed by this workload")
        for name, unit, exercised, moves in PER_LAYER:
            value = float(layers.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            print(f"#   {name:<30} {value:>14.6g} {unit:<6} [{exercised} -> {moves}]")
    else:
        for name, unit in END_TO_END:
            value = float(outcome["metrics"][name])
            metrics[name] = {"value": value, "unit": unit}
            print(f"# {name:<16} {value:>14.6g} {unit}")
    return {
        "correct": True,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Muffin repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--references",
        type=Path,
        default=Path(__file__).resolve().parent / "references.json",
        help="search result_hash table (the self-test passes a corrupted copy)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        require_program()
        print("# env " + json.dumps(environment()), flush=True)
        print(
            f"# workload {args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace}",
            flush=True,
        )
        before = cpu_times()
        outcome = run_workload(args)
        # a shared host that takes CPU time away slows every number here
        print("# host " + json.dumps({"steal_pct": steal_pct(before, cpu_times())}))
        result = report(args.workload, outcome, bool(args.trace))
    except BenchmarkFailure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
