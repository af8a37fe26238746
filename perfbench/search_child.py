"""One fresh ``repro run`` of a RunSpec in this interpreter.

The search workload starts this script once per repetition, so every run
pays interpreter start, imports and a cold cache directory, as a user of
``python -m repro run`` does.  It prints one JSON line: the monotonic time
the pipeline started (the parent subtracts its spawn time to get set-up),
the pipeline wall time, the search ``result_hash()``, peak RSS, the stage
timings and execution statistics, and with ``--trace 1`` the outside-shim
samples of each layer.

    python3 perfbench/search_child.py --spec SPEC.json --cache-dir DIR --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from repro.api import MuffinPipeline, RunSpec

    spec = RunSpec.from_json(args.spec)
    pipeline = MuffinPipeline(spec, cache_dir=args.cache_dir)
    recorder = shims = None
    if args.trace:
        from shims import Recorder, install_search

        recorder = Recorder()
        shims = install_search(recorder)
    started = time.monotonic()
    result = pipeline.run()
    pipeline_s = time.monotonic() - started
    if shims is not None:
        shims.remove()

    stats = result.result.execution_stats
    payload = {
        "pipeline_start": started,
        "pipeline_s": pipeline_s,
        "result_hash": result.result.result_hash(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "timings": [(t.stage, t.status, t.seconds) for t in result.timings],
        "stats": stats.to_dict() if stats is not None else {},
        "layers": {name: recorder.samples[name] for name in recorder.samples}
        if recorder is not None
        else {},
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
