"""Workload ``search_quickstart``: fresh ``repro run`` of the quickstart spec.

Each repetition starts a fresh interpreter (``search_child.py``) on a fresh
cache directory, with the spec's ``process`` executor and default worker
count, because that is what a ``repro run`` user pays.  Repetitions run back
to back until ``--seconds`` is used up, so the workload is a closed loop of
one client whose requests are whole pipeline runs.

The workload seed picks one of ``VARIANTS`` spec variants; variant 0 is the
quickstart as shipped, the others draw the dataset, split and pool seeds from
a seeded generator.  The controller seed stays as shipped: it decides which
activations the search samples and so how many heads take the fused path
(3 to 16 of 40 across controller seeds), which would let the seed choose the
workload's cost.  Every run's ``result_hash()`` must equal the reference in
``references.json`` for its variant.

    python3 perfbench/search_quickstart.py --make-references   # rewrite the table
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    BENCH_DIR,
    SPEC_PATH,
    BenchmarkFailure,
    child_env,
    last_json_line,
    median,
    percentile,
    require_program,
    work_dir,
)

VARIANTS = 12
REFERENCES = BENCH_DIR / "references.json"
CHILD = BENCH_DIR / "search_child.py"
CHILD_TIMEOUT_S = 170.0


def spec_for(variant: int) -> Dict[str, object]:
    spec = json.loads(SPEC_PATH.read_text())
    if variant:
        draw = random.Random(f"perfbench-search-{variant}")
        spec["dataset"]["seed"] = draw.randrange(1 << 16)
        spec["dataset"]["split_seed"] = draw.randrange(1 << 16)
        spec["pool"]["seed"] = draw.randrange(1 << 16)
    return spec


def spec_seeds(spec: Dict[str, object]) -> Dict[str, int]:
    return {
        "dataset.seed": spec["dataset"]["seed"],
        "dataset.split_seed": spec["dataset"]["split_seed"],
        "pool.seed": spec["pool"]["seed"],
        "search.seed": spec["search"]["seed"],
    }


def fresh_run(spec_path: Path, trace: bool) -> Tuple[float, Dict[str, object]]:
    """One fresh pipeline run in a new interpreter; returns (set-up s, output)."""
    cache = work_dir("search") / "cache"
    shutil.rmtree(cache, ignore_errors=True)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--spec", str(spec_path), "--cache-dir", str(cache),
         "--trace", str(int(trace))],
        cwd=str(work_dir()),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchmarkFailure(f"repro run exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = last_json_line(proc.stdout)
    return float(out["pipeline_start"]) - spawned, out


def load_reference(variant: int, path: Path) -> str:
    try:
        table = json.loads(Path(path).read_text())
        entry = table["variants"][str(variant)]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchmarkFailure(f"no search reference for variant {variant} in {path}: {exc}")
    if entry.get("seeds") != spec_seeds(spec_for(variant)):
        raise BenchmarkFailure(
            f"{path} was written for other spec seeds than variant {variant} now has"
        )
    return str(entry["result_hash"])


def run(seed: int, seconds: float, trace: bool, references: Path) -> Dict[str, object]:
    variant = seed % VARIANTS
    expected = load_reference(variant, references)
    spec_path = work_dir("search") / f"spec-{variant}.json"
    spec_path.write_text(json.dumps(spec_for(variant)))
    setups: List[float] = []
    runs: List[Dict[str, object]] = []
    # the traced run alternates plain and traced repetitions, so the tracing
    # overhead is measured within one run; it needs one of each
    least = 2 if trace else 1
    begin = time.perf_counter()
    while len(runs) < least or time.perf_counter() - begin < seconds:
        traced = trace and len(runs) % 2 == 1
        setup_s, out = fresh_run(spec_path, traced)
        if out["result_hash"] != expected:
            raise BenchmarkFailure(
                f"search variant {variant}: result_hash {out['result_hash']} != "
                f"reference {expected}"
            )
        out["traced"] = traced
        setups.append(setup_s)
        runs.append(out)
    elapsed = time.perf_counter() - begin
    plain = [r["pipeline_s"] for r in runs if not r["traced"]]
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": median([r["rss_mb"] for r in runs]),
        "lat_p50_ms": 1000.0 * median(plain),
        "lat_p99_ms": 1000.0 * percentile(plain, 99),
        "throughput_rps": len(runs) / elapsed,
    }
    layers = None
    if trace:
        traced_runs = [r for r in runs if r["traced"]]
        per_run = [search_layers(r) for r in traced_runs]
        layers = {name: median([values[name] for values in per_run]) for name in per_run[0]}
        untraced = median(plain)
        layers["trace.overhead_pct"] = (
            100.0 * (median([r["pipeline_s"] for r in traced_runs]) - untraced) / untraced
        )
    return {
        "attempted": len(runs),
        "failed": 0,
        "metrics": metrics,
        "layers": layers,
        "phases": [
            {
                "phase": "fresh-run",
                "variant": variant,
                "sent": len(runs),
                "ok": len(runs),
                "pipeline_s": [round(r["pipeline_s"], 3) for r in runs],
                "setup_s": [round(s, 3) for s in setups],
            }
        ],
        "detail": {
            "variant": variant,
            "seeds": spec_seeds(spec_for(variant)),
            "result_hash": expected,
            "pipeline_s": median(plain),
        },
    }


def search_layers(out: Dict[str, object]) -> Dict[str, float]:
    from shims import Recorder

    layers = Recorder()
    layers.samples = out["layers"]
    stages = {stage: seconds for stage, _, seconds in out["timings"]}
    # 'metrics' and 'training' rows are shares of the search stage
    other = [v for s, v in stages.items() if s not in ("pool", "search", "metrics", "training")]
    stats = out["stats"]
    return {
        "stage.pool_s": stages.get("pool", 0.0),
        "stage.search_s": stages.get("search", 0.0),
        "stage.other_s": sum(other),
        "pool.train_calls": float(layers.calls("pool.train")),
        "pool.train_s": layers.total_s("pool.train"),
        "heads.fused_tasks": float(layers.count("heads.fused")),
        "heads.fused_s": layers.total_s("heads.fused"),
        "heads.autograd_tasks": float(layers.count("heads.autograd")),
        "heads.autograd_s": layers.total_s("heads.autograd"),
        "executor.map_s": layers.total_s("executor.map"),
        "executor.bytes_raw": float(stats.get("task_bytes_raw", 0)),
        "executor.bytes_shipped": float(stats.get("task_bytes_shipped", 0)),
        "controller.sample_s": layers.total_s("controller.sample"),
        "controller.update_s": layers.total_s("controller.update"),
        "metrics.evaluate_calls": float(layers.calls("metrics.evaluate")),
        "metrics.evaluate_s": layers.total_s("metrics.evaluate"),
        "body_cache.hits": float(stats.get("body_cache_hits", 0)),
        "body_cache.misses": float(stats.get("body_cache_misses", 0)),
    }


def make_references() -> None:
    """Run every variant once and record its ``result_hash()``."""
    require_program()
    table = {"spec": "examples/specs/quickstart.json", "variants": {}}
    for variant in range(VARIANTS):
        spec_path = work_dir("search") / f"spec-{variant}.json"
        spec = spec_for(variant)
        spec_path.write_text(json.dumps(spec))
        _, out = fresh_run(spec_path, trace=False)
        table["variants"][str(variant)] = {
            "seeds": spec_seeds(spec),
            "result_hash": out["result_hash"],
        }
        print(f"variant {variant}: {out['result_hash']} ({out['pipeline_s']:.2f} s)")
    REFERENCES.write_text(json.dumps(table, indent=2) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--make-references", action="store_true", required=True)
    parser.parse_args()
    make_references()
