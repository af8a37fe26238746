"""Machine-readable micro-benchmark suite: ``python -m repro bench``.

The repository's load-bearing performance claims live in ``benchmarks/`` as
pytest modules with hardware-tiered wall-clock assertions.  This module is
the *reporting* entry point on top of the same hot paths: it runs compact
versions of the head-training and metrics-engine workloads and emits
stable, machine-readable records —

    python -m repro bench --json bench.json
    python -m repro bench --bench metrics_engine --rounds 5

Each record carries the benchmark name, the fast-path and baseline wall
times, the speedup, and a **verdict**: the fast path must reproduce its
oracle bit for bit (``verdict="identity"``); any difference yields
``verdict="fail"`` and a non-zero exit code — the speedup of a wrong answer
is not reported as a win.  Records keep the schema-v1 ``backend`` field,
fixed at ``"numpy-float64"``, the one precision every hot path runs in.

:func:`identity_only` is the single switch the benchmark suite consults to
skip wall-clock assertions on constrained runners: set
``REPRO_BENCH_IDENTITY_ONLY=1``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .obs import TraceWriter, load_spans, span
from .obs import trace as _trace

#: the one switch: identity checks always run, wall-clock assertions are
#: skipped when it is set
IDENTITY_ONLY_VAR = "REPRO_BENCH_IDENTITY_ONLY"


def identity_only() -> bool:
    """True when wall-clock assertions should be skipped (identity still runs)."""
    return bool(os.environ.get(IDENTITY_ONLY_VAR))


@dataclass
class BenchRecord:
    """One benchmark measurement, stable across releases."""

    benchmark: str
    wall_time_s: float
    baseline_s: float
    speedup: float
    #: "identity" (bit-identical to the oracle) or "fail" (it differs; see
    #: ``detail``)
    verdict: str
    detail: str = ""
    #: schema v2: per-phase wall times measured by the obs span layer
    #: (``{"phases": {phase: seconds}, "total_s": seconds}``); v1 fields
    #: above are unchanged
    metrics: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "backend": "numpy-float64",
            "wall_time_s": round(self.wall_time_s, 6),
            "baseline_s": round(self.baseline_s, 6),
            "speedup": round(self.speedup, 3),
            "verdict": self.verdict,
            "detail": self.detail,
            "metrics": self.metrics,
        }


def _assert_identical(quantity: str, actual, desired) -> None:
    """Assert ``actual`` equals the oracle's ``desired`` bit for bit (NaNs equal)."""
    actual = np.asarray(actual, dtype=np.float64)
    desired = np.asarray(desired, dtype=np.float64)
    if not np.array_equal(actual, desired, equal_nan=True):
        worst = float(np.nanmax(np.abs(actual - desired))) if actual.size else 0.0
        raise AssertionError(
            f"fast path produced non-identical '{quantity}' "
            f"(max abs deviation {worst:.3e})"
        )


def _verdict(checks) -> "tuple":
    """Run ``checks`` (callables raising AssertionError) against the oracle."""
    try:
        for check in checks:
            check()
    except AssertionError as exc:
        return "fail", str(exc)
    return "identity", ""


# ----------------------------------------------------------------------
# Benchmark: fused batched head training vs the autograd oracle
# ----------------------------------------------------------------------
def bench_head_training(rounds: int) -> BenchRecord:
    """Fused batched trainer vs the autograd loop."""
    from .core.fusing import MuffinHead
    from .core.trainer import HeadTrainConfig, train_head_on_outputs, train_heads_batched

    num_heads, body_dim, num_classes, proxy, epochs = 4, 24, 8, 800, 10
    rng = np.random.default_rng(2023)
    labels = rng.integers(0, num_classes, proxy)
    weights = rng.random(proxy) + 0.1
    outputs = [rng.random((proxy, body_dim)) for _ in range(num_heads)]

    def fresh_heads():
        return [
            MuffinHead(body_dim, num_classes, (16,), "relu", seed=index)
            for index in range(num_heads)
        ]

    oracle_config = HeadTrainConfig(epochs=epochs, seed=0, use_fused=False)
    fused_config = HeadTrainConfig(epochs=epochs, seed=0, use_fused=True)

    baseline_s = float("inf")
    oracle_heads, oracle_results = [], []
    with span("bench/phase/baseline", rounds=rounds):
        for _ in range(rounds):
            oracle_heads = fresh_heads()
            start = time.perf_counter()
            oracle_results = [
                train_head_on_outputs(head, matrix, labels, weights, num_classes, oracle_config)
                for head, matrix in zip(oracle_heads, outputs)
            ]
            baseline_s = min(baseline_s, time.perf_counter() - start)

    fused_s = float("inf")
    fused_heads, fused_results = [], []
    with span("bench/phase/fastpath", rounds=rounds):
        for _ in range(rounds):
            fused_heads = fresh_heads()
            start = time.perf_counter()
            fused_results = train_heads_batched(
                fused_heads, outputs, labels, weights, num_classes, fused_config
            )
            fused_s = min(fused_s, time.perf_counter() - start)

    def checks():
        for oracle_head, oracle_result, fused_head, fused_result in zip(
            oracle_heads, oracle_results, fused_heads, fused_results
        ):
            yield lambda a=oracle_result.losses, b=fused_result.losses: _assert_identical(
                "loss_curve", b, a
            )
            oracle_state, fused_state = oracle_head.state_dict(), fused_head.state_dict()
            for key in oracle_state:
                yield lambda a=oracle_state[key], b=fused_state[key]: _assert_identical(
                    "head_weights", b, a
                )

    with span("bench/phase/verify"):
        verdict, detail = _verdict(checks())
    return BenchRecord(
        benchmark="head_training",
        wall_time_s=fused_s,
        baseline_s=baseline_s,
        speedup=baseline_s / max(fused_s, 1e-9),
        verdict=verdict,
        detail=detail,
    )


# ----------------------------------------------------------------------
# Benchmark: vectorized metrics engine vs the scalar seed loop
# ----------------------------------------------------------------------
def bench_metrics_engine(rounds: int) -> BenchRecord:
    """Batched :class:`EvaluationEngine` vs the scalar loop."""
    from .data import SyntheticISIC2019
    from .fairness import EvaluationEngine

    num_candidates, num_samples = 16, 2000
    dataset = SyntheticISIC2019(num_samples=num_samples, seed=2019)
    rng = np.random.default_rng(2023)
    labels = dataset.labels
    stacked = np.empty((num_candidates, num_samples), dtype=np.int64)
    for i in range(num_candidates):
        error_rate = 0.05 + 0.3 * (i / max(num_candidates - 1, 1))
        flip = rng.random(num_samples) < error_rate
        noise = rng.integers(0, dataset.num_classes, num_samples)
        stacked[i] = np.where(flip, noise, labels)

    engine = EvaluationEngine.for_dataset(dataset)

    def scalar_loop():
        evaluations = []
        for i in range(num_candidates):
            predictions = stacked[i]
            accuracy = float((predictions == labels).mean())
            unfairness = {}
            for name in dataset.attributes.names:
                spec = dataset.attributes[name]
                ids = dataset.group_ids(name)
                deviation = 0.0
                for index in range(len(spec.groups)):
                    mask = ids == index
                    group_acc = (
                        float((predictions[mask] == labels[mask]).mean())
                        if mask.any()
                        else accuracy
                    )
                    deviation += abs(group_acc - accuracy)
                unfairness[name] = float(deviation)
            evaluations.append((accuracy, unfairness))
        return evaluations

    baseline_s = float("inf")
    oracle = None
    with span("bench/phase/baseline", rounds=rounds):
        for _ in range(rounds):
            start = time.perf_counter()
            oracle = scalar_loop()
            baseline_s = min(baseline_s, time.perf_counter() - start)

    engine_s = float("inf")
    batch = None
    with span("bench/phase/fastpath", rounds=rounds):
        for _ in range(rounds):
            start = time.perf_counter()
            batch = engine.evaluate(stacked)
            engine_s = min(engine_s, time.perf_counter() - start)

    oracle_accuracy = np.array([accuracy for accuracy, _ in oracle])
    checks = [lambda: _assert_identical("accuracy", batch.accuracy, oracle_accuracy)]
    for name in dataset.attributes.names:
        oracle_unfairness = np.array([unfairness[name] for _, unfairness in oracle])
        checks.append(
            lambda n=name, o=oracle_unfairness: _assert_identical(
                f"unfairness[{n}]", batch.unfairness[n], o
            )
        )

    with span("bench/phase/verify"):
        verdict, detail = _verdict(checks)
    return BenchRecord(
        benchmark="metrics_engine",
        wall_time_s=engine_s,
        baseline_s=baseline_s,
        speedup=baseline_s / max(engine_s, 1e-9),
        verdict=verdict,
        detail=detail,
    )


BENCHMARKS = {
    "head_training": bench_head_training,
    "metrics_engine": bench_metrics_engine,
}


def run_benchmarks(
    benchmarks: Optional[Sequence[str]] = None,
    rounds: Optional[int] = None,
) -> List[BenchRecord]:
    """One record per requested benchmark (default: all)."""
    if benchmarks is None:
        benchmarks = list(BENCHMARKS)
    if rounds is None:
        rounds = 1 if identity_only() else 3
    records: List[BenchRecord] = []
    for name in benchmarks:
        if name not in BENCHMARKS:
            raise KeyError(
                f"unknown benchmark '{name}'; available: {sorted(BENCHMARKS)}"
            )
        records.append(_run_traced(name, rounds))
    return records


def _run_traced(name: str, rounds: int) -> BenchRecord:
    """Run one benchmark under a span capture and attach phase wall times.

    Each benchmark wraps its baseline / fast-path / verify sections in
    ``bench/phase/*`` spans; an in-memory trace writer scoped to this call
    collects them into the record's ``metrics`` sub-object (schema v2).  A
    writer the caller already installed is restored afterwards.
    """
    buffer = io.StringIO()
    previous = _trace.active_writer()
    writer = TraceWriter(buffer)
    _trace.install(writer)
    try:
        with span(f"bench/{name}", rounds=rounds):
            record = BENCHMARKS[name](rounds)
    finally:
        if previous is not None:
            _trace.install(previous)
        else:
            _trace.uninstall()
        writer.close()
    buffer.seek(0)
    rows = load_spans(buffer)
    phases = {
        row["name"].rsplit("/", 1)[-1]: row["duration_s"]
        for row in rows
        if str(row["name"]).startswith("bench/phase/")
    }
    total = next(
        (row["duration_s"] for row in rows if row["name"] == f"bench/{name}"), None
    )
    record.metrics = {"phases": phases, "total_s": total}
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the hot-path micro-benchmarks and emit "
        "machine-readable records",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write records as a JSON document ('-' for stdout)",
    )
    parser.add_argument(
        "--bench",
        action="append",
        default=None,
        metavar="NAME",
        choices=sorted(BENCHMARKS),
        help="benchmark(s) to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        metavar="N",
        help="best-of-N timing rounds (default: 3, or 1 under "
        f"{IDENTITY_ONLY_VAR}=1)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    try:
        records = run_benchmarks(benchmarks=args.bench, rounds=args.rounds)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # With --json - the document owns stdout; progress lines move to stderr
    # so the output stays parseable.
    progress = sys.stderr if args.json == "-" else sys.stdout
    for record in records:
        line = (
            f"[bench] {record.benchmark}: "
            f"{record.wall_time_s:.4f}s vs baseline {record.baseline_s:.4f}s "
            f"(x{record.speedup:.1f}), verdict={record.verdict}"
        )
        if record.detail:
            line += f" ({record.detail})"
        print(line, file=progress)

    failed = [record for record in records if record.verdict == "fail"]
    if args.json:
        # v2 adds the per-record span-measured "metrics" sub-object; every
        # v1 field is preserved unchanged.
        document = {
            "schema_version": 2,
            "identity_only": identity_only(),
            "records": [record.to_dict() for record in records],
        }
        text = json.dumps(document, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {len(records)} records to {args.json}")
    if failed:
        print(
            f"error: {len(failed)} benchmark(s) differ from their oracle",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro bench
    raise SystemExit(main())
