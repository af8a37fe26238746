"""The bench --json document: schema v2 keeps v1 fields and adds span metrics."""

from __future__ import annotations

import json

from repro.bench import main as bench_main, run_benchmarks
from repro.obs import active_writer

V1_RECORD_FIELDS = {
    "benchmark", "backend", "wall_time_s", "baseline_s", "speedup",
    "verdict", "detail",
}


def test_json_document_is_schema_v2_with_v1_fields(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = bench_main(
        ["--json", str(out), "--bench", "metrics_engine", "--rounds", "1"]
    )
    assert code == 0
    document = json.loads(out.read_text())
    assert document["schema_version"] == 2
    assert isinstance(document["identity_only"], bool)
    record = document["records"][0]
    assert V1_RECORD_FIELDS <= set(record)
    assert record["backend"] == "numpy-float64"
    assert record["verdict"] == "identity"
    # the v2 addition: per-phase wall times measured by the span layer
    phases = record["metrics"]["phases"]
    assert set(phases) == {"baseline", "fastpath", "verify"}
    assert all(seconds >= 0.0 for seconds in phases.values())
    assert record["metrics"]["total_s"] >= phases["fastpath"]


def test_span_capture_does_not_leak_a_writer():
    assert active_writer() is None
    records = run_benchmarks(benchmarks=["metrics_engine"], rounds=1)
    assert active_writer() is None
    assert records[0].metrics["phases"]["baseline"] > 0.0
