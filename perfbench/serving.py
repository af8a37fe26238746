"""The serving workload's answer oracle, request accounting and the
per-layer numbers of a traced run."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from common import BenchmarkFailure, percentile

#: set-ups per run (the median is reported) and warm-up requests per set-up
SETUPS = 5
WARMUP_REQUESTS = 32


class Oracle:
    """Reference answers for every serving row, from a separately loaded
    copy of the artifact.

    Labels come from ``FusedModel.predict_features``; the consensus mask and
    the fused probabilities from ``predict_detailed_features`` on the same
    rows.  Served labels and masks must match exactly; probabilities to
    within ``PROB_ATOL`` (a batch of other rows may round the last bit of a
    GEMM differently, never more).
    """

    PROB_ATOL = 1e-9

    def __init__(self, artifact: Path, features: np.ndarray) -> None:
        from repro.zoo import load_fused_model

        model = load_fused_model(artifact)
        detailed = model.predict_detailed_features(features)
        self.predictions = np.asarray(model.predict_features(features))
        self.consensus = np.asarray(detailed.consensus_mask)
        self.probabilities = np.asarray(detailed.probabilities)
        if not np.array_equal(self.predictions, detailed.predictions):
            raise BenchmarkFailure("predict_features and predict_detailed_features disagree")

    def check(
        self,
        rows: np.ndarray,
        predictions: np.ndarray,
        consensus: np.ndarray,
        probabilities: np.ndarray,
        what: str,
    ) -> None:
        """Raise :class:`BenchmarkFailure` unless the served answers for
        ``rows`` (concatenated in request order) equal the reference."""
        rows = np.asarray(rows, dtype=np.int64)
        predictions = np.asarray(predictions)
        if predictions.shape != rows.shape or not np.array_equal(
            predictions, self.predictions[rows]
        ):
            bad = _first_mismatch(predictions, self.predictions[rows])
            raise BenchmarkFailure(
                f"{what}: served predictions differ from FusedModel.predict_features "
                f"(first mismatch at served row {bad})"
            )
        if not np.array_equal(np.asarray(consensus, dtype=bool), self.consensus[rows]):
            raise BenchmarkFailure(f"{what}: served consensus masks differ from the reference")
        probabilities = np.asarray(probabilities, dtype=np.float64)
        expected = self.probabilities[rows]
        if probabilities.shape != expected.shape or not np.allclose(
            probabilities, expected, rtol=0.0, atol=self.PROB_ATOL
        ):
            raise BenchmarkFailure(f"{what}: served probabilities differ from the reference")


def _first_mismatch(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape != b.shape:
        return 0
    return int(np.flatnonzero(a != b)[0])


@dataclass
class Accounting:
    """Requests of one phase by outcome."""

    phase: str
    sent: int = 0
    ok: int = 0
    refused: int = 0
    shed: int = 0
    errored: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def failed(self) -> int:
        return self.refused + self.shed + self.errored

    def summary(self) -> Dict[str, object]:
        lat = self.latencies_ms
        return {
            "phase": self.phase,
            "sent": self.sent,
            "ok": self.ok,
            "refused": self.refused,
            "shed": self.shed,
            "errored": self.errored,
            "elapsed_s": round(self.elapsed_s, 3),
            "p50_ms": round(percentile(lat, 50), 3),
            "p99_ms": round(percentile(lat, 99), 3),
            "samples": len(lat),
        }


class QueueWaitJoin:
    """Queue wait of each traced answer: submit to its forward's start.

    The forward starts are recorded per shard thread in call order, and an
    answer's ``(shard, batch_id)`` picks its batch; batch ids count on from
    ``offsets``, the batches each shard had run before the shims went in.
    """

    def __init__(self, recorder, offsets: Dict[int, int]) -> None:
        self.recorder = recorder
        self.offsets = offsets
        self.starts: Dict[int, List[Tuple[float, int]]] = {}
        self.seen = 0
        self.waits_ms: List[float] = []
        self.batches: Dict[Tuple[int, int], int] = {}

    def refresh(self) -> None:
        """Take in the forward starts recorded since the last call."""
        log = self.recorder.log("forward.starts")
        end = len(log)  # shard threads may append while this runs
        for thread_name, start, rows in log[self.seen : end]:
            if thread_name.startswith("muffin-shard-"):
                slot = int(thread_name[len("muffin-shard-") :].split(".")[0])
                self.starts.setdefault(slot, []).append((start, rows))
        self.seen = end

    def add(self, submitted: float, shard: int, batch_id: int, batch_rows: int) -> None:
        """One answer: its submit time and the batch fields of its response."""
        calls = self.starts.get(shard, [])
        k = batch_id - self.offsets.get(shard, 0)
        if not (0 <= k < len(calls) and calls[k][1] == batch_rows):
            raise BenchmarkFailure(
                f"queue-wait join: batch {batch_id} of shard {shard} has no recorded forward"
            )
        self.waits_ms.append((calls[k][0] - submitted) * 1000.0)
        self.batches[(shard, batch_id)] = batch_rows


def serve_layers(recorder, join: QueueWaitJoin) -> Dict[str, float]:
    """Per-layer numbers of the serving path from the shim samples."""

    def us(name: str) -> List[float]:
        return [seconds * 1e6 for seconds in recorder.durations(name)]

    forward_us = us("forward")
    forward_rows = recorder.count("forward")
    observe_calls = recorder.calls("monitor.observe")
    batches = join.batches
    return {
        "admit.p50_us": percentile(us("admit"), 50),
        "admit.p99_us": percentile(us("admit"), 99),
        "queue_wait.p50_ms": percentile(join.waits_ms, 50),
        "queue_wait.p99_ms": percentile(join.waits_ms, 99),
        "batch.rows_mean": (sum(batches.values()) / len(batches)) if batches else 0.0,
        "batch.count": float(len(batches)),
        "forward.calls": float(recorder.calls("forward")),
        "forward.p50_us": percentile(forward_us, 50),
        "forward.p99_us": percentile(forward_us, 99),
        "forward.us_per_row": (sum(forward_us) / forward_rows) if forward_rows else 0.0,
        "arbitrate.p50_us": percentile(us("arbitrate"), 50),
        "settle.p50_us": percentile(us("settle"), 50),
        "monitor.observe_calls": float(observe_calls),
        "monitor.observe_us": (
            1e6 * recorder.total_s("monitor.observe") / observe_calls if observe_calls else 0.0
        ),
    }
