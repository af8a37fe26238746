"""Outside timing shims for the traced benchmark run.

The program has no spans of its own at the layer boundaries the benchmark
reports, so the traced run wraps public functions of each layer from the
outside: module attributes the caller looks up at call time, and methods on
their classes.  Each wrapper appends ``(seconds, size)`` to a named list.
The untraced run installs none of this.  ``Shims.remove`` puts every
original back.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

Sample = Tuple[float, int]


class Recorder:
    """Named lists of ``(seconds, size)`` samples, filled by the wrappers."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[Sample]] = {}
        #: extra per-call records (forward starts, frontend keys)
        self.events: Dict[str, list] = {}

    def series(self, name: str) -> List[Sample]:
        return self.samples.setdefault(name, [])

    def log(self, name: str) -> list:
        return self.events.setdefault(name, [])

    def count(self, name: str) -> int:
        return sum(size for _, size in self.samples.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.samples.get(name, ()))

    def total_s(self, name: str) -> float:
        return sum(seconds for seconds, _ in self.samples.get(name, ()))

    def durations(self, name: str) -> List[float]:
        return [seconds for seconds, _ in self.samples.get(name, ())]


class Shims:
    """Installs timing wrappers and restores the originals on ``remove``."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        size: Optional[Callable[..., int]] = None,
        on_call: Optional[Callable[..., None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` into ``recorder.series(name)``.

        ``size(*args, **kwargs)`` gives the work done by one call (default
        1); ``on_call(start, seconds, result, *args, **kwargs)`` receives
        each finished call for records a duration cannot hold.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        series = self.recorder.series(name)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            seconds = clock() - start
            series.append((seconds, size(*args, **kwargs) if size is not None else 1))
            if on_call is not None:
                on_call(start, seconds, result, *args, **kwargs)
            return result

        timed.__wrapped__ = original
        timed.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install_search(recorder: Recorder) -> Shims:
    """Shims around the layers a fresh ``repro run`` passes through."""
    from repro.core import controller, execution, search
    from repro.fairness import engine
    from repro.zoo import pool

    shims = Shims(recorder)
    shims.wrap(pool, "train_model", "pool.train")
    shims.wrap(
        search, "evaluate_task_batch", "heads.fused", size=lambda tasks, *a, **k: len(tasks)
    )
    autograd = recorder.series("heads.autograd")

    def head_tasks(start, seconds, result, executor, fn, items, *args, **kwargs):
        # the search maps ``evaluate_task`` for heads the fused kernels
        # cannot train; any other mapped function is not head training
        if getattr(fn, "__name__", "") == "evaluate_task":
            autograd.append((seconds, len(result)))

    for cls in (execution.SerialExecutor, execution._PooledExecutor, execution.ProcessExecutor):
        if "map" in cls.__dict__:
            shims.wrap(
                cls,
                "map",
                "executor.map",
                size=lambda executor, fn, items, *a, **k: 0,
                on_call=head_tasks,
            )
    for cls in (controller.RNNController, controller.RandomController):
        shims.wrap(cls, "sample", "controller.sample")
        shims.wrap(cls, "update", "controller.update")
    shims.wrap(engine.EvaluationEngine, "evaluate", "metrics.evaluate")
    return shims


def install_serve(recorder: Recorder) -> Shims:
    """Shims around admission, the forward, arbitration, settle and the
    fairness monitor of the serving path."""
    from repro.core import fusing
    from repro.serve import server, supervisor
    from repro.serve.monitor import FairnessMonitor

    shims = Shims(recorder)
    forwards = recorder.log("forward.starts")

    def forward_start(start, seconds, result, model, features, *args, **kwargs):
        forwards.append((threading.current_thread().name, start, int(len(features))))

    shims.wrap(
        fusing.FusedModel,
        "predict_detailed_features",
        "forward",
        size=lambda model, features, *a, **k: int(len(features)),
        on_call=forward_start,
    )
    shims.wrap(fusing, "consensus_arbitrate", "arbitrate")
    shims.wrap(supervisor.PendingRequest, "finish", "settle")
    admits = recorder.log("admit")

    def admit_key(start, seconds, result, inference, features, *args, **kwargs):
        admits.append((request_key(features), start))

    shims.wrap(server.InferenceServer, "submit", "admit", on_call=admit_key)
    shims.wrap(FairnessMonitor, "observe", "monitor.observe")
    predicts = recorder.log("client.predict")

    def predict_key(start, seconds, result, client, features, *args, **kwargs):
        predicts.append((request_key(features), seconds))

    shims.wrap(server.ServeClient, "predict", "client.predict", on_call=predict_key)
    return shims


def request_key(features) -> Tuple[int, float]:
    """Identify a request by its row count and first feature value (the
    HTTP frontend hands ``ServeClient.predict`` the decoded JSON lists)."""
    first = features[0]
    if isinstance(first, (list, tuple)) or getattr(first, "ndim", 0) == 1:
        return len(features), float(first[0])
    return 1, float(first)
