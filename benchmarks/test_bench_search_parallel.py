"""Benchmark: parallel episode-batch evaluation of the Muffin search.

Episodes inside one controller batch are independent until the REINFORCE
update (Equation 4), so the search evaluates the whole ``episode_batch``
concurrently through a pluggable executor.  This benchmark verifies the two
load-bearing claims of that design:

* a seeded search returns **bit-identical** records on the serial and the
  process executors (parallelism changes wall-clock, never results);
* on a multi-core runner the process executor is measurably faster than
  serial at ``episode_batch >= 4`` (single-core machines skip the speedup
  assertion — there is nothing to parallelise onto);
* the shared-memory task transport ships at least **10x** fewer bytes per
  dispatch than pickling the task arrays would have, and leaves no
  ``/dev/shm`` segment behind after the run.
"""

import glob
import os
import time

import pytest

from repro.core import HeadTrainConfig, MuffinSearch, SearchConfig
from repro.core.sharedmem import SEGMENT_PREFIX
from repro.data import SyntheticISIC2019, split_dataset
from repro.zoo import ModelPool, TrainConfig

EPISODES = 8
EPISODE_BATCH = 8  # the full batch is dispatched at once


@pytest.fixture(scope="module")
def bench_pool() -> ModelPool:
    dataset = SyntheticISIC2019(num_samples=2500, seed=2019)
    split = split_dataset(dataset, seed=1)
    return ModelPool(
        split,
        architecture_names=["MobileNet_V3_Small", "ResNet-18", "DenseNet121"],
        train_config=TrainConfig(epochs=10, batch_size=256, lr=0.1, seed=0),
        seed=0,
    ).build()


def _timed_search(pool: ModelPool, executor: str, rounds: int = 2):
    """Run the same seeded search ``rounds`` times; keep the fastest time.

    Best-of-N guards the wall-clock comparison against scheduler noise on
    small CI runners (the results are identical every round by construction).
    """
    result = None
    best = float("inf")
    for _ in range(rounds):
        search = MuffinSearch(
            pool,
            attributes=["age", "site"],
            base_model="MobileNet_V3_Small",
            search_config=SearchConfig(
                episodes=EPISODES,
                episode_batch=EPISODE_BATCH,
                seed=0,
                executor=executor,
                # memoisation off so both runs train every head: a clean
                # apples-to-apples wall-clock comparison
                memoize=False,
            ),
            # Heavy enough per task (~0.3s) that pool start-up and per-task
            # pickling cannot eclipse the parallel win on a small runner.
            # The fused kernels are pinned off: this benchmark measures the
            # *executor's* ability to parallelise the python-bound autograd
            # loop (the fused kernels have their own benchmark in
            # test_bench_head_training.py).
            head_config=HeadTrainConfig(epochs=60, seed=0, use_fused=False),
        )
        start = time.perf_counter()
        result = search.run()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_bench_parallel_episode_batch(bench_pool):
    serial_result, serial_seconds = _timed_search(bench_pool, "serial")
    parallel_result, parallel_seconds = _timed_search(bench_pool, "process")

    # Determinism first: the speedup is worthless if results drift.
    assert [r.reward for r in serial_result.records] == [
        r.reward for r in parallel_result.records
    ]
    assert [r.candidate for r in serial_result.records] == [
        r.candidate for r in parallel_result.records
    ]

    # Transport accounting: the process executor must have shipped
    # shared-memory descriptors, not pickled matrices, and the serial run
    # must not have shipped anything at all.
    serial_stats = serial_result.execution_stats
    assert serial_stats.task_bytes_raw == 0
    assert serial_stats.task_bytes_shipped == 0
    stats = parallel_result.execution_stats
    assert stats.task_bytes_shipped > 0
    transport_saving = stats.task_bytes_raw / max(stats.task_bytes_shipped, 1)
    assert transport_saving >= 10.0, (
        f"shared-memory transport only saved x{transport_saving:.1f} over "
        f"pickling (raw {stats.task_bytes_raw} bytes, shipped "
        f"{stats.task_bytes_shipped} bytes; expected >= 10x)"
    )
    # And the master released every segment when the run shut down.
    leaked = glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")
    assert leaked == [], f"leaked shared-memory segments: {leaked}"

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    print(
        f"\n[bench] episode_batch={EPISODE_BATCH}: serial {serial_seconds:.3f}s, "
        f"process {parallel_seconds:.3f}s, speedup x{speedup:.2f} "
        f"({os.cpu_count()} CPUs); transport shipped "
        f"{stats.task_bytes_shipped} bytes vs {stats.task_bytes_raw} raw "
        f"(x{transport_saving:.0f} saved)"
    )

    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip("single-core runner: results verified identical, no cores to parallelise onto")
    if cpus < 4:
        # On 2-3 cores, fork/pickle overhead can eat most of the win under
        # load; require only that parallelism is not pathologically slower,
        # so a busy runner cannot flake the blocking tier-1 run.
        assert parallel_seconds < serial_seconds * 1.25, (
            f"process executor ({parallel_seconds:.3f}s) pathologically slower than serial "
            f"({serial_seconds:.3f}s) on {cpus} CPUs"
        )
        return
    # A genuinely multi-core runner must see a measured wall-clock win;
    # the 0.9 factor keeps a contended shared runner from flaking the
    # blocking tier-1 run on scheduler noise (ideal here is ~0.25x).
    assert parallel_seconds < serial_seconds * 0.9, (
        f"process executor ({parallel_seconds:.3f}s) not faster than serial "
        f"({serial_seconds:.3f}s) on {cpus} CPUs"
    )
