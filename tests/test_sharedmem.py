"""Shared-memory task transport: registry lifecycle, transport identity, leaks.

The zero-copy transport (:mod:`repro.core.sharedmem` plus the
``BodyOutputCache`` integration in :mod:`repro.core.search`) promises:

* share/attach round trips are bit-identical and attached views read-only;
* segments are refcounted per source array and unlinked at refcount zero;
* a search over a process-crossing executor ships descriptors instead of
  pickled matrices (bytes counters prove it), returns bit-identical results,
  and leaves **no** ``/dev/shm/repro-boc-*`` segment behind after shutdown.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.core import HeadTrainConfig, MuffinSearch, SearchConfig
from repro.core.search import (
    REF_DESCRIPTOR_BYTES,
    TASK_ARRAY_FIELDS,
    evaluate_task,
    resolve_task_arrays,
    task_payload_bytes,
)
from repro.core.sharedmem import (
    SEGMENT_PREFIX,
    SharedArrayRef,
    SharedSegmentRegistry,
    attach_shared_array,
    detach_all,
)


def live_segments():
    """Names of this machine's live repro shared-memory segments."""
    return sorted(
        os.path.basename(path) for path in glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")
    )


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test starts and must end with zero live repro segments."""
    before = live_segments()
    yield
    detach_all()
    after = live_segments()
    assert after == before, f"leaked shared-memory segments: {after}"


# ----------------------------------------------------------------------
# Registry / attach primitives
# ----------------------------------------------------------------------
class TestRegistry:
    def test_share_attach_round_trip_is_bit_identical(self):
        registry = SharedSegmentRegistry()
        array = np.random.default_rng(0).random((37, 5))
        ref = registry.share(array)
        assert ref.name.startswith(SEGMENT_PREFIX)
        assert ref.shape == (37, 5)
        assert ref.nbytes == array.nbytes
        view = attach_shared_array(ref)
        assert np.array_equal(view, array)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
        detach_all()
        registry.close_all()

    def test_attach_copy_is_private_and_mutable(self):
        registry = SharedSegmentRegistry()
        array = np.arange(10, dtype=np.float64)
        ref = registry.share(array)
        private = attach_shared_array(ref, copy=True)
        private[0] = -1.0
        assert attach_shared_array(ref)[0] == 0.0
        detach_all()
        registry.close_all()

    def test_share_is_memoised_per_array_and_refcounted(self):
        registry = SharedSegmentRegistry()
        array = np.ones((8, 8))
        ref_a = registry.share(array)
        ref_b = registry.share(array)
        assert ref_a == ref_b
        assert len(registry) == 1
        registry.release(array)  # refcount 2 -> 1: still live
        assert len(registry) == 1
        assert ref_a.name in live_segments()
        registry.release(array)  # refcount 1 -> 0: unlinked
        assert len(registry) == 0
        assert ref_a.name not in live_segments()

    def test_distinct_arrays_get_distinct_segments(self):
        registry = SharedSegmentRegistry()
        a, b = np.zeros(4), np.zeros(4)
        assert registry.share(a).name != registry.share(b).name
        assert len(registry) == 2
        registry.close_all()

    def test_release_of_unknown_array_is_a_no_op(self):
        registry = SharedSegmentRegistry()
        registry.release(np.zeros(3))
        assert len(registry) == 0

    def test_close_all_is_idempotent_and_registry_stays_usable(self):
        registry = SharedSegmentRegistry()
        registry.share(np.zeros(4))
        registry.close_all()
        registry.close_all()
        assert len(registry) == 0
        # a registry survives close_all: the pipeline re-exports on later runs
        ref = registry.share(np.ones(4))
        assert ref.name in live_segments()
        registry.close_all()

    def test_fresh_registries_never_reuse_names_against_stale_attachments(self):
        """Segment names are process-unique, not per-registry.

        Regression: an executor running tasks inline attaches segments in
        the master process; a later search's fresh registry restarting its
        counter would reuse the name and the name-keyed attach cache would
        serve the old (unlinked, smaller) segment's bytes.
        """
        registry_a = SharedSegmentRegistry()
        small = np.zeros(4)
        ref_a = registry_a.share(small)
        attach_shared_array(ref_a)  # master-side inline-eval attachment
        registry_a.release(small)

        registry_b = SharedSegmentRegistry()
        big = np.arange(64, dtype=np.float64)
        ref_b = registry_b.share(big)
        assert ref_b.name != ref_a.name
        assert np.array_equal(attach_shared_array(ref_b), big)
        registry_b.close_all()

    def test_destroy_drops_the_local_attachment(self):
        registry = SharedSegmentRegistry()
        array = np.ones(8)
        ref = registry.share(array)
        attach_shared_array(ref)
        registry.release(array)  # unlinks — and closes the cached attachment
        with pytest.raises(FileNotFoundError):
            attach_shared_array(ref)

    def test_attach_is_cached_per_segment(self):
        registry = SharedSegmentRegistry()
        ref = registry.share(np.arange(6, dtype=np.int64))
        first = attach_shared_array(ref)
        second = attach_shared_array(ref)
        # same underlying buffer (one cached attachment, two views)
        assert first.__array_interface__["data"][0] == second.__array_interface__["data"][0]
        detach_all()
        registry.close_all()


# ----------------------------------------------------------------------
# Task-level transport helpers
# ----------------------------------------------------------------------
class TestTaskTransport:
    def _search(self, pool, executor="serial"):
        return MuffinSearch(
            pool,
            attributes=["age", "site"],
            base_model="MobileNet_V3_Small",
            search_config=SearchConfig(
                episodes=2, episode_batch=2, seed=0, executor=executor, memoize=False
            ),
            head_config=HeadTrainConfig(epochs=2, seed=0),
        )

    def _task(self, search):
        from repro.core.search_space import FusingCandidate

        candidate = FusingCandidate(
            ("MobileNet_V3_Small", "ResNet-18"), (16,), "relu"
        )
        return search._task_for(candidate, search.candidate_seed(candidate))

    def test_ship_task_replaces_every_array_field_with_descriptors(self, pool):
        search = self._search(pool)
        task = self._task(search)
        shipped = search._ship_task(task)
        for name in TASK_ARRAY_FIELDS:
            assert isinstance(getattr(shipped, name), SharedArrayRef)
        raw, wire = task_payload_bytes(shipped)
        assert wire == len(TASK_ARRAY_FIELDS) * REF_DESCRIPTOR_BYTES
        assert raw > 10 * wire  # the whole point of the transport
        search._cache.release_shared_segments()

    def test_resolved_shipped_task_evaluates_bit_identically(self, pool):
        search = self._search(pool)
        task = self._task(search)
        expected = evaluate_task(task)
        shipped = search._ship_task(task)
        resolved = resolve_task_arrays(shipped)
        for name in TASK_ARRAY_FIELDS:
            assert np.array_equal(getattr(resolved, name), getattr(task, name))
        got = evaluate_task(shipped)
        assert np.array_equal(got.predictions, expected.predictions)
        assert got.losses == expected.losses
        detach_all()
        search._cache.release_shared_segments()

    def test_ship_task_memoises_shared_cache_arrays(self, pool):
        """Two tasks over the same cached matrices share one segment set."""
        search = self._search(pool)
        task_a = self._task(search)
        task_b = self._task(search)
        search._ship_task(task_a)
        segments_after_one = live_segments()
        search._ship_task(task_b)
        assert live_segments() == segments_after_one
        search._cache.release_shared_segments()

    def test_share_array_requires_enabled_transport(self, pool):
        search = self._search(pool)
        with pytest.raises(RuntimeError, match="enable_shared_transport"):
            search._cache.share_array(np.zeros(3))

    def test_serial_and_thread_executors_do_not_ship(self, pool):
        for executor in ("serial", "thread"):
            search = self._search(pool, executor=executor)
            result = search.run()
            assert search.task_bytes_raw == 0
            assert search.task_bytes_shipped == 0
            assert result.execution_stats.task_bytes_shipped == 0
            assert not search._cache.shared_transport_enabled


# ----------------------------------------------------------------------
# End-to-end: process executor ships descriptors, leaks nothing
# ----------------------------------------------------------------------
class TestProcessExecutorTransport:
    def _run(self, pool, executor):
        search = MuffinSearch(
            pool,
            attributes=["age", "site"],
            base_model="MobileNet_V3_Small",
            search_config=SearchConfig(
                episodes=4,
                episode_batch=4,
                seed=0,
                executor=executor,
                max_workers=2,
                memoize=False,
            ),
            # every chunk of tasks crosses the executor; the autograd
            # oracle trains them here
            head_config=HeadTrainConfig(epochs=2, seed=0, use_fused=False),
        )
        return search, search.run()

    def test_process_run_is_bit_identical_ships_10x_less_and_leaks_nothing(self, pool):
        _, serial_result = self._run(pool, "serial")
        search, process_result = self._run(pool, "process")

        assert [r.reward for r in serial_result.records] == [
            r.reward for r in process_result.records
        ]
        assert [r.candidate for r in serial_result.records] == [
            r.candidate for r in process_result.records
        ]

        stats = process_result.execution_stats
        assert stats.task_bytes_shipped > 0
        assert stats.task_bytes_raw >= 10 * stats.task_bytes_shipped
        assert stats.task_bytes_raw == search.task_bytes_raw
        # run() shut the executor down and released every segment
        assert live_segments() == []
