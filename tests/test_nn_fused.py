"""Equivalence suite: fused closed-form kernels vs the autograd oracle.

The fused fast path (:mod:`repro.nn.fused`) promises **bit-identical**
trained weights and loss curves to the closure-based autograd reference for
every eligible head.  These tests enforce that promise:

* a seeded property sweep across random hidden sizes, odd batch sizes,
  class counts, both losses and both optimisers (hypothesis drives the
  configuration space; every comparison is exact equality, not allclose),
  for ReLU and again for every other search-space activation (tanh,
  sigmoid, leaky ReLU at its default and a non-default slope);
* the batched multi-candidate trainer vs per-head reference runs, including
  mixed shape and activation groups and ineligible fallback heads inside
  one batch;
* the search-level batch evaluator vs single evaluations, and the chunked
  executor dispatch of :meth:`~repro.core.MuffinSearch.evaluate_batch`;
* an end-to-end :class:`~repro.core.MuffinSearch` run with the fast path on
  vs off;
* structural eligibility of :func:`~repro.nn.fused.extract_fused_stack`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.core import HeadTrainConfig, MuffinSearch, SearchConfig
from repro.core.fusing import MuffinHead
from repro.core.search import (
    evaluate_task,
    evaluate_task_batch,
    evaluate_task_chunk,
    split_into_chunks,
)
from repro.core.trainer import (
    _train_head_autograd,
    train_head_on_outputs,
    train_heads_batched,
)
from repro.nn.fused import FusedActivation, extract_fused_stack
from repro.obs import METRICS, load_spans


def _proxy(rng, n, num_classes, dim):
    return (
        rng.random((n, dim)),
        rng.integers(0, num_classes, n),
        rng.random(n) + 0.05,
    )


def _assert_heads_identical(reference: nn.Module, fused: nn.Module) -> None:
    ref_state = reference.state_dict()
    fused_state = fused.state_dict()
    assert set(ref_state) == set(fused_state)
    for key in ref_state:
        assert np.array_equal(ref_state[key], fused_state[key]), key


# ---------------------------------------------------------------------------
# Property sweep: fused vs autograd, bit-exact
# ---------------------------------------------------------------------------
@given(
    hidden=st.lists(st.integers(2, 24), min_size=0, max_size=3),
    batch_size=st.integers(16, 96),
    num_classes=st.integers(2, 9),
    n=st.integers(33, 200),
    loss=st.sampled_from(["weighted_mse", "weighted_ce"]),
    optimizer=st.sampled_from(["adam", "sgd"]),
    weight_decay=st.sampled_from([0.0, 1e-4]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_fused_training_matches_autograd_bit_exactly(
    hidden, batch_size, num_classes, n, loss, optimizer, weight_decay, seed
):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 30))
    outputs, labels, weights = _proxy(rng, n, num_classes, dim)
    base = dict(
        epochs=3,
        batch_size=batch_size,
        lr=5e-3,
        weight_decay=weight_decay,
        optimizer=optimizer,
        loss=loss,
        seed=seed % 1000,
    )
    head_seed = int(rng.integers(0, 2**31 - 1))

    reference = MuffinHead(dim, num_classes, hidden, "relu", seed=head_seed)
    fused = MuffinHead(dim, num_classes, hidden, "relu", seed=head_seed)
    ref_result = train_head_on_outputs(
        reference, outputs, labels, weights, num_classes,
        HeadTrainConfig(use_fused=False, **base),
    )
    fused_result = train_head_on_outputs(
        fused, outputs, labels, weights, num_classes,
        HeadTrainConfig(use_fused=True, **base),
    )

    assert ref_result.losses == fused_result.losses
    _assert_heads_identical(reference, fused)


def _set_leaky_slope(head: nn.Module, slope: float) -> nn.Module:
    for module in head.modules():
        if isinstance(module, nn.LeakyReLU):
            module.negative_slope = slope
    return head


#: every non-ReLU search-space activation, leaky ReLU at two slopes
ACTIVATION_CASES = [
    ("tanh", None),
    ("sigmoid", None),
    ("leaky_relu", None),  # the module default, 0.01
    ("leaky_relu", 0.2),
]


@pytest.mark.parametrize(
    "activation,slope", ACTIVATION_CASES, ids=["tanh", "sigmoid", "leaky_relu", "leaky_relu-0.2"]
)
@given(
    hidden=st.lists(st.integers(2, 24), min_size=1, max_size=3),
    batch_size=st.integers(16, 96),
    num_classes=st.integers(2, 9),
    n=st.integers(33, 200),
    loss=st.sampled_from(["weighted_mse", "weighted_ce"]),
    optimizer=st.sampled_from(["adam", "sgd"]),
    weight_decay=st.sampled_from([0.0, 1e-4]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_fused_activation_training_matches_autograd_oracle_bit_exactly(
    activation, slope, hidden, batch_size, num_classes, n, loss, optimizer, weight_decay, seed
):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 30))
    outputs, labels, weights = _proxy(rng, n, num_classes, dim)
    config = HeadTrainConfig(
        epochs=3,
        batch_size=batch_size,
        lr=5e-3,
        weight_decay=weight_decay,
        optimizer=optimizer,
        loss=loss,
        seed=seed % 1000,
    )
    head_seed = int(rng.integers(0, 2**31 - 1))
    reference = MuffinHead(dim, num_classes, hidden, activation, seed=head_seed)
    fused = MuffinHead(dim, num_classes, hidden, activation, seed=head_seed)
    if slope is not None:
        _set_leaky_slope(reference, slope)
        _set_leaky_slope(fused, slope)
    stack = extract_fused_stack(fused)
    assert stack is not None and stack.activation.name == activation

    ref_result = _train_head_autograd(
        reference, outputs, labels.astype(np.int64), weights, num_classes, config
    )
    fused_result = train_head_on_outputs(fused, outputs, labels, weights, num_classes, config)

    assert ref_result.losses == fused_result.losses
    _assert_heads_identical(reference, fused)


# ---------------------------------------------------------------------------
# Batched trainer
# ---------------------------------------------------------------------------
class TestBatchedTrainer:
    NUM_CLASSES = 6

    def _batch(self, specs, seed=0):
        rng = np.random.default_rng(seed)
        n = 157
        labels = rng.integers(0, self.NUM_CLASSES, n)
        weights = rng.random(n) + 0.05
        outputs = [rng.random((n, dim)) for _, dim, _ in specs]
        heads = lambda: [  # noqa: E731 - two identical sets of fresh heads
            MuffinHead(dim, self.NUM_CLASSES, hidden, activation, seed=100 + i)
            for i, (hidden, dim, activation) in enumerate(specs)
        ]
        return heads, outputs, labels, weights

    def test_mixed_shape_groups_match_per_head_runs(self):
        specs = [
            ((16,), 12, "relu"),
            ((16,), 12, "relu"),
            ((8, 4), 12, "relu"),
            ((), 18, "relu"),
            ((16,), 18, "relu"),
        ]
        make_heads, outputs, labels, weights = self._batch(specs)
        config = HeadTrainConfig(epochs=4, batch_size=32, seed=3)
        reference_config = HeadTrainConfig(epochs=4, batch_size=32, seed=3, use_fused=False)

        reference_heads = make_heads()
        reference_results = [
            train_head_on_outputs(
                head, matrix, labels, weights, self.NUM_CLASSES, reference_config
            )
            for head, matrix in zip(reference_heads, outputs)
        ]
        batched_heads = make_heads()
        batched_results = train_heads_batched(
            batched_heads, outputs, labels, weights, self.NUM_CLASSES, config
        )

        assert len(batched_results) == len(specs)
        for ref_head, ref_result, fused_head, fused_result in zip(
            reference_heads, reference_results, batched_heads, batched_results
        ):
            assert ref_result.losses == fused_result.losses
            assert ref_result.proxy_size == fused_result.proxy_size
            _assert_heads_identical(ref_head, fused_head)

    def test_mixed_activation_heads_match_per_head_runs(self):
        specs = [
            ((16,), 12, "relu"),
            ((16,), 12, "tanh"),
            ((16,), 12, "tanh"),
            ((16,), 12, "sigmoid"),
            ((8, 4), 12, "leaky_relu"),
            ((16,), 12, "leaky_relu"),
            ((), 12, "sigmoid"),
            ((), 12, "relu"),
        ]
        make_heads, outputs, labels, weights = self._batch(specs, seed=5)
        config = HeadTrainConfig(epochs=3, batch_size=61, seed=1)
        reference_config = HeadTrainConfig(epochs=3, batch_size=61, seed=1, use_fused=False)

        reference_heads = make_heads()
        reference_results = [
            train_head_on_outputs(
                head, matrix, labels, weights, self.NUM_CLASSES, reference_config
            )
            for head, matrix in zip(reference_heads, outputs)
        ]
        batched_heads = make_heads()
        batched_results = train_heads_batched(
            batched_heads, outputs, labels, weights, self.NUM_CLASSES, config
        )
        for ref_head, ref_result, fused_head, fused_result in zip(
            reference_heads, reference_results, batched_heads, batched_results
        ):
            assert ref_result.losses == fused_result.losses
            _assert_heads_identical(ref_head, fused_head)
        # equal shapes group only under one activation; linear-only stacks
        # have no hidden activation and group across activation names
        signatures = [extract_fused_stack(head).signature for head in batched_heads]
        assert len(set(signatures)) == 6

    def test_ineligible_heads_fall_back_inside_the_batch(self):
        def mixed_stack(seed):
            rng = np.random.default_rng(seed)
            return nn.Sequential(
                nn.Linear(12, 8, rng=rng), nn.Tanh(), nn.Linear(8, 8, rng=rng),
                nn.ReLU(), nn.Linear(8, self.NUM_CLASSES, rng=rng),
            )

        _, outputs, labels, weights = self._batch([((16,), 12, "relu")] * 2, seed=6)
        config = HeadTrainConfig(epochs=2, batch_size=50, seed=4)
        reference_config = HeadTrainConfig(epochs=2, batch_size=50, seed=4, use_fused=False)
        make_heads = lambda: [  # noqa: E731 - two identical sets of fresh heads
            MuffinHead(12, self.NUM_CLASSES, (16,), "sigmoid", seed=3),
            mixed_stack(8),
        ]
        assert extract_fused_stack(make_heads()[1]) is None
        reference_heads = make_heads()
        for head, matrix in zip(reference_heads, outputs):
            train_head_on_outputs(
                head, matrix, labels, weights, self.NUM_CLASSES, reference_config
            )
        batched_heads = make_heads()
        train_heads_batched(batched_heads, outputs, labels, weights, self.NUM_CLASSES, config)
        for ref_head, fused_head in zip(reference_heads, batched_heads):
            _assert_heads_identical(ref_head, fused_head)

    def test_use_fused_false_forces_the_reference_path_for_all(self):
        specs = [((16,), 12, "relu"), ((16,), 12, "relu")]
        make_heads, outputs, labels, weights = self._batch(specs, seed=9)
        config = HeadTrainConfig(epochs=2, batch_size=64, seed=2, use_fused=False)
        reference_heads = make_heads()
        for head, matrix in zip(reference_heads, outputs):
            train_head_on_outputs(head, matrix, labels, weights, self.NUM_CLASSES, config)
        batched_heads = make_heads()
        train_heads_batched(batched_heads, outputs, labels, weights, self.NUM_CLASSES, config)
        for ref_head, fused_head in zip(reference_heads, batched_heads):
            _assert_heads_identical(ref_head, fused_head)

    def test_validates_misaligned_inputs(self):
        make_heads, outputs, labels, weights = self._batch([((16,), 12, "relu")])
        with pytest.raises(ValueError, match="align one-to-one"):
            train_heads_batched(
                make_heads(), outputs + outputs, labels, weights, self.NUM_CLASSES
            )


# ---------------------------------------------------------------------------
# Search-level batch evaluation and end-to-end identity
# ---------------------------------------------------------------------------
class TestSearchIntegration:
    def _search(self, pool, use_fused, seed=0, episodes=6, episode_batch=3):
        return MuffinSearch(
            pool,
            attributes=["age", "site"],
            base_model="MobileNet_V3_Small",
            search_config=SearchConfig(
                episodes=episodes, episode_batch=episode_batch, seed=seed
            ),
            head_config=HeadTrainConfig(epochs=5, seed=seed, use_fused=use_fused),
        )

    def test_evaluate_task_batch_matches_mapped_evaluate_task(self, pool):
        from repro.core.search_space import FusingCandidate

        search = self._search(pool, use_fused=True)
        candidates = [
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (16,), "relu"),
            FusingCandidate(("MobileNet_V3_Small", "DenseNet121"), (16,), "relu"),
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (8, 4), "relu"),
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (16,), "tanh"),
        ]
        tasks = [
            search._task_for(candidate, search.candidate_seed(candidate))
            for candidate in candidates
        ]
        batched = evaluate_task_batch(tasks)
        mapped = [evaluate_task(task) for task in tasks]
        assert len(batched) == len(mapped)
        for got, expected in zip(batched, mapped):
            assert np.array_equal(got.predictions, expected.predictions)
            assert got.losses == expected.losses
            assert got.head_parameters == expected.head_parameters
            for key in expected.head_state:
                assert np.array_equal(got.head_state[key], expected.head_state[key])

    def test_end_to_end_search_identical_fused_on_and_off(self, pool):
        fused_result = self._search(pool, use_fused=True).run()
        reference_result = self._search(pool, use_fused=False).run()
        assert [r.reward for r in fused_result.records] == [
            r.reward for r in reference_result.records
        ]
        assert [r.candidate for r in fused_result.records] == [
            r.candidate for r in reference_result.records
        ]
        assert [r.train_losses for r in fused_result.records] == [
            r.train_losses for r in reference_result.records
        ]
        for fused_record, reference_record in zip(
            fused_result.records, reference_result.records
        ):
            for key in reference_record.head_state:
                assert np.array_equal(
                    fused_record.head_state[key], reference_record.head_state[key]
                )

    def test_batches_map_task_chunks_through_the_executor(self, pool):
        """Every batch maps chunks of fused tasks through the executor, one
        chunk per worker, and stays bit-identical to the autograd oracle."""
        from repro.core.search_space import FusingCandidate

        class CountingExecutor:
            max_workers = 2

            def __init__(self):
                self.chunks = []

            def map(self, fn, items):
                assert fn is evaluate_task_chunk
                items = list(items)
                self.chunks.extend(len(chunk) for chunk in items)
                return [fn(item) for item in items]

            def shutdown(self):
                pass

        candidates = [
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (16,), "relu"),
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (16,), "tanh"),
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (8,), "sigmoid"),
            FusingCandidate(("MobileNet_V3_Small", "DenseNet121"), (8, 8), "leaky_relu"),
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (8,), "relu"),
        ]
        tasks_total = METRICS.counter("repro_search_tasks_total", labelnames=("path",))
        was_enabled = METRICS.enabled
        METRICS.enable()
        try:
            before = {path: tasks_total.value(path=path) for path in ("fused", "autograd")}
            fused_executor = CountingExecutor()
            fused_records = self._search(pool, use_fused=True).evaluate_batch(
                candidates, executor=fused_executor
            )
            reference_executor = CountingExecutor()
            reference_records = self._search(pool, use_fused=False).evaluate_batch(
                candidates, executor=reference_executor
            )
            after = {path: tasks_total.value(path=path) for path in ("fused", "autograd")}
        finally:
            METRICS.enabled = was_enabled
        assert fused_executor.chunks == [3, 2]
        assert reference_executor.chunks == [3, 2]
        assert after["fused"] - before["fused"] == len(candidates)
        assert after["autograd"] - before["autograd"] == len(candidates)
        for fused_record, reference_record in zip(fused_records, reference_records):
            assert fused_record.reward == reference_record.reward
            assert fused_record.train_losses == reference_record.train_losses
            for key in reference_record.head_state:
                assert np.array_equal(
                    fused_record.head_state[key], reference_record.head_state[key]
                )

    def test_outcomes_name_their_training_path(self, pool):
        from repro.core.search_space import FusingCandidate

        candidate = FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (16,), "tanh")
        for use_fused, path in ((True, "fused"), (False, "autograd")):
            search = self._search(pool, use_fused=use_fused)
            task = search._task_for(candidate, search.candidate_seed(candidate))
            assert evaluate_task(task).path == path

    def test_train_seconds_recorded(self, pool):
        result = self._search(pool, use_fused=True).run()
        stats = result.execution_stats
        assert stats.train_seconds > 0.0
        assert stats.train_seconds <= stats.eval_seconds
        assert "train_seconds" in stats.to_dict()


@pytest.mark.parametrize(
    "count,workers,sizes",
    [(5, 2, [3, 2]), (5, 1, [5]), (4, 2, [2, 2]), (2, 8, [1, 1]), (7, 3, [3, 2, 2])],
)
def test_split_into_chunks_is_balanced_and_order_preserving(count, workers, sizes):
    items = list(range(count))
    chunks = split_into_chunks(items, workers)
    assert [len(chunk) for chunk in chunks] == sizes
    assert [item for chunk in chunks for item in chunk] == items


class TestOracleSwitch:
    """``use_fused=False`` forces the autograd tape end to end — pool and
    search — and the run's ``result_hash()`` does not move."""

    def _run(self, tmp_path, use_fused):
        from repro.api import (
            DatasetSpec,
            ExecutionSpec,
            FinalizeSpec,
            MuffinPipeline,
            PoolSpec,
            RunSpec,
            SearchSpec,
        )
        from repro.api.spec import ObsSpec

        trace = tmp_path / f"trace-{use_fused}.jsonl"
        spec = RunSpec(
            name="oracle-switch",
            dataset=DatasetSpec(name="synthetic_isic", num_samples=700, seed=5, split_seed=1),
            pool=PoolSpec(
                architectures=("MobileNet_V3_Small", "ResNet-18", "DenseNet121"),
                epochs=4,
                batch_size=128,
                seed=2,
            ),
            search=SearchSpec(
                attributes=("age", "site"),
                base_model="MobileNet_V3_Small",
                episodes=4,
                episode_batch=2,
                head_epochs=3,
                seed=0,
            ),
            execution=ExecutionSpec(use_fused=use_fused),
            finalize=FinalizeSpec(selection="reward", name="Muffin-oracle"),
            obs=ObsSpec(trace_path=str(trace), metrics_enabled=True),
        )
        tasks_total = METRICS.counter("repro_search_tasks_total", labelnames=("path",))
        path = "fused" if use_fused else "autograd"
        before = tasks_total.value(path=path)
        result = MuffinPipeline(spec, cache_dir=tmp_path / f"cache-{use_fused}").run()
        trained = tasks_total.value(path=path) - before
        pool_paths = {row["path"] for row in load_spans(trace) if row["name"] == "zoo/train"}
        return result.result.result_hash(), trained, pool_paths

    def test_fused_on_and_off_give_one_result_hash(self, tmp_path):
        fused_hash, fused_tasks, fused_pool = self._run(tmp_path, use_fused=True)
        oracle_hash, oracle_tasks, oracle_pool = self._run(tmp_path, use_fused=False)
        assert fused_hash == oracle_hash
        assert fused_tasks == oracle_tasks == 4
        assert fused_pool == {"fused"}
        assert oracle_pool == {"autograd"}


# ---------------------------------------------------------------------------
# Structural eligibility
# ---------------------------------------------------------------------------
class TestEligibility:
    def test_relu_muffin_head_is_eligible(self):
        head = MuffinHead(12, 4, (16, 8), "relu", seed=0)
        stack = extract_fused_stack(head)
        assert stack is not None
        assert stack.shapes == ((12, 16), (16, 8), (8, 4))
        assert stack.num_parameters == head.num_parameters()

    def test_linear_only_head_is_eligible(self):
        stack = extract_fused_stack(MuffinHead(12, 4, (), "relu", seed=0))
        assert stack is not None
        assert stack.shapes == ((12, 4),)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid", "leaky_relu"])
    def test_every_search_space_activation_is_eligible(self, activation):
        stack = extract_fused_stack(MuffinHead(12, 4, (16, 8), activation, seed=0))
        assert stack is not None
        assert stack.activation.name == activation
        assert stack.shapes == ((12, 16), (16, 8), (8, 4))

    def test_leaky_relu_slope_is_read_from_the_module(self):
        default = extract_fused_stack(MuffinHead(12, 4, (16,), "leaky_relu", seed=0))
        steep = extract_fused_stack(
            _set_leaky_slope(MuffinHead(12, 4, (16,), "leaky_relu", seed=0), 0.3)
        )
        assert default.activation == FusedActivation("leaky_relu", 0.01)
        assert steep.activation == FusedActivation("leaky_relu", 0.3)
        # same shapes, different slope: never one parameter block
        assert default.shapes == steep.shapes
        assert default.signature != steep.signature

    def test_mixed_activations_in_one_stack_are_not_eligible(self):
        net = nn.Sequential(
            nn.Linear(12, 8), nn.Tanh(), nn.Linear(8, 8), nn.ReLU(), nn.Linear(8, 4)
        )
        assert extract_fused_stack(net) is None

    def test_pool_classifier_is_eligible(self):
        stack = extract_fused_stack(nn.SoftmaxClassifier(12, 4))
        assert stack is not None
        assert stack.shapes == ((12, 4),)
        assert stack.activation is None

    def test_dropout_is_not_eligible(self):
        mlp = nn.MLP(12, [16], 4, activation="relu", dropout=0.5)
        assert extract_fused_stack(mlp) is None

    def test_bias_free_linear_is_not_eligible(self):
        net = nn.Sequential(nn.Linear(12, 4, bias=False))
        assert extract_fused_stack(net) is None

    def test_unknown_wrapper_without_delegate_is_not_eligible(self):
        class Opaque(nn.Module):
            def __init__(self):
                super().__init__()
                self.inner = nn.Linear(4, 2)

            def forward(self, x):
                return self.inner(x) * 2.0

        assert extract_fused_stack(Opaque()) is None
