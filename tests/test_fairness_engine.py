"""Equivalence and unit tests for the vectorized evaluation engine.

The load-bearing claim of :mod:`repro.fairness.engine` is that its batched
matmul formulation is **bit-identical** to the seed implementation's scalar
per-group mask loop.  The legacy loop is reproduced verbatim below (the
library versions are now wrappers over the engine, so they cannot serve as
the reference) and compared against the engine across seeded random shapes,
including empty groups and probability-tensor inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MultiFairnessReward, RewardConfig
from repro.data import AttributeSpec, GroupIndexBank
from repro.fairness import (
    EvaluationEngine,
    FairnessEvaluation,
    accuracy_gap,
    evaluate_predictions,
    group_accuracies,
    unfairness_score,
)

# ----------------------------------------------------------------------
# The seed implementation's scalar loop, reproduced as the reference.
# ----------------------------------------------------------------------


def legacy_overall_accuracy(predictions, labels):
    if labels.size == 0:
        return 0.0
    return float((predictions == labels).mean())


def legacy_group_accuracies(predictions, labels, group_ids, spec):
    overall = legacy_overall_accuracy(predictions, labels)
    accuracies = {}
    for index, group in enumerate(spec.groups):
        mask = group_ids == index
        if mask.any():
            accuracies[group] = float((predictions[mask] == labels[mask]).mean())
        else:
            accuracies[group] = overall
    return accuracies


def legacy_evaluation(predictions, labels, group_ids_by_attr, specs):
    accuracy = legacy_overall_accuracy(predictions, labels)
    unfairness, per_group, gaps = {}, {}, {}
    for name, spec in specs.items():
        per_group[name] = legacy_group_accuracies(
            predictions, labels, group_ids_by_attr[name], spec
        )
        unfairness[name] = float(
            sum(abs(acc - accuracy) for acc in per_group[name].values())
        )
        values = list(per_group[name].values())
        gaps[name] = float(max(values) - min(values))
    return FairnessEvaluation(
        accuracy=accuracy, unfairness=unfairness, group_accuracy=per_group, gaps=gaps
    )


def random_problem(rng, num_samples, group_counts, num_classes=4, empty_group_prob=0.0):
    """A random labelled population with one attribute per entry of ``group_counts``."""
    labels = rng.integers(0, num_classes, num_samples)
    specs, group_ids = {}, {}
    for a, num_groups in enumerate(group_counts):
        name = f"attr{a}"
        specs[name] = AttributeSpec(
            name=name, groups=tuple(f"g{i}" for i in range(num_groups))
        )
        ids = rng.integers(0, num_groups, num_samples)
        if empty_group_prob and rng.random() < empty_group_prob and num_groups > 2:
            # Force one group empty to exercise the overall-accuracy fallback.
            ids[ids == num_groups - 1] = 0
        group_ids[name] = ids
    return labels, group_ids, specs


class TestEngineMatchesLegacyLoop:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "num_samples,group_counts",
        [(1, (2,)), (17, (3,)), (200, (2, 6)), (503, (6, 9, 2)), (64, (4, 4))],
    )
    def test_randomized_equivalence(self, seed, num_samples, group_counts):
        rng = np.random.default_rng(1000 * seed + num_samples)
        labels, group_ids, specs = random_problem(
            rng, num_samples, group_counts, empty_group_prob=0.5
        )
        engine = EvaluationEngine.from_arrays(labels, group_ids, specs)
        num_candidates = int(rng.integers(1, 9))
        stacked = np.stack(
            [
                np.where(rng.random(num_samples) < rng.random(), labels, rng.integers(0, 4, num_samples))
                for _ in range(num_candidates)
            ]
        )
        batch = engine.evaluate(stacked)
        assert len(batch) == num_candidates
        for i in range(num_candidates):
            expected = legacy_evaluation(stacked[i], labels, group_ids, specs)
            got = batch.evaluation(i)
            # Bit-identical, not approximately equal.
            assert got.accuracy == expected.accuracy
            assert got.unfairness == expected.unfairness
            assert got.group_accuracy == expected.group_accuracy
            assert got.gaps == expected.gaps

    def test_batch_accessors_match_scalar_properties(self):
        rng = np.random.default_rng(21)
        labels, group_ids, specs = random_problem(rng, 80, (3, 2))
        engine = EvaluationEngine.from_arrays(labels, group_ids, specs)
        stacked = np.stack([labels, np.zeros(80, dtype=np.int64)])
        batch = engine.evaluate(stacked)
        matrix = batch.unfairness_matrix()
        assert matrix.shape == (2, 2)
        for i, evaluation in enumerate(batch):
            assert matrix[i].tolist() == [
                evaluation.unfairness["attr0"],
                evaluation.unfairness["attr1"],
            ]
            assert batch.multi_dimensional_unfairness()[i] == (
                evaluation.multi_dimensional_unfairness
            )

    def test_probability_tensor_input(self):
        rng = np.random.default_rng(3)
        labels, group_ids, specs = random_problem(rng, 40, (3,))
        probs = rng.random((5, 40, 4))
        engine = EvaluationEngine.from_arrays(labels, group_ids, specs)
        batch = engine.evaluate(probs)
        hard = probs.argmax(axis=-1)
        for i in range(5):
            expected = legacy_evaluation(hard[i], labels, group_ids, specs)
            assert batch.evaluation(i).to_dict() == expected.to_dict()

    def test_single_vector_input_is_one_candidate(self):
        rng = np.random.default_rng(4)
        labels, group_ids, specs = random_problem(rng, 30, (2,))
        engine = EvaluationEngine.from_arrays(labels, group_ids, specs)
        batch = engine.evaluate(labels.copy())
        assert len(batch) == 1
        assert batch.evaluation(0).accuracy == 1.0

    def test_empty_population(self):
        labels = np.array([], dtype=np.int64)
        spec = AttributeSpec(name="a", groups=("x", "y"))
        engine = EvaluationEngine.from_arrays(labels, {"a": labels}, {"a": spec})
        batch = engine.evaluate(np.zeros((3, 0), dtype=np.int64))
        assert batch.accuracy.tolist() == [0.0, 0.0, 0.0]
        assert batch.unfairness["a"].tolist() == [0.0, 0.0, 0.0]

    def test_scalar_wrappers_match_legacy(self):
        rng = np.random.default_rng(9)
        labels, group_ids, specs = random_problem(rng, 120, (5,), empty_group_prob=1.0)
        spec = specs["attr0"]
        ids = group_ids["attr0"]
        predictions = np.where(rng.random(120) < 0.7, labels, (labels + 1) % 4)
        assert group_accuracies(predictions, labels, ids, spec) == legacy_group_accuracies(
            predictions, labels, ids, spec
        )
        expected = legacy_evaluation(predictions, labels, group_ids, specs)
        assert unfairness_score(predictions, labels, ids, spec) == expected.unfairness["attr0"]
        assert accuracy_gap(predictions, labels, ids, spec) == expected.gaps["attr0"]


class TestEngineForDataset:
    def test_matches_evaluate_predictions(self, isic_dataset):
        rng = np.random.default_rng(0)
        predictions = np.stack(
            [
                np.where(rng.random(len(isic_dataset)) < 0.8, isic_dataset.labels, 0)
                for _ in range(4)
            ]
        )
        engine = EvaluationEngine.for_dataset(isic_dataset)
        batch = engine.evaluate(predictions)
        for i in range(4):
            scalar = evaluate_predictions(predictions[i], isic_dataset)
            assert batch.evaluation(i).to_dict() == scalar.to_dict()

    def test_engine_and_bank_are_cached(self, isic_dataset):
        engine_a = EvaluationEngine.for_dataset(isic_dataset)
        engine_b = EvaluationEngine.for_dataset(isic_dataset)
        assert engine_a is engine_b
        assert isic_dataset.group_index_bank() is isic_dataset.group_index_bank()

    def test_attribute_subset(self, isic_dataset):
        engine = EvaluationEngine.for_dataset(isic_dataset, ["site"])
        batch = engine.evaluate(isic_dataset.labels)
        assert list(batch.unfairness) == ["site"]

    def test_empty_attribute_selection_is_accuracy_only(self, isic_dataset):
        """Regression: ``attributes=[]`` must keep working (accuracy only)."""
        evaluation = evaluate_predictions(isic_dataset.labels, isic_dataset, attributes=[])
        assert evaluation.accuracy == 1.0
        assert evaluation.unfairness == {}
        assert evaluation.multi_dimensional_unfairness == 0.0
        engine = EvaluationEngine.for_dataset(isic_dataset, [])
        batch = engine.evaluate(isic_dataset.labels)
        assert len(batch) == 1 and batch.unfairness == {}

    def test_unknown_attribute_raises(self, isic_dataset):
        with pytest.raises(KeyError, match="unknown attribute"):
            EvaluationEngine.for_dataset(isic_dataset, ["nonsense"])

    def test_restrict_matches_subset_evaluation(self, isic_dataset):
        rng = np.random.default_rng(5)
        indices = rng.choice(len(isic_dataset), size=200, replace=False)
        predictions = np.where(
            rng.random(len(isic_dataset)) < 0.75, isic_dataset.labels, 1
        )
        engine = EvaluationEngine.for_dataset(isic_dataset)
        restricted = engine.restrict(indices)
        subset = isic_dataset.subset(indices)
        expected = evaluate_predictions(predictions[indices], subset)
        got = restricted.evaluate(predictions[indices]).evaluation(0)
        assert got.accuracy == expected.accuracy
        assert got.unfairness == expected.unfairness

    def test_restricted_bank_slices_are_memoised(self, isic_dataset):
        engine = EvaluationEngine.for_dataset(isic_dataset)
        indices = np.arange(50)
        assert engine.restrict(indices).bank is engine.restrict(indices).bank


class TestRewards:
    def _batch(self, rng, num_candidates=6):
        labels, group_ids, specs = random_problem(rng, 150, (3, 4))
        engine = EvaluationEngine.from_arrays(labels, group_ids, specs)
        stacked = np.stack(
            [
                np.where(rng.random(150) < 0.6 + 0.05 * i, labels, 0)
                for i in range(num_candidates)
            ]
        )
        return engine, engine.evaluate(stacked)

    def test_engine_rewards_match_scalar_reward(self):
        engine, batch = self._batch(np.random.default_rng(11))
        rewards = engine.rewards(batch)
        for i, evaluation in enumerate(batch.evaluations()):
            assert rewards[i] == evaluation.reward()

    def test_compute_batch_matches_scalar_compute(self):
        engine, batch = self._batch(np.random.default_rng(12))
        reward = MultiFairnessReward(
            RewardConfig(attributes=("attr0", "attr1"), min_accuracy=0.9)
        )
        batched = reward.compute_batch(batch)
        for i, evaluation in enumerate(batch.evaluations()):
            assert batched[i] == reward.compute(evaluation)

    def test_compute_batch_unknown_attribute(self):
        _, batch = self._batch(np.random.default_rng(13))
        reward = MultiFairnessReward(RewardConfig(attributes=("nope",)))
        with pytest.raises(KeyError, match="lacks unfairness score"):
            reward.compute_batch(batch)

    def test_reward_unknown_attribute_is_value_error(self):
        evaluation = FairnessEvaluation(accuracy=0.9, unfairness={"age": 0.2})
        with pytest.raises(ValueError, match="unknown attribute"):
            evaluation.reward(["age", "typo"])


class TestNonFloat64Inputs:
    """Non-float64 inputs (float32 serving tensors, int32 labels) are either
    handled with unchanged results or rejected with a clear ValueError."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        num_samples=st.integers(1, 120),
        num_candidates=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_float32_probability_tensors_match_int64_argmax(
        self, seed, num_samples, num_candidates
    ):
        rng = np.random.default_rng(seed)
        labels, group_ids, specs = random_problem(rng, num_samples, (3,))
        engine = EvaluationEngine.from_arrays(labels, group_ids, specs)
        probs32 = rng.random((num_candidates, num_samples, 4), dtype=np.float32)
        batch32 = engine.evaluate(probs32)
        reference = engine.evaluate(probs32.argmax(axis=-1))
        assert batch32.accuracy.tolist() == reference.accuracy.tolist()
        for name in reference.unfairness:
            assert batch32.unfairness[name].tolist() == reference.unfairness[name].tolist()
            assert batch32.gaps[name].tolist() == reference.gaps[name].tolist()

    @given(seed=st.integers(0, 2**31 - 1), num_samples=st.integers(1, 120))
    @settings(max_examples=25, deadline=None)
    def test_int32_labels_and_predictions_match_int64(self, seed, num_samples):
        rng = np.random.default_rng(seed)
        labels, group_ids, specs = random_problem(rng, num_samples, (3, 2))
        predictions = np.where(
            rng.random(num_samples) < 0.7, labels, rng.integers(0, 4, num_samples)
        )
        reference = EvaluationEngine.from_arrays(labels, group_ids, specs)
        narrow = EvaluationEngine.from_arrays(
            labels.astype(np.int32), group_ids, specs
        )
        got = narrow.evaluate(predictions.astype(np.int32))
        expected = reference.evaluate(predictions)
        assert got.accuracy.tolist() == expected.accuracy.tolist()
        for name in expected.unfairness:
            assert got.unfairness[name].tolist() == expected.unfairness[name].tolist()

    def test_integral_float_inputs_are_accepted(self):
        rng = np.random.default_rng(6)
        labels, group_ids, specs = random_problem(rng, 40, (3,))
        engine = EvaluationEngine.from_arrays(labels.astype(np.float32), group_ids, specs)
        batch = engine.evaluate(labels.astype(np.float64))
        assert batch.evaluation(0).accuracy == 1.0

    def test_fractional_hard_predictions_are_rejected(self):
        rng = np.random.default_rng(7)
        labels, group_ids, specs = random_problem(rng, 30, (2,))
        engine = EvaluationEngine.from_arrays(labels, group_ids, specs)
        soft = labels.astype(np.float32) + 0.5
        with pytest.raises(ValueError, match="fractional"):
            engine.evaluate(soft)

    def test_fractional_labels_are_rejected(self):
        rng = np.random.default_rng(8)
        labels, group_ids, specs = random_problem(rng, 30, (2,))
        with pytest.raises(ValueError, match="fractional"):
            EvaluationEngine.from_arrays(labels + 0.25, group_ids, specs)

    def test_complex_and_object_dtypes_are_rejected(self):
        rng = np.random.default_rng(9)
        labels, group_ids, specs = random_problem(rng, 20, (2,))
        engine = EvaluationEngine.from_arrays(labels, group_ids, specs)
        with pytest.raises(ValueError, match="real-valued"):
            engine.evaluate(labels.astype(np.complex128))
        with pytest.raises(ValueError, match="integer-valued"):
            EvaluationEngine.from_arrays(labels.astype(object), group_ids, specs)


class TestGroupIdValidation:
    """Out-of-range group ids used to be silently ignored (regression)."""

    def test_group_accuracies_rejects_out_of_range_ids(self):
        spec = AttributeSpec(name="grp", groups=("g0", "g1"))
        labels = np.array([0, 1, 0])
        predictions = labels.copy()
        with pytest.raises(ValueError, match=r"must be in \[0, 2\)"):
            group_accuracies(predictions, labels, np.array([0, 1, 2]), spec)
        with pytest.raises(ValueError, match=r"must be in \[0, 2\)"):
            unfairness_score(predictions, labels, np.array([0, -1, 1]), spec)
        with pytest.raises(ValueError, match=r"must be in \[0, 2\)"):
            accuracy_gap(predictions, labels, np.array([5, 0, 1]), spec)

    def test_bank_rejects_out_of_range_ids(self):
        spec = AttributeSpec(name="grp", groups=("g0", "g1", "g2"))
        with pytest.raises(ValueError, match="out-of-range"):
            GroupIndexBank({"grp": np.array([0, 3])}, {"grp": spec})

    def test_bank_counts_and_membership(self):
        spec = AttributeSpec(name="grp", groups=("g0", "g1", "g2"))
        bank = GroupIndexBank({"grp": np.array([0, 0, 2, 1, 2, 2])}, {"grp": spec})
        assert bank.counts_for("grp").tolist() == [2.0, 1.0, 3.0]
        assert bank.membership.shape == (6, 3)
        assert bank.membership.sum(axis=1).tolist() == [1.0] * 6

    def test_bank_from_attribute_set_matches_dataset(self, isic_dataset):
        bank = GroupIndexBank.from_attribute_set(
            isic_dataset.attribute_groups, isic_dataset.attributes
        )
        for name in isic_dataset.attributes.names:
            sizes = isic_dataset.group_sizes(name)
            counts = bank.counts_for(name)
            spec = isic_dataset.attributes[name]
            assert [sizes[g] for g in spec.groups] == counts.tolist()
