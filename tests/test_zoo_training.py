"""Unit tests for the zoo head trainer."""

import numpy as np
import pytest

from repro.zoo import TrainConfig, ZooModel, train_model


@pytest.fixture
def fresh_model(isic_split):
    train = isic_split.train
    return ZooModel.from_name("MobileNet_V3_Large", train.feature_dim, train.num_classes, seed=0)


class TestTrainConfig:
    def test_defaults_follow_paper_recipe(self):
        config = TrainConfig()
        assert config.lr == pytest.approx(0.1)
        assert config.lr_decay == pytest.approx(0.9)
        assert config.lr_decay_every == 20

    def test_invalid_optimizer(self, fresh_model, isic_split):
        with pytest.raises(ValueError):
            train_model(fresh_model, isic_split.train, config=TrainConfig(epochs=1, optimizer="rmsprop"))


class TestTrainModel:
    def test_loss_decreases_and_accuracy_improves(self, fresh_model, isic_split):
        result = train_model(
            fresh_model, isic_split.train, isic_split.val, TrainConfig(epochs=20, batch_size=256)
        )
        assert result.losses[-1] < result.losses[0]
        assert result.train_accuracy[-1] > 0.5
        assert len(result.val_accuracy) == 20
        assert fresh_model.is_trained

    def test_lr_schedule_applied(self, fresh_model, isic_split):
        result = train_model(
            fresh_model,
            isic_split.train,
            config=TrainConfig(epochs=25, lr=0.1, lr_decay=0.9, lr_decay_every=20),
        )
        assert result.final_lr == pytest.approx(0.1 * 0.9)

    def test_sample_weights_change_outcome(self, isic_split):
        train = isic_split.train
        model_a = ZooModel.from_name("ResNet-34", train.feature_dim, train.num_classes, seed=0)
        model_b = ZooModel.from_name("ResNet-34", train.feature_dim, train.num_classes, seed=0)
        config = TrainConfig(epochs=10, batch_size=256, seed=0)
        train_model(model_a, train, config=config)
        weights = np.ones(len(train))
        weights[train.unprivileged_mask("site")] = 6.0
        train_model(model_b, train, config=config, sample_weights=weights)
        assert not np.allclose(
            model_a.predict_logits(isic_split.test), model_b.predict_logits(isic_split.test)
        )

    def test_sample_weight_shape_validated(self, fresh_model, isic_split):
        with pytest.raises(ValueError):
            train_model(
                fresh_model,
                isic_split.train,
                config=TrainConfig(epochs=1),
                sample_weights=np.ones(3),
            )

    def test_fair_loss_attribute_used(self, isic_split):
        train = isic_split.train
        model = ZooModel.from_name("DenseNet201", train.feature_dim, train.num_classes, seed=0)
        config = TrainConfig(epochs=10, fair_attribute="age", fairness_weight=2.0)
        result = train_model(model, train, config=config)
        assert model.is_trained
        assert len(result.losses) == 10

    def test_adam_option(self, isic_split):
        train = isic_split.train
        model = ZooModel.from_name("ShuffleNet_V2_X0_5", train.feature_dim, train.num_classes, seed=0)
        result = train_model(model, train, config=TrainConfig(epochs=10, optimizer="adam", lr=0.01))
        assert result.train_accuracy[-1] > 0.4

    def test_train_result_to_dict(self, fresh_model, isic_split):
        result = train_model(fresh_model, isic_split.train, config=TrainConfig(epochs=2))
        payload = result.to_dict()
        assert len(payload["losses"]) == 2


class TestFusedMatchesAutogradOracle:
    """Pool training on the fused kernels is bit-identical to the tape."""

    ARCH = "ResNet-18"

    def _train(self, split, use_fused, sample_weights=None, **overrides):
        train = split.train
        model = ZooModel.from_name(self.ARCH, train.feature_dim, train.num_classes, seed=3)
        config = TrainConfig(use_fused=use_fused, seed=5, **overrides)
        result = train_model(model, train, split.val, config, sample_weights=sample_weights)
        return model, result

    def _assert_identical(self, split, sample_weights=None, **overrides):
        oracle, oracle_result = self._train(split, False, sample_weights, **overrides)
        fused, fused_result = self._train(split, True, sample_weights, **overrides)
        assert fused_result.losses == oracle_result.losses
        assert fused_result.train_accuracy == oracle_result.train_accuracy
        assert fused_result.val_accuracy == oracle_result.val_accuracy
        assert fused_result.final_lr == oracle_result.final_lr
        oracle_state, fused_state = oracle.head_state(), fused.head_state()
        assert set(oracle_state) == set(fused_state)
        for key in oracle_state:
            assert np.array_equal(oracle_state[key], fused_state[key]), key
        return fused_result

    def test_sgd_run_crossing_a_step_lr_decay(self, isic_split):
        # odd batch size: the last minibatch of every epoch is a short one
        result = self._assert_identical(
            isic_split, epochs=7, batch_size=97, lr_decay_every=3, lr_decay=0.5
        )
        assert result.final_lr == pytest.approx(0.1 * 0.5 ** 2)

    def test_sample_weighted_cross_entropy(self, isic_split):
        weights = np.random.default_rng(0).random(len(isic_split.train)) + 0.1
        self._assert_identical(isic_split, sample_weights=weights, epochs=4, batch_size=128)

    def test_label_smoothing(self, isic_split):
        self._assert_identical(isic_split, epochs=4, batch_size=200, label_smoothing=0.1)

    def test_adam_with_weights_and_smoothing(self, isic_split):
        weights = np.random.default_rng(1).random(len(isic_split.train)) + 0.1
        self._assert_identical(
            isic_split,
            sample_weights=weights,
            epochs=4,
            batch_size=150,
            optimizer="adam",
            lr=0.01,
            label_smoothing=0.05,
            lr_decay_every=2,
        )

    def test_fair_attribute_falls_back_to_the_tape(self, isic_split, monkeypatch):
        import repro.zoo.training as training

        class NoFusedStep:
            def __init__(self, *args, **kwargs):
                raise AssertionError("fused step used")

        monkeypatch.setattr(training, "_FusedStep", NoFusedStep)
        with pytest.raises(AssertionError, match="fused step used"):
            self._train(isic_split, True, epochs=1)
        _, result = self._train(
            isic_split, True, epochs=2, fair_attribute="age", fairness_weight=1.0
        )
        assert len(result.losses) == 2
