"""Training loop for the classifier heads of zoo models.

The paper trains every competitor "from scratch with the same
hyper-parameters" — SGD, learning rate 0.1 with a 0.9 decay every 20 steps.
The simulated backbones are frozen, so only the softmax head is optimised
here.  The trainer also supports the two single-attribute baselines:

* per-sample weights (cost-sensitive variant of Method D);
* the fair-regularized loss of Method L, which needs the group ids of the
  attribute being optimised.

Minibatch steps run on the fused kernels of :mod:`repro.nn.fused` (a
one-candidate parameter block, the cross-entropy kernel and a fused
optimiser whose learning rate follows the schedule), bit-identical to the
autograd tape.  The tape stays the oracle behind ``use_fused=False`` and
trains the fair-regularized loss, which has no fused kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .. import nn
from ..data.dataset import Batch, FairnessDataset
from ..nn.fused import (
    FusedAdam,
    FusedParamBlock,
    FusedSGD,
    FusedStack,
    extract_fused_stack,
    mean_ce_value_and_grad,
    weighted_ce_value_and_grad,
)
from ..obs import span
from ..utils.rng import get_rng
from .model import ZooModel


@dataclass
class TrainConfig:
    """Hyper-parameters of head training.

    The defaults mirror the paper's recipe scaled down to the numpy
    substrate: the paper uses lr=0.1 decayed by 0.9 every 20 steps, batch 64
    and 500 epochs on a GPU cluster; the synthetic task converges in a few
    dozen epochs.
    """

    epochs: int = 60
    batch_size: int = 128
    lr: float = 0.1
    lr_decay: float = 0.9
    lr_decay_every: int = 20
    momentum: float = 0.9
    weight_decay: float = 1e-4
    optimizer: str = "sgd"
    label_smoothing: float = 0.0
    #: weight of the group-disparity penalty when ``fair_attribute`` is set
    fairness_weight: float = 0.0
    #: attribute whose groups the fair loss regularises (Method L)
    fair_attribute: Optional[str] = None
    seed: int = 0
    verbose: bool = False
    #: train on the fused kernels (bit-identical); ``False`` forces the
    #: autograd tape, the oracle
    use_fused: bool = True

    def __post_init__(self) -> None:
        if self.optimizer not in {"sgd", "adam"}:
            raise ValueError(
                f"unknown optimizer '{self.optimizer}'; expected 'sgd' or 'adam'"
            )
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")


@dataclass
class TrainResult:
    """Loss / accuracy curves recorded during training."""

    losses: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)
    final_lr: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "losses": list(self.losses),
            "train_accuracy": list(self.train_accuracy),
            "val_accuracy": list(self.val_accuracy),
            "final_lr": self.final_lr,
        }


class _TapeStep:
    """One minibatch on the autograd tape: the oracle, and the fair loss."""

    def __init__(self, model: ZooModel, config: TrainConfig, train_set: FairnessDataset) -> None:
        self.head = model.head
        params = list(model.head.parameters())
        if config.optimizer == "sgd":
            self.optimizer: nn.Optimizer = nn.SGD(
                params, lr=config.lr, momentum=config.momentum, weight_decay=config.weight_decay
            )
        else:
            self.optimizer = nn.Adam(params, lr=config.lr, weight_decay=config.weight_decay)
        self.ce_loss = nn.CrossEntropyLoss(label_smoothing=config.label_smoothing)
        self.fair_loss: Optional[nn.FairRegularizedLoss] = None
        self.fair_groups: Optional[np.ndarray] = None
        if config.fair_attribute is not None:
            self.fair_loss = nn.FairRegularizedLoss(fairness_weight=config.fairness_weight)
            self.fair_groups = train_set.group_ids(config.fair_attribute)

    def __call__(self, batch: Batch, weights: Optional[np.ndarray]) -> float:
        logits = self.head(nn.Tensor(batch.features))
        if self.fair_loss is not None and self.fair_groups is not None:
            loss = self.fair_loss(logits, batch.labels, self.fair_groups[batch.indices])
        else:
            loss = self.ce_loss(logits, batch.labels, sample_weights=weights)
        self.head.zero_grad()
        loss.backward()
        self.optimizer.step()
        return loss.item()

    def sync(self) -> None:
        """The tape updates the module parameters in place."""


class _FusedStep:
    """One minibatch on the fused kernels, bit-identical to :class:`_TapeStep`.

    The head trains as a one-candidate parameter block.  Targets are the
    label-smoothed one-hot rows of the whole training set, built once with
    the tape's expression and indexed per batch.
    """

    def __init__(self, stack: FusedStack, config: TrainConfig, train_set: FairnessDataset) -> None:
        self.block = FusedParamBlock([stack])
        shape = self.block.theta.shape
        if config.optimizer == "sgd":
            self.optimizer = FusedSGD(
                shape, lr=config.lr, momentum=config.momentum, weight_decay=config.weight_decay
            )
        else:
            self.optimizer = FusedAdam(shape, lr=config.lr, weight_decay=config.weight_decay)
        num_classes = stack.shapes[-1][1]
        target_dist = nn.functional.one_hot(train_set.labels, num_classes)
        smoothing = config.label_smoothing
        if smoothing:
            target_dist = (1.0 - smoothing) * target_dist + smoothing / num_classes
        self.target_dist = target_dist

    def __call__(self, batch: Batch, weights: Optional[np.ndarray]) -> float:
        x = [np.asarray(batch.features, dtype=np.float64)[None]]
        target = self.target_dist[batch.indices]
        if weights is None:
            losses = self.block.train_step(self.optimizer, x, mean_ce_value_and_grad, target)
        else:
            losses = self.block.train_step(
                self.optimizer, x, weighted_ce_value_and_grad, target, weights
            )
        return float(losses[0])

    def sync(self) -> None:
        """Copy the trained block back into the head before it predicts."""
        self.block.write_back()


def train_model(
    model: ZooModel,
    train_set: FairnessDataset,
    val_set: Optional[FairnessDataset] = None,
    config: Optional[TrainConfig] = None,
    sample_weights: Optional[np.ndarray] = None,
) -> TrainResult:
    """Train the classifier head of ``model`` on ``train_set``.

    Parameters
    ----------
    sample_weights:
        Optional per-sample weights for cost-sensitive training (used by the
        weighted variant of the data-balancing baseline).
    """
    config = config or TrainConfig()
    rng = get_rng(config.seed)
    result = TrainResult()

    # The backbone is frozen: extract features once.
    train_features = model.features(train_set)
    val_features = model.features(val_set) if val_set is not None else None

    if sample_weights is not None:
        sample_weights = np.asarray(sample_weights, dtype=np.float64)
        if sample_weights.shape != (len(train_set),):
            raise ValueError("sample_weights must have one entry per training sample")

    stack = None
    if config.use_fused and config.fair_attribute is None:
        stack = extract_fused_stack(model.head)
    step = (
        _FusedStep(stack, config, train_set)
        if stack is not None
        else _TapeStep(model, config, train_set)
    )
    scheduler = nn.StepLR(step.optimizer, step_size=config.lr_decay_every, gamma=config.lr_decay)

    path = "fused" if stack is not None else "autograd"
    with span("zoo/train", model=model.label, path=path, epochs=config.epochs):
        for _epoch in range(config.epochs):
            epoch_losses = []
            for batch, weights in train_set.iter_batches(
                config.batch_size, train_features, shuffle=True, rng=rng,
                sample_weights=sample_weights,
            ):
                epoch_losses.append(step(batch, weights))
            step.sync()

            result.losses.append(float(np.mean(epoch_losses)))
            train_logits = model.head(nn.Tensor(train_features)).data
            result.train_accuracy.append(nn.functional.accuracy(train_logits, train_set.labels))
            if val_features is not None and val_set is not None:
                val_logits = model.head(nn.Tensor(val_features)).data
                result.val_accuracy.append(nn.functional.accuracy(val_logits, val_set.labels))
            result.final_lr = scheduler.step()

            if config.verbose:
                val_msg = (
                    f", val_acc={result.val_accuracy[-1]:.4f}" if result.val_accuracy else ""
                )
                print(
                    f"[{model.label}] epoch {_epoch + 1}/{config.epochs} "
                    f"loss={result.losses[-1]:.4f} "
                    f"train_acc={result.train_accuracy[-1]:.4f}{val_msg}"
                )

    model.training_history["loss"].extend(result.losses)
    model.training_history["accuracy"].extend(result.train_accuracy)
    model.is_trained = True
    return result
