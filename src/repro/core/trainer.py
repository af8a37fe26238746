"""Fairness-aware training of the muffin head (Figure 4 component ②).

Only the head MLP is trained; the body models stay frozen.  Training data
is the proxy dataset of :mod:`repro.core.proxy`, the loss is the weighted
MSE of Equation 2 (a weighted cross-entropy variant is also provided for
ablations), and the optimiser defaults to Adam, which converges in a few
dozen epochs on the small head.

There is one training engine and one oracle, with bit-identical results:

* the **fused kernels** of :mod:`repro.nn.fused` train every head the
  search space produces — ``Linear (Act Linear)*`` stacks for each of its
  activations (``relu``, ``tanh``, ``sigmoid``, ``leaky_relu``).
  :func:`train_heads_batched` trains C candidate heads simultaneously on
  stacked ``(C, in, out)`` parameter blocks, one group per activation and
  shape signature;
* the **autograd tape** of :mod:`repro.nn.tensor` is the oracle.
  ``HeadTrainConfig.use_fused=False`` forces it everywhere, and it also
  trains plugin heads the kernels cannot express (dropout, custom layers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import nn
from ..nn.fused import extract_fused_stack, train_fused_stacks
from ..utils.rng import get_rng
from .fusing import FusedModel
from .proxy import ProxyDataset


@dataclass
class HeadTrainConfig:
    """Hyper-parameters for muffin-head training."""

    epochs: int = 40
    batch_size: int = 128
    lr: float = 5e-3
    weight_decay: float = 1e-4
    optimizer: str = "adam"
    #: 'weighted_mse' is Equation 2; 'weighted_ce' is an ablation variant
    loss: str = "weighted_mse"
    seed: int = 0
    verbose: bool = False
    #: train eligible heads (every search-space head) on the graph-free fused
    #: kernels of :mod:`repro.nn.fused`.  Results are bit-identical to the
    #: autograd path; ``False`` forces the closure-based oracle loop.
    use_fused: bool = True

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.loss not in {"weighted_mse", "weighted_ce"}:
            raise ValueError("loss must be 'weighted_mse' or 'weighted_ce'")
        if self.optimizer not in {"adam", "sgd"}:
            raise ValueError("optimizer must be 'adam' or 'sgd'")


@dataclass
class HeadTrainResult:
    """Loss curve and sizes recorded while training a head."""

    losses: List[float] = field(default_factory=list)
    proxy_size: int = 0
    epochs: int = 0
    #: the engine that trained the head: ``"fused"`` or ``"autograd"``
    path: str = "autograd"

    def to_dict(self) -> Dict[str, object]:
        return {"losses": list(self.losses), "proxy_size": self.proxy_size, "epochs": self.epochs}


def _validate_training_inputs(
    body_outputs: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> None:
    n = labels.shape[0]
    if body_outputs.ndim != 2 or body_outputs.shape[0] != n:
        raise ValueError(
            f"body_outputs must have shape ({n}, d), got {body_outputs.shape}"
        )
    if weights.shape[0] != n:
        raise ValueError(f"sample_weights must have {n} entries, got {weights.shape[0]}")


def _train_head_autograd(
    head: nn.Module,
    body_outputs: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    num_classes: int,
    config: HeadTrainConfig,
) -> HeadTrainResult:
    """The closure-based autograd reference loop (the fused path's oracle)."""
    rng = get_rng(config.seed)
    n = labels.shape[0]

    params = list(head.parameters())
    if config.optimizer == "adam":
        optimizer: nn.Optimizer = nn.Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    else:
        optimizer = nn.SGD(params, lr=config.lr, momentum=0.9, weight_decay=config.weight_decay)

    mse_loss = nn.WeightedMSELoss(num_classes)
    ce_loss = nn.CrossEntropyLoss()

    result = HeadTrainResult(proxy_size=n, epochs=config.epochs)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            logits = head(nn.Tensor(body_outputs[idx]))
            if config.loss == "weighted_mse":
                loss = mse_loss(logits, labels[idx], weights[idx])
            else:
                loss = ce_loss(logits, labels[idx], sample_weights=weights[idx])
            # Zero in place: the gradient buffers allocated on the first
            # backward are reused for the whole run.
            head.zero_grad(set_to_none=False)
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        result.losses.append(float(np.mean(epoch_losses)))
        if config.verbose:
            print(f"[muffin-head] epoch {epoch + 1}/{config.epochs} loss={result.losses[-1]:.5f}")
    return result


def train_head_on_outputs(
    head: nn.Module,
    body_outputs: np.ndarray,
    labels: np.ndarray,
    sample_weights: np.ndarray,
    num_classes: int,
    config: Optional[HeadTrainConfig] = None,
) -> HeadTrainResult:
    """Train ``head`` on pre-computed body outputs with the Equation-2 loss.

    This is the executor-safe core of :func:`train_head`: it is a pure
    function of picklable inputs (numpy arrays and a plain config), seeds a
    *local* generator from ``config.seed`` (no shared-RNG mutation), and
    touches no live model or dataset objects — so the search loop can run it
    concurrently on threads or worker processes with bit-identical results.

    Heads that are ``Linear (Act Linear)*`` stacks take the fused
    closed-form kernels (:mod:`repro.nn.fused`) unless ``config.use_fused``
    is ``False``; anything else falls back to the autograd reference loop.
    Both paths return bit-identical weights and loss curves.
    """
    config = config or HeadTrainConfig()

    body_outputs = np.asarray(body_outputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(sample_weights, dtype=np.float64)
    _validate_training_inputs(body_outputs, labels, weights)

    if config.use_fused:
        stack = extract_fused_stack(head)
        if stack is not None:
            curves = train_fused_stacks(
                [stack],
                [body_outputs],
                labels,
                weights,
                num_classes,
                epochs=config.epochs,
                batch_size=config.batch_size,
                lr=config.lr,
                weight_decay=config.weight_decay,
                optimizer=config.optimizer,
                loss=config.loss,
                seed=config.seed,
            )
            result = HeadTrainResult(
                losses=curves[0], proxy_size=labels.shape[0], epochs=config.epochs, path="fused"
            )
            if config.verbose:
                for epoch, value in enumerate(result.losses):
                    print(
                        f"[muffin-head] epoch {epoch + 1}/{config.epochs} loss={value:.5f}"
                    )
            return result

    return _train_head_autograd(head, body_outputs, labels, weights, num_classes, config)


def train_heads_batched(
    heads: Sequence[nn.Module],
    body_outputs: Sequence[np.ndarray],
    labels: np.ndarray,
    sample_weights: np.ndarray,
    num_classes: int,
    config: Optional[HeadTrainConfig] = None,
) -> List[HeadTrainResult]:
    """Train ``C`` candidate heads *simultaneously* on one shared proxy.

    ``heads[c]`` is trained on ``body_outputs[c]`` (its own concatenated
    body-probability matrix — candidates select different model subsets, so
    widths may differ) against the shared ``labels``/``sample_weights`` of
    the episode batch's proxy dataset.  All eligible heads train in
    lockstep in one parameter block (:func:`repro.nn.fused.train_fused_stacks`):
    heads of one activation and shape signature share a batched
    forward/backward per minibatch, and the loss kernel and the optimiser
    step run once per minibatch for all of them.

    Results are **bit-identical** to calling :func:`train_head_on_outputs`
    on each head alone: all heads share ``config`` (hence the same seeded
    shuffle stream), and the batched kernels replicate the autograd op order
    per candidate.  Heads the kernels cannot express — or every head, when
    ``config.use_fused`` is ``False`` — fall back to the per-head path
    transparently.
    """
    config = config or HeadTrainConfig()
    heads = list(heads)
    if len(heads) != len(body_outputs):
        raise ValueError("heads and body_outputs must align one-to-one")
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(sample_weights, dtype=np.float64)
    matrices = [np.asarray(outputs, dtype=np.float64) for outputs in body_outputs]
    for matrix in matrices:
        _validate_training_inputs(matrix, labels, weights)

    results: List[Optional[HeadTrainResult]] = [None] * len(heads)
    fused_indices: List[int] = []
    stacks = []
    for index, head in enumerate(heads):
        stack = extract_fused_stack(head) if config.use_fused else None
        if stack is None:
            results[index] = train_head_on_outputs(
                head, matrices[index], labels, weights, num_classes, config
            )
        else:
            fused_indices.append(index)
            stacks.append(stack)

    if stacks:
        curves = train_fused_stacks(
            stacks,
            [matrices[i] for i in fused_indices],
            labels,
            weights,
            num_classes,
            epochs=config.epochs,
            batch_size=config.batch_size,
            lr=config.lr,
            weight_decay=config.weight_decay,
            optimizer=config.optimizer,
            loss=config.loss,
            seed=config.seed,
        )
        for index, curve in zip(fused_indices, curves):
            results[index] = HeadTrainResult(
                losses=curve, proxy_size=labels.shape[0], epochs=config.epochs, path="fused"
            )
    return [result for result in results if result is not None]


def train_head(
    fused: FusedModel,
    proxy: ProxyDataset,
    config: Optional[HeadTrainConfig] = None,
    body_outputs: Optional[np.ndarray] = None,
) -> HeadTrainResult:
    """Train the head of ``fused`` on ``proxy`` with the fairness-aware loss.

    ``body_outputs`` may pass pre-computed concatenated body probabilities
    for the proxy samples (the search loop caches them because the body is
    frozen); otherwise they are computed here.
    """
    config = config or HeadTrainConfig()

    if body_outputs is None:
        body_outputs = fused.body.forward(proxy.dataset, proxy.indices)
    body_outputs = np.asarray(body_outputs, dtype=np.float64)
    if body_outputs.shape != (len(proxy), fused.body.output_dim):
        raise ValueError(
            f"body_outputs must have shape ({len(proxy)}, {fused.body.output_dim}), "
            f"got {body_outputs.shape}"
        )

    return train_head_on_outputs(
        fused.head,
        body_outputs,
        proxy.dataset.labels[proxy.indices],
        proxy.sample_weights,
        fused.num_classes,
        config,
    )
