"""Graph-free fused training kernels for small Linear MLP stacks.

The muffin head is a small MLP trained with the Equation-2 weighted-MSE
loss (or the weighted cross-entropy ablation), and every pool model's
classifier is a single Linear layer trained with cross-entropy.  Pushing
every minibatch through the closure-based autograd graph of
:mod:`repro.nn.tensor` pays Python-level overhead per op, per parameter,
per batch, per epoch — for a model whose whole forward/backward is a
handful of GEMMs.  This module hand-derives the closed-form forward and
backward passes and the Adam/SGD update steps as large numpy calls that
are **bit-identical** to the autograd reference: every kernel replicates
the exact float64 expression order the tape-based backward would execute
(same intermediates, same accumulation order, same reductions), so trained
weights and recorded loss curves match the oracle to the last bit — the
property :mod:`tests.test_nn_fused` asserts across randomized
configurations.

All kernels carry a leading candidate axis ``C``: C heads train
*simultaneously*, their parameters packed into one flat contiguous buffer.
Heads with the same activation and layer shapes share a ``(C_g, P_g)``
slab whose per-layer views are ``(C_g, in, out)`` weight blocks; numpy's
stacked matmul dispatches the same per-slice BLAS GEMM a 2-D call would
(each candidate's block is a contiguous 2-D matrix).  The loss kernels and
the optimiser step run once per minibatch over every head of the buffer,
whatever its shape, so the batched path stays bit-identical to training
each head alone while amortising the Python interpreter and the optimiser
bookkeeping across the whole chunk of heads.  A single head is simply the
``C == 1`` case.

These kernels are the one training engine of the search and the model
pool; the autograd tape stays behind ``use_fused=False`` as their oracle.

Eligibility is structural, not nominal: :func:`extract_fused_stack` walks a
module tree and succeeds only for a pure ``Linear (Act Linear)*`` chain
with biases, where ``Act`` is one activation module — ``ReLU``, ``Tanh``,
``Sigmoid`` or ``LeakyReLU`` (the four activations of the muffin-head
search space) — used for every hidden layer (optionally reached through
``Sequential`` / ``MLP`` containers or a module declaring
``fused_delegate``).  Anything else — mixed activations, dropout, custom
layers — returns ``None`` and the caller keeps the autograd path, so the
fast path can never silently change results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .functional import one_hot as _one_hot
from .modules import MLP, LeakyReLU, Linear, Module, ReLU, Sequential, Sigmoid, Tanh

__all__ = [
    "FusedStack",
    "FusedParamBlock",
    "FusedAdam",
    "FusedSGD",
    "FusedActivation",
    "extract_fused_stack",
    "mean_ce_value_and_grad",
    "weighted_ce_value_and_grad",
    "weighted_mse_value_and_grad",
    "train_fused_stacks",
]


# ----------------------------------------------------------------------
# Structural eligibility
# ----------------------------------------------------------------------
#: Activation modules the kernels express, by the name a stack records.
_ACTIVATION_NAMES = {ReLU: "relu", Tanh: "tanh", Sigmoid: "sigmoid", LeakyReLU: "leaky_relu"}


@dataclass(frozen=True)
class FusedActivation:
    """The hidden-layer activation of one stack: a name plus its slope.

    ``negative_slope`` is read from the ``LeakyReLU`` module and is ``0.0``
    for every other activation, so two stacks compare equal exactly when
    their hidden layers compute the same function.
    """

    name: str
    negative_slope: float = 0.0

    @classmethod
    def of(cls, module: Module) -> Optional["FusedActivation"]:
        name = _ACTIVATION_NAMES.get(type(module))
        if name is None:
            return None
        slope = float(module.negative_slope) if name == "leaky_relu" else 0.0
        return cls(name, slope)


@dataclass
class FusedStack:
    """The ordered ``Linear`` layers of one eligible MLP and their activation.

    ``activation`` is ``None`` for a single-``Linear`` stack, which has no
    hidden layer to activate.
    """

    linears: List[Linear]
    activation: Optional[FusedActivation] = None

    @property
    def shapes(self) -> Tuple[Tuple[int, int], ...]:
        """Per-layer ``(in_features, out_features)``."""
        return tuple((lin.in_features, lin.out_features) for lin in self.linears)

    @property
    def signature(self) -> Tuple[Optional[FusedActivation], Tuple[Tuple[int, int], ...]]:
        """The grouping key: stacks train together only if both parts match."""
        return self.activation, self.shapes

    @property
    def num_parameters(self) -> int:
        return sum(fin * fout + fout for fin, fout in self.shapes)


def _flatten_layers(module: Module) -> Optional[List[Module]]:
    """Flatten ``module`` into its forward-order layer list, or ``None``.

    Only containers whose forward is provably "apply children in order" are
    unwrapped: ``Sequential``, ``MLP`` and modules that *opt in* by naming
    their single delegate child in a ``fused_delegate`` attribute (e.g.
    ``MuffinHead`` wraps one ``MLP``).  A module we cannot prove is a plain
    chain makes the whole stack ineligible rather than risking a silently
    different forward.
    """
    if isinstance(module, Linear) or type(module) in _ACTIVATION_NAMES:
        return [module]
    if isinstance(module, MLP):
        return _flatten_layers(module.body)
    if isinstance(module, Sequential):
        collected: List[Module] = []
        for layer in module:
            flat = _flatten_layers(layer)
            if flat is None:
                return None
            collected.extend(flat)
        return collected
    delegate = getattr(module, "fused_delegate", None)
    if isinstance(delegate, str):
        child = getattr(module, delegate, None)
        if isinstance(child, Module):
            return _flatten_layers(child)
    return None


def extract_fused_stack(module: Module) -> Optional[FusedStack]:
    """Return the module's Linear stack if it is fusion-eligible.

    Eligible means the flattened layer sequence is exactly
    ``Linear (Act Linear)*`` with one activation for every hidden layer and
    a bias on every ``Linear`` — the shape of every muffin head the search
    space produces, and of every pool model's classifier.  Returns ``None``
    (caller keeps the autograd path) for anything else.
    """
    layers = _flatten_layers(module)
    if not layers:
        return None
    linears: List[Linear] = []
    activation: Optional[FusedActivation] = None
    expect_linear = True
    for layer in layers:
        if expect_linear:
            if not isinstance(layer, Linear) or layer.bias is None:
                return None
            linears.append(layer)
            expect_linear = False
        else:
            current = FusedActivation.of(layer)
            if current is None or (activation is not None and current != activation):
                return None
            activation = current
            expect_linear = True
    if expect_linear:  # sequence ended on an activation
        return None
    return FusedStack(linears, activation)


# ----------------------------------------------------------------------
# Flat contiguous parameter block
# ----------------------------------------------------------------------
class _SignatureGroup:
    """The stacks of one signature, as a ``(C_g, P_g)`` slab of the block.

    Per-layer views (``(C_g, in, out)`` weights, ``(C_g, 1, out)`` biases)
    alias the slab of ``theta`` and of ``grad``, so the forward/backward
    kernels read and write the exact memory the flat optimiser updates.
    """

    def __init__(self, stacks: Sequence[FusedStack], theta: np.ndarray, grad: np.ndarray) -> None:
        self.stacks = list(stacks)
        self.activation, self.shapes = self.stacks[0].signature
        C = len(self.stacks)
        self.num_candidates = C
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        self.grad_weights: List[np.ndarray] = []
        self.grad_biases: List[np.ndarray] = []
        offset = 0
        for fin, fout in self.shapes:
            size = fin * fout
            self.weights.append(theta[:, offset : offset + size].reshape(C, fin, fout))
            self.grad_weights.append(grad[:, offset : offset + size].reshape(C, fin, fout))
            offset += size
            self.biases.append(theta[:, offset : offset + fout].reshape(C, 1, fout))
            self.grad_biases.append(grad[:, offset : offset + fout].reshape(C, fout))
            offset += fout
        for c, stack in enumerate(self.stacks):
            for layer, linear in enumerate(stack.linears):
                self.weights[layer][c] = linear.weight.data
                self.biases[layer][c, 0] = linear.bias.data


class FusedParamBlock:
    """``C`` stacks packed into one flat parameter buffer, trained in lockstep.

    Stacks are grouped by signature (activation and layer shapes) in
    first-appearance order; ``members[g]`` lists the input positions of
    group ``g``'s stacks and ``order`` is every position in block order (the
    row order of the logits and losses).  Each group owns a contiguous
    ``(C_g, P_g)`` slab of ``theta``/``grad``.  The forward and backward run
    once per group; the loss kernel runs once on all ``C`` candidates'
    logits and the optimiser steps the whole buffer at once.  Each
    candidate's arithmetic is the same whatever else shares the block (the
    loss kernels reduce per row, the optimisers work elementwise), so a
    mixed block stays bit-identical to training every stack alone.
    """

    def __init__(self, stacks: Sequence[FusedStack]) -> None:
        if not stacks:
            raise ValueError("FusedParamBlock needs at least one stack")
        self.stacks = list(stacks)
        by_signature: Dict[tuple, List[int]] = {}
        for index, stack in enumerate(self.stacks):
            by_signature.setdefault(stack.signature, []).append(index)
        self.members: List[List[int]] = list(by_signature.values())
        self.order: List[int] = [index for indices in self.members for index in indices]
        self.num_candidates = len(self.stacks)
        sizes = [len(indices) * self.stacks[indices[0]].num_parameters for indices in self.members]
        self.theta = np.empty(sum(sizes), dtype=np.float64)
        self.grad = np.zeros(sum(sizes), dtype=np.float64)
        self.groups: List[_SignatureGroup] = []
        offset = 0
        for indices, size in zip(self.members, sizes):
            slab = (len(indices), size // len(indices))
            self.groups.append(
                _SignatureGroup(
                    [self.stacks[i] for i in indices],
                    self.theta[offset : offset + size].reshape(slab),
                    self.grad[offset : offset + size].reshape(slab),
                )
            )
            offset += size

    def train_step(self, optimizer, inputs: Sequence[np.ndarray], loss_kernel, *loss_args):
        """One minibatch: forward, loss, backward and optimiser step.

        ``inputs[g]`` is group ``g``'s ``(C_g, B, in_g)`` minibatch,
        ``loss_kernel(logits, *loss_args)`` one of the loss kernels below
        and ``optimizer`` a :class:`FusedAdam` / :class:`FusedSGD` over
        ``theta``.  Returns the ``(C,)`` minibatch losses in block order.
        """
        passes = [
            _forward(group.weights, group.biases, x, group.activation)
            for group, x in zip(self.groups, inputs)
        ]
        if len(passes) == 1:
            logits = passes[0][0]
        else:
            logits = np.concatenate([logits for logits, _, _ in passes])
        losses, g_logits = loss_kernel(logits, *loss_args)
        start = 0
        for group, (_, activations, saved) in zip(self.groups, passes):
            stop = start + group.num_candidates
            _backward(
                group.weights, group.grad_weights, group.grad_biases,
                g_logits[start:stop], activations, saved, group.activation,
            )
            start = stop
        optimizer.step(self.theta, self.grad)
        return losses

    def write_back(self) -> None:
        """Copy the trained flat parameters back into the live modules.

        Copies, so the modules never alias the block's reused buffer.
        """
        for group in self.groups:
            for c, stack in enumerate(group.stacks):
                for layer, linear in enumerate(stack.linears):
                    linear.weight.data = group.weights[layer][c].copy()
                    linear.bias.data = group.biases[layer][c, 0].copy()


# ----------------------------------------------------------------------
# Closed-form forward / backward
# ----------------------------------------------------------------------
def _activate(activation: FusedActivation, z: np.ndarray):
    """One hidden activation; returns ``(output, saved)`` for :func:`_backward`.

    Each branch is the tape's op sequence (:mod:`repro.nn.tensor`): ReLU and
    leaky ReLU multiply by a saved mask (not ``np.maximum``, which would
    lose autograd's signed zeros); sigmoid and tanh save their output, from
    which the backward derives the local gradient.
    """
    name = activation.name
    if name == "relu":
        mask = (z > 0).astype(z.dtype)
        return z * mask, mask
    if name == "leaky_relu":
        mask = np.where(z > 0, 1.0, activation.negative_slope).astype(z.dtype, copy=False)
        return z * mask, mask
    if name == "sigmoid":
        out = 1.0 / (1.0 + np.exp(-z))
        return out, out
    if name == "tanh":
        out = np.tanh(z)
        return out, out
    raise ValueError(f"no fused kernel for activation '{name}'")


def _activation_grad(activation: FusedActivation, g: np.ndarray, saved: np.ndarray):
    """The gradient through one hidden activation, in the tape's op order."""
    name = activation.name
    if name == "sigmoid":
        return g * saved * (1.0 - saved)
    if name == "tanh":
        return g * (1.0 - saved ** 2)
    return g * saved  # relu / leaky_relu: the saved mask


def _forward(weights, biases, x: np.ndarray, activation: Optional[FusedActivation]):
    """Batched MLP forward; returns (logits, layer inputs, activation saves).

    Replicates the autograd op order exactly: ``z = a @ W`` then
    ``z = z + b``, then the hidden activation (:func:`_activate`).
    """
    activations = [x]
    saved: List[np.ndarray] = []
    a = x
    last = len(weights) - 1
    for layer in range(last + 1):
        z = np.matmul(a, weights[layer])
        z = z + biases[layer]
        if layer < last:
            a, keep = _activate(activation, z)
            saved.append(keep)
            activations.append(a)
        else:
            a = z
    return a, activations, saved


def _backward(
    weights, grad_weights, grad_biases, g_logits: np.ndarray, activations, saved, activation
) -> None:
    """Batched backward from the logits gradient into the flat grad buffer.

    Mirrors the tape: bias gradients are the batch-axis sum, weight
    gradients ``aᵀ @ g``, and the hidden gradient ``g @ Wᵀ`` passed through
    the activation (:func:`_activation_grad`).
    """
    g = g_logits
    for layer in range(len(weights) - 1, -1, -1):
        np.add.reduce(g, axis=1, out=grad_biases[layer])
        np.matmul(activations[layer].swapaxes(1, 2), g, out=grad_weights[layer])
        if layer > 0:
            g = _activation_grad(
                activation, np.matmul(g, weights[layer].swapaxes(1, 2)), saved[layer - 1]
            )


def weighted_mse_value_and_grad(
    logits: np.ndarray, target_dist: np.ndarray, batch_weights: np.ndarray
):
    """Equation-2 weighted-MSE loss values and logits gradient.

    ``logits`` is ``(C, B, K)``; ``target_dist``/``batch_weights`` are the
    shared ``(B, K)`` one-hot targets and ``(B,)`` proxy weights.  Every
    expression below replicates one autograd node (softmax → one-hot diff →
    squared error → per-sample mean → weighted mean) and its backward
    closure in the order the tape would run them.
    """
    B, K = logits.shape[-2], logits.shape[-1]
    mx = logits.max(axis=-1, keepdims=True)
    shifted = logits - mx
    ex = np.exp(shifted)
    s = ex.sum(axis=-1, keepdims=True)
    probs = ex / s
    diff = probs - target_dist
    sq = diff * diff
    per_sample = sq.sum(axis=-1) * (1.0 / K)
    wt = batch_weights / max(batch_weights.mean(), 1e-12)
    losses = (per_sample * wt).sum(axis=-1) * (1.0 / B)

    # Backward, node by node: mean → weighted mul → per-class mean → square
    # → softmax (division then sum accumulation into the exp node).
    g_per_sample = wt * (1.0 / B)
    g_sq = (g_per_sample * (1.0 / K))[..., None]
    t = g_sq * diff
    g_diff = t + t
    g_ex = g_diff / s
    g_s = (((-g_diff) * ex) / (s ** 2)).sum(axis=-1, keepdims=True)
    g_ex = g_ex + g_s
    g_logits = g_ex * ex
    return losses, g_logits


def _log_softmax_ce(logits: np.ndarray, target_dist: np.ndarray):
    """Per-sample cross-entropy of ``(C, B, K)`` logits; returns the saves too.

    Matches :func:`repro.nn.functional.cross_entropy`: log-softmax, then the
    negated target-distribution dot product.
    """
    mx = logits.max(axis=-1, keepdims=True)
    shifted = logits - mx
    ex = np.exp(shifted)
    s = ex.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(s)
    per_sample = -((target_dist * log_probs).sum(axis=-1))
    return per_sample, ex, s


def _ce_logits_grad(g_per_sample: np.ndarray, target_dist: np.ndarray, ex, s) -> np.ndarray:
    """Backward from each sample's loss gradient to the logits.

    Negation → per-class sum → log-softmax (the shifted node accumulates
    the direct and the exp-path gradients).
    """
    g_lp = (-g_per_sample)[..., None] * target_dist
    g_lg = (-g_lp).sum(axis=-1, keepdims=True)
    g_s = g_lg / s
    return g_lp + g_s * ex


def weighted_ce_value_and_grad(
    logits: np.ndarray, target_dist: np.ndarray, batch_weights: np.ndarray
):
    """Weighted cross-entropy (the Equation-2 ablation) values and gradient.

    Per-sample weights are sum-normalised, as
    :func:`repro.nn.functional.cross_entropy` does with ``weights``; label
    smoothing arrives already folded into ``target_dist``.
    """
    norm = batch_weights.sum()
    if norm <= 0:
        raise ValueError("weights must sum to a positive value")
    per_sample, ex, s = _log_softmax_ce(logits, target_dist)
    wn = batch_weights / norm
    losses = (per_sample * wn).sum(axis=-1)
    return losses, _ce_logits_grad(wn, target_dist, ex, s)


def mean_ce_value_and_grad(logits: np.ndarray, target_dist: np.ndarray):
    """Unweighted mean cross-entropy values and gradient.

    The tape's ``mean`` is ``sum * (1/N)``, so the value is computed that
    way and every sample's loss receives the gradient ``1/N``.
    """
    batch = logits.shape[-2]
    per_sample, ex, s = _log_softmax_ce(logits, target_dist)
    losses = per_sample.sum(axis=-1) * (1.0 / batch)
    g_mean = np.full(batch, 1.0 / batch, dtype=logits.dtype)
    return losses, _ce_logits_grad(g_mean, target_dist, ex, s)


_LOSS_KERNELS = {
    "weighted_mse": weighted_mse_value_and_grad,
    "weighted_ce": weighted_ce_value_and_grad,
}


# ----------------------------------------------------------------------
# Fused optimisers on flat buffers
# ----------------------------------------------------------------------
class FusedAdam:
    """Adam on one flat ``(C, P)`` buffer, bit-identical to :class:`repro.nn.Adam`.

    Every expression keeps the reference op order (``m ← β₁m + (1-β₁)g``
    etc.); moment and scratch buffers are allocated once and reused, so a
    step performs zero allocations.
    """

    def __init__(
        self,
        shape: Tuple[int, ...],
        lr: float,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = np.zeros(shape, dtype=np.float64)
        self._v = np.zeros(shape, dtype=np.float64)
        self._scratch = np.empty(shape, dtype=np.float64)
        self._scratch2 = np.empty(shape, dtype=np.float64)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        if self.weight_decay:
            np.multiply(theta, self.weight_decay, out=self._scratch)
            grad = np.add(grad, self._scratch, out=self._scratch)
        self._m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=self._scratch2)
        self._m += self._scratch2
        self._v *= self.beta2
        np.multiply(grad, grad, out=self._scratch2)
        self._scratch2 *= 1.0 - self.beta2
        self._v += self._scratch2
        m_hat = np.divide(self._m, bias1, out=self._scratch2)
        denom = np.divide(self._v, bias2, out=self._scratch)
        np.sqrt(denom, out=denom)
        denom += self.eps
        m_hat *= self.lr
        np.divide(m_hat, denom, out=m_hat)
        theta -= m_hat


class FusedSGD:
    """Momentum SGD on one flat ``(C, P)`` buffer, matching :class:`repro.nn.SGD`."""

    def __init__(
        self,
        shape: Tuple[int, ...],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        self.lr = float(lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = np.zeros(shape, dtype=np.float64)
        self._scratch = np.empty(shape, dtype=np.float64)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        if self.weight_decay:
            np.multiply(theta, self.weight_decay, out=self._scratch)
            grad = np.add(grad, self._scratch, out=self._scratch)
        if self.momentum:
            self._velocity *= self.momentum
            self._velocity += grad
            update = self._velocity
            np.multiply(update, self.lr, out=self._scratch)
            theta -= self._scratch
        else:
            update = np.multiply(grad, self.lr, out=self._scratch)
            theta -= update


# ----------------------------------------------------------------------
# The fused training loop
# ----------------------------------------------------------------------
def train_fused_stacks(
    stacks: Sequence[FusedStack],
    inputs: Sequence[np.ndarray],
    labels: np.ndarray,
    sample_weights: np.ndarray,
    num_classes: int,
    *,
    epochs: int,
    batch_size: int,
    lr: float,
    weight_decay: float = 0.0,
    optimizer: str = "adam",
    loss: str = "weighted_mse",
    seed: int = 0,
) -> List[List[float]]:
    """Train ``C`` stacks simultaneously; returns per-head loss curves.

    ``inputs[c]`` is head ``c``'s ``(n, in)`` body-output matrix;
    ``labels``/``sample_weights`` are shared across heads (one proxy dataset
    serves a whole episode batch).  Heads may mix activations and shapes:
    they train in lockstep in one :class:`FusedParamBlock`.  Shuffles come
    from one generator seeded with ``seed`` — the exact stream the autograd
    reference draws — so every head sees the reference minibatch order and
    the trained parameters are bit-identical to ``C`` independent reference
    runs.
    """
    if loss not in _LOSS_KERNELS:
        raise ValueError(f"loss must be one of {sorted(_LOSS_KERNELS)}, got '{loss}'")
    if optimizer not in {"adam", "sgd"}:
        raise ValueError(f"optimizer must be 'adam' or 'sgd', got '{optimizer}'")
    if len(stacks) != len(inputs):
        raise ValueError("stacks and inputs must align one-to-one")
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(sample_weights, dtype=np.float64)
    n = labels.shape[0]
    stacked_inputs = []
    for stack, matrix in zip(stacks, inputs):
        matrix = np.asarray(matrix, dtype=np.float64)
        expected = (n, stack.shapes[0][0])
        if matrix.shape != expected:
            raise ValueError(f"inputs must have shape {expected}, got {matrix.shape}")
        stacked_inputs.append(matrix)
    if weights.shape != (n,):
        raise ValueError(f"sample_weights must have {n} entries, got {weights.shape}")
    for stack in stacks:
        if stack.shapes[-1][1] != num_classes:
            raise ValueError(
                f"stack output width {stack.shapes[-1][1]} != num_classes {num_classes}"
            )

    block = FusedParamBlock(stacks)
    # one (C_g, n, in_g) input tensor per signature group
    X = [np.stack([stacked_inputs[i] for i in indices]) for indices in block.members]
    one_hot = _one_hot(labels, num_classes)

    shape = block.theta.shape
    if optimizer == "adam":
        opt = FusedAdam(shape, lr=lr, weight_decay=weight_decay)
    else:
        opt = FusedSGD(shape, lr=lr, momentum=0.9, weight_decay=weight_decay)
    loss_kernel = _LOSS_KERNELS[loss]

    rng = np.random.default_rng(seed)
    num_heads = block.num_candidates
    curves: List[List[float]] = [[] for _ in range(num_heads)]
    for _ in range(epochs):
        order = rng.permutation(n)
        x_epoch = [x[:, order] for x in X]
        targets_epoch = one_hot[order]
        weights_epoch = weights[order]
        batch_losses: List[np.ndarray] = []
        for start in range(0, n, batch_size):
            stop = start + batch_size
            batch_losses.append(
                block.train_step(
                    opt, [x[:, start:stop] for x in x_epoch], loss_kernel,
                    targets_epoch[start:stop], weights_epoch[start:stop],
                )
            )
        # Per-head loss curves: a contiguous (num_heads, num_batches) matrix
        # keeps np.mean's pairwise summation identical to the reference's
        # mean over a per-head python list of the same floats.
        epoch_matrix = np.ascontiguousarray(np.stack(batch_losses, axis=0).T)
        for row, head in enumerate(block.order):
            curves[head].append(float(np.mean(epoch_matrix[row])))
    block.write_back()
    return curves
