"""Module system for the numpy neural-network substrate.

Provides the ``Module``/``Parameter`` abstractions plus the concrete layers
needed by the Muffin reproduction: ``Linear``, the usual activations,
``Dropout``, ``Sequential`` containers and a convenience ``MLP`` builder that
matches the muffin-head search space (a list of hidden widths plus an
activation choice).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..utils.rng import spawn_rng
from . import functional as F
from .init import get_initializer, zeros as zeros_init
from .tensor import Tensor

#: Root sequence behind :func:`_fresh_default_rng`.  Layers constructed
#: *without* an explicit generator each spawn an independent child stream
#: from it, so two default-constructed layers never share a stream.  (They
#: previously both defaulted to ``np.random.default_rng(0)``, which made two
#: dropout layers in one network drop *identical* masks and two default
#: ``Linear`` layers initialise to identical weights.)
_DEFAULT_SEED_SEQUENCE = np.random.SeedSequence(0)
#: ``SeedSequence.spawn`` mutates its child counter non-atomically, so
#: concurrent default construction (e.g. custom heads built on executor
#: threads) must serialise the spawn or two layers could draw one stream.
_DEFAULT_SEED_LOCK = threading.Lock()


def _fresh_default_rng() -> np.random.Generator:
    """A distinct deterministic generator per default-constructed layer."""
    with _DEFAULT_SEED_LOCK:
        child = _DEFAULT_SEED_SEQUENCE.spawn(1)[0]
    return np.random.default_rng(child)


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data: np.ndarray, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules.

    Sub-modules and parameters assigned as attributes are registered
    automatically, mirroring the PyTorch API surface the paper's
    implementation would rely on (``parameters``, ``state_dict``,
    ``train``/``eval``, ``zero_grad``).
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -- attribute registration -----------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- traversal --------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all trainable parameters of this module and its children."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants depth-first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    # -- training state ----------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects e.g. dropout)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear gradients of every parameter.

        ``set_to_none=False`` zeroes existing buffers in place (one
        allocation per parameter for a whole training run) instead of
        dropping them.
        """
        for param in self.parameters():
            param.zero_grad(set_to_none=set_to_none)

    # -- (de)serialisation --------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter keyed by qualified name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values previously produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch; missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, values in state.items():
            param = own[name]
            values = np.asarray(values, dtype=np.float64)
            if values.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': expected {param.shape}, got {values.shape}"
                )
            param.data = values.copy()

    # -- forward -------------------------------------------------------------
    def forward(self, *args, **kwargs) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Fully connected layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        init: str = "kaiming_uniform",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        rng = rng if rng is not None else _fresh_default_rng()
        initializer = get_initializer(init)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(initializer((in_features, out_features), rng), name="weight")
        self.bias = Parameter(zeros_init((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class ReLU(Module):
    """Rectified linear activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)

    def __repr__(self) -> str:
        return "ReLU()"


class LeakyReLU(Module):
    """Leaky ReLU activation module."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return F.leaky_relu(x, self.negative_slope)

    def __repr__(self) -> str:
        return f"LeakyReLU(negative_slope={self.negative_slope})"


class Sigmoid(Module):
    """Sigmoid activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)

    def __repr__(self) -> str:
        return "Sigmoid()"


class Tanh(Module):
    """Tanh activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)

    def __repr__(self) -> str:
        return "Tanh()"


#: Activation registry used by the muffin-head search space.
ACTIVATIONS = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
}


def make_activation(name: str) -> Module:
    """Instantiate an activation module by name."""
    try:
        return ACTIVATIONS[name]()
    except KeyError as exc:
        raise KeyError(f"unknown activation '{name}'; available: {sorted(ACTIVATIONS)}") from exc


class Dropout(Module):
    """Inverted dropout; a no-op in evaluation mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng if rng is not None else _fresh_default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(np.float64) / keep
        return x * Tensor(mask)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Sequential(Module):
    """Container applying child modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for index, layer in enumerate(layers):
            setattr(self, f"layer{index}", layer)
            self._layers.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, index: int) -> Module:
        return self._layers[index]

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self._layers)
        return f"Sequential({inner})"


class MLP(Module):
    """Multi-layer perceptron built from a list of layer widths.

    This mirrors the muffin-head description in the paper: the controller
    chooses the number of layers, the width of each layer and the activation
    function; the final layer maps to ``num_classes`` logits.
    """

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int],
        num_classes: int,
        activation: str = "relu",
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_classes <= 0:
            raise ValueError("num_classes must be positive")
        rng = rng if rng is not None else _fresh_default_rng()
        self.in_features = in_features
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.num_classes = num_classes
        self.activation_name = activation

        layers: List[Module] = []
        previous = in_features
        for index, width in enumerate(self.hidden_sizes):
            if width <= 0:
                raise ValueError("hidden layer widths must be positive")
            layers.append(Linear(previous, width, rng=rng))
            layers.append(make_activation(activation))
            if dropout > 0.0:
                # Each dropout layer gets its own child stream (derived here,
                # consuming one construction draw): sharing the construction
                # generator would tie mask draws to forward-call order across
                # layers.
                layers.append(Dropout(dropout, rng=spawn_rng(rng, f"dropout-{index}")))
            previous = width
        layers.append(Linear(previous, num_classes, rng=rng))
        self.body = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.body(x)

    def __repr__(self) -> str:
        return (
            f"MLP(in={self.in_features}, hidden={list(self.hidden_sizes)}, "
            f"classes={self.num_classes}, activation='{self.activation_name}')"
        )


class SoftmaxClassifier(Module):
    """A linear softmax classifier used as the trainable head of zoo models."""

    #: the forward is exactly ``self.linear(x)``, so the fused-kernel
    #: eligibility walk (:func:`repro.nn.fused.extract_fused_stack`) may
    #: unwrap it to that single Linear layer
    fused_delegate = "linear"

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.linear = Linear(in_features, num_classes, init="xavier_uniform", rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.linear(x)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Return class probabilities for a raw feature matrix."""
        logits = self.forward(Tensor(features))
        return F.softmax(logits, axis=-1).data

    def __repr__(self) -> str:
        return f"SoftmaxClassifier({self.linear.in_features} -> {self.linear.out_features})"
