"""Neural-network layers: Linear, activations, containers, LayerNorm, Dropout.

Together with :mod:`repro.nn.module` these replace the slice of
``torch.nn`` the paper's models need:

- the VFL neural network (input → 600 → 300 → 100 → c, ReLU);
- the GRNA generator (d → 600 → 200 → 100 → d_target, LayerNorm after each
  hidden layer, §VI-C);
- the RF surrogate (d → 2000 → 200 → c, §V-B).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError, ValidationError
from repro.nn.init import get_initializer
from repro.nn.module import Module, Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.utils.random import check_random_state
from repro.utils.validation import check_positive_int


class Linear(Module):
    """Affine map ``y = x W + b`` with ``W`` of shape ``(in, out)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        init: str = "kaiming",
        rng: np.random.Generator | int = 0,
    ) -> None:
        super().__init__()
        self.in_features = check_positive_int(in_features, name="in_features")
        self.out_features = check_positive_int(out_features, name="out_features")
        initializer = get_initializer(init)
        rng = check_random_state(rng)
        self.weight = Parameter(initializer(self.in_features, self.out_features, rng))
        self.bias = Parameter(np.zeros(self.out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"Linear({self.in_features}->{self.out_features}) got input shape {x.shape}"
            )
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class ReLU(Module):
    """Elementwise ReLU activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Sigmoid(Module):
    """Elementwise logistic sigmoid activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Tanh(Module):
    """Elementwise tanh activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        if negative_slope < 0:
            raise ValidationError(f"negative_slope must be >= 0, got {negative_slope}")
        self.negative_slope = float(negative_slope)

    def forward(self, x: Tensor) -> Tensor:
        return F.leaky_relu(x, self.negative_slope)


class Softmax(Module):
    """Softmax along the last axis."""

    def forward(self, x: Tensor) -> Tensor:
        return F.softmax(x, axis=-1)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        for layer in layers:
            if not isinstance(layer, Module):
                raise ValidationError(f"Sequential expects Modules, got {type(layer).__name__}")
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def append(self, layer: Module) -> "Sequential":
        """Append a layer, returning self for chaining."""
        if not isinstance(layer, Module):
            raise ValidationError(f"Sequential expects Modules, got {type(layer).__name__}")
        self.layers.append(layer)
        return self


class LayerNorm(Module):
    """Layer normalization over the last axis (Ba et al., 2016).

    The paper applies LayerNorm after each hidden layer of the GRNA
    generator "to stabilize the hidden states" (§VI-C).
    """

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = check_positive_int(normalized_shape, name="normalized_shape")
        if eps <= 0:
            raise ValidationError(f"eps must be positive, got {eps}")
        self.eps = float(eps)
        self.gamma = Parameter(np.ones(self.normalized_shape))
        self.beta = Parameter(np.zeros(self.normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.normalized_shape:
            raise ShapeError(
                f"LayerNorm({self.normalized_shape}) got input shape {x.shape}"
            )
        return F.layer_norm(x, self.gamma, self.beta, self.eps)


class Dropout(Module):
    """Inverted dropout; identity in eval mode.

    Used both inside the VFL NN when evaluating the dropout countermeasure
    (Fig. 11e-f) and available for the generator.
    """

    def __init__(self, p: float = 0.5, rng: np.random.Generator | int = 0) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValidationError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self.rng = check_random_state(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)


def mlp(
    layer_sizes: list[int],
    *,
    activation: str = "relu",
    layer_norm: bool = False,
    dropout: float = 0.0,
    init: str = "kaiming",
    rng: np.random.Generator | int = 0,
) -> Sequential:
    """Build a multilayer perceptron from a list of layer widths.

    ``layer_sizes = [in, h1, ..., out]``; an activation (and optionally
    LayerNorm / Dropout) follows every hidden layer but not the output.
    """
    if len(layer_sizes) < 2:
        raise ValidationError("layer_sizes needs at least input and output widths")
    activations = {"relu": ReLU, "sigmoid": Sigmoid, "tanh": Tanh, "leaky_relu": LeakyReLU}
    if activation not in activations:
        raise ValidationError(
            f"unknown activation {activation!r}; choose from {sorted(activations)}"
        )
    rng = check_random_state(rng)
    layers: list[Module] = []
    for i, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        layers.append(Linear(fan_in, fan_out, init=init, rng=rng))
        is_hidden = i < len(layer_sizes) - 2
        if is_hidden:
            if layer_norm:
                layers.append(LayerNorm(fan_out))
            layers.append(activations[activation]())
            if dropout > 0.0:
                layers.append(Dropout(dropout, rng=rng))
    return Sequential(*layers)
