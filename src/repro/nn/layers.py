"""Dense layers and containers used across GRIMP and the baselines."""

from __future__ import annotations

import numpy as np

from ..tensor import (Tensor, dropout as dropout_fn, get_default_dtype,
                      layer_norm as layer_norm_fn, linear as linear_fn)
from . import init
from .module import Module, Parameter

__all__ = [
    "Linear",
    "Embedding",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "LayerNorm",
    "Sequential",
    "MLP",
]


class Linear(Module):
    """Affine transform ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    bias:
        Whether to learn an additive bias.
    rng:
        Random generator for Xavier initialization (defaults to a fresh
        generator, but callers should pass one for reproducibility).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()  # repro: noqa[RPR005] -- documented seedable fallback; callers pass rng
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(in_features, out_features, rng))
        self.bias = Parameter(init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        # Batched inputs (n, ..., in_features) are flattened so both the
        # forward product and its backward run as one large GEMM instead
        # of n small ones — the weight gradient in particular would
        # otherwise materialize an (n, in, out) batched intermediate.
        # The fused kernel adds the bias in place.
        if x.ndim > 2:
            shape = x.shape
            flat = x.reshape(-1, self.in_features)
            out = linear_fn(flat, self.weight, self.bias)
            return out.reshape(*shape[:-1], self.out_features)
        return linear_fn(x, self.weight, self.bias)


class Embedding(Module):
    """Learnable lookup table of shape ``(num_embeddings, dim)``."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator | None = None,
                 initial: np.ndarray | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()  # repro: noqa[RPR005] -- documented seedable fallback; callers pass rng
        self.num_embeddings = num_embeddings
        self.dim = dim
        if initial is not None:
            if initial.shape != (num_embeddings, dim):
                raise ValueError(f"initial embeddings have shape {initial.shape}, "
                                 f"expected {(num_embeddings, dim)}")
            self.weight = Parameter(initial.copy())
        else:
            self.weight = Parameter(init.normal((num_embeddings, dim),
                                                std=1.0 / np.sqrt(dim), rng=rng))

    def forward(self, indices: np.ndarray) -> Tensor:
        return self.weight[np.asarray(indices, dtype=np.int64)]


class ReLU(Module):
    """Rectified linear unit activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    """Leaky ReLU activation."""

    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()  # repro: noqa[RPR005] -- documented seedable fallback; callers pass rng

    def forward(self, x: Tensor) -> Tensor:
        return dropout_fn(x, self.p, self.rng, training=self.training)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim, dtype=get_default_dtype()))
        self.beta = Parameter(np.zeros(dim, dtype=get_default_dtype()))

    def forward(self, x: Tensor) -> Tensor:
        # Fused kernel: one graph node, three full-size buffers.
        return layer_norm_fn(x, self.gamma, self.beta, eps=self.eps)


class Sequential(Module):
    """Container that applies modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class MLP(Module):
    """Multi-layer perceptron with ReLU between hidden layers.

    The paper notes that "shallow architectures (up to three linear
    layers) are enough to obtain good classification results" (§3.5);
    this class builds exactly such stacks.
    """

    def __init__(self, dims: list[int], rng: np.random.Generator | None = None,
                 dropout: float = 0.0, activation: str = "relu"):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        rng = rng if rng is not None else np.random.default_rng()  # repro: noqa[RPR005] -- documented seedable fallback; callers pass rng
        activations = {"relu": ReLU, "tanh": Tanh, "sigmoid": Sigmoid}
        if activation not in activations:
            raise ValueError(f"unknown activation {activation!r}")
        layers: list[Module] = []
        for position, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(fan_in, fan_out, rng=rng))
            is_last = position == len(dims) - 2
            if not is_last:
                layers.append(activations[activation]())
                if dropout > 0:
                    layers.append(Dropout(dropout, rng=rng))
        self.network = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.network(x)
