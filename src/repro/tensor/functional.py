"""Differentiable functional operations built on :class:`~repro.tensor.Tensor`.

These cover the loss functions and activations GRIMP needs (§3.6 of the
paper): cross-entropy and focal loss for categorical tasks, MSE/RMSE for
numerical tasks, plus softmax utilities and dropout.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _unbroadcast

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "focal_loss",
    "mse_loss",
    "rmse_loss",
    "binary_cross_entropy",
    "dropout",
    "embedding_lookup",
    "linear",
    "layer_norm",
]


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    logits = Tensor.ensure(logits)
    shifted_data = logits.data - logits.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted_data)
    denominator = exp.sum(axis=axis, keepdims=True)
    out_data = shifted_data - np.log(denominator)
    probabilities = exp / denominator

    def backward(grad):
        # ``grad - probabilities * total`` in one product buffer.
        total = grad.sum(axis=axis, keepdims=True)
        scratch = np.multiply(probabilities, total,
                              out=np.empty(probabilities.shape,
                                           dtype=probabilities.dtype))
        np.subtract(grad, scratch, out=scratch)
        logits._accumulate(scratch, owned=True)

    return logits._make(out_data, (logits,), backward, "log_softmax")


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return log_softmax(logits, axis=axis).exp()


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  weights: np.ndarray | None = None,
                  reduction: str = "mean") -> Tensor:
    """Cross-entropy between raw ``logits`` of shape ``(n, k)`` and
    integer class ``targets`` of shape ``(n,)``.

    Parameters
    ----------
    weights:
        Optional per-sample weights of shape ``(n,)``.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=-1)
    rows = np.arange(targets.shape[0])
    picked = log_probs[rows, targets]
    losses = -picked
    if weights is not None:
        losses = losses * Tensor(np.asarray(weights, dtype=losses.dtype))
    if reduction == "mean":
        return losses.mean()
    if reduction == "sum":
        return losses.sum()
    if reduction == "none":
        return losses
    raise ValueError(f"unknown reduction {reduction!r}")


def focal_loss(logits: Tensor, targets: np.ndarray, gamma: float = 2.0,
               reduction: str = "mean") -> Tensor:
    """Focal loss (Lin et al.) used by GRIMP as an alternative categorical
    loss that down-weights easy (frequent) classes.

    ``FL = -(1 - p_t)^gamma * log(p_t)``
    """
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=-1)
    rows = np.arange(targets.shape[0])
    picked = log_probs[rows, targets]
    pt = picked.exp()
    losses = -((1.0 - pt) ** gamma) * picked
    if reduction == "mean":
        return losses.mean()
    if reduction == "sum":
        return losses.sum()
    if reduction == "none":
        return losses
    raise ValueError(f"unknown reduction {reduction!r}")


def mse_loss(predictions: Tensor, targets, reduction: str = "mean") -> Tensor:
    """Mean squared error between ``predictions`` and ``targets``."""
    targets = Tensor.ensure(targets)
    diff = predictions - targets
    squared = diff * diff
    if reduction == "mean":
        return squared.mean()
    if reduction == "sum":
        return squared.sum()
    if reduction == "none":
        return squared
    raise ValueError(f"unknown reduction {reduction!r}")


def rmse_loss(predictions: Tensor, targets) -> Tensor:
    """Root mean squared error (the numerical-task loss in Algorithm 1)."""
    return (mse_loss(predictions, targets) + 1e-12) ** 0.5


def binary_cross_entropy(probabilities: Tensor, targets,
                         reduction: str = "mean") -> Tensor:
    """BCE over probabilities in ``(0, 1)`` (used by the link-prediction
    baseline the paper mentions in §4.1)."""
    targets = Tensor.ensure(targets)
    clipped = probabilities.clip(1e-9, 1.0 - 1e-9)
    losses = -(targets * clipped.log() + (1.0 - targets) * (1.0 - clipped).log())
    if reduction == "mean":
        return losses.mean()
    if reduction == "sum":
        return losses.sum()
    if reduction == "none":
        return losses
    raise ValueError(f"unknown reduction {reduction!r}")


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: zero each element with probability ``p`` and
    rescale survivors by ``1 / (1 - p)`` so expectations match at test time.
    """
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    x = Tensor.ensure(x)
    mask = ((rng.random(x.shape) >= p) / (1.0 - p)).astype(x.data.dtype,
                                                           copy=False)
    return x * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused affine ``x @ weight (+ bias)`` as a single graph node.

    One node instead of a matmul node plus an add node: the forward
    adds the bias in place into the product buffer.  The floating-point
    operation sequence matches the composed ``(x @ w) + b`` exactly, so
    switching :class:`repro.nn.Linear` to this kernel changes no
    results.
    """
    out_data = x.data @ weight.data
    if bias is not None:
        if bias.data.dtype == out_data.dtype:
            np.add(out_data, bias.data, out=out_data)
        else:
            out_data = out_data + bias.data
        parents: tuple[Tensor, ...] = (x, weight, bias)
    else:
        parents = (x, weight)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(
                _unbroadcast(grad @ np.swapaxes(weight.data, -1, -2),
                             x.shape), owned=True)
        if weight.requires_grad:
            weight._accumulate(
                _unbroadcast(np.swapaxes(x.data, -1, -2) @ grad,
                             weight.shape), owned=True)
        if bias is not None and bias.requires_grad:
            g = _unbroadcast(grad, bias.shape)
            bias._accumulate(g, owned=g is not grad)

    return x._make(out_data, parents, backward, "linear")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Fused layer normalization over the last dimension.

    ``(x - mean) / sqrt(var + eps) * gamma + beta`` computed in three
    full-size buffers instead of roughly a dozen temporaries from the
    composed-op formulation; the backward is the standard closed-form
    LayerNorm gradient, verified by gradcheck in
    ``tests/test_tensor_functional.py``.
    """
    data = x.data
    dtype = data.dtype
    mean = data.mean(axis=-1, keepdims=True)
    centered = np.subtract(data, mean, out=np.empty(data.shape, dtype=dtype))
    squared = np.multiply(centered, centered,
                          out=np.empty(data.shape, dtype=dtype))
    rstd = squared.mean(axis=-1, keepdims=True)
    rstd += eps
    np.power(rstd, -0.5, out=rstd)
    normalized = np.multiply(centered, rstd, out=squared)
    out_data = np.multiply(normalized, gamma.data,
                           out=np.empty(data.shape, dtype=dtype))
    if beta.data.dtype == dtype:
        np.add(out_data, beta.data, out=out_data)
    else:
        out_data = out_data + beta.data

    def backward(grad):
        if beta.requires_grad:
            g = _unbroadcast(grad, beta.shape)
            beta._accumulate(g, owned=g is not grad)
        if gamma.requires_grad:
            scaled = np.multiply(grad, normalized,
                                 out=np.empty(grad.shape, dtype=grad.dtype))
            gamma._accumulate(_unbroadcast(scaled, gamma.shape),
                              owned=True)
        if x.requires_grad:
            # dx = rstd * (g - mean(g) - normalized * mean(g * normalized))
            # with g = grad * gamma and means over the last axis.
            g = np.multiply(grad, gamma.data,
                            out=np.empty(grad.shape, dtype=grad.dtype))
            mean_g = g.mean(axis=-1, keepdims=True)
            projected = np.multiply(g, normalized,
                                    out=np.empty(grad.shape, dtype=grad.dtype))
            mean_projected = projected.mean(axis=-1, keepdims=True)
            np.multiply(normalized, mean_projected, out=projected)
            np.subtract(g, mean_g, out=g)
            np.subtract(g, projected, out=g)
            np.multiply(g, rstd, out=g)
            x._accumulate(g, owned=True)

    return x._make(out_data, (x, gamma, beta), backward, "layer_norm")


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of an embedding matrix; gradients scatter-add back.

    Equivalent to ``weight[indices]`` but named for readability at call
    sites that implement the paper's node-feature lookups.
    """
    return weight[np.asarray(indices, dtype=np.int64)]
