"""Reverse-mode autodiff substrate (numpy-backed) used by every neural
component in the reproduction."""

from .tensor import (Tensor, concat, stack, no_grad, is_grad_enabled,
                     get_default_dtype, set_default_dtype, default_dtype)
from .functional import (
    softmax,
    log_softmax,
    cross_entropy,
    focal_loss,
    mse_loss,
    rmse_loss,
    binary_cross_entropy,
    dropout,
    embedding_lookup,
    linear,
    layer_norm,
)
from .gradcheck import gradcheck, numeric_gradient

__all__ = [
    "Tensor",
    "concat",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
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
    "gradcheck",
    "numeric_gradient",
]
