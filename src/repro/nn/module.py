"""Base class for neural network modules (parameter containers).

Mirrors the familiar ``torch.nn.Module`` contract at the scale this
reproduction needs: recursive parameter discovery, train/eval mode, and
state (de)serialization for tests.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..tensor import Tensor

__all__ = ["Module", "Parameter"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by default."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; :meth:`parameters` discovers them recursively.
    """

    def __init__(self):
        self.training = True

    # ------------------------------------------------------------------
    # Parameter management
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters in this module (recursively)."""
        return [parameter for _, parameter in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for name, value in vars(self).items():
            full_name = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full_name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full_name}.")
            elif isinstance(value, (list, tuple)):
                for position, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full_name}.{position}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(
                            prefix=f"{full_name}.{position}.")
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Parameter):
                        yield f"{full_name}.{key}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(
                            prefix=f"{full_name}.{key}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all submodules recursively."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        yield from item.modules()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(parameter.size for parameter in self.parameters())

    def zero_grad(self) -> None:
        """Reset gradients on all parameters."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def astype(self, dtype) -> "Module":
        """Cast every tensor attribute (parameters *and* constant
        tensors such as attention ``K`` matrices) to ``dtype`` in place.

        Mixed-precision graphs silently upcast to float64, so training in
        float32 requires every tensor an op touches to already be
        float32; this walks containers the same way parameter discovery
        does.
        """
        resolved = np.dtype(dtype)
        for module in self.modules():
            for value in vars(module).values():
                if isinstance(value, Tensor):
                    tensors = [value]
                elif isinstance(value, (list, tuple)):
                    tensors = [item for item in value
                               if isinstance(item, Tensor)]
                elif isinstance(value, dict):
                    tensors = [item for item in value.values()
                               if isinstance(item, Tensor)]
                else:
                    continue
                for tensor in tensors:
                    tensor.data = tensor.data.astype(resolved, copy=False)
                    tensor.grad = None
        return self

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout etc.)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set evaluation (inference) mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    # State I/O (used by tests and checkpointing)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by dotted name."""
        return {name: parameter.data.copy()
                for name, parameter in self.named_parameters()}

    def save_state(self, path) -> None:
        """Persist the parameters to an ``.npz`` checkpoint file."""
        np.savez(path, **self.state_dict())

    def load_state(self, path) -> None:
        """Load parameters from a checkpoint written by :meth:`save_state`."""
        with np.load(path) as archive:
            self.load_state_dict({name: archive[name]
                                  for name in archive.files})

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from :meth:`state_dict` output."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)} "
                           f"unexpected={sorted(unexpected)}")
        for name, parameter in own.items():
            if parameter.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{parameter.data.shape} vs {state[name].shape}")
            parameter.data[...] = state[name]

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        """Compute the module output; subclasses must override."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
