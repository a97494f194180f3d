"""First-order optimizers for training the reproduction's models."""

from __future__ import annotations

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer over a list of parameters."""

    def __init__(self, parameters: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        """Reset gradients of all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """Apply one update; subclasses must override."""
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most
        ``max_norm``; returns the pre-clip norm."""
        total = 0.0
        for parameter in self.parameters:
            grad = parameter.grad
            if grad is None:
                continue
            total += float(np.sum(grad ** 2))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for parameter in self.parameters:
                if parameter.grad is not None:
                    parameter.grad *= scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: list[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for parameter, velocity in zip(self.parameters, self._velocity):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            parameter.data -= self.lr * grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba), the workhorse for GRIMP training."""

    def __init__(self, parameters: list[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first_moment = [np.zeros_like(p.data) for p in self.parameters]
        self._second_moment = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        correction1 = 1.0 - self.beta1 ** self._step_count
        correction2 = 1.0 - self.beta2 ** self._step_count
        # Scale factors are folded into as few full-array passes as
        # possible; the update allocates two temporaries instead of six.
        step_scale = self.lr / correction1
        denom_scale = 1.0 / np.sqrt(correction2)
        for parameter, m, v in zip(self.parameters, self._first_moment,
                                   self._second_moment):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(grad)
            denominator = np.sqrt(v)
            denominator *= denom_scale
            denominator += self.eps
            update = np.divide(m, denominator, out=denominator)
            update *= step_scale
            parameter.data -= update
