"""A small reverse-mode automatic differentiation engine on top of numpy.

This module is the foundational substrate of the reproduction: the paper's
system (GRIMP) is built on PyTorch, which is not available in this
environment, so we implement the required subset of a deep-learning
framework from scratch.  :class:`Tensor` wraps a ``numpy.ndarray`` and
records the operations applied to it; calling :meth:`Tensor.backward` on a
scalar result propagates gradients to every tensor created with
``requires_grad=True``.

The engine supports full numpy-style broadcasting.  Gradients of broadcast
operands are reduced back to the operand's original shape (the standard
"unbroadcast" rule), which is verified by the numeric gradient checker in
:mod:`repro.tensor.gradcheck`.
"""

from __future__ import annotations

import numpy as np

from ..analysis.anomaly import ANOMALY as _ANOMALY
from ..analysis.anomaly import check_array as _anomaly_check
from ..telemetry.registry import TENSOR_OPS as _TENSOR_OPS

__all__ = ["Tensor", "no_grad", "is_grad_enabled",
           "get_default_dtype", "set_default_dtype", "default_dtype"]

_GRAD_ENABLED = True

#: Floating dtypes the engine supports.  float64 remains the global
#: default (bit-compatible with the original engine); training code opts
#: into float32 per model via :class:`~repro.core.GrimpConfig`.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))  # repro: noqa[RPR001] -- the engine's dtype registry must name float64

_DEFAULT_DTYPE = np.dtype(np.float64)  # repro: noqa[RPR001] -- bit-compatibility default; training opts into float32 per config


def get_default_dtype() -> np.dtype:
    """Dtype used when coercing non-float data into tensors."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    """Set the global coercion dtype (``float32`` or ``float64``)."""
    resolved = np.dtype(dtype)
    if resolved not in SUPPORTED_DTYPES:
        raise ValueError(f"unsupported tensor dtype {dtype!r}; "
                         f"choose float32 or float64")
    global _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolved


class default_dtype:
    """Context manager that temporarily changes the default dtype.

    >>> with default_dtype(np.float32):
    ...     t = Tensor([1.0, 2.0])   # float32 storage
    """

    def __init__(self, dtype):
        self._dtype = dtype

    def __enter__(self):
        self._previous = _DEFAULT_DTYPE
        set_default_dtype(self._dtype)
        return self

    def __exit__(self, exc_type, exc, tb):
        set_default_dtype(self._previous)
        return False


class no_grad:
    """Context manager that disables gradient recording.

    Inside a ``with no_grad():`` block, operations on tensors do not build
    the autograd graph, which makes pure inference cheaper.
    """

    def __enter__(self):
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous
        return False


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    When an operand of shape ``shape`` was broadcast to the shape of
    ``grad`` in the forward pass, the chain rule requires summing the
    incoming gradient over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _product(a: np.ndarray, b) -> np.ndarray:
    """``a * b`` in ``a``'s shape and dtype.

    Backward-closure invariant: ``a`` is the output gradient, which
    already has the broadcast result shape.  The ``out`` buffer keeps
    ``a``'s dtype where numpy 2 (NEP 50) would promote, e.g. for a
    float64 scalar ``b``; mixed float precision arrays fall back to
    numpy's own promotion.
    """
    if isinstance(b, np.ndarray) and b.dtype != a.dtype \
            and b.dtype.kind != "b":
        return a * b
    return np.multiply(a, b, out=np.empty(a.shape, dtype=a.dtype))


def _quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a / b`` in ``a``'s shape and dtype (see `_product`)."""
    if b.dtype != a.dtype:
        return a / b
    return np.divide(a, b, out=np.empty(a.shape, dtype=a.dtype))


def _negative(a: np.ndarray) -> np.ndarray:
    """``-a`` in ``a``'s shape and dtype."""
    return np.negative(a, out=np.empty(a.shape, dtype=a.dtype))


def _as_array(value, dtype=None) -> np.ndarray:
    if dtype is not None:
        resolved = np.dtype(dtype)
        if resolved not in SUPPORTED_DTYPES:
            raise ValueError(f"unsupported tensor dtype {dtype!r}; "
                             f"choose float32 or float64")
        return np.asarray(value, dtype=resolved)
    if isinstance(value, np.ndarray):
        # Floating arrays keep their precision; everything else is
        # coerced to the configured default.
        if value.dtype in SUPPORTED_DTYPES:
            return value
        return value.astype(_DEFAULT_DTYPE)
    return np.asarray(value, dtype=_DEFAULT_DTYPE)


class Tensor:
    """A numpy-backed array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a floating numpy array.  Floating input
        arrays keep their precision (``float32`` stays ``float32``);
        other inputs are coerced to the default dtype
        (:func:`get_default_dtype`, ``float64`` unless changed).
    requires_grad:
        If true, gradients accumulate into :attr:`grad` during
        :meth:`backward`.
    dtype:
        Explicit storage dtype (``float32`` or ``float64``) overriding
        the coercion rules above.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype=dtype)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        self.op = "leaf"

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Return a tensor of zeros in the default dtype."""
        return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE),
                      requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Return a tensor of ones in the default dtype."""
        return Tensor(np.ones(shape, dtype=_DEFAULT_DTYPE),
                      requires_grad=requires_grad)

    @staticmethod
    def randn(*shape: int, rng: np.random.Generator | None = None,
              scale: float = 1.0, requires_grad: bool = False) -> "Tensor":
        """Return a tensor of normal samples, optionally scaled."""
        rng = rng if rng is not None else np.random.default_rng()  # repro: noqa[RPR005] -- documented seedable fallback; callers pass rng
        return Tensor(rng.standard_normal(shape,
                                          dtype=_DEFAULT_DTYPE) * scale,
                      requires_grad=requires_grad)

    @staticmethod
    def ensure(value) -> "Tensor":
        """Coerce ``value`` to a :class:`Tensor` (no-op if already one)."""
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)  # repro: noqa[RPR002] -- detach() IS the sanctioned graph cut

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the underlying array."""
        return self.data.dtype

    def astype(self, dtype) -> "Tensor":
        """Return a detached copy of this tensor in the given dtype."""
        return Tensor(self.data.astype(np.dtype(dtype), copy=True),
                      requires_grad=self.requires_grad)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...],
              backward, op: str) -> "Tensor":
        out = Tensor(data)
        # Telemetry op/byte dispatch counters.  This is the hottest line
        # in the repository, so the disabled path must stay one attribute
        # load and a branch (see repro.telemetry.registry.OpCounters).
        if _TENSOR_OPS.enabled:
            _TENSOR_OPS.record(op, out.data.nbytes)
        # Opt-in NaN/Inf sanitizer (repro.analysis.anomaly): same
        # one-attribute-load contract as the op counters when disabled.
        if _ANOMALY.enabled:
            _anomaly_check(out.data, op, "forward")
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
            out.op = op
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        if self.grad is None:
            # ``owned`` marks gradients freshly allocated by the calling
            # backward closure (products, reductions) that nothing else
            # references: the first accumulation takes the array itself
            # instead of copying it.  Views of the incoming gradient or
            # of forward data must NOT be donated.
            if owned and grad.shape == self.data.shape and \
                    grad.dtype == self.data.dtype:
                self.grad = grad
                return
            # Otherwise copy into a buffer of the tensor's own dtype:
            # mixed-precision gradients are cast back down here, and
            # broadcasting views (e.g. from ``sum``'s backward)
            # materialize.
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, grad)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Incoming gradient; defaults to ``1.0`` which requires this
            tensor to be a scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)

        # Topological order via iterative DFS (avoids recursion limits on
        # deep graphs such as unrolled training loops).
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        sanitize = _ANOMALY.enabled
        if sanitize:
            _anomaly_check(self.grad, self.op, "backward")
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            parents = node._parents
            node._backward(node.grad)
            if sanitize:
                # Attribute the first bad gradient to the op whose
                # backward closure just wrote it.
                for parent in parents:
                    if parent.grad is not None:
                        _anomaly_check(parent.grad, node.op, "backward")
            # Free intermediate gradients/graph to bound memory use.
            node._backward = None
            node._parents = ()

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        # Python scalars stay *weak* (NEP 50): adding 1.0 to a float32
        # tensor must not promote it to float64, which wrapping the
        # scalar in a 0-d Tensor would do.  float() also demotes
        # np.float64 scalars (which subclass float but are "strong").
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            other = float(other)
            out_data = self.data + other

            def backward(grad):
                self._accumulate(grad)

            return self._make(out_data, (self,), backward, "add")
        other = Tensor.ensure(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                g = _unbroadcast(grad, self.shape)
                self._accumulate(g, owned=g is not grad)
            if other.requires_grad:
                g = _unbroadcast(grad, other.shape)
                other._accumulate(g, owned=g is not grad)

        return self._make(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            self._accumulate(_negative(grad), owned=True)

        return self._make(-self.data, (self,), backward, "neg")

    def __sub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            return self + (-other)
        return self + (-Tensor.ensure(other))

    def __rsub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            return (-self) + other
        return Tensor.ensure(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            other = float(other)
            out_data = self.data * other

            def backward(grad):
                self._accumulate(_product(grad, other), owned=True)

            return self._make(out_data, (self,), backward, "mul")
        other = Tensor.ensure(other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(_product(grad, other.data), self.shape),
                    owned=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(_product(grad, self.data), other.shape),
                    owned=True)

        return self._make(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            return self * (1.0 / other)
        other = Tensor.ensure(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(_quotient(grad, other.data), self.shape),
                    owned=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2),
                                 other.shape), owned=True)

        return self._make(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            other = float(other)
            out_data = other / self.data

            def backward(grad):
                scratch = _negative(grad)
                np.multiply(scratch, out_data, out=scratch)
                np.divide(scratch, self.data, out=scratch)
                self._accumulate(scratch, owned=True)

            return self._make(out_data, (self,), backward, "div")
        return Tensor.ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        exponent = float(exponent)
        out_data = self.data ** exponent

        def backward(grad):
            # Same operation sequence as the allocating expression
            # ``grad * exponent * self.data ** (exponent - 1)``.
            scaled = _product(grad, exponent)
            powered = np.power(self.data, exponent - 1,
                               out=np.empty(self.data.shape,
                                            dtype=self.data.dtype))
            np.multiply(scaled, powered, out=scaled)
            self._accumulate(scaled, owned=True)

        return self._make(out_data, (self,), backward, "pow")

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)

        def backward(grad):
            self._accumulate(_product(grad, out_data), owned=True)

        return self._make(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out_data = np.log(self.data)

        def backward(grad):
            self._accumulate(_quotient(grad, self.data), owned=True)

        return self._make(out_data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return self ** 0.5

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient 0 at zero)."""
        out_data = np.abs(self.data)

        def backward(grad):
            signs = np.sign(self.data, out=np.empty(self.data.shape,
                                                    dtype=self.data.dtype))
            np.multiply(grad, signs, out=signs)
            self._accumulate(signs, owned=True)

        return self._make(out_data, (self,), backward, "abs")

    def relu(self) -> "Tensor":
        """Rectified linear unit."""
        mask = self.data > 0
        out_data = np.multiply(self.data, mask,
                               out=np.empty(self.data.shape,
                                            dtype=self.data.dtype))

        def backward(grad):
            self._accumulate(_product(grad, mask), owned=True)

        return self._make(out_data, (self,), backward, "relu")

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        """Leaky rectified linear unit."""
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope).astype(self.data.dtype,
                                                           copy=False)
        out_data = self.data * scale

        def backward(grad):
            self._accumulate(_product(grad, scale), owned=True)

        return self._make(out_data, (self,), backward, "leaky_relu")

    def tanh(self) -> "Tensor":
        """Hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(grad):
            # ``grad * (1.0 - out_data ** 2)`` in one temporary.
            scratch = np.power(out_data, 2, out=np.empty(out_data.shape,
                                                         dtype=out_data.dtype))
            np.subtract(1.0, scratch, out=scratch)
            np.multiply(grad, scratch, out=scratch)
            self._accumulate(scratch, owned=True)

        return self._make(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        """Logistic sigmoid, computed in a numerically stable way."""
        out_data = np.where(self.data >= 0,
                            1.0 / (1.0 + np.exp(-np.clip(self.data, -500, None))),
                            np.exp(np.clip(self.data, None, 500))
                            / (1.0 + np.exp(np.clip(self.data, None, 500))))

        def backward(grad):
            # ``grad * out_data * (1.0 - out_data)`` in two temporaries.
            left = _product(grad, out_data)
            right = np.subtract(1.0, out_data,
                                out=np.empty(out_data.shape,
                                             dtype=out_data.dtype))
            np.multiply(left, right, out=left)
            self._accumulate(left, owned=True)

        return self._make(out_data, (self,), backward, "sigmoid")

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]`` (zero gradient outside)."""
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(grad):
            self._accumulate(_product(grad, mask), owned=True)

        return self._make(out_data, (self,), backward, "clip")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over the given axis (or all elements)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            # Pass the broadcast view directly: the copy path and the
            # in-place += both broadcast, so no materialization here.
            self._accumulate(np.broadcast_to(g, self.shape))

        return self._make(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over the given axis (or all elements)."""
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over the given axis; gradient flows to the argmax."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                out = np.expand_dims(out_data, axis)
            mask = (self.data == out).astype(self.data.dtype)
            # Split gradient equally among ties to keep backward well defined.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None \
                else mask.sum()
            self._accumulate(mask * g / counts, owned=True)

        return self._make(out_data, (self,), backward, "max")

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Return a reshaped view of the tensor."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad):
            self._accumulate(grad.reshape(original))

        return self._make(out_data, (self,), backward, "reshape")

    def transpose(self, *axes: int) -> "Tensor":
        """Permute dimensions; with no arguments reverses them."""
        order = axes if axes else tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(order)
        inverse = np.argsort(order)

        def backward(grad):
            self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward, "transpose")

    @property
    def T(self) -> "Tensor":
        """Transpose of a 2-D tensor."""
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad):
            full = np.zeros(self.data.shape, dtype=self.data.dtype)
            np.add.at(full, index, grad)
            self._accumulate(full, owned=True)

        return self._make(out_data, (self,), backward, "getitem")

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other) -> "Tensor":
        """Matrix product supporting batched operands (numpy ``@`` rules)."""
        other = Tensor.ensure(other)
        out_data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                if other.data.ndim == 1:
                    g = np.multiply.outer(grad, other.data) if grad.ndim else \
                        grad * other.data
                    self._accumulate(_unbroadcast(np.atleast_2d(g).reshape(self.shape)
                                                  if g.shape != self.shape else g,
                                                  self.shape), owned=True)
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(g, self.shape), owned=True)
            if other.requires_grad:
                if self.data.ndim == 1:
                    g = np.multiply.outer(self.data, grad)
                    other._accumulate(_unbroadcast(g.reshape(other.shape)
                                                   if g.shape != other.shape else g,
                                                   other.shape), owned=True)
                elif other.data.ndim == 1:
                    # (..., k) @ (k,) — flatten the batch dimensions so
                    # the vector gradient is a single gemv.
                    g = self.data.reshape(-1, self.data.shape[-1]).T \
                        @ np.asarray(grad).reshape(-1)
                    other._accumulate(g, owned=True)
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(g, other.shape), owned=True)

        return self._make(out_data, (self, other), backward, "matmul")

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [Tensor.ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    template = tensors[0]
    return template._make(out_data, tuple(tensors), backward, "concat")


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [Tensor.ensure(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    template = tensors[0]
    return template._make(out_data, tuple(tensors), backward, "stack")
