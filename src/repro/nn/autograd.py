"""Minimal reverse-mode automatic differentiation over numpy.

The Table 3 experiment needs trained transformer classifiers whose
attention layers can be swapped between float and SALO's fixed-point
datapath.  With no deep-learning framework available offline, this module
provides a small but complete tape-based autograd: a :class:`Tensor`
records the operations producing it; :meth:`Tensor.backward` topologically
sorts the tape and accumulates gradients.

Broadcasting follows numpy semantics; gradients of broadcast operands are
summed back to the operand's shape (:func:`_unbroadcast`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling tape recording (for evaluation loops)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


ArrayLike = Union[np.ndarray, float, int, "Tensor"]


class Tensor:
    """A numpy array with an optional gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (default seed: ones)."""
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor without grad")
        if grad is None:
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        seen: Set[int] = set()

        def visit(t: "Tensor") -> None:
            stack = [(t, False)]
            while stack:
                node, processed = stack.pop()
                if processed:
                    topo.append(node)
                    continue
                if id(node) in seen or not node.requires_grad:
                    continue
                seen.add(id(node))
                stack.append((node, True))
                for p in node._parents:
                    stack.append((p, False))

        visit(self)
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(x: ArrayLike) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other: ArrayLike) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        out_data = a.data + b.data

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad, b.shape))

        return Tensor._make(out_data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(-grad)

        return Tensor._make(-a.data, (a,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-Tensor._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor._coerce(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        out_data = a.data * b.data

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad * a.data, b.shape))

        return Tensor._make(out_data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        out_data = a.data / b.data

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad / b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-grad * a.data / (b.data**2), b.shape))

        return Tensor._make(out_data, (a, b), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        a = self
        out_data = a.data**exponent

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * exponent * a.data ** (exponent - 1))

        return Tensor._make(out_data, (a,), backward)

    # ------------------------------------------------------------------
    # Linear algebra and shaping
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        a, b = self, Tensor._coerce(other)
        out_data = a.data @ b.data

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                ga = grad @ np.swapaxes(b.data, -1, -2)
                a._accumulate(_unbroadcast(ga, a.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ grad
                b._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._make(out_data, (a, b), backward)

    __matmul__ = matmul

    def transpose(self, axis1: int = -2, axis2: int = -1) -> "Tensor":
        a = self
        out_data = np.swapaxes(a.data, axis1, axis2)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(np.swapaxes(grad, axis1, axis2))

        return Tensor._make(out_data, (a,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        a = self
        out_data = a.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad.reshape(a.shape))

        return Tensor._make(out_data, (a,), backward)

    def __getitem__(self, idx) -> "Tensor":
        a = self
        out_data = a.data[idx]

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                full = np.zeros_like(a.data)
                np.add.at(full, idx, grad)
                a._accumulate(full)

        return Tensor._make(out_data, (a,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not a.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape).copy())

        return Tensor._make(out_data, (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        count = a.size if axis is None else a.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not a.requires_grad:
                return
            expanded = out_data if keepdims else np.expand_dims(out_data, axis)
            mask = a.data == expanded
            counts = mask.sum(axis=axis, keepdims=True)
            g = grad if keepdims else np.expand_dims(grad, axis)
            a._accumulate(mask * g / counts)

        return Tensor._make(out_data, (a,), backward)

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * out_data)

        return Tensor._make(out_data, (a,), backward)

    def log(self) -> "Tensor":
        a = self
        out_data = np.log(a.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad / a.data)

        return Tensor._make(out_data, (a,), backward)

    def relu(self) -> "Tensor":
        a = self
        out_data = np.maximum(a.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * (a.data > 0))

        return Tensor._make(out_data, (a,), backward)

    def gelu(self) -> "Tensor":
        """Tanh-approximation GELU (as used by BERT/Longformer)."""
        a = self
        c = np.sqrt(2.0 / np.pi)
        inner = c * (a.data + 0.044715 * a.data**3)
        t = np.tanh(inner)
        out_data = 0.5 * a.data * (1.0 + t)

        def backward(grad: np.ndarray) -> None:
            if not a.requires_grad:
                return
            dinner = c * (1.0 + 3 * 0.044715 * a.data**2)
            da = 0.5 * (1.0 + t) + 0.5 * a.data * (1.0 - t**2) * dinner
            a._accumulate(grad * da)

        return Tensor._make(out_data, (a,), backward)

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.tanh(a.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (a,), backward)

    # ------------------------------------------------------------------
    # Composite ops used by attention
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True).detach()
        e = shifted.exp()
        return e / e.sum(axis=axis, keepdims=True)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Set positions where ``mask`` is True to ``value`` (no grad there)."""
        a = self
        mask = np.asarray(mask, dtype=bool)
        out_data = np.where(mask, value, a.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(np.where(mask, 0.0, grad))

        return Tensor._make(out_data, (a,), backward)

    def fake_quant(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Tensor":
        """Forward value ``fn(data)``, identity gradient (straight-through).

        ``fn`` may ignore its argument: the quantised attention passes the
        SALO engine's output this way, keeping the float graph's gradient.
        """
        a = self
        out_data = fn(a.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad)

        return Tensor._make(out_data, (a,), backward)

    def clamp(self, lo: float, hi: float) -> "Tensor":
        """Clip to ``[lo, hi]``; gradient is zero outside the range."""
        a = self
        out_data = np.clip(a.data, lo, hi)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                inside = (a.data >= lo) & (a.data <= hi)
                a._accumulate(grad * inside)

        return Tensor._make(out_data, (a,), backward)
