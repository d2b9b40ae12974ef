"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A test-only oracle: the package computes its gradients with hand-derived
reverse passes, and the tests check those against this generic tape (and
against finite differences).  Operations build a dynamic graph of
:class:`Tensor` nodes; :func:`backward` walks it once in reverse
topological order, accumulating exact gradients.  The op set covers
elementwise arithmetic with broadcasting, matmul, relu, exp/log,
reductions, log-sum-exp, and row gather/scatter.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_vjp")

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp  # maps the output gradient to per-parent gradients

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    # arithmetic sugar; raw arrays and scalars are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")
    return Tensor(
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


def transpose(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.data.T, (a,), lambda g: (g.T,))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    return Tensor(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0  # subgradient at 0 is 0
    return Tensor(a.data * mask, (a,), lambda g: (g * mask,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)
    return Tensor(out_data, (a,), lambda g: (g * out_data,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.log(a.data), (a,), lambda g: (g / a.data,))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    shape = a.data.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def logsumexp(a, axis: int, keepdims: bool = False) -> Tensor:
    """Max-shifted log-sum-exp; the shift is constant, which leaves the
    softmax gradient exact because log-sum-exp is shift-covariant."""
    a = as_tensor(a)
    shift = np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(a.data - shift)
    total = e.sum(axis=axis, keepdims=True)
    out_data = shift + np.log(total)
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)
    softmax = e / total

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        return (gg * softmax,)

    return Tensor(out_data, (a,), vjp)


def take_rows(a, indices: np.ndarray) -> Tensor:
    """Gather rows; repeated indices accumulate on the way back."""
    a = as_tensor(a)
    indices = np.asarray(indices, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(a.data)
        np.add.at(out, indices, g)
        return (out,)

    return Tensor(a.data[indices], (a,), vjp)


def scatter_rows(a, indices: np.ndarray, num_rows: int) -> Tensor:
    """Place rows of ``a`` at ``indices`` in an otherwise-zero matrix."""
    a = as_tensor(a)
    indices = np.asarray(indices, dtype=np.intp)
    out_data = np.zeros((num_rows,) + a.data.shape[1:], dtype=np.float64)
    np.add.at(out_data, indices, a.data)
    return Tensor(out_data, (a,), lambda g: (g[indices],))


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def backward(root: Tensor) -> None:
    """Accumulate gradients of a scalar ``root`` into every ancestor's ``.grad``."""
    if root.data.size != 1:
        raise ValueError("backward requires a scalar root")
    order = _topo_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._vjp is None or node.grad is None:
            continue
        for parent, grad in zip(node._parents, node._vjp(node.grad)):
            if parent.grad is None:
                parent.grad = grad.copy() if grad.base is not None else grad
            else:
                parent.grad = parent.grad + grad
