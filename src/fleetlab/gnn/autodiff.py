"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A `Tensor` wraps an ndarray and records the operation that produced it.
Calling `backward` on a scalar result walks the graph in reverse topological
order and accumulates exact gradients; gradients of named leaves come back as
a dict keyed by leaf name, which is how network parameters are addressed.

A node's backward function receives the node's gradient as an argument and
closes over its parents and the arrays it needs, never over the node itself,
so a graph holds no reference cycles and is freed as soon as its result is
dropped.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["Tensor", "segment_sum", "backward"]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the operand's original shape."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad


def _node(values, parents: tuple, bk: Callable[[np.ndarray], None]) -> "Tensor":
    """An operation's output; `bk` maps its gradient into the parents' gradients."""
    out = Tensor(values, parents)
    out._backward = bk
    return out


class Tensor:
    """Node in a scalar-rooted computation graph."""

    # keep numpy from intercepting mixed ndarray/Tensor arithmetic
    __array_ufunc__ = None
    __slots__ = ("values", "grad", "name", "_parents", "_backward", "__weakref__")

    def __init__(self, values, parents: tuple = (), name: str | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.name = name
        self._parents = parents
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += grad

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):

            def bk(g):
                self._accumulate(_unbroadcast(g, self.shape))
                other._accumulate(_unbroadcast(g, other.shape))

            return _node(self.values + other.values, (self, other), bk)
        return _node(
            self.values + np.asarray(other, dtype=np.float64),
            (self,),
            lambda g: self._accumulate(_unbroadcast(g, self.shape)),
        )

    __radd__ = __add__

    def __neg__(self):
        return _node(-self.values, (self,), lambda g: self._accumulate(-g))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Tensor) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Tensor):

            def bk(g):
                self._accumulate(_unbroadcast(g * other.values, self.shape))
                other._accumulate(_unbroadcast(g * self.values, other.shape))

            return _node(self.values * other.values, (self, other), bk)
        const = np.asarray(other, dtype=np.float64)
        return _node(
            self.values * const,
            (self,),
            lambda g: self._accumulate(_unbroadcast(g * const, self.shape)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return self * other ** (-1.0)
        return self * (1.0 / np.asarray(other, dtype=np.float64))

    def __pow__(self, exponent: float):
        p = float(exponent)
        return _node(
            self.values**p,
            (self,),
            lambda g: self._accumulate(g * p * self.values ** (p - 1.0)),
        )

    def __matmul__(self, other):
        if isinstance(other, Tensor):

            def bk(g):
                self._accumulate(g @ other.values.T)
                other._accumulate(self.values.T @ g)

            return _node(self.values @ other.values, (self, other), bk)
        const = np.asarray(other, dtype=np.float64)
        return _node(self.values @ const, (self,), lambda g: self._accumulate(g @ const.T))

    def __rmatmul__(self, other):
        const = np.asarray(other, dtype=np.float64)
        return _node(const @ self.values, (self,), lambda g: self._accumulate(const.T @ g))

    # -- shape and selection -------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _node(
            self.values.reshape(shape),
            (self,),
            lambda g: self._accumulate(g.reshape(self.shape)),
        )

    def __getitem__(self, index):
        """Gather along the first axis; repeated indices accumulate gradient."""
        idx = np.asarray(index, dtype=np.intp)
        values = self.values[idx]  # raises on an index out of range
        rows = self.shape[0]
        idx = np.where(idx < 0, idx + rows, idx)

        def bk(g):
            # one weighted bincount over (row, trailing entry) pairs sums every
            # repeated row at once, in input order
            width = int(np.prod(self.shape[1:], dtype=np.intp))
            flat = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
            summed = np.bincount(flat, weights=g.ravel(), minlength=rows * width)
            self._accumulate(summed.reshape(self.shape))

        return _node(values, (self,), bk)

    def sum(self, axis: int | None = None, keepdims: bool = False):
        def bk(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return _node(self.values.sum(axis=axis, keepdims=keepdims), (self,), bk)

    # -- nonlinearities -------------------------------------------------------

    def exp(self):
        e = np.exp(self.values)
        return _node(e, (self,), lambda g: self._accumulate(g * e))

    def relu(self):
        return _node(
            np.maximum(self.values, 0.0),
            (self,),
            lambda g: self._accumulate(g * (self.values > 0.0)),
        )

    def leaky_relu(self, slope: float = 0.2):
        return _node(
            np.where(self.values > 0.0, self.values, slope * self.values),
            (self,),
            lambda g: self._accumulate(g * np.where(self.values > 0.0, 1.0, slope)),
        )

    def sigmoid(self):
        v = self.values
        # evaluate on the side that keeps exp() from overflowing
        s = np.where(v >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(v))), np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
        s = np.maximum(s, np.finfo(np.float64).tiny)  # exp underflows below v = -745; stay > 0
        return _node(s, (self,), lambda g: self._accumulate(g * s * (1.0 - s)))


def segment_sum(x: Tensor, indptr: np.ndarray) -> Tensor:
    """Sum consecutive row blocks: row i is x[indptr[i]:indptr[i + 1]].sum(axis=0).

    Every segment must be non-empty. The gradient repeats each output row over
    its segment.
    """
    indptr = np.asarray(indptr, dtype=np.intp)
    counts = np.diff(indptr)
    if indptr[0] != 0 or indptr[-1] != x.shape[0] or (counts < 1).any():
        raise ValueError("segments must be non-empty and cover every row of x")
    return _node(
        np.add.reduceat(x.values, indptr[:-1], axis=0),
        (x,),
        lambda g: x._accumulate(np.repeat(g, counts, axis=0)),
    )


def _topological_order(root: Tensor) -> list[Tensor]:
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
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> dict[str, np.ndarray]:
    """Run reverse-mode differentiation from a scalar; return named-leaf gradients.

    Leaves constructed with a name (network parameters) are reported even when
    they did not influence the loss, in which case their gradient is zero.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _topological_order(loss)
    loss.grad = np.ones_like(loss.values)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
    grads: dict[str, np.ndarray] = {}
    for node in order:
        if node.name is not None:
            grads[node.name] = (
                node.grad if node.grad is not None else np.zeros_like(node.values)
            )
    return grads
