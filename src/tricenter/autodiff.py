"""Dense-tensor reverse-mode automatic differentiation on top of numpy.

A Tensor wraps a float64 ndarray (row-major) and records, for each derived
value, its parent tensors and a vector-Jacobian-product closure.  Calling
``backward()`` on a scalar propagates gradients to every tensor in the graph
that requires them.  Gradients accumulate across repeated backward calls
until the caller resets ``grad`` to None.

Three fused ops cover the hot subgraphs of training, each as one graph
node: ``affine`` (the dense layer ``x @ W + b``), ``lp_dist`` (the
Euclidean distance over the last axis) and ``log_softmax_pick`` (the row-wise
log-softmax at the true class).  Each VJP replays, operation for operation
and in the same order, the float arithmetic of the backward pass of the
elementary-op chain it replaces, and each fused node lists its parents in
the order that chain reaches them, so gradients accumulate in the same
order and training stays bit for bit what the chain gave.  VJPs compute no
gradient for a parent with ``requires_grad=False``.

Where an op is not differentiable its gradient is defined as 0: relu at
0, ``lp_dist`` at a distance of 0, and ``pow`` with an exponent below 1
at 0.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError

_grad_enabled = True


class no_grad:
    """Context manager that disables graph construction (faster inference)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _unbroadcast(grad, shape):
    """Sum `grad` back down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
        if grad.shape == shape:
            return grad
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _lift(x):
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))

    @classmethod
    def _from_op(cls, data, parents, vjp):
        out = cls(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
        return out

    # -- basic protocol --------------------------------------------------------

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        a, b = self, other

        def vjp(g):
            return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                    _unbroadcast(g, b.data.shape) if b.requires_grad else None)

        return Tensor._from_op(a.data + b.data, (a, b), vjp)

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor._from_op(-a.data, (a,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        a, b = self, other

        def vjp(g):
            return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                    _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

        return Tensor._from_op(a.data * b.data, (a, b), vjp)

    __rmul__ = __mul__

    def affine(self, weight, bias) -> "Tensor":
        """The dense layer ``self @ weight + bias`` as one node.

        ``self`` is [B, n], ``weight`` [n, m] and ``bias`` broadcasts against
        [B, m].  The VJP is that of the matmul node followed by the add node.
        """
        x, w, b = self, self._lift(weight), self._lift(bias)
        if x.data.ndim != 2 or w.data.ndim != 2:
            raise ShapeError("matmul expects 2-D operands")
        if x.data.shape[1] != w.data.shape[0]:
            raise ShapeError(f"matmul shapes {x.data.shape} x {w.data.shape} are incompatible")

        def vjp(g):
            return (g @ w.data.T if x.requires_grad else None,
                    x.data.T @ g if w.requires_grad else None,
                    _unbroadcast(g, b.data.shape) if b.requires_grad else None)

        return Tensor._from_op(x.data @ w.data + b.data, (x, w, b), vjp)

    def pow(self, p: float) -> "Tensor":
        """Elementwise power with a constant exponent.

        For p < 1 the derivative is unbounded at 0; the gradient there is
        defined as 0.
        """
        a = self
        p = float(p)
        data = np.power(a.data, p)

        def vjp(g):
            with np.errstate(divide="ignore", invalid="ignore"):
                d = p * np.power(a.data, p - 1.0)
            d = np.where(np.isfinite(d), d, 0.0)
            return (g * d,)

        return Tensor._from_op(data, (a,), vjp)

    def lp_dist(self, other) -> "Tensor":
        """Euclidean distance (sum (x - y)^2)^(1/2) along the last axis.

        One node for the chain x + (-y), |.|^2, sum over the last axis,
        ^(1/2).  At a distance of 0 the gradient is defined as 0.
        """
        x, y = self, self._lift(other)
        if x.data.shape != y.data.shape or x.data.ndim == 0:
            raise ShapeError(f"distance operands must share a shape with at least one axis, "
                             f"got {x.data.shape} vs {y.data.shape}")
        diff = x.data + (-y.data)
        mag = np.abs(diff)
        s = np.power(mag, 2.0).sum(axis=-1)

        def vjp(g):
            with np.errstate(divide="ignore", invalid="ignore"):
                d = 0.5 * np.power(s, -0.5)
            g = g * np.where(np.isfinite(d), d, 0.0)
            g_diff = g[..., None] * (2.0 * mag) * np.sign(diff)
            return (g_diff if x.requires_grad else None,
                    -g_diff if y.requires_grad else None)

        return Tensor._from_op(np.power(s, 0.5), (x, y), vjp)

    def log_softmax_pick(self, labels) -> "Tensor":
        """log softmax(row)[label] for each row of [B, K] logits; returns shape [B].

        One node for the chain: subtract the row max (a constant, so no
        gradient flows through it), subtract the log-sum-exp, multiply by
        the one-hot labels, sum each row.
        """
        a = self
        if a.data.ndim != 2:
            raise ShapeError(f"expected [B, K] logits, got shape {a.data.shape}")
        b, k = a.data.shape
        if b == 0:
            raise ContractError("empty logit batch")
        labels = np.asarray(labels, dtype=np.intp)
        if labels.shape != (b,):
            raise ShapeError(f"labels must have shape ({b},), got {labels.shape}")
        if labels.min() < 0 or labels.max() >= k:
            raise ContractError("label out of range")
        onehot = np.zeros((b, k))
        onehot[np.arange(b), labels] = 1.0
        shifted = a.data + (-a.data.max(axis=1, keepdims=True))
        e = np.exp(shifted)
        s = e.sum(axis=1, keepdims=True)
        log_probs = shifted + (-np.log(s))

        def vjp(g):
            g_pick = g[:, None] * onehot
            g_lse = -_unbroadcast(g_pick, s.shape)
            return (g_pick + (g_lse / s) * e,)

        return Tensor._from_op((log_probs * onehot).sum(axis=1), (a,), vjp)

    def relu(self) -> "Tensor":
        a = self
        return Tensor._from_op(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0.0),))

    def exp(self) -> "Tensor":
        a = self
        data = np.exp(a.data)
        return Tensor._from_op(data, (a,), lambda g: (g * data,))

    def tanh(self) -> "Tensor":
        a = self
        data = np.tanh(a.data)
        return Tensor._from_op(data, (a,), lambda g: (g * (1.0 - data * data),))

    # -- reductions and indexing -------------------------------------------------

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        a = self

        def vjp(g):
            out = np.empty(a.data.shape)
            out[...] = g if keepdims or axis is None else np.expand_dims(g, axis)
            return (out,)

        return Tensor._from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)

    def mean(self, axis=None) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        if n == 0:
            raise ContractError("mean over an empty axis")
        return self.sum(axis=axis) * (1.0 / n)

    def take(self, indices) -> "Tensor":
        """Select rows (axis 0) by index in [0, n); the VJP sums duplicates in index order."""
        a = self
        idx = np.asarray(indices, dtype=np.intp)
        n = a.data.shape[0]
        width = a.data.size // max(n, 1)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ContractError(f"take index out of range for {n} rows")

        def vjp(g):  # np.add.at's sums into zeros, in its order; an empty bincount is int
            out = np.bincount((idx.reshape(-1, 1) * width + np.arange(width)).ravel(),
                              weights=g.ravel(), minlength=n * width)
            return (out.astype(np.float64, copy=False).reshape(a.data.shape),)

        return Tensor._from_op(a.data.take(idx, axis=0), (a,), vjp)

    # -- backward ----------------------------------------------------------------

    def _toposort(self):
        order, visited, stack = [], set(), [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))
        return order  # parents before children

    def backward(self):
        """Accumulate d(self)/d(x) into x.grad for every tensor requiring grad."""
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            raise ContractError("backward() on a tensor with no graph attached")
        order = self._toposort()
        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is not None:
                for parent, pg in zip(node._parents, node._vjp(g)):
                    if not parent.requires_grad:
                        continue
                    key = id(parent)
                    grads[key] = grads[key] + pg if key in grads else pg
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
