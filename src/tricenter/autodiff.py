"""Dense-tensor reverse-mode automatic differentiation on top of numpy.

A Tensor wraps a float64 ndarray (row-major) and records, for each derived
value, its parent tensors and a vector-Jacobian-product closure.  Calling
``backward()`` on a scalar propagates gradients to every tensor in the graph
that requires them.  Gradients accumulate across repeated backward calls
until ``zero_grad`` resets them.

Three fused ops cover the hot subgraphs of training, each as one graph
node: ``affine`` (the dense layer ``x @ W + b``), ``lp_dist`` (the L_p
distance over the last axis) and ``log_softmax_pick`` (the row-wise
log-softmax at the true class).  Each VJP replays, operation for operation
and in the same order, the float arithmetic of the backward pass of the
elementary-op chain it replaces, and each fused node lists its parents in
the order that chain reaches them, so gradients accumulate in the same
order and training stays bit for bit what the chain gave.  VJPs compute no
gradient for a parent with ``requires_grad=False``.

Hinge-style ops (relu, fractional powers) define their gradient as 0
at the kink; ``finite_diff_check`` refuses to certify gradients at points
too close to such kinks and raises HingeKinkError instead.  ``lp_dist``
flags what its chain flagged: for p = 1 every zero coordinate of x - y (the
kink of |t|), for p > 1 only a distance of 0 (the kink of the 1/p power;
|t|^p is smooth at 0 for p > 1).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, HingeKinkError, ShapeError

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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_op", "_kink_tol_fn")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None
        self._op = ""
        self._kink_tol_fn = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _lift(x):
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))

    @classmethod
    def _from_op(cls, data, parents, vjp, op=""):
        out = cls(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
            out._op = op
        return out

    # -- basic protocol --------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return self.data.item()

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        a, b = self, other

        def vjp(g):
            return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                    _unbroadcast(g, b.data.shape) if b.requires_grad else None)

        return Tensor._from_op(a.data + b.data, (a, b), vjp, "+")

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor._from_op(-a.data, (a,), lambda g: (-g,), "neg")

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

        return Tensor._from_op(a.data * b.data, (a, b), vjp, "*")

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return self * (1.0 / float(other))

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

        return Tensor._from_op(x.data @ w.data + b.data, (x, w, b), vjp, "affine")

    def pow(self, p: float) -> "Tensor":
        """Elementwise power with a constant exponent.

        For p < 1 the derivative is unbounded at 0; the gradient there is
        defined as 0 and the point is treated as a kink.
        """
        a = self
        p = float(p)
        data = np.power(a.data, p)

        def vjp(g):
            with np.errstate(divide="ignore", invalid="ignore"):
                d = p * np.power(a.data, p - 1.0)
            d = np.where(np.isfinite(d), d, 0.0)
            return (g * d,)

        out = Tensor._from_op(data, (a,), vjp, "pow")
        if p < 1.0 and p != 0.0:
            out._kink_tol_fn = lambda tol: bool(np.any(np.abs(a.data) < tol))
        return out

    def lp_dist(self, other, p: int) -> "Tensor":
        """L_p distance (sum |x - y|^p)^(1/p) along the last axis, for an integer p >= 1.

        One node for the chain x + (-y), |.|^p, sum over the last axis,
        ^(1/p).  The gradient is 0 where its chain defines it so: at a zero
        coordinate (sign 0) and, for p > 1, at a distance of 0.
        """
        x, y = self, self._lift(other)
        if x.data.shape != y.data.shape or x.data.ndim == 0:
            raise ShapeError(f"distance operands must share a shape with at least one axis, "
                             f"got {x.data.shape} vs {y.data.shape}")
        if int(p) < 1:
            raise ContractError(f"p_norm must be >= 1, got {p}")
        fp = float(int(p))
        q = 1.0 / fp
        diff = x.data + (-y.data)
        mag = np.abs(diff)
        s = np.power(mag, fp).sum(axis=-1)
        data = s if fp == 1.0 else np.power(s, q)

        def vjp(g):
            if fp != 1.0:
                with np.errstate(divide="ignore", invalid="ignore"):
                    d = q * np.power(s, q - 1.0)
                g = g * np.where(np.isfinite(d), d, 0.0)
            g_diff = g[..., None] * (fp * np.power(mag, fp - 1.0)) * np.sign(diff)
            return (g_diff if x.requires_grad else None,
                    -g_diff if y.requires_grad else None)

        out = Tensor._from_op(data, (x, y), vjp, "lp_dist")
        if fp == 1.0:
            out._kink_tol_fn = lambda tol: bool(np.any(mag < tol))
        else:
            out._kink_tol_fn = lambda tol: bool(np.any(np.abs(s) < tol))
        return out

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

        return Tensor._from_op((log_probs * onehot).sum(axis=1), (a,), vjp, "log_softmax_pick")

    def relu(self) -> "Tensor":
        a = self
        out = Tensor._from_op(np.maximum(a.data, 0.0), (a,),
                              lambda g: (g * (a.data > 0.0),), "relu")
        out._kink_tol_fn = lambda tol: bool(np.any(np.abs(a.data) < tol))
        return out

    def exp(self) -> "Tensor":
        a = self
        data = np.exp(a.data)
        return Tensor._from_op(data, (a,), lambda g: (g * data,), "exp")

    def log(self) -> "Tensor":
        a = self
        return Tensor._from_op(np.log(a.data), (a,), lambda g: (g / a.data,), "log")

    def tanh(self) -> "Tensor":
        a = self
        data = np.tanh(a.data)
        return Tensor._from_op(data, (a,), lambda g: (g * (1.0 - data * data),), "tanh")

    # -- reductions and indexing -------------------------------------------------

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        a = self

        def vjp(g):
            out = np.empty(a.data.shape)
            out[...] = g if keepdims or axis is None else np.expand_dims(g, axis)
            return (out,)

        return Tensor._from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp, "sum")

    def mean(self, axis=None) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        if n == 0:
            raise ContractError("mean over an empty axis")
        return self.sum(axis=axis) * (1.0 / n)

    def take(self, indices) -> "Tensor":
        """Select rows (axis 0) by integer index; duplicates allowed."""
        a = self
        idx = np.asarray(indices, dtype=np.intp)

        def vjp(g):
            out = np.zeros_like(a.data)
            np.add.at(out, idx, g)
            return (out,)

        return Tensor._from_op(a.data.take(idx, axis=0), (a,), vjp, "take")

    # -- backward ----------------------------------------------------------------

    def _toposort(self, grad_only: bool = False):
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
                if id(p) not in visited and (p.requires_grad or not grad_only):
                    stack.append((p, False))
        return order  # parents before children

    def backward(self):
        """Accumulate d(self)/d(x) into x.grad for every tensor requiring grad."""
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            raise ContractError("backward() on a tensor with no graph attached")
        order = self._toposort(grad_only=True)
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

    def graph_has_kink(self, tol: float) -> bool:
        """True when any hinge-style op in this graph was evaluated within tol of its kink.

        Walks constant nodes too: a hinge op on constants still flags.
        """
        for node in self._toposort():
            if node._kink_tol_fn is not None and node._kink_tol_fn(tol):
                return True
        return False


def finite_diff_check(loss_fn, point, step: float = 1e-5, kink_tol: float | None = None) -> float:
    """Compare analytic gradients of ``loss_fn`` against central finite differences.

    ``point`` is a sequence of numpy arrays; ``loss_fn`` receives one Tensor per
    array and must return a scalar Tensor.  Returns the max over all coordinates
    of |analytic - numeric| / max(1, |numeric|).  Raises HingeKinkError when the
    loss graph at ``point`` passes within ``kink_tol`` (default 100*step) of a
    nondifferentiable point; callers are expected to perturb and retry.
    """
    if kink_tol is None:
        kink_tol = 100.0 * step
    arrays = [np.asarray(a, dtype=np.float64) for a in point]
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = loss_fn(*leaves)
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ContractError("loss_fn must return a scalar Tensor")
    if loss.graph_has_kink(kink_tol):
        raise HingeKinkError("gradient check requested at a hinge kink; perturb the point")
    loss.backward()

    def value_at(mutated):
        with no_grad():
            return loss_fn(*[Tensor(a) for a in mutated]).item()

    worst = 0.0
    for i, a in enumerate(arrays):
        analytic = leaves[i].grad
        if analytic is None:
            analytic = np.zeros_like(a)
        flat = a.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = value_at(arrays)
            flat[j] = orig - step
            down = value_at(arrays)
            flat[j] = orig
            numeric = (up - down) / (2.0 * step)
            err = abs(analytic.reshape(-1)[j] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
