"""Finite-difference gradient checking for the autodiff engine.

``finite_diff_check(loss_fn, point, step)`` perturbs one coordinate of
``point`` at a time by h = ``step`` and forms the two one-sided difference
quotients of the loss f,

    right = (f(x + h) - f(x)) / h        left = (f(x) - f(x - h)) / h.

Where f is differentiable they agree up to O(h) times its curvature.  At
a kink (relu at its hinge, |t| at 0) they differ by the jump in slope, and
there the engine's gradient of 0 is a convention, not a derivative.  So
when |right - left| > 1e-3 * max(1, |right|, |left|) for any coordinate
the check raises ``HingeKinkError``; callers perturb the point and retry.
Otherwise it returns the max over all coordinates of
|analytic - numeric| / max(1, |numeric|), with the central quotient
numeric = (f(x + h) - f(x - h)) / (2h).
"""

from __future__ import annotations

import numpy as np

from tricenter.autodiff import Tensor, no_grad
from tricenter.errors import ContractError

KINK_RTOL = 1e-3


class HingeKinkError(RuntimeError):
    """A gradient check was attempted at (or within a step of) a kink."""


def finite_diff_check(loss_fn, point, step: float = 1e-5) -> float:
    """Compare analytic gradients of ``loss_fn`` against finite differences.

    ``point`` is a sequence of numpy arrays; ``loss_fn`` receives one Tensor
    per array and must return a scalar Tensor.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in point]
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = loss_fn(*leaves)
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ContractError("loss_fn must return a scalar Tensor")
    loss.backward()
    here = loss.item()

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
            right, left = (up - here) / step, (here - down) / step
            if abs(right - left) > KINK_RTOL * max(1.0, abs(right), abs(left)):
                raise HingeKinkError(f"kink at coordinate {j} of operand {i}: one-sided "
                                     f"slopes {left:.6g} and {right:.6g}; perturb the point")
            numeric = (up - down) / (2.0 * step)
            err = abs(analytic.reshape(-1)[j] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
