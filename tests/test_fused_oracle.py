"""The fused autodiff ops and the one-buffer Adam against what they replaced.

The functions below are the elementary-op chains that ``Tensor.affine``,
``Tensor.euclidean_dist`` and ``Tensor.log_softmax_pick`` fold into one node, and
the per-parameter Adam loop; ``matmul`` and ``abs_pow`` are the removed
``Tensor`` methods, and ``take_add_at`` is ``Tensor.take`` with the
``np.add.at`` VJP that its ``np.bincount`` VJP replaced, all kept verbatim;
``log`` comes from the scalar oracles.  A fused op must give the same value
and the same gradient for every operand, all bit for bit: gradients
accumulate into shared tensors in graph order, so a single reordered float
operation or parent would change seeded training runs.  Where the ops have
kinks, the numerical check of ``gradcheck`` must find them at the same
points.
"""

import itertools

import numpy as np
import pytest

from tricenter.autodiff import Tensor
from tricenter.centers import CenterTable
from tricenter.errors import ContractError, ShapeError
from tricenter.losses import (LossHyper, cross_entropy_mean, quadruplet_loss_mean,
                              triplet_loss_mean)
from tricenter.nn import BETA1, BETA2, EPSILON, Adam, FeatureExtractor, LinearHead

from gradcheck import HingeKinkError, finite_diff_check
from scalar_oracles import log


# -- reference oracles: the chains the fused ops replace -------------------------

def matmul(a, b):
    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return Tensor._from_op(a.data @ b.data, (a, b), vjp)


def abs_pow(a, p):
    p = float(p)
    mag = np.abs(a.data)

    def vjp(g):
        return (g * (p * np.power(mag, p - 1.0)) * np.sign(a.data),)

    return Tensor._from_op(np.power(mag, p), (a,), vjp)


def take_add_at(a, indices):
    """Select rows (axis 0) by integer index; duplicates allowed."""
    idx = np.asarray(indices, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    return Tensor._from_op(a.data.take(idx, axis=0), (a,), vjp)


def affine_chain(x, w, b):
    return matmul(x, w) + b


def euclidean_chain(x, y):
    diff = abs_pow(x - y, 2)
    s = diff.sum() if x.data.ndim == 1 else diff.sum(axis=1)
    return s.pow(0.5)


def log_softmax_pick_chain(logits, labels):
    shift = logits.data.max(axis=1, keepdims=True)
    shifted = logits - shift
    log_probs = shifted - log(shifted.exp().sum(axis=1, keepdims=True))
    b, k = logits.data.shape
    onehot = np.zeros((b, k))
    onehot[np.arange(b), labels] = 1.0
    return (log_probs * onehot).sum(axis=1)


class LoopAdam:
    """Adam with one moment pair per parameter, updated parameter by parameter."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - BETA1 ** t
        c2 = 1.0 - BETA2 ** t
        for i, p in enumerate(self.params):
            g = p.grad
            m = self.first_moment[i]
            v = self.second_moment[i]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data = p.data - self.lr * (m / c1) / (np.sqrt(v / c2) + EPSILON)


# -- helpers ------------------------------------------------------------------

def leaves(arrays, flags):
    return [Tensor(a.copy(), requires_grad=f) for a, f in zip(arrays, flags)]


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_grads(fused, chain):
    for f, c in zip(fused, chain):
        if c.grad is None:
            assert f.grad is None
        else:
            assert_same_bits(f.grad, c.grad)


def with_zeros(rng, shape):
    """Random values with exact zeros, ties and equal rows mixed in."""
    x = np.round(rng.normal(size=shape), 1)
    x.reshape(-1)[rng.random(x.size) < 0.15] = 0.0
    return x


GRAD_FLAGS2 = [(True, True), (True, False), (False, True)]
GRAD_FLAGS3 = [f for f in itertools.product((True, False), repeat=3) if any(f)]


# -- dense layer ----------------------------------------------------------------

@pytest.mark.parametrize("flags", GRAD_FLAGS3)
def test_affine_matches_matmul_add_chain(flags):
    rng = np.random.default_rng(1)
    arrays = [rng.normal(size=(9, 13)), rng.normal(size=(13, 6)), rng.normal(size=6)]
    weights = rng.normal(size=(9, 6))
    fused, chain = leaves(arrays, flags), leaves(arrays, flags)
    out_f = fused[0].affine(fused[1], fused[2])
    out_c = affine_chain(*chain)
    assert_same_bits(out_f.data, out_c.data)
    (out_f.tanh() * weights).sum().backward()
    (out_c.tanh() * weights).sum().backward()
    assert_same_grads(fused, chain)


def test_affine_keeps_the_matmul_shape_checks():
    x = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="incompatible"):
        x.affine(np.ones((4, 2)), np.zeros(2))
    with pytest.raises(ShapeError, match="2-D"):
        Tensor(np.ones(3)).affine(np.ones((3, 2)), np.zeros(2))


# -- Euclidean distance -------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("flags", GRAD_FLAGS2)
@pytest.mark.parametrize("shape", [(11, 7), (7,)])
def test_euclidean_dist_matches_chain(seed, flags, shape):
    rng = np.random.default_rng(seed)
    x = with_zeros(rng, shape)
    y = with_zeros(rng, shape)
    if len(shape) == 2:
        y[3] = x[3]  # a distance of exactly 0
    weights = rng.normal(size=shape[:-1])
    fused, chain = leaves([x, y], flags), leaves([x, y], flags)
    d_f = fused[0].euclidean_dist(fused[1])
    d_c = euclidean_chain(*chain)
    assert_same_bits(d_f.data, d_c.data)
    (d_f * weights).sum().backward()
    (d_c * weights).sum().backward()
    assert_same_grads(fused, chain)


def fused_and_chain_distance(y):
    """The summed distance to ``y``, once through ``euclidean_dist`` and once through its chain."""
    return (lambda x: x.euclidean_dist(y).sum(), lambda x: euclidean_chain(x, Tensor(y)).sum())


def test_euclidean_dist_kinks_at_zero_distance_not_at_a_zero_coordinate():
    x = np.array([[1.0, -2.0], [3.0, 4.0]])
    for loss_fn in fused_and_chain_distance(np.array([[1.0, -2.0], [0.0, 0.0]])):  # row 0 at d = 0
        with pytest.raises(HingeKinkError):
            finite_diff_check(loss_fn, [x])
    x = np.array([3.0, 1.0, -1.0])  # x - y = (2, 0, 0)
    for loss_fn in fused_and_chain_distance(np.array([1.0, 1.0, -1.0])):
        assert finite_diff_check(loss_fn, [x]) < 1e-8


def test_euclidean_dist_rejects_bad_operands():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))).euclidean_dist(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        Tensor(1.0).euclidean_dist(2.0)


# -- row gather ---------------------------------------------------------------

@pytest.mark.parametrize("shape, indices", [
    ((5, 3), [4, 0, 4, 4, 2, 0]),    # duplicates; rows 1 and 3 untouched
    ((6,), [5, 1, 1, 0]),            # a 1-D source
    ((4, 2, 3), [3, 3, 1]),          # trailing dims flattened into one width
    ((4, 3), []),                    # an empty index
    ((0, 3), []),                    # an empty source
], ids=["duplicates", "one_d", "three_d", "empty_index", "empty_source"])
def test_take_matches_the_add_at_vjp(shape, indices):
    rng = np.random.default_rng(len(indices) + len(shape))
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    fused, chain = x.take(indices), take_add_at(x, indices)
    assert_same_bits(fused.data, chain.data)
    g = rng.normal(size=fused.data.shape)
    g.reshape(-1)[::3] = -0.0
    for grad in (g, -np.zeros(fused.data.shape)):
        (got,), (want,) = fused._vjp(grad), chain._vjp(grad)
        assert got.dtype == want.dtype == np.float64
        assert_same_bits(got, want)


@pytest.mark.parametrize("indices", [[0, 4], [-1], [2, -4]])
def test_take_rejects_an_index_outside_the_rows(indices):
    with pytest.raises(ContractError, match="take index out of range for 4 rows"):
        Tensor(np.zeros((4, 2)), requires_grad=True).take(indices)


# -- one tensor feeding several fused nodes -----------------------------------

def chain_distances(monkeypatch):
    """Route every ``euclidean_dist`` and ``take`` call, the losses' included,
    through the chain."""
    monkeypatch.setattr(Tensor, "euclidean_dist", lambda x, y: euclidean_chain(x, Tensor._lift(y)))
    monkeypatch.setattr(Tensor, "take", take_add_at)


def _units(rng, n, k):
    return np.array([rng.integers(0, n, size=k) for _ in range(3 * n)])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("family", ["triplet", "quadruplet"])
def test_shared_embeddings_accumulate_in_chain_order(seed, family, monkeypatch):
    # Rows of one embedding batch feed the anchor, positive and negative
    # takes, and a classifier head feeds back into the same batch, so each
    # row's gradient is a sum of 3-5 terms whose order the graph fixes.
    rng = np.random.default_rng(10 + seed)
    hyper = LossHyper(alpha=2.0, beta=1.0)
    n, d = 16, 5
    arrays = [rng.normal(size=(n, 6)), rng.normal(size=(6, d)), rng.normal(size=d),
              rng.normal(size=(d, 3)), rng.normal(size=3)]
    labels = rng.integers(0, 3, size=n)
    if family == "triplet":
        units, mean_loss = _units(rng, n, 3), triplet_loss_mean
    else:
        units, mean_loss = _units(rng, n, 4), quadruplet_loss_mean
    flags = (False, True, True, True, True)

    fused = leaves(arrays, flags)
    emb = fused[0].affine(fused[1], fused[2])
    loss_f = mean_loss(*(emb.take(ids) for ids in units.T), hyper) + 0.5 * cross_entropy_mean(
        emb.affine(fused[3], fused[4]), labels)

    chain = leaves(arrays, flags)
    emb_c = affine_chain(*chain[:3])
    with monkeypatch.context() as patch:
        chain_distances(patch)
        metric_c = mean_loss(*(emb_c.take(ids) for ids in units.T), hyper)
    logits_c = affine_chain(emb_c, chain[3], chain[4])
    loss_c = metric_c + 0.5 * (-log_softmax_pick_chain(logits_c, labels)).mean()

    assert_same_bits(loss_f.data, loss_c.data)
    loss_f.backward()
    loss_c.backward()
    assert_same_grads(fused, chain)


def test_trainable_center_rows_accumulate_in_chain_order(monkeypatch):
    # The center table feeds three take nodes (own, first and second
    # negative centers), and the anchor and first-negative rows feed two
    # distances each.
    rng = np.random.default_rng(7)
    hyper = LossHyper(alpha=3.0, beta=2.0)
    emb0, table0 = rng.normal(size=(20, 4)), rng.normal(size=(5, 4))
    own, n1, n2 = (rng.integers(0, 5, size=20) for _ in range(3))
    results = []
    for fuse in (True, False):
        emb, table = Tensor(emb0.copy(), requires_grad=True), Tensor(table0.copy(), requires_grad=True)
        with monkeypatch.context() as patch:
            if not fuse:
                chain_distances(patch)
            loss = quadruplet_loss_mean(emb, table.take(own), table.take(n1),
                                        table.take(n2), hyper)
        loss.backward()
        results.append((loss.data, emb.grad, table.grad))
    for f, c in zip(*results):
        assert_same_bits(f, c)


# -- log-softmax pick ---------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 7])
def test_log_softmax_pick_matches_chain(k):
    rng = np.random.default_rng(k)
    logits0 = rng.normal(scale=4.0, size=(33, k))
    logits0[0] = 0.0  # a tie for the row max
    labels = rng.integers(0, k, size=33)
    weights = rng.random(33)
    fused, chain = Tensor(logits0.copy(), requires_grad=True), Tensor(logits0.copy(), requires_grad=True)
    out_f = fused.log_softmax_pick(labels)
    out_c = log_softmax_pick_chain(chain, labels)
    assert_same_bits(out_f.data, out_c.data)
    (out_f * weights).sum().backward()
    (out_c * weights).sum().backward()
    assert_same_bits(fused.grad, chain.grad)
    # the row max is a constant shift, so a tie for it is no kink
    assert finite_diff_check(lambda v: (v.log_softmax_pick(labels) * weights).sum(), [logits0]) < 1e-6


@pytest.mark.parametrize("gamma", [0.0, 2.0])
def test_batch_losses_over_the_pick_match_chain(gamma):
    rng = np.random.default_rng(5)
    logits0 = rng.normal(size=(16, 4))
    labels = rng.integers(0, 4, size=16)
    w = rng.random(4) + 0.5
    fused, chain = Tensor(logits0.copy(), requires_grad=True), Tensor(logits0.copy(), requires_grad=True)
    loss_f = cross_entropy_mean(fused, labels, weights=w, gamma=gamma)
    log_pt = log_softmax_pick_chain(chain, labels)
    nll = -log_pt
    if gamma != 0:
        nll = (1.0 - log_pt.exp()).pow(gamma) * nll
    loss_c = (nll * w[labels]).mean()
    assert_same_bits(loss_f.data, loss_c.data)
    loss_f.backward()
    loss_c.backward()
    assert_same_bits(fused.grad, chain.grad)


# -- one-buffer Adam ----------------------------------------------------------

def _center_stage(seed, freeze_layers):
    rng = np.random.default_rng(seed)
    extractor = FeatureExtractor([6, 9, 8, 4], rng=rng)
    centers = CenterTable(Tensor(rng.standard_normal((3, 4)), requires_grad=True), "trainable")
    head = LinearHead(4, 3, rng=rng)
    # the first ``freeze_layers`` (weight, bias) pairs are left out of the optimizer
    params = extractor.parameters()[2 * freeze_layers:] + [centers.table] + head.parameters()
    return extractor, centers, head, params


@pytest.mark.parametrize("freeze_layers", [0, 1])
def test_flat_adam_matches_per_parameter_loop(freeze_layers):
    hyper = LossHyper(alpha=4.0)
    runs = []
    for optimizer in (Adam, LoopAdam):
        extractor, centers, head, params = _center_stage(3, freeze_layers)
        frozen = [p for p in extractor.parameters() if all(p is not q for q in params)]
        frozen_data = [p.data for p in frozen]
        assert len(frozen) == 2 * freeze_layers
        opt = optimizer(params, 0.01)
        steps, read = [], []  # read: (an array read before a step, its values then)
        for step in range(6):
            draw = np.random.default_rng(step)
            x = draw.normal(size=(12, 6))
            labels = draw.integers(0, 3, size=12)
            for p in params:
                p.grad = None
            emb = extractor(Tensor(x))
            loss = triplet_loss_mean(emb, centers.table.take(labels),
                                     centers.table.take((labels + 1) % 3),
                                     hyper) + cross_entropy_mean(head(emb), labels)
            assert loss.item() > 0
            loss.backward()
            before = [p.data for p in params]
            read += [(b, b.copy()) for b in before]
            opt.step()
            assert all(p.data is not b for p, b in zip(params, before))
            steps.append([p.data.copy() for p in params])
        assert all(p.data is d for p, d in zip(frozen, frozen_data))
        for array, values in read:  # no step writes into an array it replaced, so a
            assert_same_bits(array, values)  # checkpoint or fingerprint may read p.data as is
        runs.append((steps, opt))
    (flat_steps, flat), (loop_steps, loop) = runs
    for flat_params, loop_params in zip(flat_steps, loop_steps):
        for f, c in zip(flat_params, loop_params):
            assert_same_bits(f, c)
    assert_same_bits(flat.first_moment, np.concatenate([m.ravel() for m in loop.first_moment]))
    assert_same_bits(flat.second_moment, np.concatenate([v.ravel() for v in loop.second_moment]))


def test_adam_rejects_an_empty_or_repeated_parameter_list():
    p = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ContractError):
        Adam([], 1e-4)
    with pytest.raises(ContractError):
        Adam([p, p], 1e-4)
