"""``euclidean_argmin`` against the exact argmin it stands for.

``test_euclidean_cdist_equals_the_naive_formula_exactly`` pins the bits of
``euclidean_cdist``; these tests pin ``euclidean_argmin`` to its argmin,
from underflowing to overflowing scales, on exact hits, duplicated and
near-duplicated rows, ties and non-finite rows.
"""

import numpy as np
import pytest

from tricenter import distance
from tricenter.distance import euclidean_argmin, euclidean_cdist

SCALES = [1e-160, 1e-150, 1e-3, 1.0, 1e3, 1e150, 1e160]  # the outer two under- and overflow


def hard_rows(rng, b, n):
    """``n`` rows around ``b``: random rows, exact hits on rows of ``b``,
    midpoints of two of its rows and rows a rounding away from a hit."""
    k, dim = b.shape
    spread = np.abs(b).max()
    rows = [rng.normal(size=(n, dim)) * spread,
            b[rng.integers(0, k, n)],
            (b[rng.integers(0, k, n)] + b[rng.integers(0, k, n)]) / 2,
            b[rng.integers(0, k, n)] * (1 + rng.choice([-1, 1], size=(n, 1)) * 2e-16)]
    return np.concatenate(rows)


@pytest.mark.parametrize("k", [1, 2, 7, 50])
@pytest.mark.parametrize("dim", [1, 2, 16, 128, 1000])
def test_euclidean_argmin_is_the_argmin_of_the_exact_distances(dim, k):
    rng = np.random.default_rng(1000 * dim + k)
    for scale in SCALES:
        b = rng.normal(size=(k, dim)) * scale
        if k > 2:  # a duplicated row and a near-duplicate of another
            b[k - 1] = b[0]
            b[k - 2] = b[1] * (1 + 1e-15)
        a = hard_rows(rng, b, 15)
        a[0], a[1] = np.nan, np.inf
        a[2, 0], a[3, -1] = np.nan, -np.inf
        for rows in (a, a[:0]):
            with np.errstate(over="ignore"):  # the squares of the largest scale overflow
                want = euclidean_cdist(rows, b).argmin(axis=1)
                got = euclidean_argmin(rows, b)
            assert got.dtype == want.dtype and got.shape == (rows.shape[0],)
            np.testing.assert_array_equal(got, want, err_msg=f"scale {scale}")


def test_exact_distances_are_measured_only_for_the_rows_the_bracket_cannot_decide(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(a.copy())
        return euclidean_cdist(a, b)

    monkeypatch.setattr(distance, "euclidean_cdist", counted)
    rng = np.random.default_rng(5)
    b = rng.normal(size=(7, 128)) * 10
    apart = b[rng.integers(0, 7, 400)] + rng.normal(size=(400, 128))
    np.testing.assert_array_equal(euclidean_argmin(apart, b),
                                  euclidean_cdist(apart, b).argmin(axis=1))
    assert calls == []
    ties = np.concatenate([apart, (b[[0, 2, 4]] + b[[1, 5, 6]]) / 2])  # midpoints of two rows
    got = euclidean_argmin(ties, b)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], ties[400:])
    np.testing.assert_array_equal(got, euclidean_cdist(ties, b).argmin(axis=1))
