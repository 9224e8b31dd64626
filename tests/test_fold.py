"""Property tests of the batched group fold against sequential and matrix oracles."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nilwalk.algebra import _fold, bch_product, fold, heisenberg_algebra, limit_product
from nilwalk.errors import DimensionMismatch

from conftest import step3_filtered_algebra, unipotent_algebra, unipotent_exp, unipotent_log

# algebra and the size of the unipotent matrices that realize its group (None: no matrix oracle)
ALGEBRAS = {
    "heisenberg": (heisenberg_algebra(), 3),
    "step3_filtered": (step3_filtered_algebra(), None),
    "unipotent4": (unipotent_algebra(4), 4),
    "unipotent5": (unipotent_algebra(5), 5),
}
LENGTHS = st.sampled_from([0, 1, 2, 3, 4, 7, 8, 13])
REL_TOL = 1e-12


def _sequential(alg, rows, product):
    acc = np.zeros(alg.dim)
    for row in rows:
        acc = product(alg, acc, row)
    return acc


def _matrix_fold(size, rows):
    mats = [unipotent_exp(size, row) for row in rows]
    return unipotent_log(size, reduce(np.matmul, mats, np.eye(size)))


def _close(got, want):
    return np.abs(got - want).max() <= REL_TOL * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
@pytest.mark.parametrize("name", list(ALGEBRAS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fold_matches_sequential_and_matrix_products(name, batch, data):
    alg, size = ALGEBRAS[name]
    length = data.draw(LENGTHS)
    gammas = data.draw(arrays(np.float64, batch + (length, alg.dim),
                              elements=st.floats(-1.5, 1.5, allow_subnormal=False)))
    got = fold(alg, gammas)
    got_limit = _fold(alg, alg.graded_bracket_entries, gammas)
    assert got.shape == batch + (alg.dim,)
    for idx in np.ndindex(*batch):
        rows = gammas[idx]
        assert _close(got[idx], _sequential(alg, rows, bch_product))
        assert _close(got_limit[idx], _sequential(alg, rows, limit_product))
        if size is not None:
            assert _close(got[idx], _matrix_fold(size, rows))


def test_fold_identity_and_shape_checks():
    alg, _ = ALGEBRAS["unipotent4"]
    assert np.array_equal(fold(alg, np.zeros((2, 0, alg.dim))), np.zeros((2, alg.dim)))
    row = np.arange(alg.dim, dtype=float)
    assert np.array_equal(fold(alg, row[None, :]), row)
    with pytest.raises(DimensionMismatch):
        fold(alg, row)
    with pytest.raises(DimensionMismatch):
        fold(alg, np.zeros((3, alg.dim + 1)))


def test_bch_product_broadcasts_over_leading_axes():
    alg, _ = ALGEBRAS["unipotent5"]
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, alg.dim))
    b = rng.normal(size=alg.dim)
    got = bch_product(alg, a, b)
    for r in range(4):
        assert np.array_equal(got[r], bch_product(alg, a[r], b))
