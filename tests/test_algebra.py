import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nilwalk.algebra import (
    StratifiedAlgebra,
    _br,
    abelian_algebra,
    bch_product,
    dilate_vector,
    limit_product,
)
from nilwalk.errors import (
    DimensionMismatch,
    InvalidAlgebra,
    NegativeEps,
    UnsupportedStep,
)

from conftest import (
    heisenberg_matrix_product_log,
    step3_filtered_algebra,
    unipotent_algebra,
    unipotent_exp,
    unipotent_log,
)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_rejects_missing_antisymmetry():
    with pytest.raises(InvalidAlgebra, match="antisymmetry"):
        StratifiedAlgebra((2, 1), [(0, 1, 2, 1.0)])


def test_rejects_filtration_violation():
    entries = [(0, 1, 0, 1.0), (1, 0, 0, -1.0)]
    with pytest.raises(InvalidAlgebra, match="filtration"):
        StratifiedAlgebra((2, 1), entries)


def test_rejects_jacobi_violation():
    # layers (3, 1, 1): [X1,X2]=X4 and [X3,X4]=X5 with [X1,X3]=[X2,X3]=0 is
    # antisymmetric and filtered, but Jacobi on (X3,X1,X2) sums to X5 != 0.
    entries = [
        (0, 1, 3, 1.0), (1, 0, 3, -1.0),
        (2, 3, 4, 1.0), (3, 2, 4, -1.0),
    ]
    with pytest.raises(InvalidAlgebra, match="Jacobi"):
        StratifiedAlgebra((3, 1, 1), entries)


def test_rejects_bad_dimensions():
    with pytest.raises(InvalidAlgebra):
        StratifiedAlgebra(())
    with pytest.raises(InvalidAlgebra):
        StratifiedAlgebra((2, 0))
    with pytest.raises(InvalidAlgebra):
        StratifiedAlgebra((2, 1), [(0, 1, 7, 1.0)])


def test_vector_dimension_checks(heisenberg):
    with pytest.raises(DimensionMismatch):
        bch_product(heisenberg, np.zeros(2), np.zeros(3))


def test_unsupported_step():
    alg = StratifiedAlgebra((1, 1, 1, 1, 1))  # step 5, abelian-like table
    with pytest.raises(UnsupportedStep):
        bch_product(alg, np.zeros(5), np.zeros(5))


# ---------------------------------------------------------------------------
# BCH product vs matrix oracles
# ---------------------------------------------------------------------------

def test_bch_heisenberg_generators(heisenberg):
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert np.allclose(bch_product(heisenberg, x, y), [1.0, 1.0, 0.5], atol=1e-15)
    assert np.allclose(bch_product(heisenberg, y, x), [1.0, 1.0, -0.5], atol=1e-15)
    # frozen from the 3x3 unipotent matrix oracle
    assert np.allclose(heisenberg_matrix_product_log(x, y), [1.0, 1.0, 0.5], atol=1e-15)


def test_bch_identity(heisenberg):
    rng = np.random.default_rng(5)
    g = rng.normal(size=3)
    assert np.array_equal(bch_product(heisenberg, g, np.zeros(3)), g)
    assert np.array_equal(bch_product(heisenberg, np.zeros(3), g), g)


def test_bch_matches_matrix_oracle_1000_pairs(heisenberg):
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(-2, 2, size=3)
        b = rng.uniform(-2, 2, size=3)
        got = bch_product(heisenberg, a, b)
        want = heisenberg_matrix_product_log(a, b)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [4, 5])
def test_bch_matches_unipotent_oracle_steps_3_and_4(n):
    alg = unipotent_algebra(n)
    assert alg.step == n - 1
    rng = np.random.default_rng(99 + n)
    for _ in range(200):
        a = rng.uniform(-1.5, 1.5, size=alg.dim)
        b = rng.uniform(-1.5, 1.5, size=alg.dim)
        got = bch_product(alg, a, b)
        want = unipotent_log(n, unipotent_exp(n, a) @ unipotent_exp(n, b))
        assert np.abs(got - want).max() <= 1e-12


# steps 3 and 4, with a non-graded table among them, for the property checks
STEP_3_AND_4 = (step3_filtered_algebra(), unipotent_algebra(4), unipotent_algebra(5))


@st.composite
def _algebra_and_points(draw, count):
    alg = draw(st.sampled_from(STEP_3_AND_4))
    points = draw(arrays(np.float64, (count, alg.dim), elements=st.floats(-1.5, 1.5, allow_subnormal=False)))
    return alg, points


def test_group_inverse(heisenberg):
    # exp(a)^-1 = exp(-a): in exponential coordinates the inverse is the negation
    g = np.array([1.0, 1.0, 0.5])
    assert np.array_equal(bch_product(heisenberg, g, -g), np.zeros(3))
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = rng.normal(size=3)
        prod = bch_product(heisenberg, g, -g)
        assert np.abs(prod).max() <= 1e-12
    _inverse_rule_on_steps_3_and_4()


@settings(max_examples=60, deadline=None)
@given(case=_algebra_and_points(1))
def _inverse_rule_on_steps_3_and_4(case):
    alg, (g,) = case
    for prod in (bch_product, limit_product):
        assert np.abs(prod(alg, g, -g)).max() <= 1e-12


def test_associativity_both_products(heisenberg):
    algebras = [heisenberg, step3_filtered_algebra(), unipotent_algebra(5)]
    rng = np.random.default_rng(31)
    for alg in algebras:
        for _ in range(100):
            a, b, c = rng.uniform(-1, 1, size=(3, alg.dim))
            for prod in (bch_product, limit_product):
                left = prod(alg, prod(alg, a, b), c)
                right = prod(alg, a, prod(alg, b, c))
                assert np.abs(left - right).max() <= 1e-10
    _associativity_on_steps_3_and_4()


@settings(max_examples=60, deadline=None)
@given(case=_algebra_and_points(3))
def _associativity_on_steps_3_and_4(case):
    alg, (a, b, c) = case
    for prod in (bch_product, limit_product):
        left = prod(alg, prod(alg, a, b), c)
        right = prod(alg, a, prod(alg, b, c))
        assert np.abs(left - right).max() <= 1e-10


def test_first_layer_homomorphism(step3_filtered):
    rng = np.random.default_rng(8)
    d1 = step3_filtered.layer_dims[0]
    for _ in range(50):
        g, h = rng.normal(size=(2, step3_filtered.dim))
        for prod in (bch_product, limit_product):
            assert np.array_equal(prod(step3_filtered, g, h)[:d1], g[:d1] + h[:d1])


# ---------------------------------------------------------------------------
# Dilations
# ---------------------------------------------------------------------------

def test_dilate_examples(heisenberg):
    z = np.array([1.0, 1.0, 0.5])
    assert np.array_equal(dilate_vector(heisenberg, 1.0, z), z)
    assert np.array_equal(dilate_vector(heisenberg, 2.0, z), [2.0, 2.0, 2.0])
    assert np.array_equal(dilate_vector(heisenberg, 0.0, z), np.zeros(3))
    assert np.array_equal(dilate_vector(heisenberg, 0.5, z), [0.5, 0.5, 0.125])
    with pytest.raises(NegativeEps):
        dilate_vector(heisenberg, -0.1, z)


def test_dilation_semigroup(step3_filtered):
    rng = np.random.default_rng(17)
    for _ in range(50):
        z = rng.normal(size=step3_filtered.dim)
        eps, delta = rng.uniform(0.1, 3.0, size=2)
        one = dilate_vector(step3_filtered, eps, dilate_vector(step3_filtered, delta, z))
        two = dilate_vector(step3_filtered, eps * delta, z)
        assert np.abs(one - two).max() <= 1e-12 * max(1.0, np.abs(two).max())


def test_dilation_automorphism_of_limit_product(step3_filtered):
    rng = np.random.default_rng(23)
    for _ in range(50):
        g, h = rng.normal(size=(2, step3_filtered.dim))
        eps = rng.uniform(0.1, 2.0)
        left = dilate_vector(step3_filtered, eps, limit_product(step3_filtered, g, h))
        right = limit_product(
            step3_filtered,
            dilate_vector(step3_filtered, eps, g),
            dilate_vector(step3_filtered, eps, h),
        )
        assert np.abs(left - right).max() <= 1e-12 * max(1.0, np.abs(left).max())


# ---------------------------------------------------------------------------
# Limit bracket and limit product
# ---------------------------------------------------------------------------

def _limit_bracket(alg, z1, z2):
    """The bracket of the graded table: the layer-(a+b) part of each [layer a, layer b]."""
    return np.einsum("i,j,ijk->k", z1, z2, alg.graded_brackets)


def test_limit_bracket_heisenberg(heisenberg):
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(_limit_bracket(heisenberg, x, y), [0.0, 0.0, 1.0])
    z = np.random.default_rng(2).normal(size=3)
    assert np.abs(_limit_bracket(heisenberg, z, z)).max() <= 1e-15


def test_limit_bracket_abelian():
    alg = abelian_algebra(3)
    rng = np.random.default_rng(3)
    z1, z2 = rng.normal(size=(2, 3))
    assert np.array_equal(_limit_bracket(alg, z1, z2), np.zeros(3))


def test_limit_bracket_is_graded_part(step3_filtered):
    alg = step3_filtered
    x1 = np.array([1.0, 0.0, 0.0, 0.0])
    x2 = np.array([0.0, 1.0, 0.0, 0.0])
    # original bracket has support in layers 2 and 3; the limit keeps layer 2
    assert np.array_equal(_br(alg.bracket_entries, x1, x2), [0.0, 0.0, 1.0, 1.0])
    assert np.array_equal(_limit_bracket(alg, x1, x2), [0.0, 0.0, 1.0, 0.0])


def test_limit_bracket_numerical_limit(step3_filtered):
    alg = step3_filtered
    rng = np.random.default_rng(41)
    z1, z2 = rng.normal(size=(2, alg.dim))
    expected = _limit_bracket(alg, z1, z2)
    errs = []
    for eps in (1e-2, 1e-3):
        rescaled = dilate_vector(
            alg,
            eps,
            _br(alg.bracket_entries, dilate_vector(alg, 1.0 / eps, z1), dilate_vector(alg, 1.0 / eps, z2)),
        )
        errs.append(np.abs(rescaled - expected).max())
    assert errs[1] <= 1e-2  # already small at eps = 1e-3
    assert errs[0] >= 3.0 * errs[1]  # O(eps) decay between the probes


def test_limit_product_matches_group_product_in_step_2(heisenberg):
    rng = np.random.default_rng(47)
    for _ in range(100):
        g, h = rng.normal(size=(2, 3))
        assert np.array_equal(limit_product(heisenberg, g, h), bch_product(heisenberg, g, h))


def test_limit_product_abelian_and_identity(step3_filtered):
    alg = abelian_algebra(2)
    g, h = np.array([1.0, 2.0]), np.array([0.25, -1.0])
    assert np.array_equal(limit_product(alg, g, h), g + h)
    g = np.random.default_rng(11).normal(size=step3_filtered.dim)
    assert np.array_equal(limit_product(step3_filtered, g, np.zeros(step3_filtered.dim)), g)


def test_limit_product_differs_from_group_product_when_not_graded(step3_filtered):
    x1 = np.array([1.0, 0.0, 0.0, 0.0])
    x2 = np.array([0.0, 1.0, 0.0, 0.0])
    assert not np.allclose(
        limit_product(step3_filtered, x1, x2),
        bch_product(step3_filtered, x1, x2),
    )
