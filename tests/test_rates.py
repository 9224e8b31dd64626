import math

import numpy as np
import pytest

from nilwalk.albanese import albanese_pipeline
from nilwalk.algebra import StratifiedAlgebra, abelian_algebra, fold
from nilwalk.errors import DimensionMismatch, NonIncreasingTimes
from nilwalk.graph import heisenberg_cayley, zd_lattice
from nilwalk.rates import (
    PiecewisePath,
    QuadraticForms,
    alpha,
    alpha_star,
    develop,
    develop_limit,
    endpoint_rate,
    finite_dim_rate,
    lil_ball_contains,
    limit_rate,
    minimize_endpoint_rate,
    path_from_increments,
    path_rate,
    straight_path,
)

from conftest import grid_sup_conjugate, heisenberg_matrix_product_log, step3_filtered_algebra


HALF_I2 = QuadraticForms.from_sigma(0.5 * np.eye(2))
UNIT_1D = QuadraticForms.from_sigma(np.eye(1))


# ---------------------------------------------------------------------------
# Quadratic forms
# ---------------------------------------------------------------------------

def test_alpha_examples():
    assert alpha(HALF_I2, np.zeros(2)) == 0.0
    assert alpha(HALF_I2, np.array([2.0, 0.0])) == 1.0
    chi = np.array([0.7, -1.3])
    assert alpha(HALF_I2, -chi) == alpha(HALF_I2, chi)


def test_alpha_star_examples():
    assert alpha_star(HALF_I2, np.zeros(2)) == 0.0
    assert alpha_star(HALF_I2, np.array([1.0, 0.0])) == 1.0


def test_alpha_star_duality_against_grid_sup():
    rng = np.random.default_rng(53)
    for forms in (HALF_I2, QuadraticForms.from_sigma(np.array([[0.75]]))):
        for _ in range(10):
            chi_star = rng.uniform(-5, 5, size=forms.dim)
            lam = forms.sigma @ chi_star
            want = grid_sup_conjugate(forms.sigma, lam)
            assert abs(alpha_star(forms, lam) - want) <= 1e-5


def test_alpha_star_duality_non_diagonal():
    _, _, _, data = albanese_pipeline(__import__("nilwalk.graph", fromlist=["hexagonal"]).hexagonal())
    forms = QuadraticForms.from_albanese(data)
    rng = np.random.default_rng(59)
    for _ in range(5):
        lam = forms.sigma @ rng.uniform(-4, 4, size=2)
        want = grid_sup_conjugate(forms.sigma, lam, lo=-6.0, hi=6.0, resolution=1e-2)
        assert abs(alpha_star(forms, lam) - want) <= 5e-4


# ---------------------------------------------------------------------------
# Path functionals
# ---------------------------------------------------------------------------

def test_path_rate_linear_path():
    v = np.array([1.2, -0.4])
    path = straight_path(v, knots=6)
    assert abs(path_rate(HALF_I2, path) - alpha_star(HALF_I2, v)) <= 1e-14


def test_path_rate_two_segment_example():
    # reach (1, 0) on [0, 1/2], then stay: rate = 0.5 * alpha_star((2, 0)) = 2
    path = PiecewisePath(times=[0.0, 0.5, 1.0], values=[[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    assert abs(path_rate(HALF_I2, path) - 2.0) <= 1e-14


def test_path_rate_zero_path():
    path = PiecewisePath(times=[0.0, 0.3, 1.0], values=np.zeros((3, 2)))
    assert path_rate(HALF_I2, path) == 0.0


def test_jensen_bound_random_paths():
    rng = np.random.default_rng(67)
    for _ in range(1000):
        k = rng.integers(1, 6)
        times = np.sort(rng.uniform(0.05, 0.95, size=k - 1)) if k > 1 else np.array([])
        times = np.concatenate([[0.0], times, [1.0]])
        values = np.vstack([np.zeros(2), rng.normal(size=(k, 2))])
        path = PiecewisePath(times=times, values=values)
        assert path_rate(HALF_I2, path) >= alpha_star(HALF_I2, path.endpoint()) - 1e-10


def test_jensen_equality_iff_single_segment():
    v = np.array([0.5, 0.8])
    one = straight_path(v, knots=1)
    assert abs(path_rate(HALF_I2, one) - alpha_star(HALF_I2, v)) <= 1e-10
    # same endpoint through a detour is strictly more expensive
    detour = PiecewisePath(times=[0.0, 0.5, 1.0], values=[[0.0, 0.0], [1.0, 1.0], [0.5, 0.8]])
    assert path_rate(HALF_I2, detour) > alpha_star(HALF_I2, v) + 1e-6


def test_path_rate_invariant_under_refinement():
    path = PiecewisePath(times=[0.0, 0.25, 1.0], values=[[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]])
    assert abs(path_rate(HALF_I2, path) - path_rate(HALF_I2, path.refine())) <= 1e-13


def test_finite_dim_rate_single_time():
    v = np.array([0.3, -1.1])
    assert abs(finite_dim_rate(HALF_I2, [1.0], [v]) - alpha_star(HALF_I2, v)) <= 1e-14


def test_finite_dim_rate_equals_path_rate():
    assert finite_dim_rate(HALF_I2, [0.5, 1.0], [[1.0, 0.0], [1.0, 0.0]]) == 2.0
    rng = np.random.default_rng(71)
    times = np.array([0.2, 0.5, 0.7, 1.0])
    lams = rng.normal(size=(4, 2))
    path = PiecewisePath(times=np.concatenate([[0.0], times]), values=np.vstack([np.zeros(2), lams]))
    assert finite_dim_rate(HALF_I2, times, lams) == path_rate(HALF_I2, path)


def test_finite_dim_rate_rejects_bad_times():
    with pytest.raises(NonIncreasingTimes):
        finite_dim_rate(HALF_I2, [0.5, 0.5], [[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NonIncreasingTimes):
        finite_dim_rate(HALF_I2, [0.0, 1.0], [[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NonIncreasingTimes):
        finite_dim_rate(HALF_I2, [0.5, 1.5], [[1.0, 0.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# Development map
# ---------------------------------------------------------------------------

def test_develop_abelian_is_endpoint():
    alg = abelian_algebra(2)
    path = PiecewisePath(times=[0.0, 0.3, 1.0], values=[[0.0, 0.0], [1.0, 2.0], [0.5, -1.0]])
    assert np.array_equal(develop(alg, path), [0.5, -1.0])


def test_develop_heisenberg_against_matrix_oracle(heisenberg):
    path = PiecewisePath(times=[0.0, 0.5, 1.0], values=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    got = develop(heisenberg, path)
    want = heisenberg_matrix_product_log(np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0]))
    assert np.abs(got - want).max() <= 1e-14
    assert np.allclose(got, [1.0, 1.0, 0.5], atol=1e-15)
    reverse = PiecewisePath(times=[0.0, 0.5, 1.0], values=[[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(develop(heisenberg, reverse), [1.0, 1.0, -0.5], atol=1e-15)


def test_develop_depends_only_on_increments(heisenberg):
    incr = np.array([[0.5, 0.25], [-0.75, 1.0], [0.25, 0.5]])
    a = path_from_increments(incr)
    b = PiecewisePath(times=[0.0, 0.1, 0.2, 1.0], values=a.values)
    assert np.array_equal(develop(heisenberg, a), develop(heisenberg, b))


def test_develop_increment_local_under_refinement(heisenberg):
    dyadic = PiecewisePath(times=[0.0, 0.5, 1.0], values=[[0.0, 0.0], [1.0, 0.5], [0.25, 1.0]])
    assert np.array_equal(develop(heisenberg, dyadic), develop(heisenberg, dyadic.refine()))
    rng = np.random.default_rng(73)
    path = path_from_increments(rng.normal(size=(4, 2)))
    assert np.abs(develop(heisenberg, path) - develop(heisenberg, path.refine())).max() <= 1e-14


def test_develop_limit_vs_group():
    heis = __import__("nilwalk.algebra", fromlist=["heisenberg_algebra"]).heisenberg_algebra()
    path = path_from_increments(np.random.default_rng(79).normal(size=(4, 2)))
    assert np.array_equal(develop(heis, path), develop_limit(heis, path))
    alg3 = step3_filtered_algebra()
    path3 = path_from_increments(np.random.default_rng(83).normal(size=(4, 2)))
    assert not np.allclose(develop(alg3, path3), develop_limit(alg3, path3))


def test_develop_first_layer_is_endpoint(heisenberg):
    path = path_from_increments(np.random.default_rng(89).normal(size=(5, 2)))
    assert np.abs(develop(heisenberg, path)[:2] - path.endpoint()).max() <= 1e-14


# ---------------------------------------------------------------------------
# Endpoint rate optimizer
# ---------------------------------------------------------------------------

def test_endpoint_rate_identity(heisenberg):
    bound = minimize_endpoint_rate(heisenberg, HALF_I2, np.zeros(3), knots=4, restarts=2, seed=0)
    assert bound.feasible and bound.value <= 1e-12
    assert bound.constraint_violation <= 1e-10


def test_endpoint_rate_abelian_closed_form():
    _, _, _, data = albanese_pipeline(zd_lattice(2))
    forms = QuadraticForms.from_albanese(data)
    alg = abelian_algebra(2)
    rng = np.random.default_rng(97)
    for _ in range(5):
        v = rng.uniform(-2, 2, size=2)
        got = endpoint_rate(alg, forms, v, knots=6, restarts=4, seed=5)
        assert abs(got - alpha_star(forms, v)) <= 1e-6


def test_endpoint_rate_horizontal_heisenberg(heisenberg):
    rng = np.random.default_rng(101)
    for _ in range(3):
        v = rng.uniform(-1.5, 1.5, size=2)
        target = np.array([v[0], v[1], 0.0])
        got = endpoint_rate(heisenberg, HALF_I2, target, knots=8, restarts=8, seed=7)
        gap = got - alpha_star(HALF_I2, v)
        assert -1e-9 <= gap <= 1e-4


def test_endpoint_rate_nonhorizontal_is_bounded_and_larger(heisenberg):
    target = np.array([1.0, 0.0, 0.75])
    bound = minimize_endpoint_rate(heisenberg, HALF_I2, target, knots=8, restarts=8, seed=11)
    assert bound.feasible
    assert bound.constraint_violation <= 1e-8
    assert bound.value > alpha_star(HALF_I2, target[:2]) + 0.1  # area costs energy
    # regression lock for the optimizer bound itself (no closed form asserted)
    assert bound.value < 10.0


def test_rate_certificate_describes_the_reported_path(heisenberg):
    # the violation is the reported path's own, not the least over all candidates
    unit = QuadraticForms.from_sigma(np.eye(2))
    cases = (
        (heisenberg, HALF_I2, np.array([1.0, 0.0, 0.75]), 8, 6),
        (step3_filtered_algebra(), unit, np.array([0.5, -0.25, 0.2, 0.1]), 4, 3),
    )
    for alg, forms, target, knots, restarts in cases:
        b = minimize_endpoint_rate(alg, forms, target, knots=knots, restarts=restarts, seed=11, limit=True)
        assert b.feasible
        path = path_from_increments(b.increments)
        assert b.constraint_violation == float(np.linalg.norm(develop_limit(alg, path) - target))
        assert b.value == path_rate(forms, path)


def test_refinement_monotonicity(heisenberg):
    rng = np.random.default_rng(103)
    for _ in range(3):
        target = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)])
        b4 = minimize_endpoint_rate(heisenberg, HALF_I2, target, knots=4, restarts=4, seed=13)
        warm = np.repeat(b4.increments, 2, axis=0) / 2.0 if b4.feasible else None
        b8 = minimize_endpoint_rate(
            heisenberg, HALF_I2, target, knots=8, restarts=4, seed=13,
            initial_paths=None if warm is None else [warm],
        )
        assert b8.value <= b4.value + 1e-9


def test_limit_rate_equals_endpoint_rate_step2(heisenberg):
    target = np.array([0.8, -0.4, 0.3])
    a = endpoint_rate(heisenberg, HALF_I2, target, knots=6, restarts=4, seed=17)
    b = limit_rate(heisenberg, HALF_I2, target, knots=6, restarts=4, seed=17)
    assert abs(a - b) <= 1e-10


def test_endpoint_rate_step3_fd_path():
    alg = step3_filtered_algebra()
    forms = QuadraticForms.from_sigma(np.eye(2))
    v = np.array([0.6, -0.3])
    target = np.zeros(4)
    target[:2] = v
    # horizontal target reached by the straight path; FD gradients (step 3)
    got = endpoint_rate(alg, forms, target, knots=4, restarts=2, seed=19)
    assert abs(got - alpha_star(forms, v)) <= 1e-3


def test_endpoint_rate_infeasible_returns_inf():
    # a second layer no horizontal path can reach: zero brackets, layers (1, 1)
    alg = StratifiedAlgebra((1, 1))
    forms = QuadraticForms.from_sigma(np.eye(1))
    target = np.array([0.0, 1.0])
    bound = minimize_endpoint_rate(alg, forms, target, knots=4, restarts=2, seed=23)
    assert not bound.feasible
    assert bound.value == math.inf
    assert bound.constraint_violation > 0.5


def test_endpoint_rate_rejects_too_few_knots(heisenberg):
    with pytest.raises(ValueError, match="knots"):
        endpoint_rate(heisenberg, HALF_I2, np.zeros(3), knots=1)


def test_analytic_gradient_matches_finite_differences(heisenberg):
    from nilwalk.rates import _defect_grad_terms

    rng = np.random.default_rng(29)
    incr = rng.normal(size=(5, 2))
    target = rng.normal(size=3)
    table = heisenberg.brackets

    def develop_incr(incr):
        return fold(heisenberg, heisenberg.embed_first_layer(incr))

    def half_sq(flat):
        r = develop_incr(flat.reshape(5, 2)) - target
        return 0.5 * float(r @ r)

    residual = develop_incr(incr) - target
    grad = _defect_grad_terms(heisenberg, table, incr, residual).ravel()
    num = np.zeros(10)
    flat = incr.ravel()
    for i in range(10):
        e = np.zeros(10)
        e[i] = 1e-6
        num[i] = (half_sq(flat + e) - half_sq(flat - e)) / 2e-6
    assert np.abs(grad - num).max() <= 1e-6


# ---------------------------------------------------------------------------
# Iterated-logarithm ball membership
# ---------------------------------------------------------------------------

def test_lil_ball_identity(heisenberg):
    assert lil_ball_contains(heisenberg, HALF_I2, np.zeros(3), level=1.0, knots=4, restarts=2)


def test_lil_ball_boundary_abelian():
    alg = abelian_algebra(1)
    forms = UNIT_1D
    inside = np.array([math.sqrt(2.0)])
    outside = np.array([2.0])
    assert lil_ball_contains(alg, forms, inside, level=1.0, tol=1e-6, knots=4, restarts=2)
    assert not lil_ball_contains(alg, forms, outside, level=1.0, tol=1e-6, knots=4, restarts=2)


def test_lil_ball_level_argument(heisenberg):
    g = np.array([1.0, 0.0, 0.0])  # rate 1.0
    assert lil_ball_contains(heisenberg, HALF_I2, g, level=1.0, knots=4, restarts=4)
    assert not lil_ball_contains(heisenberg, HALF_I2, g, level=0.5, knots=4, restarts=4)
    with pytest.raises(ValueError):
        lil_ball_contains(heisenberg, HALF_I2, g, level=0.0)
