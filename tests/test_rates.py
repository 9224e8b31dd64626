import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nilwalk
from nilwalk.albanese import albanese_pipeline
from nilwalk.algebra import StratifiedAlgebra, _fold, abelian_algebra, dilate_vector, fold
from nilwalk.errors import NonIncreasingTimes
from nilwalk.graph import zd_lattice
from nilwalk.rates import (
    _defect_jacobian,
    _optimize_endpoint_rate,
    PiecewisePath,
    QuadraticForms,
    alpha_star,
    develop,
    endpoint_rate,
    exact_rate,
    finite_dim_rate,
    lil_ball_contains,
    minimize_endpoint_rate,
    path_from_increments,
    path_rate,
)

from conftest import grid_sup_conjugate, heisenberg_matrix_product_log, step3_filtered_algebra, unipotent_cayley


HALF_I2 = QuadraticForms.from_sigma(0.5 * np.eye(2))
UNIT_1D = QuadraticForms.from_sigma(np.eye(1))


def _refined(path):
    """``path`` with the midpoint of every segment inserted: the same geometry."""
    times = np.concatenate([[0.0], np.cumsum(np.repeat(path.dt / 2, 2))])
    values = np.vstack([path.values[:1], np.cumsum(np.repeat(path.increments / 2, 2, axis=0), axis=0)])
    return PiecewisePath(times=times, values=values)


# ---------------------------------------------------------------------------
# Quadratic forms
# ---------------------------------------------------------------------------

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
    path = path_from_increments(np.tile(v / 6, (6, 1)))
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
    one = path_from_increments(v[None, :])
    assert abs(path_rate(HALF_I2, one) - alpha_star(HALF_I2, v)) <= 1e-10
    # same endpoint through a detour is strictly more expensive
    detour = PiecewisePath(times=[0.0, 0.5, 1.0], values=[[0.0, 0.0], [1.0, 1.0], [0.5, 0.8]])
    assert path_rate(HALF_I2, detour) > alpha_star(HALF_I2, v) + 1e-6


def test_path_rate_invariant_under_refinement():
    path = PiecewisePath(times=[0.0, 0.25, 1.0], values=[[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]])
    assert abs(path_rate(HALF_I2, path) - path_rate(HALF_I2, _refined(path))) <= 1e-13


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
    assert np.array_equal(develop(heisenberg, dyadic), develop(heisenberg, _refined(dyadic)))
    rng = np.random.default_rng(73)
    path = path_from_increments(rng.normal(size=(4, 2)))
    assert np.abs(develop(heisenberg, path) - develop(heisenberg, _refined(path))).max() <= 1e-14


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
        got = _optimize_endpoint_rate(alg, forms, v, knots=6, restarts=4, seed=5).value
        assert abs(got - alpha_star(forms, v)) <= 1e-6


def test_endpoint_rate_horizontal_heisenberg(heisenberg):
    rng = np.random.default_rng(101)
    for _ in range(3):
        v = rng.uniform(-1.5, 1.5, size=2)
        target = np.array([v[0], v[1], 0.0])
        got = _optimize_endpoint_rate(heisenberg, HALF_I2, target, knots=8, restarts=8, seed=7).value
        gap = got - alpha_star(HALF_I2, v)
        assert -1e-9 <= gap <= 1e-4


def test_endpoint_rate_nonhorizontal_is_bounded_and_larger(heisenberg):
    target = np.array([1.0, 0.0, 0.75])
    bound = _optimize_endpoint_rate(heisenberg, HALF_I2, target, knots=8, restarts=8, seed=11)
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
        b = _optimize_endpoint_rate(alg, forms, target, knots=knots, restarts=restarts, seed=11)
        assert b.feasible
        path = path_from_increments(b.increments)
        assert b.constraint_violation == float(np.linalg.norm(develop(alg, path) - target))
        assert b.value == path_rate(forms, path)


def test_refinement_monotonicity(heisenberg):
    rng = np.random.default_rng(103)
    for _ in range(3):
        target = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)])
        b4 = _optimize_endpoint_rate(heisenberg, HALF_I2, target, knots=4, restarts=4, seed=13)
        b8 = _optimize_endpoint_rate(heisenberg, HALF_I2, target, knots=8, restarts=4, seed=13)
        assert b8.value <= b4.value + 1e-9


def test_limit_rate_equals_endpoint_rate_step2(heisenberg):
    # on step 2 the graded law is the group law, so the limit-group rate's
    # path reaches the target under the group product as well
    target = np.array([0.8, -0.4, 0.3])
    b = _optimize_endpoint_rate(heisenberg, HALF_I2, target, knots=6, restarts=4, seed=17)
    gammas = heisenberg.embed_first_layer(b.increments)
    assert b.feasible and np.array_equal(fold(heisenberg, gammas), _fold(heisenberg, heisenberg.graded_bracket_entries, gammas))
    assert np.linalg.norm(fold(heisenberg, gammas) - target) <= 1e-8
    assert endpoint_rate(heisenberg, HALF_I2, target) == minimize_endpoint_rate(heisenberg, HALF_I2, target).value


def test_default_rate_lives_on_the_limit_group():
    # a non-graded step-3 table: the reported path must develop onto the
    # target under the graded law, with no flag asking for it
    alg = step3_filtered_algebra()
    target = np.array([0.5, -0.25, 0.2, 0.1])
    b = minimize_endpoint_rate(alg, QuadraticForms.from_sigma(np.eye(2)), target, knots=4, restarts=3, seed=11)
    assert b.feasible
    assert np.linalg.norm(develop(alg, path_from_increments(b.increments)) - target) <= 1e-8


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


# layers (3, 1) with [X_1, X_2] = X_4 and [X_1, X_3] = -0.7 X_4: step 2 with
# no closed form, so the optimizer runs here
TWO_BRACKETS = StratifiedAlgebra((3, 1), [(0, 1, 3, 1.0), (1, 0, 3, -1.0), (0, 2, 3, -0.7), (2, 0, 3, 0.7)])


def test_defect_jacobian_matches_central_differences(heisenberg):
    # SLSQP takes J as the constraint Jacobian on step 2; residual @ J is the
    # gradient of 0.5 ||defect||^2
    rng = np.random.default_rng(29)
    h = 1e-6
    for alg in (heisenberg, TWO_BRACKETS):
        d1 = alg.layer_dims[0]
        incr = rng.normal(size=(5, d1))
        flat = incr.ravel()
        steps = h * np.eye(flat.size)
        target = rng.normal(size=alg.dim)

        def develop_flat(f):
            return _fold(alg, alg.graded_bracket_entries, alg.embed_first_layer(f.reshape(5, d1)))

        def half_sq(f):
            r = develop_flat(f) - target
            return 0.5 * float(r @ r)

        jac = _defect_jacobian(alg, incr)
        num_jac = np.stack([develop_flat(flat + e) - develop_flat(flat - e) for e in steps], axis=1) / (2 * h)
        assert jac.shape == (alg.dim, flat.size)
        assert np.abs(jac - num_jac).max() <= 1e-7
        residual = develop_flat(flat) - target
        num_grad = np.array([half_sq(flat + e) - half_sq(flat - e) for e in steps]) / (2 * h)
        assert np.abs(residual @ jac - num_grad).max() <= 1e-6


def test_optimizer_starts_a_vertical_target_off_the_zero_path(heisenberg):
    # the straight path to a target with zero first layer is the zero path, a
    # stationary point of the constrained problem; one restart must still
    # reach the target
    target = np.array([0.0, 0.0, 0.5])
    exact = exact_rate(heisenberg, HALF_I2, target)
    for knots in (32, 8):
        bound = _optimize_endpoint_rate(heisenberg, HALF_I2, target, knots=knots, restarts=1, seed=7)
        assert bound.feasible and bound.restarts_used == 1
        assert bound.value >= exact - 1e-9
    # step 3, where forward differences give the constraint Jacobian
    uni = unipotent_cayley(4)
    uni_forms = QuadraticForms.from_albanese(albanese_pipeline(uni)[3])
    uni_target = [0.0, 0.0, 0.0, 0.1, 0.05, 0.02]
    cases = (
        (step3_filtered_algebra(), QuadraticForms.from_sigma(np.eye(2)), [0.0, 0.0, 0.2, 0.1], 4, 0),
        (uni.algebra, uni_forms, uni_target, 8, 0),
        (uni.algebra, uni_forms, uni_target, 8, 7),
    )
    for alg, forms, target, knots, seed in cases:
        b = _optimize_endpoint_rate(alg, forms, np.array(target), knots=knots, restarts=1, seed=seed)
        assert b.feasible and b.constraint_violation <= 1e-8
        assert b.value == path_rate(forms, path_from_increments(b.increments))


# ---------------------------------------------------------------------------
# Closed-form rates
# ---------------------------------------------------------------------------

SKEW = QuadraticForms.from_sigma(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)
HEIS_C = StratifiedAlgebra((2, 1), [(0, 1, 2, 2.5), (1, 0, 2, -2.5)])  # [X, Y] = 2.5 Z


def test_exact_rate_step1_is_alpha_star():
    forms = QuadraticForms.from_sigma(np.array([[0.75, 0.2], [0.2, 0.5]]))
    alg = abelian_algebra(2)
    v = np.array([0.7, -1.1])
    assert exact_rate(alg, forms, v) == alpha_star(forms, v)
    bound = minimize_endpoint_rate(alg, forms, v)
    assert (bound.value, bound.method, bound.feasible) == (alpha_star(forms, v), "closed_form", True)
    assert bound.constraint_violation == 0.0 and bound.increments is None and bound.restarts_used == 0


def test_optimizer_bound_versus_exact_heisenberg(heisenberg):
    # the ROADMAP targets: the K=8 bound sits 0.56-5.5% above the exact rate,
    # and K=32 narrows the gap below 0.5%
    targets = ([1.0, 0.0, 0.2], [0.5, -0.3, 0.4], [0.2, 0.1, 1.0], [0.0, 0.0, 0.5])
    for target in map(np.array, targets):
        exact = exact_rate(heisenberg, HALF_I2, target)
        b8 = _optimize_endpoint_rate(heisenberg, HALF_I2, target, knots=8, restarts=6, seed=7)
        assert b8.feasible and b8.method == "optimizer"
        assert exact - 1e-9 <= b8.value <= 1.06 * exact
        b32 = _optimize_endpoint_rate(heisenberg, HALF_I2, target, knots=32, restarts=2, seed=7)
        assert exact - 1e-9 <= b32.value < 1.005 * exact
        bound = minimize_endpoint_rate(heisenberg, HALF_I2, target)
        assert (bound.value, bound.method) == (exact, "closed_form")


def _arc_target(sigma_chol, c, phi, radius, direction, sign, knots):
    """A circular arc of central angle phi and the given radius in the
    whitened plane, leaving the origin at angle ``direction``, turning
    counterclockwise (sign +1) or clockwise (-1); returns its knot path
    mapped back by L, and the target it reaches with its exact rate.
    """
    start = direction - sign * math.pi / 2  # the centre lies at radius, to the turning side
    angles = start + sign * phi * np.linspace(0.0, 1.0, knots + 1)
    centre = -radius * np.array([math.cos(start), math.sin(start)])
    u = centre + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    u[0] = 0.0
    # circular segment cut off by the chord: radius^2 (phi - sin phi) / 2, signed by the turn
    area_u = sign * radius**2 * (phi - math.sin(phi)) / 2.0
    det_l = sigma_chol[0, 0] * sigma_chol[1, 1]
    target = np.concatenate([sigma_chol @ u[-1], [c * det_l * area_u]])
    path = PiecewisePath(times=np.linspace(0.0, 1.0, knots + 1), values=u @ sigma_chol.T)
    return path, target, 0.5 * (radius * phi) ** 2


def test_exact_rate_matches_sampled_arc():
    chol = np.linalg.cholesky(SKEW.sigma)
    for phi, radius in ((0.2, 1.0), (0.5, 1.0), (2.0, 0.8), (math.pi, 0.6), (4.0, 0.5), (6.2, 0.3)):
        for sign in (1.0, -1.0):
            path, target, arc_rate = _arc_target(chol, 2.5, phi, radius, 0.7, sign, knots=4096)
            assert abs(target[2]) > 0.0 and np.sign(target[2]) == sign
            assert np.abs(develop(HEIS_C, path) - target).max() <= 1e-6
            exact = exact_rate(HEIS_C, SKEW, target)
            assert abs(exact - arc_rate) <= 1e-12 * arc_rate
            assert abs(path_rate(SKEW, path) - exact) <= 1e-6 * exact


def test_exact_rate_homogeneity():
    rng = np.random.default_rng(107)
    for _ in range(20):
        g = rng.normal(size=3) * rng.uniform(0.01, 3.0, size=3)
        lam = rng.uniform(0.05, 20.0)
        base = exact_rate(HEIS_C, SKEW, g)
        scaled = exact_rate(HEIS_C, SKEW, dilate_vector(HEIS_C, lam, g))
        assert abs(scaled - lam**2 * base) <= 1e-12 * lam**2 * base


def test_exact_rate_continuity_at_the_ends():
    v = np.array([0.6, -0.2])
    horizontal = alpha_star(SKEW, v)
    assert exact_rate(HEIS_C, SKEW, np.append(v, 0.0)) == horizontal
    for z in (1e-3, 1e-6, 1e-9, 1e-13):
        for s in (1.0, -1.0):
            got = exact_rate(HEIS_C, SKEW, np.append(v, s * z))
            assert 0.0 <= got - horizontal <= 10.0 * z  # grows like z^2, bounded by the linear term
    det_l = math.sqrt(np.linalg.det(SKEW.sigma))
    z = 0.4
    vertical = 2.0 * math.pi * z / (2.5 * det_l)
    assert abs(exact_rate(HEIS_C, SKEW, [0.0, 0.0, z]) - vertical) <= 1e-15 * vertical
    for r in (1e-3, 1e-6, 1e-9, 1e-13):
        got = exact_rate(HEIS_C, SKEW, [r, -r, z])
        assert 0.0 <= vertical - got <= 10.0 * r  # the arc shortens linearly in r
    # the two branches of the root find meet at the half circle, 8 |A| = pi r^2
    r2 = 2.0 * alpha_star(SKEW, v)
    half_circle = math.pi * r2 / 8.0 * 2.5 * det_l
    below = exact_rate(HEIS_C, SKEW, np.append(v, half_circle * (1.0 - 1e-12)))
    above = exact_rate(HEIS_C, SKEW, np.append(v, half_circle * (1.0 + 1e-12)))
    assert abs(above - below) <= 1e-10 and abs(below - math.pi**2 * r2 / 8.0) <= 1e-10


def test_segment_excess_keeps_its_digits_at_small_angles():
    # theta - sin(theta) cos(theta) = 2 theta^3 / 3 - 2 theta^5 / 15 + 4 theta^7 / 315 + O(theta^9):
    # the direct difference would lose about 1/theta^2 of its relative accuracy
    from nilwalk.rates import _segment_excess

    for theta in (1e-8, 1e-6, 1e-4, 1e-3):
        want = 2.0 * theta**3 / 3.0 - 2.0 * theta**5 / 15.0 + 4.0 * theta**7 / 315.0
        assert abs(_segment_excess(theta) - want) <= 1e-15 * want
    below, above = _segment_excess(math.nextafter(0.25, 0.0)), _segment_excess(0.25)
    assert abs(above - below) <= 1e-15 * above  # series and direct formula meet at the switch


def test_exact_rate_falls_back_to_the_optimizer():
    unit = QuadraticForms.from_sigma(np.eye(2))
    flat = StratifiedAlgebra((2, 1))  # layers (2, 1), zero bracket
    for alg, target in ((step3_filtered_algebra(), [0.5, -0.25, 0.2, 0.1]), (flat, [0.5, -0.25, 0.0])):
        assert exact_rate(alg, unit, target) is None
        bound = minimize_endpoint_rate(alg, unit, target, knots=4, restarts=2, seed=3)
        assert bound.method == "optimizer" and bound.increments is not None


def test_closed_form_route_does_not_import_scipy():
    code = (
        "import sys, numpy as np\n"
        "from nilwalk.algebra import heisenberg_algebra\n"
        "from nilwalk.rates import QuadraticForms, minimize_endpoint_rate\n"
        "b = minimize_endpoint_rate(heisenberg_algebra(), QuadraticForms.from_sigma(np.eye(2)), [1.0, 0.5, 0.3])\n"
        "assert b.method == 'closed_form', b\n"
        "assert 'scipy' not in sys.modules\n"
    )
    src = str(Path(nilwalk.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


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
