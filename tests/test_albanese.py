import numpy as np
import pytest

from nilwalk.albanese import (
    albanese_matrix,
    albanese_pipeline,
    asymptotic_direction,
    first_layer_form,
    harmonicity_residual,
    modified_harmonic_realization,
)
from nilwalk.algebra import abelian_algebra
from nilwalk.errors import DimensionMismatch, SingularSigma
from nilwalk.graph import (
    VoltageGraph,
    heisenberg_cayley,
    hexagonal,
    invariant_measure,
    z1_biased,
    z1_subdivided,
    zd_lattice,
)
from nilwalk.walk import clt_covariance_oracle

ALL_PRESETS = {
    "zd_lattice(1)": zd_lattice(1),
    "zd_lattice(2)": zd_lattice(2),
    "z1_biased(0.75)": z1_biased(0.75),
    "hexagonal": hexagonal(),
    "heisenberg_cayley": heisenberg_cayley(),
    "z1_subdivided": z1_subdivided(),
}

# a basis of integer cycles (coefficients on the oriented edges) per preset: on a
# one-vertex preset each loop pair is a cycle; on hexagonal() edge pair 0 closes
# the other two, and z1_subdivided() goes out on pair 0 and back on pair 1
CYCLES = {
    "zd_lattice(1)": [[1, -1]],
    "zd_lattice(2)": [[1, -1, 0, 0], [0, 0, 1, -1]],
    "z1_biased(0.75)": [[1, -1]],
    "hexagonal": [[-1, 1, 1, -1, 0, 0], [-1, 1, 0, 0, 1, -1]],
    "heisenberg_cayley": [[1, -1, 0, 0], [0, 0, 1, -1]],
    "z1_subdivided": [[1, -1, 1, -1]],
}


# ---------------------------------------------------------------------------
# Asymptotic direction
# ---------------------------------------------------------------------------

def test_direction_biased_loop():
    g = z1_biased(0.75)
    rho = asymptotic_direction(g, invariant_measure(g))
    assert np.allclose(rho, [0.5], atol=1e-15)


def test_direction_symmetric_presets():
    for g in (zd_lattice(2), heisenberg_cayley(), hexagonal(), z1_subdivided()):
        rho = asymptotic_direction(g, invariant_measure(g))
        assert np.abs(rho).max() <= 1e-15


def test_direction_biased_z2():
    # p(x+) = 0.4, p(x-) = 0.1, p(y+-) = 0.25: m-tilde-weighted voltage sum is (0.3, 0)
    pairs = [
        (0, 0, 0.4, 0.1, [1.0, 0.0]),
        (0, 0, 0.25, 0.25, [0.0, 1.0]),
    ]
    g = VoltageGraph.from_pairs(abelian_algebra(2), 1, pairs)
    rho = asymptotic_direction(g, invariant_measure(g))
    assert np.allclose(rho, [0.3, 0.0], atol=1e-15)


def test_direction_realization_independent():
    rng = np.random.default_rng(19)
    for g in (hexagonal(), z1_subdivided()):
        meas = invariant_measure(g)
        rho = asymptotic_direction(g, meas)
        phi = rng.normal(size=(g.num_vertices, g.algebra.layer_dims[0]))
        w = first_layer_form(g, phi)
        rho_via_form = np.einsum("e,ei->i", meas.m_tilde, w)
        assert np.abs(rho_via_form - rho).max() <= 1e-12


# ---------------------------------------------------------------------------
# First-layer form
# ---------------------------------------------------------------------------

def test_form_antisymmetry_and_cycle_holonomy():
    rng = np.random.default_rng(29)
    for name, g in ALL_PRESETS.items():
        phi = rng.normal(size=(g.num_vertices, g.algebra.layer_dims[0]))
        w = first_layer_form(g, phi)
        assert np.abs(w[g.inverse] + w).max() <= 1e-13
        # the cycle sum sees only the voltage holonomy, not the realization
        gamma1 = g.first_layer_voltages()
        for cyc in np.array(CYCLES[name], dtype=float):
            flux = np.bincount(g.terminus, cyc, g.num_vertices) - np.bincount(g.origin, cyc, g.num_vertices)
            assert np.array_equal(cyc[g.inverse], -cyc) and not flux.any()
            got = 0.5 * np.einsum("e,ei->i", cyc, w)
            want = 0.5 * np.einsum("e,ei->i", cyc, gamma1)
            assert np.abs(got - want).max() <= 1e-12


def test_hexagonal_cycle_holonomy_by_hand():
    g = hexagonal()
    phi0 = modified_harmonic_realization(g, np.zeros(2))
    w = first_layer_form(g, phi0)
    # pair 0 (voltage (1,0)) closes each cycle: the first runs out on pair 1 and
    # back on pair 0, i.e. holonomy (0,1) - (1,0) = (-1, 1)
    cycles = np.array(CYCLES["hexagonal"], dtype=float)
    holonomies = {tuple(0.5 * np.einsum("e,ei->i", c, w)) for c in cycles}
    assert holonomies == {(-1.0, 1.0), (-2.0, -1.0)} or len(holonomies) == 2


# ---------------------------------------------------------------------------
# Modified harmonic realization
# ---------------------------------------------------------------------------

def test_single_vertex_positions_are_zero():
    for g in (zd_lattice(2), z1_biased(0.6), heisenberg_cayley()):
        meas = invariant_measure(g)
        rho = asymptotic_direction(g, meas)
        phi0 = modified_harmonic_realization(g, rho)
        assert np.array_equal(phi0, np.zeros((1, g.algebra.layer_dims[0])))


def test_subdivided_line_positions():
    g = z1_subdivided()
    meas = invariant_measure(g)
    rho = asymptotic_direction(g, meas)
    phi0 = modified_harmonic_realization(g, rho)
    assert np.allclose(phi0, [[0.0], [0.5]], atol=1e-14)
    # positions are (V, d1): the (V,) column would broadcast silently
    with pytest.raises(DimensionMismatch, match=r"\(2, 1\)"):
        first_layer_form(g, phi0[:, 0])


def test_harmonicity_residual_all_presets():
    for name, g in ALL_PRESETS.items():
        meas = invariant_measure(g)
        rho = asymptotic_direction(g, meas)
        phi0 = modified_harmonic_realization(g, rho)
        assert harmonicity_residual(g, phi0, rho) <= 1e-10, name


# ---------------------------------------------------------------------------
# Covariance form
# ---------------------------------------------------------------------------

def test_sigma_zd_lattice():
    for d in (1, 2, 3):
        _, _, _, data = albanese_pipeline(zd_lattice(d))
        assert np.abs(data.sigma - np.eye(d) / d).max() <= 1e-14
        assert np.abs(data.sigma_inv - d * np.eye(d)).max() <= 1e-12


def test_sigma_biased_loop():
    _, rho, _, data = albanese_pipeline(z1_biased(0.75))
    assert abs(data.sigma[0, 0] - 0.75) <= 1e-14  # 4 q (1 - q)
    assert abs(rho[0] - 0.5) <= 1e-14


def test_sigma_subdivided():
    _, _, _, data = albanese_pipeline(z1_subdivided())
    assert abs(data.sigma[0, 0] - 0.25) <= 1e-14


def test_sigma_heisenberg():
    _, _, _, data = albanese_pipeline(heisenberg_cayley())
    assert np.abs(data.sigma - 0.5 * np.eye(2)).max() <= 1e-14


def test_sigma_hexagonal():
    # by-hand edge sum: (1/6) * 2 * [vv^T summed over the three translations]
    _, _, _, data = albanese_pipeline(hexagonal())
    want = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
    assert np.abs(data.sigma - want).max() <= 1e-14


def test_sigma_properties():
    for g in ALL_PRESETS.values():
        _, _, _, data = albanese_pipeline(g)
        assert np.array_equal(data.sigma, data.sigma.T)
        d1 = g.algebra.layer_dims[0]
        assert np.abs(data.sigma @ data.sigma_inv - np.eye(d1)).max() <= 1e-10
        assert data.residual <= 1e-10


def test_sigma_gauge_invariance():
    g = z1_subdivided()
    meas = invariant_measure(g)
    rho = asymptotic_direction(g, meas)
    phi0 = modified_harmonic_realization(g, rho)
    shifted = phi0 + 2.0  # dyadic shift, exact
    w0 = first_layer_form(g, phi0)
    w_shift = first_layer_form(g, shifted)
    assert np.array_equal(w0, w_shift)
    data = albanese_matrix(g, meas, phi0, rho)
    data_shift = albanese_matrix(g, meas, shifted, rho)
    assert np.array_equal(data.sigma, data_shift.sigma)


def test_sigma_invariant_under_relabeling():
    g = z1_subdivided()
    _, _, _, data = albanese_pipeline(g)
    perm = np.array([1, 0])
    relabeled = VoltageGraph(
        g.algebra, g.num_vertices, perm[g.origin], perm[g.terminus],
        g.inverse, g.prob, g.voltages,
    )
    meas2 = invariant_measure(relabeled)
    rho2 = asymptotic_direction(relabeled, meas2)
    phi2 = modified_harmonic_realization(relabeled, rho2)
    data2 = albanese_matrix(relabeled, meas2, phi2, rho2)
    assert np.abs(data2.sigma - data.sigma).max() <= 1e-12


def test_singular_sigma_when_voltages_do_not_span():
    # one loop pair inside a rank-2 layer: the form cannot be positive definite
    g = VoltageGraph.from_pairs(abelian_algebra(2), 1, [(0, 0, 0.5, 0.5, [1.0, 0.0])])
    meas = invariant_measure(g)
    rho = asymptotic_direction(g, meas)
    phi0 = modified_harmonic_realization(g, rho)
    with pytest.raises(SingularSigma):
        albanese_matrix(g, meas, phi0, rho)


# ---------------------------------------------------------------------------
# Monte Carlo covariance oracle
# ---------------------------------------------------------------------------

def test_oracle_single_step_closed_form():
    g = zd_lattice(1)
    meas, rho, phi0, data = (None, None, None, None)
    meas = invariant_measure(g)
    rho = asymptotic_direction(g, meas)
    phi0 = modified_harmonic_realization(g, rho)
    est, se = clt_covariance_oracle(g, phi0, rho, n_steps=1, samples=64, seed=3)
    assert np.array_equal(est, [[1.0]])  # every single step has squared length 1
    assert np.array_equal(se, [[0.0]])


def test_oracle_matches_sigma_on_all_presets():
    for name, g in ALL_PRESETS.items():
        meas, rho, phi0, data = albanese_pipeline(g)
        est, se = clt_covariance_oracle(g, phi0, rho, n_steps=10_000, samples=2000, seed=11)
        bound = 3.0 * np.maximum(se, 1e-6)
        assert np.all(np.abs(est - data.sigma) <= bound), name


def test_expected_centered_sum_growth_bound():
    # expectation form: E ||centered sum|| / sqrt(n) stays below twice the
    # largest first-layer edge increment of the harmonic realization
    from nilwalk.walk import batch_centered_sums

    for name, g in ALL_PRESETS.items():
        meas, rho, phi0, data = albanese_pipeline(g)
        w0 = first_layer_form(g, phi0)
        c1 = np.linalg.norm(w0, axis=1).max()
        for n in (100, 1000, 10000):
            sums = batch_centered_sums(g, phi0, rho, n, samples=400, seed=5)
            mean_norm = np.linalg.norm(sums, axis=1).mean() / np.sqrt(n)
            assert mean_norm <= 2.0 * c1, (name, n)


def test_deterministic_walk_bound():
    # per-path bound: the centered sum can never exceed n times the largest
    # centered increment
    from nilwalk.walk import batch_centered_sums

    g = z1_biased(0.75)
    meas, rho, phi0, data = albanese_pipeline(g)
    wbar = first_layer_form(g, phi0) - rho[None, :]
    cap = np.linalg.norm(wbar, axis=1).max()
    sums = batch_centered_sums(g, phi0, rho, 500, samples=100, seed=9)
    assert np.linalg.norm(sums, axis=1).max() <= 500 * cap + 1e-12
