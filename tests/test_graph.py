import numpy as np
import pytest

from nilwalk.albanese import albanese_pipeline
from nilwalk.algebra import abelian_algebra
from nilwalk.errors import (
    InvolutionViolation,
    NotStronglyConnected,
    StochasticityViolation,
    VoltageInverseViolation,
)
from nilwalk.graph import (
    PRESETS,
    VoltageGraph,
    heisenberg_cayley,
    hexagonal,
    homological_direction,
    invariant_measure,
    validate,
    z1_biased,
    z1_subdivided,
    zd_lattice,
)


def all_presets():
    return [
        zd_lattice(1),
        zd_lattice(2),
        z1_biased(0.75),
        hexagonal(),
        heisenberg_cayley(),
        z1_subdivided(),
    ]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_presets_validate():
    for g in all_presets():
        validate(g)


def test_stochasticity_violation():
    g = VoltageGraph.from_pairs(abelian_algebra(1), 1, [(0, 0, 0.45, 0.45, [1.0])])
    with pytest.raises(StochasticityViolation, match="vertex 0"):
        validate(g)
    g = VoltageGraph.from_pairs(abelian_algebra(1), 1, [(0, 0, 1.0, -0.0, [1.0])])
    with pytest.raises(StochasticityViolation):
        validate(g)


def test_not_strongly_connected():
    # two vertices, each with only a self-loop pair: disjoint components
    pairs = [
        (0, 0, 0.5, 0.5, [1.0]),
        (1, 1, 0.5, 0.5, [1.0]),
    ]
    g = VoltageGraph.from_pairs(abelian_algebra(1), 2, pairs)
    with pytest.raises(NotStronglyConnected, match="vertex 1"):
        validate(g)


def test_involution_violation():
    base = zd_lattice(1)
    g = VoltageGraph(
        base.algebra, 1, base.origin, base.terminus,
        np.array([0, 1]),  # self-paired edges
        base.prob, base.voltages,
    )
    with pytest.raises(InvolutionViolation):
        validate(g)


def test_voltage_inverse_violation():
    base = zd_lattice(1)
    volts = base.voltages.copy()
    volts[1] = [2.0]  # should be -1
    g = VoltageGraph(base.algebra, 1, base.origin, base.terminus, base.inverse, base.prob, volts)
    with pytest.raises(VoltageInverseViolation, match="edge"):
        validate(g)


# ---------------------------------------------------------------------------
# Invariant measure
# ---------------------------------------------------------------------------

def test_single_vertex_measure():
    for g in (zd_lattice(2), z1_biased(0.6), heisenberg_cayley()):
        meas = invariant_measure(g)
        assert np.array_equal(meas.m, [1.0])


def test_hexagonal_measure_split():
    meas = invariant_measure(hexagonal())
    assert np.allclose(meas.m, [0.5, 0.5], atol=1e-15)


def test_two_vertex_asymmetric_measure():
    # A: loop pair 1/4 + 1/4, edge A->B at 1/2; B: edge B->A at probability 1.
    # Solving m P = m by hand gives m = (2/3, 1/3).
    pairs = [
        (0, 0, 0.25, 0.25, [1.0]),
        (0, 1, 0.5, 1.0, [0.0]),
    ]
    g = VoltageGraph.from_pairs(abelian_algebra(1), 2, pairs)
    validate(g)
    meas = invariant_measure(g)
    assert np.allclose(meas.m, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_periodic_star_measure_beyond_512_vertices():
    # centre 0 joined to 512 leaves, with a second edge (voltage 1) to leaf 1:
    # every step alternates centre and leaf, so the chain has period 2 and the
    # centre holds exactly half the stationary mass
    leaves = 512
    pairs = [(0, 1, 1.0 / (leaves + 1), 0.5, [1.0])]
    pairs += [(0, j, 1.0 / (leaves + 1), 0.5 if j == 1 else 1.0, [0.0]) for j in range(1, leaves + 1)]
    g = VoltageGraph.from_pairs(abelian_algebra(1), leaves + 1, pairs)
    validate(g)
    meas = invariant_measure(g)
    want = np.full(leaves + 1, 0.5 / (leaves + 1))
    want[0], want[1] = 0.5, 1.0 / (leaves + 1)
    assert np.abs(meas.m - want).max() <= 1e-14
    _, _, _, data = albanese_pipeline(g)
    assert data.residual <= 1e-10 and data.sigma[0, 0] > 0.0


def test_edge_measure_identities():
    for g in all_presets():
        meas = invariant_measure(g)
        assert abs(meas.m_tilde.sum() - 1.0) <= 1e-14
        inflow = np.zeros(g.num_vertices)
        np.add.at(inflow, g.terminus, meas.m_tilde)
        assert np.abs(inflow - meas.m).max() <= 1e-14


def test_measure_permutation_equivariance():
    g = z1_subdivided()
    meas = invariant_measure(g)
    perm = np.array([1, 0])
    relabeled = VoltageGraph(
        g.algebra, g.num_vertices,
        perm[g.origin], perm[g.terminus], g.inverse, g.prob, g.voltages,
    )
    validate(relabeled)
    meas2 = invariant_measure(relabeled)
    assert np.abs(meas2.m[perm] - meas.m).max() <= 1e-14


# ---------------------------------------------------------------------------
# Homological direction and symmetry
# ---------------------------------------------------------------------------

def test_biased_loop_direction():
    g = z1_biased(0.75)
    chain = homological_direction(g, invariant_measure(g))
    assert np.allclose(chain.coeff, [0.5, -0.5], atol=1e-15)


def test_symmetric_presets_have_zero_direction():
    for g in (zd_lattice(2), hexagonal(), heisenberg_cayley(), z1_subdivided()):
        meas = invariant_measure(g)
        chain = homological_direction(g, meas)
        assert np.abs(chain.coeff).max() <= 1e-14


def test_direction_boundary_vanishes():
    for g in all_presets():
        meas = invariant_measure(g)
        chain = homological_direction(g, meas)
        assert np.abs(chain.boundary(g)).max() <= 1e-14


def test_presets_registry():
    assert set(PRESETS) == {"zd_lattice", "z1_biased", "hexagonal", "heisenberg_cayley", "z1_subdivided"}
