"""Asymptotic direction, modified harmonic realization, and Albanese matrices.

The pipeline solves, on the finite quotient graph, the linear system that
characterizes the modified harmonic realization: at every vertex the
p-weighted mean of the first-layer edge increments

    w(e) = log(voltage(e))|_1 + phi_1(t(e)) - phi_1(o(e))

equals the asymptotic direction rho.  The quadratic form on harmonic
1-forms then yields the d1 x d1 matrix

    Sigma_ij = sum_e m_tilde(e) w_i(e) w_j(e) - rho_i rho_j,

whose inverse is the Gram matrix of the flat metric entering the rate
functions.  Higher-layer position coordinates are set to zero: every
quantity computed downstream reads only first-layer projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSigma, SingularSystem
from .graph import InvariantMeasure, VoltageGraph

_PD_TOL = 1e-12
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Realization:
    """Positions of the fundamental-domain vertex lifts, base vertex at the identity."""

    graph: VoltageGraph
    positions: np.ndarray  # (V, dim) log coordinates

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        expected = (self.graph.num_vertices, self.graph.algebra.dim)
        if self.positions.shape != expected:
            raise ValueError(f"positions must have shape {expected}, got {self.positions.shape}")

    @property
    def first_layer(self) -> np.ndarray:
        return self.positions[:, : self.graph.algebra.layer_dims[0]]


def realization_from_first_layer(graph: VoltageGraph, phi1: np.ndarray) -> Realization:
    """Embed per-vertex first-layer coordinates as positions with zero higher layers."""
    phi1 = np.asarray(phi1, dtype=float)
    positions = np.zeros((graph.num_vertices, graph.algebra.dim))
    positions[:, : graph.algebra.layer_dims[0]] = phi1
    return Realization(graph=graph, positions=positions)


def first_layer_form(graph: VoltageGraph, realization: Realization) -> np.ndarray:
    """Per-edge first-layer increments w(e); antisymmetric under edge reversal."""
    phi1 = realization.first_layer
    return graph.first_layer_voltages() + phi1[graph.terminus] - phi1[graph.origin]


def asymptotic_direction(graph: VoltageGraph, meas: InvariantMeasure) -> np.ndarray:
    """Drift vector rho: the m_tilde-weighted sum of first-layer voltage logs.

    The realization-dependent terms of w(e) cancel by stationarity, so the sum
    over voltages alone already gives the realization-independent value.
    """
    return np.einsum("e,ei->i", meas.m_tilde, graph.first_layer_voltages())


def harmonicity_residual(graph: VoltageGraph, realization: Realization, rho: np.ndarray) -> float:
    """Max over vertices of || sum_e p(e) w(e) - rho ||."""
    w = first_layer_form(graph, realization)
    d1 = graph.algebra.layer_dims[0]
    mean = np.zeros((graph.num_vertices, d1))
    np.add.at(mean, graph.origin, graph.prob[:, None] * w)
    return float(np.linalg.norm(mean - rho[None, :], axis=1).max())


def modified_harmonic_realization(
    graph: VoltageGraph,
    meas: InvariantMeasure,
    rho: np.ndarray,
) -> Realization:
    """Solve the per-vertex mean-increment equations for the vertex positions.

    Unknowns are the first-layer coordinates phi_1(v); the kernel of the
    system is the constants and is removed by pinning phi_1(0) = 0, the
    vertex every walk starts from.
    """
    v = graph.num_vertices
    d1 = graph.algebra.layer_dims[0]
    p = graph.transition_matrix()
    a = p - np.eye(v)
    rhs = np.tile(rho, (v, 1)).astype(float)
    np.add.at(rhs, graph.origin, -graph.prob[:, None] * graph.first_layer_voltages())
    a[0, :] = 0.0
    a[0, 0] = 1.0
    rhs[0, :] = 0.0
    try:
        phi1 = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"harmonic solve failed: {exc}") from exc
    realization = realization_from_first_layer(graph, phi1)
    residual = harmonicity_residual(graph, realization, rho)
    if residual > _RESIDUAL_TOL:
        raise SingularSystem(f"harmonicity residual {residual} exceeds {_RESIDUAL_TOL}")
    return realization


@dataclass(frozen=True)
class AlbaneseData:
    rho: np.ndarray        # (d1,) asymptotic direction
    sigma: np.ndarray      # (d1, d1) covariance form
    sigma_inv: np.ndarray  # (d1, d1) Gram matrix of the flat metric
    harmonic: Realization
    residual: float        # harmonicity defect of the realization

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho.tolist(),
            "sigma": self.sigma.tolist(),
            "sigma_inv": self.sigma_inv.tolist(),
            "residual": self.residual,
            "positions_first_layer": self.harmonic.first_layer.tolist(),
        }


def albanese_matrix(
    graph: VoltageGraph,
    meas: InvariantMeasure,
    phi0: Realization,
    rho: np.ndarray,
) -> AlbaneseData:
    """Covariance form of the modified-harmonic 1-form components, and its inverse."""
    w0 = first_layer_form(graph, phi0)
    sigma = np.einsum("e,ei,ej->ij", meas.m_tilde, w0, w0) - np.outer(rho, rho)
    eigvals = np.linalg.eigvalsh(sigma)
    if eigvals.min() <= _PD_TOL * max(1.0, eigvals.max()):
        raise SingularSigma(
            "covariance form is singular: first-layer voltages do not span the layer"
        )
    sigma_inv = np.linalg.inv(sigma)
    residual = harmonicity_residual(graph, phi0, rho)
    return AlbaneseData(rho=rho, sigma=sigma, sigma_inv=sigma_inv, harmonic=phi0, residual=residual)


def albanese_pipeline(graph: VoltageGraph):
    """Convenience: measure, direction, harmonic realization, Albanese data."""
    from .graph import invariant_measure

    meas = invariant_measure(graph)
    rho = asymptotic_direction(graph, meas)
    phi0 = modified_harmonic_realization(graph, meas, rho)
    data = albanese_matrix(graph, meas, phi0, rho)
    return meas, rho, phi0, data
