"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the library's own code paths: group
products are checked against unipotent matrix arithmetic, quadratic-form
conjugates against grid suprema, and walk distributions against closed forms.
The graph JSON writer is the reference that the reader's round-trip tests use.
"""

from __future__ import annotations

import numpy as np
import pytest

from nilwalk.algebra import StratifiedAlgebra, heisenberg_algebra
from nilwalk.experiments import algebra_to_spec
from nilwalk.graph import VoltageGraph


# ---------------------------------------------------------------------------
# Unipotent matrix oracles
# ---------------------------------------------------------------------------

def unipotent_basis(n: int):
    """Strictly-upper-triangular basis of the n x n unipotent group's algebra.

    Ordered layer by layer: span-1 entries E_{i,i+1} first, then span-2, etc.
    Returns (layer_dims, list of basis matrices).
    """
    layer_dims = tuple(n - 1 - s for s in range(n - 1))
    basis = []
    for span in range(1, n):
        for i in range(n - span):
            m = np.zeros((n, n))
            m[i, i + span] = 1.0
            basis.append(m)
    return layer_dims, basis


def unipotent_algebra(n: int) -> StratifiedAlgebra:
    """Structure constants computed from matrix commutators (independent route)."""
    layer_dims, basis = unipotent_basis(n)
    dim = len(basis)
    flat = np.array([b.ravel() for b in basis])  # (dim, n*n)
    entries = []
    for i in range(dim):
        for j in range(dim):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            coeffs = flat @ comm.ravel()  # basis matrices are orthonormal in Frobenius
            for k in np.nonzero(np.abs(coeffs) > 1e-15)[0]:
                entries.append((i, j, int(k), float(coeffs[k])))
    return StratifiedAlgebra(layer_dims, entries)


def unipotent_cayley(n: int) -> VoltageGraph:
    """Simple random walk on the n x n unipotent group, generated by exp(+-E_{i,i+1})."""
    alg = unipotent_algebra(n)
    pairs = []
    for i in range(n - 1):
        v = np.zeros(alg.dim)
        v[i] = 1.0
        pairs.append((0, 0, 0.5 / (n - 1), 0.5 / (n - 1), v))
    return VoltageGraph.from_pairs(alg, 1, pairs)


def unipotent_exp(n: int, coords: np.ndarray) -> np.ndarray:
    _, basis = unipotent_basis(n)
    m = sum(c * b for c, b in zip(coords, basis))
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, n):
        term = term @ m / k
        out = out + term
    return out


def unipotent_log(n: int, u: np.ndarray) -> np.ndarray:
    _, basis = unipotent_basis(n)
    nil = u - np.eye(n)
    out = np.zeros((n, n))
    term = np.eye(n)
    for k in range(1, n):
        term = term @ nil
        out = out + ((-1) ** (k + 1)) * term / k
    flat = np.array([b.ravel() for b in basis])
    return flat @ out.ravel()


def heisenberg_matrix_product_log(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(exp(a) exp(b)) computed by 3x3 unipotent matrix multiplication."""
    return unipotent_log(3, unipotent_exp(3, a) @ unipotent_exp(3, b))


def heisenberg_hexagonal(p_out=(1 / 3, 1 / 3, 1 / 3), p_back=(1 / 3, 1 / 3, 1 / 3)) -> VoltageGraph:
    """A two-vertex Heisenberg cover: ``hexagonal``'s three edge pairs 0 -> 1 with the
    voltages exp X, exp Y and exp(-X - Y + 0.3 Z), taken with ``p_out`` and reversed with ``p_back``.

    Unless both are uniform, the position of vertex 1 and the centered
    increments are not dyadic, and the second layers of the edges seen from
    the positions of their ends differ from the voltages'.
    """
    voltages = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 0.3])
    pairs = [(0, 1, p, q, v) for p, q, v in zip(p_out, p_back, voltages)]
    return VoltageGraph.from_pairs(heisenberg_algebra(), 2, pairs)


def unipotent_two_vertex() -> VoltageGraph:
    """A two-vertex cover of the 4x4 unipotent group (step 3): four edge pairs 0 -> 1 at p = 1/4 with
    the voltages exp E12, exp E23, exp(E34 + E13 / 2) and the identity.

    Vertex 1 sits at phi(1) = -(1, 1, 1) / 4, off the identity, so the edges
    seen from the positions of their ends differ from the voltages.
    """
    alg = unipotent_algebra(4)
    voltages = np.zeros((4, alg.dim))
    voltages[0, 0] = voltages[1, 1] = voltages[2, 2] = 1.0
    voltages[2, 3] = 0.5
    return VoltageGraph.from_pairs(alg, 2, [(0, 1, 0.25, 0.25, v) for v in voltages])


# ---------------------------------------------------------------------------
# Stream reference
# ---------------------------------------------------------------------------

def philox_stream(seed: int, index: int) -> np.random.Generator:
    """Stream (seed, index) of the randomness contract, built directly: Philox keyed by [seed, index]."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# Graph JSON writer
# ---------------------------------------------------------------------------

def graph_to_dict(graph: VoltageGraph) -> dict:
    """The graph as a document of the JSON schema that ``graph_from_dict`` reads."""
    return {
        "algebra": algebra_to_spec(graph.algebra),
        "vertices": int(graph.num_vertices),
        "edges": [
            {
                "o": int(graph.origin[e]),
                "t": int(graph.terminus[e]),
                "inv": int(graph.inverse[e]),
                "p": float(graph.prob[e]),
                "voltage": [float(x) for x in graph.voltages[e]],
            }
            for e in range(graph.num_edges)
        ],
    }


# ---------------------------------------------------------------------------
# Example algebras
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def heisenberg() -> StratifiedAlgebra:
    return heisenberg_algebra()


def step3_filtered_algebra() -> StratifiedAlgebra:
    """Step-3 algebra with a non-graded table: [X1, X2] = X3 + X4, [X1, X3] = X4.

    Layers (2, 1, 1).  The original bracket has support across layers 2 and 3,
    so the limit (graded) structure genuinely differs from it.
    """
    entries = [
        (0, 1, 2, 1.0), (1, 0, 2, -1.0),
        (0, 1, 3, 1.0), (1, 0, 3, -1.0),
        (0, 2, 3, 1.0), (2, 0, 3, -1.0),
    ]
    return StratifiedAlgebra((2, 1, 1), entries)


@pytest.fixture(scope="session")
def step3_filtered() -> StratifiedAlgebra:
    return step3_filtered_algebra()


# ---------------------------------------------------------------------------
# Grid-sup oracle for the convex conjugate
# ---------------------------------------------------------------------------

def grid_sup_conjugate(sigma, lam, lo=-10.0, hi=10.0, resolution=1e-3):
    """Brute-force sup over the grid of <lam, chi> - 0.5 chi' sigma chi.

    For diagonal sigma the objective separates, so the per-axis scan equals
    the sup over the full product grid exactly; non-diagonal sigma uses a
    dense mesh (keep the grid modest in that case).
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    d = sigma.shape[0]
    npts = int(round((hi - lo) / resolution)) + 1
    axis = np.linspace(lo, hi, npts)
    if d == 1:
        return float(np.max(lam[0] * axis - 0.5 * sigma[0, 0] * axis**2))
    off_diag = sigma - np.diag(np.diag(sigma))
    if np.abs(off_diag).max() == 0.0:
        return float(sum(np.max(lam[i] * axis - 0.5 * sigma[i, i] * axis**2) for i in range(d)))
    if d != 2:
        raise ValueError("dense grid oracle implemented for d <= 2 only")
    x, y = np.meshgrid(axis, axis, indexing="ij")
    quad = 0.5 * (sigma[0, 0] * x**2 + 2 * sigma[0, 1] * x * y + sigma[1, 1] * y**2)
    return float(np.max(lam[0] * x + lam[1] * y - quad))
