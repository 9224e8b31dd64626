"""Finite quotient graphs with group-valued edge voltages.

Edges are stored as an oriented list carrying origin, terminus, transition
probability, a voltage (group element in log coordinates) and an explicit
fixpoint-free involution pairing each edge with its reverse.  The covering
graph itself is never materialized: a walk on the cover is a walk on this
quotient together with a running deck element obtained by multiplying edge
voltages.

The derived objects of interest are edge-indexed, which is why an oriented
edge list (rather than an adjacency matrix) is the primary representation:
the stationary vertex measure ``m``, the edge measure ``m_tilde(e) =
p(e) m(o(e))``, the homological direction (an antisymmetric 1-chain), and a
homology basis from a deterministic spanning tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import StratifiedAlgebra, abelian_algebra, heisenberg_algebra
from .errors import (
    DimensionMismatch,
    InvolutionViolation,
    NotStronglyConnected,
    SingularSystem,
    StochasticityViolation,
    VoltageInverseViolation,
)

_DENSE_SOLVE_LIMIT = 512
_POWER_ITER_TOL = 1e-14


@dataclass(frozen=True)
class VoltageGraph:
    algebra: StratifiedAlgebra
    num_vertices: int
    origin: np.ndarray     # (E,) int
    terminus: np.ndarray   # (E,) int
    inverse: np.ndarray    # (E,) int, index of the reversed edge
    prob: np.ndarray       # (E,) float, out-transition probabilities
    voltages: np.ndarray   # (E, dim) log coordinates of edge voltages

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=np.int64))
        object.__setattr__(self, "terminus", np.asarray(self.terminus, dtype=np.int64))
        object.__setattr__(self, "inverse", np.asarray(self.inverse, dtype=np.int64))
        object.__setattr__(self, "prob", np.asarray(self.prob, dtype=float))
        object.__setattr__(self, "voltages", np.asarray(self.voltages, dtype=float))
        e = len(self.origin)
        shapes = (self.terminus.shape, self.inverse.shape, self.prob.shape)
        if any(s != (e,) for s in shapes) or self.voltages.shape != (e, self.algebra.dim):
            raise DimensionMismatch("edge arrays have inconsistent shapes")

    @property
    def num_edges(self) -> int:
        return len(self.origin)

    @cached_property
    def out_edges(self) -> list[np.ndarray]:
        """Edge ids leaving each vertex, in ascending edge order (deterministic)."""
        return [np.nonzero(self.origin == x)[0] for x in range(self.num_vertices)]

    @cached_property
    def step_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(cuts, table)``: draw the next edge from a uniform ``u`` by table look-up.

        ``cuts`` merges every vertex's cumulative out-probabilities (in
        ``out_edges`` order), except each vertex's last one, into one sorted
        array of T <= E - V values.  ``table[v, b]`` (V x (T+1)) is the edge
        vertex ``v`` takes when ``u`` falls in bucket ``b = searchsorted(cuts,
        u, side="right")``: the first out-edge whose cumulative probability
        exceeds ``u``, or the last out-edge if none does.  Each vertex's own
        cuts are among ``cuts``, so the edge is constant on every bucket.
        """
        inner = [np.cumsum(self.prob[ids])[:-1] for ids in self.out_edges]
        cuts = np.unique(np.concatenate(inner))
        lows = np.concatenate([[-np.inf], cuts])  # bucket b is [lows[b], lows[b + 1])
        table = np.stack(
            [ids[np.searchsorted(c, lows, side="right")] for ids, c in zip(self.out_edges, inner)]
        )
        return cuts, table

    @classmethod
    def from_pairs(cls, algebra: StratifiedAlgebra, num_vertices: int, pairs) -> "VoltageGraph":
        """Build from unordered edge pairs.

        Each pair is ``(o, t, p_forward, p_backward, voltage)`` and contributes
        edges ``2i`` (o -> t, +voltage) and ``2i + 1`` (t -> o, -voltage).
        """
        origin, terminus, inverse, prob, volts = [], [], [], [], []
        for idx, (o, t, p_fwd, p_bwd, voltage) in enumerate(pairs):
            v = algebra.check_vector(np.asarray(voltage, dtype=float))
            origin += [o, t]
            terminus += [t, o]
            inverse += [2 * idx + 1, 2 * idx]
            prob += [p_fwd, p_bwd]
            volts += [v, -v]
        return cls(algebra, num_vertices, origin, terminus, inverse, prob, np.array(volts))

    def first_layer_voltages(self) -> np.ndarray:
        return self.voltages[:, : self.algebra.layer_dims[0]]

    def transition_matrix(self) -> np.ndarray:
        p = np.zeros((self.num_vertices, self.num_vertices))
        np.add.at(p, (self.origin, self.terminus), self.prob)
        return p


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(graph: VoltageGraph, tol: float = 1e-12) -> None:
    """Check all voltage-graph invariants; raise a named error on the first failure."""
    if np.any(graph.origin < 0) or np.any(graph.origin >= graph.num_vertices):
        raise InvolutionViolation("edge origin out of vertex range")
    if np.any(graph.terminus < 0) or np.any(graph.terminus >= graph.num_vertices):
        raise InvolutionViolation("edge terminus out of vertex range")

    bad = np.nonzero(graph.prob <= 0)[0]
    if bad.size:
        raise StochasticityViolation(f"edge {bad[0]}: transition probability {graph.prob[bad[0]]} is not positive")
    sums = np.zeros(graph.num_vertices)
    np.add.at(sums, graph.origin, graph.prob)
    bad = np.nonzero(np.abs(sums - 1.0) > tol)[0]
    if bad.size:
        raise StochasticityViolation(f"vertex {bad[0]}: out-probabilities sum to {sums[bad[0]]!r}")

    inv = graph.inverse
    e = graph.num_edges
    if np.any(inv < 0) or np.any(inv >= e):
        raise InvolutionViolation("inverse index out of range")
    if np.any(inv == np.arange(e)):
        k = int(np.nonzero(inv == np.arange(e))[0][0])
        raise InvolutionViolation(f"edge {k} is its own inverse")
    if np.any(inv[inv] != np.arange(e)):
        k = int(np.nonzero(inv[inv] != np.arange(e))[0][0])
        raise InvolutionViolation(f"edge {k}: reversal is not an involution")
    if np.any(graph.origin[inv] != graph.terminus) or np.any(graph.terminus[inv] != graph.origin):
        k = int(np.nonzero((graph.origin[inv] != graph.terminus) | (graph.terminus[inv] != graph.origin))[0][0])
        raise InvolutionViolation(f"edge {k}: reversed edge does not swap origin and terminus")

    defect = np.abs(graph.voltages[inv] + graph.voltages).max(axis=1)
    bad = np.nonzero(defect > tol)[0]
    if bad.size:
        raise VoltageInverseViolation(f"edge {bad[0]}: reversed voltage is not the group inverse")

    for direction in ("forward", "backward"):
        heads = graph.terminus if direction == "forward" else graph.origin
        tails = graph.origin if direction == "forward" else graph.terminus
        seen = np.zeros(graph.num_vertices, dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            v = stack.pop()
            for t in heads[tails == v]:
                if not seen[t]:
                    seen[t] = True
                    stack.append(int(t))
        if not seen.all():
            missing = int(np.nonzero(~seen)[0][0])
            raise NotStronglyConnected(f"vertex {missing} unreachable ({direction} direction)")


# ---------------------------------------------------------------------------
# Invariant measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantMeasure:
    m: np.ndarray        # (V,) stationary vertex measure, sums to 1
    m_tilde: np.ndarray  # (E,) edge measure p(e) m(o(e))


def invariant_measure(graph: VoltageGraph, tol: float = _POWER_ITER_TOL) -> InvariantMeasure:
    """Stationary distribution of the quotient chain plus the edge measure.

    Dense solve of ``(P^T - I) m = 0`` with the normalization row for small
    graphs; power iteration beyond ``512`` vertices.
    """
    p = graph.transition_matrix()
    v = graph.num_vertices
    if v == 1:
        m = np.ones(1)
    elif v <= _DENSE_SOLVE_LIMIT:
        a = p.T - np.eye(v)
        a[0, :] = 1.0
        b = np.zeros(v)
        b[0] = 1.0
        try:
            m = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"stationary solve failed: {exc}") from exc
    else:
        m = np.full(v, 1.0 / v)
        for _ in range(1_000_000):
            nxt = m @ p
            nxt /= nxt.sum()
            if np.abs(nxt - m).max() <= tol:
                m = nxt
                break
            m = nxt
        else:
            raise SingularSystem("power iteration did not converge")
    if np.any(m <= 0):
        raise SingularSystem("stationary distribution is not strictly positive")
    m = m / m.sum()
    residual = np.abs(m @ p - m).max()
    if residual > 1e-12:
        raise SingularSystem(f"stationary residual {residual} too large")
    return InvariantMeasure(m=m, m_tilde=graph.prob * m[graph.origin])


def is_symmetric(graph: VoltageGraph, meas: InvariantMeasure, tol: float = 1e-14) -> bool:
    """True iff the edge measure is reversal-invariant: m_tilde(e) = m_tilde(e-bar)."""
    return bool(np.abs(meas.m_tilde - meas.m_tilde[graph.inverse]).max() <= tol)


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneChain:
    """Real 1-chain as an antisymmetric function on oriented edges."""

    coeff: np.ndarray  # (E,), coeff[inverse(e)] = -coeff[e]

    def boundary(self, graph: VoltageGraph) -> np.ndarray:
        """Net flux per vertex: sum over e of coeff(e) (t(e) - o(e))."""
        flux = np.zeros(graph.num_vertices)
        np.add.at(flux, graph.terminus, self.coeff)
        np.add.at(flux, graph.origin, -self.coeff)
        return flux

    def pair_with_form(self, form: np.ndarray) -> np.ndarray:
        """Pairing with an antisymmetric edge function (form[e-bar] = -form[e]).

        The chain is sum over edge pairs of coeff(e) e, i.e. half the sum over
        all oriented edges.
        """
        return 0.5 * np.einsum("e,e...->...", self.coeff, form)


def homological_direction(graph: VoltageGraph, meas: InvariantMeasure) -> OneChain:
    """The cycle sum of m_tilde(e) e, antisymmetrized over edge reversal.

    Its boundary vanishes by stationarity, and it is the zero chain exactly
    when the walk is m-symmetric.
    """
    return OneChain(coeff=meas.m_tilde - meas.m_tilde[graph.inverse])


@dataclass(frozen=True)
class HomologyBasis:
    tree_edges: np.ndarray   # edge ids in the spanning tree (both orientations)
    cycles: list             # integer coefficient vectors (E,), one per non-tree pair
    betti: int

    def __post_init__(self):
        assert len(self.cycles) == self.betti


def cycle_basis(graph: VoltageGraph) -> HomologyBasis:
    """Fundamental cycles of a deterministic BFS spanning tree rooted at vertex 0.

    The BFS explores out-edges in ascending edge order (lowest-index
    tie-breaking), so the basis is reproducible across runs and platforms.
    """
    v = graph.num_vertices
    parent_edge = np.full(v, -1, dtype=np.int64)  # tree edge parent -> vertex
    visited = np.zeros(v, dtype=bool)
    visited[0] = True
    queue = [0]
    tree: list[int] = []
    while queue:
        x = queue.pop(0)
        for e in graph.out_edges[x]:
            t = int(graph.terminus[e])
            if not visited[t]:
                visited[t] = True
                parent_edge[t] = e
                tree += [int(e), int(graph.inverse[e])]
                queue.append(t)

    def path_from_root(x: int) -> list[int]:
        edges = []
        while parent_edge[x] >= 0:
            e = int(parent_edge[x])
            edges.append(e)
            x = int(graph.origin[e])
        edges.reverse()
        return edges

    tree_set = set(tree)
    cycles = []
    for e in range(graph.num_edges):
        ebar = int(graph.inverse[e])
        if e in tree_set or e > ebar:
            continue  # one representative per non-tree pair
        coeff = np.zeros(graph.num_edges, dtype=np.int64)

        def add_edge(edge_id: int, sign: int, coeff=coeff):
            coeff[edge_id] += sign
            coeff[graph.inverse[edge_id]] -= sign

        add_edge(e, 1)
        for te in path_from_root(int(graph.origin[e])):
            add_edge(te, 1)
        for te in path_from_root(int(graph.terminus[e])):
            add_edge(te, -1)
        cycles.append(coeff)

    betti = graph.num_edges // 2 - v + 1
    assert len(cycles) == betti
    return HomologyBasis(tree_edges=np.array(sorted(tree_set), dtype=np.int64), cycles=cycles, betti=betti)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def zd_lattice(d: int) -> VoltageGraph:
    """Simple random walk on Z^d: one vertex, d loop pairs with unit voltages."""
    alg = abelian_algebra(d)
    pairs = []
    for i in range(d):
        v = np.zeros(d)
        v[i] = 1.0
        pairs.append((0, 0, 1.0 / (2 * d), 1.0 / (2 * d), v))
    return VoltageGraph.from_pairs(alg, 1, pairs)


def z1_biased(q: float) -> VoltageGraph:
    """Walk on Z stepping +1 with probability q and -1 with probability 1 - q."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    return VoltageGraph.from_pairs(abelian_algebra(1), 1, [(0, 0, q, 1.0 - q, [1.0])])


def hexagonal() -> VoltageGraph:
    """Hexagonal lattice: two vertices joined by three edge pairs at p = 1/3.

    Voltages are the three Z^2 translations with zero sum, so the walk is
    symmetric with zero asymptotic direction.
    """
    pairs = [
        (0, 1, 1.0 / 3.0, 1.0 / 3.0, [1.0, 0.0]),
        (0, 1, 1.0 / 3.0, 1.0 / 3.0, [0.0, 1.0]),
        (0, 1, 1.0 / 3.0, 1.0 / 3.0, [-1.0, -1.0]),
    ]
    return VoltageGraph.from_pairs(abelian_algebra(2), 2, pairs)


def heisenberg_cayley() -> VoltageGraph:
    """Simple random walk on the Heisenberg Cayley graph of exp(+-X), exp(+-Y)."""
    alg = heisenberg_algebra()
    pairs = [
        (0, 0, 0.25, 0.25, [1.0, 0.0, 0.0]),
        (0, 0, 0.25, 0.25, [0.0, 1.0, 0.0]),
    ]
    return VoltageGraph.from_pairs(alg, 1, pairs)


def z1_subdivided() -> VoltageGraph:
    """Period-2 line: two vertices A, B with A->B trivial and B->A unit voltage."""
    pairs = [
        (0, 1, 0.5, 0.5, [0.0]),
        (1, 0, 0.5, 0.5, [1.0]),
    ]
    return VoltageGraph.from_pairs(abelian_algebra(1), 2, pairs)


PRESETS = {
    "zd_lattice": zd_lattice,
    "z1_biased": z1_biased,
    "hexagonal": hexagonal,
    "heisenberg_cayley": heisenberg_cayley,
    "z1_subdivided": z1_subdivided,
}
