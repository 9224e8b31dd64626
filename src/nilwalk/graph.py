"""Finite quotient graphs with group-valued edge voltages.

Edges are stored as an oriented list carrying origin, terminus, transition
probability, a voltage (group element in log coordinates) and an explicit
fixpoint-free involution pairing each edge with its reverse.  The covering
graph itself is never materialized: a walk on the cover is a walk on this
quotient together with a running deck element obtained by multiplying edge
voltages.

The derived objects of interest are edge-indexed, which is why an oriented
edge list (rather than an adjacency matrix) is the primary representation:
the stationary vertex measure ``m`` and the edge measure ``m_tilde(e) =
p(e) m(o(e))``.

A graph checks itself when it is built: the constructor raises a named
``GraphInvariantViolation`` on the first broken invariant (vertex ranges,
positive out-probabilities summing to 1 at each vertex, a fixpoint-free
reversal involution carrying inverse voltages, strong connectivity), so every
``VoltageGraph`` object is a valid quotient graph.
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

        # the first broken invariant raises its named error; every comparison fails on NaN
        nv = self.num_vertices
        if np.any(self.origin < 0) or np.any(self.origin >= nv):
            raise InvolutionViolation("edge origin out of vertex range")
        if np.any(self.terminus < 0) or np.any(self.terminus >= nv):
            raise InvolutionViolation("edge terminus out of vertex range")

        bad = np.nonzero(~(self.prob > 0))[0]
        if bad.size:
            raise StochasticityViolation(
                f"edge {bad[0]}: transition probability {float(self.prob[bad[0]])} is not positive"
            )
        sums = np.zeros(nv)
        np.add.at(sums, self.origin, self.prob)
        bad = np.nonzero(~(np.abs(sums - 1.0) <= 1e-12))[0]
        if bad.size:
            raise StochasticityViolation(f"vertex {bad[0]}: out-probabilities sum to {float(sums[bad[0]])}")

        inv = self.inverse
        if np.any(inv < 0) or np.any(inv >= e):
            raise InvolutionViolation("inverse index out of range")
        if np.any(inv == np.arange(e)):
            k = int(np.nonzero(inv == np.arange(e))[0][0])
            raise InvolutionViolation(f"edge {k} is its own inverse")
        if np.any(inv[inv] != np.arange(e)):
            k = int(np.nonzero(inv[inv] != np.arange(e))[0][0])
            raise InvolutionViolation(f"edge {k}: reversal is not an involution")
        if np.any(self.origin[inv] != self.terminus) or np.any(self.terminus[inv] != self.origin):
            k = int(np.nonzero((self.origin[inv] != self.terminus) | (self.terminus[inv] != self.origin))[0][0])
            raise InvolutionViolation(f"edge {k}: reversed edge does not swap origin and terminus")

        defect = np.abs(self.voltages[inv] + self.voltages).max(axis=1)
        bad = np.nonzero(~(defect <= 1e-12))[0]
        if bad.size:
            raise VoltageInverseViolation(f"edge {bad[0]}: reversed voltage is not the group inverse")

        for direction in ("forward", "backward"):
            heads = self.terminus if direction == "forward" else self.origin
            tails = self.origin if direction == "forward" else self.terminus
            seen = np.zeros(nv, dtype=bool)
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
        vertex ``v`` takes when ``u`` falls in bucket ``b``, the number of cuts
        <= ``u`` (``searchsorted(cuts, u, side="right")``): the first out-edge
        whose cumulative probability exceeds ``u``, or the last out-edge if
        none does.  Each vertex's own cuts are among ``cuts``, so the edge is
        constant on every bucket, and one set of cuts serves every vertex: a
        walk on a ``vertex_cycle`` counts each vertex's steps against all of
        them and maps the buckets through that vertex's row.  The walks draw
        raw 64-bit words, not uniforms, and read the buckets from a guide
        table of the words' top byte, which ``walk._step_guide`` builds from
        ``cuts`` and caches beside this table.
        """
        inner = [np.cumsum(self.prob[ids])[:-1] for ids in self.out_edges]
        cuts = np.unique(np.concatenate(inner))
        lows = np.concatenate([[-np.inf], cuts])  # bucket b is [lows[b], lows[b + 1])
        table = np.stack(
            [ids[np.searchsorted(c, lows, side="right")] for ids, c in zip(self.out_edges, inner)]
        )
        return cuts, table

    @cached_property
    def vertex_cycle(self) -> np.ndarray | None:
        """The vertices a walk from vertex 0 visits, ``cycle[k % V]`` at step k, when every vertex's
        out-edges share one terminus; None when some vertex's reach two.

        Then the next vertex does not depend on the draw.  Each vertex has one
        successor, and the graph is strongly connected, so the successors form
        one cycle through all V vertices: a walk from ``cycle[i]`` is at
        ``cycle[(i + k) % V]`` after k steps, whatever it draws.  A one-vertex
        graph has the cycle ``[0]``.
        """
        heads = [np.unique(self.terminus[ids]) for ids in self.out_edges]
        if any(len(h) > 1 for h in heads):
            return None
        cycle = [0]
        while len(cycle) < self.num_vertices:
            cycle.append(int(heads[cycle[-1]][0]))
        return np.array(cycle)

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
# Invariant measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantMeasure:
    m: np.ndarray        # (V,) stationary vertex measure, sums to 1
    m_tilde: np.ndarray  # (E,) edge measure p(e) m(o(e))


def invariant_measure(graph: VoltageGraph) -> InvariantMeasure:
    """Stationary distribution of the quotient chain plus the edge measure.

    Dense solve of ``(P^T - I) m = 0`` with the first row replaced by the
    normalization, at every size; a periodic chain is solved like any other.
    """
    p = graph.transition_matrix()
    v = graph.num_vertices
    a = p.T - np.eye(v)
    a[0, :] = 1.0
    b = np.zeros(v)
    b[0] = 1.0
    try:
        m = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"stationary solve failed: {exc}") from exc
    if np.any(m <= 0):
        raise SingularSystem("stationary distribution is not strictly positive")
    m = m / m.sum()
    residual = np.abs(m @ p - m).max()
    if residual > 1e-12:
        raise SingularSystem(f"stationary residual {residual} too large")
    return InvariantMeasure(m=m, m_tilde=graph.prob * m[graph.origin])


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
    """Walk on Z stepping +1 with probability q and -1 with probability 1 - q, for 0 < q < 1."""
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
