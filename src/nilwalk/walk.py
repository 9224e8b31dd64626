"""Simulation of the quotient chain and its lifted group trajectory.

State on the cover is a (quotient vertex, deck element) pair: traversing an
edge multiplies the running deck element by the edge voltage, and the realized
position is deck * position(vertex).  The first-layer statistics are tracked
through the per-edge increment table of the supplied realization, so centered
sums and scaled endpoints share one source of truth.
Every group fold (the deck element of a path, of a batch of paths, or of a
trajectory segment) goes through ``algebra.fold``.

Edge selection is inversion by table look-up, one rule for every walk: each
uniform ``u`` becomes a bucket ``b`` of the graph's cached ``step_table``,
the number of its T <= E - V cuts that are <= ``u``, counted by one
vectorized comparison per cut.  Vertex ``v`` then takes edge ``table[v, b]``,
the first out-edge whose cumulative probability exceeds ``u`` (the last
out-edge if none does).  On a one-vertex graph this is one vectorized look-up; on a larger quotient a loop
over steps carries the current vertex of every row of a block at once.
Every batched first-layer sum reduces each row to edge counts times the
increments; a sum-only walk on one vertex counts the uniforms at or above
each cut, with no per-step array.  Every walk starts at the realization's
base vertex 0.

Randomness contract: sample (or trajectory) ``i`` of a run seeded with ``s``
draws its uniforms from the counter-based stream ``Philox(key=(s, i))`` in a
single pass.  Results are therefore bitwise reproducible for any worker count
or block size, and batch sample 0 replays ``sample_path`` exactly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .albanese import Realization, first_layer_form
from .algebra import bch_product, dilate_vector, fold
from .errors import PinnedLayerMismatch, ScalingDomain
from .graph import VoltageGraph

# Walks per batched block, steps per block of a long trajectory, and steps
# per block of the sup statistic's screen.
_BLOCK_ROWS = 256
_SCAN_STEPS = 1 << 20
_SUP_BLOCK = 4096


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-sample stream: Philox keyed by (seed, sample index)."""
    if seed < 0 or index < 0:
        raise ValueError("seed and sample index must be nonnegative")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Scaling sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingSequence:
    """Positive scaling a_n sitting between the CLT and LLN windows."""

    kind: str
    evaluate: Callable
    domain_min: int = 1

    def __call__(self, n):
        arr = np.asarray(n)
        if np.any(arr < self.domain_min):
            raise ScalingDomain(f"scaling '{self.kind}' requires n >= {self.domain_min}")
        out = self.evaluate(np.asarray(n, dtype=float))
        return float(out) if np.isscalar(n) or np.ndim(n) == 0 else np.asarray(out, dtype=float)


def power_scaling(theta: float) -> ScalingSequence:
    """a_n = n**theta with theta in the open window (1/2, 1)."""
    if not 0.5 < theta < 1.0:
        raise ValueError(f"theta must lie in (1/2, 1), got {theta}")
    return ScalingSequence(kind="power", evaluate=lambda n: n**theta, domain_min=1)


def lil_scaling() -> ScalingSequence:
    """b_n = sqrt(n log log n), defined for n >= 16 (the first n with log log n >= 1)."""
    return ScalingSequence(
        kind="lil",
        evaluate=lambda n: np.sqrt(n * np.log(np.log(n))),
        domain_min=16,
    )


# ---------------------------------------------------------------------------
# Edge selection
# ---------------------------------------------------------------------------

def _centered_increments(graph: VoltageGraph, phi: Realization, rho: np.ndarray) -> np.ndarray:
    return first_layer_form(graph, phi) - np.asarray(rho, dtype=float)[None, :]


def _buckets(graph: VoltageGraph, u: np.ndarray) -> np.ndarray:
    """Buckets of ``graph.step_table`` for uniforms ``u`` of any shape: the number of cuts <= u."""
    buckets = np.zeros(np.shape(u), dtype=np.int64)
    for c in graph.step_table[0]:
        buckets += u >= c
    return buckets


def _select_edges(graph: VoltageGraph, buckets: np.ndarray, vertex: int = 0) -> np.ndarray:
    """Edges (B, n) of B walks from ``vertex`` with the given buckets, written over them."""
    _, table = graph.step_table
    if graph.num_vertices > 1:
        # turn each bucket into the flat table index v * width + b, so that a step
        # is one gather and the edges are one gather after the loop
        width = table.shape[1]
        after = (graph.terminus[table] * width).ravel()
        v = np.full(len(buckets), vertex * width, dtype=np.int64)
        for col in buckets.T:
            col += v
            v = after[col]
    # the indices are always in range; mode="clip" keeps take from buffering
    # its output, so the edges overwrite the buckets without a (B, n) copy
    return np.take(table.ravel(), buckets, out=buckets, mode="clip")


def _count_edges(edges: np.ndarray, width: int) -> np.ndarray:
    """How often each row of ``edges`` (B, n) takes each of ``width`` edges: (B, width).

    The rows are offset in place to disjoint ranges, so that one bincount counts them all.
    """
    rows = len(edges)
    edges += np.arange(0, rows * width, width)[:, None]
    return np.bincount(edges.ravel(), minlength=rows * width).reshape(rows, width)


def _edge_counts(graph: VoltageGraph, u: np.ndarray) -> np.ndarray:
    """How often each of B walks from vertex 0 with uniforms ``u`` (B, n) takes each edge: (B, E)."""
    (rows, n), width = u.shape, graph.num_edges
    if graph.num_vertices > 1:
        return _count_edges(_select_edges(graph, _buckets(graph, u)), width)
    # each row's steps at or above each cut; their differences count the buckets,
    # and on one vertex table[0] takes distinct buckets to distinct edges
    cuts, table = graph.step_table
    above = np.column_stack([np.full(rows, n)] + [np.count_nonzero(u >= c, axis=1) for c in cuts])
    counts = np.zeros((rows, width), dtype=np.int64)
    counts[:, table[0]] = -np.diff(above, append=0)
    return counts


# ---------------------------------------------------------------------------
# Single paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkPath:
    graph: VoltageGraph
    realization: Realization
    rho: np.ndarray
    vertices: np.ndarray    # (n+1,)
    edges: np.ndarray       # (n,)
    increments: np.ndarray  # (n, d1) centered first-layer increments
    deck: np.ndarray        # (dim,) final deck element, log coordinates
    xi: np.ndarray          # (dim,) realized endpoint deck * position(v_n)

    @property
    def n(self) -> int:
        return len(self.edges)

    @cached_property
    def prefix(self) -> np.ndarray:
        """Centered partial sums with a leading zero row: prefix[k] = W-bar_1 + ... + W-bar_k."""
        d1 = self.graph.algebra.layer_dims[0]
        return np.vstack([np.zeros((1, d1)), np.cumsum(self.increments, axis=0)])

    @property
    def xi_bar(self) -> np.ndarray:
        return self.prefix[-1]


def sample_path(
    graph: VoltageGraph,
    phi: Realization,
    rho: np.ndarray,
    n: int,
    seed: int,
) -> WalkPath:
    """Sample an n-step trajectory from the base vertex 0 (stream (seed, 0))."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    edges = _select_edges(graph, _buckets(graph, sample_stream(seed, 0).random(n))[None, :])[0]
    return _assemble_path(graph, phi, rho, edges)


def _assemble_path(graph, phi, rho, edges) -> WalkPath:
    alg = graph.algebra
    vertices = np.concatenate([[0], graph.terminus[edges]])
    wbar = _centered_increments(graph, phi, rho)
    deck = fold(alg, graph.voltages[edges])
    xi = bch_product(alg, deck, phi.positions[vertices[-1]])
    return WalkPath(
        graph=graph,
        realization=phi,
        rho=np.asarray(rho, dtype=float),
        vertices=vertices,
        edges=edges,
        increments=wbar[edges],
        deck=deck,
        xi=xi,
    )


def _pin_first_layer(alg, points: np.ndarray, pinned: np.ndarray) -> np.ndarray:
    """Overwrite the first layer of ``points`` (any leading axes) by ``pinned``.

    The two agree mathematically; pinning makes the identity with the
    centered increment sum exact in floating point.  A disagreement
    beyond rounding means the realization or the centering is inconsistent.
    """
    d1 = alg.layer_dims[0]
    if not np.allclose(points[..., :d1], pinned, rtol=1e-6, atol=1e-6):
        gap = float(np.max(np.abs(points[..., :d1] - pinned)))
        raise PinnedLayerMismatch(
            f"group-product first layer differs from the centered increment sum by {gap:.3g}"
        )
    points[..., :d1] = pinned
    return points


def _scaled_points(graph: VoltageGraph, xi: np.ndarray, xi_bar: np.ndarray, n: int, rho,
                   a_n: float) -> np.ndarray:
    """tau_{1/a_n}(phi(xi exp(-n rho))) over leading axes, first layer pinned to the increment sums."""
    alg = graph.algebra
    centered = bch_product(alg, xi, alg.embed_first_layer(-float(n) * np.asarray(rho, dtype=float)))
    pt = dilate_vector(alg, 1.0 / a_n, centered)
    return _pin_first_layer(alg, pt, xi_bar / a_n)


def scaled_endpoint(path: WalkPath, scaling: ScalingSequence) -> np.ndarray:
    """Group log-coordinates of the dilated, centered endpoint."""
    a_n = float(scaling(path.n))
    return _scaled_points(path.graph, path.xi, path.xi_bar, path.n, path.rho, a_n)


# ---------------------------------------------------------------------------
# Batched Monte Carlo engines
# ---------------------------------------------------------------------------

def _shards(total: int, workers: int) -> list[range]:
    workers = max(1, min(workers, total)) if total else 1
    bounds = np.linspace(0, total, workers + 1).astype(int)
    return [range(bounds[i], bounds[i + 1]) for i in range(workers) if bounds[i] < bounds[i + 1]]


def _run_sharded(total: int, workers: int, job: Callable) -> None:
    shards = _shards(total, workers)
    if len(shards) <= 1:
        for shard in shards:
            job(shard)
        return
    with ThreadPoolExecutor(max_workers=len(shards)) as pool:
        futures = [pool.submit(job, shard) for shard in shards]
        for f in futures:
            f.result()


def batch_centered_sums(
    graph: VoltageGraph,
    phi: Realization,
    rho: np.ndarray,
    n: int,
    samples: int,
    seed: int,
    workers: int = 1,
    index_offset: int = 0,
) -> np.ndarray:
    """Centered first-layer sums for ``samples`` independent n-step walks: (S, d1)."""
    d1 = graph.algebra.layer_dims[0]
    if n == 0:
        return np.zeros((samples, d1))
    wbar = _centered_increments(graph, phi, rho)
    out = np.empty((samples, d1))

    def job(shard):
        for lo in range(0, len(shard), _BLOCK_ROWS):
            block = shard[lo : lo + _BLOCK_ROWS]
            u = np.empty((len(block), n))
            for row, s in enumerate(block):
                u[row] = sample_stream(seed, s + index_offset).random(n)
            out[block] = np.einsum("be,ed->bd", _edge_counts(graph, u), wbar)

    _run_sharded(samples, workers, job)
    return out


def batch_endpoints(
    graph: VoltageGraph,
    phi: Realization,
    rho: np.ndarray,
    scaling: ScalingSequence,
    n: int,
    samples: int,
    seed: int,
    workers: int = 1,
):
    """Scaled group endpoints plus raw centered sums: ((S, dim), (S, d1)).

    Each row's uniforms become buckets as they are drawn, and the edges are
    written over the buckets, so a block of walks holds one (B, n) integer
    array.  The sums are edge counts times the increments, as in
    ``batch_centered_sums``.
    """
    alg = graph.algebra
    a_n = float(scaling(n))
    wbar = _centered_increments(graph, phi, rho)
    points = np.empty((samples, alg.dim))
    sums = np.empty((samples, alg.layer_dims[0]))

    def job(shard):
        for lo in range(0, len(shard), _BLOCK_ROWS):
            block = shard[lo : lo + _BLOCK_ROWS]
            buckets = np.empty((len(block), n), dtype=np.int64)
            for row, s in enumerate(block):
                buckets[row] = _buckets(graph, sample_stream(seed, s).random(n))
            edges = _select_edges(graph, buckets)
            # np.take gathers rows several times faster than fancy indexing here
            decks = fold(alg, np.take(graph.voltages, edges, axis=0))
            end_vertex = graph.terminus[edges[:, -1]] if n > 0 else np.zeros(len(block), dtype=np.int64)
            # last, because counting offsets the edges in place
            bar = np.einsum("be,ed->bd", _count_edges(edges, graph.num_edges), wbar)
            xi = bch_product(alg, decks, phi.positions[end_vertex])
            points[block] = _scaled_points(graph, xi, bar, n, rho, a_n)
            sums[block] = bar

    _run_sharded(samples, workers, job)
    return points, sums


def clt_covariance_oracle(
    graph: VoltageGraph,
    phi: Realization,
    rho: np.ndarray,
    n_steps: int,
    samples: int,
    seed: int,
    workers: int = 1,
    index_offset: int = 0,
):
    """Monte Carlo estimate of (1/N) E[centered-sum outer product] with standard errors.

    Consistent for the covariance form as N grows; the centered per-sample sums
    come from ``batch_centered_sums`` (per-sample streams), so the result is
    reproducible independently of the worker count.
    """
    sums = batch_centered_sums(graph, phi, rho, n_steps, samples, seed,
                               workers=workers, index_offset=index_offset)
    prods = np.einsum("si,sj->sij", sums, sums) / float(n_steps)
    est = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / np.sqrt(samples)
    return est, se


def endpoints_csv_rows(points: np.ndarray, sums: np.ndarray, n: int):
    """Rows for the endpoint-batch CSV: sample_id, n, endpoint coords, raw centered sum."""
    header = (
        ["sample_id", "n"]
        + [f"endpoint_{i}" for i in range(points.shape[1])]
        + [f"xi_bar_{i}" for i in range(sums.shape[1])]
    )
    yield header
    for s in range(len(points)):
        yield [s, n] + [float(x) for x in points[s]] + [float(x) for x in sums[s]]


# ---------------------------------------------------------------------------
# Long-trajectory scan (for iterated-logarithm experiments)
# ---------------------------------------------------------------------------

def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=1)`` of an (m, d) array, bit for bit.

    numpy adds fewer than 8 terms in order, so below d = 8 the squares are
    summed column by column, several times faster than the row reduction;
    from 8 terms on it sums pairwise, and the reduction itself is used.
    """
    if x.shape[1] >= 8:
        return np.linalg.norm(x, axis=1)
    sq = x[:, 0] * x[:, 0]
    for col in x.T[1:]:
        sq += col * col
    return np.sqrt(sq)


def _screened_sup(x: np.ndarray, first: int, scaling: ScalingSequence, sup: float) -> float:
    """``max(sup, max_k ||x[k]|| / scaling(first + k))``, the same float as the unscreened max.

    The steps are cut into blocks of ``_SUP_BLOCK``.  The scaling is
    nondecreasing, so no ratio in a block exceeds its largest norm over the
    scaling at its first step; the ``1 + 1e-9`` slack covers the rounding of
    the computed scaling and of the division.  Blocks are visited in order of
    decreasing bound, and the scan stops at the first bound below the running
    max: a max of floats does not depend on the order of its terms.
    """
    norms = _row_norms(x)
    starts = np.arange(0, len(norms), _SUP_BLOCK)
    bounds = np.maximum.reduceat(norms, starts) / scaling(first + starts) * (1 + 1e-9)
    for b in np.argsort(-bounds, kind="stable"):
        if bounds[b] < sup:
            break
        lo = int(starts[b])
        block = norms[lo : lo + _SUP_BLOCK]
        ratios = block / scaling(np.arange(first + lo, first + lo + len(block)))
        sup = max(sup, float(ratios.max()))
    return sup


def trajectory_scan(
    graph: VoltageGraph,
    phi: Realization,
    rho: np.ndarray,
    checkpoints,
    seed: int,
    stream_index: int,
    sup_scaling: ScalingSequence | None = None,
    sup_range: tuple[int, int] | None = None,
):
    """One long trajectory; centered group points at checkpoints, optional sup statistic.

    Returns ``(points, sup)`` where ``points[c]`` holds the log coordinates of
    the centered endpoint at step ``checkpoints[c]`` (not yet dilated) and
    ``sup`` is ``max over n in sup_range of ||centered first-layer sum at n|| /
    sup_scaling(n)``, the exact max over every step in range (None if not
    requested).  ``sup_scaling`` must be nondecreasing: it is evaluated only in
    blocks of steps whose bound, the block's largest norm over the scaling at
    its first step, reaches the running max.  ``sup_scaling`` and
    ``sup_range`` are given together or not at all.
    """
    if (sup_scaling is None) != (sup_range is None):
        raise ValueError("sup_scaling and sup_range must be given together")
    alg = graph.algebra
    checkpoints = np.asarray(checkpoints, dtype=np.int64)
    if len(checkpoints) == 0 or np.any(np.diff(checkpoints) <= 0) or checkpoints[0] <= 0:
        raise ValueError("checkpoints must be strictly increasing positive integers")
    d1 = alg.layer_dims[0]
    n_max = int(checkpoints[-1])
    wbar = _centered_increments(graph, phi, rho)
    rho = np.asarray(rho, dtype=float)

    stream = sample_stream(seed, stream_index)
    points = np.empty((len(checkpoints), alg.dim))
    sup = -np.inf
    lo, hi = sup_range if sup_range is not None else (0, -1)

    deck = alg.zero()
    bar = np.zeros(d1)
    pos = 0
    cp_next = 0
    vertex = 0

    while pos < n_max:
        m = int(min(_SCAN_STEPS, n_max - pos))
        edges = _select_edges(graph, _buckets(graph, stream.random(m))[None, :], vertex)[0]
        vertex = int(graph.terminus[edges[-1]])
        bar_cum = bar + np.cumsum(np.take(wbar, edges, axis=0), axis=0)

        # the chunk's steps inside sup_range are the steps first..last
        first, last = max(lo, pos + 1), min(hi, pos + m)
        if first <= last:
            sup = _screened_sup(bar_cum[first - pos - 1 : last - pos], first, sup_scaling, sup)

        # the deck is needed only at checkpoints and at the chunk end: fold the
        # segments between them and chain the segment products
        gam = np.take(graph.voltages, edges, axis=0)
        folded = 0
        while cp_next < len(checkpoints) and checkpoints[cp_next] <= pos + m:
            cp_n = int(checkpoints[cp_next])
            j = cp_n - pos
            deck = bch_product(alg, deck, fold(alg, gam[folded:j]))
            folded = j
            xi = bch_product(alg, deck, phi.positions[graph.terminus[edges[j - 1]]])
            centered = bch_product(alg, xi, alg.embed_first_layer(-float(cp_n) * rho))
            points[cp_next] = _pin_first_layer(alg, centered, bar_cum[j - 1])
            cp_next += 1
        deck = bch_product(alg, deck, fold(alg, gam[folded:]))

        bar = bar_cum[-1].copy()
        pos += m

    return points, (None if sup_range is None else sup)
