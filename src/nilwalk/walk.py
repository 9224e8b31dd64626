"""Simulation of the quotient chain and its lifted group trajectory.

State on the cover is a (quotient vertex, deck element) pair: traversing an
edge multiplies the running deck element by the edge voltage, and the realized
position is deck * position(vertex).  The first-layer statistics are tracked
through the per-edge increment table of the supplied realization, so centered
sums, interpolated paths, and scaled endpoints share one source of truth.
Every group fold (the deck element of a path, of a batch of paths, or of a
trajectory segment) goes through ``algebra.fold``.

Edge selection is inversion by table look-up, one rule for every walk: each
uniform ``u`` becomes a bucket ``b = searchsorted(cuts, u, side="right")``
of the graph's cached ``step_table``, and vertex ``v`` then takes edge
``table[v, b]``, the first out-edge whose cumulative probability exceeds
``u`` (the last out-edge if none does).  The table has V x (T+1) entries
with T <= E - V cuts.  On a one-vertex graph this is one vectorized look-up;
on a larger quotient a loop over steps carries the current vertex of every
row of a block at once.  Every walk starts at the realization's base vertex 0.

Randomness contract: sample (or trajectory) ``i`` of a run seeded with ``s``
draws its uniforms from the counter-based stream ``Philox(key=(s, i))`` in a
single pass.  Results are therefore bitwise reproducible for any worker count
or chunk size, and batch sample 0 replays ``sample_path`` exactly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .albanese import Realization, first_layer_form
from .algebra import bch_product, dilate_group, fold, to_limit_group
from .errors import PinnedLayerMismatch, ScalingDomain
from .graph import VoltageGraph

_SNAP_TOL = 1e-8


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
    theta: float | None = None

    def __call__(self, n):
        arr = np.asarray(n)
        if np.any(arr < self.domain_min):
            raise ScalingDomain(f"scaling '{self.kind}' requires n >= {self.domain_min}")
        out = self.evaluate(np.asarray(n, dtype=float))
        return float(out) if np.isscalar(n) or np.ndim(n) == 0 else np.asarray(out, dtype=float)


def _probe_window(scaling: ScalingSequence) -> None:
    """Numerically check monotonicity and the window conditions on a log grid."""
    n = scaling.domain_min * 2.0 ** np.arange(0, 40)
    a = scaling.evaluate(n)
    if np.any(a <= 0):
        raise ValueError(f"scaling '{scaling.kind}' is not positive on the probe grid")
    if np.any(np.diff(a) <= 0):
        raise ValueError(f"scaling '{scaling.kind}' is not monotone increasing")
    ratio_clt = a / np.sqrt(n)
    if np.any(np.diff(ratio_clt) < -1e-12 * ratio_clt[:-1]) or ratio_clt[-1] < 1.2 * ratio_clt[0]:
        raise ValueError(f"scaling '{scaling.kind}' does not outgrow sqrt(n)")
    ratio_lln = a / n
    if np.any(np.diff(ratio_lln) > 1e-12 * ratio_lln[:-1]) or ratio_lln[-1] > 0.5 * ratio_lln[0]:
        raise ValueError(f"scaling '{scaling.kind}' does not fall below n")


def power_scaling(theta: float) -> ScalingSequence:
    """a_n = n**theta with theta in the open window (1/2, 1)."""
    if not 0.5 < theta < 1.0:
        raise ValueError(f"theta must lie in (1/2, 1), got {theta}")
    s = ScalingSequence(kind="power", evaluate=lambda n: n**theta, domain_min=1, theta=theta)
    _probe_window(s)
    return s


def lil_scaling() -> ScalingSequence:
    """b_n = sqrt(n log log n), defined for n >= 16 (first n with log log n > 0)."""
    s = ScalingSequence(
        kind="lil",
        evaluate=lambda n: np.sqrt(n * np.log(np.log(n))),
        domain_min=16,
    )
    _probe_window(s)
    return s


def custom_scaling(fn: Callable, domain_min: int = 1, validate: bool = True) -> ScalingSequence:
    s = ScalingSequence(kind="custom", evaluate=fn, domain_min=domain_min)
    if validate:
        _probe_window(s)
    return s


# ---------------------------------------------------------------------------
# Edge selection
# ---------------------------------------------------------------------------

def _centered_increments(graph: VoltageGraph, phi: Realization, rho: np.ndarray) -> np.ndarray:
    return first_layer_form(graph, phi) - np.asarray(rho, dtype=float)[None, :]


def _draw_buckets(graph: VoltageGraph, stream: np.random.Generator, n: int) -> np.ndarray:
    """The next n uniforms of ``stream`` as buckets of ``graph.step_table``: (n,) int."""
    return np.searchsorted(graph.step_table[0], stream.random(n), side="right")


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
    edges = _select_edges(graph, _draw_buckets(graph, sample_stream(seed, 0), n)[None, :])[0]
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


# ---------------------------------------------------------------------------
# Interpolated path process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolatedPath:
    """Piecewise-linear interpolation of the centered partial sums, scaled by a_n."""

    n: int
    a_n: float
    prefix: np.ndarray      # (n+1, d1)
    increments: np.ndarray  # (n, d1)

    def values(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if np.any((ts < 0) | (ts > 1)):
            raise ValueError("query times must lie in [0, 1]")
        s = ts * self.n
        near = np.rint(s)
        snap = np.abs(s - near) <= _SNAP_TOL
        s = np.where(snap, near, s)
        k = np.floor(s).astype(np.int64)
        frac = s - k
        inc_idx = np.minimum(k, self.n - 1) if self.n > 0 else np.zeros_like(k)
        inc = self.increments[inc_idx] if self.n > 0 else np.zeros((len(k), self.prefix.shape[1]))
        return (self.prefix[k] + frac[:, None] * inc) / self.a_n

    def __call__(self, t: float) -> np.ndarray:
        return self.values([t])[0]


def interpolate(path: WalkPath, scaling: ScalingSequence) -> InterpolatedPath:
    if path.n < scaling.domain_min:
        raise ScalingDomain(f"n = {path.n} below the '{scaling.kind}' scaling domain")
    return InterpolatedPath(
        n=path.n, a_n=float(scaling(path.n)), prefix=path.prefix, increments=path.increments
    )


def _pin_first_layer(alg, points: np.ndarray, pinned: np.ndarray) -> np.ndarray:
    """Overwrite the first layer of ``points`` (any leading axes) by ``pinned``.

    The two agree mathematically; pinning makes the identity with the
    interpolated path's endpoint exact in floating point.  A disagreement
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
    pt = dilate_group(alg, 1.0 / a_n, to_limit_group(alg, centered))
    return _pin_first_layer(alg, pt, xi_bar / a_n)


def scaled_endpoint(path: WalkPath, scaling: ScalingSequence) -> np.ndarray:
    """Group log-coordinates of the dilated, centered endpoint."""
    if path.n < scaling.domain_min:
        raise ScalingDomain(f"n = {path.n} below the '{scaling.kind}' scaling domain")
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


def _edge_batches(graph: VoltageGraph, n: int, sample_ids, seed: int, chunk: int,
                  index_offset: int = 0):
    """Yield (ids, edges (B, n)) blocks with per-sample streams.

    Each row's uniforms become buckets as they are drawn, and the edges are
    written over the buckets, so a block holds one (B, n) integer array.
    """
    ids = list(sample_ids)
    for lo in range(0, len(ids), chunk):
        block = ids[lo : lo + chunk]
        buckets = np.empty((len(block), n), dtype=np.int64)
        for row, s in enumerate(block):
            buckets[row] = _draw_buckets(graph, sample_stream(seed, s + index_offset), n)
        yield block, _select_edges(graph, buckets)


def batch_centered_sums(
    graph: VoltageGraph,
    phi: Realization,
    rho: np.ndarray,
    n: int,
    samples: int,
    seed: int,
    workers: int = 1,
    chunk: int = 256,
    index_offset: int = 0,
) -> np.ndarray:
    """Centered first-layer sums for ``samples`` independent n-step walks: (S, d1)."""
    d1 = graph.algebra.layer_dims[0]
    if n == 0:
        return np.zeros((samples, d1))
    wbar = _centered_increments(graph, phi, rho)
    out = np.empty((samples, d1))

    def job(shard):
        for block, edges in _edge_batches(graph, n, shard, seed, chunk, index_offset):
            out[block] = np.einsum("bkd->bd", np.take(wbar, edges, axis=0))

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
    chunk: int = 256,
    index_offset: int = 0,
):
    """Scaled group endpoints plus raw centered sums: ((S, dim), (S, d1))."""
    alg = graph.algebra
    if n < scaling.domain_min:
        raise ScalingDomain(f"n = {n} below the '{scaling.kind}' scaling domain")
    a_n = float(scaling(n))
    d1 = alg.layer_dims[0]
    wbar = _centered_increments(graph, phi, rho)
    points = np.empty((samples, alg.dim))
    sums = np.empty((samples, d1))

    def job(shard):
        for block, edges in _edge_batches(graph, n, shard, seed, chunk, index_offset):
            # np.take gathers rows several times faster than fancy indexing here;
            # einsum sums steps in order, like sample_path's prefix sums
            bar = np.einsum("bkd->bd", np.take(wbar, edges, axis=0))
            end_vertex = graph.terminus[edges[:, -1]] if n > 0 else np.zeros(len(block), dtype=np.int64)
            decks = fold(alg, np.take(graph.voltages, edges, axis=0))
            xi = bch_product(alg, decks, phi.positions[end_vertex])
            points[block] = _scaled_points(graph, xi, bar, n, rho, a_n)
            sums[block] = bar

    _run_sharded(samples, workers, job)
    return points, sums


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

def trajectory_scan(
    graph: VoltageGraph,
    phi: Realization,
    rho: np.ndarray,
    checkpoints,
    seed: int,
    stream_index: int,
    sup_scaling: ScalingSequence | None = None,
    sup_range: tuple[int, int] | None = None,
    chunk: int = 1 << 20,
):
    """One long trajectory; centered group points at checkpoints, optional sup statistic.

    Returns ``(points, sup)`` where ``points[c]`` holds the log coordinates of
    the centered endpoint at step ``checkpoints[c]`` (not yet dilated) and
    ``sup`` is ``max over n in sup_range of ||centered first-layer sum at n|| /
    sup_scaling(n)``, evaluated at every step in range (None if not requested).
    """
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
        m = int(min(chunk, n_max - pos))
        edges = _select_edges(graph, _draw_buckets(graph, stream, m)[None, :], vertex)[0]
        vertex = int(graph.terminus[edges[-1]])
        bar_cum = bar + np.cumsum(np.take(wbar, edges, axis=0), axis=0)

        if sup_range is not None:
            ns = np.arange(pos + 1, pos + m + 1)
            mask = (ns >= lo) & (ns <= hi)
            if mask.any():
                stats = np.linalg.norm(bar_cum[mask], axis=1) / sup_scaling(ns[mask])
                sup = max(sup, float(stats.max()))

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
