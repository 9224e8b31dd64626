"""Simulation of the quotient chain and its lifted group trajectory.

State on the cover is a (quotient vertex, deck element) pair: traversing an
edge multiplies the running deck element by the edge voltage, and the realized
position is deck * position(vertex).  Every engine takes the vertex positions
``phi`` as the (V, d1) first-layer array of ``modified_harmonic_realization``
and lifts ``phi[v]`` to the group with zero higher layers
(``embed_first_layer``).  The first-layer statistics are tracked through the
per-edge increment table of ``phi``, so centered sums and scaled endpoints
share one source of truth.
Every group fold (the deck element of a path, and on steps 3-4 of a batch
of paths or of a trajectory segment) goes through ``algebra.fold``.  On step
<= 2 ``batch_endpoints`` and ``trajectory_scan`` fold nothing: their points
are sums over the centered first-layer prefix, which the scan already builds
for the sup, contracted with the structure constants by the helper behind
``fold``'s step-2 branch (``_PrefixPoints``).  Both build that prefix
through one helper, ``_CenteredPrefix``: where the increment table is
dyadic with room to spare below 2^53 (on the presets, but ``z1_biased(q)``
with non-dyadic q), it is an int64 ``cumsum``, exact and so the same floats
as the float ``cumsum`` that any other table keeps.

Edge selection is inversion by table look-up, one rule for every walk: each
uniform ``u`` becomes a bucket ``b`` of the graph's cached ``step_table``,
the number of its T <= E - V cuts that are <= ``u``, counted by one
vectorized comparison per cut.  Vertex ``v`` then takes edge ``table[v, b]``,
the first out-edge whose cumulative probability exceeds ``u`` (the last
out-edge if none does).  On a one-vertex graph this is one vectorized look-up; on a larger quotient a loop
over steps carries the current vertex of every row of a block at once.
Every batched first-layer sum reduces each row to edge counts times the
increments; a sum-only walk on one vertex counts the uniforms at or above
each cut, with no per-step array.  Every walk starts at the base vertex 0,
where ``phi`` is pinned to zero.

Randomness contract: sample (or trajectory) ``i`` of a run seeded with ``s``
draws its uniforms from the counter-based stream ``Philox(key=(s, i))`` in a
single pass.  ``sample_path`` and the batched engines draw through one seam,
``_uniforms``, one row of n uniforms per sample; ``trajectory_scan`` draws its
parts from one continuing stream.  Both walk in parts of one step budget,
``_PART_STEPS`` (a batch part holds whole rows, at least one), sized so that
a part's passes read from a core's L2 cache, and draw part k+1 on one helper
thread while part k is summed (``_drawn_ahead``), in the same stream order as
a single thread.  Results are therefore bitwise reproducible for any worker
count, block or batch part size, and batch sample 0 replays ``sample_path``
exactly.  A scan sums its upper layers per segment between checkpoints and
part ends, so on step 3-4, or on non-dyadic step-2 increments, its points
can move by rounding with the part size.  ``workers`` counts the threads
that run samples or trajectories; each ``batch_endpoints`` worker and each
``trajectory_scan`` adds its one helper.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .albanese import first_layer_form
from .algebra import _add_half_brackets, _dot, bch_product, dilate_vector, fold
from .errors import InputError, PinnedLayerMismatch, ScalingDomain
from .graph import VoltageGraph

# Walks per block of ``_run_sharded``; steps per part of a walk drawn ahead,
# a part of a ``batch_endpoints`` block (whole rows) or of a ``trajectory_scan``;
# and steps per block of the sup statistic's screen.  At 2^17 steps a part's
# float64 coordinate array is 1 MiB, the L2 cache of one core of the 2-vCPU VM
# that set it, so the main thread's passes over a part (gathers, prefix sum,
# squares, sup, counts, bracket dots) read from cache: there a 10^7-step
# Heisenberg scan took 67-69 ms in parts of 2^17 or 2^18 steps, 73 ms of
# 2^16 and 88-90 ms of 2^20.
_BLOCK_ROWS = 256
_PART_STEPS = 1 << 17
_SUP_BLOCK = 4096


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-sample stream: Philox keyed by (seed, sample index)."""
    if seed < 0 or index < 0:
        raise InputError("seed and sample index must be nonnegative")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _uniforms(seed: int, index: int, n: int) -> np.ndarray:
    """The first n uniforms of stream (seed, index): the one draw of a sample path or batch row."""
    return sample_stream(seed, index).random(n)


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
        raise InputError(f"theta must lie in (1/2, 1), got {theta}")
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

def _centered_increments(graph: VoltageGraph, phi: np.ndarray, rho: np.ndarray) -> np.ndarray:
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
    rho: np.ndarray
    vertices: np.ndarray    # (n+1,)
    edges: np.ndarray       # (n,)
    increments: np.ndarray  # (n, d1) centered first-layer increments
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
    phi: np.ndarray,
    rho: np.ndarray,
    n: int,
    seed: int,
) -> WalkPath:
    """Sample an n-step trajectory from the base vertex 0 (stream (seed, 0))."""
    if n < 0:
        raise InputError("n must be nonnegative")
    edges = _select_edges(graph, _buckets(graph, _uniforms(seed, 0, n))[None, :])[0]
    vertices = np.concatenate([[0], graph.terminus[edges]])
    deck = fold(graph.algebra, graph.voltages[edges])
    return WalkPath(
        graph=graph,
        rho=np.asarray(rho, dtype=float),
        vertices=vertices,
        edges=edges,
        increments=_centered_increments(graph, phi, rho)[edges],
        xi=bch_product(graph.algebra, deck, graph.algebra.embed_first_layer(phi[vertices[-1]])),
    )


def _scaled_points(graph: VoltageGraph, xi: np.ndarray, xi_bar: np.ndarray, n: int, rho,
                   a_n: float) -> np.ndarray:
    """tau_{1/a_n}(phi(xi exp(-n rho))) over leading axes, first layer pinned to ``xi_bar / a_n``.

    The two first layers agree mathematically; pinning makes the identity
    with the centered increment sum exact in floating point.  A disagreement
    beyond rounding means the realization or the centering is inconsistent.
    At ``a_n = 1.0`` the point is the undilated centered endpoint, bit for bit.
    """
    alg = graph.algebra
    d1 = alg.layer_dims[0]
    centered = bch_product(alg, xi, alg.embed_first_layer(-float(n) * np.asarray(rho, dtype=float)))
    pt = dilate_vector(alg, 1.0 / a_n, centered)
    pinned = xi_bar / a_n
    if not np.allclose(pt[..., :d1], pinned, rtol=1e-6, atol=1e-6):
        gap = float(np.max(np.abs(pt[..., :d1] - pinned)))
        raise PinnedLayerMismatch(
            f"group-product first layer differs from the centered increment sum by {gap:.3g}"
        )
    pt[..., :d1] = pinned
    return pt


def scaled_endpoint(path: WalkPath, scaling: ScalingSequence) -> np.ndarray:
    """Group log-coordinates of the dilated, centered endpoint."""
    a_n = float(scaling(path.n))
    return _scaled_points(path.graph, path.xi, path.xi_bar, path.n, path.rho, a_n)


# ---------------------------------------------------------------------------
# Step <= 2 points from the centered first-layer prefix
# ---------------------------------------------------------------------------

def _long_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner products of long rows along the last axis, as fast as one einsum and more accurate.

    einsum sums pieces of 128 terms and numpy adds each row's piece sums
    pairwise, so no running sum spans a whole row; each row's float is the
    same whatever the leading axes hold.  Over 2 * 10^4 steps of a non-dyadic
    Heisenberg cover, the scan's points were 2e-13 to 7e-12 off the exact
    ones in 12 seeds this way, and up to 2.4e-10 off with one einsum.
    """
    cut = x.shape[-1] - x.shape[-1] % 128
    pieces = x.shape[:-1] + (-1, 128)
    return (_dot(x[..., :cut].reshape(pieces), y[..., :cut].reshape(pieces)).sum(axis=-1)
            + _dot(x[..., cut:], y[..., cut:]))


def _edge_upper_layers(graph: VoltageGraph, phi: np.ndarray) -> np.ndarray:
    """The layers above the first of each edge's voltage seen from the positions of its ends: (E, dim - d1).

    That is log(exp(-phi(o_e)) exp(gamma_e) exp(phi(t_e))).  Points built
    from the centered first-layer prefix assume the base vertex at the
    identity, which is checked here.
    """
    if not np.allclose(phi[0], 0.0, rtol=1e-6, atol=1e-6):
        gap = float(np.max(np.abs(phi[0])))
        raise PinnedLayerMismatch(
            f"the base vertex sits {gap:.3g} off the identity, so group points and "
            "centered increment sums differ by that much"
        )
    alg = graph.algebra
    lift = alg.embed_first_layer
    edge_logs = bch_product(alg, bch_product(alg, lift(-phi[graph.origin]), graph.voltages),
                            lift(phi[graph.terminus]))
    return edge_logs[:, alg.layer_dims[0] :]


class _PrefixPoints:
    """Centered group points on step <= 2 of ``rows`` walks, from their centered first-layer prefixes C.

    Holds per walk, over the steps added so far, the edge counts, S (the sum
    of the prefixes before each step) and half the summed brackets of each
    prefix with the next increment; ``trajectory_scan`` gives the identity.
    ``upper`` is ``_edge_upper_layers``.  Prefixes and increments are
    coordinate-major, (d1, rows, steps).
    """

    def __init__(self, alg, upper: np.ndarray, rho: np.ndarray, rows: int = 1):
        self.alg = alg
        self.d1 = alg.layer_dims[0]
        self.upper = upper
        self.rho = np.asarray(rho, dtype=float)
        self.counts = np.zeros((rows, len(upper)), dtype=np.int64)
        self.prefix_sum = np.zeros((self.d1, rows))
        self.area = np.zeros((rows, alg.dim))

    def add(self, counts: np.ndarray, before: np.ndarray, incs: np.ndarray) -> None:
        """Add steps taking each edge ``counts`` (rows, E) times, with the prefixes ``before`` them and
        increments ``incs``, both (d1, rows, k)."""
        self.counts += counts
        self.prefix_sum += before.sum(axis=-1)
        _add_half_brackets(self.alg.bracket_entries, before, incs, self.area, dot=_long_dot)

    def points(self, n: int, c: np.ndarray) -> np.ndarray:
        """The centered points (rows, dim) at step n, the last step added, where the prefixes are ``c`` (d1, rows)."""
        pt = self.area.copy()
        pt[:, : self.d1] = c.T
        # einsum, unlike matmul, gives each row the same float for any number of rows
        pt[:, self.d1 :] += np.einsum("re,ed->rd", self.counts, self.upper)
        # [S, rho] + (n - 1/2)[rho, C] is the bracket of S - (n - 1/2) C with rho
        lever = 2.0 * (self.prefix_sum - (n - 0.5) * c)
        _add_half_brackets(self.alg.bracket_entries, lever[..., None], self.rho[:, None, None], pt)
        return pt


class _CenteredPrefix:
    """Centered first-layer prefixes C of walks, from the (d1, E) increment table ``wbar_t``.

    A float ``cumsum`` is one chain of dependent adds, about ten times slower
    than an int64 one, and it holds the GIL all the while.  When the table is
    K * 2^-s for an int64 table K with no entry -0.0 and ``n_max`` * max|K| <
    2^53, every float partial sum of at most ``n_max`` increments, a carry of
    such a sum included, is an integer multiple of 2^-s below 2^53 * 2^-s: it
    is exact, so it is the same float in any order of addition.  Then
    ``steps`` is K, ``scale`` is 2^-s, and the prefix is the int64 ``cumsum``
    of K times 2^-s, bit for bit the float ``cumsum``.  The tables of the
    lattices, the Cayley graphs and ``hexagonal`` are such (scale 1), and so
    is that of ``z1_biased(0.75)`` (scale 1/2).  On any other table
    (``steps`` and ``scale`` None) the floats are summed.  A -0.0 entry is refused because a
    float sum of -0.0s is -0.0, an integer one +0.0.
    """

    def __init__(self, wbar_t: np.ndarray, n_max: int):
        self.wbar_t = wbar_t
        self.steps = self.scale = None
        if not np.all(np.isfinite(wbar_t)) or np.any(np.signbit(wbar_t) & (wbar_t == 0)):
            return
        # every finite float is p / 2^k, so one exponent s makes the whole table integer
        ratios = [x.as_integer_ratio() for x in wbar_t.ravel().tolist()]
        s = max(q.bit_length() - 1 for _, q in ratios)
        steps = [p << (s - q.bit_length() + 1) for p, q in ratios]
        if n_max * max(map(abs, steps)) < 2**53:
            self.steps = np.array(steps, dtype=np.int64).reshape(wbar_t.shape)
            self.scale = 2.0**-s

    def fill(self, edges: np.ndarray, w: np.ndarray, cum: np.ndarray, carry: np.ndarray | None = None,
             increments: bool = True) -> None:
        """Write the prefixes of the walks with ``edges`` (..., m) into ``cum`` (d1, ..., m + 1) and,
        if ``increments``, their increments into ``w`` (d1, ..., m), both C-contiguous.

        ``cum[..., 0]`` is ``carry`` (zero if None), a prefix of this table,
        and ``cum[..., k]`` adds the first k increments to it.  The carry
        enters the first increment, so a walk summed in parts, each carrying
        the last one's end, has the prefix of one ``cumsum`` over the whole.
        Without ``increments`` ``w`` is scratch: the integer route leaves its
        integers there and skips the float gather.
        """
        cum[..., 0] = 0.0 if carry is None else carry
        if self.steps is None:
            self._sum_floats(edges, w, cum, carry)
            return
        # the integers go through w's memory; mode="clip" keeps take from buffering its output
        k = np.take(self.steps, edges, axis=1, out=w.view(np.int64), mode="clip")
        if carry is not None:
            k[..., 0] += (carry / self.scale).astype(np.int64)
        np.cumsum(k, axis=-1, out=k)
        np.multiply(k, self.scale, out=cum[..., 1:])
        if increments:
            np.take(self.wbar_t, edges, axis=1, out=w, mode="clip")

    def _sum_floats(self, edges, w, cum, carry) -> None:
        np.take(self.wbar_t, edges, axis=1, out=w, mode="clip")
        first = w[..., 0].copy()
        if carry is not None:
            w[..., 0] += carry
        np.cumsum(w, axis=-1, out=cum[..., 1:])
        w[..., 0] = first


# ---------------------------------------------------------------------------
# Batched Monte Carlo engines
# ---------------------------------------------------------------------------

def _shards(total: int, workers: int) -> list[range]:
    workers = max(1, min(workers, total)) if total else 1
    bounds = np.linspace(0, total, workers + 1).astype(int)
    return [range(bounds[i], bounds[i + 1]) for i in range(workers) if bounds[i] < bounds[i + 1]]


def _run_sharded(total: int, workers: int, job: Callable) -> None:
    """Call ``job(block)`` on each block of at most ``_BLOCK_ROWS`` indices of each worker's shard."""
    def run(shard):
        for lo in range(0, len(shard), _BLOCK_ROWS):
            job(shard[lo : lo + _BLOCK_ROWS])

    shards = _shards(total, workers)
    if len(shards) <= 1:
        for shard in shards:
            run(shard)
        return
    with ThreadPoolExecutor(max_workers=len(shards)) as pool:
        list(pool.map(run, shards))


@contextmanager
def _drawn_ahead(draw: Callable, count: int):
    """Iterate over ``draw(0), ..., draw(count - 1)`` (count >= 1), each drawn on one helper
    thread while the caller works on the one before.

    ``draw(k + 1)`` is submitted only once part k is taken, so the draws run
    one after another in order, as on one thread, and a draw may carry state
    to the next.  The helper is joined when the ``with`` block ends, also
    when a draw or the caller raises; a failed draw raises its own exception
    in the caller.  A single part has nothing to overlap and is drawn by the
    caller.
    """
    def parts():
        pending = pool.submit(draw, 0)
        for k in range(1, count):
            part = pending.result()
            pending = pool.submit(draw, k)
            yield part
        yield pending.result()

    if count == 1:
        yield iter([draw(0)])
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        yield parts()


def batch_centered_sums(
    graph: VoltageGraph,
    phi: np.ndarray,
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

    def job(block):
        u = np.empty((len(block), n))
        for row, s in enumerate(block):
            u[row] = _uniforms(seed, s + index_offset, n)
        out[block] = np.einsum("be,ed->bd", _edge_counts(graph, u), wbar)

    _run_sharded(samples, workers, job)
    return out


def batch_endpoints(
    graph: VoltageGraph,
    phi: np.ndarray,
    rho: np.ndarray,
    scaling: ScalingSequence,
    n: int,
    samples: int,
    seed: int,
    workers: int = 1,
):
    """Scaled group endpoints plus raw centered sums: ((S, dim), (S, d1)).

    Each worker walks its blocks in parts of whole rows, at most
    ``_PART_STEPS`` steps (at least one row), the budget of the scan's parts.
    One helper thread draws part k+1 while the worker sums part k: each row's
    uniforms become buckets as they are drawn, and the edges are written over
    the buckets.  So a worker holds two parts' (rows, n) integer arrays, and
    on step 2 one float buffer for a part's increments and prefixes, not a
    block's.  The sums are edge counts times the increments, as in
    ``batch_centered_sums``.

    On step 1 the point is the sum over a_n.  On step 2 it comes from each
    row's centered first-layer prefix C, (d1, rows, n), by the identity in
    ``trajectory_scan``, and its first layer is pinned to the sum over a_n;
    nothing is folded.  C is summed by ``_CenteredPrefix``, as in the scan:
    in int64 through the increment buffer when the increments are dyadic,
    with the same floats as the float ``cumsum`` it replaces.  Steps 3-4 fold
    each row's voltages.
    """
    alg = graph.algebra
    d1 = alg.layer_dims[0]
    a_n = float(scaling(n))
    wbar = _centered_increments(graph, phi, rho)
    # coordinate-major, so that each coordinate's gather and prefix sum run along contiguous memory
    prefixes = _CenteredPrefix(np.ascontiguousarray(wbar.T), n) if alg.step == 2 else None
    upper = _edge_upper_layers(graph, phi) if alg.step <= 2 else None
    points = np.empty((samples, alg.dim))
    sums = np.empty((samples, d1))
    part_rows = max(1, _PART_STEPS // max(n, 1))

    def endpoints_of(edges, scratch):
        """Points and sums of the walks with ``edges`` (rows, n); counting offsets the edges in place."""
        if alg.step > 2:
            # np.take gathers rows several times faster than fancy indexing here
            decks = fold(alg, np.take(graph.voltages, edges, axis=0))
            end_vertex = graph.terminus[edges[:, -1]] if n > 0 else np.zeros(len(edges), dtype=np.int64)
            xi = bch_product(alg, decks, alg.embed_first_layer(phi[end_vertex]))
            bar = np.einsum("be,ed->bd", _count_edges(edges, graph.num_edges), wbar)
            return _scaled_points(graph, xi, bar, n, rho, a_n), bar
        if alg.step == 2:
            # w[:, r, k] is the increment of step k + 1 of row r, gathered before
            # counting; cum[:, r, k] will be row r's centered sum C after k steps
            size = d1 * len(edges) * n
            w = scratch[:size].reshape(d1, len(edges), n)
            cum = scratch[size : 2 * size + d1 * len(edges)].reshape(d1, len(edges), n + 1)
            prefixes.fill(edges, w, cum)
        counts = _count_edges(edges, graph.num_edges)
        bar = np.einsum("be,ed->bd", counts, wbar)
        if alg.step == 1:
            return bar / a_n, bar
        prefix = _PrefixPoints(alg, upper, rho, len(edges))
        prefix.add(counts, cum[..., :-1], w)
        pt = dilate_vector(alg, 1.0 / a_n, prefix.points(n, cum[..., -1]))
        pt[:, :d1] = bar / a_n
        return pt, bar

    def job(block):
        parts = [block[lo : lo + part_rows] for lo in range(0, len(block), part_rows)]
        # on step 2 the parts of a block reuse one buffer for their increments and
        # prefixes: fresh ones cost a page fault per 4 KB of every part
        scratch = np.empty(d1 * len(parts[0]) * (2 * n + 1)) if alg.step == 2 else None

        def draw(k):
            buckets = np.empty((len(parts[k]), n), dtype=np.int64)
            for row, s in enumerate(parts[k]):
                buckets[row] = _buckets(graph, _uniforms(seed, s, n))
            return _select_edges(graph, buckets)

        with _drawn_ahead(draw, len(parts)) as drawn:
            for part, edges in zip(parts, drawn):
                points[part], sums[part] = endpoints_of(edges, scratch)

    _run_sharded(samples, workers, job)
    return points, sums


def clt_covariance_oracle(
    graph: VoltageGraph,
    phi: np.ndarray,
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

def _row_squares(x: np.ndarray) -> np.ndarray:
    """The squared norms that ``np.linalg.norm(x, axis=1)`` takes the root of, for (m, d) ``x`` in any layout.

    numpy adds fewer than 8 terms in order, so below d = 8 the squares are
    summed column by column, several times faster than the row reduction;
    from 8 terms on it sums contiguous rows pairwise, and the reduction itself
    is used on rows made contiguous (over a strided axis it sums in order).
    """
    if x.shape[1] >= 8:
        rows = np.ascontiguousarray(x)
        return np.add.reduce(rows * rows, axis=1)
    sq = x[:, 0] * x[:, 0]
    for col in x.T[1:]:
        sq += col * col
    return sq


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=1)`` of an (m, d) array in C order, bit for bit, in any layout."""
    return np.sqrt(_row_squares(x))


def _screened_sup(x: np.ndarray, first: int, scaling: ScalingSequence, sup: float) -> float:
    """``max(sup, max_k ||x[k]|| / scaling(first + k))``, the same float as the unscreened max.

    The steps are cut into blocks of ``_SUP_BLOCK``.  The scaling is
    nondecreasing, so no ratio in a block exceeds its largest norm over the
    scaling at its first step; the ``1 + 1e-9`` slack covers the rounding of
    the computed scaling and of the division.  Blocks are visited in order of
    decreasing bound, and the scan stops at the first bound below the running
    max: a max of floats does not depend on the order of its terms.  Norms
    are roots of the squared norms, taken only in the blocks visited: the
    correctly rounded root is monotone, so a block's largest norm is the root
    of its largest square.
    """
    squares = _row_squares(x)
    starts = np.arange(0, len(squares), _SUP_BLOCK)
    bounds = np.sqrt(np.maximum.reduceat(squares, starts)) / scaling(first + starts) * (1 + 1e-9)
    for b in np.argsort(-bounds, kind="stable"):
        if bounds[b] < sup:
            break
        lo = int(starts[b])
        block = np.sqrt(squares[lo : lo + _SUP_BLOCK])
        ratios = block / scaling(np.arange(first + lo, first + lo + len(block)))
        sup = max(sup, float(ratios.max()))
    return sup


def trajectory_scan(
    graph: VoltageGraph,
    phi: np.ndarray,
    rho: np.ndarray,
    checkpoints,
    seed: int,
    stream_index: int,
    sup_scaling: ScalingSequence,
    sup_range: tuple[int, int],
):
    """One long trajectory; centered group points at checkpoints and the sup statistic.

    Returns ``(points, sup)`` where ``points[c]`` holds the log coordinates of
    the centered endpoint at step ``checkpoints[c]`` (not yet dilated) and
    ``sup`` is ``max over n in sup_range of ||centered first-layer sum at n|| /
    sup_scaling(n)``, the exact max over every step in range.  ``sup_range``
    must have lo <= hi, and lo at most the last checkpoint and at least
    ``sup_scaling.domain_min``; a range that breaks this is refused before any
    draw.  ``sup_scaling`` must be nondecreasing: it is evaluated only in
    blocks of steps whose bound, the block's largest norm over the scaling at
    its first step, reaches the running max.

    The centered first-layer sum C_n = C_{n-1} + w_n, with w_n the centered
    increment of step n, is one running sum over the whole trajectory
    (``_CenteredPrefix``: an exact int64 ``cumsum`` when the increments are
    dyadic, else the float ``cumsum``; the same floats either way).  On step
    <= 2 the checkpoint points come from it.  With S_n the sum of C_0, ...,
    C_{n-1}, and e^ the voltage of edge e seen from the positions of its
    ends, log(exp(-phi(o_e)) exp(gamma_e) exp(phi(t_e))), the point at n has
    first layer C_n and second layer

        sum_{k<=n} e^_k + 1/2 sum_{k<=n} [C_{k-1}, w_k] + [S_n, rho] + (n - 1/2)[rho, C_n],

    where the first sum is edge counts times the second layers of e^.  It
    needs phi at the base vertex to be the identity; a base vertex off it
    raises ``PinnedLayerMismatch``.  On steps 3-4 the voltages of each
    segment between checkpoints are folded and the segment products chained.

    The walk runs in parts of ``_PART_STEPS`` steps, small enough that a
    part's passes read from a core's L2 cache.  One helper thread draws part
    k+1 (uniforms, buckets and edges, from the vertex where part k ends)
    while the calling thread sums part k (``_drawn_ahead``); the next draw
    starts only after the previous one is taken, so the stream is read in the
    same order as by one thread, and the helper is joined before the scan
    returns.  The parts share one buffer for their increments and prefixes;
    only step 2 reads the increments, so the others leave them ungathered.
    """
    alg = graph.algebra
    checkpoints = np.asarray(checkpoints, dtype=np.int64)
    if len(checkpoints) == 0 or np.any(np.diff(checkpoints) <= 0) or checkpoints[0] <= 0:
        raise InputError("checkpoints must be strictly increasing positive integers")
    n_max = int(checkpoints[-1])
    lo, hi = sup_range
    if not lo <= hi or lo > n_max:
        raise InputError(f"sup_range {tuple(sup_range)} must have lo <= hi and lo at most the last "
                         f"checkpoint {n_max}")
    if lo < sup_scaling.domain_min:
        raise ScalingDomain(f"sup_range {tuple(sup_range)} starts below {sup_scaling.domain_min}, the first "
                            f"step of scaling '{sup_scaling.kind}'")
    d1 = alg.layer_dims[0]
    # coordinate-major, so that each coordinate's gather and prefix sum run along contiguous memory
    prefixes = _CenteredPrefix(np.ascontiguousarray(_centered_increments(graph, phi, rho).T), n_max)
    sums = _PrefixPoints(alg, _edge_upper_layers(graph, phi), rho) if alg.step <= 2 else None

    stream = sample_stream(seed, stream_index)
    points = np.empty((len(checkpoints), alg.dim))
    sup = -np.inf

    deck = alg.zero()
    bar = np.zeros(d1)
    pos = 0
    cp_next = 0
    vertex = 0

    def draw(k: int) -> np.ndarray:
        """The edges of part k, from the vertex where part k - 1 ends, from the continuing stream."""
        nonlocal vertex
        m = min(_PART_STEPS, n_max - k * _PART_STEPS)
        edges = _select_edges(graph, _buckets(graph, stream.random(m))[None, :], vertex)[0]
        vertex = int(graph.terminus[edges[-1]])
        return edges

    # the parts reuse one buffer for their increments and prefixes: fresh ones
    # cost a page fault per 4 KB of every part
    scratch = np.empty(d1 * (2 * min(_PART_STEPS, n_max) + 1))
    with _drawn_ahead(draw, -(-n_max // _PART_STEPS)) as parts:
        for edges in parts:
            m = len(edges)
            # cum[:, k + 1] is the centered sum C at step pos + k + 1, cum[:, 0] the
            # carried one; on step 2 w[:, k] is the increment of that step
            w = scratch[: d1 * m].reshape(d1, m)
            cum = scratch[d1 * m : d1 * (2 * m + 1)].reshape(d1, m + 1)
            prefixes.fill(edges, w, cum, bar, increments=alg.step == 2)

            # the part's steps inside sup_range are the steps first..last
            first, last = max(lo, pos + 1), min(hi, pos + m)
            if first <= last:
                sup = _screened_sup(cum[:, first - pos : last - pos + 1].T, first, sup_scaling, sup)

            # the group point is needed only at checkpoints: sum or fold the
            # segments between them and the part's end
            a = 0
            while a < m:
                b = min(m, int(checkpoints[cp_next]) - pos)
                if alg.step > 2:
                    deck = bch_product(alg, deck, fold(alg, np.take(graph.voltages, edges[a:b], axis=0)))
                elif alg.step == 2:
                    sums.add(np.bincount(edges[a:b], minlength=graph.num_edges),
                             cum[:, None, a:b], w[:, None, a:b])
                if pos + b == checkpoints[cp_next]:
                    if alg.step > 2:
                        end = alg.embed_first_layer(phi[graph.terminus[edges[b - 1]]])
                        points[cp_next] = _scaled_points(graph, bch_product(alg, deck, end), cum[:, b],
                                                         pos + b, rho, 1.0)
                    else:
                        points[cp_next] = sums.points(pos + b, cum[:, b : b + 1])[0]
                    cp_next += 1
                a = b

            bar = cum[:, m].copy()
            pos += m

    return points, sup
