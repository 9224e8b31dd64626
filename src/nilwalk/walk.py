"""Simulation of the quotient chain and its lifted group trajectory.

State on the cover is a (quotient vertex, deck element) pair: traversing an
edge multiplies the running deck element by the edge voltage, and the realized
position is deck * position(vertex).  Every engine takes the vertex positions
``phi`` as the (V, d1) first-layer array of ``modified_harmonic_realization``
and lifts ``phi[v]`` to the group with zero higher layers
(``embed_first_layer``).  The first-layer statistics are tracked through the
per-edge increment table of ``phi``, so centered sums and scaled endpoints
share one source of truth.
The batched engines read one edge table on every step, ``_edge_logs``: the
voltage of each edge seen from the positions of its ends,
log(exp(-phi(o_e)) exp(gamma_e) exp(phi(t_e))).  These telescope, so a walk
from the base vertex 0, where ``phi`` is pinned to zero, ends at the ordered
product of its edges' logs.  On steps 3-4 ``batch_endpoints`` and
``trajectory_scan`` fold them (``algebra.fold``).  On step <= 2 they fold
nothing: their points are sums over the centered first-layer prefix, which
the scan already builds for the sup, contracted with the structure constants
by the helper behind ``fold``'s step-2 branch, plus edge counts times the
logs' second layers (``_PrefixPoints``).  Both build that prefix through one
helper, ``_CenteredPrefix``: where the increment table is dyadic with room
to spare below 2^53 (on the presets, but ``z1_biased(q)`` with non-dyadic
q, up to 2^26 - 1 steps of a two-dimensional walk with unit steps), the
prefix and every reduction of it (the sup's squared norms, the bracket dots,
the sums of prefixes) stay exact int64, each scaled to a float once: the
same floats as the float route that any other table takes.  ``sample_path``
folds the voltages themselves and adds the position of its end vertex: it is
the reference the engines are checked against.

Edge selection is inversion by table look-up, one rule for every walk: each
uniform ``u`` becomes a bucket ``b`` of the graph's cached ``step_table``,
the number of its T <= E - V cuts that are <= ``u``.  Vertex ``v`` then
takes edge ``table[v, b]``, the first out-edge whose cumulative probability
exceeds ``u`` (the last out-edge if none does).  The walks draw raw 64-bit
words, not floats: word ``w`` stands for the uniform ``(w >> 11) * 2^-53``,
and its bucket is read from a guide table of the words' top byte, cached
per set of cuts beside ``step_table`` (``_step_guide``): one shift and one
look-up for any number of cuts, and ``searchsorted`` for the few words in a
cell that a cut splits.  Where every vertex's out-edges share one terminus
(the graph's ``vertex_cycle``: one vertex, ``hexagonal``,
``z1_subdivided``), the vertex of step k is fixed before any draw, so the
edges are one vectorized add of the steps' table rows and one look-up.  Only
on a quotient whose next vertex depends on the draw does a loop over steps
carry the current vertex of every row of a block at once.  Every batched
first-layer sum reduces each row to edge counts times the increments; a
sum-only walk on a vertex cycle counts, for the steps leaving each vertex,
the words at or above each cut's threshold, with no per-step array.  Every
walk starts at the base vertex 0.

Randomness contract: sample (or trajectory) ``i`` of a run seeded with ``s``
(both in [0, 2^64)) reads the raw words of the counter-based stream
``Philox(key=(s, i))`` in a single pass, and a walk takes the same edges
from them as it would from the uniforms that the stream's ``random()``
returns.  Every walk draws through one seam, ``_uniforms``, from a Philox
that each thread re-keys: ``sample_path`` and the batched engines one row of
n words per sample, and ``trajectory_scan`` part k of its trajectory at word
offset k * ``_PART_STEPS``, because a counter-based stream can be started
at any counter.  Both walk in parts of one step budget, ``_PART_STEPS`` (a
batch part holds whole rows, at least one), sized so that a part's passes
read from a core's L2 cache, and draw part k+1 on one helper thread while
part k is summed (``_drawn_ahead``).  Only a scan on a quotient whose next
vertex depends on the draw needs its parts drawn in order, for the vertex
where the previous part ends; on a vertex cycle that vertex is fixed.
Results are therefore bitwise reproducible for any worker count, block or
batch part size, and batch sample 0 takes the edges of ``sample_path``.  A scan
sums its upper layers per segment between checkpoints and part ends, so on
step 3-4, or on non-dyadic step-2 increments, its points can move by
rounding with the part size.  ``workers`` counts the threads
that run samples or trajectories; each ``batch_endpoints`` worker and each
``trajectory_scan`` adds its one helper.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .albanese import first_layer_form
from .algebra import _add_half_brackets, bch_product, dilate_vector, fold
from .errors import InputError, PinnedLayerMismatch, ScalingDomain
from .graph import VoltageGraph

# Walks per block of ``_run_sharded``; steps per part of a walk drawn ahead,
# a part of a ``batch_endpoints`` block (whole rows) or of a ``trajectory_scan``;
# and steps per block of the sup statistic's screen.  At 2^17 steps a part's
# 8-byte coordinate array is 1 MiB, the L2 cache of one core of the 2-vCPU VM
# that set it, so the main thread's passes over a part (gather, prefix sum,
# sup screen, counts, bracket dots) read from cache: there a 10^7-step
# Heisenberg scan took 67-69 ms in parts of 2^17 or 2^18 steps, 73 ms of
# 2^16 and 88-90 ms of 2^20.
_BLOCK_ROWS = 256
_PART_STEPS = 1 << 17
_SUP_BLOCK = 4096


_THREAD = threading.local()


def _whole(name: str, values, least: int) -> np.ndarray:
    """``values`` (a number or a sequence) as int64 if each is a whole number >= ``least``, a float that
    holds one included; else an ``InputError`` that names ``name``."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf" or not np.all((arr >= least) & (arr < 2**63) & (arr == np.floor(arr))):
        what = "whole numbers" if arr.ndim else "a whole number"
        raise InputError(f"{name} must be {what} >= {least}, got {values!r}")
    return arr.astype(np.int64)


def _uniforms(seed: int, index: int, n: int, offset: int = 0) -> np.ndarray:
    """Raw 64-bit words ``offset`` to ``offset + n - 1`` of stream (seed, index), in a new array: the
    one draw of every walk.

    Word w stands for the uniform ``(w >> 11) * 2^-53`` that the stream's
    ``random()`` returns in its place.  Each thread keeps one Philox and
    re-keys it through its state (the key, an empty buffer and counter
    ``offset // 4``, as Philox makes four words a block): the words of a new
    stream, at a quarter of the cost of building one (2.9-3.0 against
    11.5-12.8 us for 100 words on a 2-vCPU VM).  Only an offset inside a
    block costs a call to discard its first words.  The seed and index must
    lie in [0, 2^64).
    """
    key = [int(seed), int(index)]
    if not all(0 <= k < 2**64 for k in key):
        raise InputError(f"seed and sample index must lie in [0, 2**64), got ({seed}, {index})")
    philox = getattr(_THREAD, "philox", None)
    if philox is None:
        philox = _THREAD.philox = np.random.Philox(key=0)
    philox.state = {"bit_generator": "Philox", "state": {"counter": [offset // 4, 0, 0, 0], "key": key},
                    "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    if offset % 4:
        philox.random_raw(offset % 4)
    return philox.random_raw(n)


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


# A word's top byte picks one of 256 cells of the guide table; (w >> 11) * 2^-53
# is the uniform of word w
_CELL_SHIFT = 56
_WORD_SHIFT = 11


@lru_cache(maxsize=64)
def _step_guide(cut_bytes: bytes) -> tuple[np.ndarray, np.ndarray, bool]:
    """``(thresholds, guide, split)`` of the cuts of a ``step_table``, given as float64 bytes.

    Word w draws the uniform m 2^-53, m = w >> 11, and that is >= cut c
    exactly when m >= T = ceil(c 2^53), the cut's threshold; a cut that
    rounds to 1.0 has T = 2^53, which no m reaches.  So the bucket of w is
    ``searchsorted(thresholds, m, side="right")``.  Cell j of the words' top
    byte holds the m in [j 2^45, (j + 1) 2^45): ``guide[j]`` is the bucket of
    all of them when no threshold falls inside the cell (one on its lower
    edge does not), and -1 when one does.  ``split`` says whether any cell is.
    """
    thresholds = np.minimum(np.ceil(np.ldexp(np.frombuffer(cut_bytes), 53)), 2.0**53).astype(np.int64)
    starts = np.arange(256, dtype=np.int64) << (_CELL_SHIFT - _WORD_SHIFT)
    guide = np.searchsorted(thresholds, starts, side="right")
    inside = np.searchsorted(thresholds, starts + (starts[1] - 1), side="right") != guide
    guide[inside] = -1
    # every caller shares the cached arrays
    thresholds.flags.writeable = guide.flags.writeable = False
    return thresholds, guide, bool(inside.any())


def _buckets(graph: VoltageGraph, words: np.ndarray) -> np.ndarray:
    """Buckets (int64) of ``graph.step_table`` for raw words of any shape: the number of cuts <= each
    word's uniform.

    One shift and one look-up in the guide table (``_step_guide``) for any
    number of cuts, written over the words.  Where a cell of the table is
    split, the shift goes to a new array, and the words in split cells are
    placed by ``searchsorted`` on the thresholds.
    """
    thresholds, guide, split = _step_guide(graph.step_table[0].tobytes())
    cells = (words >> _CELL_SHIFT if split else np.right_shift(words, _CELL_SHIFT, out=words)).view(np.int64)
    buckets = np.take(guide, cells, out=cells, mode="clip")
    if split:
        at = np.flatnonzero(buckets < 0)
        buckets.flat[at] = np.searchsorted(thresholds, (words.flat[at] >> _WORD_SHIFT).view(np.int64),
                                           side="right")
    return buckets


def _select_edges(graph: VoltageGraph, buckets: np.ndarray, vertex: int = 0) -> np.ndarray:
    """Edges (B, n) of B walks from ``vertex`` with the given buckets, written over them.

    Each bucket becomes the flat index v * width + b of ``step_table``'s
    table, v the vertex its step leaves, so that the edges are one gather.
    On a ``vertex_cycle`` the vertex of every step is known before the draw:
    the offsets v * width are the cycle from ``vertex``, tiled over the steps,
    one vectorized add (none on one vertex).  Where the next vertex depends on
    the draw, a loop over the steps carries the current vertex of every walk.
    """
    _, table = graph.step_table
    width = table.shape[1]
    cycle = graph.vertex_cycle
    if cycle is None:
        after = (graph.terminus[table] * width).ravel()
        v = np.full(len(buckets), vertex * width, dtype=np.int64)
        for col in buckets.T:
            col += v
            v = after[col]
    elif len(cycle) > 1:
        start = int(np.flatnonzero(cycle == vertex)[0])
        n = buckets.shape[-1]
        buckets += np.tile(np.roll(cycle, -start) * width, -(-n // len(cycle)))[:n]
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


def _edge_counts(graph: VoltageGraph, words: np.ndarray) -> np.ndarray:
    """How often each of B walks from vertex 0 with raw words ``words`` (B, n) takes each edge: (B, E).

    On a ``vertex_cycle`` of V vertices the steps j, j + V, ... of every walk
    leave vertex ``cycle[j]``.  Each such class counts its words at or above
    each cut's threshold; the differences of these counts are the buckets'
    counts, which that vertex's row of the table adds to its edges.  No
    per-step array of buckets or edges is made.  Where the next vertex depends
    on the draw, the edges are selected and counted, overwriting the words.
    """
    rows, width = len(words), graph.num_edges
    cycle = graph.vertex_cycle
    if cycle is None:
        return _count_edges(_select_edges(graph, _buckets(graph, words)), width)
    cuts, table = graph.step_table
    # a uniform is >= a cut exactly when its word is >= T << 11 for the cut's
    # threshold T; the columns of thresholds 2^53, which no word reaches, stay 0
    thresholds = _step_guide(cuts.tobytes())[0]
    reached = [np.uint64(t << _WORD_SHIFT) for t in thresholds[thresholds < 2**53].tolist()]
    above = np.zeros((rows, len(cuts) + 1), dtype=np.int64)
    counts = np.zeros((rows, width), dtype=np.int64)
    for j, v in enumerate(cycle.tolist()):
        steps = words[:, j :: len(cycle)]
        above[:, 0] = steps.shape[1]
        for col, t in enumerate(reached, 1):
            # counting the packed compare's bits is faster than count_nonzero: 3.5 against
            # 6.2 ms for three cuts on a 256 x 10^4 block, on a 2-vCPU VM
            above[:, col] = np.bitwise_count(np.packbits(steps >= t, axis=1)).sum(axis=1)
        np.add.at(counts, (slice(None), table[v]), -np.diff(above, append=0))
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
    n = int(_whole("n", n, 0))
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

def _edge_logs(graph: VoltageGraph, phi: np.ndarray) -> np.ndarray:
    """Each edge's voltage seen from the positions of its ends: (E, dim).

    That is log(exp(-phi(o_e)) exp(gamma_e) exp(phi(t_e))).  The logs of a
    walk telescope, so one from the base vertex ends at their ordered product
    if the base vertex sits at the identity, which is checked here.
    """
    if not np.allclose(phi[0], 0.0, rtol=1e-6, atol=1e-6):
        gap = float(np.max(np.abs(phi[0])))
        raise PinnedLayerMismatch(
            f"the base vertex sits {gap:.3g} off the identity, so group points and "
            "centered increment sums differ by that much"
        )
    alg = graph.algebra
    lift = alg.embed_first_layer
    return bch_product(alg, bch_product(alg, lift(-phi[graph.origin]), graph.voltages),
                       lift(phi[graph.terminus]))


class _PrefixPoints:
    """Centered group points on step <= 2 of ``rows`` walks, from their centered first-layer prefixes C.

    Holds per walk, over the steps added so far, the edge counts, S (the sum
    of the prefixes before each step) and half the summed brackets of each
    prefix with the next increment; ``trajectory_scan`` gives the identity.
    ``upper`` is the layers of ``_edge_logs`` above the first.  Prefixes and
    increments come from ``prefixes`` (a ``_CenteredPrefix``), in units of its
    ``scale``, coordinate-major, (d1, rows, steps).  S is summed in those units
    and each segment's bracket dots are reduced in them, then scaled once: on
    the integer route every such sum is an exact integer below 2^53, so each
    scaled value is the float that the float route would have summed.
    """

    def __init__(self, alg, upper: np.ndarray, rho: np.ndarray, prefixes: _CenteredPrefix, rows: int = 1):
        self.alg = alg
        self.d1 = alg.layer_dims[0]
        self.upper = upper
        self.rho = np.asarray(rho, dtype=float)
        self.scale = prefixes.scale
        self.counts = np.zeros((rows, len(upper)), dtype=np.int64)
        self.prefix_sum = np.zeros((self.d1, rows), dtype=prefixes.table.dtype)
        self.area = np.zeros((rows, alg.dim))

    def add(self, counts: np.ndarray, before: np.ndarray, incs: np.ndarray) -> None:
        """Add steps taking each edge ``counts`` (rows, E) times, with the prefixes ``before`` them and
        increments ``incs``, both (d1, rows, k).  The counts enter only through ``upper``, so where it is
        all zero they may be 0."""
        self.counts += counts
        self.prefix_sum += before.sum(axis=-1)
        _add_half_brackets(self.alg.bracket_entries, before, incs, self.area, self.scale * self.scale)

    def points(self, n: int, c: np.ndarray) -> np.ndarray:
        """The centered points (rows, dim) at step n, the last step added, where the prefixes are ``c`` (d1, rows)."""
        c = c * self.scale
        pt = self.area.copy()
        pt[:, : self.d1] = c.T
        # einsum, unlike matmul, gives each row the same float for any number of rows
        pt[:, self.d1 :] += np.einsum("re,ed->rd", self.counts, self.upper)
        # [S, rho] + (n - 1/2)[rho, C] is the bracket of S - (n - 1/2) C with rho
        lever = 2.0 * (self.prefix_sum * self.scale - (n - 0.5) * c)
        _add_half_brackets(self.alg.bracket_entries, lever[..., None], self.rho[:, None, None], pt)
        return pt


class _CenteredPrefix:
    """Centered first-layer prefixes C of walks, from the (d1, E) increment table ``wbar_t``.

    The walks sum ``table``, and one unit of it is worth ``scale``: C is the
    ``cumsum`` of ``table``'s columns times ``scale``, and every reduction of
    C (squared norms, bracket dots, sums of prefixes) runs on those units and
    is multiplied by ``scale`` or ``scale**2`` once.  When ``wbar_t`` is
    K * 2^-s for an int64 table K with no entry -0.0 and d1 * (``n_max`` *
    max|K|)^2 < 2^53, ``table`` is K and ``scale`` 2^-s.  Then every prefix
    of at most ``n_max`` steps, a carry included, every squared norm
    (at most d1 (n max|K|)^2), every bracket dot and area (at most
    2 n^2 max|K|^2, with d1 >= 2 where there are brackets) and every sum of
    prefixes (at most n^2 max|K|) is an exact integer below 2^53: the float
    route would have computed each of them exactly, in any order of addition,
    so the scaled integer is the same float.  The tables of the lattices,
    the Cayley graphs and ``hexagonal`` are such (scale 1), and so is that of
    ``z1_biased(0.75)`` (scale 1/2).  On any other table, or a longer walk,
    ``table`` is ``wbar_t`` and ``scale`` 1.0: the same reductions run on the
    floats, and multiplying by 1.0 changes no bit.  A -0.0 entry is refused
    because a float sum of -0.0s is -0.0, an integer one +0.0.  The int64 and
    the float ``cumsum`` cost about the same per element (2.8-3.0 against
    3.5-3.7 ns on a 2-vCPU VM) and both release the GIL; the integer route
    saves the float copy of the prefix and a second gather of the increments.
    """

    def __init__(self, wbar_t: np.ndarray, n_max: int):
        self.table, self.scale = wbar_t, 1.0
        if not np.all(np.isfinite(wbar_t)) or np.any(np.signbit(wbar_t) & (wbar_t == 0)):
            return
        # every finite float is p / 2^k, so one exponent s makes the whole table integer
        ratios = [x.as_integer_ratio() for x in wbar_t.ravel().tolist()]
        s = max(q.bit_length() - 1 for _, q in ratios)
        steps = [p << (s - q.bit_length() + 1) for p, q in ratios]
        if len(wbar_t) * (n_max * max(map(abs, steps))) ** 2 < 2**53:
            self.table = np.array(steps, dtype=np.int64).reshape(wbar_t.shape)
            self.scale = 2.0**-s

    def fill(self, edges: np.ndarray, scratch: np.ndarray,
             carry: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The increments ``w`` (d1, ..., m) and prefixes ``cum`` (d1, ..., m + 1) of the walks with
        ``edges`` (..., m), in ``table``'s units, written into the front of ``scratch`` (of its dtype).

        ``cum[..., 0]`` is ``carry`` (zero if None), a prefix of this table,
        and ``cum[..., k]`` adds the first k increments to it.  The carry
        enters the first increment, so a walk summed in parts, each carrying
        the last one's end, has the prefix of one ``cumsum`` over the whole.
        ``cum`` comes first in ``scratch``: after ``w``, a part of 2^17 steps
        would start each of its rows a multiple of 4 KiB past the same row of
        ``w``, and the ``cumsum``'s loads would wait on its stores to the same
        address bits (4K aliasing), 1.5-1.6 against 0.8 ms for a Heisenberg
        part's ``cumsum`` on a 2-vCPU VM.
        """
        shape = (len(self.table),) + edges.shape
        cum_shape = shape[:-1] + (shape[-1] + 1,)
        cum = scratch[: math.prod(cum_shape)].reshape(cum_shape)
        w = scratch[cum.size : cum.size + math.prod(shape)].reshape(shape)
        # mode="clip" keeps take from buffering its output
        np.take(self.table, edges, axis=1, out=w, mode="clip")
        if carry is None:
            cum[..., 0] = 0
            np.cumsum(w, axis=-1, out=cum[..., 1:])
            return w, cum
        cum[..., 0] = carry
        first = w[..., 0].copy()
        w[..., 0] += carry
        np.cumsum(w, axis=-1, out=cum[..., 1:])
        w[..., 0] = first
        return w, cum


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
    n = int(_whole("n", n, 0))
    d1 = graph.algebra.layer_dims[0]
    if n == 0:
        return np.zeros((samples, d1))
    wbar = _centered_increments(graph, phi, rho)
    out = np.empty((samples, d1))

    def job(block):
        words = np.empty((len(block), n), dtype=np.uint64)
        for row, s in enumerate(block):
            words[row] = _uniforms(seed, s + index_offset, n)
        out[block] = np.einsum("be,ed->bd", _edge_counts(graph, words), wbar)

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
    One helper thread draws part k+1 while the worker sums part k: the part's
    words become buckets, and then edges, in their own memory (the buckets
    in a new array where a cut splits a cell of the guide table).  So a
    worker holds two or three parts' (rows, n) integer arrays, and on step 2
    one buffer for a part's increments and prefixes, not a block's.
    The sums are edge counts times the increments, as in
    ``batch_centered_sums``.

    On step 1 the point is the sum over a_n.  On step 2 it comes from each
    row's centered first-layer prefix C, (d1, rows, n), by the identity in
    ``trajectory_scan``, and its first layer is pinned to the sum over a_n;
    nothing is folded.  C is summed by ``_CenteredPrefix``, as in the scan:
    in int64 when the increments are dyadic, and its bracket dots and sums
    of prefixes too, each scaled once, with the same floats as the float
    route.  Steps 3-4 fold each row's edge logs (``_edge_logs``), which end
    at its endpoint.
    """
    n = int(_whole("n", n, 0))
    alg = graph.algebra
    d1 = alg.layer_dims[0]
    a_n = float(scaling(n))
    wbar = _centered_increments(graph, phi, rho)
    # coordinate-major, so that each coordinate's gather and prefix sum run along contiguous memory
    prefixes = _CenteredPrefix(np.ascontiguousarray(wbar.T), n) if alg.step == 2 else None
    logs = _edge_logs(graph, phi)
    points = np.empty((samples, alg.dim))
    sums = np.empty((samples, d1))
    part_rows = max(1, _PART_STEPS // max(n, 1))

    def endpoints_of(edges, scratch):
        """Points and sums of the walks with ``edges`` (rows, n); counting offsets the edges in place."""
        if alg.step > 2:
            # np.take gathers rows several times faster than fancy indexing here
            xi = fold(alg, np.take(logs, edges, axis=0))
            bar = np.einsum("be,ed->bd", _count_edges(edges, graph.num_edges), wbar)
            return _scaled_points(graph, xi, bar, n, rho, a_n), bar
        if alg.step == 2:
            # w[:, r, k] is the increment of step k + 1 of row r, gathered before
            # counting; cum[:, r, k] is row r's centered sum C after k steps
            w, cum = prefixes.fill(edges, scratch)
        counts = _count_edges(edges, graph.num_edges)
        bar = np.einsum("be,ed->bd", counts, wbar)
        if alg.step == 1:
            return bar / a_n, bar
        prefix = _PrefixPoints(alg, logs[:, d1:], rho, prefixes, len(edges))
        prefix.add(counts, cum[..., :-1], w)
        pt = dilate_vector(alg, 1.0 / a_n, prefix.points(n, cum[..., -1]))
        pt[:, :d1] = bar / a_n
        return pt, bar

    def job(block):
        parts = [block[lo : lo + part_rows] for lo in range(0, len(block), part_rows)]
        # on step 2 the parts of a block reuse one buffer for their increments and
        # prefixes: fresh ones cost a page fault per 4 KB of every part
        scratch = np.empty(d1 * len(parts[0]) * (2 * n + 1), prefixes.table.dtype) if alg.step == 2 else None

        def draw(k):
            words = np.empty((len(parts[k]), n), dtype=np.uint64)
            for row, s in enumerate(parts[k]):
                words[row] = _uniforms(seed, s, n)
            return _select_edges(graph, _buckets(graph, words))

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
    reproducible independently of the worker count.  The standard errors
    need at least two samples.
    """
    if samples < 2:
        raise InputError(f"the standard errors need at least 2 samples, got {samples}")
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


def _screened_sup(c: np.ndarray, first: int, scaling: ScalingSequence, sup: float, scale2: float) -> float:
    """``max(sup, max_k ||c[:, k]|| / scaling(first + k))`` for prefixes ``c`` (d1, m) whose squared norms
    are worth ``scale2`` a unit, the same float as the unscreened max.

    The steps are cut into blocks of ``_SUP_BLOCK``, and each block is
    bounded by its coordinate box: B_i, the largest |c_i| in the block, from
    its largest and its smallest coordinate i.  Squaring and adding are
    monotone in floats too, so the box's squared norm, summed by
    ``_row_squares`` in the same order as a step's, is at least the squared
    norm of every step in the block.  The scaling is nondecreasing, so no
    ratio in a block exceeds the box's norm over the scaling at its first
    step; the ``1 + 1e-9`` slack covers the rounding of the computed scaling
    and of the division.  Blocks are visited in order of decreasing bound,
    and the scan stops at the first bound below the running max: a max of
    floats does not depend on the order of its terms.  Squared norms are
    taken only in the blocks visited, and their roots are the norms: the
    correctly rounded root is monotone, so a block's largest norm is the root
    of its largest square.
    """
    starts = np.arange(0, c.shape[1], _SUP_BLOCK)
    box = np.maximum(np.maximum.reduceat(c, starts, axis=1), -np.minimum.reduceat(c, starts, axis=1))
    bounds = np.sqrt(_row_squares(box.T) * scale2) / scaling(first + starts) * (1 + 1e-9)
    for b in np.argsort(-bounds, kind="stable"):
        if bounds[b] < sup:
            break
        lo = int(starts[b])
        block = np.sqrt(_row_squares(c[:, lo : lo + _SUP_BLOCK].T) * scale2)
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
    sup_scaling(n)``, the exact max over every step in range.  The
    checkpoints and both ends of ``sup_range`` must be whole numbers;
    ``sup_range`` must have lo <= hi, and lo at most the last checkpoint and
    at least ``sup_scaling.domain_min``.  Arguments that break this are
    refused before any draw.  ``sup_scaling`` must be nondecreasing: it is
    evaluated only in blocks of steps whose bound, the norm of the block's
    coordinate box over the scaling at its first step, reaches the running
    max (``_screened_sup``).

    The centered first-layer sum C_n = C_{n-1} + w_n, with w_n the centered
    increment of step n, is one running sum over the whole trajectory
    (``_CenteredPrefix``: an exact int64 ``cumsum`` when the increments are
    dyadic, else the float ``cumsum``).  The sup and, on step <= 2, the
    checkpoint points are reductions of it, taken on its int64 units and
    scaled once, or on its floats; the same floats either way.  With S_n
    the sum of C_0, ..., C_{n-1}, and e^ the voltage of edge e seen from the
    positions of its ends, log(exp(-phi(o_e)) exp(gamma_e) exp(phi(t_e)))
    (``_edge_logs``), the point at n has first layer C_n and second layer

        sum_{k<=n} e^_k + 1/2 sum_{k<=n} [C_{k-1}, w_k] + [S_n, rho] + (n - 1/2)[rho, C_n],

    where the first sum is edge counts times the second layers of e^.  It
    needs phi at the base vertex to be the identity; a base vertex off it
    raises ``PinnedLayerMismatch``.  On steps 3-4 the e^ of each segment
    between checkpoints are folded and the segment products chained: the
    e^ telescope, so the product is the point before centering.

    The walk runs in parts of ``_PART_STEPS`` steps, small enough that a
    part's passes read from a core's L2 cache.  One helper thread draws part
    k+1 (its words from offset (k+1) * ``_PART_STEPS`` of the stream, then
    buckets and edges, from the vertex where part k ends) while the calling
    thread sums part k (``_drawn_ahead``); the next draw starts only after
    the previous one is taken, so it knows that vertex, and the helper is
    joined before the scan returns.  The parts share one buffer for their
    increments and prefixes, in int64 on a dyadic table: no float array
    spans a part.
    """
    alg = graph.algebra
    checkpoints = _whole("checkpoints", checkpoints, 1)
    if checkpoints.ndim != 1 or len(checkpoints) == 0 or np.any(np.diff(checkpoints) <= 0):
        raise InputError("checkpoints must be strictly increasing positive integers")
    n_max = int(checkpoints[-1])
    if np.shape(sup_range) != (2,):
        raise InputError(f"sup_range must be a pair (lo, hi), got {sup_range!r}")
    lo, hi = _whole("sup_range", sup_range, 0).tolist()
    if not lo <= hi or lo > n_max:
        raise InputError(f"sup_range {(lo, hi)} must have lo <= hi and lo at most the last "
                         f"checkpoint {n_max}")
    if lo < sup_scaling.domain_min:
        raise ScalingDomain(f"sup_range {(lo, hi)} starts below {sup_scaling.domain_min}, the first "
                            f"step of scaling '{sup_scaling.kind}'")
    d1 = alg.layer_dims[0]
    # coordinate-major, so that each coordinate's gather and prefix sum run along contiguous memory
    prefixes = _CenteredPrefix(np.ascontiguousarray(_centered_increments(graph, phi, rho).T), n_max)
    logs = _edge_logs(graph, phi)
    sums = _PrefixPoints(alg, logs[:, d1:], rho, prefixes) if alg.step <= 2 else None
    # edge counts enter the points only through the logs' second layers: where
    # these are all zero (the Cayley graphs of the presets), no segment is counted
    counted = bool(np.any(logs[:, d1:]))

    points = np.empty((len(checkpoints), alg.dim))
    sup = -np.inf

    xi = alg.zero()
    bar = np.zeros(d1, prefixes.table.dtype)
    pos = 0
    cp_next = 0
    vertex = 0

    def draw(k: int) -> np.ndarray:
        """The edges of part k, from the vertex where part k - 1 ends."""
        nonlocal vertex
        m = min(_PART_STEPS, n_max - k * _PART_STEPS)
        words = _uniforms(seed, stream_index, m, k * _PART_STEPS)
        edges = _select_edges(graph, _buckets(graph, words)[None, :], vertex)[0]
        vertex = int(graph.terminus[edges[-1]])
        return edges

    # the parts reuse one buffer for their increments and prefixes: fresh ones
    # cost a page fault per 4 KB of every part
    scratch = np.empty(d1 * (2 * min(_PART_STEPS, n_max) + 1), prefixes.table.dtype)
    with _drawn_ahead(draw, -(-n_max // _PART_STEPS)) as parts:
        for edges in parts:
            m = len(edges)
            # cum[:, k + 1] is the centered sum C at step pos + k + 1, cum[:, 0] the
            # carried one; w[:, k] is the increment of that step
            w, cum = prefixes.fill(edges, scratch, bar)

            # the part's steps inside sup_range are the steps first..last
            first, last = max(lo, pos + 1), min(hi, pos + m)
            if first <= last:
                sup = _screened_sup(cum[:, first - pos : last - pos + 1], first, sup_scaling, sup,
                                    prefixes.scale**2)

            # the group point is needed only at checkpoints: sum or fold the
            # segments between them and the part's end
            a = 0
            while a < m:
                b = min(m, int(checkpoints[cp_next]) - pos)
                if alg.step > 2:
                    xi = bch_product(alg, xi, fold(alg, np.take(logs, edges[a:b], axis=0)))
                elif alg.step == 2:
                    counts = np.bincount(edges[a:b], minlength=graph.num_edges) if counted else 0
                    sums.add(counts, cum[:, None, a:b], w[:, None, a:b])
                if pos + b == checkpoints[cp_next]:
                    if alg.step > 2:
                        points[cp_next] = _scaled_points(graph, xi, cum[:, b] * prefixes.scale, pos + b, rho, 1.0)
                    else:
                        points[cp_next] = sums.points(pos + b, cum[:, b : b + 1])[0]
                    cp_next += 1
                a = b

            bar = cum[:, m].copy()
            pos += m

    return points, sup
