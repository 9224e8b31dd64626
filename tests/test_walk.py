import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nilwalk.walk as walk
from nilwalk.albanese import albanese_pipeline, first_layer_form
from nilwalk.algebra import abelian_algebra, bch_product
from nilwalk.errors import InputError, PinnedLayerMismatch, ScalingDomain
from nilwalk.graph import (
    VoltageGraph,
    heisenberg_cayley,
    hexagonal,
    z1_biased,
    z1_subdivided,
    zd_lattice,
)
from nilwalk.walk import (
    batch_centered_sums,
    batch_endpoints,
    endpoints_csv_rows,
    lil_scaling,
    power_scaling,
    sample_path,
    scaled_endpoint,
    trajectory_scan,
)

from conftest import (
    heisenberg_hexagonal,
    philox_stream,
    unipotent_cayley,
    unipotent_exp,
    unipotent_log,
    unipotent_two_vertex,
)


def pipeline(graph):
    meas, rho, phi0, data = albanese_pipeline(graph)
    return meas, rho, phi0


# ---------------------------------------------------------------------------
# Scaling sequences
# ---------------------------------------------------------------------------

def test_power_scaling_window():
    s = power_scaling(0.75)
    assert s(16) == 8.0
    with pytest.raises(ValueError):
        power_scaling(0.5)
    with pytest.raises(ValueError):
        power_scaling(1.0)


def test_lil_scaling_domain():
    s = lil_scaling()
    assert s.domain_min == 16
    assert abs(s(100) - np.sqrt(100 * np.log(np.log(100)))) <= 1e-12
    with pytest.raises(ScalingDomain):
        s(15)


def test_stream_is_chunk_invariant():
    a = philox_stream(7, 3).random(1000)
    gen = philox_stream(7, 3)
    b = np.concatenate([gen.random(137), gen.random(500), gen.random(363)])
    assert np.array_equal(a, b)


def test_the_seam_reads_the_stream_at_an_offset(monkeypatch):
    # Philox makes four words a block: an offset sets the counter to its block
    # and discards the words before it inside the block
    offsets = [*range(10), (1 << 17) - 1, 1 << 17, (1 << 17) + 3]
    for s, i in ((0, 0), (31, 2), (2**64 - 1, 7), (5, 2**64 - 1)):
        stream = philox_stream(s, i).bit_generator.random_raw(offsets[-1] + 9)
        for offset in offsets:
            assert np.array_equal(walk._uniforms(s, i, 9, offset), stream[offset : offset + 9]), (s, i, offset)
    # a scan draws its parts at their offsets: they join into one stream
    uniforms, drawn = walk._uniforms, []

    def recorded(seed, index, n, offset=0):
        words = uniforms(seed, index, n, offset)
        drawn.append((offset, words.copy()))
        return words

    g = hexagonal()
    meas, rho, phi0 = pipeline(g)
    for part in (7, 64):
        drawn.clear()
        with monkeypatch.context() as m:
            m.setattr(walk, "_PART_STEPS", part)
            m.setattr(walk, "_uniforms", recorded)
            trajectory_scan(g, phi0, rho, [100, 1000], seed=43, stream_index=2, sup_scaling=lil_scaling(),
                            sup_range=(16, 1000))
        assert [offset for offset, _ in drawn] == list(range(0, 1000, part)), part
        words = np.concatenate([w for _, w in drawn])
        assert np.array_equal(words, philox_stream(43, 2).bit_generator.random_raw(1000)), part


def test_the_seam_gives_the_streams_words():
    # _uniforms re-keys one Philox per thread: each row is the words of a new
    # stream (s, i), also when two threads re-key at once and a row leaves part
    # of a Philox block unread, and the words' floats are the stream's uniforms
    pairs = [(s, i) for s in (0, 1, 31, 2**64 - 1) for i in (*range(49), 2**64 - 1)]
    assert len(pairs) == 200
    lengths = [1 + 13 * k % 41 for k in range(len(pairs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            rows = list(pool.map(lambda p, n: walk._uniforms(*p, n), pairs, lengths, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for (s, i), n, row in zip(pairs, lengths, rows):
        assert row.dtype == np.uint64
        assert np.array_equal(row, philox_stream(s, i).bit_generator.random_raw(n)), (s, i)
        assert np.array_equal((row >> np.uint64(11)) * 2.0**-53, philox_stream(s, i).random(n)), (s, i)
    # a seed or index outside [0, 2^64) does not fit the key
    for s, i in ((2**64, 0), (0, 2**64), (-1, 0), (0, -1)):
        with pytest.raises(InputError, match="2\\*\\*64"):
            walk._uniforms(s, i, 3)


# ---------------------------------------------------------------------------
# Single paths
# ---------------------------------------------------------------------------

def test_zero_step_path():
    g = zd_lattice(2)
    meas, rho, phi0 = pipeline(g)
    path = sample_path(g, phi0, rho, 0, seed=1)
    assert np.array_equal(path.xi, np.zeros(2))
    assert np.array_equal(path.xi_bar, np.zeros(2))
    assert list(path.vertices) == [0]


def test_z1_signed_step_count_replay():
    g = zd_lattice(1)
    meas, rho, phi0 = pipeline(g)
    path = sample_path(g, phi0, rho, 10, seed=42)
    u = philox_stream(42, 0).random(10)
    expected = np.where(u < 0.5, 1.0, -1.0).sum()  # edge 0 is +1 at p = 1/2
    assert path.xi[0] == expected
    assert path.xi_bar[0] == expected


def test_heisenberg_path_against_matrix_oracle():
    g = heisenberg_cayley()
    meas, rho, phi0 = pipeline(g)
    path = sample_path(g, phi0, rho, 200, seed=5)
    acc = np.eye(3)
    for e in path.edges:
        acc = acc @ unipotent_exp(3, g.voltages[e])
    want = unipotent_log(3, acc)
    assert np.abs(path.xi - want).max() <= 1e-12
    # first layer is the sum of +-unit steps
    assert np.array_equal(path.xi[:2], g.voltages[path.edges][:, :2].sum(axis=0))


def test_path_increment_invariants():
    for g in (hexagonal(), z1_biased(0.75), z1_subdivided()):
        meas, rho, phi0 = pipeline(g)
        path = sample_path(g, phi0, rho, 500, seed=8)
        wbar = first_layer_form(g, phi0) - rho[None, :]
        assert np.array_equal(path.increments, wbar[path.edges])
        assert np.array_equal(path.prefix[-1], path.xi_bar)
        # consecutive edges are incident
        assert np.array_equal(g.origin[path.edges], path.vertices[:-1])
        assert np.array_equal(g.terminus[path.edges], path.vertices[1:])


def test_deck_fold_dual_route():
    # vectorized deck computation vs sequential BCH fold of edge voltages
    for g in (heisenberg_cayley(), hexagonal(), z1_subdivided()):
        meas, rho, phi0 = pipeline(g)
        path = sample_path(g, phi0, rho, 300, seed=13)
        acc = g.algebra.zero()
        for e in path.edges:
            acc = bch_product(g.algebra, acc, g.voltages[e])
        xi = bch_product(g.algebra, acc, g.algebra.embed_first_layer(phi0[path.vertices[-1]]))
        assert np.abs(xi - path.xi).max() <= 1e-12


def test_empirical_step_distribution():
    g = hexagonal()
    meas, rho, phi0 = pipeline(g)
    path = sample_path(g, phi0, rho, 1_000_000, seed=101)
    counts = np.bincount(path.edges, minlength=g.num_edges).astype(float)
    visits = np.bincount(path.vertices[:-1], minlength=g.num_vertices).astype(float)
    freq = counts / visits[g.origin]
    se = np.sqrt(g.prob * (1 - g.prob) / visits[g.origin])
    assert np.all(np.abs(freq - g.prob) <= 4.0 * se)


# ---------------------------------------------------------------------------
# Scaled endpoints
# ---------------------------------------------------------------------------

def test_interpolation_lil_domain():
    g = zd_lattice(1)
    meas, rho, phi0 = pipeline(g)
    path = sample_path(g, phi0, rho, 15, seed=9)
    with pytest.raises(ScalingDomain):
        scaled_endpoint(path, lil_scaling())
    with pytest.raises(ScalingDomain):
        batch_endpoints(g, phi0, rho, lil_scaling(), n=15, samples=4, seed=9)


def test_scaled_endpoint_consistency():
    scaling = power_scaling(0.75)
    for g in (zd_lattice(2), heisenberg_cayley(), z1_biased(0.75)):
        meas, rho, phi0 = pipeline(g)
        path = sample_path(g, phi0, rho, 256, seed=21)
        pt = scaled_endpoint(path, scaling)
        assert np.array_equal(pt[: g.algebra.layer_dims[0]], path.xi_bar / scaling(256))


def test_scaled_endpoint_symmetric_equals_uncentered():
    g = heisenberg_cayley()  # rho = 0
    meas, rho, phi0 = pipeline(g)
    path = sample_path(g, phi0, rho, 256, seed=33)
    scaling = power_scaling(0.75)
    pt = scaled_endpoint(path, scaling)
    a_n = scaling(256)
    assert abs(pt[2] - path.xi[2] / a_n**2) <= 1e-12  # layer-2 scales by a_n^2


def test_heisenberg_levy_area_scaling():
    g = heisenberg_cayley()
    meas, rho, phi0 = pipeline(g)
    n = 512
    path = sample_path(g, phi0, rho, n, seed=55)
    # discrete Levy area of the step sequence, computed independently
    steps = g.voltages[path.edges][:, :2]
    pos = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])[:-1]
    area = 0.5 * np.sum(pos[:, 0] * steps[:, 1] - pos[:, 1] * steps[:, 0])
    assert abs(path.xi[2] - area) <= 1e-10
    pt = scaled_endpoint(path, power_scaling(0.75))
    assert abs(pt[2] - area / n**1.5) <= 1e-12


# ---------------------------------------------------------------------------
# Batched engines
# ---------------------------------------------------------------------------

def test_batch_single_sample_reduces_to_sample_path():
    scaling = power_scaling(0.75)
    for g in (zd_lattice(2), heisenberg_cayley(), hexagonal()):
        meas, rho, phi0 = pipeline(g)
        points, sums = batch_endpoints(g, phi0, rho, scaling, 128, samples=1, seed=17)
        path = sample_path(g, phi0, rho, 128, seed=17)
        assert np.abs(points[0] - scaled_endpoint(path, scaling)).max() <= 1e-12
        assert np.abs(sums[0] - path.xi_bar).max() <= 1e-12


def test_pinned_first_layer_mismatch_raises():
    # a realization whose base vertex is off the identity breaks the identity
    # between the group route and the centered increment sums
    g = heisenberg_cayley()
    meas, rho, phi0 = pipeline(g)
    shifted = phi0 + np.array([5.0, 0.0])
    scaling = power_scaling(0.75)
    with pytest.raises(PinnedLayerMismatch):
        batch_endpoints(g, shifted, rho, scaling, 64, samples=2, seed=1)
    with pytest.raises(PinnedLayerMismatch):
        scaled_endpoint(sample_path(g, shifted, rho, 64, seed=1), scaling)
    with pytest.raises(PinnedLayerMismatch):
        trajectory_scan(g, shifted, rho, [64], seed=1, stream_index=0,
                        sup_scaling=lil_scaling(), sup_range=(16, 64))


def test_batch_mean_near_zero_for_symmetric():
    g = zd_lattice(2)
    meas, rho, phi0 = pipeline(g)
    points, sums = batch_endpoints(g, phi0, rho, power_scaling(0.75), 400, samples=2000, seed=23)
    se = sums.std(axis=0, ddof=1) / np.sqrt(len(sums))
    assert np.all(np.abs(sums.mean(axis=0)) <= 3.5 * se)


def test_batch_worker_count_invariance(monkeypatch):
    # the last three graphs have non-dyadic centered increments, so their sums
    # are rounded and would show a reduction that depends on the part size;
    # the drifted Heisenberg cover's points also sum non-dyadic areas.  The
    # part budget is one row, seven rows and all 64 rows
    for g in (zd_lattice(2), hexagonal(), unipotent_cayley(4), uneven_three_vertex(),
              one_vertex_non_dyadic(), heisenberg_hexagonal((0.5, 0.3, 0.2), (0.2, 0.5, 0.3))):
        meas, rho, phi0 = pipeline(g)
        one = batch_centered_sums(g, phi0, rho, 200, samples=64, seed=29, workers=1)
        p1, s1 = batch_endpoints(g, phi0, rho, power_scaling(0.6), 200, 64, seed=29, workers=1)
        for workers in (1, 2, 8):
            for part_rows in (1, 7, 64):
                with monkeypatch.context() as m:
                    m.setattr(walk, "_PART_STEPS", part_rows * 200)
                    sums = batch_centered_sums(g, phi0, rho, 200, samples=64, seed=29, workers=workers)
                    p, s = batch_endpoints(g, phi0, rho, power_scaling(0.6), 200, 64, seed=29,
                                           workers=workers)
                assert np.array_equal(one, sums), (workers, part_rows)
                assert np.array_equal(p1, p) and np.array_equal(s1, s), (workers, part_rows)


def test_batch_endpoints_step_two_points_match_the_group_route(monkeypatch):
    # on step 2 the batch folds nothing: each row's point comes from its
    # centered first-layer prefix, as in trajectory_scan.  The group route
    # replays row i through sample_path on stream (seed, i); a unit scaling
    # compares the undilated points
    cases = {
        "Cayley": heisenberg_cayley(),
        "symmetric": heisenberg_hexagonal(),
        "non-dyadic": heisenberg_hexagonal((0.3, 0.3, 0.4), (0.3, 0.3, 0.4)),
        "drifted": heisenberg_hexagonal((0.5, 0.3, 0.2), (0.2, 0.5, 0.3)),
    }
    n, samples = 5000, 6
    unit = walk.ScalingSequence(kind="unit", evaluate=np.ones_like)
    uniforms = walk._uniforms

    def no_fold(alg, gammas):
        raise AssertionError("the step-2 batch folded its walks")

    for name, g in cases.items():
        meas, rho, phi0 = pipeline(g)
        want = []
        for i in range(samples):
            with monkeypatch.context() as m:
                m.setattr(walk, "_uniforms", lambda seed, index, n, i=i: uniforms(seed, i, n))
                want.append(scaled_endpoint(sample_path(g, phi0, rho, n, seed=73), unit))
        want = np.array(want)
        tol = 1e-12 * np.abs(want).max() if name == "drifted" else 1e-10
        for part_rows in (1, 4, 256):
            with monkeypatch.context() as m:
                m.setattr(walk, "_PART_STEPS", part_rows * n)
                m.setattr(walk, "fold", no_fold)
                points, _ = batch_endpoints(g, phi0, rho, unit, n, samples, seed=73)
            assert np.abs(points - want).max() <= tol, (name, part_rows)


def test_batch_endpoints_joins_its_draw_threads(monkeypatch):
    # each worker's draw-ahead helper is gone when the batch returns, and
    # when a draw (_buckets) or the summing side (_count_edges) fails, the
    # batch raises that same exception
    g = heisenberg_cayley()
    meas, rho, phi0 = pipeline(g)
    args = (g, phi0, rho, power_scaling(0.75), 100, 20)
    monkeypatch.setattr(walk, "_PART_STEPS", 200)  # parts of two rows
    before = threading.active_count()
    batch_endpoints(*args, seed=83, workers=2)
    assert threading.active_count() == before

    class Injected(Exception):
        pass

    for target in ("_buckets", "_count_edges"):
        for workers in (1, 2):
            injected, calls, original = Injected(target), [], getattr(walk, target)

            def failing(*a):
                calls.append(target)
                if len(calls) == 3:
                    raise injected
                return original(*a)

            with monkeypatch.context() as m:
                m.setattr(walk, target, failing)
                with pytest.raises(Injected) as info:
                    batch_endpoints(*args, seed=83, workers=workers)
            assert info.value is injected, (target, workers)
            assert len(calls) == 3 if workers == 1 else len(calls) >= 3, (target, calls)
            assert threading.active_count() == before, (target, workers)


def uneven_three_vertex() -> VoltageGraph:
    """Unequal out-probabilities per vertex; those of vertices 0 and 1 sum to 1 - 2**-53."""
    pairs = [
        (0, 1, 0.3, 0.2, [1.0, 0.0]),
        (0, 1, 0.6, 0.7, [0.0, 1.0]),
        (0, 2, 0.1, 0.5, [1.0, 1.0]),
        (1, 2, 0.1, 0.5, [-1.0, 0.0]),
    ]
    return VoltageGraph.from_pairs(abelian_algebra(2), 3, pairs)


def one_vertex_non_dyadic() -> VoltageGraph:
    """One vertex with cuts 0.4, 0.5 and 0.8 and the non-dyadic drift (0.3, 0.1)."""
    pairs = [(0, 0, 0.4, 0.1, [1.0, 0.0]), (0, 0, 0.3, 0.2, [0.0, 1.0])]
    return VoltageGraph.from_pairs(abelian_algebra(2), 1, pairs)


def one_vertex_many_cuts() -> VoltageGraph:
    """One vertex, 10 edge pairs with the distinct probabilities k / 210, k = 1..20: 19 cuts."""
    pairs = [(0, 0, k / 210, (k + 10) / 210, [float(k % 2), float(1 - k % 2)]) for k in range(1, 11)]
    return VoltageGraph.from_pairs(abelian_algebra(2), 1, pairs)


def _replay_vertices_edges(graph, u):
    """Scalar replay of the selection rule from ``origin`` and ``prob`` alone.

    From vertex v, take the first out-edge (in edge order) whose running
    probability sum exceeds u, or the last out-edge if none does.
    """
    vertices, edges, v = [], [], 0
    for x in u:
        out = [e for e in range(graph.num_edges) if graph.origin[e] == v]
        total, pick = 0.0, out[-1]
        for e in out:
            total += float(graph.prob[e])
            if x < total:
                pick = e
                break
        vertices.append(v)
        edges.append(pick)
        v = int(graph.terminus[pick])
    return np.array(vertices), np.array(edges, dtype=np.int64)


def test_batch_matches_per_sample_streams_multivertex(monkeypatch):
    # graphs with their cumulative out-probability totals, where they are pinned
    cases = [
        (uneven_three_vertex(), [1.0 - 2.0**-53, 1.0 - 2.0**-53, 1.0]),
        (one_vertex_non_dyadic(), [1.0]),
        (z1_biased(0.75), None),
        (heisenberg_cayley(), None),
        (unipotent_cayley(4), None),
        (one_vertex_many_cuts(), None),
        (heisenberg_hexagonal((0.5, 0.3, 0.2), (0.2, 0.5, 0.3)), None),
    ]
    assert [len(g.step_table[0]) for g, _ in cases] == [4, 3, 1, 3, 5, 19, 4]
    for g, totals in cases:
        meas, rho, phi0 = pipeline(g)
        wbar = first_layer_form(g, phi0) - rho[None, :]
        sums = batch_centered_sums(g, phi0, rho, 150, samples=5, seed=31)
        for i in range(5):
            _, edges = _replay_vertices_edges(g, philox_stream(31, i).random(150))
            assert np.abs(sums[i] - wbar[edges].sum(axis=0)).max() <= 1e-12

        # boundary words: for every cumulative out-probability c, the uniforms
        # m * 2^-53 just below, at and just above it (m = T - 1, T, T + 1 for
        # T = ceil(c * 2^53)), and 0 and 1 - 2^-53; each m as its lowest word
        # m << 11 and its highest (m << 11) | 0x7FF, each drawn at every vertex
        per_vertex = [np.cumsum(g.prob[g.origin == v]) for v in range(g.num_vertices)]
        if totals is not None:
            assert [c[-1] for c in per_vertex] == totals
        t = np.ceil(np.concatenate(per_vertex) * 2.0**53).astype(np.int64)
        ms = np.unique(np.concatenate([t - 1, t, t + 1, [0, 2**53 - 1]]))
        ms = ms[(ms >= 0) & (ms < 2**53)].astype(np.uint64) << np.uint64(11)
        boundary = np.concatenate([ms, ms | np.uint64(0x7FF)])
        rng = np.random.default_rng(0)
        rows = np.array([rng.permutation(np.tile(boundary, 3)) for _ in range(6)])
        uniforms = (rows >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(walk._buckets(g, rows.copy()),
                              np.searchsorted(g.step_table[0], uniforms, side="right"))
        replays = [_replay_vertices_edges(g, row) for row in uniforms]
        seen = {(x, v) for row, (vs, _) in zip(uniforms, replays) for x, v in zip(row, vs)}
        assert len(seen) == len(ms) * g.num_vertices

        # every engine that draws through the seam takes these rows as its uniforms
        with monkeypatch.context() as m:
            n, scaling = len(rows[0]), power_scaling(0.75)
            m.setattr(walk, "_uniforms", lambda seed, index, n: rows[index][:n].copy())
            m.setattr(walk, "_PART_STEPS", 4 * n)
            sums = batch_centered_sums(g, phi0, rho, n, samples=len(rows), seed=0)
            points, end_sums = batch_endpoints(g, phi0, rho, scaling, n, samples=len(rows), seed=0)
            for i, (_, edges) in enumerate(replays):
                want = wbar[edges].sum(axis=0)
                assert np.abs(sums[i] - want).max() <= 1e-12
                assert np.abs(end_sums[i] - want).max() <= 1e-12
            path = sample_path(g, phi0, rho, n, seed=0)
            assert np.array_equal(path.edges, replays[0][1])
            assert np.abs(points[0] - scaled_endpoint(path, scaling)).max() <= 1e-12


def test_the_vertex_cycle_route_matches_the_vertex_loop(monkeypatch):
    # where every vertex's out-edges share one terminus, the walks take each
    # step's vertex from the graph's vertex cycle; with the cycle forced to
    # None they carry it through the per-step loop, with the same bits.  The
    # scan's odd parts start at both vertices of the cycle
    cases = {
        "hexagonal": hexagonal(), "subdivided": z1_subdivided(), "symmetric": heisenberg_hexagonal(),
        "non-dyadic": heisenberg_hexagonal((0.3, 0.3, 0.4), (0.3, 0.3, 0.4)),
        "drifted": heisenberg_hexagonal((0.5, 0.3, 0.2), (0.2, 0.5, 0.3)),
        "unipotent": unipotent_two_vertex(),
    }
    assert uneven_three_vertex().vertex_cycle is None
    assert zd_lattice(2).vertex_cycle.tolist() == [0]
    checkpoints, sup_range = [1, 1000, 2001, 4003], (16, 4003)
    for name, g in cases.items():
        assert g.vertex_cycle.tolist() == [0, 1], name
        meas, rho, phi0 = pipeline(g)

        def run():
            out = [batch_centered_sums(g, phi0, rho, n, samples=9, seed=41, workers=workers, index_offset=3)
                   for n in (1, 7, 300) for workers in (1, 2)]
            out += batch_endpoints(g, phi0, rho, power_scaling(0.75), 301, 9, seed=43, workers=2)
            with monkeypatch.context() as m:
                m.setattr(walk, "_PART_STEPS", 999)
                points, sup = trajectory_scan(g, phi0, rho, checkpoints, 47, 1, lil_scaling(), sup_range)
            return out + [points, sup, sample_path(g, phi0, rho, 1001, seed=53).edges]

        cycle = run()
        with monkeypatch.context() as m:
            m.setattr(VoltageGraph, "vertex_cycle", property(lambda self: None))
            loop = run()
        assert len(cycle) == len(loop) == 11, name
        for k, (a, b) in enumerate(zip(cycle, loop)):
            assert np.array_equal(a, b), (name, k)


def test_a_long_hexagonal_trajectory_takes_under_five_seconds():
    # a 10^7-step trajectory on a two-vertex quotient, at criterion 8's
    # checkpoints and sup range: 0.16-0.21 s on a 2-vCPU VM (10.6-11.2 s with a per-step vertex loop)
    g = hexagonal()
    meas, rho, phi0 = pipeline(g)
    grid = [1000 * 2**k for k in range(14)] + [10_000_000]
    start = time.perf_counter()
    trajectory_scan(g, phi0, rho, grid, 7, 0, lil_scaling(), (1000, 10_000_000))
    assert time.perf_counter() - start < 5.0


def one_vertex_cut_at_one() -> VoltageGraph:
    """One vertex with cuts 0.5, on a cell edge of the guide table, and 1.0: two edges of p = 1e-17."""
    pairs = [(0, 0, 0.5, 0.5, [1.0, 0.0]), (0, 0, 1e-17, 1e-17, [0.0, 1.0])]
    return VoltageGraph.from_pairs(abelian_algebra(2), 1, pairs)


def test_guide_table_buckets_are_exact():
    # the guide table gives the bucket of the word's uniform (w >> 11) * 2^-53
    # at every cut's threshold word and the word below it, and at both ends
    # of every top-byte cell; no cell is split on the dyadic presets
    cases = {
        "Z": (zd_lattice(1), 0), "Z^2": (zd_lattice(2), 0), "Z^3": (zd_lattice(3), 4),
        "Z biased 0.7": (z1_biased(0.7), 1), "Z biased 0.75": (z1_biased(0.75), 0),
        "hexagonal": (hexagonal(), 2), "Heisenberg": (heisenberg_cayley(), 0),
        "Z subdivided": (z1_subdivided(), 0), "unipotent4": (unipotent_cayley(4), 4),
        "uneven": (uneven_three_vertex(), None), "non-dyadic": (one_vertex_non_dyadic(), None),
        "many cuts": (one_vertex_many_cuts(), None), "cut at 1.0": (one_vertex_cut_at_one(), 0),
    }
    cells = np.arange(256, dtype=np.uint64) << np.uint64(56)
    rng = np.random.default_rng(0)
    for name, (g, splits) in cases.items():
        cuts, table = g.step_table
        thresholds, guide, split = walk._step_guide(cuts.tobytes())
        assert np.array_equal(thresholds, [min(math.ceil(c * 2**53), 2**53) for c in cuts.tolist()]), name
        if splits is not None:
            assert (np.count_nonzero(guide < 0), split) == (splits, splits > 0), name
        reached = thresholds[thresholds < 2**53].astype(np.uint64) << np.uint64(11)
        words = np.concatenate([reached, reached - np.uint64(1), cells, cells | np.uint64(2**56 - 1),
                                rng.integers(0, 2**64, 4096, dtype=np.uint64, endpoint=False)])
        want = np.searchsorted(cuts, (words >> np.uint64(11)) * 2.0**-53, side="right")
        assert np.array_equal(walk._buckets(g, words.copy()), want), name
        if g.num_vertices == 1:
            counts = walk._edge_counts(g, np.stack([words, words[::-1]]))
            assert np.array_equal(counts[0], np.bincount(table[0][want], minlength=g.num_edges)), name
            assert np.array_equal(counts[1], counts[0]), name
    assert len(one_vertex_many_cuts().step_table[0]) == 19
    assert walk._step_guide(one_vertex_many_cuts().step_table[0].tobytes())[2]
    assert one_vertex_cut_at_one().step_table[0].tolist() == [0.5, 1.0]


def test_batch_centered_sums_memory():
    # each worker draws its parts' words into one buffer of at most
    # _PART_STEPS words and counts their edges there, so a worker holds about
    # one part of words at any number of samples; the bound allows three
    # 8-byte arrays of a part per worker for two workers.  Words drawn 256 rows
    # at a time (20 MB a worker) peaked at 46 and 88 MB on the two-worker
    # call, against 2.4 and 4.5 MB in parts.  Z^2 counts its words on its
    # vertex cycle, the three-vertex quotient selects edges in a per-step loop
    # (its buckets in a new array)
    import tracemalloc

    for g in (zd_lattice(2), uneven_three_vertex()):
        meas, rho, phi0 = pipeline(g)
        batch_centered_sums(g, phi0, rho, 100, samples=4, seed=3, workers=2)
        for samples, workers in ((256, 1), (600, 2)):
            tracemalloc.start()
            try:
                batch_centered_sums(g, phi0, rho, 10_000, samples=samples, seed=3, workers=workers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 3 * 8 * walk._PART_STEPS, (g.num_vertices, workers, peak)


def test_batch_endpoints_memory():
    # 256 Heisenberg walks of 10^4 steps are walked in parts, the next drawn
    # while one is summed: the peak stays below the (256, 10^4) int64 edges
    # of the whole batch
    import tracemalloc

    g = heisenberg_cayley()
    meas, rho, phi0 = pipeline(g)
    scaling = power_scaling(0.75)
    batch_endpoints(g, phi0, rho, scaling, 100, samples=4, seed=3)
    tracemalloc.start()
    try:
        batch_endpoints(g, phi0, rho, scaling, 10_000, samples=256, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 10_000 * 8


def test_lln_biased_loop():
    g = z1_biased(0.75)
    meas, rho, phi0 = pipeline(g)
    n = 1_000_000
    sums = batch_centered_sums(g, phi0, rho, n, samples=20, seed=37)
    errs = np.abs(sums[:, 0] / n)  # |Xi_n / n - rho|
    assert np.all(errs <= 5.0 / np.sqrt(n))


def test_endpoints_csv_rows_shape():
    g = zd_lattice(1)
    meas, rho, phi0 = pipeline(g)
    points, sums = batch_endpoints(g, phi0, rho, power_scaling(0.75), 32, samples=3, seed=2)
    rows = list(endpoints_csv_rows(points, sums, 32))
    assert rows[0] == ["sample_id", "n", "endpoint_0", "xi_bar_0"]
    assert len(rows) == 4 and rows[1][0] == 0 and rows[1][1] == 32


# ---------------------------------------------------------------------------
# Trajectory scan
# ---------------------------------------------------------------------------

def test_trajectory_scan_matches_sample_path():
    for g in (heisenberg_cayley(), zd_lattice(1), hexagonal(), z1_subdivided()):
        meas, rho, phi0 = pipeline(g)
        checkpoints = [100, 500, 2000]
        points, _ = trajectory_scan(g, phi0, rho, checkpoints, seed=41, stream_index=0,
                                    sup_scaling=lil_scaling(), sup_range=(16, checkpoints[-1]))
        for c, n in enumerate(checkpoints):
            path = sample_path(g, phi0, rho, n, seed=41)
            centered = bch_product(
                g.algebra, path.xi, g.algebra.embed_first_layer(-float(n) * rho)
            )
            assert np.abs(points[c] - centered).max() <= 1e-10


def test_trajectory_scan_chunk_invariance(monkeypatch):
    # with an odd chunk, chunks of the bipartite two-vertex quotients start at either vertex
    cps = [50, 400, 1500]
    kw = dict(seed=43, stream_index=2, sup_scaling=lil_scaling(), sup_range=(100, 1500))
    for g in (heisenberg_cayley(), hexagonal(), z1_subdivided()):
        meas, rho, phi0 = pipeline(g)
        p_big, s_big = trajectory_scan(g, phi0, rho, cps, **kw)
        for chunk in (7, 64):
            with monkeypatch.context() as m:
                m.setattr(walk, "_PART_STEPS", chunk)
                p_small, s_small = trajectory_scan(g, phi0, rho, cps, **kw)
            assert np.abs(p_small - p_big).max() <= 1e-10
            assert abs(s_small - s_big) <= 1e-12
    # where the increments are dyadic, every prefix and area sum is exact: parts
    # of 2^17 and of 2^20 steps give the same bits, with segments across the
    # ends of the smaller parts.  On step 3 the sup and the first layer are
    # exact sums; the upper layers are the layer recursion's carried cumsums,
    # whose bits test_step_three_points_do_not_move_with_the_part_size_or_the_workers checks
    cps = [1, 7, 131_071, 131_072, 131_073, 300_000]
    kw = dict(seed=43, stream_index=2, sup_scaling=lil_scaling(), sup_range=(16, cps[-1]))
    cases = {"Z": zd_lattice(1), "Heisenberg": heisenberg_cayley(), "hexagonal": hexagonal(),
             "unipotent4": unipotent_cayley(4)}
    for name, g in cases.items():
        meas, rho, phi0 = pipeline(g)
        runs = []
        for budget in (1 << 17, 1 << 20):
            with monkeypatch.context() as m:
                m.setattr(walk, "_PART_STEPS", budget)
                runs.append(trajectory_scan(g, phi0, rho, cps, **kw))
        (p_small, s_small), (p_big, s_big) = runs
        d1 = g.algebra.layer_dims[0]
        assert s_small == s_big and np.array_equal(p_small[:, :d1], p_big[:, :d1]), name
        if g.algebra.step <= 2:
            assert np.array_equal(p_small, p_big), name
        assert np.abs(p_small - p_big).max() <= 1e-14 * np.abs(p_big).max(), name


def test_row_norms_match_numpy_norm_bit_for_bit():
    # also in coordinate-major layout, against the norm of the C-order rows:
    # from d = 8 numpy sums a strided row in another order than a contiguous one
    rng = np.random.default_rng(61)
    for d in range(1, 21):
        x = rng.normal(size=(1003, d)) * rng.uniform(1e-3, 1e3, size=d)
        for part in (x, x[5:5 + 997], x[:1]):
            assert np.array_equal(np.sqrt(walk._row_squares(part)), np.linalg.norm(part, axis=1)), d
        xt = np.ascontiguousarray(x.T).T
        for rows in (slice(None), slice(5, 5 + 997), slice(0, 1)):
            want = np.linalg.norm(x[rows], axis=1)
            assert np.array_equal(np.sqrt(walk._row_squares(xt[rows])), want), d


def test_trajectory_scan_joins_its_draw_thread(monkeypatch):
    # the helper that draws ahead is gone when the scan returns, and when a
    # draw fails the scan raises that same exception
    g = heisenberg_cayley()
    meas, rho, phi0 = pipeline(g)
    kw = dict(seed=67, stream_index=0, sup_scaling=lil_scaling(), sup_range=(16, 1000))
    monkeypatch.setattr(walk, "_PART_STEPS", 64)
    before = threading.active_count()
    trajectory_scan(g, phi0, rho, [1000], **kw)
    assert threading.active_count() == before

    class Injected(Exception):
        pass

    injected, calls, buckets = Injected("third draw"), [], walk._buckets

    def failing(graph, u):
        calls.append(len(u))
        if len(calls) == 3:
            raise injected
        return buckets(graph, u)

    monkeypatch.setattr(walk, "_buckets", failing)
    with pytest.raises(Injected) as info:
        trajectory_scan(g, phi0, rho, [1000], **kw)
    assert info.value is injected and len(calls) == 3
    assert threading.active_count() == before


def test_trajectory_scan_sup_matches_replay(monkeypatch):
    # the sup over every step in range, replayed from sample_path's prefix sums
    scaling = lil_scaling()
    for g in (heisenberg_cayley(), zd_lattice(1), hexagonal()):
        meas, rho, phi0 = pipeline(g)
        prefix = sample_path(g, phi0, rho, 1500, seed=53).prefix
        ns = np.arange(1, 1501)
        for lo, hi in ((16, 1500), (100, 100), (93, 171), (700, 5000)):
            mask = (ns >= lo) & (ns <= hi)
            want = float((np.linalg.norm(prefix[1:][mask], axis=1) / scaling(ns[mask])).max())
            for chunk in (1 << 20, 64, 7):
                with monkeypatch.context() as m:
                    m.setattr(walk, "_PART_STEPS", chunk)
                    _, sup = trajectory_scan(g, phi0, rho, [1500], seed=53, stream_index=0,
                                             sup_scaling=scaling, sup_range=(lo, hi))
                if chunk == 1 << 20:
                    assert sup == want
                else:  # later chunks add their sums to a carried total
                    assert abs(sup - want) <= 1e-12


def test_trajectory_scan_sup_screen_is_exact(monkeypatch):
    # the block screen returns the unscreened max bit for bit, for any block
    # size, with both ends of the range inside a block
    n, lo, hi = 200_000, 37, 199_993
    ns = np.arange(1, n + 1)
    mask = (ns >= lo) & (ns <= hi)
    cases = {
        "Z": (zd_lattice(1), lil_scaling()),
        "Heisenberg": (heisenberg_cayley(), lil_scaling()),
        "hexagonal": (hexagonal(), lil_scaling()),
        "Z biased": (z1_biased(0.75), power_scaling(0.75)),
        # non-dyadic, so its prefixes and squares are summed in floats
        "non-uniform cover": (heisenberg_hexagonal((0.3, 0.3, 0.4), (0.3, 0.3, 0.4)), lil_scaling()),
    }
    kw = dict(seed=59, stream_index=0, sup_range=(lo, hi))
    for name, (g, scaling) in cases.items():
        meas, rho, phi0 = pipeline(g)
        prefix = sample_path(g, phi0, rho, n, seed=59).prefix
        want = float((np.sqrt(walk._row_squares(prefix[1:][mask])) / scaling(ns[mask])).max())
        for block in (1, 7, 64, 4096):
            with monkeypatch.context() as m:
                m.setattr(walk, "_SUP_BLOCK", block)
                _, sup = trajectory_scan(g, phi0, rho, [n], sup_scaling=scaling, **kw)
            assert sup == want, (name, block)
        if name == "Heisenberg":
            # part ends inside blocks; each part's carry enters its first increment
            with monkeypatch.context() as m:
                m.setattr(walk, "_PART_STEPS", 1000)
                _, sup = trajectory_scan(g, phi0, rho, [n], sup_scaling=scaling, **kw)
            assert sup == want
            with pytest.raises(ScalingDomain):
                trajectory_scan(g, phi0, rho, [n], sup_scaling=scaling, **{**kw, "sup_range": (15, n)})


@settings(max_examples=80, deadline=None)
@given(data=st.data(), d1=st.integers(1, 3), m=st.integers(1, 700), block=st.integers(1, 90),
       first=st.integers(16, 10**7), integer=st.booleans(), power=st.booleans())
def test_the_sup_screen_returns_the_unscreened_max(data, d1, m, block, first, integer, power):
    # on int64 prefixes (squares worth scale2 a unit) and on float ones, for
    # any block size, the box screen returns the max over every step bit for bit
    steps = data.draw(arrays(np.int64, (d1, m), elements=st.integers(-3, 3)))
    if integer:
        c, scale2 = np.cumsum(steps, axis=1), 4.0 ** -data.draw(st.integers(0, 3))
    else:
        widths = data.draw(arrays(np.float64, (d1, 1), elements=st.floats(1e-3, 1e3)))
        c, scale2 = np.cumsum(steps * widths, axis=1), 1.0
    scaling = power_scaling(0.75) if power else lil_scaling()
    want = float((np.sqrt(walk._row_squares(c.T) * scale2) / scaling(first + np.arange(m))).max())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walk, "_SUP_BLOCK", block)
        assert walk._screened_sup(c, first, scaling, -np.inf, scale2) == want


def test_trajectory_scan_sup_statistic_biased():
    g = z1_biased(0.75)
    meas, rho, phi0 = pipeline(g)
    scaling = power_scaling(0.75)
    points, sup = trajectory_scan(
        g, phi0, rho, [4096], seed=47, stream_index=0,
        sup_scaling=scaling, sup_range=(64, 4096),
    )
    # independent replay: centered sums over every step
    u = philox_stream(47, 0).random(4096)
    steps = np.where(u < 0.75, 1.0, -1.0) - 0.5
    cums = np.cumsum(steps)
    ns = np.arange(1, 4097)
    mask = ns >= 64
    want = np.abs(cums[mask] / ns[mask] ** 0.75).max()
    assert abs(sup - want) <= 1e-12
    assert abs(points[0][0] - cums[-1]) <= 1e-12


def test_trajectory_scan_checks_its_sup_range(monkeypatch):
    # a reversed range, or one that starts past the last checkpoint, holds no
    # step: it is refused before any draw instead of returning a sup of -inf.
    # So is one that starts below the scaling's first step
    g = zd_lattice(1)
    meas, rho, phi0 = pipeline(g)
    drawn = []
    monkeypatch.setattr(walk, "_buckets", lambda graph, u: drawn.append(len(u)))
    for bad in ((500, 100), (200, 300), (1, 100)):
        with pytest.raises(InputError, match="sup_range"):
            trajectory_scan(g, phi0, rho, [100], seed=1, stream_index=0,
                            sup_scaling=lil_scaling(), sup_range=bad)
    assert drawn == []
    # lil_scaling starts at 16: a range below it is the scaling's domain error
    with pytest.raises(ScalingDomain, match="sup_range"):
        trajectory_scan(g, phi0, rho, [100], seed=1, stream_index=0,
                        sup_scaling=lil_scaling(), sup_range=(15, 100))
    assert drawn == []


def test_trajectory_scan_prefix_is_one_cumsum(monkeypatch):
    # each chunk's carried sum enters its first increment, so the centered
    # prefix is the float of one cumsum over the whole trajectory for any chunk
    # size: the sup and the checkpoint first layers equal the replay's bit for
    # bit, also where the increments are not dyadic
    cps, (lo, hi), scaling = [5, 64, 65, 999, 3000], (16, 2900), lil_scaling()
    ns = np.arange(1, cps[-1] + 1)
    mask = (ns >= lo) & (ns <= hi)
    for g in (hexagonal(), z1_biased(0.75), one_vertex_non_dyadic()):
        meas, rho, phi0 = pipeline(g)
        prefix = sample_path(g, phi0, rho, cps[-1], seed=73).prefix
        want = float((np.sqrt(walk._row_squares(prefix[1:][mask])) / scaling(ns[mask])).max())
        for chunk in (7, 64, 1 << 20):
            with monkeypatch.context() as m:
                m.setattr(walk, "_PART_STEPS", chunk)
                points, sup = trajectory_scan(g, phi0, rho, cps, seed=73, stream_index=0,
                                              sup_scaling=scaling, sup_range=(lo, hi))
            assert sup == want, chunk
            assert np.array_equal(points[:, : g.algebra.layer_dims[0]], prefix[cps]), chunk


def _replayed_points(g, phi0, rho, checkpoints, seed):
    """The centered points log(xi exp(-n rho)) of ``sample_path``'s group route at each checkpoint."""
    alg = g.algebra
    return np.array([
        bch_product(alg, sample_path(g, phi0, rho, n, seed=seed).xi, alg.embed_first_layer(-float(n) * rho))
        for n in checkpoints
    ])


def test_trajectory_scan_step_two_points_match_the_group_route(monkeypatch):
    # on step 2 the scan folds nothing: its points come from the centered
    # first-layer prefix.  On these covers vertex 1 sits off the identity
    # unless the walk is symmetric, so the edges' second layers seen from the
    # positions of their ends differ from the voltages'; the drifted cover
    # also needs the two brackets with rho
    cases = {
        "symmetric": heisenberg_hexagonal(),
        "non-dyadic": heisenberg_hexagonal((0.3, 0.3, 0.4), (0.3, 0.3, 0.4)),
        "drifted": heisenberg_hexagonal((0.5, 0.3, 0.2), (0.2, 0.5, 0.3)),
        "Cayley": heisenberg_cayley(),
    }
    cps = [1, 7, 700, 777, 5000, 20_000]

    def no_fold(alg, gammas):
        raise AssertionError("the step-2 scan folded a segment")

    for name, g in cases.items():
        meas, rho, phi0 = pipeline(g)
        if name == "drifted":
            assert np.allclose(rho, [0.2, -0.05], rtol=0, atol=1e-12)
        want = _replayed_points(g, phi0, rho, cps, seed=71)
        tol = 1e-12 * np.abs(want).max() if name == "drifted" else 1e-10
        for chunk in (7, 777, 1 << 20):
            with monkeypatch.context() as m:
                m.setattr(walk, "_PART_STEPS", chunk)
                m.setattr(walk, "fold", no_fold)
                points, _ = trajectory_scan(g, phi0, rho, cps, seed=71, stream_index=0,
                                            sup_scaling=lil_scaling(), sup_range=(16, cps[-1]))
            assert np.abs(points - want).max() <= tol, (name, chunk)


def test_trajectory_scan_step_three_folds_match_the_group_route(monkeypatch):
    # steps 3-4 build the point after every step of a part by the layer
    # recursion, carried from the last part's end, and read the checkpoints
    g = unipotent_cayley(4)
    meas, rho, phi0 = pipeline(g)
    cps = [1, 7, 300, 777, 3000]
    want = _replayed_points(g, phi0, rho, cps, seed=79)
    for chunk in (7, 64, 1 << 20):
        with monkeypatch.context() as m:
            m.setattr(walk, "_PART_STEPS", chunk)
            points, _ = trajectory_scan(g, phi0, rho, cps, seed=79, stream_index=0,
                                        sup_scaling=lil_scaling(), sup_range=(16, cps[-1]))
        assert np.abs(points - want).max() <= 1e-12 * np.abs(want).max(), chunk


def test_step_three_points_on_a_two_vertex_cover_match_the_group_route(monkeypatch):
    # vertex 1 sits off the identity, so the edge logs that steps 3-4 fold
    # differ from the voltages; they telescope to sample_path's endpoint, which
    # folds the voltages and adds the end vertex's position.  Odd checkpoints
    # end at vertex 1
    g = unipotent_two_vertex()
    meas, rho, phi0 = pipeline(g)
    assert np.array_equal(phi0, [[0.0] * 3, [-0.25] * 3]) and np.array_equal(rho, np.zeros(3))
    assert not np.allclose(walk._edge_logs(g, phi0), g.voltages)
    unit = walk.ScalingSequence(kind="unit", evaluate=np.ones_like)
    n, samples = 501, 5
    uniforms = walk._uniforms
    want = []
    for i in range(samples):
        with monkeypatch.context() as m:
            m.setattr(walk, "_uniforms", lambda seed, index, n, i=i: uniforms(seed, i, n))
            want.append(_replayed_points(g, phi0, rho, [n], seed=89)[0])
    want = np.array(want)
    for part_rows in (1, 2, 256):
        with monkeypatch.context() as m:
            m.setattr(walk, "_PART_STEPS", part_rows * n)
            points, _ = batch_endpoints(g, phi0, rho, unit, n, samples, seed=89)
        assert np.abs(points - want).max() <= 1e-12 * np.abs(want).max(), part_rows
    cps = [1, 7, 300, 777, 3000]
    want = _replayed_points(g, phi0, rho, cps, seed=89)
    for chunk in (7, 64, 1 << 20):
        with monkeypatch.context() as m:
            m.setattr(walk, "_PART_STEPS", chunk)
            points, _ = trajectory_scan(g, phi0, rho, cps, seed=89, stream_index=0,
                                        sup_scaling=lil_scaling(), sup_range=(16, cps[-1]))
        assert np.abs(points - want).max() <= 1e-12 * np.abs(want).max(), chunk


def test_step_three_points_do_not_move_with_the_part_size_or_the_workers(monkeypatch):
    # each layer of a step-3 point is one cumsum of the layer recursion, whose
    # carry enters the first step of a part: parts, part rows and workers move
    # no bit, and one checkpoint replays batch row 0 to the last bit
    cps = [1000, 33_333, 100_000]
    kw = dict(seed=101, stream_index=0, sup_scaling=lil_scaling(), sup_range=(16, cps[-1]))
    unit = walk.ScalingSequence(kind="unit", evaluate=np.ones_like)
    n = 3000
    for g in (unipotent_cayley(4), unipotent_two_vertex()):
        meas, rho, phi0 = pipeline(g)
        runs = []
        for part in (1 << 10, 1 << 13, 1 << 17):
            with monkeypatch.context() as m:
                m.setattr(walk, "_PART_STEPS", part)
                runs.append(trajectory_scan(g, phi0, rho, cps, **kw))
        for points, sup in runs[1:]:
            assert np.array_equal(points, runs[0][0]) and sup == runs[0][1]
        want, sums = batch_endpoints(g, phi0, rho, unit, n, 8, seed=103)
        for workers in (1, 2):
            for part_rows in (1, 2, 256):
                with monkeypatch.context() as m:
                    m.setattr(walk, "_PART_STEPS", part_rows * n)
                    p, s = batch_endpoints(g, phi0, rho, unit, n, 8, seed=103, workers=workers)
                assert np.array_equal(p, want) and np.array_equal(s, sums), (workers, part_rows)
        one, _ = trajectory_scan(g, phi0, rho, [n], seed=103, stream_index=0, sup_scaling=lil_scaling(),
                                 sup_range=(16, n))
        assert np.array_equal(one[0], want[0])


def _matrix_points(size, g, edges, checkpoints):
    """log of the unipotent matrix product of the voltages of ``edges`` after each checkpoint.

    The voltages are +-E_{i,i+1}, so each exp is an integer matrix and the
    products are exact int64; only the final logs round.
    """
    mats = [np.rint(unipotent_exp(size, v)).astype(np.int64) for v in g.voltages]
    assert all(np.array_equal(unipotent_exp(size, v), m) for v, m in zip(g.voltages, mats))
    acc, done, out = np.eye(size, dtype=np.int64), 0, []
    for c in checkpoints:
        for e in edges[done:c]:
            acc = acc @ mats[e]
        done = c
        out.append(unipotent_log(size, acc.astype(float)))
    return np.array(out)


@pytest.mark.parametrize("size", [4, 5])
def test_step_three_and_four_points_match_the_matrix_product(size):
    # fold, sample_path and both engines share the layer recursion, so the
    # replay tests do not check it: the exact unipotent matrix product does.
    # The 5 x 5 group is step 4.  The edges are replayed from the uniforms
    g = unipotent_cayley(size)
    meas, rho, phi0 = pipeline(g)
    assert g.algebra.step == size - 1
    assert np.array_equal(rho, np.zeros(size - 1)) and np.array_equal(phi0, np.zeros((1, size - 1)))
    cps, samples = [1, 777, 5000, 12_000], 3
    n = cps[-1]
    unit = walk.ScalingSequence(kind="unit", evaluate=np.ones_like)
    points, _ = batch_endpoints(g, phi0, rho, unit, n, samples, seed=97)
    scan, _ = trajectory_scan(g, phi0, rho, cps, seed=97, stream_index=0, sup_scaling=lil_scaling(),
                              sup_range=(16, n))
    for i in range(samples):
        _, edges = _replay_vertices_edges(g, philox_stream(97, i).random(n))
        want = _matrix_points(size, g, edges, cps)
        assert np.abs(points[i] - want[-1]).max() <= 1e-12 * np.abs(want[-1]).max(), i
        if i == 0:
            for got, w in zip(scan, want):
                assert np.abs(got - w).max() <= 1e-12 * np.abs(w).max()


# ---------------------------------------------------------------------------
# Centered prefixes
# ---------------------------------------------------------------------------

def _increment_table(g):
    meas, rho, phi0 = pipeline(g)
    return np.ascontiguousarray(walk._centered_increments(g, phi0, rho).T)


def test_centered_prefix_sums_integers_on_dyadic_tables():
    # a table K * 2^-s with d1 * (n * max|K|)^2 < 2^53 and no -0.0 is summed and
    # reduced in int64; any other table keeps its floats, at scale 1.0
    for g, scale, steps in (
        (heisenberg_cayley(), 1.0, [[1, -1, 0, 0], [0, 0, 1, -1]]),
        (hexagonal(), 1.0, [[1, -1, 0, 0, -1, 1], [0, 0, 1, -1, -1, 1]]),
        (z1_biased(0.75), 0.5, [[1, -3]]),
    ):
        prefix = walk._CenteredPrefix(_increment_table(g), 10**7)
        assert (prefix.scale, prefix.table.dtype, prefix.table.tolist()) == (scale, np.int64, steps)
    # just inside the certificate and just outside it: on Heisenberg (d1 = 2,
    # |K| = 1) 2 n^2 < 2^53 up to n = 2^26 - 1; 0.25 and -2.0 are 2^-2 (1, -8),
    # and 64 n^2 < 2^53 up to n = 11863283
    heisenberg = _increment_table(heisenberg_cayley())
    assert walk._CenteredPrefix(heisenberg, 2**26 - 1).table.dtype == np.int64
    assert walk._CenteredPrefix(np.array([[0.25, -2.0]]), 11_863_283).scale == 0.25
    for table, n in (
        (_increment_table(one_vertex_non_dyadic()), 10**7),
        (_increment_table(heisenberg_hexagonal((0.3, 0.3, 0.4), (0.3, 0.3, 0.4))), 10**7),
        (np.array([[1.0, -1.0, -0.0]]), 10),
        (heisenberg, 2**26),
        (np.array([[0.25, -2.0]]), 11_863_284),
    ):
        prefix = walk._CenteredPrefix(table, n)
        assert prefix.table is table and prefix.scale == 1.0, table


def test_centered_prefix_routes_give_the_same_bits(monkeypatch):
    # on a dyadic table every partial sum, square, bracket dot and sum of
    # prefixes is exact, so the int64 route and the float one give the same
    # floats: carried across scan parts, and over the row parts of a batch
    class FloatPrefix(walk._CenteredPrefix):
        """The helper with its integer route closed, after checking that it was open."""

        def __init__(self, wbar_t, n_max):
            super().__init__(wbar_t, n_max)
            assert self.table.dtype == np.int64
            self.table, self.scale = wbar_t, 1.0

    cps, scaling = [5, 64, 65, 999, 3000], lil_scaling()
    for g in (heisenberg_cayley(), z1_biased(0.75), unipotent_cayley(4), hexagonal()):
        meas, rho, phi0 = pipeline(g)
        for chunk in (7, 64, 1 << 20):
            runs = []
            for prefix in (walk._CenteredPrefix, FloatPrefix):
                with monkeypatch.context() as m:
                    m.setattr(walk, "_PART_STEPS", chunk)
                    m.setattr(walk, "_CenteredPrefix", prefix)
                    runs.append(trajectory_scan(g, phi0, rho, cps, seed=41, stream_index=0,
                                                sup_scaling=scaling, sup_range=(16, 2900)))
            (p_int, sup_int), (p_float, sup_float) = runs
            assert np.array_equal(p_int, p_float) and sup_int == sup_float, chunk
    for g in (heisenberg_cayley(), heisenberg_hexagonal()):
        meas, rho, phi0 = pipeline(g)
        for part_rows in (1, 7):
            runs = []
            for prefix in (walk._CenteredPrefix, FloatPrefix):
                with monkeypatch.context() as m:
                    m.setattr(walk, "_PART_STEPS", part_rows * 500)
                    m.setattr(walk, "_CenteredPrefix", prefix)
                    runs.append(batch_endpoints(g, phi0, rho, power_scaling(0.75), 500, 20, seed=43))
            (p_int, s_int), (p_float, s_float) = runs
            assert np.array_equal(p_int, p_float) and np.array_equal(s_int, s_float), part_rows


class _RecordedPrefix(walk._CenteredPrefix):
    """``_CenteredPrefix`` that records the dtypes of the buffers it fills."""

    filled = []

    def fill(self, edges, scratch, carry=None):
        w, cum = super().fill(edges, scratch, carry)
        self.filled.append((w.dtype.name, cum.dtype.name))
        return w, cum


def test_step_two_walks_on_the_cayley_graph_sum_integers(monkeypatch):
    g = heisenberg_cayley()
    meas, rho, phi0 = pipeline(g)
    monkeypatch.setattr(walk, "_CenteredPrefix", _RecordedPrefix)
    monkeypatch.setattr(_RecordedPrefix, "filled", [])
    monkeypatch.setattr(walk, "_PART_STEPS", 1000)
    trajectory_scan(g, phi0, rho, [100, 5000], seed=1, stream_index=0, sup_scaling=lil_scaling(),
                    sup_range=(16, 5000))
    batch_endpoints(g, phi0, rho, power_scaling(0.75), 500, 8, seed=2)
    assert len(_RecordedPrefix.filled) == 5 + 4
    assert set(_RecordedPrefix.filled) == {("int64", "int64")}, "a dyadic prefix was summed in floats"


def test_the_integer_route_makes_no_per_step_float_array(monkeypatch):
    # on a dyadic table the scan and the step-2 batch keep a part's increments
    # and prefixes in int64, and the sup squares only the blocks it visits, in
    # int64 too: no float array spans a part's steps, on any step
    squared = []
    row_squares = walk._row_squares

    def recorded(x):
        squared.append((x.dtype.name, len(x)))
        return row_squares(x)

    monkeypatch.setattr(walk, "_CenteredPrefix", _RecordedPrefix)
    monkeypatch.setattr(_RecordedPrefix, "filled", [])
    monkeypatch.setattr(walk, "_row_squares", recorded)
    monkeypatch.setattr(walk, "_PART_STEPS", 5000)
    monkeypatch.setattr(walk, "_SUP_BLOCK", 100)
    for g in (zd_lattice(1), heisenberg_cayley(), unipotent_cayley(4)):
        meas, rho, phi0 = pipeline(g)
        trajectory_scan(g, phi0, rho, [100, 12_000], seed=1, stream_index=0, sup_scaling=lil_scaling(),
                        sup_range=(16, 12_000))
        if g.algebra.step == 2:
            batch_endpoints(g, phi0, rho, power_scaling(0.75), 500, 30, seed=2)
    assert len(_RecordedPrefix.filled) == 3 * 3 + 3
    assert set(_RecordedPrefix.filled) == {("int64", "int64")}
    assert squared and {dtype for dtype, _ in squared} == {"int64"}
    assert max(rows for _, rows in squared) <= 100


def test_trajectory_scan_memory():
    # a Heisenberg scan of 3 * 2^20 steps holds one buffer for a part's
    # increments and prefixes (2 * d1 rows of a part), the edges of the part
    # it sums and the next part's words and buckets: 2 * d1 + 3 arrays of a
    # part.  The bound allows one more array; a separate (2, part) array of
    # the prefix would add two.  The sup runs over the whole range: it boxes
    # each block and squares only the blocks it visits, so no per-step array
    # of squares or norms sets the peak
    import tracemalloc

    g = heisenberg_cayley()
    meas, rho, phi0 = pipeline(g)
    n, d1 = 3 << 20, g.algebra.layer_dims[0]
    trajectory_scan(g, phi0, rho, [100], seed=3, stream_index=0, sup_scaling=lil_scaling(), sup_range=(16, 100))
    tracemalloc.start()
    try:
        trajectory_scan(g, phi0, rho, [1000, n // 2, n], seed=3, stream_index=0, sup_scaling=lil_scaling(),
                        sup_range=(16, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 6.47-6.50 MB on seeds 3 and 4 in parts of 2^17 steps (8.40 MB with per-step squares)
    assert peak < (2 * d1 + 4) * 8 * walk._PART_STEPS


def test_walks_refuse_sizes_that_are_not_whole_numbers(monkeypatch):
    # a fractional checkpoint or sup_range end, or a negative or fractional n,
    # is an InputError that names the argument, raised before any draw
    g = zd_lattice(1)
    meas, rho, phi0 = pipeline(g)
    drawn = []
    monkeypatch.setattr(walk, "_uniforms", lambda *args: drawn.append(args))
    kw = dict(seed=1, stream_index=0, sup_scaling=lil_scaling())
    for checkpoints in ([1000.7], [100, 1000.5], [float("nan")], [float("inf")], ["1000"]):
        with pytest.raises(InputError, match="checkpoints"):
            trajectory_scan(g, phi0, rho, checkpoints, sup_range=(16, 900), **kw)
    for sup_range in ((16.5, 900), (16, 900.25), (-16, 900), (16,), (16, 900, 1000)):
        with pytest.raises(InputError, match="sup_range"):
            trajectory_scan(g, phi0, rho, [1000], sup_range=sup_range, **kw)
    for n in (-3, 100.5, -0.5, float("nan")):
        with pytest.raises(InputError, match="n must be a whole number >= 0"):
            batch_centered_sums(g, phi0, rho, n, 4, seed=1)
        with pytest.raises(InputError, match="n must be a whole number >= 0"):
            batch_endpoints(g, phi0, rho, power_scaling(0.75), n, 4, seed=1)
        with pytest.raises(InputError, match="n must be a whole number >= 0"):
            sample_path(g, phi0, rho, n, seed=1)
    assert drawn == []
    # whole floats and numpy integers are whole numbers
    monkeypatch.undo()
    points, _ = trajectory_scan(g, phi0, rho, [np.int64(100), 1000.0], sup_range=(16.0, np.int32(900)), **kw)
    assert np.array_equal(points, trajectory_scan(g, phi0, rho, [100, 1000], sup_range=(16, 900), **kw)[0])
    assert np.array_equal(batch_centered_sums(g, phi0, rho, 100.0, 4, seed=1),
                          batch_centered_sums(g, phi0, rho, 100, 4, seed=1))
