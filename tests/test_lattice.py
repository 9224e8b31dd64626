import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import binom

import nilwalk
from nilwalk.errors import OracleUnavailable
from nilwalk.graph import heisenberg_cayley, hexagonal, z1_biased, zd_lattice
from nilwalk.lattice import (ExactLatticeDistribution, _log_binom_pmf, _log_pmf_run,
                             gaussian_tail_exponent, mdp_rate)


def test_from_graph_accepts_abelian_single_vertex():
    for g in (zd_lattice(1), zd_lattice(2), z1_biased(0.75)):
        oracle = ExactLatticeDistribution.from_graph(g)
        assert oracle.dim == g.algebra.dim


def test_from_graph_rejections():
    with pytest.raises(OracleUnavailable, match="single-vertex"):
        ExactLatticeDistribution.from_graph(hexagonal())
    with pytest.raises(OracleUnavailable, match="abelian"):
        ExactLatticeDistribution.from_graph(heisenberg_cayley())
    with pytest.raises(OracleUnavailable, match="dimension"):
        ExactLatticeDistribution.from_graph(zd_lattice(3))


def test_conservation_and_support_1d():
    oracle = ExactLatticeDistribution.from_graph(z1_biased(0.75))
    for n in (1, 10, 100, 2000):
        offset, dist = oracle.distribution(n)
        assert abs(dist.sum() - 1.0) <= 1e-12
        assert offset == -n and len(dist) == 2 * n + 1
        assert np.all(dist >= 0)


def test_srw_distribution_matches_binomial_closed_form():
    oracle = ExactLatticeDistribution.from_graph(zd_lattice(1))
    n = 64
    offset, dist = oracle.distribution(n)
    sites = offset + np.arange(len(dist))
    for s in (-64, -10, 0, 8, 64):
        want = binom.pmf((n + s) // 2, n, 0.5) if (n + s) % 2 == 0 else 0.0
        assert abs(dist[sites.tolist().index(s)] - want) <= 1e-14
    # the lazy kernel (1/4, 1/2, 1/4) is two +-1/2 steps: P(S_n = k) = C(2n, n + k) / 4^n
    lazy = ExactLatticeDistribution([[-1], [0], [1]], [0.25, 0.5, 0.25])
    offset, dist = lazy.distribution(n)
    want = np.array([math.comb(2 * n, n + k) / 4**n for k in offset[0] + np.arange(len(dist))])
    assert np.abs(dist - want).max() <= 1e-14
    # the uniform diagonal kernel moves both coordinates by independent +-1 steps,
    # so its law is the outer product of two Bin(n, 1/2) on the sites 2k - n
    diag = ExactLatticeDistribution([[1, 1], [1, -1], [-1, 1], [-1, -1]], [0.25] * 4)
    offset, dist = diag.distribution(n)
    assert offset.tolist() == [-n, -n] and dist.shape == (2 * n + 1, 2 * n + 1)
    pmf = np.zeros(2 * n + 1)
    pmf[::2] = [math.comb(n, k) / 2**n for k in range(n + 1)]
    assert np.abs(dist - np.outer(pmf, pmf)).max() <= 1e-14


def test_biased_mean_step():
    oracle = ExactLatticeDistribution.from_graph(z1_biased(0.75))
    assert np.allclose(oracle.mean_step, [0.5])


def test_tail_1d_against_binomial_survival():
    oracle = ExactLatticeDistribution.from_graph(zd_lattice(1))
    n = 1000
    for radius in (10.0, 31.62, 66.0):
        got = math.exp(oracle.log_tail_probability(n, radius))
        k = math.ceil(radius - 1e-9)
        if (n + k) % 2 == 1:
            k += 1  # parity of the walk
        want = 2.0 * binom.sf((n + k) // 2 - 1, n, 0.5)
        assert abs(got - want) <= 1e-12 * max(want, 1e-30)


def _dp_tail(oracle, n, law, radius):
    """The tail summed over the DP law (offset, dist), with the oracle's site tolerance."""
    offset, dist = law
    center = n * oracle.mean_step
    if oracle.dim == 1:
        sites = offset + np.arange(len(dist)) - center[0]
        return float(dist[np.abs(sites) >= radius - 1e-9].sum())
    xs = offset[0] + np.arange(dist.shape[0]) - center[0]
    ys = offset[1] + np.arange(dist.shape[1]) - center[1]
    rr = xs[:, None] ** 2 + ys[None, :] ** 2
    return float(dist[rr >= (radius - 1e-9) ** 2].sum())


def _log(tail: float) -> float:
    return math.log(tail) if tail > 0.0 else -math.inf


def _assert_log_close(got: float, want: float, tol: float = 1e-12) -> None:
    if want == -math.inf:
        assert got == -math.inf
    else:
        assert abs(got - want) <= tol, got - want


def test_tail_2d_factorized_matches_naive_grid():
    oracle = ExactLatticeDistribution.from_graph(zd_lattice(2))
    assert oracle._is_uniform_axes() and oracle._two_point_support() is None
    for n in (1, 8, 20, 51):
        law = oracle.distribution(n)
        assert abs(law[1].sum() - 1.0) <= 1e-12
        for radius in (1.0, 3.0, n / 3.0, float(n)):
            _assert_log_close(oracle.log_tail_probability(n, radius),
                              _log(_dp_tail(oracle, n, law, radius)))


def test_route_is_chosen_from_the_support():
    # equal steps are merged, so a split +1 edge is still a two-point kernel
    merged = ExactLatticeDistribution([[1], [1], [-1]], [0.5, 0.25, 0.25])
    assert merged._two_point_support() == (-1, 1, 0.75)
    assert ExactLatticeDistribution.from_graph(z1_biased(0.25))._two_point_support() == (-1, 1, 0.25)
    # a two-point kernel with a gap of 3 and a lazy three-point kernel
    gapped = ExactLatticeDistribution([[-1], [2]], [0.6, 0.4])
    assert gapped._two_point_support() == (-1, 2, 0.4)
    lazy = ExactLatticeDistribution([[-1], [0], [1]], [0.25, 0.5, 0.25])
    assert lazy._two_point_support() is None
    for oracle in (merged, gapped, lazy):
        for n in (30, 200):
            law = oracle.distribution(n)
            for radius in (4.0, 25.5, 61.0):
                _assert_log_close(oracle.log_tail_probability(n, radius),
                                  _log(_dp_tail(oracle, n, law, radius)))


def test_tail_2d_nonuniform_uses_grid_and_budget():
    steps = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    oracle = ExactLatticeDistribution(steps, [0.4, 0.1, 0.25, 0.25])
    assert not oracle._is_uniform_axes()
    tail = math.exp(oracle.log_tail_probability(40, 5.0))
    assert 0.0 < tail < 1.0
    with pytest.raises(OracleUnavailable, match="budget"):
        oracle.log_tail_probability(10_000, 100.0)


def test_tail_radius_edge_cases():
    oracle = ExactLatticeDistribution.from_graph(zd_lattice(1))
    assert math.exp(oracle.log_tail_probability(10, 0.0)) == 1.0
    assert math.exp(oracle.log_tail_probability(10, 11.0)) == 0.0
    # radius exactly on a reachable site is included
    assert math.exp(oracle.log_tail_probability(10, 10.0)) == pytest.approx(2.0 * 0.5**10, rel=1e-12)


def test_mdp_rate_helper():
    assert mdp_rate(100, 10.0, -50.0) == -50.0
    assert mdp_rate(400, 10.0, -50.0) == -200.0
    assert mdp_rate(100, 10.0, -math.inf) == -math.inf


def test_gaussian_tail_exponent():
    assert gaussian_tail_exponent(np.eye(1), 1.0) == pytest.approx(-0.5)
    assert gaussian_tail_exponent(0.5 * np.eye(2), 1.0) == pytest.approx(-1.0)
    assert gaussian_tail_exponent(0.5 * np.eye(2), 2.0) == pytest.approx(-4.0)
    # anisotropic: the cheapest escape direction has the largest variance
    sigma = np.diag([2.0, 0.5])
    assert gaussian_tail_exponent(sigma, 1.0) == pytest.approx(-0.25)


def test_mdp_rate_converges_for_z1_srw():
    # desk-scale version of the moderate-deviation decay check
    oracle = ExactLatticeDistribution.from_graph(zd_lattice(1))
    rates = []
    for n in (100, 1000):
        a_n = n ** 0.75
        rates.append(mdp_rate(n, a_n, oracle.log_tail_probability(n, a_n)))
    assert abs(rates[1] + 0.5) < abs(rates[0] + 0.5)


# ---------------------------------------------------------------------------
# Closed-form tails against exact integer sums
# ---------------------------------------------------------------------------

def _log_ratio(num: int, den: int) -> float:
    """log(num / den) for integers 0 <= num <= den, den > 0, rounded once."""
    if num == 0:
        return -math.inf
    shift = den.bit_length() - num.bit_length() + 64
    return math.log((num << shift) // den) - shift * math.log(2.0)


def _exact_log_tail_1d(n: int, quarters: int, radius: float) -> float:
    """log P(|S_n - n (2q - 1)| >= radius) for +-1 steps with q = quarters / 4.

    P(K = k) = C(n, k) quarters^k (4 - quarters)^(n - k) / 4^n, summed over
    the tail as an exact integer.  With radius = num / den and the mean
    n (2q - 1) = n (quarters - 2) / 2, the event is compared in integers.
    """
    num, den = Fraction(radius).as_integer_ratio()
    weight = (4 - quarters) ** n  # k = 0
    total = 0
    for k in range(n + 1):
        if abs(2 * (2 * k - n) - n * (quarters - 2)) * den >= 2 * num:
            total += weight
        weight = weight * (n - k) * quarters // ((k + 1) * (4 - quarters))
    return _log_ratio(total, 4**n)


def _exact_log_tail_z2(n: int, radius: float) -> float:
    """log P(X^2 + Y^2 >= radius^2) for the simple walk on Z^2, as an exact integer sum.

    U = X + Y and V = X - Y are independent sums of n uniform +-1 steps, so
    the count of (U, V) step sequences with U^2 + V^2 >= 2 radius^2 is
    sum_i C(n, i) #{j : (2j - n)^2 >= 2 radius^2 - (2i - n)^2}, over 4^n.
    The V-count is streamed: as |u| falls the threshold rises, so one pass of
    j upwards keeps the suffix sum, and the U-weights are summed over each
    run of equal V-counts before one multiplication.  With radius =
    num / den the threshold is compared in integers scaled by den^2.
    """
    num, den = Fraction(radius).as_integer_ratio()
    j = n // 2 + 1                               # smallest j with 2j - n > 0
    c_j = math.comb(n, j) if j <= n else 0
    upper = (2**n - (math.comb(n, n // 2) if n % 2 == 0 else 0)) // 2  # sum over j' >= j
    c_i = 1
    total = run = 0
    count = 2**n
    for i in range(n // 2 + 1):                  # u = 2i - n <= 0, by increasing need
        u = 2 * i - n
        need = 2 * num * num - u * u * den * den
        if need > 0:
            while j <= n and (2 * j - n) ** 2 * den * den < need:
                upper -= c_j
                c_j = c_j * (n - j) // (j + 1)
                j += 1
            if 2 * upper != count:
                total += run * count
                run, count = 0, 2 * upper
        run += c_i * (1 if u == 0 else 2)        # u and -u
        c_i = c_i * (n - i) // (i + 1)
    return _log_ratio(total + run * count, 4**n)


def _radii(n: int, on_site: float) -> list[float]:
    a_n = n**0.75
    return [d * a_n for d in (0.5, 1.0, 2.0)] + [on_site]


@pytest.mark.parametrize("quarters", [2, 3, 1])
def test_two_point_tail_matches_exact_integer_sum(quarters):
    oracle = ExactLatticeDistribution.from_graph(z1_biased(quarters / 4))
    for n in (10, 1000, 20_000):
        # the distance from the mean of a reachable site, K = floor(n q) + 2 or + 20
        k = n * quarters // 4 + (2 if n == 10 else 20)
        on_site = float(abs(2 * k - n - Fraction(n * (quarters - 2), 2)))
        for radius in _radii(n, on_site):
            want = _exact_log_tail_1d(n, quarters, radius)
            _assert_log_close(oracle.log_tail_probability(n, radius), want)


def test_uniform_axes_tail_matches_exact_integer_sum():
    oracle = ExactLatticeDistribution.from_graph(zd_lattice(2))
    # radii on a site: (4, 0) at n = 10, (6, 8) at n = 1000, (300, 400) at n = 2e4
    for n, on_site in ((10, 4.0), (1000, 10.0), (20_000, 500.0)):
        for radius in _radii(n, on_site):
            _assert_log_close(oracle.log_tail_probability(n, radius), _exact_log_tail_z2(n, radius))


def test_two_point_tail_matches_dp():
    for g in (zd_lattice(1), z1_biased(0.75), z1_biased(0.25)):
        oracle = ExactLatticeDistribution.from_graph(g)
        for n in (10, 1000, 10_000):
            law = oracle.distribution(n)
            for radius in _radii(n, 2.0):
                dp = _dp_tail(oracle, n, law, radius)
                if dp > 1e-300:
                    assert math.exp(oracle.log_tail_probability(n, radius)) == pytest.approx(dp, rel=1e-12, abs=0.0)


def test_closed_form_finite_far_past_underflow():
    # at n = 1e6 the delta = 2 tails are near e^-2000 and e^-4000
    n, delta = 1_000_000, 2.0
    a_n = n**0.75
    for g, limit in ((zd_lattice(1), -2.0), (zd_lattice(2), -4.0)):
        oracle = ExactLatticeDistribution.from_graph(g)
        t0 = time.perf_counter()
        rate = mdp_rate(n, a_n, oracle.log_tail_probability(n, delta * a_n))
        elapsed = time.perf_counter() - t0
        assert math.isfinite(rate) and abs(rate - limit) <= 0.01 * abs(limit), rate
        assert elapsed < 1.0, elapsed
        assert math.exp(oracle.log_tail_probability(n, delta * a_n)) == 0.0


def test_windowed_tails_match_exact_integer_sums():
    # the window's corners: the mode inside the tail (radius below one site
    # spacing), a radius beyond the support, an on-site radius, and tails whose
    # window ends at k = 0 or k = n
    for quarters in (2, 3, 1):
        oracle = ExactLatticeDistribution.from_graph(z1_biased(quarters / 4))
        for n in (10, 11, 1000, 1001):
            # the sites k = 0 and k = n lie 2 n q and 2 n (1 - q) from the mean
            near, far = n * min(quarters, 4 - quarters) / 2, n * max(quarters, 4 - quarters) / 2
            for radius in (0.3, 0.5, 1.0, 1.5, 2.0, near - 2.0, near, far - 2.0, far, far + 0.5,
                           2.0 * n):
                want = _exact_log_tail_1d(n, quarters, radius)
                _assert_log_close(oracle.log_tail_probability(n, radius), want)
    oracle = ExactLatticeDistribution.from_graph(zd_lattice(2))
    for n in (10, 11, 1000, 1001):
        for radius in (0.3, 0.5, 1.0, 1.5, n - 1.5, n - 0.5, float(n), n + 0.5):
            _assert_log_close(oracle.log_tail_probability(n, radius), _exact_log_tail_z2(n, radius))


@pytest.mark.parametrize("n", [10_000, 1_000_000])
def test_window_certificate_holds(n):
    # a run keeps every term up to its cut; the mass past the cut, summed from
    # the full-support pmf, is at most 2^-60 of the run's first term (so of
    # the mass kept)
    a_n = n**0.75
    for p in (0.5, 0.75, 0.25):
        full = _log_binom_pmf(n, p, 0, n + 1)
        mode = math.floor((n + 1) * p)
        for distance in (0.0, 0.25 * a_n, 0.5 * a_n, a_n):
            for step in (1, -1):
                first = mode + step * math.ceil(distance) - (step < 0)
                run = _log_pmf_run(n, p, first, n if step > 0 else 0, step)
                assert np.array_equal(run, full[first::step][:len(run)])
                left_out = full[first + len(run):] if step > 0 else full[:first - len(run) + 1]
                assert 0 < len(left_out) and len(run) < 20 * math.sqrt(n)
                assert logsumexp(left_out) <= run[0] - 60.0 * math.log(2.0)


def test_closed_form_at_1e8():
    n, delta = 100_000_000, 2.0
    a_n = n**0.75
    for g, limit, tolerance in ((zd_lattice(1), -2.0, 0.01), (zd_lattice(2), -4.0, 0.01),
                                (z1_biased(0.75), -8.0 / 3.0, 0.15)):
        oracle = ExactLatticeDistribution.from_graph(g)
        tracemalloc.start()
        t0 = time.perf_counter()
        rate = mdp_rate(n, a_n, oracle.log_tail_probability(n, delta * a_n))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert math.isfinite(rate) and abs(rate - limit) <= tolerance * abs(limit), rate
        assert elapsed < 5.0, elapsed
        if g.algebra.dim == 1:
            assert peak < 1e6, peak  # no array of n sites is built


def test_exact_oracle_does_not_import_scipy():
    code = (
        "import sys\n"
        "import nilwalk\n"
        "from nilwalk.graph import z1_biased, zd_lattice\n"
        "from nilwalk.lattice import ExactLatticeDistribution\n"
        "for g in (zd_lattice(2), z1_biased(0.75)):\n"
        "    lt = ExactLatticeDistribution.from_graph(g).log_tail_probability(10_000, 1000.0)\n"
        "    assert -1e4 < lt < 0.0, lt\n"
        "assert 'scipy' not in sys.modules\n"
    )
    src = str(Path(nilwalk.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
