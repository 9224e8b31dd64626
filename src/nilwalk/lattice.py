"""Exact n-step tails of single-vertex abelian quotient walks, in log space.

Moderate-deviation tails (down to 1e-100 and far below the smallest double)
cannot be sampled, so experiments verify them against an exact oracle that
returns log P(||S_n - n mean|| >= r).  Two kernels have a closed form, chosen
from the step support itself:

- a 1-d kernel with exactly two distinct steps a < b, where
  S_n = a n + (b - a) K with K ~ Bin(n, P(step = b)) (``zd_lattice(1)``,
  ``z1_biased(q)``);
- the uniform four-step 2-d walk, where the 45-degree rotation U = X + Y,
  V = X - Y splits the walk into two independent +-1 walks, each a shifted
  Bin(n, 1/2).

Their binomial log pmfs use Loader's saddle-point form (C. Loader, "Fast and
accurate computation of binomial probabilities", 2000), and the tail is a
logsumexp over a window of the tail region, so it never underflows.  The
window holds the sites from each tail boundary outward, and it is cut once
the mass left out is provably below 2^-60 of the run's first term: past the
mode the binomial's term ratio falls (log-concavity), so the terms after k
sum to at most P(K = k) r_k / (1 - r_k).  A two-point tail costs
O(n / radius) sites, the four-step tail O(radius), never O(n).  Every other
kernel falls back to one dynamic-programming convolution
of the integer step distribution, the same in either dimension: the law lives
on a box that grows by the kernel width at each step.  In dimension 2 the
workload grows like n * (2n+1)^2, so it runs only under a size budget.  The
closed forms are validated against the DP and against exact integer sums in
the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OracleUnavailable
from .graph import VoltageGraph

_GRID_BUDGET = 4e8  # n * cells * kernel size for the naive 2-d DP
_LOG_2PI = math.log(2.0 * math.pi)
_CERTIFICATE = 60.0 * math.log(2.0)  # a cut run leaves out at most 2^-60 of its first term
_RUN_BLOCK = 256  # sites in a run's first block; later blocks double
# stirlerr(m) = log m! - log(sqrt(2 pi m) (m / e)^m) for m <= 15, where the
# Stirling series below is not yet accurate to rounding
_STIRLERR_TABLE = np.array(
    [0.0] + [math.log(math.factorial(m)) - (m + 0.5) * math.log(m) + m - 0.5 * _LOG_2PI
             for m in range(1, 16)]
)


def _stirlerr(m: np.ndarray) -> np.ndarray:
    """Error of Stirling's formula for log m!, for integer m >= 1."""
    x = m.astype(float)
    xx = x * x
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / xx) / xx) / xx) / xx) / x
    return np.where(m <= 15, _STIRLERR_TABLE[np.minimum(m, 15)], series)


def _bd0(x: np.ndarray, mean: float) -> np.ndarray:
    """x log(x / mean) + mean - x, by its series in v = (x - mean) / (x + mean) near x = mean."""
    d = x - mean
    near = np.abs(d) < 0.1 * (x + mean)
    out = np.empty_like(d)
    xn, dn = x[near], d[near]
    v = dn / (xn + mean)
    v2 = v * v
    series = dn * v
    term = 2.0 * xn * v
    for j in range(1, 10):  # |v| < 0.1 on the near branch: 9 terms reach rounding
        term = term * v2
        series = series + term / (2 * j + 1)
    out[near] = series
    xf = x[~near]
    out[~near] = xf * np.log(xf / mean) + mean - xf
    return out


def _log_binom_pmf(n: int, p: float, lo: int, hi: int) -> np.ndarray:
    """log P(K = k) for K ~ Bin(n, p) and k = lo..hi - 1, in Loader's saddle-point form."""
    out = np.empty(hi - lo)
    if lo == 0 < hi:
        out[0] = n * math.log1p(-p)
    if hi == n + 1 > lo:
        out[-1] = n * math.log(p)
    k = np.arange(max(lo, 1), min(hi, n))
    if len(k):
        x = k.astype(float)
        lc = (_stirlerr(np.array(n)) - _stirlerr(k) - _stirlerr(n - k)
              - _bd0(x, n * p) - _bd0(n - x, n * (1.0 - p)))
        out[k[0] - lo:k[-1] + 1 - lo] = lc - 0.5 * (_LOG_2PI + np.log(x) + np.log1p(-x / n))
    return out


def _log_pmf_run(n: int, p: float, first: int, last: int, step: int) -> np.ndarray:
    """log P(K = k) for k = first, first + step, ... towards last, cut where the rest is negligible.

    The run moves away from the mode (step = +1 or -1).  The binomial is
    log-concave: the ratio r_k of the next term to P(K = k) falls along the
    run, so the terms after k sum to at most P(K = k) r_k / (1 - r_k) once
    r_k < 1.  The run stops at the first k where that bound is below
    2^-60 P(K = first): about 42 n p q / |first - n p| sites far from the
    mode.  It is evaluated in doubling blocks, so it costs at most about
    twice its length.
    """
    length = max((last - first) * step + 1, 0)
    q = 1.0 - p
    runs = []
    done, block = 0, _RUN_BLOCK
    while done < length:
        k = first + step * np.arange(done, min(done + block, length))
        log_pmf = _log_binom_pmf(n, p, int(k.min()), int(k.max()) + 1)[::step]
        if not runs:
            head = log_pmf[0]
        ratio = (n - k) * p / ((k + 1) * q) if step > 0 else k * q / ((n - k + 1) * p)
        with np.errstate(divide="ignore", invalid="ignore"):  # the bound holds only where r < 1
            rest = log_pmf + np.log(ratio) - np.log1p(-ratio)
        cut = np.flatnonzero((ratio < 1.0) & (rest <= head - _CERTIFICATE))
        if len(cut):
            runs.append(log_pmf[:cut[0] + 1])
            break
        runs.append(log_pmf)
        done += len(k)
        block *= 2
    return np.concatenate(runs) if runs else np.empty(0)


def _log_pmf_window(n: int, p: float, lo: int, hi: int, keep_lo: int, keep_hi: int):
    """(k0, log P(K = k) for k = k0, k0 + 1, ...) over the certified window of lo..hi.

    Every site of keep_lo..keep_hi - 1 (clipped to lo..hi) is kept; from
    there one run moves down to lo and one up to hi, both away from the mode.
    """
    keep_lo = min(max(keep_lo, lo), hi + 1)
    keep_hi = min(max(keep_hi, keep_lo), hi + 1)
    down = _log_pmf_run(n, p, keep_lo - 1, lo, -1)[::-1]
    up = _log_pmf_run(n, p, keep_hi, hi, 1)
    return keep_lo - len(down), np.concatenate([down, _log_binom_pmf(n, p, keep_lo, keep_hi), up])


def _first(holds, n: int, guess: float) -> int:
    """Smallest k in 0..n + 1 where the monotone predicate holds (n + 1 if none), from a guess."""
    k = math.ceil(min(max(guess, 0.0), n + 1.0))
    while k > 0 and holds(k - 1):
        k -= 1
    while k <= n and not holds(k):
        k += 1
    return k


def _logsumexp(x: np.ndarray) -> float:
    top = float(x.max()) if x.size else -math.inf
    if top == -math.inf:
        return top
    return top + math.log(float(np.exp(x - top).sum()))


class ExactLatticeDistribution:
    """Exact distribution of a sum of i.i.d. integer lattice steps."""

    def __init__(self, steps, probs):
        steps = np.atleast_2d(np.asarray(steps, dtype=np.int64))
        probs = np.asarray(probs, dtype=float)
        if steps.ndim != 2 or steps.shape[0] != len(probs):
            raise OracleUnavailable("steps and probabilities have inconsistent shapes")
        if steps.shape[1] not in (1, 2):
            raise OracleUnavailable("exact enumeration supports lattice dimension 1 or 2 only")
        if np.any(probs <= 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise OracleUnavailable("step probabilities must be positive and sum to 1")
        self.steps = steps
        self.probs = probs
        self.dim = steps.shape[1]

    @classmethod
    def from_graph(cls, graph: VoltageGraph) -> "ExactLatticeDistribution":
        if graph.num_vertices != 1:
            raise OracleUnavailable("exact oracle requires a single-vertex quotient")
        if graph.algebra.step != 1:
            raise OracleUnavailable("exact oracle requires an abelian deck group")
        volts = graph.voltages
        rounded = np.rint(volts)
        if np.abs(volts - rounded).max() > 1e-9:
            raise OracleUnavailable("exact oracle requires integer voltages")
        return cls(rounded.astype(np.int64), graph.prob)

    @property
    def mean_step(self) -> np.ndarray:
        return self.probs @ self.steps

    def distribution(self, n: int):
        """(offset, law) with P(S_n = offset + i) = law[i] on the box reachable in n steps.

        One convolution DP in any dimension, from the point mass at the
        origin.  Each step grows the box by the kernel width (max - min step
        per axis), then adds p * law into the slice shifted by step - lo, for
        each step in list order.  The offset is the (dim,) array n * lo.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        lo = self.steps.min(axis=0)
        width = self.steps.max(axis=0) - lo
        if self.dim == 2:
            span = width * n + 1
            cells = float(span[0]) * float(span[1])
            if n * cells * len(self.probs) > _GRID_BUDGET:
                raise OracleUnavailable(
                    f"naive 2-d DP workload n * cells = {n * cells:.3g} exceeds the budget; "
                    "only the uniform four-step walk factorizes at this size"
                )
        law = np.ones((1,) * self.dim)
        for _ in range(n):
            grown = np.zeros(np.add(law.shape, width))
            for shift, p in zip(self.steps - lo, self.probs):
                grown[tuple(slice(s, s + m) for s, m in zip(shift, law.shape))] += p * law
            law = grown
        return lo * n, law

    # -- tails ----------------------------------------------------------------

    def _two_point_support(self):
        """(a, b, P(step = b)) when the 1-d steps take exactly two values a < b, else None."""
        if self.dim != 1:
            return None
        support, which = np.unique(self.steps[:, 0], return_inverse=True)
        if len(support) != 2:
            return None
        return int(support[0]), int(support[1]), float(self.probs[which == 1].sum())

    def _is_uniform_axes(self) -> bool:
        if self.dim != 2 or len(self.probs) != 4:
            return False
        want = {(1, 0), (-1, 0), (0, 1), (0, -1)}
        have = {tuple(s) for s in self.steps}
        return have == want and np.abs(self.probs - 0.25).max() <= 1e-12

    def _log_tail_two_point(self, n: int, radius: float, a: int, b: int, p: float) -> float:
        """log P(|a n + (b - a) K - n mean| >= radius) with K ~ Bin(n, p).

        The tail is K <= k_lo and K >= k_hi; each side is the certified window
        of its sites, with runs away from the mode, so the cost is
        O(n / radius) sites (every site from the boundary to the mode when the
        mode lies inside the tail).
        """
        center = n * float(self.mean_step[0])
        thr = radius - 1e-9

        def site(k: int) -> float:  # the distance of site k from the mean, as the mask rounds it
            return float(a * n + (b - a) * k) - center

        at_mean = (center - a * n) / (b - a)
        k_lo = _first(lambda k: site(k) > -thr, n, at_mean - thr / (b - a)) - 1
        k_hi = _first(lambda k: site(k) >= thr, n, at_mean + thr / (b - a))
        mode = math.floor((n + 1) * p)
        sides = [(0, k_lo), (k_hi, n)] if thr > 0 else [(0, n)]
        return _logsumexp(np.concatenate(
            [_log_pmf_window(n, p, lo, hi, mode, mode)[1] for lo, hi in sides]))

    def _log_tail_uniform_axes(self, n: int, radius: float) -> float:
        """log P(||(X, Y)||_2 >= radius) via two independent +-1 walks U, V.

        With U = X + Y and V = X - Y the four uniform axis steps become
        independent uniform +-1 steps in U and V, and X^2 + Y^2 =
        (U^2 + V^2) / 2, so the event is U^2 + V^2 >= 2 radius^2.  U and V
        both take the values 2k - n with K ~ Bin(n, 1/2).  Every U site with
        |u| < sqrt(2) radius contributes about as much as the others and is
        kept; beyond them the event is certain, so the U tails are certified
        runs.  The table of log P(V >= s) keeps every site from s = 0 to the
        largest threshold, then runs on up.  The cost is O(radius) sites.
        """
        w = math.sqrt(2.0) * radius
        inner_lo = _first(lambda i: 2 * i - n > -w, n, (n - w) / 2)
        inner_hi = _first(lambda i: 2 * i - n >= w, n, (n + w) / 2)
        i0, log_pmf = _log_pmf_window(n, 0.5, 0, n, inner_lo, inner_hi)
        sites = 2.0 * np.arange(i0, i0 + len(log_pmf)) - n
        thresholds = np.sqrt(np.clip(2.0 * radius * radius - sites**2, 0.0, None))
        # log P(V >= 2j - n) for j from j0 (the first site >= 0) up, and -inf past the window
        j0 = (n + 1) // 2
        reach = float(thresholds.max()) - 1e-9
        top = _first(lambda j: 2 * j - n >= reach, n, (n + reach) / 2)
        _, log_v = _log_pmf_window(n, 0.5, j0, n, j0, top)
        log_upper = np.append(np.logaddexp.accumulate(log_v[::-1])[::-1], -np.inf)
        # P(|V| >= t) = 2 P(V >= t) for t > 0 by symmetry, with a tolerance
        # guard; integer sites are never within 1e-9 of a misrounded threshold
        # at these magnitudes.  Every threshold's first site lies in j0..top.
        v_sites = 2.0 * np.arange(j0, j0 + len(log_v)) - n
        first = np.searchsorted(v_sites, thresholds - 1e-9, side="left")
        log_survival = np.where(thresholds <= 1e-9, 0.0, math.log(2.0) + log_upper[first])
        return _logsumexp(log_pmf + log_survival)

    def log_tail_probability(self, n: int, radius: float) -> float:
        """log P(||S_n - n * mean||_2 >= radius), exact to floating-point accuracy.

        Closed form for two-point 1-d kernels and the uniform four-step 2-d
        walk, finite however small the tail; the DP elsewhere, which gives
        -inf once the tail underflows.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        if radius <= 0:
            return 0.0
        two_point = self._two_point_support()
        if two_point is not None:
            log_tail = self._log_tail_two_point(n, radius, *two_point)
        elif self._is_uniform_axes():
            log_tail = self._log_tail_uniform_axes(n, radius)
        else:
            offset, law = self.distribution(n)
            center = n * self.mean_step
            axes = np.ix_(*(offset[i] + np.arange(m) - center[i] for i, m in enumerate(law.shape)))
            rr = sum(x * x for x in axes)
            tail = float(law[rr >= max(radius - 1e-9, 0.0) ** 2].sum())
            log_tail = math.log(tail) if tail > 0.0 else -math.inf
        return min(log_tail, 0.0)


def mdp_rate(n: int, a_n: float, log_tail: float) -> float:
    """Normalized log-probability (n / a_n^2) log_tail; -inf when the tail is 0."""
    return float(n / (a_n * a_n) * log_tail)


def gaussian_tail_exponent(sigma: np.ndarray, delta: float) -> float:
    """-inf over ||v|| >= delta of half the inverse quadratic form.

    The infimum is attained along the top eigenvector of sigma, giving
    -delta^2 / (2 lambda_max(sigma)).
    """
    lam_max = float(np.linalg.eigvalsh(np.atleast_2d(sigma)).max())
    return -delta * delta / (2.0 * lam_max)
