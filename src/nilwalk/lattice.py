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
logsumexp over the tail region, so it neither underflows nor costs more than
O(n).  Every other kernel falls back to one dynamic-programming convolution
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
    v = d / (x + mean)
    v2 = v * v
    near = d * v
    term = 2.0 * x * v
    for j in range(1, 10):  # |v| < 0.1 on the near branch: 9 terms reach rounding
        term = term * v2
        near = near + term / (2 * j + 1)
    far = x * np.log(x / mean) + mean - x
    return np.where(np.abs(d) < 0.1 * (x + mean), near, far)


def _log_binom_pmf(n: int, p: float) -> np.ndarray:
    """log P(K = k) for K ~ Bin(n, p), k = 0..n, in Loader's saddle-point form."""
    out = np.empty(n + 1)
    out[0] = n * math.log1p(-p)
    out[n] = n * math.log(p)
    if n >= 2:
        k = np.arange(1, n)
        x = k.astype(float)
        lc = (_stirlerr(np.array(n)) - _stirlerr(k) - _stirlerr(n - k)
              - _bd0(x, n * p) - _bd0(n - x, n * (1.0 - p)))
        out[1:n] = lc - 0.5 * (_LOG_2PI + np.log(x) + np.log1p(-x / n))
    return out


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

    def _log_tail_uniform_axes(self, n: int, radius: float) -> float:
        """log P(||(X, Y)||_2 >= radius) via two independent +-1 walks U, V.

        With U = X + Y and V = X - Y the four uniform axis steps become
        independent uniform +-1 steps in U and V, and X^2 + Y^2 =
        (U^2 + V^2) / 2, so the event is U^2 + V^2 >= 2 radius^2.  U and V
        both take the values 2k - n with K ~ Bin(n, 1/2).
        """
        log_pmf = _log_binom_pmf(n, 0.5)
        sites = 2.0 * np.arange(n + 1) - n
        # log P(V >= sites[i]), and -inf past the last site
        log_upper = np.append(np.logaddexp.accumulate(log_pmf[::-1])[::-1], -np.inf)
        thresholds = np.sqrt(np.clip(2.0 * radius * radius - sites**2, 0.0, None))
        # P(|V| >= t) = 2 P(V >= t) for t > 0 by symmetry, with a tolerance
        # guard; integer sites are never within 1e-9 of a misrounded threshold
        # at these magnitudes
        first = np.searchsorted(sites, thresholds - 1e-9, side="left")
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
        center = n * self.mean_step
        two_point = self._two_point_support()
        if two_point is not None:
            a, b, p = two_point
            sites = a * n + (b - a) * np.arange(n + 1) - center[0]
            log_tail = _logsumexp(_log_binom_pmf(n, p)[np.abs(sites) >= radius - 1e-9])
        elif self._is_uniform_axes():
            log_tail = self._log_tail_uniform_axes(n, radius)
        else:
            offset, law = self.distribution(n)
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
