"""Rate functionals on paths and group endpoints, and the iterated-logarithm ball.

The path functional is the time integral of the conjugate quadratic form of
the covariance matrix, evaluated exactly on piecewise-linear paths.  The
endpoint rate at a group element g is the infimum of the path functional over
first-layer paths whose development (ordered product of segment exponentials)
reaches g; it is approximated from above by a penalized multi-start
minimization over uniform-knot piecewise-linear paths, with a feasibility
polish and an exact first-layer projection so the reported value is always a
certified upper bound at the reported constraint violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .albanese import AlbaneseData
from .algebra import StratifiedAlgebra, _fold, _require_supported_step
from .errors import DimensionMismatch, NonIncreasingTimes

_MIN_KNOTS = {1: 1, 2: 2, 3: 4, 4: 8}


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewisePath:
    """Piecewise-linear first-layer path through knots, h(0) = 0, on [0, 1]."""

    times: np.ndarray   # (K+1,), 0 = t_0 < ... < t_K = 1
    values: np.ndarray  # (K+1, d1), values[0] = 0

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.times.ndim != 1 or self.values.ndim != 2 or len(self.times) != len(self.values):
            raise DimensionMismatch("knot times and values have inconsistent shapes")
        if self.times[0] != 0.0 or self.times[-1] != 1.0 or np.any(np.diff(self.times) <= 0):
            raise NonIncreasingTimes("knot times must increase strictly from 0 to 1")
        if np.any(self.values[0] != 0.0):
            raise ValueError("paths must start at the origin")

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.times)

    def endpoint(self) -> np.ndarray:
        return self.values[-1]

    def refine(self) -> "PiecewisePath":
        """Insert the midpoint of every segment (geometry unchanged)."""
        t = self.times
        v = self.values
        mid_t = 0.5 * (t[:-1] + t[1:])
        mid_v = 0.5 * (v[:-1] + v[1:])
        times = np.empty(2 * len(t) - 1)
        values = np.empty((2 * len(t) - 1, v.shape[1]))
        times[0::2] = t
        times[1::2] = mid_t
        values[0::2] = v
        values[1::2] = mid_v
        return PiecewisePath(times=times, values=values)


def straight_path(v, knots: int) -> PiecewisePath:
    v = np.asarray(v, dtype=float)
    times = np.linspace(0.0, 1.0, knots + 1)
    return PiecewisePath(times=times, values=np.outer(times, v))


def path_from_increments(increments: np.ndarray) -> PiecewisePath:
    increments = np.asarray(increments, dtype=float)
    k = len(increments)
    values = np.vstack([np.zeros((1, increments.shape[1])), np.cumsum(increments, axis=0)])
    return PiecewisePath(times=np.linspace(0.0, 1.0, k + 1), values=values)


@dataclass(frozen=True)
class QuadraticForms:
    """Covariance form and its inverse, as used by the rate functionals."""

    sigma: np.ndarray
    sigma_inv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        object.__setattr__(self, "sigma_inv", np.asarray(self.sigma_inv, dtype=float))
        d = self.sigma.shape[0]
        if self.sigma.shape != (d, d) or self.sigma_inv.shape != (d, d):
            raise DimensionMismatch("sigma and sigma_inv must be square of equal size")
        if np.abs(self.sigma - self.sigma.T).max() > 1e-12:
            raise ValueError("sigma must be symmetric")
        if np.abs(self.sigma @ self.sigma_inv - np.eye(d)).max() > 1e-10:
            raise ValueError("sigma_inv is not the inverse of sigma")

    @classmethod
    def from_albanese(cls, data: AlbaneseData) -> "QuadraticForms":
        return cls(sigma=data.sigma, sigma_inv=data.sigma_inv)

    @classmethod
    def from_sigma(cls, sigma) -> "QuadraticForms":
        sigma = np.asarray(sigma, dtype=float)
        return cls(sigma=sigma, sigma_inv=np.linalg.inv(sigma))

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]


# ---------------------------------------------------------------------------
# Quadratic forms and path functionals
# ---------------------------------------------------------------------------

def _check_vec(forms: QuadraticForms, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (forms.dim,):
        raise DimensionMismatch(f"expected vector of length {forms.dim}, got shape {v.shape}")
    return v


def alpha(forms: QuadraticForms, chi) -> float:
    """Half the covariance quadratic form."""
    chi = _check_vec(forms, chi)
    return float(0.5 * chi @ forms.sigma @ chi)


def alpha_star(forms: QuadraticForms, lam) -> float:
    """Convex conjugate of ``alpha``: half the inverse form."""
    lam = _check_vec(forms, lam)
    return float(0.5 * lam @ forms.sigma_inv @ lam)


def path_rate(forms: QuadraticForms, path: PiecewisePath) -> float:
    """Integral of alpha_star along the path derivative; exact on PL paths."""
    dt = path.dt
    vel = path.increments / dt[:, None]
    vals = 0.5 * np.einsum("ki,ij,kj->k", vel, forms.sigma_inv, vel)
    return float(np.dot(dt, vals))


def finite_dim_rate(forms: QuadraticForms, times, lams) -> float:
    """Finite-dimensional marginal rate at strictly increasing times in (0, 1]."""
    times = np.asarray(times, dtype=float)
    lams = np.asarray(lams, dtype=float)
    if times.ndim != 1 or lams.shape != (len(times), forms.dim):
        raise DimensionMismatch("times and marginal values have inconsistent shapes")
    if len(times) == 0 or times[0] <= 0 or times[-1] > 1 or np.any(np.diff(times) <= 0):
        raise NonIncreasingTimes("times must be strictly increasing in (0, 1]")
    t = np.concatenate([[0.0], times])
    lam = np.vstack([np.zeros(forms.dim), lams])
    dt = np.diff(t)
    vel = np.diff(lam, axis=0) / dt[:, None]
    vals = 0.5 * np.einsum("ki,ij,kj->k", vel, forms.sigma_inv, vel)
    return float(np.dot(dt, vals))


# ---------------------------------------------------------------------------
# Development map
# ---------------------------------------------------------------------------

def _check_path(alg: StratifiedAlgebra, path: PiecewisePath) -> None:
    _require_supported_step(alg)
    if path.values.shape[1] != alg.layer_dims[0]:
        raise DimensionMismatch("path values must live in the first layer")


def develop(alg: StratifiedAlgebra, path: PiecewisePath) -> np.ndarray:
    """Endpoint of the left-invariant ODE driven by the path (group product).

    For a PL path the solution is the exact ordered product of segment
    exponentials, so it depends only on the knot increments.
    """
    _check_path(alg, path)
    return _fold(alg, alg.bracket_entries, alg.embed_first_layer(path.increments))


def develop_limit(alg: StratifiedAlgebra, path: PiecewisePath) -> np.ndarray:
    """Development into the limit group (graded bracket table)."""
    _check_path(alg, path)
    return _fold(alg, alg.graded_bracket_entries, alg.embed_first_layer(path.increments))


# ---------------------------------------------------------------------------
# Endpoint rate (penalized multi-start upper bound)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateBound:
    """Certified upper bound: ``value`` is the exact rate of the path with knot
    increments ``increments``, whose development misses the target by
    ``constraint_violation``.  When no candidate is feasible, ``value`` is inf
    and ``constraint_violation`` the least violation among the candidates."""

    value: float
    constraint_violation: float
    knots: int
    restarts_used: int
    feasible: bool
    increments: np.ndarray | None = None  # best path's knot increments


def _defect_grad_terms(alg, table, incr, residual):
    """Gradient of 0.5 ||defect||^2 w.r.t. increments, step <= 2 closed form."""
    d1 = alg.layer_dims[0]
    k = len(incr)
    grad = np.tile(residual[:d1], (k, 1))
    if alg.step == 2:
        tsub = table[:d1, :d1, :]
        a = np.einsum("abm,m->ab", tsub, residual)
        prefix = np.vstack([np.zeros(d1), np.cumsum(incr, axis=0)[:-1]])
        suffix = incr[::-1].cumsum(axis=0)[::-1] - incr
        grad = grad + 0.5 * (prefix @ a + suffix @ a.T)
    return grad


def _defect_jacobian(alg, table, incr):
    """Full Jacobian of the development map w.r.t. increments, step <= 2."""
    d1 = alg.layer_dims[0]
    k = len(incr)
    jac = np.zeros((alg.dim, k, d1))
    jac[np.arange(d1), :, np.arange(d1)] = 1.0
    if alg.step == 2:
        tsub = table[:d1, :d1, :]
        prefix = np.vstack([np.zeros(d1), np.cumsum(incr, axis=0)[:-1]])
        suffix = incr[::-1].cumsum(axis=0)[::-1] - incr
        jac += 0.5 * (np.einsum("ka,acm->mkc", prefix, tsub) + np.einsum("kb,cbm->mkc", suffix, tsub))
    return jac.reshape(alg.dim, k * d1)


def minimize_endpoint_rate(
    alg: StratifiedAlgebra,
    forms: QuadraticForms,
    target,
    knots: int = 8,
    restarts: int = 8,
    seed: int = 0,
    limit: bool = False,
    penalty_schedule=(1.0, 1e2, 1e4, 1e6, 1e8),
    feasibility_tol: float = 1e-8,
    fd_step: float = 1e-6,
    maxiter: int = 120,
    initial_paths=None,
) -> RateBound:
    """Upper bound on the endpoint rate at a group element (log coordinates).

    Quadratic-penalty stages with geometrically increasing weight, then an
    equality-constrained polish, per restart; restart 0 starts from the
    straight path, the others from seeded perturbations of it.  The reported
    value is the exact path functional of the best candidate whose first
    layer has been projected to match the target exactly.
    """
    from scipy.optimize import minimize

    _require_supported_step(alg)
    target = alg.check_vector(target)
    d1 = alg.layer_dims[0]
    if forms.dim != d1:
        raise DimensionMismatch("quadratic forms do not match the first layer")
    if knots < _MIN_KNOTS[alg.step]:
        raise ValueError(f"step {alg.step} requires at least {_MIN_KNOTS[alg.step]} knots")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    table = alg.graded_brackets if limit else alg.brackets
    entries = alg.graded_bracket_entries if limit else alg.bracket_entries
    k = knots
    v1 = target[:d1]
    sinv = forms.sigma_inv
    analytic = alg.step <= 2

    def fold(incr):
        return _fold(alg, entries, alg.embed_first_layer(incr))

    def rate_value(incr):
        return 0.5 * k * float(np.einsum("ki,ij,kj->", incr, sinv, incr))

    def rate_grad(incr):
        return k * incr @ sinv

    def penalty_fg(flat, mu):
        incr = flat.reshape(k, d1)
        residual = fold(incr) - target
        val = rate_value(incr) + mu * float(residual @ residual)
        grad = rate_grad(incr) + 2.0 * mu * _defect_grad_terms(alg, table, incr, residual)
        return val, grad.ravel()

    def penalty_f(flat, mu):
        incr = flat.reshape(k, d1)
        residual = fold(incr) - target
        return rate_value(incr) + mu * float(residual @ residual)

    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    straight = np.tile(v1 / k, (k, 1))
    scale = (np.linalg.norm(v1) + np.linalg.norm(target)) / k * 0.5 + 0.05
    starts = [straight]
    for _ in range(restarts - 1):
        starts.append(straight + rng.normal(0.0, scale, size=(k, d1)))
    if initial_paths is not None:
        for path in initial_paths:
            incr = path.increments if isinstance(path, PiecewisePath) else np.asarray(path, float)
            if incr.shape != (k, d1):
                raise DimensionMismatch(f"warm start must provide {k} increments of length {d1}")
            starts.append(incr)

    best_val = math.inf
    best_viol = math.inf  # violation of the best path, or the least one while none is feasible
    best_incr = None
    for x0 in starts:
        x = x0.ravel().copy()
        for mu in penalty_schedule:
            if analytic:
                res = minimize(penalty_fg, x, args=(mu,), jac=True, method="L-BFGS-B",
                               options={"maxiter": maxiter})
            else:
                res = minimize(penalty_f, x, args=(mu,), method="L-BFGS-B", jac=None,
                               options={"maxiter": maxiter, "eps": fd_step, "finite_diff_rel_step": None})
            if np.all(np.isfinite(res.x)):
                x = res.x

        candidates = [x]
        cons = {"type": "eq", "fun": lambda f: fold(f.reshape(k, d1)) - target}
        if analytic:
            cons["jac"] = lambda f: _defect_jacobian(alg, table, f.reshape(k, d1))
            polish = minimize(
                lambda f: rate_value(f.reshape(k, d1)), x,
                jac=lambda f: rate_grad(f.reshape(k, d1)).ravel(),
                method="SLSQP", constraints=[cons],
                options={"maxiter": 200, "ftol": 1e-14},
            )
        else:
            polish = minimize(
                lambda f: rate_value(f.reshape(k, d1)), x,
                method="SLSQP", constraints=[cons],
                options={"maxiter": 200, "ftol": 1e-14, "eps": fd_step},
            )
        if np.all(np.isfinite(polish.x)):
            candidates.append(polish.x)

        for cand in candidates:
            incr = cand.reshape(k, d1)
            incr = incr + (v1 - incr.sum(axis=0)) / k  # exact first-layer projection
            # certify the reported path itself: the same knots feed the
            # violation, the value, and a later path_from_increments replay
            path = path_from_increments(incr)
            viol = float(np.linalg.norm(fold(path.increments) - target))
            val = path_rate(forms, path)
            if viol <= feasibility_tol:
                if val < best_val:
                    best_val, best_viol, best_incr = val, viol, incr
            elif best_incr is None:
                best_viol = min(best_viol, viol)

    if best_incr is None:
        return RateBound(value=math.inf, constraint_violation=best_viol,
                         knots=k, restarts_used=len(starts), feasible=False)
    return RateBound(value=best_val, constraint_violation=best_viol,
                     knots=k, restarts_used=len(starts), feasible=True, increments=best_incr)


def endpoint_rate(alg, forms, target, knots: int = 8, restarts: int = 8, seed: int = 0, **kwargs) -> float:
    """Upper bound on the endpoint rate; +inf when no feasible path was found."""
    return minimize_endpoint_rate(alg, forms, target, knots, restarts, seed, **kwargs).value


def limit_rate(alg, forms, g_infinity, knots: int = 8, restarts: int = 8, seed: int = 0, **kwargs) -> float:
    """Endpoint rate on the limit group.

    The canonical chart is the coordinate identity, so the pullback of a
    limit-group element is the same coordinate vector; only the development
    changes, to the graded product.
    """
    return minimize_endpoint_rate(alg, forms, g_infinity, knots, restarts, seed, limit=True, **kwargs).value


def lil_ball_contains(alg, forms, g, level: float = 1.0, tol: float = 1e-6, **kwargs) -> bool:
    """Membership test for the sublevel set {limit rate <= level}.

    Uses the optimizer's upper bound, so a True answer is certified up to
    ``tol`` while a False answer may be a false negative if the bound is
    loose.
    """
    if level <= 0:
        raise ValueError("level must be positive")
    return limit_rate(alg, forms, g, **kwargs) <= level + tol
