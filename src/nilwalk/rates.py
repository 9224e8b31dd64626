"""Rate functionals on paths and group endpoints.

The path functional is the time integral of the conjugate quadratic form of
the covariance matrix, evaluated exactly on piecewise-linear paths.  Rates
live on the limit group G_inf, the graded group on which the dilations are
automorphisms and to which the rescaled walk converges: the endpoint rate at
g in G_inf is the infimum of the path functional over first-layer paths whose
development (ordered product of segment exponentials under the graded law,
``limit_product``) reaches g.  On step <= 2, and on any graded table, the
graded law is the group law itself.  ``minimize_endpoint_rate`` is the one
entry point to the endpoint rate.  It takes one of two routes, and reports
which one in ``RateBound.method``:

- ``"closed_form"`` (``_exact_rate``): on a step-1 group the rate is
  alpha_star(g); on a group with layers (2, 1) and a nonzero bracket (the
  Heisenberg type) it is half the squared sub-Riemannian distance, which
  Dido's isoperimetric problem gives through one scalar root find (Gaveau
  1977; Montgomery, *A Tour of Subriemannian Geometries*, ch. 1).
- ``"optimizer"``: everywhere else, a multi-start minimization over
  uniform-knot piecewise-linear paths, one SLSQP solve per start with the
  endpoint as an equality constraint, and an exact first-layer projection,
  so the reported value is a certified upper bound at the reported
  constraint violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .albanese import AlbaneseData
from .algebra import StratifiedAlgebra, _fold, _require_supported_step
from .errors import DimensionMismatch, InputError, NonIncreasingTimes

_MIN_KNOTS = {1: 1, 2: 2, 3: 4, 4: 8}
# the optimizer route (see minimize_endpoint_rate)
_MAXITER = 300  # SLSQP iterations per start
_FD_STEP = 1e-6  # forward-difference step of the constraint Jacobian on steps 3-4
_FEASIBILITY_TOL = 1e-8  # largest endpoint defect of a reported path


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
            raise InputError("paths must start at the origin")

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.times)


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
            raise InputError("sigma must be symmetric")
        if np.abs(self.sigma @ self.sigma_inv - np.eye(d)).max() > 1e-10:
            raise InputError("sigma_inv is not the inverse of sigma")

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


def alpha_star(forms: QuadraticForms, lam) -> float:
    """Half the inverse covariance form: the convex conjugate of half the covariance form."""
    lam = _check_vec(forms, lam)
    return float(0.5 * lam @ forms.sigma_inv @ lam)


def path_rate(forms: QuadraticForms, path: PiecewisePath) -> float:
    """Integral of alpha_star along the path derivative; exact on PL paths.

    Through knots at times t_1 < ... < t_K = 1 it is the finite-dimensional
    marginal rate of the knot values.
    """
    dt = path.dt
    vel = path.increments / dt[:, None]
    vals = 0.5 * np.einsum("ki,ij,kj->k", vel, forms.sigma_inv, vel)
    return float(np.dot(dt, vals))


# ---------------------------------------------------------------------------
# Development map
# ---------------------------------------------------------------------------

def _develop(alg: StratifiedAlgebra, increments: np.ndarray) -> np.ndarray:
    """Endpoint of the left-invariant ODE on the limit group driven by a PL path.

    The solution is the exact ordered product (graded law) of the segment
    exponentials, so it depends only on the knot ``increments`` (K, d1).
    """
    return _fold(alg, alg.graded_bracket_entries, alg.embed_first_layer(increments))


# ---------------------------------------------------------------------------
# Endpoint rate: closed forms, and the multi-start upper bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateBound:
    """The endpoint rate, or a certified upper bound on it.

    ``method`` names the route.  ``"closed_form"``: ``value`` is the exact
    rate, ``constraint_violation`` is 0, ``knots`` and ``restarts_used`` are
    0 and no path is reported.  ``"optimizer"``: ``value`` is the exact rate
    of the path with knot increments ``increments``, whose development misses
    the target by ``constraint_violation``; when no candidate is feasible,
    ``value`` is inf and ``constraint_violation`` the least violation among
    the candidates.
    """

    value: float
    constraint_violation: float
    knots: int
    restarts_used: int
    feasible: bool
    method: str
    increments: np.ndarray | None = None  # best path's knot increments


def _exact_rate(alg: StratifiedAlgebra, forms: QuadraticForms, g: np.ndarray) -> float | None:
    """The endpoint rate at ``g`` in closed form, or None where there is none.

    Step 1: alpha_star(g).  Layers (2, 1) with [X_1, X_2] = c X_3, c != 0
    (the filtration leaves no other bracket there, so the table is already
    graded and equals its limit): with Sigma = L L^T (Cholesky), the
    substitution u = L^-1 h turns the path energy into half the squared
    length of u, and the third coordinate of the development into c det(L)
    times the signed area between u and its chord.  So the rate is half the
    squared length of the shortest plane curve from 0 to u_1 = L^-1 g[:2]
    that encloses the area A = g[2] / (c det L) with its chord.  That curve
    is a circular arc (Dido's problem) whose central angle phi in (0, 2 pi)
    solves (phi - sin phi) / (8 sin^2(phi/2)) = |A| / r^2, r = |u_1|, and the
    rate is r^2 phi^2 / (8 sin^2(phi/2)): r^2 / 2 when A = 0, 2 pi |A| when
    r = 0.  The arguments are the ones ``minimize_endpoint_rate`` has checked.
    """
    if alg.step == 1:
        return alpha_star(forms, g)
    if alg.layer_dims != (2, 1) or not alg.graded_bracket_entries:
        return None
    ((_, _, _, c),) = alg.graded_bracket_entries  # [X_1, X_2] is the only bracket
    # r^2 = |L^-1 g[:2]|^2 = 2 alpha_star(g[:2]), and det L = sqrt(det Sigma)
    area = abs(float(g[2]) / (c * math.sqrt(np.linalg.det(forms.sigma))))
    return _dido_rate(2.0 * alpha_star(forms, g[:2]), area)


def _dido_rate(r2: float, area: float) -> float:
    """Half the squared length of the shortest plane curve from the origin to a
    point at distance sqrt(r2) that encloses ``area`` >= 0 with its chord.

    The curve is a circular arc of central angle phi = 2 theta.  Arcs up to a
    half circle (theta <= pi/2) are solved in theta; longer ones in
    eta = pi - theta, so the root find stays well conditioned as phi -> 0 and
    as phi -> 2 pi, and the rate is written in the form that stays finite at
    each end.
    """
    if area <= 1e-12 * r2:  # then theta ~ 6 area / r2 and (theta / sin theta)^2 rounds to 1
        return 0.5 * r2
    if r2 == 0.0:
        return 2.0 * math.pi * area
    if 8.0 * area <= math.pi * r2:
        theta = _solve_increasing(_minor_arc_area, area / r2, 6.0 * area / r2, math.pi / 2)
        return 0.5 * r2 * (theta / math.sin(theta)) ** 2
    eta = _solve_increasing(_major_arc_chord, math.sqrt(r2 / (4.0 * area)),
                            math.sqrt(math.pi * r2 / (4.0 * area)), math.pi / 2)
    return 2.0 * area * (math.pi - eta) ** 2 / (math.pi - eta + math.sin(eta) * math.cos(eta))


def _segment_excess(theta: float) -> float:
    """theta - sin(theta) cos(theta), by its Taylor series where the difference cancels."""
    if theta >= 0.25:
        return theta - math.sin(theta) * math.cos(theta)
    x2 = 4.0 * theta * theta
    term = 2.0 * theta * x2 / 12.0
    total = 0.0
    for k in range(1, 9):  # (2 theta)^(2k+1) / (2 (2k+1)!), alternating; 8 terms reach rounding
        total += term
        term *= -x2 / ((2 * k + 2) * (2 * k + 3))
    return total


def _minor_arc_area(theta: float) -> tuple[float, float]:
    """Area over squared chord of the arc of central angle 2 theta, and its slope in theta."""
    s = math.sin(theta)
    excess = _segment_excess(theta)
    return excess / (4.0 * s * s), 0.5 - excess * math.cos(theta) / (2.0 * s ** 3)


def _major_arc_chord(eta: float) -> tuple[float, float]:
    """Chord over twice the square root of the area, for the arc of central
    angle 2 (pi - eta), and its slope in eta."""
    s, co = math.sin(eta), math.cos(eta)
    d = math.pi - eta + s * co  # the area over the squared radius
    return s / math.sqrt(d), co / math.sqrt(d) + s ** 3 / d ** 1.5


def _solve_increasing(fn, target: float, x0: float, hi: float) -> float:
    """Root of fn(x) = target on (0, hi] for an increasing ``fn`` returning
    (value, slope): Newton from ``x0``, bisecting whenever a step leaves the
    bracket."""
    lo = 0.0
    x = min(x0, hi)
    for _ in range(200):
        value, slope = fn(x)
        if value == target:
            return x
        if value < target:
            lo = x
        else:
            hi = x
        step = x - (value - target) / slope
        nxt = step if lo < step < hi else 0.5 * (lo + hi)
        if abs(nxt - x) <= 1e-15 * x:
            return nxt
        x = nxt
    return x


def _defect_jacobian(alg, incr):
    """Full Jacobian of the development map w.r.t. increments, step <= 2."""
    d1 = alg.layer_dims[0]
    k = len(incr)
    jac = np.zeros((alg.dim, k, d1))
    jac[np.arange(d1), :, np.arange(d1)] = 1.0
    if alg.step == 2:
        tsub = alg.graded_brackets[:d1, :d1, :]
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
) -> RateBound:
    """The endpoint rate at a limit-group element (log coordinates), or an upper bound.

    Where ``_exact_rate`` has a closed form, that value is returned with
    ``method="closed_form"``.  Elsewhere the optimizer runs (``method=
    "optimizer"``): one SLSQP solve per start, of at most ``_MAXITER``
    iterations, minimizing the path energy subject to the endpoint equality
    constraint.  Restart 0 starts from the straight path when the target's
    first layer is nonzero; the other restarts (all of them for a target
    with zero first layer, whose straight path is the stationary zero path)
    start from seeded perturbations of it.  The energy is a quadratic with
    an analytic gradient; the constraint Jacobian is the closed-form
    Jacobian of the development map on steps <= 2 and forward differences of
    step ``_FD_STEP`` on steps 3-4.  Each start and its solution are
    candidates.  The value is the exact path functional of the best
    candidate whose first layer has been projected to match the target
    exactly and whose development misses the target by at most
    ``_FEASIBILITY_TOL``.  The arguments are checked on both routes.
    """
    _require_supported_step(alg)
    target = alg.check_vector(target)
    if forms.dim != alg.layer_dims[0]:
        raise DimensionMismatch("quadratic forms do not match the first layer")
    if knots < _MIN_KNOTS[alg.step]:
        raise InputError(f"step {alg.step} requires at least {_MIN_KNOTS[alg.step]} knots")
    if restarts < 1:
        raise InputError("restarts must be >= 1")
    exact = _exact_rate(alg, forms, target)
    if exact is not None:
        return RateBound(value=exact, constraint_violation=0.0, knots=0, restarts_used=0,
                         feasible=True, method="closed_form")
    return _optimize_endpoint_rate(alg, forms, target, knots, restarts, seed)


def _optimize_endpoint_rate(
    alg: StratifiedAlgebra,
    forms: QuadraticForms,
    target: np.ndarray,
    knots: int,
    restarts: int,
    seed: int,
) -> RateBound:
    """The optimizer route of ``minimize_endpoint_rate``, on checked arguments."""
    from scipy.optimize import minimize

    d1 = alg.layer_dims[0]
    k = knots
    v1 = target[:d1]
    sinv = forms.sigma_inv

    def rate(flat):
        incr = flat.reshape(k, d1)
        return 0.5 * k * float(np.einsum("ki,ij,kj->", incr, sinv, incr)), (k * incr @ sinv).ravel()

    cons = {"type": "eq", "fun": lambda f: _develop(alg, f.reshape(k, d1)) - target}
    if alg.step <= 2:
        cons["jac"] = lambda f: _defect_jacobian(alg, f.reshape(k, d1))

    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    straight = np.tile(v1 / k, (k, 1))
    scale = (np.linalg.norm(v1) + np.linalg.norm(target)) / k * 0.5 + 0.05
    # a zero straight path is stationary (the energy gradient and the Jacobian
    # of the vertical defect both vanish there), so it is no start
    starts = [straight] if np.any(v1) else []
    while len(starts) < restarts:
        starts.append(straight + rng.normal(0.0, scale, size=(k, d1)))

    best_val = math.inf
    best_viol = math.inf  # violation of the best path, or the least one while none is feasible
    best_incr = None
    for x0 in starts:
        candidates = [x0]
        res = minimize(rate, x0.ravel(), jac=True, method="SLSQP", constraints=[cons],
                       options={"maxiter": _MAXITER, "ftol": 1e-14, "eps": _FD_STEP})
        if np.all(np.isfinite(res.x)):
            candidates.append(res.x)

        for cand in candidates:
            incr = cand.reshape(k, d1)
            incr = incr + (v1 - incr.sum(axis=0)) / k  # exact first-layer projection
            # certify the reported path itself: the same knots feed the
            # violation, the value, and a later path_from_increments replay
            path = path_from_increments(incr)
            viol = float(np.linalg.norm(_develop(alg, path.increments) - target))
            val = path_rate(forms, path)
            if viol <= _FEASIBILITY_TOL:
                if val < best_val:
                    best_val, best_viol, best_incr = val, viol, incr
            elif best_incr is None:
                best_viol = min(best_viol, viol)

    if best_incr is None:
        return RateBound(value=math.inf, constraint_violation=best_viol, knots=k,
                         restarts_used=len(starts), feasible=False, method="optimizer")
    return RateBound(value=best_val, constraint_violation=best_viol, knots=k,
                     restarts_used=len(starts), feasible=True, method="optimizer",
                     increments=best_incr)
