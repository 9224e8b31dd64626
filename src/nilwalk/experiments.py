"""Config-driven experiment runners and their file formats.

Every runner takes an :class:`ExperimentConfig` plus an output directory,
writes a CSV (or JSON) artifact with a fixed column order and
17-significant-digit floats, and a ``<name>_summary.json`` carrying the
config hash and the headline metrics.  All randomness flows through
per-sample Philox streams keyed by ``(seed, global sample index)``, so reruns
are byte-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .albanese import albanese_pipeline
from .algebra import StratifiedAlgebra, dilate_vector
from .errors import OracleUnavailable, SchemaError
from .graph import PRESETS, VoltageGraph, validate
from .lattice import ExactLatticeDistribution, gaussian_tail_exponent, mdp_rate
from .rates import QuadraticForms, minimize_endpoint_rate
from .walk import (
    ScalingSequence,
    _run_sharded,
    batch_centered_sums,
    clt_covariance_oracle,
    lil_scaling,
    power_scaling,
    trajectory_scan,
)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    graph: dict | None = None
    scaling: dict | None = None
    n_grid: tuple = ()
    samples: int = 1000
    trajectories: int = 8
    delta: tuple = (1.0,)
    seed: int = 0
    workers: int = 1
    mdp_mode: str = "auto"
    lln_quantiles: tuple = (0.1, 0.5, 0.9)
    rate_knots: int = 8
    rate_restarts: int = 8
    containment_level: float = 1.0
    containment_tol: float = 0.1
    sup_range: tuple | None = None
    target: tuple | None = None
    albanese_file: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise SchemaError("", "config must be a JSON object")
        unknown = set(raw) - _CONFIG_FIELDS
        if unknown:
            raise SchemaError(f"/{sorted(unknown)[0]}", "unknown config field")
        cfg = cls(**{k: _freeze(v) for k, v in raw.items()})
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def validate(self) -> None:
        if self.n_grid and (
            any(int(n) != n or n < 0 for n in self.n_grid)
            or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:]))
        ):
            raise SchemaError("/n_grid", "must be a strictly increasing list of nonnegative integers")
        if self.samples < 1:
            raise SchemaError("/samples", "must be >= 1")
        if self.trajectories < 1:
            raise SchemaError("/trajectories", "must be >= 1")
        if any(d <= 0 for d in self.delta):
            raise SchemaError("/delta", "thresholds must be positive")
        if self.seed < 0:
            raise SchemaError("/seed", "must be nonnegative")
        if self.workers < 1:
            raise SchemaError("/workers", "must be >= 1")
        if self.mdp_mode not in ("auto", "exact", "mc"):
            raise SchemaError("/mdp_mode", "must be one of auto, exact, mc")

    def override(self, seed=None, workers=None) -> "ExperimentConfig":
        cfg = self
        if seed is not None:
            cfg = replace(cfg, seed=int(seed))
        if workers is not None:
            cfg = replace(cfg, workers=int(workers))
        cfg.validate()
        return cfg

    def canonical_dict(self) -> dict:
        """The fields that differ from their defaults, as plain JSON.

        ``workers`` is left out: the artifacts are the same for any worker
        count, so their summaries carry the same hash.
        """
        plain, default = (json.loads(json.dumps(asdict(c))) for c in (self, ExperimentConfig()))
        return {k: v for k, v in sorted(plain.items()) if k != "workers" and v != default[k]}

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


_CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))


def _freeze(v):
    if isinstance(v, list):
        return tuple(_freeze(x) for x in v)
    if isinstance(v, dict):
        return {k: _freeze(x) for k, x in v.items()}
    return v


# ---------------------------------------------------------------------------
# Graph and algebra JSON
# ---------------------------------------------------------------------------

def _expect(cond: bool, pointer: str, message: str) -> None:
    if not cond:
        raise SchemaError(pointer, message)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def algebra_from_spec(spec, pointer: str = "/algebra") -> StratifiedAlgebra:
    _expect(isinstance(spec, dict), pointer, "must be an object")
    dims = spec.get("layer_dims")
    _expect(isinstance(dims, (list, tuple)) and len(dims) > 0, f"{pointer}/layer_dims",
            "must be a non-empty list")
    for i, d in enumerate(dims):
        _expect(_is_int(d) and d > 0, f"{pointer}/layer_dims/{i}", "must be a positive integer")
    brackets = spec.get("brackets", [])
    _expect(isinstance(brackets, (list, tuple)), f"{pointer}/brackets", "must be a list")
    for i, entry in enumerate(brackets):
        _expect(isinstance(entry, (list, tuple)) and len(entry) == 4,
                f"{pointer}/brackets/{i}", "must be an [i, j, k, value] quadruple")
        _expect(all(_is_int(x) for x in entry[:3]) and _is_num(entry[3]),
                f"{pointer}/brackets/{i}", "indices must be integers and value a number")
    return StratifiedAlgebra(tuple(dims), [tuple(e) for e in brackets])


def algebra_to_spec(alg: StratifiedAlgebra) -> dict:
    entries = [
        [int(i), int(j), int(k), float(alg.brackets[i, j, k])]
        for i, j, k in np.argwhere(alg.brackets != 0.0)
    ]
    return {"layer_dims": list(alg.layer_dims), "brackets": entries}


def graph_from_dict(doc: dict) -> VoltageGraph:
    _expect(isinstance(doc, dict), "", "graph document must be an object")
    alg = algebra_from_spec(doc.get("algebra"), "/algebra")
    nv = doc.get("vertices")
    _expect(_is_int(nv) and nv > 0, "/vertices", "must be a positive integer")
    edges = doc.get("edges")
    _expect(isinstance(edges, (list, tuple)) and len(edges) > 0, "/edges", "must be a non-empty list")
    origin, terminus, inverse, prob, volts = [], [], [], [], []
    for i, e in enumerate(edges):
        _expect(isinstance(e, dict), f"/edges/{i}", "must be an object")
        for key in ("o", "t", "inv"):
            _expect(_is_int(e.get(key)), f"/edges/{i}/{key}", "must be an integer")
        _expect(_is_num(e.get("p")), f"/edges/{i}/p", "must be a number")
        v = e.get("voltage")
        _expect(isinstance(v, (list, tuple)) and len(v) == alg.dim and all(_is_num(x) for x in v),
                f"/edges/{i}/voltage", f"must be a list of {alg.dim} numbers")
        _expect(0 <= e["inv"] < len(edges), f"/edges/{i}/inv", "edge index out of range")
        origin.append(e["o"])
        terminus.append(e["t"])
        inverse.append(e["inv"])
        prob.append(e["p"])
        volts.append([float(x) for x in v])
    graph = VoltageGraph(alg, nv, origin, terminus, inverse, prob, np.array(volts))
    validate(graph)
    return graph


def ingest_graph(path) -> VoltageGraph:
    """Load and fully validate a voltage-graph JSON document."""
    with open(path) as fh:
        return graph_from_dict(json.load(fh))


def graph_to_dict(graph: VoltageGraph) -> dict:
    return {
        "algebra": algebra_to_spec(graph.algebra),
        "vertices": int(graph.num_vertices),
        "edges": [
            {
                "o": int(graph.origin[e]),
                "t": int(graph.terminus[e]),
                "inv": int(graph.inverse[e]),
                "p": float(graph.prob[e]),
                "voltage": [float(x) for x in graph.voltages[e]],
            }
            for e in range(graph.num_edges)
        ],
    }


def load_graph(config: ExperimentConfig) -> VoltageGraph:
    spec = config.graph
    _expect(isinstance(spec, dict), "/graph", "must be an object with 'preset' or 'file'")
    if "preset" in spec:
        name = spec["preset"]
        _expect(name in PRESETS, "/graph/preset", f"unknown preset {name!r}")
        params = spec.get("params", {})
        _expect(isinstance(params, dict), "/graph/params", "must be an object")
        graph = PRESETS[name](**params)
        validate(graph)
        return graph
    if "file" in spec:
        return ingest_graph(spec["file"])
    raise SchemaError("/graph", "must contain 'preset' or 'file'")


def scaling_from_config(config: ExperimentConfig) -> ScalingSequence:
    spec = config.scaling
    _expect(isinstance(spec, dict), "/scaling", "must be an object with a 'kind'")
    kind = spec.get("kind")
    if kind == "power":
        theta = spec.get("theta")
        _expect(_is_num(theta), "/scaling/theta", "must be a number")
        try:
            return power_scaling(float(theta))
        except ValueError as exc:
            raise SchemaError("/scaling/theta", str(exc)) from exc
    if kind == "lil":
        return lil_scaling()
    raise SchemaError("/scaling/kind", "must be 'power' or 'lil'")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path: Path, obj) -> None:
    """Strict JSON: non-finite floats are written as the strings "inf", "-inf", "nan"."""
    Path(path).write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_summary(out_dir: Path, name: str, config: ExperimentConfig, metrics: dict) -> dict:
    summary = {"config_hash": config.config_hash(), "metrics": metrics}
    write_json(Path(out_dir) / f"{name}_summary.json", summary)
    return summary


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else str(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def _prepare(config: ExperimentConfig):
    graph = load_graph(config)
    meas, rho, phi0, data = albanese_pipeline(graph)
    return graph, meas, rho, phi0, data


def run_albanese(config: ExperimentConfig, out_dir) -> dict:
    """Invariant-measure pipeline outputs as JSON."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    graph, meas, rho, phi0, data = _prepare(config)
    doc = {
        "algebra": algebra_to_spec(graph.algebra),
        "m": meas.m.tolist(),
        **data.to_json_dict(),
    }
    write_json(out_dir / "albanese.json", doc)
    metrics = {
        "rho": rho.tolist(),
        "sigma": data.sigma.tolist(),
        "residual": float(data.residual),
    }
    write_summary(out_dir, "albanese", config, metrics)
    return metrics


def run_lln(config: ExperimentConfig, out_dir) -> dict:
    """Quantiles of the normalized drift error over the n grid."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    graph, meas, rho, phi0, data = _prepare(config)
    qs = list(config.lln_quantiles)
    header = ["n"] + [f"err_q{int(round(100 * q)):02d}" for q in qs]
    rows = []
    medians = {}
    for gi, n in enumerate(config.n_grid):
        sums = batch_centered_sums(
            graph, phi0, rho, int(n), config.samples, config.seed,
            workers=config.workers, index_offset=gi * config.samples,
        )
        err = np.linalg.norm(sums, axis=1) / float(n)
        quants = np.quantile(err, qs)
        rows.append([int(n)] + list(quants))
        medians[int(n)] = float(np.quantile(err, 0.5))
    write_csv(out_dir / "lln.csv", header, rows)
    metrics = {"median_error_by_n": medians}
    write_summary(out_dir, "lln", config, metrics)
    return metrics


def run_clt(config: ExperimentConfig, out_dir) -> dict:
    """Monte Carlo covariance versus the exact matrix over the n grid."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    graph, meas, rho, phi0, data = _prepare(config)
    d1 = graph.algebra.layer_dims[0]
    names = [f"{i}_{j}" for i in range(d1) for j in range(d1)]
    header = ["n"] + [f"est_{s}" for s in names] + [f"se_{s}" for s in names] + [f"ref_{s}" for s in names]
    rows = []
    max_dev = 0.0
    for gi, n in enumerate(config.n_grid):
        est, se = clt_covariance_oracle(
            graph, phi0, rho, int(n), config.samples, config.seed,
            workers=config.workers, index_offset=gi * config.samples,
        )
        rows.append([int(n)] + list(est.ravel()) + list(se.ravel()) + list(data.sigma.ravel()))
        max_dev = max(max_dev, float(np.abs((est - data.sigma) / np.maximum(se, 1e-15)).max()))
    write_csv(out_dir / "clt.csv", header, rows)
    metrics = {"max_deviation_in_se": max_dev, "sigma": data.sigma.tolist()}
    write_summary(out_dir, "clt", config, metrics)
    return metrics


def run_mdp(config: ExperimentConfig, out_dir) -> dict:
    """Normalized log tail probabilities against the moderate-deviation prediction."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    graph, meas, rho, phi0, data = _prepare(config)
    scaling = scaling_from_config(config)
    oracle = None
    if config.mdp_mode in ("auto", "exact"):
        try:
            oracle = ExactLatticeDistribution.from_graph(graph)
        except OracleUnavailable:
            if config.mdp_mode == "exact":
                raise
    header = ["n", "delta", "tail", "log_tail", "rate", "predicted_rate", "mode"]
    rows = []
    rates = {}
    for gi, n in enumerate(config.n_grid):
        a_n = float(scaling(int(n)))
        if oracle is not None:
            log_tails = [oracle.log_tail_probability(int(n), d * a_n) for d in config.delta]
            tails = [math.exp(lt) for lt in log_tails]
            mode = "exact"
        else:
            sums = batch_centered_sums(
                graph, phi0, rho, int(n), config.samples, config.seed,
                workers=config.workers, index_offset=gi * config.samples,
            )
            norms = np.linalg.norm(sums, axis=1)
            tails = [float(np.mean(norms >= d * a_n - 1e-9)) for d in config.delta]
            log_tails = [math.log(t) if t > 0.0 else -math.inf for t in tails]
            mode = "mc"
        for d, tail, log_tail in zip(config.delta, tails, log_tails):
            rate = mdp_rate(int(n), a_n, log_tail)
            predicted = gaussian_tail_exponent(data.sigma, float(d))
            rows.append([int(n), float(d), tail, log_tail, rate, predicted, mode])
            rates[(int(n), float(d))] = rate
    write_csv(out_dir / "mdp.csv", header, rows)
    metrics = {
        "mode": rows[0][-1] if rows else "none",
        "rates": {f"n={n},delta={d}": r for (n, d), r in rates.items()},
    }
    write_summary(out_dir, "mdp", config, metrics)
    return metrics


def run_lil(config: ExperimentConfig, out_dir) -> dict:
    """Scaled-point scatter along a geometric n grid with rate-bound containment.

    Records tau_{1/b_n} of the centered endpoint for each trajectory at every
    grid point, the per-trajectory supremum of ||first-layer sum|| / b_n over
    the full sup_range, and two containment fractions, with level =
    containment_level + containment_tol.  ``fraction_rate_le_level`` counts
    the recorded points in {I <= level}, at the theorem's normalization b_n
    (limit set {I <= 1}).  ``fraction_half_rate_le_level`` counts the same
    walk normalized by sqrt(2 n log log n): dividing the recorded point by the
    dilation of sqrt(2) exactly halves the rate bound, so no second
    optimization is needed, and at b_n this is the ball {I <= 2 level}, more
    than twice the theorem's ball.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    graph, meas, rho, phi0, data = _prepare(config)
    alg = graph.algebra
    scaling = scaling_from_config(config)
    if scaling.kind != "lil":
        raise SchemaError("/scaling/kind", "the iterated-logarithm runner requires the 'lil' scaling")
    checkpoints = [int(n) for n in config.n_grid]
    _expect(len(checkpoints) > 0 and checkpoints[0] >= scaling.domain_min,
            "/n_grid", f"grid must start at or above {scaling.domain_min}")
    sup_range = config.sup_range if config.sup_range is not None else (checkpoints[0], checkpoints[-1])
    _expect(isinstance(sup_range, (list, tuple)) and len(sup_range) == 2
            and all(_is_num(x) and float(x).is_integer() for x in sup_range),
            "/sup_range", "must be a pair of integers [lo, hi]")
    sup_range = (int(sup_range[0]), int(sup_range[1]))
    _expect(scaling.domain_min <= sup_range[0] <= sup_range[1] and sup_range[0] <= checkpoints[-1],
            "/sup_range", f"must satisfy {scaling.domain_min} <= lo <= hi, with lo at most the last "
            f"grid point {checkpoints[-1]}")
    forms = QuadraticForms.from_albanese(data)

    header = (
        ["trajectory", "n"]
        + [f"coord_{i}" for i in range(alg.dim)]
        + ["rate_bound", "rate_method", "constraint_violation"]
    )
    rows = []
    sups = []
    grid_sups = []
    bounds = []
    d1 = alg.layer_dims[0]

    def traj_job(t):
        points_raw, sup = trajectory_scan(
            graph, phi0, rho, checkpoints, config.seed, t,
            sup_scaling=scaling, sup_range=sup_range,
        )
        out = []
        for c, n in enumerate(checkpoints):
            b_n = float(scaling(n))
            pt = dilate_vector(alg, 1.0 / b_n, points_raw[c])
            bound = minimize_endpoint_rate(alg, forms, pt, knots=config.rate_knots,
                                           restarts=config.rate_restarts, seed=config.seed)
            out.append((n, pt, bound))
        return sup, out

    results = [None] * config.trajectories

    def job(shard):
        for t in shard:
            results[t] = traj_job(t)

    _run_sharded(config.trajectories, config.workers, job)

    for t, (sup, recs) in enumerate(results):
        sups.append(sup)
        in_range = [
            float(np.linalg.norm(pt[:d1]))
            for n, pt, _ in recs
            if sup_range[0] <= n <= sup_range[1]
        ]
        grid_sups.append(max(in_range) if in_range else np.nan)
        for n, pt, bound in recs:
            rows.append([t, int(n)] + list(pt) + [bound.value, bound.method, bound.constraint_violation])
            bounds.append(bound.value)

    bounds = np.array(bounds)
    level = config.containment_level + config.containment_tol
    metrics = {
        "sup_per_trajectory": [float(s) for s in sups],
        "sup_median": float(np.median(sups)),
        "sup_max": float(np.max(sups)),
        "grid_sup_per_trajectory": [float(s) for s in grid_sups],
        "grid_sup_median": float(np.median(grid_sups)),
        "fraction_rate_le_level": float(np.mean(bounds <= level)),
        "fraction_half_rate_le_level": float(np.mean(bounds / 2.0 <= level)),
        "containment_level": config.containment_level,
        "containment_tol": config.containment_tol,
    }
    write_csv(out_dir / "lil.csv", header, rows)
    write_summary(out_dir, "lil", config, metrics)
    return metrics


def run_rate(config: ExperimentConfig, out_dir) -> dict:
    """Endpoint-rate bound at a target point from Albanese data."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _expect(config.target is not None, "/target", "rate runs need target coordinates")
    if config.albanese_file is not None:
        with open(config.albanese_file) as fh:
            doc = json.load(fh)
        alg = algebra_from_spec(doc.get("algebra"), "/algebra")
        _expect("sigma" in doc and "sigma_inv" in doc, "/sigma", "Albanese JSON must carry sigma and sigma_inv")
        forms = QuadraticForms(np.array(doc["sigma"]), np.array(doc["sigma_inv"]))
    else:
        graph, meas, rho, phi0, data = _prepare(config)
        alg = graph.algebra
        forms = QuadraticForms.from_albanese(data)
    target = np.asarray(config.target, dtype=float)
    bound = minimize_endpoint_rate(alg, forms, target, knots=config.rate_knots,
                                   restarts=config.rate_restarts, seed=config.seed)
    result = {
        "value": bound.value,
        "constraint_violation": bound.constraint_violation,
        "knots": bound.knots,
        "restarts_used": bound.restarts_used,
        "method": bound.method,
    }
    write_json(Path(out_dir) / "rate.json", result)
    write_summary(out_dir, "rate", config, result)
    return result


RUNNERS = {
    "albanese": run_albanese,
    "lln": run_lln,
    "clt": run_clt,
    "mdp": run_mdp,
    "lil": run_lil,
    "rate": run_rate,
}
