import json
import math
import subprocess

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from nilwalk.albanese import albanese_pipeline
from nilwalk.algebra import abelian_algebra, heisenberg_algebra
from nilwalk.cli import main as cli_main
from nilwalk.errors import (
    InvalidAlgebra,
    InvolutionViolation,
    OracleUnavailable,
    SchemaError,
    SingularSigma,
)
from nilwalk.experiments import (
    ExperimentConfig,
    graph_from_dict,
    graph_to_dict,
    ingest_graph,
    load_graph,
    run_albanese,
    run_clt,
    run_lil,
    run_lln,
    run_mdp,
    run_rate,
    write_json,
)
from nilwalk.graph import VoltageGraph, zd_lattice


def make_config(**kw):
    base = {"graph": {"preset": "zd_lattice", "params": {"d": 1}}, "seed": 3}
    base.update(kw)
    return ExperimentConfig.from_dict(base)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_field():
    with pytest.raises(SchemaError, match="unknown config field"):
        ExperimentConfig.from_dict({"graph": {}, "bogus": 1})
    with pytest.raises(SchemaError, match="unknown config field") as exc:
        ExperimentConfig.from_dict({"graph": {}, "rate_product": "group"})  # rates have one geometry
    assert exc.value.pointer == "/rate_product"


def test_config_validates_grid_and_counts():
    with pytest.raises(SchemaError, match="n_grid"):
        make_config(n_grid=[100, 100])
    with pytest.raises(SchemaError, match="samples"):
        make_config(samples=0)
    with pytest.raises(SchemaError, match="mdp_mode"):
        make_config(mdp_mode="magic")


def test_config_hash_stable_and_sensitive(tmp_path):
    a = make_config(n_grid=[10, 20])
    b = make_config(n_grid=[10, 20])
    c = make_config(n_grid=[10, 21])
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert a.override(seed=4).config_hash() != a.config_hash()
    # only fields away from their defaults are hashed, and never workers
    assert a.override(workers=8).config_hash() == a.config_hash()
    assert list(ExperimentConfig.from_dict({"graph": {"preset": "hexagonal"}}).canonical_dict()) == ["graph"]
    assert ExperimentConfig(delta=[1.0]).canonical_dict() == {}  # a list equals its default tuple
    cfg = make_config(n_grid=[64], samples=16)
    for workers in (1, 2):
        run_clt(cfg.override(workers=workers), tmp_path / f"w{workers}")
    summaries = [(tmp_path / f"w{w}" / "clt_summary.json").read_bytes() for w in (1, 2)]
    assert summaries[0] == summaries[1]


def test_scaling_config_errors():
    from nilwalk.experiments import scaling_from_config

    with pytest.raises(SchemaError, match="/scaling/theta"):
        scaling_from_config(make_config(scaling={"kind": "power", "theta": 0.4}))
    with pytest.raises(SchemaError, match="/scaling/kind"):
        scaling_from_config(make_config(scaling={"kind": "sqrt"}))


# ---------------------------------------------------------------------------
# Graph JSON round trip and schema errors
# ---------------------------------------------------------------------------

def test_graph_round_trip(tmp_path):
    g = zd_lattice(2)
    doc = graph_to_dict(g)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    loaded = ingest_graph(path)
    assert loaded.num_vertices == g.num_vertices
    assert np.array_equal(loaded.voltages, g.voltages)
    cfg = make_config(graph={"file": str(path)})
    g2 = load_graph(cfg)
    assert np.array_equal(g2.prob, g.prob)
    _random_graphs_round_trip()


@st.composite
def _voltage_graphs(draw):
    """1-4 vertices: a spanning cycle plus random edge pairs, probabilities
    normalized per vertex."""
    alg = draw(st.sampled_from((abelian_algebra(1), abelian_algebra(2), heisenberg_algebra())))
    nv = draw(st.integers(1, 4))
    vertex = st.integers(0, nv - 1)
    pairs = [(v, (v + 1) % nv) for v in range(nv)]
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=4))
    coord = st.floats(-2.0, 2.0, allow_subnormal=False)
    volts = [draw(st.lists(coord, min_size=alg.dim, max_size=alg.dim)) for _ in pairs]
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=2 * len(pairs), max_size=2 * len(pairs))))
    g = VoltageGraph.from_pairs(alg, nv, [(o, t, 1.0, 1.0, v) for (o, t), v in zip(pairs, volts)])
    out_sums = np.zeros(nv)
    np.add.at(out_sums, g.origin, weights)
    return VoltageGraph(alg, nv, g.origin, g.terminus, g.inverse, weights / out_sums[g.origin], g.voltages)


def _sigma_or_singular(graph):
    try:
        return albanese_pipeline(graph)[3].sigma
    except SingularSigma:
        return None


@settings(max_examples=40, deadline=None)
@given(g=_voltage_graphs())
def _random_graphs_round_trip(g):
    g2 = graph_from_dict(json.loads(json.dumps(graph_to_dict(g))))
    assert g2.num_vertices == g.num_vertices and g2.algebra.layer_dims == g.algebra.layer_dims
    assert np.array_equal(g2.algebra.brackets, g.algebra.brackets)
    for name in ("origin", "terminus", "inverse", "prob", "voltages"):
        assert np.array_equal(getattr(g2, name), getattr(g, name)), name
    s1, s2 = _sigma_or_singular(g), _sigma_or_singular(g2)
    assert (s1 is None and s2 is None) or np.array_equal(s1, s2)


def test_round_trip_gives_identical_analysis(tmp_path):
    from nilwalk.graph import hexagonal

    g = hexagonal()
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(graph_to_dict(g)))
    g2 = ingest_graph(path)
    _, rho1, _, data1 = albanese_pipeline(g)
    _, rho2, _, data2 = albanese_pipeline(g2)
    assert np.array_equal(rho1, rho2)
    assert np.array_equal(data1.sigma, data2.sigma)


def test_schema_error_pointers(tmp_path):
    doc = graph_to_dict(zd_lattice(1))
    bad = json.loads(json.dumps(doc))
    del bad["edges"][0]["p"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SchemaError) as err:
        ingest_graph(path)
    assert err.value.pointer == "/edges/0/p"

    bad = json.loads(json.dumps(doc))
    bad["algebra"]["layer_dims"] = [0]
    path.write_text(json.dumps(bad))
    with pytest.raises(SchemaError) as err:
        ingest_graph(path)
    assert err.value.pointer == "/algebra/layer_dims/0"


def test_missing_inverse_edge_is_involution_violation(tmp_path):
    doc = graph_to_dict(zd_lattice(1))
    doc["edges"][1]["inv"] = 1  # self-paired
    with pytest.raises(InvolutionViolation):
        graph_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvolutionViolation):
        load_graph(make_config(graph={"file": str(path)}))


def test_bad_bracket_table_raises_algebra_error():
    doc = graph_to_dict(zd_lattice(1))
    doc["algebra"] = {"layer_dims": [1], "brackets": [[0, 0, 0, 1.0]]}
    with pytest.raises(InvalidAlgebra):
        graph_from_dict(doc)


def test_preset_errors():
    with pytest.raises(SchemaError, match="/graph/preset"):
        load_graph(make_config(graph={"preset": "nope"}))
    with pytest.raises(SchemaError, match="/graph"):
        load_graph(make_config(graph={}))


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def test_run_albanese_outputs(tmp_path):
    cfg = make_config(graph={"preset": "zd_lattice", "params": {"d": 2}})
    metrics = run_albanese(cfg, tmp_path)
    assert np.allclose(metrics["sigma"], [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
    doc = json.loads((tmp_path / "albanese.json").read_text())
    assert doc["sigma_inv"] == [[2.0, 0.0], [0.0, 2.0]]
    summary = json.loads((tmp_path / "albanese_summary.json").read_text())
    assert summary["config_hash"] == cfg.config_hash()
    assert "metrics" in summary


def test_summary_holds_hash_and_metrics_only(tmp_path, monkeypatch):
    def no_subprocess(*args, **kwargs):
        raise AssertionError("a runner started a subprocess")

    monkeypatch.setattr(subprocess, "run", no_subprocess)
    cfg = make_config(scaling={"kind": "power", "theta": 0.75}, n_grid=[100], delta=[1.0])
    metrics = run_mdp(cfg, tmp_path)
    summary = json.loads((tmp_path / "mdp_summary.json").read_text())
    assert summary == {"config_hash": cfg.config_hash(), "metrics": metrics}


def test_run_lln_median_decreases(tmp_path):
    cfg = make_config(
        graph={"preset": "z1_biased", "params": {"q": 0.75}},
        n_grid=[100, 1000, 10000], samples=200,
    )
    metrics = run_lln(cfg, tmp_path)
    med = metrics["median_error_by_n"]
    vals = [med[n] for n in (100, 1000, 10000)]
    assert sum(b < a for a, b in zip(vals, vals[1:])) >= 2
    text = (tmp_path / "lln.csv").read_text()
    assert text.splitlines()[0] == "n,err_q10,err_q50,err_q90"


def test_run_clt_small(tmp_path):
    cfg = make_config(n_grid=[500], samples=500)
    metrics = run_clt(cfg, tmp_path)
    assert metrics["max_deviation_in_se"] <= 4.0
    header = (tmp_path / "clt.csv").read_text().splitlines()[0]
    assert header == "n,est_0_0,se_0_0,ref_0_0"


def test_run_mdp_exact_and_mc(tmp_path):
    cfg = make_config(
        scaling={"kind": "power", "theta": 0.75},
        n_grid=[100, 400], delta=[1.0],
    )
    metrics = run_mdp(cfg, tmp_path / "exact")
    assert metrics["mode"] == "exact"
    lines = (tmp_path / "exact" / "mdp.csv").read_text().splitlines()
    assert lines[0] == "n,delta,tail,log_tail,rate,predicted_rate,mode"
    assert all(line.endswith("exact") for line in lines[1:])
    for line in lines[1:]:
        n, delta, tail, log_tail, rate, predicted = (float(x) for x in line.split(",")[:6])
        assert tail == math.exp(log_tail)
        a_n = n**0.75
        assert rate == n / (a_n * a_n) * log_tail
        assert predicted == -0.5 * delta * delta  # Z: sigma = 1

    cfg_mc = make_config(
        graph={"preset": "heisenberg_cayley"},
        scaling={"kind": "power", "theta": 0.75},
        n_grid=[100], delta=[0.5], samples=4000, mdp_mode="auto",
    )
    metrics = run_mdp(cfg_mc, tmp_path / "mc")
    assert metrics["mode"] == "mc"
    with pytest.raises(OracleUnavailable):
        run_mdp(
            make_config(graph={"preset": "heisenberg_cayley"},
                        scaling={"kind": "power", "theta": 0.75},
                        n_grid=[100], mdp_mode="exact"),
            tmp_path / "fail",
        )


def test_mdp_exact_vs_mc_agreement(tmp_path):
    # z1 SRW at n = 100: the exact tail sits within 3 standard errors of the
    # Monte Carlo estimate with 10^6 samples
    from nilwalk.lattice import ExactLatticeDistribution
    from nilwalk.walk import batch_centered_sums

    g = zd_lattice(1)
    meas, rho, phi0, data = albanese_pipeline(g)
    n, a_n = 100, 100 ** 0.75
    exact = math.exp(ExactLatticeDistribution.from_graph(g).log_tail_probability(n, a_n))
    sums = batch_centered_sums(g, phi0, rho, n, samples=1_000_000, seed=12)
    hits = np.abs(sums[:, 0]) >= a_n - 1e-9
    est = float(hits.mean())
    se = math.sqrt(est * (1.0 - est) / len(hits))
    assert abs(est - exact) <= 3.0 * se


def test_run_lil_small(tmp_path):
    cfg = make_config(
        scaling={"kind": "lil"},
        n_grid=[256, 512, 1024], trajectories=3,
        rate_knots=4, rate_restarts=2,
    )
    metrics = run_lil(cfg, tmp_path)
    assert len(metrics["sup_per_trajectory"]) == 3
    assert 0.0 <= metrics["fraction_rate_le_level"] <= 1.0
    assert metrics["fraction_half_rate_le_level"] >= metrics["fraction_rate_le_level"]
    lines = (tmp_path / "lil.csv").read_text().splitlines()
    assert lines[0] == "trajectory,n,coord_0,rate_bound,rate_method,constraint_violation"
    assert len(lines) == 1 + 3 * 3
    assert all(line.split(",")[-2:] == ["closed_form", "0"] for line in lines[1:])


def test_run_lil_rejects_bad_sup_range(tmp_path, monkeypatch):
    # checked before any walk: a range below the scaling domain would fail
    # inside the scan's worker, and an empty one would leave sup = -inf
    def no_walk(*args, **kwargs):
        raise AssertionError("walked before validating sup_range")

    monkeypatch.setattr("nilwalk.experiments.trajectory_scan", no_walk)
    for bad in ([1, 500], [500, 100], [2000, 4000], [100.5, 500], [100], 500, 0, [], "16,32"):
        cfg = make_config(scaling={"kind": "lil"}, n_grid=[256, 1024], sup_range=bad,
                          trajectories=1, rate_knots=4, rate_restarts=2)
        with pytest.raises(SchemaError, match="/sup_range"):
            run_lil(cfg, tmp_path)


def test_run_lil_requires_lil_scaling(tmp_path):
    cfg = make_config(scaling={"kind": "power", "theta": 0.75}, n_grid=[256])
    with pytest.raises(SchemaError, match="lil"):
        run_lil(cfg, tmp_path)


def test_run_rate_from_albanese_file(tmp_path):
    cfg = make_config(graph={"preset": "heisenberg_cayley"})
    run_albanese(cfg, tmp_path)
    rate_cfg = make_config(
        albanese_file=str(tmp_path / "albanese.json"),
        target=[1.0, 1.0, 0.0], rate_knots=8, rate_restarts=4,
    )
    result = run_rate(rate_cfg, tmp_path / "rate")
    assert abs(result["value"] - 2.0) <= 1e-4  # alpha_star((1,1)) with sigma = I/2
    doc = json.loads((tmp_path / "rate" / "rate.json").read_text())
    assert set(doc) == {"value", "constraint_violation", "knots", "restarts_used", "method"}
    assert doc["method"] == "closed_form"


def test_run_rate_needs_target(tmp_path):
    with pytest.raises(SchemaError, match="/target"):
        run_rate(make_config(), tmp_path)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_runners_byte_identical_across_worker_counts(tmp_path):
    configs = {
        "lln": make_config(graph={"preset": "hexagonal"}, n_grid=[64, 128], samples=96),
        "clt": make_config(n_grid=[128], samples=96),
        "mdp": make_config(graph={"preset": "heisenberg_cayley"},
                           scaling={"kind": "power", "theta": 0.75},
                           n_grid=[64], delta=[0.5], samples=96),
        "lil": make_config(scaling={"kind": "lil"}, n_grid=[64, 128],
                           trajectories=4, rate_knots=4, rate_restarts=2),
    }
    runners = {"lln": run_lln, "clt": run_clt, "mdp": run_mdp, "lil": run_lil}
    for name, cfg in configs.items():
        out1 = tmp_path / f"{name}_w1"
        out8 = tmp_path / f"{name}_w8"
        runners[name](cfg.override(workers=1), out1)
        runners[name](cfg.override(workers=8), out8)
        f1 = (out1 / f"{name}.csv").read_bytes()
        f8 = (out8 / f"{name}.csv").read_bytes()
        assert f1 == f8, name


def test_rerun_same_seed_byte_identical(tmp_path):
    cfg = make_config(n_grid=[128], samples=64)
    run_lln(cfg, tmp_path / "a")
    run_lln(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "lln.csv").read_bytes() == (tmp_path / "b" / "lln.csv").read_bytes()
    s1 = json.loads((tmp_path / "a" / "lln_summary.json").read_text())
    s2 = json.loads((tmp_path / "b" / "lln_summary.json").read_text())
    assert s1 == s2


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def test_summaries_are_strict_json(tmp_path):
    # Monte Carlo MDP with no hit has a -inf rate; a sup range below every grid
    # point leaves the LIL grid sup NaN
    power = {"kind": "power", "theta": 0.75}
    runs = [
        (run_albanese, make_config()),
        (run_lln, make_config(n_grid=[64], samples=16)),
        (run_clt, make_config(n_grid=[64], samples=16)),
        (run_mdp, make_config(graph={"preset": "heisenberg_cayley"}, scaling=power,
                              n_grid=[64], delta=[50.0], samples=16, mdp_mode="mc")),
        (run_lil, make_config(scaling={"kind": "lil"}, n_grid=[64, 128], sup_range=[16, 32],
                              trajectories=1, rate_knots=4, rate_restarts=2)),
        (run_rate, make_config(target=[1.0], rate_knots=4, rate_restarts=2)),
    ]
    for runner, cfg in runs:
        runner(cfg, tmp_path)
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 8
    docs = {f.name: json.loads(f.read_text(), parse_constant=_reject_constant) for f in files}
    assert docs["mdp_summary.json"]["metrics"]["rates"] == {"n=64,delta=50.0": "-inf"}
    assert docs["lil_summary.json"]["metrics"]["grid_sup_median"] == "nan"

    write_json(tmp_path / "tokens.json", {"a": np.array([np.inf, -np.inf, np.nan]), "b": math.inf,
                                          "c": np.float64(2.5)})
    doc = json.loads((tmp_path / "tokens.json").read_text(), parse_constant=_reject_constant)
    assert doc == {"a": ["inf", "-inf", "nan"], "b": "inf", "c": 2.5}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_albanese(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"graph": {"preset": "z1_biased", "params": {"q": 0.75}}}))
    runner = CliRunner()
    result = runner.invoke(
        cli_main, ["albanese", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "out" / "albanese.json").read_text())
    assert abs(doc["sigma"][0][0] - 0.75) <= 1e-12
    assert abs(doc["rho"][0] - 0.5) <= 1e-12


def test_cli_seed_override_changes_hash(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "graph": {"preset": "zd_lattice", "params": {"d": 1}},
        "n_grid": [64], "samples": 16, "seed": 1,
    }))
    runner = CliRunner()
    for seed, name in ((None, "a"), (2, "b")):
        args = ["lln", "--config", str(cfg_path), "--out", str(tmp_path / name)]
        if seed is not None:
            args += ["--seed", str(seed)]
        assert runner.invoke(cli_main, args).exit_code == 0
    ha = json.loads((tmp_path / "a" / "lln_summary.json").read_text())["config_hash"]
    hb = json.loads((tmp_path / "b" / "lln_summary.json").read_text())["config_hash"]
    assert ha != hb


def test_cli_lists_all_subcommands():
    runner = CliRunner()
    result = runner.invoke(cli_main, ["--help"])
    for name in ("albanese", "lln", "clt", "mdp", "lil", "rate"):
        assert name in result.output
