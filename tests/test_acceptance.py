"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the statistical clauses
use fixed seeds and are deterministic.
"""

import time

import numpy as np

from nilwalk.albanese import albanese_pipeline
from nilwalk.algebra import (
    bch_product,
    dilate_vector,
    heisenberg_algebra,
    limit_product,
)
from nilwalk.experiments import (
    ExperimentConfig,
    run_albanese,
    run_clt,
    run_lil,
    run_lln,
    run_mdp,
)
from nilwalk.graph import (
    heisenberg_cayley,
    hexagonal,
    z1_biased,
    z1_subdivided,
    zd_lattice,
)
from nilwalk.rates import QuadraticForms, _optimize_endpoint_rate, alpha_star
from nilwalk.walk import clt_covariance_oracle

from conftest import grid_sup_conjugate, heisenberg_matrix_product_log


def _report(num: int, desc: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({elapsed:.1f}s): {desc}{detail}")
    assert ok, f"criterion {num} failed: {desc}{detail}"


def _cfg(**kw) -> ExperimentConfig:
    return ExperimentConfig.from_dict(kw)


def test_criterion_1_albanese_exactness(tmp_path):
    t0 = time.time()
    ok = True
    detail = []

    t = time.time()
    m = run_albanese(_cfg(graph={"preset": "zd_lattice", "params": {"d": 2}}), tmp_path / "zd2")
    ok &= np.abs(np.array(m["sigma"]) - 0.5 * np.eye(2)).max() <= 1e-12
    ok &= np.abs(np.array(m["rho"])).max() <= 1e-12
    ok &= (time.time() - t) < 1.0

    t = time.time()
    m = run_albanese(_cfg(graph={"preset": "z1_biased", "params": {"q": 0.75}}), tmp_path / "zb")
    ok &= abs(m["sigma"][0][0] - 0.75) <= 1e-12 and abs(m["rho"][0] - 0.5) <= 1e-12
    ok &= (time.time() - t) < 1.0

    t = time.time()
    m = run_albanese(_cfg(graph={"preset": "z1_subdivided"}), tmp_path / "zs")
    ok &= abs(m["sigma"][0][0] - 0.25) <= 1e-12
    ok &= (time.time() - t) < 1.0

    _report(1, "Albanese matrices and drift exact to 1e-12 on the closed-form presets",
            bool(ok), time.time() - t0)


def test_criterion_2_harmonicity():
    t0 = time.time()
    presets = [zd_lattice(2), z1_biased(0.75), hexagonal(), heisenberg_cayley(), z1_subdivided()]
    residuals = [albanese_pipeline(g)[3].residual for g in presets]
    elapsed = time.time() - t0
    ok = max(residuals) <= 1e-10 and elapsed < 1.0
    _report(2, "harmonic realization residual <= 1e-10 on all five presets",
            ok, elapsed, f" (max residual {max(residuals):.2e})")


def test_criterion_3_group_arithmetic_oracle():
    t0 = time.time()
    alg = heisenberg_algebra()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        a, b = rng.uniform(-2.0, 2.0, size=(2, 3))
        got = bch_product(alg, a, b)
        want = heisenberg_matrix_product_log(a, b)
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-12

    dil_worst = 0.0
    for _ in range(200):
        g, h = rng.uniform(-2.0, 2.0, size=(2, 3))
        eps, delta = rng.uniform(0.1, 2.0, size=2)
        semi = dilate_vector(alg, eps, dilate_vector(alg, delta, g)) - dilate_vector(alg, eps * delta, g)
        auto = dilate_vector(alg, eps, limit_product(alg, g, h)) - limit_product(
            alg, dilate_vector(alg, eps, g), dilate_vector(alg, eps, h)
        )
        dil_worst = max(dil_worst, float(np.abs(semi).max()), float(np.abs(auto).max()))
    ok &= dil_worst <= 1e-12
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report(3, "BCH matches the unipotent matrix oracle and dilation identities hold to 1e-12",
            bool(ok), elapsed, f" (worst BCH {worst:.2e}, worst dilation {dil_worst:.2e})")


def test_criterion_4_clt_covariance():
    t0 = time.time()
    ok = True
    details = []
    for g in (zd_lattice(2), z1_biased(0.75), heisenberg_cayley()):
        meas, rho, phi0, data = albanese_pipeline(g)
        est, se = clt_covariance_oracle(g, phi0, rho, n_steps=10_000, samples=10_000, seed=7)
        dev = np.abs(est - data.sigma) / np.maximum(se, 1e-15)
        details.append(float(dev.max()))
        ok &= bool(np.all(dev <= 3.0))
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    _report(4, "Monte Carlo covariance within 3 SE of the exact matrix at N = S = 10^4",
            bool(ok), elapsed, f" (max deviations {['%.2f' % d for d in details]})")


def test_criterion_5_mdp_decay(tmp_path):
    t0 = time.time()
    m1 = run_mdp(
        _cfg(graph={"preset": "zd_lattice", "params": {"d": 1}},
             scaling={"kind": "power", "theta": 0.75},
             n_grid=[100, 1000, 10000], delta=[1.0], mdp_mode="exact"),
        tmp_path / "z1",
    )
    r = {n: m1["rates"][f"n={n},delta=1.0"] for n in (100, 1000, 10000)}
    ok = abs(r[10000] + 0.5) <= 0.1 * 0.5
    ok &= abs(r[100] + 0.5) > abs(r[1000] + 0.5) > abs(r[10000] + 0.5)

    m2 = run_mdp(
        _cfg(graph={"preset": "zd_lattice", "params": {"d": 2}},
             scaling={"kind": "power", "theta": 0.75},
             n_grid=[10000], delta=[1.0, 2.0], mdp_mode="exact"),
        tmp_path / "z2",
    )
    for d in (1.0, 2.0):
        rate = m2["rates"][f"n=10000,delta={d}"]
        ok &= abs(rate + d * d) <= 0.15 * d * d
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    _report(5, "exact closed-form log tails reproduce the moderate-deviation decay "
            "(-1/2 and -delta^2 laws)",
            bool(ok), elapsed,
            f" (z1 r_1e4 {r[10000]:.4f}; z2 {m2['rates']})")


def test_criterion_6_rate_optimizer():
    t0 = time.time()
    alg = heisenberg_algebra()
    forms = QuadraticForms.from_sigma(0.5 * np.eye(2))
    rng = np.random.default_rng(11)
    gaps = []
    for _ in range(10):
        v = rng.uniform(-1.5, 1.5, size=2)
        target = np.array([v[0], v[1], 0.0])
        got = _optimize_endpoint_rate(alg, forms, target, knots=8, restarts=16, seed=7).value
        gaps.append(got - alpha_star(forms, v))
    ok = all(-1e-9 <= gap <= 1e-4 for gap in gaps)

    _, _, _, data = albanese_pipeline(zd_lattice(2))
    ab_forms = QuadraticForms.from_albanese(data)
    from nilwalk.algebra import abelian_algebra

    ab = abelian_algebra(2)
    ab_worst = 0.0
    for _ in range(5):
        v = rng.uniform(-2.0, 2.0, size=2)
        got = _optimize_endpoint_rate(ab, ab_forms, v, knots=8, restarts=8, seed=7).value
        ab_worst = max(ab_worst, abs(got - alpha_star(ab_forms, v)))
    ok &= ab_worst <= 1e-6
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    _report(6, "endpoint-rate bound attains the horizontal closed form (K=8, R=16)",
            bool(ok), elapsed,
            f" (gap range [{min(gaps):.2e}, {max(gaps):.2e}], abelian worst {ab_worst:.2e})")


def test_criterion_7_fenchel_duality():
    t0 = time.time()
    rng = np.random.default_rng(13)
    forms_list = []
    for g in (zd_lattice(2), z1_biased(0.75), heisenberg_cayley()):
        _, _, _, data = albanese_pipeline(g)
        forms_list.append(QuadraticForms.from_albanese(data))
    worst = 0.0
    count = 0
    while count < 100:
        forms = forms_list[count % len(forms_list)]
        chi_star = rng.uniform(-6.0, 6.0, size=forms.dim)
        lam = forms.sigma @ chi_star
        want = grid_sup_conjugate(forms.sigma, lam)
        worst = max(worst, abs(alpha_star(forms, lam) - want))
        count += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    _report(7, "conjugate form matches the brute-force grid supremum on 100 points",
            ok, elapsed, f" (worst gap {worst:.2e})")


def test_criterion_8_lil(tmp_path):
    t0 = time.time()
    grid = [1000 * 2**k for k in range(14)] + [10_000_000]

    z1 = run_lil(
        _cfg(graph={"preset": "zd_lattice", "params": {"d": 1}},
             scaling={"kind": "lil"}, n_grid=grid, trajectories=20, seed=7,
             rate_knots=4, rate_restarts=2, containment_level=1.0,
             containment_tol=0.1, sup_range=[1000, 10_000_000]),
        tmp_path / "z1",
    )
    # median over trajectories of the max of |S_n| / b_n over the recorded
    # grid; the containment fraction is evaluated for the walk normalized by
    # sqrt(2 n log log n), whose rate is exactly half the recorded bound, so
    # at b_n it tests the ball {I <= 2 (level + tol)}, more than twice the
    # theorem's ball {I <= 1}
    stat = z1["grid_sup_median"]
    ok = 1.0 <= stat <= 1.55
    ok &= z1["fraction_half_rate_le_level"] >= 0.99

    heis = run_lil(
        _cfg(graph={"preset": "heisenberg_cayley"},
             scaling={"kind": "lil"}, n_grid=grid, trajectories=20, seed=7,
             rate_knots=8, rate_restarts=6, containment_level=1.0,
             containment_tol=0.2, sup_range=[1000, 10_000_000]),
        tmp_path / "heis",
    )
    ok &= heis["fraction_half_rate_le_level"] >= 0.95
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _report(8, "iterated-logarithm scatter: sup statistic near sqrt(2), rate-ball containment",
            bool(ok), elapsed,
            f" (z1 stat {stat:.3f}, z1 containment {z1['fraction_half_rate_le_level']:.3f}, "
            f"heis containment {heis['fraction_half_rate_le_level']:.3f})")


def test_criterion_9_reproducibility(tmp_path):
    t0 = time.time()
    jobs = [
        ("albanese", run_albanese, _cfg(graph={"preset": "hexagonal"}), "albanese.json"),
        ("lln", run_lln,
         _cfg(graph={"preset": "z1_biased", "params": {"q": 0.75}}, n_grid=[64, 256], samples=128),
         "lln.csv"),
        ("clt", run_clt, _cfg(graph={"preset": "zd_lattice", "params": {"d": 2}},
                              n_grid=[128], samples=128), "clt.csv"),
        ("mdp", run_mdp, _cfg(graph={"preset": "heisenberg_cayley"},
                              scaling={"kind": "power", "theta": 0.75},
                              n_grid=[64], delta=[0.5], samples=128), "mdp.csv"),
        ("lil", run_lil, _cfg(graph={"preset": "zd_lattice", "params": {"d": 1}},
                              scaling={"kind": "lil"}, n_grid=[64, 128, 256],
                              trajectories=4, rate_knots=4, rate_restarts=2), "lil.csv"),
    ]
    ok = True
    for name, runner, cfg, artifact in jobs:
        runner(cfg.override(workers=1), tmp_path / f"{name}_w1")
        runner(cfg.override(workers=8), tmp_path / f"{name}_w8")
        b1 = (tmp_path / f"{name}_w1" / artifact).read_bytes()
        b8 = (tmp_path / f"{name}_w8" / artifact).read_bytes()
        ok &= b1 == b8
        # and a straight rerun with the same worker count is also identical
        runner(cfg.override(workers=1), tmp_path / f"{name}_w1_again")
        ok &= (tmp_path / f"{name}_w1_again" / artifact).read_bytes() == b1
    elapsed = time.time() - t0
    _report(9, "every experiment is byte-identical under 1 and 8 workers and on rerun",
            bool(ok), elapsed)
