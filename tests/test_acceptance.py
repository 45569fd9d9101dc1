"""Acceptance suite: every exit criterion at its frozen tolerance.

Configurations and thresholds live in configs/acceptance.json (pilot-
calibrated, recorded with their pilot seeds); this module only loads,
runs and asserts. One PASS/FAIL line prints per criterion (run with -s
to see them live).
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from spikedcov.centering import (
    compose_O,
    iterate_x_expansion,
    polynomial_coefficients,
    series_expansion_check,
    solve_x,
)
from spikedcov.cores import fan_out
from spikedcov.eigen import alignment, block_decompose, sample_covariance, sym_eigen
from spikedcov.eigvec import chi_mixture_sample, ratio_coefficients
from spikedcov.model import SpikedModelSpec, generate_data
from spikedcov.montecarlo import (
    ExperimentConfig,
    concentration_hw_check,
    concentration_sm_check,
    consistency_report,
    ks_statistic,
    run_experiment,
)
from spikedcov.config import parse_law
from spikedcov.rng import Stream

from .oracles import ecdf, naive_abc, naive_compose_eval, naive_matrix_polynomial

ACC = json.loads((Path(__file__).resolve().parent.parent / "configs" / "acceptance.json").read_text())

WORKERS = 2


def _report(criterion, ok, detail):
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def _spec(block):
    return SpikedModelSpec(
        n=block["n"], N=block["N"], M=block["M"],
        spikes=block["spike_rules"], law=parse_law(block.get("law", "gaussian")),
    )


# --- criterion 1: exact-identity suite -------------------------------------

@pytest.fixture(scope="module")
def identity_suite():
    cfg = ACC["identity_suite"]
    spec = _spec(cfg)
    worst = {"r3": 0.0, "r4": 0.0, "r5": 0.0, "entry": 0.0, "sigma3": 0.0}
    t0 = time.time()
    for i in range(cfg["instances"]):
        X, Z = generate_data(spec, cfg["seed_base"] + i)
        bd = block_decompose(Z, spec.spikes)
        eig = sym_eigen(sample_covariance(X))
        P = eig.vectors[:, : spec.M]
        worst["r3"] = max(worst["r3"], float(np.max(np.abs(P.T @ P - np.eye(spec.M)))))
        for nu in range(1, spec.M + 1):
            al = alignment(eig, None, spec.spikes, nu)
            from spikedcov.eigen import verify_master_identities

            ident = verify_master_identities(bd, al)
            worst["r4"] = max(worst["r4"], ident["r4"] / al.l_hat)
            worst["r5"] = max(worst["r5"], ident["r5"] / (1.0 + ident["R2_over_1mR2"]))
            sr = series_expansion_check(bd, al, spec.spikes, nu, J=cfg["series_terms"])
            worst["entry"] = max(worst["entry"], sr.entry_residual)
            worst["sigma3"] = max(worst["sigma3"], sr.sigma3_residual)
    worst["runtime"] = time.time() - t0
    return worst


def test_criterion_1_exact_identities(identity_suite):
    cfg = ACC["identity_suite"]
    w = identity_suite
    ok = (
        w["r3"] <= cfg["tol_orthonormality"]
        and w["r4"] <= cfg["tol_r4_rel"]
        and w["r5"] <= cfg["tol_r5_rel"]
        and w["entry"] <= cfg["tol_series"]
        and w["sigma3"] <= cfg["tol_series"]
        and w["runtime"] <= cfg["max_runtime_s"]
    )
    _report(
        1,
        ok,
        f"orthonormality {w['r3']:.2e}, r4 {w['r4']:.2e}, r5 {w['r5']:.2e}, "
        f"series {max(w['entry'], w['sigma3']):.2e}, runtime {w['runtime']:.0f}s",
    )


# --- criterion 2: Proposition 1/2 consistency -------------------------------

@pytest.fixture(scope="module")
def consistency_run():
    cfg = ACC["consistency"]
    spec = _spec(cfg)
    config = ExperimentConfig(
        spec=spec, nu=spec.M, replicates=cfg["replicates"],
        master_seed=cfg["master_seed"], statistic="consistency", workers=WORKERS,
    )
    t0 = time.time()
    rep = consistency_report(config)
    rep["runtime"] = time.time() - t0
    return rep


def test_criterion_2_consistency(consistency_run):
    cfg = ACC["consistency"]
    errs = consistency_run["median_max_ratio_error"]
    inners = consistency_run["median_inner_sq"]
    ok = (
        np.all(errs <= cfg["max_median_ratio_error"])
        and np.all(inners >= cfg["min_median_inner_sq"])
        and consistency_run["runtime"] <= cfg["max_runtime_s"]
    )
    _report(
        2,
        ok,
        f"median ratio errors {np.max(errs):.3f} (<= {cfg['max_median_ratio_error']}), "
        f"median inner^2 {np.min(inners):.3f} (>= {cfg['min_median_inner_sq']}), "
        f"runtime {consistency_run['runtime']:.0f}s",
    )


# --- criteria 3 and 4: oracle and statistical CLTs ---------------------------

@pytest.fixture(scope="module")
def oracle_clt_run():
    cfg = ACC["oracle_clt"]
    spec = _spec(cfg)
    config = ExperimentConfig(
        spec=spec, nu=cfg["nu"], replicates=cfg["replicates"],
        master_seed=cfg["master_seed"], statistic="clt_oracle",
        x_mode=cfg["x_mode"], workers=WORKERS,
    )
    t0 = time.time()
    rep = run_experiment(config)
    rep.extra["runtime"] = time.time() - t0
    return rep


def test_criterion_3_oracle_clt(oracle_clt_run):
    cfg = ACC["oracle_clt"]
    rep = oracle_clt_run
    lo, hi = cfg["variance_range"]
    ok = (
        rep.ks_normal <= cfg["max_ks"]
        and abs(rep.mean) <= cfg["max_abs_mean"]
        and lo <= rep.variance <= hi
        and rep.extra["runtime"] <= cfg["max_runtime_s"]
    )
    _report(
        3,
        ok,
        f"KS {rep.ks_normal:.4f} (<= {cfg['max_ks']}), mean {rep.mean:+.3f}, "
        f"variance {rep.variance:.3f}, runtime {rep.extra['runtime']:.0f}s",
    )


def test_criterion_4_statistical_clt():
    base = ACC["oracle_clt"]
    cfg = ACC["statistical_clt"]
    spec = _spec(base)
    config = ExperimentConfig(
        spec=spec, nu=base["nu"], replicates=base["replicates"],
        master_seed=cfg["master_seed"], statistic="clt_statistical", workers=WORKERS,
    )
    rep = run_experiment(config)
    ok = rep.ks_normal <= cfg["max_ks"] and rep.flagged == 0
    _report(4, ok, f"KS {rep.ks_normal:.4f} (<= {cfg['max_ks']}), flagged {rep.flagged}")


# --- criteria 5 and 6: polynomial machinery and leading term -----------------

def _polynomial_instances():
    cfg = ACC["polynomial"]
    n = cfg["n"]
    out = []
    for i in range(cfg["instances"]):
        M = cfg["spike_counts"][i % len(cfg["spike_counts"])]
        st = Stream(cfg["pilot_seed"], "poly-instance", i)
        ratios = cfg["ratio_low"] + (cfg["ratio_high"] - cfg["ratio_low"]) * st.uniforms(M - 1)
        spikes = np.concatenate([[1.0], np.cumprod(ratios)])[::-1] * n ** cfg["scale_rule_exponent"]
        nu = 1 + int(st.uniforms(()) * M)
        out.append((spikes, nu, M))
    return out


@pytest.fixture(scope="module")
def polynomial_results():
    cfg = ACC["polynomial"]
    n = cfg["n"]
    rows = []
    t0 = time.time()
    rng = np.random.default_rng(cfg["pilot_seed"])
    for spikes, nu, M in _polynomial_instances():
        coeffs = polynomial_coefficients(spikes, nu, n)
        x = solve_x(coeffs)
        O_bar, O_j = compose_O(coeffs.a, coeffs.b, coeffs.c, coeffs.s)
        powers = x ** np.arange(1, len(O_j) + 1)
        resid = abs(x - O_bar - float(np.sum(O_j * powers)))
        iter_err = abs(iterate_x_expansion(coeffs, cfg["k0"]) - x)
        # independent-oracle comparison on (a, b, c)
        na, nb, nc = naive_abc(
            naive_matrix_polynomial(spikes, nu, n, coeffs.s), spikes, nu, n
        )
        abc_gap = max(
            np.max(np.abs(coeffs.a - na)) / max(np.max(np.abs(na)), 1e-300),
            np.max(np.abs(coeffs.b - nb)) / max(np.max(np.abs(nb)), 1e-300),
            np.max(np.abs(coeffs.c - nc)) / max(np.max(np.abs(nc)), 1e-300),
        )
        # compose evaluation oracle at random points
        compose_gap = 0.0
        for z in rng.uniform(-0.1, 0.1, size=5):
            direct = naive_compose_eval(coeffs.a, coeffs.b, coeffs.c, coeffs.s, z)
            expanded = O_bar + float(np.sum(O_j * z ** np.arange(1, len(O_j) + 1)))
            compose_gap = max(
                compose_gap, abs(expanded - direct) / max(abs(direct), 1e-300)
            )
        mask = np.arange(M) != nu - 1
        lead = float(np.sum(spikes[mask] / (spikes[nu - 1] - spikes[mask])) / n)
        rows.append(
            {
                "M": M, "nu": nu, "x": x, "resid": resid, "iter_err": iter_err,
                "abc_gap": abc_gap, "compose_gap": compose_gap, "lead": lead,
            }
        )
    return {"rows": rows, "runtime": time.time() - t0}


def test_criterion_5_polynomial_machinery(polynomial_results):
    cfg = ACC["polynomial"]
    n = cfg["n"]
    rows = polynomial_results["rows"]
    worst_resid = max(r["resid"] / (1.0 + abs(r["x"])) for r in rows)
    worst_iter = max(
        r["iter_err"] / (cfg["iter_bound_constant"] * (r["M"] / n) ** 4) for r in rows
    )
    worst_abc = max(r["abc_gap"] for r in rows)
    worst_compose = max(r["compose_gap"] for r in rows)
    ok = (
        worst_resid <= cfg["tol_solve_residual"]
        and worst_iter <= 1.0
        and worst_abc <= cfg["tol_abc_oracle_rel"]
        and worst_compose <= cfg["tol_compose_eval_rel"]
        and polynomial_results["runtime"] <= cfg["max_runtime_s"]
    )
    _report(
        5,
        ok,
        f"solve residual {worst_resid:.1e}, iterate bound ratio {worst_iter:.3f}, "
        f"abc oracle gap {worst_abc:.1e}, compose gap {worst_compose:.1e}, "
        f"runtime {polynomial_results['runtime']:.0f}s over {len(rows)} instances",
    )


def test_criterion_6_leading_term_sign(polynomial_results):
    cfg = ACC["polynomial"]
    c2 = ACC["leading_term"]["fitted_C2"]
    n = cfg["n"]
    rows = polynomial_results["rows"]
    worst = max(abs(r["x"] - r["lead"]) / (r["M"] / n) ** 2 for r in rows)
    ok = worst <= c2
    _report(
        6,
        ok,
        f"|x - leading term| <= {worst:.3f} (M/n)^2 across {len(rows)} instances "
        f"(frozen C2 = {c2}); resolved sign: {ACC['leading_term']['resolved_sign']}",
    )


# --- criterion 7: MP transform ----------------------------------------------

def test_criterion_7_mp_transform():
    from spikedcov.model import EntryLaw, sample_entry_matrix
    from spikedcov.mp import (
        MPParams,
        empirical_stieltjes,
        mp_quadratic_residual,
        mp_stieltjes,
        spike_forward_map,
    )

    cfg = ACC["mp_transform"]
    worst_quad = 0.0
    count = 0
    for gamma in (0.25, 0.5, 1.0, 2.0, 5.0):
        b = MPParams(gamma).edges[1]
        for z in np.linspace(b + 0.1, b + 40.0, cfg["grid_points"] // 5):
            worst_quad = max(worst_quad, abs(mp_quadratic_residual(z, gamma)))
            count += 1
    assert count == cfg["grid_points"]

    n, p = cfg["stieltjes_n"], cfg["stieltjes_bulk_dim"]
    gamma_n = p / n
    z = 2.0 * (1.0 + np.sqrt(gamma_n)) ** 2
    law = EntryLaw.gaussian()

    def gap(seed):
        # eigvalsh of (1/n) Z Z^T: the squared singular values of Z over n, without an SVD
        m_diag = np.linalg.eigvalsh(sample_covariance(sample_entry_matrix(p, n, law, seed)))
        return abs(empirical_stieltjes(m_diag, z, p + 4, 4) - mp_stieltjes(z, gamma_n))

    gaps = fan_out(gap, [cfg["stieltjes_seed_base"] + s for s in range(cfg["stieltjes_seeds"])])
    median_gap = float(np.median(gaps))

    worst_ident = 0.0
    pairs = [
        (g, l)
        for g in cfg["identity_pairs_gammas"]
        for l in cfg["identity_pairs_spikes"]
    ]
    assert len(pairs) == 20
    for gamma, l in pairs:
        lbar = spike_forward_map(l, gamma)
        rhs = l / ((l - 1.0) * lbar)
        worst_ident = max(worst_ident, abs(mp_stieltjes(lbar, gamma) - rhs) / abs(rhs))

    ok = (
        worst_quad <= cfg["tol_quadratic_residual"]
        and median_gap <= cfg["max_median_gap"]
        and worst_ident <= cfg["tol_identity_rel"]
    )
    _report(
        7,
        ok,
        f"quadratic residual {worst_quad:.1e}, median Stieltjes gap {median_gap:.4f} "
        f"(<= {cfg['max_median_gap']}), inversion identity {worst_ident:.1e}",
    )


# --- criterion 8: eigenvector theorems ---------------------------------------

@pytest.fixture(scope="module")
def eigvec_runs():
    cfg = ACC["eigvec"]
    t0 = time.time()
    out = {}

    a_cfg = cfg["regime_a"]
    spec_a = _spec(a_cfg)
    rep_a = run_experiment(
        ExperimentConfig(
            spec=spec_a, nu=a_cfg["nu"], replicates=a_cfg["replicates"],
            master_seed=a_cfg["master_seed"], statistic="eigvec_A", workers=WORKERS,
        )
    )
    out["median_abs_a"] = float(np.median(np.abs(rep_a.samples)))

    c_cfg = cfg["regime_c1"]
    spec_c = _spec(c_cfg)
    rep_c = run_experiment(
        ExperimentConfig(
            spec=spec_c, nu=c_cfg["nu"], replicates=c_cfg["replicates"],
            master_seed=c_cfg["master_seed"], statistic="eigvec_C1", workers=WORKERS,
        )
    )
    rc = ratio_coefficients(spec_c.spikes, c_cfg["nu"], c_cfg["n"], c_cfg["M"])
    mixture = chi_mixture_sample(rc.c, seed=c_cfg["mixture_seed"], size=c_cfg["mixture_samples"])
    out["ks_c1"] = ks_statistic(rep_c.samples, ecdf(mixture))

    t_cfg = cfg["empirical_trend"]
    gaps = []
    for n in t_cfg["sizes"]:
        spec_t = SpikedModelSpec(
            n=n, N=n // 2, M=t_cfg["M"], spikes=t_cfg["spike_rules"],
            law=parse_law("gaussian"),
        )
        runs = {}
        for empirical in (False, True):
            runs[empirical] = run_experiment(
                ExperimentConfig(
                    spec=spec_t, nu=t_cfg["nu"], replicates=t_cfg["replicates"],
                    master_seed=t_cfg["master_seed"], statistic="eigvec_A",
                    empirical=empirical, workers=WORKERS,
                )
            )
        gaps.append(float(np.median(np.abs(runs[True].samples - runs[False].samples))))
    out["trend_gaps"] = gaps
    out["runtime"] = time.time() - t0
    return out


def test_criterion_8_eigenvector_theorems(eigvec_runs):
    cfg = ACC["eigvec"]
    gaps = eigvec_runs["trend_gaps"]
    ok = (
        eigvec_runs["median_abs_a"] <= cfg["regime_a"]["max_median_abs"]
        and eigvec_runs["ks_c1"] <= cfg["regime_c1"]["max_ks"]
        and all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        and eigvec_runs["runtime"] <= cfg["max_runtime_s"]
    )
    _report(
        8,
        ok,
        f"th5(a) median |stat| {eigvec_runs['median_abs_a']:.4f} "
        f"(<= {cfg['regime_a']['max_median_abs']}), th5(c)(i) KS {eigvec_runs['ks_c1']:.4f} "
        f"(<= {cfg['regime_c1']['max_ks']}), th6 gaps {np.round(gaps, 4).tolist()} "
        f"non-increasing, runtime {eigvec_runs['runtime']:.0f}s",
    )


# --- criterion 9: concentration suite -----------------------------------------

def test_criterion_9_concentration():
    from spikedcov.model import EntryLaw

    cfg = ACC["concentration"]
    law = EntryLaw.gaussian()
    sm = concentration_sm_check(
        cfg["sm"]["p"], cfg["sm"]["q"], law, cfg["sm"]["t"],
        cfg["sm"]["replicates"], cfg["sm"]["seed"], C=cfg["sm"]["C"],
    )
    hw = concentration_hw_check(
        cfg["hw"]["p"], law, np.eye(cfg["hw"]["p"]),
        np.asarray(cfg["hw"]["t_grid"], dtype=float),
        cfg["hw"]["replicates"], cfg["hw"]["seed"],
    )
    bound = 2.0 * np.exp(-hw["c_hw"] * hw["shape"])
    dominated = bool(np.all(hw["tail_hw"] <= bound + 1e-12))
    ok = sm["violations"] <= cfg["sm"]["max_violations"] and hw["c_hw"] > 0.0 and dominated
    _report(
        9,
        ok,
        f"SM violations {sm['violations']} over {cfg['sm']['replicates']} reps, "
        f"HW fitted c {hw['c_hw']:.3f} > 0, tails dominated: {dominated}",
    )


# --- criterion 10: determinism -------------------------------------------------

def _digest_report(rep) -> str:
    h = hashlib.sha256()
    h.update(rep.samples.tobytes())
    h.update(json.dumps(rep.aggregate_record(), sort_keys=True).encode())
    for row in rep.rows:
        h.update(json.dumps(row, sort_keys=True).encode())
    return h.hexdigest()


def test_criterion_10_determinism():
    """Byte-identical reruns across every statistic code path.

    The cheap suites rerun at full scale; the heavy Monte Carlo configs
    rerun at reduced replicate counts through the identical code path
    (per-replicate streams are index-keyed, so the first k replicates of
    the full runs are exactly reproduced).
    """
    reduced = ACC["determinism"]["reduced_replicates"]
    digests = []
    for _ in range(2):
        h = hashlib.sha256()
        # identity suite slice, full precision
        cfg = ACC["identity_suite"]
        spec = _spec(cfg)
        for i in range(3):
            X, Z = generate_data(spec, cfg["seed_base"] + i)
            bd = block_decompose(Z, spec.spikes)
            eig = sym_eigen(sample_covariance(X))
            h.update(eig.values.tobytes())
            h.update(bd.M_diag.tobytes())
        # every simulated statistic at reduced replicates
        for block, stat, extra in (
            (ACC["oracle_clt"], "clt_oracle", {"x_mode": "zero"}),
            (ACC["oracle_clt"], "clt_statistical", {}),
            (ACC["oracle_clt"], "clt_mixed", {"x_mode": "root"}),
            (ACC["eigvec"]["regime_c1"], "eigvec_C1", {}),
            (ACC["eigvec"]["regime_a"], "eigvec_B", {"empirical": True}),
        ):
            spec_b = _spec(block)
            config = ExperimentConfig(
                spec=spec_b, nu=block.get("nu", spec_b.M), replicates=reduced,
                master_seed=block["master_seed"], statistic=stat,
                workers=WORKERS, **extra,
            )
            h.update(_digest_report(run_experiment(config)).encode())
        # consistency has its own harness: hash its per-replicate arrays
        block = ACC["consistency"]
        spec_b = _spec(block)
        cons = consistency_report(ExperimentConfig(
            spec=spec_b, nu=block.get("nu", spec_b.M), replicates=reduced,
            master_seed=block["master_seed"], statistic="consistency", workers=WORKERS,
        ))
        for key in ("max_ratio_error", "inner_sq", "median_max_ratio_error", "median_inner_sq"):
            h.update(cons[key].tobytes())
        h.update(json.dumps([cons["seeds"], cons["per_replicate_flags"], cons["flags"]]).encode())
        # polynomial pipeline
        for spikes, nu, M in _polynomial_instances()[:6]:
            coeffs = polynomial_coefficients(spikes, nu, ACC["polynomial"]["n"])
            O_bar, O_j = compose_O(coeffs.a, coeffs.b, coeffs.c, coeffs.s)
            h.update(np.asarray([O_bar]).tobytes())
            h.update(O_j.tobytes())
            h.update(np.asarray([solve_x(coeffs)]).tobytes())
        # concentration checks at reduced reps
        from spikedcov.model import EntryLaw

        law = EntryLaw.gaussian()
        sm = concentration_sm_check(50, 10, law, 3.0, 100, seed=ACC["concentration"]["sm"]["seed"])
        h.update(json.dumps(sm, sort_keys=True).encode())
        hw = concentration_hw_check(40, law, np.eye(40), [5.0, 10.0], 2000,
                                    seed=ACC["concentration"]["hw"]["seed"])
        h.update(hw["samples_hw"].tobytes())
        digests.append(h.hexdigest())
    ok = digests[0] == digests[1]
    _report(10, ok, f"two-run digest {digests[0][:16]}... {'==' if ok else '!='} {digests[1][:16]}...")
