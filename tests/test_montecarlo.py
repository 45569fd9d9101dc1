import json
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import norm

from spikedcov import centering as ctr
from spikedcov import cores, montecarlo
from spikedcov.eigen import (
    alignment,
    block_decompose,
    sample_covariance,
    shifted_resolvent_diag,
    sym_eigen,
)
from spikedcov.eigvec import eigvec_statistic
from spikedcov.errors import ConfigInvalid, InvalidDims, NoConvergence
from spikedcov.model import EntryLaw, SpikedModelSpec, generate_data
from spikedcov.montecarlo import (
    ExperimentConfig,
    concentration_hw_check,
    concentration_sm_check,
    consistency_report,
    ks_statistic,
    run_experiment,
    simulate_instance,
)
from spikedcov.rng import Stream

from .oracles import ecdf, hw_unstreamed, sm_unstreamed


@pytest.fixture(scope="module")
def quick_spec(gaussian):
    n = 400
    spikes = (n**0.8) * np.array([4.0, 2.0, 1.0])
    return SpikedModelSpec(n=n, N=300, M=3, spikes=spikes, law=gaussian)


def quick_config(spec, **kw):
    defaults = dict(
        spec=spec, nu=1, replicates=8, master_seed=42,
        statistic="clt_oracle", x_mode="zero", workers=2,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestKsStatistic:
    def test_normal_quantiles(self):
        r = 100
        samples = norm.ppf((np.arange(1, r + 1) - 0.5) / r)
        assert ks_statistic(samples, norm.cdf) <= 0.005 + 1e-12

    def test_all_zero_samples(self):
        assert ks_statistic(np.zeros(50), norm.cdf) == pytest.approx(0.5)

    def test_uniform_against_normal_is_far(self):
        u = (np.arange(1, 201) - 0.5) / 200.0
        assert ks_statistic(u, norm.cdf) > 0.3

    def test_empty_raises(self):
        with pytest.raises(InvalidDims):
            ks_statistic([], norm.cdf)

    def test_monotone_relabel_invariance(self):
        samples = np.linspace(-2, 2, 41)
        d1 = ks_statistic(samples, norm.cdf)
        # push both sample and reference through Phi: KS is preserved
        d2 = ks_statistic(norm.cdf(samples), lambda t: np.clip(t, 0.0, 1.0))
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_normal_cdf_matches_scipy(self):
        grid = np.linspace(-40.0, 40.0, 200_001)
        got = montecarlo._normal_cdf(grid)
        np.testing.assert_allclose(got, norm.cdf(grid), rtol=0.0, atol=1e-15)
        assert got[0] == 0.0 and got[-1] == 1.0

    def test_two_sample_via_ecdf(self):
        a = np.linspace(0, 1, 500)
        b = np.linspace(0, 1, 500) ** 0.5
        d = ks_statistic(a, ecdf(b))
        assert 0.2 <= d <= 0.3  # sup |t - t^2| = 1/4 up to grid effects


class TestRunExperiment:
    def test_single_replicate(self, quick_spec):
        rep = run_experiment(quick_config(quick_spec, replicates=1))
        assert rep.successes == 1
        assert len(rep.per_replicate_flags) == 1
        assert rep.rows[0]["seed"] == quick_config(quick_spec).replicate_seed(0)

    def test_determinism(self, quick_spec):
        r1 = run_experiment(quick_config(quick_spec))
        r2 = run_experiment(quick_config(quick_spec))
        np.testing.assert_array_equal(r1.samples, r2.samples)
        assert r1.aggregate_record() == r2.aggregate_record()

    def test_worker_count_does_not_change_results(self, quick_spec):
        serial = run_experiment(quick_config(quick_spec, workers=1))
        threaded = run_experiment(quick_config(quick_spec, workers=2))
        np.testing.assert_array_equal(serial.samples, threaded.samples)

    def test_guard_accounting(self, quick_spec):
        rep = run_experiment(quick_config(quick_spec, statistic="clt_statistical"))
        assert rep.successes + rep.flagged == 8

    def test_rademacher_rejected_for_clt(self, quick_spec):
        law = EntryLaw.two_point(0.5)
        spec = SpikedModelSpec(
            n=quick_spec.n, N=quick_spec.N, M=3, spikes=quick_spec.spikes, law=law
        )
        with pytest.raises(ConfigInvalid):
            run_experiment(quick_config(spec))

    def test_rademacher_fine_for_eigvec(self, quick_spec):
        law = EntryLaw.two_point(0.5)
        spec = SpikedModelSpec(
            n=quick_spec.n, N=quick_spec.N, M=3, spikes=quick_spec.spikes, law=law
        )
        rep = run_experiment(quick_config(spec, statistic="eigvec_A"))
        assert rep.successes == 8

    def test_unseparated_config_flagged(self, gaussian):
        spec = SpikedModelSpec(n=200, N=150, M=2, spikes=[10.0, 9.5], law=gaussian)
        rep = run_experiment(quick_config(spec, statistic="eigvec_A", replicates=2))
        assert "not_separated" in rep.config_flags

    def test_eigvec_variants_all_run(self, quick_spec):
        for variant in ("eigvec_A", "eigvec_B", "eigvec_C1", "eigvec_C2"):
            rep = run_experiment(
                quick_config(quick_spec, statistic=variant, replicates=3)
            )
            assert rep.successes == 3
            assert np.all(np.isfinite(rep.samples))

    def test_empirical_variant_differs(self, quick_spec):
        det = run_experiment(quick_config(quick_spec, statistic="eigvec_A", replicates=4))
        emp = run_experiment(
            quick_config(quick_spec, statistic="eigvec_A", replicates=4, empirical=True)
        )
        assert not np.array_equal(det.samples, emp.samples)

    def test_invalid_statistic(self, quick_spec):
        with pytest.raises(ConfigInvalid):
            run_experiment(quick_config(quick_spec, statistic="nope"))

    @pytest.mark.parametrize("statistic", ["consistency", "concentration_sm", "concentration_hw"])
    def test_only_clt_and_eigvec_statistics(self, quick_spec, statistic):
        # consistency runs through consistency_report; concentration has its own checks
        with pytest.raises(ConfigInvalid):
            run_experiment(quick_config(quick_spec, statistic=statistic))


class TestConsistencyReport:
    def test_shapes_and_medians(self, quick_spec):
        cfg = quick_config(quick_spec, statistic="consistency", nu=3, replicates=6)
        rep = consistency_report(cfg)
        assert rep["median_max_ratio_error"].shape == (3,)
        assert rep["median_inner_sq"].shape == (3,)
        assert np.all(rep["median_inner_sq"] >= 0.8)
        assert np.all(np.diff(rep["median_max_ratio_error"]) >= -1e-12)

    def test_flat_spikes_flagged_not_asserted(self, gaussian):
        spec = SpikedModelSpec(n=100, N=80, M=2, spikes=[1.0, 1.0], law=gaussian)
        cfg = quick_config(spec, statistic="consistency", replicates=2)
        rep = consistency_report(cfg)
        assert "no_divergent_spike" in rep["flags"]

    def test_trend_over_sizes(self, gaussian):
        # 24 replicates: enough for the median ordering to be stable
        meds = []
        for n in (500, 1000, 2000):
            spikes = (n**0.8) * np.array([4.0, 2.0, 1.0])
            spec = SpikedModelSpec(n=n, N=n // 2, M=3, spikes=spikes, law=gaussian)
            cfg = quick_config(spec, statistic="consistency", nu=3, replicates=24)
            meds.append(consistency_report(cfg)["median_max_ratio_error"][2])
        assert meds[2] <= meds[0] + 1e-9


class TestReplicateOrderFreedom:
    def test_permuting_replicates_leaves_report_invariant(self, quick_spec):
        # derived seeds are order-free: running replicates {0..7} as two
        # half-ranges and merging by index reproduces the full run
        cfg = quick_config(quick_spec)
        full = run_experiment(cfg)
        parts = []
        for r in reversed(range(8)):
            one = ExperimentConfig(
                spec=quick_spec, nu=1, replicates=1, master_seed=42,
                statistic="clt_oracle", x_mode="zero", workers=1,
            )
            # replicate r of the full run equals replicate 0 of a run whose
            # derived seed is forced to match
            seed = cfg.replicate_seed(r)
            from spikedcov.montecarlo import simulate_instance

            inst = simulate_instance(quick_spec, seed, False, False)
            parts.append(inst.l_hat[0])
        parts = np.array(parts[::-1])
        from spikedcov.centering import clt_statistic_value, oracle_centering

        c = oracle_centering(quick_spec.spikes[0], quick_spec.N, quick_spec.M, quick_spec.n)
        vals = [
            clt_statistic_value(lh, quick_spec.spikes[0], c, quick_spec.law, quick_spec.n)
            for lh in parts
        ]
        np.testing.assert_allclose(full.samples, vals, rtol=0, atol=0)


class TestWorkerDefaults:
    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv("SPIKED_EIG_THREADS", "3")
        assert cores.default_workers() == 3
        monkeypatch.delenv("SPIKED_EIG_THREADS")
        assert cores.default_workers() >= 1
        assert montecarlo.default_workers is cores.default_workers  # the name perfbench calls

    def test_affinity_mask_bounds_the_pool(self, monkeypatch):
        monkeypatch.delenv("SPIKED_EIG_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert cores.default_workers() == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("SPIKED_EIG_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cores.default_workers() == 3


@pytest.fixture
def blas_count_two():
    """numpy's OpenBLAS set to two threads for the test, then put back."""
    before = cores.blas_threads()
    if before is None:
        pytest.skip(cores.blas_unpinned_reason)
    set_threads = cores._blas_controls()[1]
    set_threads(2)
    yield
    set_threads(before)


class TestBlasGovernor:
    def test_replicates_run_on_one_blas_thread(self, blas_count_two):
        for workers in (1, 2):
            seen = cores.fan_out(lambda r: cores.blas_threads(), range(4), workers)
            assert seen == [1] * 4
            assert cores.blas_threads() == 2

    def test_nested_and_raising_blocks_restore_the_count(self, blas_count_two):
        with pytest.raises(RuntimeError):
            with cores.one_blas_thread():
                with cores.one_blas_thread():
                    assert cores.blas_threads() == 1
                assert cores.blas_threads() == 1
                raise RuntimeError("boom")
        assert cores.blas_threads() == 2

    def test_jobs_restore_the_count(self, quick_spec, blas_count_two):
        run_experiment(quick_config(quick_spec, replicates=2))
        assert cores.blas_threads() == 2
        consistency_report(quick_config(quick_spec, statistic="consistency", replicates=2))
        assert cores.blas_threads() == 2

    def test_fan_out_inside_a_replicate_runs_on_the_calling_thread(self, blas_count_two):
        def replicate(r):
            inner = cores.fan_out(lambda i: (threading.get_ident(), cores.blas_threads()), range(3), 2)
            return threading.get_ident(), inner

        for caller, inner in cores.fan_out(replicate, range(2), 2):
            assert inner == [(caller, 1)] * 3
        assert cores.blas_threads() == 2
        with cores.one_blas_thread():
            seen = cores.fan_out(lambda i: threading.get_ident(), range(3), 2)
        assert seen == [threading.get_ident()] * 3
        assert cores.blas_threads() == 2

    def test_concurrent_fan_outs_restore_the_count(self, blas_count_two):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(cores.fan_out, lambda i: cores.blas_threads(), range(3), 2)
                    for _ in range(64)
                ]
                seen = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert seen == [[1, 1, 1]] * 64
        assert cores._blas_depth == 0
        assert cores.blas_threads() == 2

    def test_without_openblas_the_governor_does_nothing(self, monkeypatch):
        monkeypatch.setattr(cores, "blas_unpinned_reason", None)
        monkeypatch.setattr(cores.ctypes, "CDLL", lambda path: object())
        assert cores._blas_controls.__wrapped__() == ()
        assert "OpenBLAS" in cores.blas_unpinned_reason
        monkeypatch.setattr(cores, "_blas_controls", lambda: ())
        with cores.one_blas_thread():
            assert cores.blas_threads() is None


class TestConcentrationSM:
    def test_scalar_case(self, gaussian):
        rec = concentration_sm_check(1, 1, gaussian, 3.0, 10_000, seed=2024, C=2.0)
        assert rec["rate"] <= 0.01

    def test_degenerate_band(self, gaussian):
        rec = concentration_sm_check(5, 2, gaussian, 0.0, 100, seed=1, C=0.0)
        assert rec["rate"] == 1.0

    def test_acceptance_scale_zero_violations(self, gaussian):
        rec = concentration_sm_check(400, 40, gaussian, 4.5, 200, seed=2024, C=2.0)
        assert rec["violations"] == 0

    @pytest.mark.parametrize("reps", [0, -1])
    def test_invalid_reps(self, gaussian, reps):
        with pytest.raises(InvalidDims):
            concentration_sm_check(5, 2, gaussian, 1.0, reps, seed=1)

    def test_determinism(self, gaussian):
        a = concentration_sm_check(20, 5, gaussian, 1.0, 500, seed=7)
        b = concentration_sm_check(20, 5, gaussian, 1.0, 500, seed=7)
        assert a == b

    LAWS = [EntryLaw.gaussian(), EntryLaw.uniform_scaled(), EntryLaw.two_point(0.05)]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("law", LAWS, ids=lambda law: law.label())
    def test_streamed_bit_identical_to_whole_draws(self, monkeypatch, law, threads):
        monkeypatch.setenv("SPIKED_EIG_THREADS", threads)
        # p q odd and even; blocks of 1 to 3 matrices: an odd chunk's sines
        # start mid-matrix, so its matrices are cut and put back together
        for p, q, per_block in ((3, 1, 1), (7, 3, 2), (4, 2, 3), (5, 2, 1)):
            monkeypatch.setattr(montecarlo, "_SM_BLOCK", per_block * p * q)
            for reps in (1, 2, 127, 128, 129, 255, 257):
                want = sm_unstreamed(p, q, law, reps, 21)
                got = montecarlo._sm_singular_values(p, q, law, reps, 21)
                for w, g in zip(want, got):
                    np.testing.assert_array_equal(g, w, err_msg=f"{p}x{q} {reps}")

    @pytest.mark.parametrize("reps", [129, 163])
    def test_default_block_bit_identical(self, gaussian, reps):
        # acceptance size, 16 matrices per block; the last chunk is odd: at
        # 163 its sines start mid-matrix, and two matrices are cut
        want = sm_unstreamed(400, 40, gaussian, reps, 22)
        got = montecarlo._sm_singular_values(400, 40, gaussian, reps, 22)
        for w, g in zip(want, got):
            np.testing.assert_array_equal(g, w)

    def test_memory_is_a_few_blocks(self, gaussian):
        tracemalloc.start()
        try:
            concentration_sm_check(400, 40, gaussian, 4.5, 1000, seed=2024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6  # one whole chunk of 128 matrices alone is 16.4 MB

    def test_band_needs_q_at_most_p(self, gaussian):
        with pytest.raises(InvalidDims):
            concentration_sm_check(10, 50, gaussian, 1.0, 10, seed=1)

    @pytest.mark.parametrize("t, C", [
        (np.nan, 2.0), (np.inf, 2.0), (-3.0, 2.0), (1.0, np.nan), (1.0, -1.0), (1.0, np.inf),
    ])
    def test_band_needs_finite_nonnegative_t_and_constant(self, gaussian, t, C):
        with pytest.raises(ConfigInvalid):
            concentration_sm_check(5, 2, gaussian, t, 10, seed=1, C=C)


class TestConcentrationHW:
    LAWS = [EntryLaw.gaussian(), EntryLaw.uniform_scaled(), EntryLaw.two_point(0.05)]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("law", LAWS, ids=lambda law: law.label())
    def test_streamed_bit_identical_to_whole_draws(self, monkeypatch, law, threads):
        monkeypatch.setenv("SPIKED_EIG_THREADS", threads)
        # blocks of 1 to 5 rows: rows cut by block edges, and sine segments
        # starting mid-row whenever reps * p / 2 is not a multiple of p
        monkeypatch.setattr(montecarlo, "_HW_BLOCK", 5)
        for p in (1, 2, 3, 7):
            for reps in (1, 2, 5, 8, 31):
                want = hw_unstreamed(p, law, None, [0.0], reps, 11)
                grid = np.unique(np.abs(np.concatenate([want["samples_hw"], want["cross"]])))
                want = hw_unstreamed(p, law, None, grid, reps, 11)
                got = concentration_hw_check(p, law, None, grid, reps, 11)
                for key in ("samples_hw", "tail_hw", "tail_ahw"):
                    np.testing.assert_array_equal(got[key], want[key], err_msg=f"{key} {p} {reps}")

    @pytest.mark.parametrize("reps", [40_000, 40_001])
    def test_default_block_bit_identical(self, gaussian, reps):
        # two blocks of the default size at p = 7
        grid = np.linspace(0.5, 20.0, 8)
        want = hw_unstreamed(7, gaussian, None, grid, reps, 12)
        got = concentration_hw_check(7, gaussian, None, grid, reps, 12)
        for key in ("samples_hw", "tail_hw", "tail_ahw"):
            np.testing.assert_array_equal(got[key], want[key])

    def test_dense_matrix_within_stated_tolerance(self, monkeypatch, gaussian):
        # y C by blocks of rows rounds differently from the whole product
        monkeypatch.setattr(montecarlo, "_HW_BLOCK", 40)
        p, reps = 13, 301
        C = Stream(13, "dense-C").normals((p, p))
        want = hw_unstreamed(p, gaussian, C, [1.0], reps, 13)
        got = concentration_hw_check(p, gaussian, C, [1.0], reps, 13)
        scale = np.max(np.abs(want["samples_hw"] + np.trace(C)))
        np.testing.assert_allclose(got["samples_hw"], want["samples_hw"], rtol=0,
                                   atol=1e-12 * scale)

    def test_memory_is_a_few_blocks(self, gaussian):
        tracemalloc.start()
        try:
            concentration_hw_check(100, gaussian, None, np.linspace(5.0, 60.0, 12), 100_000, 2024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6  # whole draws of y and y2 alone are 160 MB

    @pytest.mark.parametrize("p, reps", [(0, 10), (-1, 10), (5, 0), (5, -2)])
    def test_invalid_dims(self, gaussian, p, reps):
        with pytest.raises(InvalidDims):
            concentration_hw_check(p, gaussian, None, [1.0], reps, 1)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
    def test_grid_needs_finite_nonnegative_t(self, gaussian, t):
        with pytest.raises(ConfigInvalid):
            concentration_hw_check(5, gaussian, None, [1.0, t], 10, 1)

    def test_zero_matrix_tail(self, gaussian):
        rec = concentration_hw_check(10, gaussian, np.zeros((10, 10)), [0.5, 1.0], 2000, seed=3)
        assert not np.any(rec["tail_hw"])
        assert not np.any(rec["tail_ahw"])

    def test_identity_matches_chisquare(self, gaussian):
        from scipy.stats import chi2

        p, reps = 100, 100_000
        rec = concentration_hw_check(p, gaussian, np.eye(p), [30.0], reps, seed=5)
        exact = chi2(df=p).sf(p + 30.0) + chi2(df=p).cdf(p - 30.0)
        se = np.sqrt(exact * (1 - exact) / reps)
        assert abs(rec["tail_hw"][0] - exact) <= 3 * se

    def test_fitted_constant_positive_and_dominates(self, gaussian):
        p = 100
        grid = np.linspace(5.0, 60.0, 12)
        rec = concentration_hw_check(p, gaussian, np.eye(p), grid, 20_000, seed=6)
        assert rec["c_hw"] > 0.0
        assert rec["c_ahw"] > 0.0
        bound = 2.0 * np.exp(-rec["c_hw"] * rec["shape"])
        assert np.all(rec["tail_hw"] <= bound + 1e-12)

    def test_tail_log_linear_for_large_t(self, gaussian):
        # subexponential regime: log-tail roughly linear in t on the far grid
        p = 100
        grid = np.linspace(20.0, 70.0, 11)
        rec = concentration_hw_check(p, gaussian, np.eye(p), grid, 100_000, seed=8)
        mask = (rec["tail_hw"] > 1e-3) & (rec["tail_hw"] < 0.2)
        t = rec["t"][mask]
        log_tail = np.log(rec["tail_hw"][mask])
        slope, _ = np.polyfit(t, log_tail, 1)
        corr = np.corrcoef(t, log_tail)[0, 1]
        assert slope < 0.0
        assert corr < -0.97


DESK_SPIKES = (400**0.8) * np.array([8.0, 4.0, 2.0, 1.0])
KERNEL_SEEDS = 50
KERNEL_MASTER_SEED = 2027
# The kernel (Gram matrix, certified subspace iteration, the Cholesky bulk
# trace of S_BB) and the dense path (sym_eigen, block_decompose's SVD) round
# differently; measured gaps at desk size are below 3e-12 relative.
KERNEL_RTOL = 1e-9


@pytest.fixture(scope="module")
def desk_spec(gaussian):
    return SpikedModelSpec(n=400, N=300, M=4, spikes=DESK_SPIKES, law=gaussian)


@pytest.fixture(scope="module")
def dense_reference(desk_spec):
    """Per replicate r: (sym_eigen of S, block_decompose M_diag), dense path."""
    cfg = ExperimentConfig(
        spec=desk_spec, nu=1, replicates=KERNEL_SEEDS,
        master_seed=KERNEL_MASTER_SEED, statistic="consistency",
    )
    out = []
    for r in range(KERNEL_SEEDS):
        X, Z = generate_data(desk_spec, cfg.replicate_seed(r))
        out.append((sym_eigen(sample_covariance(X)), block_decompose(Z, desk_spec.spikes).M_diag))
    return out


def dense_value(spec, statistic, nu, eig, m_diag, x_shift):
    n, l_hat = spec.n, eig.values[: spec.M]
    if statistic.startswith("clt"):
        l_nu = spec.spikes[nu - 1]
        if statistic == "clt_oracle":
            c = (spec.N - spec.M) / (n * (l_nu - 1.0)) + x_shift
        else:
            c = np.sum(shifted_resolvent_diag(m_diag, l_hat[nu - 1])) / n
            if statistic == "clt_mixed":
                c += x_shift
            else:
                c += ctr.statistical_centering(l_hat, nu, n)
        return ctr.clt_statistic_value(l_hat[nu - 1], l_nu, c, spec.law, n)
    if statistic.startswith("eigvec"):
        al = alignment(eig, None, spec.spikes, nu)
        return eigvec_statistic(al, spec.spikes, nu, n, spec.N, spec.M, statistic[7:]).value
    return float(np.max(np.abs(l_hat[:nu] / spec.spikes[:nu] - 1.0)))


class TestKernelAgainstDenseReference:
    @pytest.mark.parametrize("statistic, nu", [
        ("clt_mixed", 1), ("clt_statistical", 2), ("clt_oracle", 3), ("eigvec_A", 2),
        ("eigvec_B", 4), ("eigvec_C1", 1), ("eigvec_C2", 3), ("consistency", 4),
    ])
    def test_statistic_matches_dense_path(self, desk_spec, dense_reference, statistic, nu):
        cfg = ExperimentConfig(
            spec=desk_spec, nu=nu, replicates=KERNEL_SEEDS, master_seed=KERNEL_MASTER_SEED,
            statistic=statistic, x_mode="root", workers=2,
        )
        if statistic == "consistency":
            rep = consistency_report(cfg)
            assert rep["flagged"] == 0
            got = rep["max_ratio_error"][:, nu - 1]
        else:
            rep = run_experiment(cfg)
            assert rep.flagged == 0
            got = rep.samples
        x_shift = ctr.deterministic_shift(desk_spec.spikes, nu, desk_spec.n, "root")
        want = [dense_value(desk_spec, statistic, nu, eig, m_diag, x_shift)
                for eig, m_diag in dense_reference]
        np.testing.assert_allclose(got, want, rtol=KERNEL_RTOL, atol=0.0)

    def test_instance_matches_dense_path(self, desk_spec, dense_reference):
        cfg = ExperimentConfig(
            spec=desk_spec, nu=1, replicates=KERNEL_SEEDS,
            master_seed=KERNEL_MASTER_SEED, statistic="consistency",
        )
        for r in range(0, KERNEL_SEEDS, 10):
            nu = 1 + r % 4
            inst = simulate_instance(desk_spec, cfg.replicate_seed(r), True, nu)
            eig, m_diag = dense_reference[r]
            np.testing.assert_allclose(inst.l_hat, eig.values[:4], rtol=KERNEL_RTOL)
            np.testing.assert_allclose(inst.vectors, eig.vectors[:, :4], atol=KERNEL_RTOL)
            want = np.sum(shifted_resolvent_diag(m_diag, eig.values[nu - 1]))
            assert inst.bulk_trace == pytest.approx(want, rel=KERNEL_RTOL, abs=0.0)


class TestReplicateFaults:
    """A kernel fault in one replicate is flagged; the job still completes."""

    BAD = 3

    def _poison(self, monkeypatch, spec, seed, error, solver="top_eigenvalues"):
        X, _ = generate_data(spec, seed)
        with cores.one_blas_thread():
            target = sample_covariance(X)
        real = getattr(montecarlo, solver)

        def flaky(S, m):
            if np.array_equal(S, target):
                raise error("injected fault")
            return real(S, m)

        monkeypatch.setattr(montecarlo, solver, flaky)

    @staticmethod
    def _write_quick_ini(tmp_path):
        ini = tmp_path / "q.ini"
        ini.write_text(
            "[model]\nn = 400\nN = 300\nM = 3\nspikes = 4*n^0.8, 2*n^0.8, 1*n^0.8\n"
            "[experiment]\nstatistic = clt_oracle\nreplicates = 6\nmaster_seed = 42\n"
            "x_mode = zero\n"
        )
        return str(ini)

    @pytest.mark.parametrize("error", [NoConvergence, np.linalg.LinAlgError])
    def test_fault_is_flagged_and_others_unchanged(self, monkeypatch, quick_spec, error):
        cfg = quick_config(quick_spec)
        clean = run_experiment(cfg)
        self._poison(monkeypatch, quick_spec, cfg.replicate_seed(self.BAD), error)
        rep = run_experiment(cfg)
        assert rep.successes + rep.flagged == cfg.replicates
        assert rep.flagged == 1
        assert rep.per_replicate_flags[self.BAD] == error.__name__
        assert rep.rows[self.BAD]["value"] is None
        keep = [r for r in range(cfg.replicates) if r != self.BAD]
        np.testing.assert_array_equal(rep.samples, clean.samples[keep])

    def test_cli_clt_exits_zero(self, monkeypatch, tmp_path, quick_spec):
        from spikedcov.cli import main

        ini = self._write_quick_ini(tmp_path)
        cfg = quick_config(quick_spec, replicates=6)
        self._poison(monkeypatch, quick_spec, cfg.replicate_seed(self.BAD), NoConvergence)
        assert main(["clt", "--config", ini, "--out", str(tmp_path / "o"), "--threads", "2"]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert (report["successes"], report["flagged"]) == (5, 1)

    def test_blas_count_restored_after_faults(self, monkeypatch, quick_spec, blas_count_two):
        cfg = quick_config(quick_spec)
        cons = quick_config(quick_spec, statistic="consistency", nu=3)
        self._poison(monkeypatch, quick_spec, cfg.replicate_seed(self.BAD), NoConvergence)
        assert run_experiment(cfg).flagged == 1
        assert cores.blas_threads() == 2
        self._poison(monkeypatch, quick_spec, cfg.replicate_seed(self.BAD), NoConvergence,
                     "top_eigenpairs")
        assert consistency_report(cons)["flagged"] == 1
        assert cores.blas_threads() == 2
        self._poison(monkeypatch, quick_spec, cfg.replicate_seed(self.BAD), RuntimeError)
        with pytest.raises(RuntimeError):
            run_experiment(cfg)
        assert cores.blas_threads() == 2

    @pytest.mark.parametrize("error", [NoConvergence, np.linalg.LinAlgError])
    def test_consistency_fault_is_flagged_and_others_unchanged(self, monkeypatch, quick_spec, error):
        cfg = quick_config(quick_spec, statistic="consistency", nu=3)
        clean = consistency_report(cfg)
        assert (clean["successes"], clean["flagged"]) == (cfg.replicates, 0)
        self._poison(monkeypatch, quick_spec, cfg.replicate_seed(self.BAD), error, "top_eigenpairs")
        rep = consistency_report(cfg)
        assert rep["successes"] + rep["flagged"] == cfg.replicates
        assert rep["flagged"] == 1
        assert rep["per_replicate_flags"][self.BAD] == error.__name__
        assert rep["per_replicate_flags"].count(None) == cfg.replicates - 1
        keep = [r for r in range(cfg.replicates) if r != self.BAD]
        for key, median in (("max_ratio_error", "median_max_ratio_error"),
                            ("inner_sq", "median_inner_sq")):
            assert np.all(np.isnan(rep[key][self.BAD]))
            np.testing.assert_array_equal(rep[key][keep], clean[key][keep])
            np.testing.assert_array_equal(rep[median], np.median(clean[key][keep], axis=0))

    def test_cli_consistency_exits_zero(self, monkeypatch, tmp_path, quick_spec):
        from spikedcov.cli import main

        ini = self._write_quick_ini(tmp_path)
        cfg = quick_config(quick_spec, replicates=6)
        self._poison(monkeypatch, quick_spec, cfg.replicate_seed(self.BAD), NoConvergence,
                     "top_eigenpairs")
        out = tmp_path / "o"
        assert main(["consistency", "--config", ini, "--out", str(out), "--threads", "2"]) == 0
        report = json.loads((out / "consistency.json").read_text())
        assert (report["successes"], report["flagged"], report["replicates"]) == (5, 1, 6)
        assert all(np.isfinite(report["median_inner_sq"]))
