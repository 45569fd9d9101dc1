"""The benchmark workloads: their CLI jobs and the checks on each output.

Every problem size comes from ``configs/*.ini`` or ``configs/acceptance.json``;
the workload seed only picks the seeds handed to the CLI. A workload is a
cycle of jobs repeated until the run's time is used up. Checks run after the
timed phase and are seed-agnostic: they hold for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from spikedcov import centering, cli, eigen, eigvec, matio, model
from spikedcov.config import build_experiment, build_spec, load_config

WORKLOADS = ("clt_bulk", "eigvec_large", "cli_batch")
MC_WORKLOADS = ("clt_bulk", "eigvec_large")

# Replicates per MC job: a multiple of the replicate pool on two cores, and
# about 1.6 s (clt_bulk) or 2.4 s (eigvec_large) per job on a 2-vCPU Xeon VM.
CLT_REPLICATES = 8
EIGVEC_REPLICATES = 2
WARMUP_REPLICATES = 2

# Relative tolerance of a replicate statistic against the dense reference
# path: BLAS threading and the partial (subset) eigensolver change last bits.
REFERENCE_RTOL = 1e-6


@dataclass
class Job:
    kind: str
    seed: int
    out: str
    argv: list | None = None  # None for the read-back job, which is not a CLI call
    replicates: int = 0  # Monte Carlo replicates; 0 for non-MC jobs
    config: str | None = None
    source: "Job | None" = None  # the generate job a read-back job reads
    rc: int | None = None
    result: dict = field(default_factory=dict)


class Context:
    """Paths and frozen acceptance settings of one checkout.

    ``work`` holds this process's job outputs. ``shared`` holds what the
    worker processes of one run share: the eigvec config and the reference
    values of checked replicates, which depend only on the job's inputs and
    so are computed once per run.
    """

    def __init__(self, root: str, work: str, shared: str | None = None):
        self.work = work
        shared = shared or work
        configs = os.path.join(root, "configs")
        self.clt_ini = os.path.join(configs, "clt_oracle_desk.ini")
        self.desk_ini = os.path.join(configs, "desk_standard.ini")
        with open(os.path.join(configs, "acceptance.json"), encoding="utf-8") as fh:
            self.acceptance = json.load(fh)
        self.eigvec_ini = os.path.join(shared, "eigvec_regime_a.ini")
        self._refs_path = os.path.join(shared, "references.json")
        self._refs = None

    def reference(self, key: str, compute) -> float:
        """``compute()``, kept on disk under ``key`` for the run's other workers."""
        if self._refs is None:
            try:
                with open(self._refs_path, encoding="utf-8") as fh:
                    self._refs = json.load(fh)
            except FileNotFoundError:
                self._refs = {}
        if key not in self._refs:
            self._refs[key] = compute()
            with open(self._refs_path, "w", encoding="utf-8") as fh:
                json.dump(self._refs, fh)
        return self._refs[key]

    def write_eigvec_config(self) -> None:
        """INI for acceptance ``eigvec.regime_a``, which no configs/*.ini holds."""
        a = self.acceptance["eigvec"]["regime_a"]
        text = (
            "[model]\n"
            f"n = {a['n']}\nN = {a['N']}\nM = {a['M']}\n"
            f"spikes = {', '.join(a['spike_rules'])}\n"
            f"law = {a['law']}\n\n"
            "[experiment]\n"
            "statistic = eigvec_B\n"
            f"nu = {a['nu']}\n"
        )
        with open(self.eigvec_ini, "w", encoding="ascii") as fh:
            fh.write(text)


def job_seed(seed: int, *labels) -> int:
    text = "|".join(str(v) for v in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "little") >> 1


def cycle(workload: str, ctx: Context, seed: int, label: str, out: str | None = None,
          warmup: bool = False) -> list[Job]:
    """One cycle of ``workload``'s jobs.

    ``label`` picks the cycle's CLI seeds, so equal labels give equal inputs;
    ``out`` is the prefix of its output paths, by default ``label`` in ``ctx.work``.
    """
    s = job_seed(seed, workload, label)
    out = out or os.path.join(ctx.work, label)
    if workload == "clt_bulk":
        reps = WARMUP_REPLICATES if warmup else CLT_REPLICATES
        argv = ["clt", "--config", ctx.clt_ini, "--mode", "mixed", "--x-mode", "root"]
        return [_mc_job("clt", argv, ctx.clt_ini, reps, s, out)]
    if workload == "eigvec_large":
        reps = WARMUP_REPLICATES if warmup else EIGVEC_REPLICATES
        argv = ["eigvec", "--config", ctx.eigvec_ini, "--variant", "B"]
        return [_mc_job("eigvec", argv, ctx.eigvec_ini, reps, s, out)]
    if workload == "cli_batch":
        return _concentration_jobs(ctx, s, out, warmup) + _io_jobs(ctx, s, out)
    raise ValueError(f"unknown workload {workload!r}")


def _concentration_jobs(ctx, s, out, warmup) -> list[Job]:
    acc = ctx.acceptance["concentration"]
    hw, sm = acc["hw"], acc["sm"]
    grid = hw["t_grid"]
    hw_reps = 1000 if warmup else hw["replicates"]
    sm_reps = 16 if warmup else sm["replicates"]
    return [
        Job("concentration-hw", s, out + "-hw", argv=[
            "concentration", "--kind", "hw", "--p", str(hw["p"]),
            "--replicates", str(hw_reps), "--t-min", str(grid[0]),
            "--t-max", str(grid[-1]), "--t-count", str(len(grid)),
            "--seed", str(s), "--out", out + "-hw"], replicates=hw_reps),
        Job("concentration-sm", s + 1, out + "-sm", argv=[
            "concentration", "--kind", "sm", "--p", str(sm["p"]), "--q", str(sm["q"]),
            "--t", str(sm["t"]), "--constant", str(sm["C"]),
            "--replicates", str(sm_reps), "--seed", str(s + 1), "--out", out + "-sm"],
            replicates=sm_reps),
    ]


def _io_jobs(ctx, s, out) -> list[Job]:
    gen = Job("generate", s, out + "-gen", config=ctx.clt_ini, argv=[
        "generate", "--config", ctx.clt_ini, "--with-z", "--seed", str(s),
        "--out", out + "-gen"])
    gammas = ctx.acceptance["mp_transform"]["identity_pairs_gammas"]
    gamma = gammas[s % len(gammas)]
    edge = (1.0 + math.sqrt(gamma)) ** 2
    points = ctx.acceptance["mp_transform"]["grid_points"]
    return [
        gen,
        Job("read", s, gen.out, source=gen),
        Job("eigs", s, out + "-eigs", config=ctx.desk_ini, argv=[
            "eigs", "--config", ctx.desk_ini, "--seed", str(s), "--out", out + "-eigs"]),
        Job("check-identities", s, out, argv=[
            "check-identities", "--config", ctx.desk_ini, "--nu", "0", "--seed", str(s)]),
        Job("mp", s, out + "-mp.csv", argv=[
            "mp", "--gamma", repr(gamma), "--z-grid", f"{edge * 1.01!r}:{edge * 10!r}:{points}",
            "--out", out + "-mp.csv"]),
    ]


def _mc_job(kind, argv, config, reps, seed, out) -> Job:
    argv = argv + ["--replicates", str(reps), "--seed", str(seed), "--out", out]
    return Job(kind, seed, out, argv=argv, replicates=reps, config=config)


def run_job(job: Job) -> int:
    """Run one job in-process; its console output is kept in ``job.result``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.argv is None:
                job.rc = _read_back(job)
            else:
                job.rc = cli.main(job.argv)
    except Exception:  # a crash is a failed job, not a failed benchmark
        job.rc = -1
        err.write(traceback.format_exc())
    job.result["stderr"] = err.getvalue()
    return job.rc


def _read_back(job: Job) -> int:
    # keep fingerprints, not the matrices, so that memory does not grow
    # with the number of cycles a run completes
    for name in ("X", "Z"):
        base = os.path.join(job.source.out, name)
        job.result[name + ".csv"] = fingerprint(matio.read_csv(base + ".csv"))
        job.result[name + ".bin"] = fingerprint(matio.read_binary(base + ".bin"))
    return 0


def fingerprint(a: np.ndarray) -> tuple:
    """Shape and SHA-256 of the little-endian float64 bytes: equal iff bit-equal."""
    return a.shape, hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").data).hexdigest()


# ---------------------------------------------------------------- checks


def check_job(job: Job, ctx: Context) -> list[str]:
    """Failed checks of one finished job, as messages; empty when all pass.

    For an MC job it also stores the replicates the harness flagged, read
    from report.json, as ``job.result["flagged"]``.
    """
    if job.rc != 0:
        return [f"{job.kind}: exit code {job.rc}: {job.result.get('stderr', '').strip()[-300:]}"]
    try:
        return _CHECKS[job.kind](job, ctx)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{job.kind}: unreadable output: {type(exc).__name__}: {exc}"]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _manifest(out: str, expected: tuple) -> list[str]:
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        files = json.load(fh)["files"]
    fails = [f"manifest lacks {name}" for name in expected if name not in files]
    for rel, digest in sorted(files.items()):
        if sha256_file(os.path.join(out, rel)) != digest:
            fails.append(f"hash mismatch: {rel}")
    return fails


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_RTOL * max(1.0, abs(b))


def reference_value(config, r: int) -> float:
    """Replicate ``r``'s statistic through the dense full-decomposition path."""
    spec = config.spec
    X, Z = model.generate_data(spec, config.replicate_seed(r))
    eig = eigen.sym_eigen(eigen.sample_covariance(X))
    al = eigen.alignment(eig, None, spec.spikes, config.nu)
    if config.statistic == "clt_mixed":
        bd = eigen.block_decompose(Z, spec.spikes)
        return centering.clt_statistics(
            bd, al, spec.spikes, spec.law, "mixed", x_mode=config.x_mode
        )
    variant = config.statistic.split("_", 1)[1]
    return eigvec.eigvec_statistic(
        al, spec.spikes, config.nu, spec.n, spec.N, spec.M, variant
    ).value


def _check_mc(job: Job, ctx: Context) -> list[str]:
    fails = _manifest(job.out, ("report.json", "samples.jsonl", "samples.csv"))
    with open(os.path.join(job.out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    job.result["flagged"] = report["flagged"]
    if report["successes"] + report["flagged"] != job.replicates:
        fails.append(
            f"successes {report['successes']} + flagged {report['flagged']} != {job.replicates}"
        )
    with open(os.path.join(job.out, "samples.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    if len(rows) != job.replicates:
        return fails + [f"samples.jsonl has {len(rows)} rows, want {job.replicates}"]
    config = build_experiment(
        load_config(job.config),
        statistic=report["statistic"],
        replicates=job.replicates,
        master_seed=job.seed,
        x_mode=report["x_mode"],
    )
    for r in sorted({0, job.replicates - 1}):
        row = rows[r]
        if row["replicate"] != r or row["seed"] != config.replicate_seed(r):
            fails.append(f"replicate {r}: row does not match its seed")
            continue
        if row["flag"] is not None:
            continue  # counted as a failure through report.json
        key = f"{job.kind}|{os.path.basename(job.config)}|{job.seed}|{r}"
        want = ctx.reference(key, lambda: reference_value(config, r))
        if not _close(row["value"], want):
            fails.append(f"replicate {r}: value {row['value']!r} != reference {want!r}")
    return fails


def _check_generate(job: Job, ctx: Context) -> list[str]:
    return _manifest(job.out, ("X.csv", "X.bin", "Z.csv", "Z.bin"))


def _check_read(job: Job, ctx: Context) -> list[str]:
    spec = build_spec(load_config(job.source.config))
    want = dict(zip(("X", "Z"), model.generate_data(spec, job.source.seed)))
    fails = []
    for name, ref in want.items():
        for fmt in ("csv", "bin"):
            if job.result[f"{name}.{fmt}"] != fingerprint(ref):
                fails.append(f"{name}.{fmt} differs from generate_data")
    return fails


def _check_eigs(job: Job, ctx: Context) -> list[str]:
    fails = _manifest(job.out, ("eigenvalues.csv", "eigenvectors.bin"))
    spec = build_spec(load_config(job.config))
    X, _ = model.generate_data(spec, job.seed)
    ref = eigen.sym_eigen(eigen.sample_covariance(X)).values
    got = matio.read_csv(os.path.join(job.out, "eigenvalues.csv"))[0]
    vectors = matio.read_binary(os.path.join(job.out, "eigenvectors.bin"))
    if got.shape != ref.shape or not np.allclose(got, ref, rtol=1e-10, atol=1e-12):
        fails.append("eigenvalues differ from the reference decomposition")
    if vectors.shape != (spec.N, spec.N):
        fails.append(f"eigenvectors.bin has shape {vectors.shape}")
    return fails


def _check_identities(job: Job, ctx: Context) -> list[str]:
    return []  # exit code 0 is the check; the command applies its own tolerances


def _check_mp(job: Job, ctx: Context) -> list[str]:
    gamma = float(job.argv[job.argv.index("--gamma") + 1])
    points = ctx.acceptance["mp_transform"]["grid_points"]
    with open(job.out, encoding="ascii") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    fails = [] if len(rows) == points else [f"mp table has {len(rows)} rows, want {points}"]
    for z_text, m_text, _, error in rows:
        if error:
            fails.append(f"mp: z = {z_text}: {error}")
            continue
        z, m = float(z_text), float(m_text)
        residual = gamma * z * m * m - m * (z + gamma - 1.0) + 1.0
        if not abs(residual) <= 1e-10:
            fails.append(f"mp: z = {z_text}: quadratic residual {residual:.3e}")
    return fails


def _check_concentration_hw(job: Job, ctx: Context) -> list[str]:
    fails = _manifest(job.out, ("concentration_hw.json",))
    with open(os.path.join(job.out, "concentration_hw.json"), encoding="utf-8") as fh:
        rec = json.load(fh)
    for key in ("c_hw", "c_ahw"):
        if not (math.isfinite(rec[key]) and rec[key] > 0.0):
            fails.append(f"{key} = {rec[key]!r} is not finite and positive")
    if rec["reps"] != job.replicates:
        fails.append(f"reps {rec['reps']} != {job.replicates}")
    return fails


def _check_concentration_sm(job: Job, ctx: Context) -> list[str]:
    fails = _manifest(job.out, ("concentration_sm.json",))
    with open(os.path.join(job.out, "concentration_sm.json"), encoding="utf-8") as fh:
        rec = json.load(fh)
    limit = ctx.acceptance["concentration"]["sm"]["max_violations"]
    if rec["violations"] > limit:
        fails.append(f"sm violations {rec['violations']} > {limit}")
    if rec["reps"] != job.replicates:
        fails.append(f"reps {rec['reps']} != {job.replicates}")
    return fails


_CHECKS = {
    "clt": _check_mc,
    "eigvec": _check_mc,
    "generate": _check_generate,
    "read": _check_read,
    "eigs": _check_eigs,
    "check-identities": _check_identities,
    "mp": _check_mp,
    "concentration-hw": _check_concentration_hw,
    "concentration-sm": _check_concentration_sm,
}
