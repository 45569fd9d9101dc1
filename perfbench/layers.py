"""Where the tracer hooks into spikedcov, and the per-layer metrics it yields.

Layers are the spikedcov modules. Each function is wrapped where its
callers look it up: ``montecarlo`` and ``cli`` import most functions by
name, so their bindings are wrapped; ``centering``, ``mp`` and ``matio`` are
called through the module attribute; ``Stream`` methods are wrapped on the
class. LAPACK calls that ``montecarlo`` makes directly (the bulk SVD, the
batched concentration SVD) show up as ``montecarlo`` self time.

Amounts marked *computed* come from argument shapes, never from a
measurement: values drawn, GFLOP of the Gram product, MB of matrix payload.
"""

from __future__ import annotations

import inspect
import os

import numpy as np

from spikedcov import centering, cli, config, matio, model, montecarlo, mp, rng

MODULES = ("rng", "model", "eigen", "montecarlo", "centering", "mp", "eigvec", "matio", "cli", "config")

SUBCOMMANDS = {
    "generate": "cmd_generate",
    "eigs": "cmd_eigs",
    "clt": "cmd_clt",
    "eigvec": "cmd_eigvec",
    "mp": "cmd_mp_table",
    "check-identities": "cmd_check_identities",
    "concentration": "cmd_concentration",
}

MB = 1e6


def _values(args, kwargs, result):
    return float(result.size)


def _result_mb(args, kwargs, result):
    return result.size * 8 / MB


def _gram_gflop(args, kwargs, result):
    rows, cols = np.shape(args[0])
    return 2.0 * rows * rows * cols / 1e9


def _written_mb(args, kwargs, result):
    return np.size(args[1]) * 8 / MB


def _hashed_mb(args, kwargs, result):
    return os.path.getsize(args[1]) / MB


def _public_functions(module):
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


def instrument(tracer) -> None:
    """Wrap every traced spikedcov callable; ``tracer.unwrap_all`` undoes it."""
    w = tracer.wrap
    w(rng.Stream, "__init__", "rng.Stream.init")
    w(rng.Stream, "normals", "rng.Stream.normals", amount=_values)
    w(model, "sample_entry_matrix", "model.sample_entry_matrix", amount=_result_mb)
    mc = montecarlo
    w(mc, "sample_entry_matrix", "model.sample_entry_matrix", amount=_result_mb)
    w(mc, "check_separation", "model.check_separation")
    w(mc, "sample_covariance", "eigen.sample_covariance", amount=_gram_gflop)
    w(mc, "top_eigenpairs", "eigen.top_eigenpairs")
    w(mc, "top_eigenvalues", "eigen.top_eigenvalues")
    w(mc, "eigvec_statistic", "eigvec.eigvec_statistic")
    w(mc, "simulate_instance", "montecarlo.simulate_instance")
    # the replicate boundary: _replicate_value(config, r, x_shift) runs one
    # replicate on a pool thread and carries its index
    w(mc, "_replicate_value", "montecarlo.replicate", rep_arg=1)
    for name in _public_functions(centering):
        w(centering, name, f"centering.{name}")
    for name in _public_functions(mp):
        w(mp, name, f"mp.{name}")
    w(matio, "write_csv", "matio.write_csv", amount=_written_mb)
    w(matio, "write_binary", "matio.write_binary", amount=_written_mb)
    w(matio, "read_csv", "matio.read_csv", amount=_result_mb)
    w(matio, "read_binary", "matio.read_binary", amount=_result_mb)
    w(cli, "run_experiment", "montecarlo.run_experiment")
    w(cli, "concentration_sm_check", "montecarlo.concentration_sm_check")
    w(cli, "concentration_hw_check", "montecarlo.concentration_hw_check")
    w(cli, "generate_data", "model.generate_data")
    for name in ("sample_covariance", "sym_eigen", "block_decompose", "alignment", "verify_master_identities"):
        w(cli, name, f"eigen.{name}", amount=_gram_gflop if name == "sample_covariance" else None)
    w(cli, "build_experiment", "config.build_experiment")
    w(config, "build_spec", "config.build_spec")
    w(cli, "build_spec", "config.build_spec")
    w(cli.Manifest, "add", "cli.Manifest.add", amount=_hashed_mb)
    for sub, fn in SUBCOMMANDS.items():
        w(cli, fn, f"cli.{sub}")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def per_layer(stats, run: dict) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    ``stats`` is the SpanStats of the traced passes; ``run`` carries what
    the worker measured around them: traced cycles, traced and untraced
    wall, replicate-pool workers, the serial baseline, flagged replicates.
    Calls, busy and self times and amounts are per traced cycle, so that
    they do not grow when a faster program fits more cycles into a run.
    """
    busy, self_t, calls, amount = stats.busy, stats.self_time, stats.calls, stats.amount
    cycles = run["cycles"]
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def per_cycle(name, value, unit):
        put(name, value / cycles, unit + "/cycle")

    put("trace.cycles", cycles, "count")
    per_cycle("rng.Stream.normals.busy_s", busy["rng.Stream.normals"], "s")
    per_cycle("rng.Stream.normals.values", amount["rng.Stream.normals"], "count")
    put("rng.Stream.normals.ns_per_value",
        _ratio(busy["rng.Stream.normals"] * 1e9, amount["rng.Stream.normals"]), "ns")
    per_cycle("rng.Stream.init.calls", calls["rng.Stream.init"], "count")
    per_cycle("rng.Stream.init.busy_s", busy["rng.Stream.init"], "s")

    per_cycle("model.sample_entry_matrix.busy_s", busy["model.sample_entry_matrix"], "s")
    per_cycle("model.sample_entry_matrix.self_s", self_t["model.sample_entry_matrix"], "s")
    per_cycle("model.sample_entry_matrix.mb", amount["model.sample_entry_matrix"], "MB")
    per_cycle("model.generate_data.busy_s", busy["model.generate_data"], "s")

    gram = "eigen.sample_covariance"
    per_cycle(f"{gram}.busy_s", busy[gram], "s")
    per_cycle(f"{gram}.gflop", amount[gram], "GFLOP")
    put(f"{gram}.gflop_per_s", _ratio(amount[gram], busy[gram]), "GFLOP/s")
    for fn in ("top_eigenvalues", "top_eigenpairs", "sym_eigen", "block_decompose"):
        per_cycle(f"eigen.{fn}.busy_s", busy[f"eigen.{fn}"], "s")

    sim = "montecarlo.simulate_instance"
    per_cycle(f"{sim}.calls", calls[sim], "count")
    per_cycle(f"{sim}.busy_s", busy[sim], "s")
    per_cycle(f"{sim}.self_s", self_t[sim], "s")
    reps_ms = [d * 1e3 for d in stats.durations["montecarlo.replicate"]]
    for q in (50, 95):
        put(f"montecarlo.replicate_ms.p{q}", np.percentile(reps_ms, q) if reps_ms else 0.0, "ms")
    put("montecarlo.replicate_ms.samples", len(reps_ms), "count")
    per_cycle("montecarlo.run_experiment.self_s", self_t["montecarlo.run_experiment"], "s")
    put("montecarlo.workers", run["workers"], "count")
    put("montecarlo.parallel_efficiency",
        _ratio(busy[sim], busy["montecarlo.run_experiment"] * run["workers"]), "ratio")
    put("montecarlo.serial_replicates_per_s", run["serial_replicates_per_s"], "1/s")
    put("montecarlo.flagged_fraction", _ratio(run["flagged"], run["replicates"]), "ratio")
    for kind in ("sm", "hw"):
        name = f"montecarlo.concentration_{kind}_check"
        per_cycle(f"{name}.self_s", self_t[name], "s")

    poly = "centering.polynomial_coefficients"
    per_cycle(f"{poly}.calls", calls[poly], "count")
    per_cycle(f"{poly}.busy_s", busy[poly], "s")
    per_cycle("centering.solve_x.busy_s", busy["centering.solve_x"], "s")
    per_cycle("centering.series_expansion_check.busy_s", busy["centering.series_expansion_check"], "s")

    per_cycle("mp.mp_stieltjes.calls", calls["mp.mp_stieltjes"], "count")
    per_cycle("mp.mp_stieltjes.busy_s", busy["mp.mp_stieltjes"], "s")
    per_cycle("eigvec.eigvec_statistic.calls", calls["eigvec.eigvec_statistic"], "count")
    per_cycle("eigvec.eigvec_statistic.busy_s", busy["eigvec.eigvec_statistic"], "s")

    for fn in ("write_csv", "read_csv", "write_binary", "read_binary"):
        name = f"matio.{fn}"
        per_cycle(f"{name}.busy_s", busy[name], "s")
        per_cycle(f"{name}.mb", amount[name], "MB")
        put(f"{name}.mb_per_s", _ratio(amount[name], busy[name]), "MB/s")

    for sub in SUBCOMMANDS:
        per_cycle(f"cli.{sub}.busy_s", busy[f"cli.{sub}"], "s")
        per_cycle(f"cli.{sub}.self_s", self_t[f"cli.{sub}"], "s")
    per_cycle("cli.Manifest.add.busy_s", busy["cli.Manifest.add"], "s")
    per_cycle("cli.Manifest.add.mb_hashed", amount["cli.Manifest.add"], "MB")
    per_cycle("config.build_experiment.busy_s", busy["config.build_experiment"], "s")

    by_module = stats.module_self()
    total = sum(by_module.values())
    for module in MODULES:
        put(f"{module}.self_share", _ratio(by_module[module], total), "ratio")

    put("trace.overhead", _ratio(run["traced_wall_s"], run["untraced_wall_s"]) - 1.0, "ratio")
    return m


def dominant_layer(stats) -> str:
    by_module = stats.module_self()
    return max(MODULES, key=lambda mod: by_module[mod])
