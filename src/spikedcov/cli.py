"""Batch command-line surface.

Subcommands: generate | eigs | clt | eigvec | mp | check-identities |
consistency | concentration. Every run writes a manifest listing each
output file with its SHA-256 hash, so a run is reproducible from
(config, seed, version).

Exit codes: 0 success, 2 config error, 3 numeric precondition,
4 tolerance failure, 5 IO or resource error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, centering, matio, mp
from .config import build_experiment, build_spec, load_config, parse_law
from .eigen import alignment, block_decompose, sample_covariance, sym_eigen, verify_master_identities
from .errors import ConfigInvalid, NumericPrecondition, SpikedCovError
from .model import generate_data
from .montecarlo import (
    STATISTIC_FAMILIES,
    concentration_hw_check,
    concentration_sm_check,
    consistency_report,
    run_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_TOLERANCE = 4
EXIT_IO = 5


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _replace(path, write, *args) -> None:
    """``write(path + ".tmp", *args)``, then rename: ``path`` is whole or untouched."""
    tmp = path + ".tmp"
    write(tmp, *args)
    os.replace(tmp, path)


#: Every file name a command writes into its output directory.
OUTPUT_NAMES = (
    "X.csv", "X.bin", "Z.csv", "Z.bin", "eigenvalues.csv", "eigenvectors.bin",
    "report.json", "samples.jsonl", "samples.csv", "consistency.json",
    "concentration_sm.json", "concentration_hw.json", "manifest.json",
)


class Manifest:
    """The one writer of an output directory: each file whole, the manifest last.

    A run that dies midway leaves no manifest, never one that lists a file
    it had not finished. A new job first removes the old manifest and the
    ``name.tmp`` a killed run may have left for any name in OUTPUT_NAMES.
    """

    def __init__(self, config_path, out_dir, master_seed):
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, "manifest.json")
        for path in [self.path] + [os.path.join(out_dir, name + ".tmp") for name in OUTPUT_NAMES]:
            if os.path.lexists(path):
                os.remove(path)
        self.record = {
            "tool": "spikedcov",
            "version": __version__,
            "config": str(config_path) if config_path else None,
            "output_dir": str(out_dir),
            "master_seed": master_seed,
            "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "files": {},
        }
        self.out_dir = out_dir

    def save(self, name, write, *args) -> None:
        if name not in OUTPUT_NAMES:
            raise ValueError(f"{name!r} is not in OUTPUT_NAMES")
        path = os.path.join(self.out_dir, name)
        _replace(path, write, *args)
        self.add(path)

    def add(self, path) -> None:
        rel = os.path.relpath(path, self.out_dir)
        self.record["files"][rel] = _sha256(path)

    def write(self) -> None:
        self.record["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        _replace(self.path, _write_json, self.record)


def _null_nan(value):
    """``value`` with every NaN as None: a statistic with no value is JSON ``null``."""
    if isinstance(value, dict):
        return {k: _null_nan(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nan(v) for v in value]
    return None if isinstance(value, float) and math.isnan(value) else value


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _write_json(path, record) -> None:
    _write_lines(path, [json.dumps(_null_nan(record), indent=2, sort_keys=True)])


def _require_positive(**values) -> None:
    """Config error unless every flag value is finite and > 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ConfigInvalid(f"--{name.replace('_', '-')} must be finite and > 0, got {value}")


def _file_int(parser, key) -> int:
    """``[experiment] key`` of a config file as an integer; 0 when absent or empty."""
    sec = parser["experiment"] if "experiment" in parser else {}
    if not sec.get(key):
        return 0
    try:
        return int(sec[key])
    except ValueError:
        raise ConfigInvalid(f"[experiment] {key} = {sec[key]!r} is not an integer") from None


def _instance(args):
    """Config file, model spec and seed (flag > file > 0) of a one-instance command."""
    parser = load_config(args.config)
    spec = build_spec(parser)
    seed = args.seed if args.seed is not None else _file_int(parser, "master_seed")
    return parser, spec, seed


def _experiment(args, command: str, **overrides):
    """The job's config; its statistic must be in the command's family."""
    config = build_experiment(
        load_config(args.config),
        replicates=args.replicates,
        master_seed=args.seed,
        workers=args.threads,
        **overrides,
    )
    family = STATISTIC_FAMILIES[command]
    if config.statistic not in family:
        raise ConfigInvalid(
            f"statistic {config.statistic!r} is not a {command} statistic: "
            f"want one of {', '.join(family)}"
        )
    return config


def _run_experiment_job(args, config) -> int:
    """Run a clt/eigvec experiment; write its report, samples and manifest."""
    report = run_experiment(config)
    manifest = Manifest(args.config, args.out, config.master_seed)
    manifest.save("report.json", _write_json, report.aggregate_record(config))
    rows = [json.dumps(_null_nan(row), sort_keys=True) for row in report.rows]
    manifest.save("samples.jsonl", _write_lines, rows)
    manifest.save("samples.csv", _write_lines, ["value", *("%.17g" % v for v in report.samples)])
    manifest.write()
    return EXIT_OK


def cmd_generate(args) -> int:
    _, spec, seed = _instance(args)
    X, Z = generate_data(spec, seed)
    manifest = Manifest(args.config, args.out, seed)
    for name, mat in (("X", X),) + ((("Z", Z),) if args.with_z else ()):
        manifest.save(f"{name}.csv", matio.write_csv, mat)
        manifest.save(f"{name}.bin", matio.write_binary, mat)
    manifest.write()
    return EXIT_OK


def cmd_eigs(args) -> int:
    _, spec, seed = _instance(args)
    X, _ = generate_data(spec, seed)
    eig = sym_eigen(sample_covariance(X))
    manifest = Manifest(args.config, args.out, seed)
    manifest.save("eigenvalues.csv", matio.write_csv, eig.values[np.newaxis, :])
    manifest.save("eigenvectors.bin", matio.write_binary, eig.vectors)
    manifest.write()
    return EXIT_OK


def cmd_clt(args) -> int:
    statistic = f"clt_{args.mode}" if args.mode else None
    config = _experiment(args, "clt", statistic=statistic, x_mode=args.x_mode)
    return _run_experiment_job(args, config)


def cmd_eigvec(args) -> int:
    statistic = f"eigvec_{args.variant}" if args.variant else None
    config = _experiment(args, "eigvec", statistic=statistic, empirical=args.empirical or None)
    return _run_experiment_job(args, config)


def cmd_mp_table(args) -> int:
    _require_positive(gamma=args.gamma)
    try:
        start, stop, count = args.z_grid.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigInvalid(f"bad --z-grid {args.z_grid!r}: want start:stop:count") from exc
    if not (math.isfinite(start) and math.isfinite(stop) and count >= 1):
        raise ConfigInvalid(
            f"bad --z-grid {args.z_grid!r}: want finite start and stop and a count >= 1"
        )
    lines = ["z,m,quadratic_residual,error"]
    for z in np.linspace(start, stop, count):
        try:
            m = mp.mp_stieltjes(z, args.gamma)
            res = mp.mp_quadratic_residual(z, args.gamma)
            lines.append("%.17g,%.17g,%.17g," % (z, m, res))
        except NumericPrecondition as exc:
            lines.append("%.17g,,,%s" % (z, type(exc).__name__))
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    _replace(args.out, _write_lines, lines)
    return EXIT_OK


def cmd_check_identities(args) -> int:
    parser, spec, seed = _instance(args)
    nu = args.nu if args.nu is not None else _file_int(parser, "nu")
    _, Z = generate_data(spec, seed)
    bd = block_decompose(Z, spec.spikes)
    # identity-frame covariance: the basis is rotated out so the A/B split is literal
    Y = Z.copy()
    Y[: spec.M, :] *= spec.sqrt_lambda()[:, np.newaxis]
    eig = sym_eigen(sample_covariance(Y))
    ortho = eig.vectors[:, : spec.M]
    r3 = float(np.max(np.abs(ortho.T @ ortho - np.eye(spec.M))))
    tol_scale = 1.0 if args.tol is None else args.tol / 1e-6
    failures = []
    if r3 > 1e-10 * tol_scale:
        failures.append(f"orthonormality residual {r3:.3e}")
    report = {"orthonormality": r3, "per_spike": [], "seed": seed}
    for v in range(1, spec.M + 1) if nu == 0 else [nu]:
        al = alignment(eig, None, spec.spikes, v)
        ident = verify_master_identities(bd, al)
        series = centering.series_expansion_check(bd, al, spec.spikes, v, J=args.series_terms)
        rec = {
            "nu": v,
            "r4": ident["r4"],
            "r5": ident["r5"],
            "series_entry": series.entry_residual,
            "series_sigma3": series.sigma3_residual,
        }
        report["per_spike"].append(rec)
        if ident["r4"] > 1e-6 * tol_scale * al.l_hat:
            failures.append(f"nu={v}: r4 = {ident['r4']:.3e}")
        if ident["r5"] > 1e-6 * tol_scale * (1.0 + ident["R2_over_1mR2"]):
            failures.append(f"nu={v}: r5 = {ident['r5']:.3e}")
        if series.entry_residual > 1e-6 * tol_scale:
            failures.append(f"nu={v}: series entry residual {series.entry_residual:.3e}")
        if series.sigma3_residual > 1e-6 * tol_scale:
            failures.append(f"nu={v}: series sigma3 residual {series.sigma3_residual:.3e}")
    print(json.dumps(report, indent=2, sort_keys=True))
    if failures:
        for f in failures:
            print(f"TOLERANCE: {f}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_consistency(args) -> int:
    config = _experiment(args, "consistency", statistic="consistency")
    rep = consistency_report(config)
    manifest = Manifest(args.config, args.out, config.master_seed)
    manifest.save("consistency.json", _write_json, {
        "median_max_ratio_error": rep["median_max_ratio_error"].tolist(),
        "median_inner_sq": rep["median_inner_sq"].tolist(),
        "flags": rep["flags"],
        "successes": rep["successes"],
        "flagged": rep["flagged"],
        "replicates": config.replicates,
        "master_seed": config.master_seed,
    })
    manifest.write()
    return EXIT_OK


def cmd_concentration(args) -> int:
    _require_positive(replicates=args.replicates, p=args.p)
    if args.kind == "sm":
        _require_positive(q=args.q)
        if args.q > args.p:
            raise ConfigInvalid(f"--q {args.q} > --p {args.p}: the band is stated for q <= p")
    else:
        _require_positive(t_count=args.t_count)
        if not (0 <= args.t_min < math.inf and 0 <= args.t_max < math.inf):
            raise ConfigInvalid(f"--t-min and --t-max must be finite and >= 0, got {args.t_min}, {args.t_max}")
    law = parse_law(args.law)
    if args.kind == "sm":
        out = concentration_sm_check(
            args.p, args.q, law, args.t, args.replicates, args.seed, C=args.constant
        )
    else:
        t_grid = np.linspace(args.t_min, args.t_max, args.t_count)
        rec = concentration_hw_check(
            args.p, law, None, t_grid, args.replicates, args.seed
        )
        out = {
            "t": rec["t"].tolist(),
            "tail_hw": rec["tail_hw"].tolist(),
            "tail_ahw": rec["tail_ahw"].tolist(),
            "shape": rec["shape"].tolist(),
            "c_hw": rec["c_hw"],
            "c_ahw": rec["c_ahw"],
            "reps": rec["reps"],
        }
    manifest = Manifest(None, args.out, args.seed)
    manifest.save(f"concentration_{args.kind}.json", _write_json, out)
    manifest.write()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spikedcov", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)

    def experiment(p):
        common(p)
        p.add_argument("--replicates", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)

    g = sub.add_parser("generate", help="write simulated data matrices")
    common(g)
    g.add_argument("--with-z", action="store_true")
    g.set_defaults(fn=cmd_generate)

    e = sub.add_parser("eigs", help="eigendecomposition of one instance")
    common(e)
    e.set_defaults(fn=cmd_eigs)

    c = sub.add_parser("clt", help="eigenvalue CLT experiment")
    experiment(c)
    c.add_argument("--mode", choices=["mixed", "statistical", "oracle"], default=None)
    c.add_argument("--x-mode", default=None, help="root | iter:<k0> | zero | auto")
    c.set_defaults(fn=cmd_clt)

    v = sub.add_parser("eigvec", help="eigenvector consistency experiment")
    experiment(v)
    v.add_argument("--variant", choices=["A", "B", "C1", "C2"], default=None)
    v.add_argument("--empirical", action="store_true")
    v.set_defaults(fn=cmd_eigvec)

    m = sub.add_parser("mp", help="tabulate the MP Stieltjes transform")
    m.add_argument("--gamma", type=float, required=True)
    m.add_argument("--z-grid", required=True, help="start:stop:count")
    m.add_argument("--out", required=True)
    m.set_defaults(fn=cmd_mp_table)

    k = sub.add_parser("check-identities", help="deterministic identity suite")
    k.add_argument("--config", required=True)
    k.add_argument("--seed", type=int, default=None)
    k.add_argument("--nu", type=int, default=None, help="spike index; 0 = all")
    k.add_argument("--tol", type=float, default=None, help="scales every tolerance")
    k.add_argument("--series-terms", type=int, default=30)
    k.set_defaults(fn=cmd_check_identities)

    s = sub.add_parser("consistency", help="eigenstructure consistency experiment")
    experiment(s)
    s.set_defaults(fn=cmd_consistency)

    z = sub.add_parser("concentration", help="empirical concentration checks")
    z.add_argument("--kind", choices=["sm", "hw"], required=True)
    z.add_argument("--out", required=True)
    z.add_argument("--law", default="gaussian")
    z.add_argument("--seed", type=int, default=0)
    z.add_argument("--replicates", type=int, default=1000)
    z.add_argument("--p", type=int, default=400)
    z.add_argument("--q", type=int, default=40)
    z.add_argument("--t", type=float, default=4.5)
    z.add_argument("--constant", type=float, default=2.0)
    z.add_argument("--t-min", type=float, default=5.0)
    z.add_argument("--t-max", type=float, default=60.0)
    z.add_argument("--t-count", type=int, default=12)
    z.set_defaults(fn=cmd_concentration)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericPrecondition as exc:
        print(f"numeric precondition failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_IO
    except SpikedCovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
