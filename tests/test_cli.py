import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spikedcov
from spikedcov import cli, cores, matio, montecarlo
from spikedcov.cli import main
from spikedcov.errors import NoConvergence

CLT_ORACLE_DESK = Path(__file__).resolve().parent.parent / "configs" / "clt_oracle_desk.ini"

MINIMAL = """\
[model]
n = 10
N = 8
M = 1
spikes = 4
law = gaussian

[experiment]
master_seed = 5
nu = 1
"""

DESK = """\
[model]
n = 400
N = 300
M = 4
spikes = 8*n^0.8, 4*n^0.8, 2*n^0.8, 1*n^0.8
law = gaussian

[experiment]
statistic = clt_oracle
nu = 1
replicates = 6
master_seed = 20260810
x_mode = zero
eps0 = 0.5
"""

FLAT = """\
[model]
n = 60
N = 40
M = 2
spikes = 1, 1
law = gaussian

[experiment]
master_seed = 3
nu = 2
"""


@pytest.fixture
def desk_config(tmp_path):
    path = tmp_path / "desk.ini"
    path.write_text(DESK)
    return str(path)


class TestGenerate:
    def test_minimal_config_files_and_dims(self, tmp_path):
        cfg = tmp_path / "m.ini"
        cfg.write_text(MINIMAL)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg), "--out", str(out), "--with-z"]) == 0
        X = matio.read_csv(out / "X.csv")
        assert X.shape == (8, 10)
        assert matio.read_binary(out / "X.bin").shape == (8, 10)
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"X.csv", "X.bin", "Z.csv", "Z.bin"}

    def test_rerun_identical_hashes(self, tmp_path):
        cfg = tmp_path / "m.ini"
        cfg.write_text(MINIMAL)
        hashes = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
            hashes.append(json.loads((out / "manifest.json").read_text())["files"])
        assert hashes[0] == hashes[1]

    def test_malformed_config_names_offender(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[model]\nn = 10\nN = 8\nM = 1\nspikes = oops*q\nlaw = gaussian\n")
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "spike" in capsys.readouterr().err


class TestEigs:
    def test_eigendecomposition_outputs(self, tmp_path):
        cfg = tmp_path / "m.ini"
        cfg.write_text(MINIMAL)
        out = tmp_path / "eigs"
        assert main(["eigs", "--config", str(cfg), "--out", str(out)]) == 0
        values = matio.read_csv(out / "eigenvalues.csv")
        assert values.shape == (1, 8)
        assert np.all(np.diff(values[0]) <= 0)
        vectors = matio.read_binary(out / "eigenvectors.bin")
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(8), atol=1e-10)


class TestClt:
    def test_oracle_report_has_ks(self, tmp_path, desk_config):
        out = tmp_path / "clt"
        rc = main([
            "clt", "--config", desk_config, "--out", str(out),
            "--mode", "oracle", "--x-mode", "zero", "--threads", "2",
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert "ks_normal" in report and 0.0 <= report["ks_normal"] <= 1.0
        assert report["successes"] == 6

    def test_statistical_mode_rows(self, tmp_path, desk_config):
        out = tmp_path / "clt_stat"
        rc = main([
            "clt", "--config", desk_config, "--out", str(out),
            "--mode", "statistical", "--replicates", "4", "--threads", "2",
        ])
        assert rc == 0
        rows = [json.loads(l) for l in (out / "samples.jsonl").read_text().splitlines()]
        assert len(rows) == 4
        assert all(r["variant"] == "clt_statistical" for r in rows)

    def test_mixed_root_records_x_residual(self, tmp_path, desk_config):
        out = tmp_path / "clt_mixed"
        rc = main([
            "clt", "--config", desk_config, "--out", str(out),
            "--mode", "mixed", "--x-mode", "root", "--replicates", "3", "--threads", "2",
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["extra"]["x_residual"] <= 1e-13 * (1 + abs(report["extra"]["x"]))
        rows = [json.loads(l) for l in (out / "samples.jsonl").read_text().splitlines()]
        assert all("x_residual" in r for r in rows)

    def test_mixed_root_builds_coefficients_once(self, tmp_path, desk_config, monkeypatch):
        from spikedcov import centering

        calls = []
        real = centering.polynomial_coefficients

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(centering, "polynomial_coefficients", counting)
        out = tmp_path / "clt_once"
        rc = main([
            "clt", "--config", desk_config, "--out", str(out),
            "--mode", "mixed", "--x-mode", "root", "--replicates", "2", "--threads", "2",
        ])
        assert rc == 0
        assert len(calls) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["extra"]["x_mode"] == "root"

    def test_exit_zero_even_if_statistics_poor(self, tmp_path):
        # statistical outcome never drives the exit code
        cfg = tmp_path / "tiny.ini"
        cfg.write_text(DESK.replace("replicates = 6", "replicates = 2"))
        out = tmp_path / "o"
        assert main(["clt", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0


class TestEigvec:
    def test_variant_written(self, tmp_path, desk_config):
        out = tmp_path / "ev"
        rc = main([
            "eigvec", "--config", desk_config, "--out", str(out),
            "--variant", "A", "--replicates", "3", "--threads", "2",
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["statistic"] == "eigvec_A"


class TestMpTable:
    def test_edge_row_and_residuals(self, tmp_path):
        out = tmp_path / "mp.csv"
        rc = main(["mp", "--gamma", "1.0", "--z-grid", "4.0:10.0:4", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "z,m,quadratic_residual,error"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(0.5, abs=1e-12)
        assert abs(float(first[2])) <= 1e-12

    def test_inside_bulk_marker_continues(self, tmp_path):
        out = tmp_path / "mp2.csv"
        rc = main(["mp", "--gamma", "1.0", "--z-grid", "2.0:6.0:3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert "InsideBulk" in lines[1]
        assert lines[-1].split(",")[3] == ""

    def test_monotone_column(self, tmp_path):
        out = tmp_path / "mp3.csv"
        rc = main(["mp", "--gamma", "0.5", "--z-grid", "3.0:50.0:1000", "--out", str(out)])
        assert rc == 0
        ms = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
        assert len(ms) == 1000
        assert all(b < a for a, b in zip(ms, ms[1:]))


class TestCheckIdentities:
    def test_desk_config_passes(self, desk_config):
        assert main(["check-identities", "--config", desk_config, "--nu", "0"]) == 0

    def test_flat_spikes_numeric_precondition(self, tmp_path):
        cfg = tmp_path / "flat.ini"
        cfg.write_text(FLAT)
        rc = main(["check-identities", "--config", str(cfg), "--nu", "2"])
        assert rc == 3

    def test_zero_tolerance_fails(self, desk_config):
        assert main(["check-identities", "--config", desk_config, "--tol", "0"]) == 4


class TestConsistency:
    def test_report_written(self, tmp_path, desk_config):
        out = tmp_path / "cons"
        rc = main([
            "consistency", "--config", desk_config, "--out", str(out),
            "--replicates", "4", "--threads", "2",
        ])
        assert rc == 0
        rep = json.loads((out / "consistency.json").read_text())
        assert len(rep["median_inner_sq"]) == 4


class TestConcentration:
    def test_sm(self, tmp_path):
        out = tmp_path / "sm"
        rc = main([
            "concentration", "--kind", "sm", "--out", str(out),
            "--p", "50", "--q", "10", "--t", "3.0", "--replicates", "200",
        ])
        assert rc == 0
        rep = json.loads((out / "concentration_sm.json").read_text())
        assert rep["violations"] == 0

    def test_hw(self, tmp_path):
        out = tmp_path / "hw"
        rc = main([
            "concentration", "--kind", "hw", "--out", str(out),
            "--p", "40", "--replicates", "5000",
        ])
        assert rc == 0
        rep = json.loads((out / "concentration_hw.json").read_text())
        assert rep["c_hw"] > 0


class TestReproducibility:
    def test_clt_outputs_byte_identical(self, tmp_path, desk_config):
        digests = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main([
                "clt", "--config", desk_config, "--out", str(out),
                "--mode", "oracle", "--replicates", "4", "--threads", "2",
            ])
            digests.append(json.loads((out / "manifest.json").read_text())["files"])
        assert digests[0] == digests[1]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestStrictJson:
    """A statistic with no value is written as null, never as a bare NaN."""

    NO_SUCCESS = """\
[model]
n = 200
N = 100
M = 2
spikes = 1.2, 1.0
law = gaussian

[experiment]
nu = 2
"""

    def test_report_without_successes(self, tmp_path):
        cfg = tmp_path / "weak.ini"
        cfg.write_text(self.NO_SUCCESS)
        out = tmp_path / "o"
        rc = main(["clt", "--config", str(cfg), "--out", str(out), "--mode", "mixed",
                   "--x-mode", "zero", "--replicates", "1"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
        assert report["successes"] == 0
        assert [report[k] for k in ("ks_normal", "mean", "variance", "skewness", "kurtosis")] == [None] * 5
        for line in (out / "samples.jsonl").read_text().splitlines():
            json.loads(line, parse_constant=_reject_constant)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_consistency_with_every_replicate_flagged(self, tmp_path, desk_config, monkeypatch):
        def fault(S, m):
            raise NoConvergence("injected fault")

        monkeypatch.setattr(montecarlo, "top_eigenpairs", fault)
        out = tmp_path / "o"
        rc = main(["consistency", "--config", desk_config, "--out", str(out),
                   "--replicates", "2", "--threads", "1"])
        assert rc == 0
        rep = json.loads((out / "consistency.json").read_text(), parse_constant=_reject_constant)
        assert rep["flagged"] == 2
        assert rep["median_inner_sq"] == [None] * 4


def cli_env(env_extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(spikedcov.__file__))
    env.update(env_extra)
    return env


def run_cli(args, env_extra):
    """`python -m spikedcov.cli ARGS` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "spikedcov.cli", *args],
        env=cli_env(env_extra), capture_output=True, text=True, timeout=120,
    )


def manifest_mismatches(out):
    """Files a manifest in ``out`` lists with a hash their bytes do not have."""
    files = json.loads((out / "manifest.json").read_text())["files"]
    return [name for name, digest in files.items()
            if not (out / name).is_file()
            or hashlib.sha256((out / name).read_bytes()).hexdigest() != digest]


def assert_manifest_lists_every_file(out):
    """A clean run's manifest lists exactly its other files, each with its hash."""
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert set(files) == {p.name for p in out.iterdir()} - {"manifest.json"}
    assert not any(name.endswith(".tmp") for name in files)
    assert manifest_mismatches(out) == []


class TestExitCodeContract:
    """Malformed flags and environment end in exit 2 and one line, no traceback."""

    @pytest.mark.parametrize("args, env", [
        (["--x-mode", "iter:abc"], {}),
        (["--x-mode", "iter:0"], {}),
        (["--x-mode", "sideways"], {}),
        ([], {"SPIKED_EIG_THREADS": "two"}),
    ])
    def test_bad_input_is_config_error(self, tmp_path, desk_config, args, env):
        proc = run_cli(
            ["clt", "--config", desk_config, "--out", str(tmp_path / "o"), "--replicates", "2", *args],
            env,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error:")
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("args", [
        ["concentration", "--kind", "sm", "--replicates", "0"],
        ["concentration", "--kind", "sm", "--replicates", "-3"],
        ["concentration", "--kind", "sm", "--p", "0"],
        ["concentration", "--kind", "hw", "--replicates", "-1"],
        ["concentration", "--kind", "hw", "--t-count", "-1"],
        ["concentration", "--kind", "hw", "--p", "-2"],
        ["concentration", "--kind", "sm", "--law", "twopoint:abc"],
        ["concentration", "--kind", "sm", "--t", "nan"],
        ["concentration", "--kind", "sm", "--t=-3"],
        ["concentration", "--kind", "sm", "--constant", "nan"],
        ["concentration", "--kind", "sm", "--p", "10", "--q", "50"],
        ["concentration", "--kind", "hw", "--t-min", "nan"],
        ["concentration", "--kind", "hw", "--t-max", "inf"],
        ["mp", "--gamma", "-1", "--z-grid", "1:5:4"],
        ["mp", "--gamma", "0", "--z-grid", "1:5:4"],
        ["mp", "--gamma", "nan", "--z-grid", "1:5:4"],
        ["mp", "--gamma", "inf", "--z-grid", "1:5:4"],
        ["mp", "--gamma", "1", "--z-grid", "0:inf:3"],
        ["mp", "--gamma", "1", "--z-grid=-inf:5:3"],
        ["mp", "--gamma", "1", "--z-grid", "nan:5:3"],
        ["mp", "--gamma", "1", "--z-grid", "1:5:0"],
        ["mp", "--gamma", "1", "--z-grid", "1:5:-2"],
    ])
    def test_bad_concentration_or_mp_input_is_config_error(self, tmp_path, args):
        out = tmp_path / "o"
        proc = run_cli([*args, "--out", str(out)], {})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error:")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("job", ["generate", "hw"])
    def test_out_of_memory_is_resource_error(self, tmp_path, job):
        # Under a 3 GB address-space limit, so no allocation runs unbounded.
        cfg = tmp_path / "huge.ini"
        cfg.write_text(MINIMAL.replace("n = 10", "n = 2000000").replace("N = 8", "N = 1000000"))
        args = {
            "generate": ["generate", "--config", str(cfg)],
            "hw": ["concentration", "--kind", "hw", "--p", "1000000000", "--replicates", "10"],
        }[job]
        proc = subprocess.run(
            [sys.executable, "-m", "spikedcov.cli", *args, "--out", str(tmp_path / "o")],
            env=cli_env({"SPIKED_EIG_THREADS": "2"}), capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)),
        )
        assert proc.returncode == 5
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("out of memory:")
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("command, edit", [
        pytest.param("clt", ("statistic = clt_oracle", "statistic = eigvec_A"), id="clt-eigvec_A"),
        pytest.param("clt", ("statistic = clt_oracle", "statistic = concentration_hw"),
                     id="clt-concentration_hw"),
        # no statistic in the file: the default, clt_oracle, is no eigvec statistic
        pytest.param("eigvec", ("statistic = clt_oracle\n", ""), id="eigvec-default"),
    ])
    def test_statistic_outside_the_command_family_is_config_error(self, tmp_path, command, edit):
        cfg = tmp_path / "family.ini"
        cfg.write_text(DESK.replace(*edit))
        out = tmp_path / "o"
        proc = run_cli([command, "--config", str(cfg), "--out", str(out), "--replicates", "2"], {})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error:")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("data", [
        pytest.param(b"n = 10\n" + MINIMAL.encode(), id="key-before-section"),
        pytest.param(MINIMAL.replace("M = 1", "M = 1\nM = 2").encode(), id="duplicate-key"),
        pytest.param(MINIMAL.encode() + b"; caf\xe9\n", id="not-utf8"),
        pytest.param(MINIMAL.replace("n = 10", "n = %").encode(), id="percent"),
        pytest.param(MINIMAL.replace("spikes = 4", "spikes = 4*n^0.5").replace("n = 10", "n = -1").encode(),
                     id="spike-rule-at-negative-n"),
        pytest.param(MINIMAL.replace("spikes = 4", "spikes = 1e400").encode(), id="spike-inf"),
        pytest.param(MINIMAL.replace("law", "gamma_bound = 0\nlaw").encode(), id="gamma-bound-0"),
        pytest.param(MINIMAL.replace("law", "basis = random_orthogonal:x\nlaw").encode(),
                     id="basis-seed"),
    ])
    def test_malformed_config_file_is_config_error(self, tmp_path, data):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(data)
        out = tmp_path / "o"
        proc = run_cli(["clt", "--config", str(cfg), "--out", str(out), "--replicates", "2"], {})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(("config error:", "error:"))
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, edit", [
        pytest.param("generate", ("master_seed = 5", "master_seed = x"), id="generate-seed-x"),
        pytest.param("eigs", ("master_seed = 5", "master_seed = 1.5"), id="eigs-seed-1.5"),
        pytest.param("check-identities", ("nu = 1", "nu = 1.5"), id="check-identities-nu-1.5"),
    ])
    def test_non_integer_seed_or_nu_in_config_file_is_config_error(self, tmp_path, command, edit):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MINIMAL.replace(*edit))
        out = tmp_path / "o"
        flags = [] if command == "check-identities" else ["--out", str(out)]
        proc = run_cli([command, "--config", str(cfg), *flags], {})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error:")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "eigs"])
    def test_single_job_commands_take_no_threads_flag(self, tmp_path, desk_config, command):
        out = tmp_path / "o"
        proc = run_cli([command, "--config", desk_config, "--out", str(out), "--threads", "1"], {})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "unrecognized arguments: --threads 1" in proc.stderr
        assert not out.exists()

    def test_x_mode_from_config_file_is_checked(self, tmp_path, capsys):
        cfg = tmp_path / "bad_x.ini"
        cfg.write_text(DESK.replace("x_mode = zero", "x_mode = iter:x"))
        assert main(["clt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "x_mode" in capsys.readouterr().err


def _snapshot(out):
    """Name -> (size, mtime) of every entry; None when one vanishes mid-scan."""
    try:
        return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(out)}
    except FileNotFoundError:
        return None


class TestCrashSafety:
    """A rerun killed midway leaves no manifest, or one whose every hash matches."""

    @pytest.mark.parametrize("moment", ["first-change", "writing-Z.csv"])
    def test_sigkill_during_rerun(self, tmp_path, moment):
        out = tmp_path / "o"
        argv = ["generate", "--config", str(CLT_ORACLE_DESK), "--with-z", "--out", str(out)]
        first = run_cli([*argv, "--seed", "1"], {})
        assert first.returncode == 0, first.stderr
        assert_manifest_lists_every_file(out)
        before = _snapshot(out)

        def reached(snap):
            if moment == "first-change":
                return snap != before
            return snap is not None and "Z.csv.tmp" in snap

        rerun = subprocess.Popen(
            [sys.executable, "-m", "spikedcov.cli", *argv, "--seed", "2"],
            env=cli_env({}), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while not reached(_snapshot(out)):
                assert rerun.poll() is None, "the rerun ended before the kill"
                assert time.monotonic() < deadline
        finally:
            rerun.send_signal(signal.SIGKILL)
            rerun.wait()
        assert rerun.returncode == -signal.SIGKILL
        assert not (out / "manifest.json").exists() or manifest_mismatches(out) == []

    def test_rerun_removes_a_killed_runs_tmp(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "Z.csv.tmp").write_text("0.5,0.25\n")  # what a kill while writing Z.csv leaves
        (out / "notes.tmp").write_text("not ours")
        rc = main(["generate", "--config", str(CLT_ORACLE_DESK), "--out", str(out), "--seed", "1"])
        assert rc == 0
        assert (out / "notes.tmp").read_text() == "not ours"
        (out / "notes.tmp").unlink()
        assert_manifest_lists_every_file(out)


def _reachable_source(fn) -> str:
    """Source of ``fn`` and of every cli function it calls, transitively."""
    seen, todo, parts = set(), [fn], []
    while todo:
        f = todo.pop()
        if f.__name__ in seen:
            continue
        seen.add(f.__name__)
        src = inspect.getsource(f)
        parts.append(src)
        for name in re.findall(r"\b(\w+)\(", src):
            obj = getattr(cli, name, None)
            if inspect.isfunction(obj) and obj.__module__ == cli.__name__:
                todo.append(obj)
    return "\n".join(parts)


def test_every_flag_is_read_by_its_command():
    """A flag that no handler reads does nothing; none may exist."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, p in sub.choices.items():
        source = _reachable_source(p.get_default("fn"))
        for action in p._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if not re.search(rf"\bargs\.{action.dest}\b", source):
                unread.append(f"{name}: {action.option_strings}")
    assert unread == []


BLOCK_SCIPY = """\
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
from spikedcov.cli import main
from spikedcov.errors import NoConvergence

rc = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
print("scipy modules:", loaded)
sys.exit(rc if not loaded else 99)
"""


class TestNumpyOnlyRuntime:
    def test_clt_mixed_root_runs_without_scipy(self, tmp_path, desk_config):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(spikedcov.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", BLOCK_SCIPY, "clt", "--config", desk_config,
             "--out", str(tmp_path / "o"), "--mode", "mixed", "--x-mode", "root",
             "--replicates", "2", "--threads", "2"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "scipy modules: []" in proc.stdout
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["successes"] == 2


REALS = st.one_of(
    st.sampled_from([0.0, -1.0, float("nan"), float("inf"), float("-inf")]),
    st.floats(-10.0, 100.0),
)
COUNTS = st.integers(-2, 12)


@st.composite
def concentration_or_mp_argv(draw):
    """Tiny concentration/mp argv, values <= 0, nan and inf included."""
    if draw(st.booleans()):
        return ["mp", f"--gamma={draw(REALS)}",
                f"--z-grid={draw(REALS)}:{draw(REALS)}:{draw(COUNTS)}"]
    kind = draw(st.sampled_from(["sm", "hw"]))
    law = draw(st.sampled_from(["gaussian", "uniform", "twopoint:0.3", "twopoint:nan",
                                "twopoint:x", "cauchy"]))
    argv = ["concentration", f"--kind={kind}", f"--law={law}",
            f"--seed={draw(st.integers(0, 3))}", f"--replicates={draw(st.integers(-2, 50))}",
            f"--p={draw(st.integers(-2, 8))}"]
    if kind == "sm":
        return argv + [f"--q={draw(st.integers(-2, 8))}", f"--t={draw(REALS)}",
                       f"--constant={draw(REALS)}"]
    return argv + [f"--t-min={draw(REALS)}", f"--t-max={draw(REALS)}", f"--t-count={draw(COUNTS)}"]


FUZZ_BASE = [
    "[model]", "n = 12", "N = 8", "M = 2", "spikes = 8*n^0.8, 2*n^0.8", "law = gaussian",
    "basis = identity", "gamma_bound = 10",
    "[experiment]", "statistic = clt_mixed", "nu = 1", "replicates = 2", "master_seed = 5",
    "x_mode = root", "empirical = false", "eps0 = 0.1",
]
FUZZ_VALUES = ["0", "1", "2", "3", "12", "-1", "1.5", "nan", "inf", "1e400", "x", "", "4, 2",
               "2*n", "n^", "uniform", "twopoint:0.3", "twopoint:x", "random_orthogonal:3",
               "random_orthogonal:x", "clt_statistical", "clt_oracle", "eigvec_A", "iter:2",
               "zero", "true", "%", "%(n)s"]


@st.composite
def ini_text(draw):
    """A small valid INI file after a few edits: odd values, lost/repeated lines, junk."""
    lines = list(FUZZ_BASE)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["value", "value", "value", "drop", "repeat", "junk"]))
        if edit == "value" and "=" in lines[i]:
            lines[i] = lines[i].split("=")[0] + "= " + draw(st.sampled_from(FUZZ_VALUES))
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "junk":
            lines.insert(i, draw(st.text(max_size=12)))
        if not lines:
            break
    return "\n".join(lines).encode("utf-8", "surrogatepass")


class TestCliFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(argv=concentration_or_mp_argv())
    def test_exit_code_contract(self, argv):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            out = os.path.join(tmp, "o.csv" if argv[0] == "mp" else "o")
            rc = main([*argv, f"--out={out}"])
        assert rc in (0, 2, 3, 4, 5)
        assert "Traceback" not in err.getvalue()

    # the flags each --config command takes besides --config
    CONFIG_COMMANDS = {
        "generate": ["--out", "{tmp}/o", "--with-z"],
        "eigs": ["--out", "{tmp}/o"],
        "clt": ["--out", "{tmp}/o", "--replicates", "2", "--threads", "1"],
        "eigvec": ["--out", "{tmp}/o", "--replicates", "2", "--threads", "1"],
        "consistency": ["--out", "{tmp}/o", "--replicates", "2", "--threads", "1"],
        "check-identities": ["--series-terms", "4"],
    }
    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.one_of(ini_text(), st.binary(max_size=200)))
    def test_config_file_exit_code_contract(self, command, data):
        if command == "eigvec":
            # an eigvec statistic, so that the edits reach past the family check
            data = data.replace(b"clt_mixed", b"eigvec_A")
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            path = os.path.join(tmp, "fuzz.ini")
            with open(path, "wb") as fh:
                fh.write(data)
            flags = [f.format(tmp=tmp) for f in self.CONFIG_COMMANDS[command]]
            rc = main([command, "--config", path, *flags])
        assert rc in (0, 2, 3, 4, 5)
        assert "Traceback" not in err.getvalue()


class TestBlasThreadIndependence:
    """At a size where OpenBLAS threads, outputs depend on neither BLAS nor pool threads."""

    def run_clt(self, out, threads, blas):
        proc = run_cli(
            ["clt", "--config", str(CLT_ORACLE_DESK), "--out", str(out), "--mode", "mixed",
             "--x-mode", "root", "--replicates", "4", "--seed", "5", "--threads", threads],
            {"OPENBLAS_NUM_THREADS": blas},
        )
        assert proc.returncode == 0, proc.stderr
        assert_manifest_lists_every_file(out)
        return {name: (out / name).read_bytes() for name in ("samples.csv", "report.json")}

    def test_outputs_are_byte_identical(self, tmp_path):
        if cores.blas_threads() is None:
            pytest.skip(cores.blas_unpinned_reason)
        two_blas = self.run_clt(tmp_path / "pool_blas2", "2", "2")
        assert self.run_clt(tmp_path / "pool_blas1", "2", "1") == two_blas
        assert self.run_clt(tmp_path / "serial_blas2", "1", "2") == two_blas


class TestSingleJobThreadIndependence:
    """Single-job commands split draws and batched SVDs across cores; no output bit moves."""

    JOBS = {
        "generate": ["generate", "--config", str(CLT_ORACLE_DESK), "--with-z", "--seed", "3"],
        "eigs": ["eigs", "--config", str(CLT_ORACLE_DESK), "--seed", "3"],
        "sm": ["concentration", "--kind", "sm", "--replicates", "16", "--seed", "3"],
        "hw": ["concentration", "--kind", "hw", "--p", "100", "--replicates", "1500", "--seed", "3"],
    }

    def outputs(self, out, job, threads):
        proc = run_cli([*self.JOBS[job], "--out", str(out)], {"SPIKED_EIG_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        assert_manifest_lists_every_file(out)
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}

    @pytest.mark.parametrize("job", JOBS)
    def test_outputs_are_byte_identical(self, tmp_path, job):
        serial = self.outputs(tmp_path / "one", job, "1")
        assert serial
        assert self.outputs(tmp_path / "two", job, "2") == serial

    @pytest.mark.parametrize("job", ["sm", "hw"])
    def test_a_one_block_draw_is_split_across_workers(self, tmp_path, monkeypatch, job):
        # Both draws fit in one block; with 2 workers each worker takes a share.
        monkeypatch.setenv("SPIKED_EIG_THREADS", "2")
        blocks = []

        def counting(fn, items, *args):
            items = list(items)
            blocks.append(len(items))
            return cores.fan_out(fn, items, *args)

        monkeypatch.setattr(montecarlo, "fan_out", counting)
        assert main([*self.JOBS[job], "--out", str(tmp_path / "o")]) == 0
        assert blocks and min(blocks) >= 2
