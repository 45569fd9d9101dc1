"""The benchmark's hooks into spikedcov still hold.

``perfbench/layers.py`` wraps functions by name to produce its per-layer
metrics; a rename would drop a metric from the benchmark, so it fails here.
``perfbench/workloads.py`` checks each MC job's replicates against a dense
reference built from spikedcov's objects; a field it reads that goes
would fail every MC job of a benchmark run, so that check runs here too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from spikedcov import cli, matio, montecarlo, rng
from spikedcov.config import build_experiment, load_config
from spikedcov.montecarlo import run_experiment

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


class Recorder:
    """Stands in for the tracer: records each wrap, and fails on a missing name."""

    def __init__(self):
        self.wrapped = set()

    def wrap(self, owner, attr, name, amount=None, rep_arg=None):
        assert callable(getattr(owner, attr, None)), f"{owner!r}.{attr} is gone (layer {name})"
        self.wrapped.add((owner, attr))


def test_every_wrapped_name_resolves():
    layers = load(LAYERS, "perfbench_layers")
    recorder = Recorder()
    layers.instrument(recorder)
    assert {
        (rng.Stream, "normals"),
        (rng.Stream, "__init__"),  # rng.Stream.init.calls counts the streams a cycle opens
        (montecarlo, "simulate_instance"),
        # the Gram product is its own layer, not montecarlo self time
        (montecarlo, "sample_covariance"),
        (cli, "sample_covariance"),
        (montecarlo, "_replicate_value"),
        (cli, "concentration_sm_check"),
        (cli, "concentration_hw_check"),
        (matio, "write_csv"),
    } <= recorder.wrapped
    assert callable(montecarlo.default_workers)  # perfbench/worker.py reports it


@pytest.mark.parametrize("ini, statistic", [
    ("clt_oracle_desk.ini", "clt_mixed"),
    ("desk_standard.ini", "eigvec_B"),
])
def test_mc_rows_match_the_benchmark_reference(ini, statistic):
    # the comparison perfbench's _check_mc makes on the first and last replicate
    workloads = load(WORKLOADS, "perfbench_workloads")
    config = build_experiment(
        load_config(ROOT / "configs" / ini), statistic=statistic, replicates=3,
        master_seed=11, x_mode="root",
    )
    rows = run_experiment(config).rows
    for r in (0, config.replicates - 1):
        assert rows[r]["flag"] is None
        want = workloads.reference_value(config, r)
        assert workloads._close(rows[r]["value"], want), (r, rows[r]["value"], want)
