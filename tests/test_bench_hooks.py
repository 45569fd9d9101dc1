"""Every spikedcov name the benchmark's tracer wraps still resolves.

``perfbench/layers.py`` wraps functions by name to produce its per-layer
metrics; a rename would drop a metric from the benchmark, so it fails here.
"""

import importlib.util
from pathlib import Path

from spikedcov import cli, matio, montecarlo, rng

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


class Recorder:
    """Stands in for the tracer: records each wrap, and fails on a missing name."""

    def __init__(self):
        self.wrapped = set()

    def wrap(self, owner, attr, name, amount=None, rep_arg=None):
        assert callable(getattr(owner, attr, None)), f"{owner!r}.{attr} is gone (layer {name})"
        self.wrapped.add((owner, attr))


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    recorder = Recorder()
    layers.instrument(recorder)
    assert {
        (rng.Stream, "normals"),
        (montecarlo, "simulate_instance"),
        (montecarlo, "_replicate_value"),
        (cli, "concentration_sm_check"),
        (cli, "concentration_hw_check"),
        (matio, "write_csv"),
    } <= recorder.wrapped
    assert callable(montecarlo.default_workers)  # perfbench/worker.py reports it
