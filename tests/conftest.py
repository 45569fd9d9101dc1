import numpy as np
import pytest
from hypothesis import settings

from spikedcov.model import EntryLaw, SpikedModelSpec

# Property tests draw the same examples on every run; a test's own
# @settings still sets its example count.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def gaussian():
    return EntryLaw.gaussian()


@pytest.fixture(scope="session")
def small_spec(gaussian):
    """A quick, well-separated instance used across module tests."""
    n = 400
    spikes = (n**0.8) * np.array([8.0, 4.0, 2.0, 1.0])
    return SpikedModelSpec(n=n, N=300, M=4, spikes=spikes, law=gaussian)
