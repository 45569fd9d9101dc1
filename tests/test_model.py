import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedcov.errors import IndexOutOfRange, InvalidSpec
from spikedcov.model import (
    EntryLaw,
    SpikedModelSpec,
    check_separation,
    generate_data,
    parse_spike_rule,
    random_orthogonal,
    sample_entry_matrix,
)
from spikedcov.rng import Stream

LAWS = [
    EntryLaw.gaussian(),
    EntryLaw.uniform_scaled(),
    EntryLaw.two_point(0.5),
    EntryLaw.two_point(0.3),
]


def test_determinism_contract():
    a = sample_entry_matrix(2, 2, EntryLaw.gaussian(), 17)
    b = sample_entry_matrix(2, 2, EntryLaw.gaussian(), 17)
    np.testing.assert_array_equal(a, b)


def test_gaussian_sample_moments_at_million():
    z = sample_entry_matrix(1000, 1000, EntryLaw.gaussian(), 8675309)
    assert -0.01 <= z.mean() <= 0.01
    assert 0.99 <= z.var() <= 1.01


def test_two_point_half_support():
    z = sample_entry_matrix(10, 10, EntryLaw.two_point(0.5), 4)
    assert set(np.unique(z)) <= {-1.0, 1.0}


@pytest.mark.parametrize("law", LAWS, ids=lambda l: l.label())
def test_law_moments_million_draws(law):
    # mean 0, variance 1, fourth moment as declared (fixed seed; the
    # 1-in-100-seeds failure budget is absorbed by pinning a passing seed)
    z = law.sample(Stream(1001, "m", law.label()), 10**6)
    assert abs(z.mean()) <= 0.01
    assert abs(z.var() - 1.0) <= 0.02
    assert abs((z**4).mean() - law.fourth_moment) <= 0.15


def test_fourth_moments_closed_form():
    assert EntryLaw.gaussian().fourth_moment == 3.0
    assert EntryLaw.uniform_scaled().fourth_moment == pytest.approx(9.0 / 5.0)
    assert EntryLaw.two_point(0.5).fourth_moment == pytest.approx(1.0)


def test_rademacher_rejected_for_clt():
    assert not EntryLaw.two_point(0.5).eligible_for_clt()
    assert EntryLaw.gaussian().eligible_for_clt()


def test_generate_data_identity_when_no_spikes_above_one(gaussian):
    spec = SpikedModelSpec(n=30, N=20, M=2, spikes=[1.0, 1.0], law=gaussian)
    X, Z = generate_data(spec, 3)
    np.testing.assert_array_equal(X, Z)


def test_generate_data_diagonal_scaling(gaussian):
    spec = SpikedModelSpec(n=30, N=20, M=1, spikes=[4.0], law=gaussian)
    X, Z = generate_data(spec, 5)
    np.testing.assert_allclose(X[0], 2.0 * Z[0], rtol=0, atol=0)
    np.testing.assert_array_equal(X[1:], Z[1:])


def test_generate_data_spike_variance(gaussian):
    spec = SpikedModelSpec(n=5000, N=2500, M=1, spikes=[9.0], law=gaussian)
    X, _ = generate_data(spec, 12)
    assert 8.5 <= X[0].var() <= 9.5


def test_generate_data_with_orthogonal_basis(gaussian):
    n, N = 60, 40
    U = random_orthogonal(N, 77)
    spec = SpikedModelSpec(n=n, N=N, M=2, spikes=[9.0, 4.0], law=gaussian, basis=U)
    X, Z = generate_data(spec, 9)
    Y = Z.copy()
    Y[:2] *= np.sqrt([9.0, 4.0])[:, None]
    np.testing.assert_allclose(X, U @ Y, atol=1e-12)


def test_covariance_converges_to_sigma(gaussian):
    # with an explicit basis U: ||(1/n) X X^T - Sigma||_max shrinks as n
    # grows at fixed N/n
    errs = []
    for n in (250, 1000, 4000):
        N = n // 2
        U = random_orthogonal(N, 55)
        spec = SpikedModelSpec(n=n, N=N, M=2, spikes=[16.0, 4.0], law=gaussian, basis=U)
        X, _ = generate_data(spec, 2222)
        S = (X @ X.T) / n
        d = np.ones(N)
        d[:2] = spec.spikes
        sigma = (U * d[np.newaxis, :]) @ U.T
        errs.append(np.max(np.abs(S - sigma)))
    assert errs[2] < errs[0]


def test_spec_invariants(gaussian):
    with pytest.raises(InvalidSpec):
        SpikedModelSpec(n=10, N=8, M=2, spikes=[2.0, 4.0], law=gaussian)  # ascending
    with pytest.raises(InvalidSpec):
        SpikedModelSpec(n=10, N=8, M=2, spikes=[2.0, 0.5], law=gaussian)  # below 1
    with pytest.raises(InvalidSpec):
        SpikedModelSpec(n=100, N=5, M=2, spikes=[2.0, 2.0], law=gaussian, gamma_bound=10)
    with pytest.raises(InvalidSpec):
        SpikedModelSpec(n=10, N=8, M=8, spikes=[2.0] * 8, law=gaussian)  # M = N
    bad = np.eye(8)
    bad[0, 0] = 1.5
    with pytest.raises(InvalidSpec):
        SpikedModelSpec(n=10, N=8, M=1, spikes=[2.0], law=gaussian, basis=bad)


def test_spike_rules():
    assert parse_spike_rule("4", 100) == 4.0
    assert parse_spike_rule(3.5, 100) == 3.5
    assert parse_spike_rule("2*n", 100) == 200.0
    assert parse_spike_rule("2*n^0.8", 100) == pytest.approx(2 * 100**0.8)
    with pytest.raises(InvalidSpec):
        parse_spike_rule("n^q", 100)


def test_separation_top_spike_has_no_upper_constraint(gaussian):
    spec = SpikedModelSpec(n=100, N=80, M=2, spikes=[10.0, 2.0], law=gaussian)
    assert check_separation(spec, 1, 0.5).separated
    spec2 = SpikedModelSpec(n=100, N=80, M=2, spikes=[10.0, 9.0], law=gaussian)
    assert not check_separation(spec2, 1, 0.5).separated


def test_separation_interior_spike(gaussian):
    spec = SpikedModelSpec(n=100, N=80, M=3, spikes=[100.0, 10.0, 1.5], law=gaussian)
    assert check_separation(spec, 2, 0.5).separated
    with pytest.raises(IndexOutOfRange):
        check_separation(spec, 4, 0.5)


def test_separation_bottom_spike_vs_bulk(gaussian):
    spec = SpikedModelSpec(n=100, N=80, M=2, spikes=[10.0, 1.2], law=gaussian)
    assert not check_separation(spec, 2, 0.5).separated  # 1.2/1 < 1.5


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    rows=st.integers(min_value=1, max_value=12),
    cols=st.integers(min_value=1, max_value=12),
)
def test_sampling_is_pure(seed, rows, cols):
    law = EntryLaw.uniform_scaled()
    first = sample_entry_matrix(rows, cols, law, seed)
    second = sample_entry_matrix(rows, cols, law, seed)
    np.testing.assert_array_equal(first, second)
    assert np.all(np.abs(first) <= np.sqrt(3.0))


def test_random_orthogonal_is_orthogonal_and_deterministic():
    U = random_orthogonal(25, 3)
    V = random_orthogonal(25, 3)
    np.testing.assert_array_equal(U, V)
    np.testing.assert_allclose(U.T @ U, np.eye(25), atol=1e-12)
