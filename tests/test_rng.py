import numpy as np
import pytest

from spikedcov import cores, rng
from spikedcov.rng import Stream, derive_key


def test_same_labels_same_stream():
    a = Stream(123, "x", 4).normals((5, 5))
    b = Stream(123, "x", 4).normals((5, 5))
    np.testing.assert_array_equal(a, b)


def test_distinct_labels_distinct_streams():
    a = Stream(123, "x", 4).normals(100)
    b = Stream(123, "x", 5).normals(100)
    assert not np.array_equal(a, b)


def test_key_derivation_stable():
    # frozen: SHA-256 keying must never change silently
    assert derive_key(0) == derive_key(0)
    assert derive_key(0) != derive_key(1)
    assert derive_key(7, "a") != derive_key(7, "b")


def test_normals_odd_count_and_shape():
    z = Stream(9, "odd").normals((3, 7))
    assert z.shape == (3, 7)
    assert np.all(np.isfinite(z))


def test_normals_moments():
    z = Stream(2024, "moments").normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02
    assert abs((z**4).mean() - 3.0) < 0.1


def test_uniforms_in_unit_interval():
    u = Stream(5, "u").uniforms(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0


def box_muller_reference(stream, shape):
    """The allocating Box-Muller formula that Stream.normals computes in place."""
    count = int(np.prod(shape)) if shape else 1
    half = (count + 1) // 2
    u1 = 1.0 - stream._gen.random(size=half)
    u2 = stream._gen.random(size=half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:count].reshape(shape)


@pytest.mark.parametrize("shape", [(), 1, 7, 8, (3, 7), (40, 51), (64, 64)])
def test_normals_bit_identical_to_reference(shape):
    got = Stream(77, "bm", repr(shape)).normals(shape)
    want = box_muller_reference(Stream(77, "bm", repr(shape)), shape)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_normals_continue_the_stream_like_the_reference():
    a, b = Stream(78, "bm"), Stream(78, "bm")
    for shape in (5, (2, 3), 4):
        np.testing.assert_array_equal(a.normals(shape), box_muller_reference(b, shape))


@pytest.fixture
def span_counts(monkeypatch):
    """Cut every draw of two or more pairs into up to three spans of 3-pair blocks; record the cuts."""
    monkeypatch.setattr(rng, "_MIN_SPAN", 1)
    monkeypatch.setattr(rng, "_BLOCK", 3)
    monkeypatch.setenv("SPIKED_EIG_THREADS", "3")
    counts = []
    fan_out = cores.fan_out

    def spy(fn, items, workers=None):
        items = list(items)
        counts.append(len(items))
        return fan_out(fn, items, workers)

    monkeypatch.setattr(cores, "fan_out", spy)
    return counts


@pytest.mark.parametrize("drawn", range(6))
@pytest.mark.parametrize("shape", [(), 1, 2, 5, 8, 13, (3, 7), (40, 51)])
def test_split_normals_bit_identical_to_one_span(span_counts, drawn, shape):
    a, b = Stream(79, "split", drawn), Stream(79, "split", drawn)
    np.testing.assert_array_equal(a.uniforms(drawn), b.uniforms(drawn))
    got = a.normals(shape)
    want = box_muller_reference(b, shape)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    half = (want.size + 1) // 2
    assert span_counts == [min(3, half)]
    # the stream continues where a serial draw leaves it
    np.testing.assert_array_equal(a.normals(9), box_muller_reference(b, 9))
    np.testing.assert_array_equal(a.uniforms(3), b.uniforms(3))


def test_split_at_the_default_span(monkeypatch):
    monkeypatch.setenv("SPIKED_EIG_THREADS", "2")
    shape = (4 * rng._MIN_SPAN + 1, 1)
    a, b = Stream(80, "split"), Stream(80, "split")
    np.testing.assert_array_equal(a.normals(shape), box_muller_reference(b, shape))
    np.testing.assert_array_equal(a.uniforms(5), b.uniforms(5))


def test_draws_inside_a_fan_out_are_one_span(span_counts):
    with cores.one_blas_thread():
        Stream(81, "inner").normals(50)
    Stream(81, "outer").normals(50)
    assert span_counts == [1, 3]
