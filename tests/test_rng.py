import numpy as np
import pytest

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
