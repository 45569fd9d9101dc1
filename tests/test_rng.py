import hashlib

import numpy as np
import pytest

from spikedcov import cores, rng
from spikedcov.cli import main
from spikedcov.rng import Stream, derive_key

from .oracles import box_muller_reference, philox_at, sequential


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


@pytest.mark.parametrize("shape", [(), 1, 7, 8, (3, 7), (40, 51), (64, 64)])
def test_normals_bit_identical_to_reference(shape):
    got = Stream(77, "bm", repr(shape)).normals(shape)
    want = box_muller_reference(sequential(77, "bm", repr(shape)), shape)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_normals_continue_the_stream_like_the_reference():
    a, b = Stream(78, "bm"), sequential(78, "bm")
    for shape in (5, (2, 3), 4):
        np.testing.assert_array_equal(a.normals(shape), box_muller_reference(b, shape))


@pytest.fixture
def small_blocks(monkeypatch):
    """Transform every draw 3 pairs at a time."""
    monkeypatch.setattr(rng, "_BLOCK", 3)


@pytest.mark.parametrize("drawn", range(6))
@pytest.mark.parametrize("shape", [(), 1, 2, 5, 8, 13, (3, 7), (40, 51)])
def test_split_normals_bit_identical_to_one_span(small_blocks, drawn, shape):
    a, b = Stream(79, "split", drawn), sequential(79, "split", drawn)
    np.testing.assert_array_equal(a.uniforms(drawn), b.random(drawn))
    got = a.normals(shape)
    want = box_muller_reference(b, shape)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    # the stream continues where a serial draw leaves it
    np.testing.assert_array_equal(a.normals(9), box_muller_reference(b, 9))
    np.testing.assert_array_equal(a.uniforms(3), b.random(3))


def test_split_at_the_default_span():
    # the size the former default split cut into spans, now one read
    shape = (4 * 2**15 + 1, 1)
    a, b = Stream(80, "split"), sequential(80, "split")
    np.testing.assert_array_equal(a.normals(shape), box_muller_reference(b, shape))
    np.testing.assert_array_equal(a.uniforms(5), b.random(5))


def test_a_draw_is_one_read_of_pairs(monkeypatch):
    reads, fan_outs = [], []
    pairs = Stream.pairs

    def spy(self, *args):
        reads.append(args[:4])
        return pairs(self, *args)

    monkeypatch.setattr(Stream, "pairs", spy)
    monkeypatch.setattr(cores, "fan_out", lambda *args: fan_outs.append(args))
    monkeypatch.setenv("SPIKED_EIG_THREADS", "2")
    half = 2 * 2**16
    a, b = Stream(81, "one-read"), sequential(81, "one-read")
    np.testing.assert_array_equal(a.normals(2 * half), box_muller_reference(b, 2 * half))
    assert reads == [(0, half, 0, half)]
    assert fan_outs == []


@pytest.mark.parametrize("shape", [1, 7, 8, (3, 7), (40, 51)])
def test_one_span_draw_in_blocks_bit_identical(small_blocks, shape):
    # one read, transformed 3 pairs at a time
    a, b = Stream(82, "blocks", repr(shape)), sequential(82, "blocks", repr(shape))
    got = a.normals(shape)
    np.testing.assert_array_equal(got, box_muller_reference(b, shape))
    np.testing.assert_array_equal(a.uniforms(3), b.random(3))


@pytest.mark.parametrize("offset", [0, 1, 2, 3, 4, 4097, 4098, 4099, 4 * 2**64 + 3])
def test_window_at_any_offset_matches_the_state_reference(offset):
    # every offset % 4 in one counter block, and a counter past 2^64,
    # which spills into the second of Philox's four counter words
    stream = Stream(83, "window")
    got = stream.window(offset, np.empty(9))
    np.testing.assert_array_equal(got, philox_at(stream.key, offset).random(9))
    if offset < 5000:
        np.testing.assert_array_equal(got, sequential(83, "window").random(offset + 9)[offset:])
    assert stream.offset == 0


def test_offset_counts_the_uniforms_drawn():
    # a normal draw reads whole pairs, so an odd count reads one uniform more
    stream = Stream(84, "offset")
    stream.uniforms(3)
    stream.normals(5)
    stream.normals(())
    stream.uniforms((2, 2))
    assert stream.offset == 3 + 6 + 2 + 4


# Frozen SHA-256 digests of draws and of generated files. They pin the bits
# against every change, including in the numpy routines the streams rest on
# (Philox, Generator.random, np.log, np.sqrt, np.sin, np.cos); see README,
# "Reproducibility model".
def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_frozen_digest_of_a_one_span_draw():
    z = Stream(2026, "digest", "one-span").normals((37, 53))
    assert digest(z.tobytes()) == "683f3bbb93ec2394a2da79e05d493109db7f1e8b0906005653c0f12d4c309a31"


def test_frozen_digest_of_a_split_draw():
    # two spans of 2^15 + 1 pairs under the former split; the bits do not depend on it
    z = Stream(2026, "digest", "split").normals(4 * 2**15 + 3)  # 2 * 2^15 + 2 pairs
    assert digest(z.tobytes()) == "a76759e19cd863afb35dde4be031cbab88f82ea43f2adf8ef31a0e1a0a0a112b"


def test_frozen_digest_of_uniforms_after_an_odd_offset():
    stream = Stream(2026, "digest", "uniforms")
    stream.uniforms(3)
    u = stream.uniforms(11)
    assert digest(u.tobytes()) == "f1baf200dbfaa4d3f0f852b053031b559df097e006c29fbbeee81fb75cfe12ca"


def test_frozen_digests_of_generated_files(tmp_path):
    cfg = tmp_path / "g.ini"
    cfg.write_text(
        "[model]\nn = 12\nN = 9\nM = 2\nspikes = 20, 6\nlaw = gaussian\n\n"
        "[experiment]\nmaster_seed = 11\nnu = 1\n"
    )
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--out", str(out), "--with-z"]) == 0
    assert digest((out / "X.bin").read_bytes()) == "7b8add3a5effe3a1fd55be255d182cc29f1314caebbce0ac3da82802a0f6f77a"
    assert digest((out / "Z.bin").read_bytes()) == "df952b66a3fd484c17a51ea92971f183184c104952585a6e1fb5c30c04b6579f"
