import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedcov import matio
from spikedcov.rng import Stream


@pytest.fixture
def matrix():
    return Stream(1, "io").normals((7, 5))


def test_csv_roundtrip_bit_exact(tmp_path, matrix):
    path = tmp_path / "m.csv"
    matio.write_csv(path, matrix)
    back = matio.read_csv(path)
    np.testing.assert_array_equal(back, matrix)
    header = path.read_text().splitlines()[0]
    assert header == "7,5"


def test_binary_roundtrip_bit_exact(tmp_path, matrix):
    path = tmp_path / "m.bin"
    matio.write_binary(path, matrix)
    back = matio.read_binary(path)
    np.testing.assert_array_equal(back, matrix)
    raw = path.read_bytes()
    assert raw[:8] == b"SPIKEMAT"
    assert len(raw) == 8 + 16 + 8 * 35


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_empty_matrix_roundtrip(tmp_path, fmt, shape):
    path = tmp_path / f"m.{fmt}"
    getattr(matio, f"write_{fmt}")(path, np.empty(shape))
    back = getattr(matio, f"read_{fmt}")(path)
    assert back.shape == shape and back.dtype == np.float64
    if fmt == "csv":
        assert_same_bytes(np.empty(shape))


def test_csv_empty_header_with_values(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,3\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError):
        matio.read_csv(path)


@pytest.mark.parametrize("payload", ["", "\n\n", "  \n# no values\n"])
def test_csv_header_without_rows(tmp_path, payload):
    # a ValueError, not loadtxt's "input contained no data" UserWarning
    path = tmp_path / "bad.csv"
    path.write_text("2,3\n" + payload)
    with pytest.raises(ValueError, match="no values"):
        matio.read_csv(path)


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
    with pytest.raises(ValueError):
        matio.read_binary(path)


@pytest.mark.parametrize("content, reason", [
    pytest.param(b"", "shorter", id="empty"),
    pytest.param(b"SPIKEMAT" + struct.pack("<Q", 2), "shorter", id="cut-header"),
    pytest.param(b"SPIKEMAT" + struct.pack("<QQ", 1 << 40, 1 << 40), "payload", id="huge-shape"),
    pytest.param(b"SPIKEMAT" + struct.pack("<QQ", 3, 4) + b"\x00" * 95, "payload", id="truncated"),
])
def test_binary_rejects_a_short_file(tmp_path, content, reason):
    # a ValueError, not struct.error, OverflowError or a failed reshape
    path = tmp_path / "bad.bin"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=reason):
        matio.read_binary(path)


def test_binary_read_holds_one_matrix(tmp_path):
    N, n = 500, 1000
    path = tmp_path / "m.bin"
    matio.write_binary(path, Stream(2, "io").normals((N, n)))
    tracemalloc.start()
    try:
        back = matio.read_binary(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.shape == (N, n)
    assert peak <= N * n * 8 + 64 * 1024


def test_csv_read_holds_one_matrix(tmp_path):
    # loadtxt told the row count allocates once instead of growing its array
    N, n = 500, 1000
    path = tmp_path / "m.csv"
    matio.write_csv(path, Stream(2, "io").normals((N, n)))
    tracemalloc.start()
    try:
        back = matio.read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.shape == (N, n)
    assert peak <= N * n * 8 + 256 * 1024


@pytest.mark.parametrize("payload, rows", [
    ("1,2,3\n4,5,6\n7,8,9\n", None),  # more rows than the header's
    ("1,2,3\n\n# note\n4,5,6\n\n", 2),  # blank and comment lines are no rows
])
def test_csv_row_count_against_the_header(tmp_path, payload, rows):
    path = tmp_path / "m.csv"
    path.write_text("2,3\n" + payload)
    if rows is None:
        with pytest.raises(ValueError, match="header says"):
            matio.read_csv(path)
    else:
        np.testing.assert_array_equal(matio.read_csv(path), [[1, 2, 3], [4, 5, 6]])


def test_binary_write_copies_nothing(tmp_path):
    A = Stream(3, "io").normals((500, 1000))
    tracemalloc.start()
    try:
        matio.write_binary(tmp_path / "m.bin", A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024


def test_csv_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2,3\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError):
        matio.read_csv(path)


def per_value_csv(path, A):
    """The writer write_csv replaced: one %.17g format per value."""
    rows, cols = A.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{rows},{cols}\n")
        for row in A:
            fh.write(",".join("%.17g" % v for v in row))
            fh.write("\n")


@pytest.mark.parametrize("shape", [(3, 4), (12, 1), (1, 12)])
def test_csv_bytes_match_per_value_formula(tmp_path, shape):
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1e-5, 1e17, -1e17, np.inf, -np.inf, np.nan,
               1.0 / 3.0, 2.0**53 + 2.0]
    A = np.array(special).reshape(shape)
    matio.write_csv(tmp_path / "new.csv", A)
    per_value_csv(tmp_path / "old.csv", A)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    np.testing.assert_array_equal(matio.read_csv(tmp_path / "new.csv"), A)


def assert_same_bytes(A):
    """write_csv(A) writes exactly the bytes of per_value_csv(A)."""
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        matio.write_csv(new, A)
        per_value_csv(old, A)
        assert new.read_bytes() == old.read_bytes()


def from_bits(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


def nudged(values, ulps=3) -> np.ndarray:
    """Each value and its neighbours up to ``ulps`` floats away, both signs."""
    v = np.asarray(values, dtype=np.float64)
    steps = [v]
    for direction in (np.inf, -np.inf):
        w = v
        for _ in range(ulps):
            w = np.nextafter(w, direction)
            steps.append(w)
    return np.concatenate([*steps, -np.concatenate(steps)])


class TestCsvBytes:
    """write_csv against the per-value %.17g writer, byte for byte."""

    @settings(max_examples=150)
    @given(
        values=st.lists(
            st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(lambda b: float(from_bits([b])[0]))),
            min_size=1, max_size=40,
        ),
        cols=st.integers(1, 40),
    )
    def test_float64_bit_patterns(self, values, cols):
        # every exponent, subnormals, signed zeros, infinities and NaN payloads
        A = np.array(values)
        cols = min(cols, A.size)
        assert_same_bytes(A[: A.size // cols * cols].reshape(-1, cols))

    def test_exact_halfway_cases(self):
        # a / 2^j with odd a: a 5^j / 10^j ends in a 5 at the 18th digit, a tie
        # between two 17-digit values, broken to the even 17th digit.
        rng = np.random.default_rng(11)
        ties = {0: [], 1: []}
        for bits in range(30, 53):
            for a in map(int, rng.integers(2**bits, 2 ** (bits + 1), 100) | 1):
                for j in range(1, 64):
                    digits = str(a * 5**j)
                    if len(digits) == 18:
                        ties[int(digits[16]) % 2].append(a / 2**j)
        assert min(len(v) for v in ties.values()) > 500
        halves = np.array(ties[0] + ties[1])
        assert np.mean((halves >= 1e-4) & (halves < 1e15)) > 0.5
        assert_same_bytes(np.concatenate([halves, -halves]).reshape(-1, 4))

    def test_around_powers_of_ten_and_the_fast_range_edges(self):
        # 10^k for k in [-5, 16] holds the edges 1e-4 and 1e15 of the array path
        assert_same_bytes(nudged(10.0 ** np.arange(-5, 17)).reshape(1, -1))

    @pytest.mark.parametrize("shape", [(1, 3001), (3001, 1), (5, 1637), (3, 2 * matio._CSV_BLOCK + 1)])
    def test_shapes_and_rows_across_blocks(self, shape):
        rng = np.random.default_rng(shape[1])
        A = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 17, shape)
        A.flat[::97] = 0.0
        assert_same_bytes(A)

    def test_bytes_do_not_depend_on_the_block(self, monkeypatch):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((7, 9)) * 10.0 ** rng.integers(-6, 17, (7, 9))
        for block in (1, 2, 5, 64):
            monkeypatch.setattr(matio, "_CSV_BLOCK", block)
            assert_same_bytes(A)

    def test_a_million_values(self):
        rng = np.random.default_rng(7)
        n = 250_000
        A = np.concatenate([
            rng.standard_normal(n),
            rng.standard_normal(2 * n) * 10.0 ** rng.uniform(-5, 17, 2 * n),
            from_bits(rng.integers(0, 2**64, n, dtype=np.uint64)),
        ])
        assert_same_bytes(A.reshape(1000, 1000))
