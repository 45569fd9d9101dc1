import numpy as np
import pytest

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


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
    with pytest.raises(ValueError):
        matio.read_binary(path)


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
