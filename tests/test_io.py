import numpy as np
import pytest

from lagdeconv import Cube, TimeGrid
from lagdeconv.io import (
    FileFormatError,
    read_cube,
    read_series,
    write_cube,
    write_series,
)


def random_cube(seed=0, n=8, n1=4, n2=4):
    rng = np.random.default_rng(seed)
    return Cube(grid=TimeGrid(n=n, T=5.0), data=rng.standard_normal((n, n1, n2)))


class TestCubeFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        cube = random_cube()
        write_cube(tmp_path / "c", cube)
        back = read_cube(tmp_path / "c")
        assert back.grid == cube.grid
        assert np.array_equal(back.data, cube.data)
        assert back.data.tobytes() == cube.data.tobytes()

    def test_write_is_deterministic(self, tmp_path):
        cube = random_cube(3)
        write_cube(tmp_path / "a", cube)
        write_cube(tmp_path / "b", cube)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_length_mismatch_detected(self, tmp_path):
        cube = random_cube()
        _, bin_path = write_cube(tmp_path / "c", cube)
        payload = bin_path.read_bytes()
        bin_path.write_bytes(payload[:-8])
        with pytest.raises(FileFormatError):
            read_cube(tmp_path / "c")

    def test_missing_header_field(self, tmp_path):
        cube = random_cube()
        header_path, _ = write_cube(tmp_path / "c", cube)
        header_path.write_text('{"n": 8, "n1": 4}')
        with pytest.raises(FileFormatError):
            read_cube(tmp_path / "c")

    @pytest.mark.parametrize(
        "header",
        [
            "5",
            '{"n": null, "n1": 4, "n2": 4, "T": 5.0}',
            '{"n": "x", "n1": 4, "n2": 4, "T": 5.0}',
            '{"n": 8, "n1": 4, "n2": 4, "T": [5.0]}',
            '{"n": 1e999, "n1": 4, "n2": 4, "T": 5.0}',
            # Each of these once matched the 8 x 4 x 4 payload and was read:
            '{"n": 8.9, "n1": 4, "n2": 4, "T": 5.0}',  # truncated to 8
            '{"n": 32, "n1": true, "n2": 4, "T": 5.0}',  # true read as 1
            '{"n": "8", "n1": 4, "n2": 4, "T": 5.0}',
            '{"n": 8, "n1": 4, "n2": 4, "T": "5.0"}',
            '{"n": 8, "n1": 4, "n2": 4, "T": 1e999}',  # parses to inf
            '{"n": 8, "n1": 4, "n2": 4, "T": NaN}',
        ],
    )
    def test_header_of_the_wrong_type(self, tmp_path, header):
        header_path, _ = write_cube(tmp_path / "c", random_cube())
        header_path.write_text(header)
        with pytest.raises(FileFormatError):
            read_cube(tmp_path / "c")

    def test_malformed_header(self, tmp_path):
        cube = random_cube()
        header_path, _ = write_cube(tmp_path / "c", cube)
        header_path.write_text("{not json")
        with pytest.raises(FileFormatError):
            read_cube(tmp_path / "c")


class TestSeriesFile:
    def test_roundtrip_preserves_doubles(self, tmp_path):
        rng = np.random.default_rng(1)
        t = np.sort(rng.uniform(0.0, 10.0, 32))
        t += np.arange(32) * 1e-9  # enforce strict monotonicity
        v = rng.standard_normal(32)
        write_series(tmp_path / "s.csv", t, v)
        t2, v2 = read_series(tmp_path / "s.csv")
        # 17 significant digits reproduce IEEE doubles exactly
        assert np.array_equal(t, t2)
        assert np.array_equal(v, v2)

    def test_rejects_non_increasing(self, tmp_path):
        with pytest.raises(ValueError):
            write_series(tmp_path / "s.csv", np.array([0.0, 1.0, 1.0]), np.zeros(3))
        (tmp_path / "bad.csv").write_text("t,value\n1.0,0.0\n0.5,0.0\n")
        with pytest.raises(FileFormatError):
            read_series(tmp_path / "bad.csv")

    def test_rejects_garbage(self, tmp_path):
        (tmp_path / "bad.csv").write_text("t,value\n1.0,zap\n")
        with pytest.raises(FileFormatError):
            read_series(tmp_path / "bad.csv")
        (tmp_path / "empty.csv").write_text("")
        with pytest.raises(FileFormatError):
            read_series(tmp_path / "empty.csv")

    def test_headerless_files_accepted(self, tmp_path):
        (tmp_path / "plain.csv").write_text("0.5,1.0\n1.0,2.0\n")
        t, v = read_series(tmp_path / "plain.csv")
        assert list(t) == [0.5, 1.0]
        assert list(v) == [1.0, 2.0]
