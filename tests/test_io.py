import json
import re

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

    @pytest.mark.parametrize("grid", [
        TimeGrid(n=np.int64(4), T=5.0), TimeGrid(n=4, T=np.float32(5.0)),
    ], ids=["int64-n", "float32-T"])
    def test_roundtrip_with_numpy_scalar_grid(self, tmp_path, grid):
        # json cannot write numpy scalars; the header used to raise TypeError
        cube = Cube(grid=grid, data=np.arange(16.0).reshape(4, 2, 2))
        write_cube(tmp_path / "c", cube)
        back = read_cube(tmp_path / "c")
        assert back.grid == TimeGrid(n=4, T=5.0)
        assert back.data.tobytes() == cube.data.tobytes()

    # a stem given with either file's suffix names the same pair of files
    @pytest.mark.parametrize("suffix", [".json", ".bin"])
    def test_a_stem_may_carry_either_suffix(self, tmp_path, suffix):
        cube = random_cube(1)
        paths = write_cube(tmp_path / f"c{suffix}", cube)
        assert paths == (tmp_path / "c.json", tmp_path / "c.bin")
        back = read_cube(tmp_path / f"c{suffix}")
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

    # "order" used to be ignored: an x-major header read as t-major
    @pytest.mark.parametrize(
        "key, value",
        [("order", "x-major column-major"), ("order", "t-major column-major"),
         ("order", None), ("dtype", "f32"), ("endianness", "big")],
        ids=repr,
    )
    def test_rejects_a_layout_it_does_not_decode(self, tmp_path, key, value):
        header_path, _ = write_cube(tmp_path / "c", random_cube())
        header = json.loads(header_path.read_text())
        header[key] = value
        header_path.write_text(json.dumps(header))
        with pytest.raises(FileFormatError, match=re.escape(f"unsupported {key} {value!r}")):
            read_cube(tmp_path / "c")

    @pytest.mark.parametrize("key", ["order", "dtype", "endianness"])
    def test_reads_a_header_that_leaves_out_a_layout_field(self, tmp_path, key):
        cube = random_cube()
        header_path, _ = write_cube(tmp_path / "c", cube)
        header = json.loads(header_path.read_text())
        del header[key]
        header_path.write_text(json.dumps(header))
        assert read_cube(tmp_path / "c").data.tobytes() == cube.data.tobytes()

    # TimeGrid checks n and T, read_cube n1 and n2; each fault names the header
    @pytest.mark.parametrize("key, value, message", [
        ("n", 8.9, "n must be a positive integer, got 8.9"),
        ("n", True, "n must be a positive integer, got True"),
        ("T", -5.0, "T must be positive and finite, got -5.0"),
        ("T", "5.0", "T must be positive and finite, got '5.0'"),
        # beyond the double range: used to read, then overflow in grid.points
        pytest.param("T", 10**400, f"T must be positive and finite, got {10**400}",
                     id="T-10**400"),
        ("n1", 0, "n1 and n2 must be JSON integers >= 1"),
        ("n2", 4.0, "n1 and n2 must be JSON integers >= 1"),
    ], ids=repr)
    def test_a_bad_size_or_length_names_the_header(self, tmp_path, key, value, message):
        header_path, _ = write_cube(tmp_path / "c", random_cube())
        header = json.loads(header_path.read_text())
        header[key] = value
        header_path.write_text(json.dumps(header))
        with pytest.raises(FileFormatError, match=re.escape(f"cube header {header_path}: {message}")):
            read_cube(tmp_path / "c")

    def test_reads_a_T_written_as_a_JSON_integer(self, tmp_path):
        cube = random_cube()
        header_path, _ = write_cube(tmp_path / "c", cube)
        header = json.loads(header_path.read_text())
        header["T"] = 5
        header_path.write_text(json.dumps(header))
        back = read_cube(tmp_path / "c")
        assert back.grid == cube.grid
        assert np.array_equal(back.grid.points, cube.grid.points)

    # Cube scans the payload; its ValueError used to leave read_cube bare
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
    def test_a_non_finite_sample_is_a_fault_of_the_payload(self, tmp_path, value):
        cube = random_cube()
        _, bin_path = write_cube(tmp_path / "c", cube)
        data = cube.data.copy()
        data[3, 1, 2] = value
        data.astype("<f8").tofile(bin_path)
        with pytest.raises(FileFormatError,
                           match=re.escape(f"{bin_path}: cube data must be finite")):
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

    # each of these used to be written, and the file then failed read_series
    @pytest.mark.parametrize("t, v", [
        ([], []),
        ([0.0, np.nan, 2.0], [1.0, 2.0, 3.0]),
        ([0.0, 1.0, 2.0], [1.0, np.inf, 3.0]),
        ([0.0, 1.0, np.inf], [1.0, 2.0, 3.0]),
    ], ids=["empty", "nan-t", "inf-value", "inf-t"])
    def test_write_rejects_what_read_rejects_and_leaves_no_file(self, tmp_path, t, v):
        path = tmp_path / "s.csv"
        with pytest.raises(ValueError):
            write_series(path, np.array(t), np.array(v))
        assert not path.exists()

    @pytest.mark.parametrize("t, v", [([0.0, 1.0], [1.0]), ([[0.0, 1.0]], [[1.0, 2.0]])],
                             ids=["lengths", "2-D"])
    def test_write_rejects_t_and_values_that_are_not_one_series(self, tmp_path, t, v):
        path = tmp_path / "s.csv"
        with pytest.raises(ValueError, match="t and values must be 1-D arrays of equal length"):
            write_series(path, np.array(t), np.array(v))
        assert not path.exists()

    def test_rejects_a_file_of_only_a_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,value\n")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: no data rows")):
            read_series(path)

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

    # float() parses these; a NaN t also passed the strictly-increasing check
    # and a non-finite value failed later without naming the file
    @pytest.mark.parametrize("row", ["nan,1.0", "1.0,nan", "1.0,inf", "1.0,-inf", "inf,1.0"])
    def test_rejects_a_non_finite_entry_naming_the_file_and_row(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"t,value\n0.5,1.0\n{row}\n2.0,3.0\n")
        msg = f"{path}: non-finite entry in {row.split(',')!r}"
        with pytest.raises(FileFormatError, match=re.escape(msg)):
            read_series(path)

    # the first two fields of a row were read and the rest dropped
    @pytest.mark.parametrize("row", ["1.0,2.0,7", "1.0,2.0,", "1.0"])
    def test_rejects_a_row_of_other_than_two_fields_naming_the_file_and_row(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"t,value\n0.5,1.0\n{row}\n2.0,3.0\n")
        msg = f"{path}: expected two columns, got {row.split(',')!r}"
        with pytest.raises(FileFormatError, match=re.escape(msg)):
            read_series(path)
