import json
import re

import numpy as np
import pytest

from lagdeconv import Cube, EstimatorConfig, TimeGrid, WaveletSpec, deconvolve, laguerre
from lagdeconv.io import FileFormatError, read_cube, read_series, write_cube


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

    # with_suffix replaced ".v1" by ".json", so "scan.v1" and "scan.v2"
    # named one pair of files
    @pytest.mark.parametrize("stem", ["scan.v1", "scan.v1.json", "scan.v1.bin"])
    def test_a_stem_keeps_its_other_dots(self, tmp_path, stem):
        cube = random_cube(2)
        paths = write_cube(tmp_path / stem, cube)
        assert paths == (tmp_path / "scan.v1.json", tmp_path / "scan.v1.bin")
        assert read_cube(tmp_path / "scan.v1").data.tobytes() == cube.data.tobytes()

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
        # finite, but T times n = 8 is not: its grid points held inf
        ("T", 1e308, "T * n must be finite, got T = 1e+308 for n = 8"),
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

    def test_two_files_on_equal_grids_share_one_basis(self, tmp_path, monkeypatch, cold):
        # each read makes its own grid; the basis is cached by value, so
        # the second file's fit tabulates nothing
        rows, phi_rows = [], laguerre._phi_rows
        monkeypatch.setattr(laguerre, "_phi_rows",
                            lambda M, t: rows.append(M) or phi_rows(M, t))
        fits = []
        for seed in (1, 2):
            data = 1.0 + 0.01 * np.random.default_rng(seed).standard_normal((8, 8, 8))
            write_cube(tmp_path / f"c{seed}", Cube(grid=TimeGrid(n=8, T=5.0), data=data))
            Y = read_cube(tmp_path / f"c{seed}")
            fits.append(deconvolve(Y, np.exp(-Y.grid.points / 2.0), WaveletSpec(),
                                   EstimatorConfig(M=4), g_zero=1.0))
        assert rows == [4]
        assert fits[0][0].grid is not fits[1][0].grid

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

    # json.loads rejected the mark: "Unexpected UTF-8 BOM"
    def test_reads_a_header_that_opens_with_a_byte_order_mark(self, tmp_path):
        cube = random_cube()
        header_path, _ = write_cube(tmp_path / "c", cube)
        header_path.write_text(header_path.read_text(), encoding="utf-8-sig")
        assert header_path.read_bytes().startswith(b"\xef\xbb\xbf")
        back = read_cube(tmp_path / "c")
        assert back.grid == cube.grid
        assert back.data.tobytes() == cube.data.tobytes()

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
        np.savetxt(tmp_path / "s.csv", np.c_[t, v], fmt="%.17g", delimiter=",",
                   header="t,value", comments="")
        t2, v2 = read_series(tmp_path / "s.csv")
        # 17 significant digits reproduce IEEE doubles exactly
        assert np.array_equal(t, t2)
        assert np.array_equal(v, v2)

    def test_reads_the_default_savetxt_format_bit_for_bit(self, tmp_path):
        # README's example writes with np.savetxt's default "%.18e"
        rng = np.random.default_rng(2)
        t = np.cumsum(rng.uniform(0.01, 1.0, 32))
        v = rng.standard_normal(32)
        np.savetxt(tmp_path / "s.csv", np.c_[t, v], delimiter=",",
                   header="t,value", comments="")
        t2, v2 = read_series(tmp_path / "s.csv")
        assert np.array_equal(t, t2)
        assert np.array_equal(v, v2)

    def test_rejects_non_increasing(self, tmp_path):
        (tmp_path / "bad.csv").write_text("t,value\n1.0,0.0\n0.5,0.0\n")
        with pytest.raises(FileFormatError):
            read_series(tmp_path / "bad.csv")

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

    # the first row was a header whenever its first cell was not a number,
    # so a typo in a headerless file's first t dropped that row
    @pytest.mark.parametrize("row", ["0.0O,1.0", "t,1.0", "0.0,1.0O"])
    def test_a_first_row_with_a_number_is_data(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"{row}\n0.5,0.8\n")
        msg = f"{path}: non-numeric entry in {row.split(',')!r}"
        with pytest.raises(FileFormatError, match=re.escape(msg)):
            read_series(path)

    @pytest.mark.parametrize("header", ["t,value", "index,value", "time"])
    def test_a_first_row_without_a_number_is_a_header(self, tmp_path, header):
        (tmp_path / "s.csv").write_text(f"{header}\n0.5,1.0\n1.0,2.0\n")
        t, v = read_series(tmp_path / "s.csv")
        assert list(t) == [0.5, 1.0] and list(v) == [1.0, 2.0]

    # float() also reads digit-group underscores and other scripts' digits:
    # 0_8 read as 8.0 and the Arabic-Indic three as 3.0
    @pytest.mark.parametrize("cell", ["0_8", "\u0663"], ids=["underscore", "arabic-indic"])
    @pytest.mark.parametrize("template", ["0.5,{}", "{},0.8"], ids=["value", "t"])
    @pytest.mark.parametrize("first", [False, True], ids=["after-a-header", "first-row"])
    def test_rejects_a_cell_outside_ascii_decimal_syntax(self, tmp_path, cell, template, first):
        row = template.format(cell)
        path = tmp_path / "s.csv"
        head = "" if first else "t,value\n0.0,1.0\n"
        path.write_text(f"{head}{row}\n9.0,0.6\n", encoding="utf-8")
        msg = f"{path}: non-numeric entry in {row.split(',')!r}"
        with pytest.raises(FileFormatError, match=re.escape(msg)):
            read_series(path)

    def test_reads_every_ascii_decimal_form(self, tmp_path):
        cells = ["1", "+2.", "-.5", "2.5E-3", " 7e+2 ", "\t08"]
        path = tmp_path / "s.csv"
        path.write_text("".join(f"{k},{c}\n" for k, c in enumerate(cells)))
        t, v = read_series(path)
        assert list(t) == list(range(6)) and list(v) == [float(c) for c in cells]

    # float() reads "nan" and "inf", so such a first row is data, and rejected
    @pytest.mark.parametrize("row", ["nan,1.0", "0.0,inf"])
    def test_a_first_row_with_a_non_finite_number_is_rejected_data(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"{row}\n0.5,0.8\n")
        msg = f"{path}: non-finite entry in {row.split(',')!r}"
        with pytest.raises(FileFormatError, match=re.escape(msg)):
            read_series(path)

    # the mark stuck to the first cell: a headerless file failed on
    # '\ufeff0.0', and a header read only because the mark landed in it
    @pytest.mark.parametrize("header", ["", "t,value\n"], ids=["headerless", "header"])
    def test_a_byte_order_mark_is_ignored(self, tmp_path, header):
        text = header + "0.0,1.0\n0.5,0.8\n1.0,0.6\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        t, v = read_series(marked)
        t0, v0 = read_series(plain)
        assert list(t) == list(t0) == [0.0, 0.5, 1.0]
        assert list(v) == list(v0) == [1.0, 0.8, 0.6]

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


def mutate(data: bytes, rng) -> bytes:
    """data with 1 to 3 bytes replaced by random ones."""
    out = bytearray(data)
    for at in rng.integers(0, len(out), rng.integers(1, 4)):
        out[at] = rng.integers(0, 256)
    return bytes(out)


class TestMutatedFiles:
    """A valid file with a few bytes replaced reads, or fails with one
    FileFormatError naming the file.  A bare UnicodeDecodeError used to
    leave the readers in about three cases in four."""

    def test_cube_header(self, tmp_path):
        rng = np.random.default_rng(44)
        for case in range(300):
            n, n1, n2 = rng.integers(1, 5, 3)
            cube = Cube(grid=TimeGrid(n=int(n), T=float(rng.uniform(0.5, 9.0))),
                        data=rng.standard_normal((n, n1, n2)))
            header_path, bin_path = write_cube(tmp_path / "c", cube)
            header = header_path.read_bytes()
            if case % 3 == 0:
                header = b"\xef\xbb\xbf" + header
            header_path.write_bytes(mutate(header, rng))
            try:
                read_cube(tmp_path / "c")
            except FileFormatError as exc:
                assert str(exc).startswith((f"cube header {header_path}: ", f"{bin_path}: "))

    def test_series(self, tmp_path):
        rng = np.random.default_rng(45)
        path = tmp_path / "s.csv"
        for case in range(300):
            t = np.r_[0.0, np.cumsum(rng.uniform(0.01, 1.0, rng.integers(1, 9)))]
            np.savetxt(path, np.c_[t, np.exp(-t / 2)], delimiter=",",
                       header="t,value" if case % 2 else "", comments="")
            text = path.read_bytes()
            if case % 3 == 0:
                text = b"\xef\xbb\xbf" + text
            path.write_bytes(mutate(text, rng))
            try:
                read_series(path)
            except FileFormatError as exc:
                assert str(exc).startswith(f"{path}: ")
