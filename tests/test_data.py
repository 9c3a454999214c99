"""Mixture generation determinism and dataset file round-trips."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from modbalance import DatasetFormatError, MixtureSpec, generate, load, save
from modbalance import data


class TestMixtureSpec:
    def test_defaults(self):
        spec = MixtureSpec()
        assert (spec.d, spec.n, spec.k) == (5, 500, 5)
        assert (spec.sigma_lo, spec.sigma_hi) == (0.3, 0.5)
        assert (spec.c_lo, spec.c_hi) == (0.5, 1.5)

    def test_k_must_divide_n(self):
        with pytest.raises(ValueError):
            MixtureSpec(n=10, k=3)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            MixtureSpec(sigma_lo=0.5, sigma_hi=0.3)
        with pytest.raises(ValueError):
            MixtureSpec(c_lo=0.0)


class TestGenerate:
    def test_default_population_shape(self):
        pop = generate(MixtureSpec())
        assert pop.n == 500 and pop.d == 5
        assert np.all(pop.costs >= 0.5) and np.all(pop.costs <= 1.5)
        np.testing.assert_array_equal(pop.trend.e, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_same_seed_is_bitwise_identical(self):
        a = generate(MixtureSpec(seed=42))
        b = generate(MixtureSpec(seed=42))
        assert a == b
        assert a.feature_matrix.tobytes() == b.feature_matrix.tobytes()

    def test_seed_pins_the_dataset_bit_for_bit(self):
        # the data module's promise; a moved bit in any ingredient's stream shows here
        pop = generate(MixtureSpec(seed=7))
        assert hashlib.sha256(pop.feature_matrix.tobytes()).hexdigest() == (
            "a569a9fb1102febb29b048b1f7838295480f751b4b282e2783ebd3115cce9447"
        )
        assert hashlib.sha256(pop.costs.tobytes()).hexdigest() == (
            "67cc13d403770f272da35311a31d05e88c18965de4df431865cdab81f0165b90"
        )

    def test_different_seeds_differ(self):
        assert generate(MixtureSpec(seed=1)) != generate(MixtureSpec(seed=2))

    def test_degenerate_mixture_collapses_to_center(self):
        spec = MixtureSpec(d=3, n=30, k=1, sigma_lo=1e-9, sigma_hi=1e-9)
        pop = generate(spec)
        center = pop.feature_matrix.mean(axis=0)
        assert np.all(np.linalg.norm(pop.feature_matrix - center, axis=1) <= 1e-6)

    def test_empirical_mean_concentrates(self):
        # with the center count growing alongside n the grand mean is a sum of
        # ~n independent unit-scale terms, so |mean| <= 5/sqrt(n) is a 3-sigma
        # bound per coordinate at the default noise level
        for seed in range(5):
            for n in (200, 800, 3200):
                pop = generate(MixtureSpec(d=3, n=n, k=n // 2, seed=seed))
                mean = pop.feature_matrix.mean(axis=0)
                assert np.all(np.abs(mean) <= 5.0 / np.sqrt(n))


def assert_same_bits(a, b):
    assert a.feature_matrix.tobytes() == b.feature_matrix.tobytes()
    assert a.costs.tobytes() == b.costs.tobytes()
    assert a.trend.e.tobytes() == b.trend.e.tobytes()


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        pop = generate(MixtureSpec(seed=3))
        path = tmp_path / "pop.csv"
        save(pop, path)
        assert load(path) == pop

    def test_written_file_is_deterministic(self, tmp_path):
        pop = generate(MixtureSpec(d=2, n=20, k=2, seed=5))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save(pop, p1)
        save(pop, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_awkward_floats_survive(self, tmp_path):
        from modbalance import Population

        X = np.array([[1e-300, -1.2345678901234567], [3.0000000000000004, 7e299]])
        pop = Population.from_arrays(X, [1.5e-7, 2.25], [1.0, 0.0])
        path = tmp_path / "pop.csv"
        save(pop, path)
        assert load(path) == pop

    def test_spellings_float_accepts_load_with_its_bits(self, tmp_path):
        rows = [["1_0", " 2.5 ", "+3"], ["-0.1", "1e-3", "0.5"]]
        path = tmp_path / "pop.csv"
        path.write_text("# trend = 1,0\nx_0,x_1,c\n" + "".join(",".join(r) + "\n" for r in rows))
        pop = load(path)
        expected = np.array([[float(v) for v in r] for r in rows])
        assert pop.feature_matrix.tobytes() == expected[:, :2].tobytes()
        assert pop.costs.tobytes() == expected[:, 2].tobytes()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # editors on some platforms start a UTF-8 file with one
        pop = generate(MixtureSpec(d=2, n=20, k=2, seed=5))
        path = tmp_path / "pop.csv"
        save(pop, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert_same_bits(load(path), pop)


class TestLoadErrors:
    def _write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return path

    def test_missing_cost_column(self, tmp_path):
        path = self._write(tmp_path, "# d = 2\n# trend = 1,0\nx_0,x_1\n0.0,0.0\n")
        with pytest.raises(DatasetFormatError, match="'c'"):
            load(path)

    def test_header_only_file(self, tmp_path):
        path = self._write(tmp_path, "# d = 2\n# trend = 1,0\nx_0,x_1,c\n")
        with pytest.raises(DatasetFormatError, match="empty population"):
            load(path)

    def test_bad_float_reports_line_number(self, tmp_path):
        path = self._write(
            tmp_path, "# d = 2\n# trend = 1,0\nx_0,x_1,c\n0.0,0.0,1.0\n0.0,oops,1.0\n"
        )
        with pytest.raises(DatasetFormatError, match="line 5"):
            load(path)

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        path = self._write(tmp_path, "# d = 2\n# trend = 1,0\nx_0,x_1,c\n0.0,1.0\n")
        with pytest.raises(DatasetFormatError, match="line 4"):
            load(path)

    @pytest.mark.parametrize(
        "row, message",
        [("0.0,1.0,2.0,3.0", "expected 3 fields, got 4"), ("0.0,1.0 # note,1.0", "bad float"),
         ("0.0,1.0\x1f,1.0", "bad float"), ("0.0,1.0\x1c,1.0", "bad float")],
        ids=["ragged", "mid_row_comment", "unit_separator", "file_separator"],
    )
    def test_bad_row_among_good_reports_its_line(self, tmp_path, row, message):
        good = "0.0,0.0,1.0\n"
        text = "# d = 2\n# trend = 1,0\nx_0,x_1,c\n" + good * 2 + row + "\n" + good
        path = self._write(tmp_path, text)
        with pytest.raises(DatasetFormatError, match=f"line 6: {message}"):
            load(path)

    @pytest.mark.parametrize("brk", ["\v", "\f", "\x85", "\u2028", "\u2029"])
    def test_lines_end_at_newline_only(self, tmp_path, brk):
        # float skips brk as whitespace, so it belongs to its row: the row
        # loads with float's value and the rows after it keep their line numbers
        head = "# d = 2\n# n = 3\n# trend = 1,0\nx_0,x_1,c\n"
        path = tmp_path / "pop.csv"
        path.write_text(head + f"0.5,{brk}1.0,1.0\n0.0,0.0,2.0{brk}\n1.0,1.0,1.0\n",
                        encoding="utf-8")
        pop = load(path)
        assert pop.feature_matrix[0, 1] == float(f"{brk}1.0") and pop.costs[1] == 2.0
        path.write_text(head + f"0.0,0.0,1.0{brk}\n0.0,0.0,1.0\n0.0,oops,1.0\n",
                        encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="line 7: bad float"):
            load(path)

    def test_missing_trend(self, tmp_path):
        path = self._write(tmp_path, "x_0,x_1,c\n0.0,0.0,1.0\n")
        with pytest.raises(DatasetFormatError, match="trend"):
            load(path)

    @pytest.mark.parametrize("trend", ["0,0", "nan,0"], ids=["zero", "nan"])
    def test_bad_trend_reports_line_number(self, tmp_path, trend):
        path = self._write(tmp_path, f"# d = 2\n# trend = {trend}\nx_0,x_1,c\n0.0,0.0,1.0\n")
        with pytest.raises(DatasetFormatError, match="line 3: trend must be finite and nonzero"):
            load(path)

    @pytest.mark.parametrize("text, line, message", [
        ("# d = 2\n# trend\nx_0,x_1,c\n0.0,0.0,1.0\n", 2,
         "malformed metadata comment '# trend'"),
        ("# trend = 1,0\nx_0,y,c\n0.0,0.0,1.0\n", 2,
         "feature columns must be x_0..x_{d-1}, got ['x_0', 'y']"),
        ("# d = 3\n# trend = 1,0\nx_0,x_1,c\n0.0,0.0,1.0\n", 3,
         "metadata d = 3 disagrees with header width 2"),
        ("# d = two\n# trend = 1,0\nx_0,x_1,c\n0.0,0.0,1.0\n", 3,
         "bad metadata value: invalid literal for int() with base 10: 'two'"),
        ("# d = 2\n# trend = 1,0,0\nx_0,x_1,c\n0.0,0.0,1.0\n", 3,
         "trend has 3 coordinates, expected 2"),
    ], ids=["meta_without_equals", "feature_columns", "d_disagrees", "bad_meta_value",
            "trend_length"])
    def test_header_and_metadata_errors_report_their_line(self, tmp_path, text, line, message):
        with pytest.raises(DatasetFormatError) as info:
            load(self._write(tmp_path, text))
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"

    def test_no_header(self, tmp_path):
        path = self._write(tmp_path, "# d = 2\n")
        with pytest.raises(DatasetFormatError, match="header"):
            load(path)

    def test_nonpositive_cost_reports_line_number(self, tmp_path):
        path = self._write(
            tmp_path, "# d = 2\n# trend = 1,0\nx_0,x_1,c\n0.0,0.0,1.0\n0.0,0.0,-1.0\n"
        )
        with pytest.raises(DatasetFormatError, match="line 5: cost"):
            load(path)

    def test_nonfinite_cost_reports_line_number(self, tmp_path):
        path = self._write(
            tmp_path, "# d = 2\n# trend = 1,0\nx_0,x_1,c\n0.0,0.0,1.0\n0.0,0.0,1.0\n1.0,1.0,inf\n"
        )
        with pytest.raises(DatasetFormatError, match="line 6: cost"):
            load(path)

    def test_nonfinite_feature_reports_line_number(self, tmp_path):
        path = self._write(
            tmp_path, "# d = 2\n# trend = 1,0\nx_0,x_1,c\n0.0,nan,1.0\n0.0,0.0,-1.0\n"
        )
        with pytest.raises(DatasetFormatError, match="line 4: features"):
            load(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        save(generate(MixtureSpec(seed=3)), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "# n = 500" and len(lines) == 4 + 500
        path.write_text("\n".join(lines[: 4 + 399]) + "\n")
        with pytest.raises(DatasetFormatError, match="n = 500 disagrees with 399"):
            load(path)

    def test_repeated_n_footer_loads(self, tmp_path):
        pop = generate(MixtureSpec(d=2, n=20, k=2, seed=5))
        path = tmp_path / "pop.csv"
        save(pop, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("# d = 2\n# n = 20\n# seed = 5\n")
        assert load(path) == pop

    def test_conflicting_trend_footer_is_rejected(self, tmp_path):
        path = self._write(tmp_path, "# d = 2\n# trend = 1,0\nx_0,x_1,c\n0.5,0.5,1.0\n"
                                     "# trend = 0,1\n")
        with pytest.raises(DatasetFormatError) as err:
            load(path)
        assert str(err.value) == "line 5: metadata trend = 0,1 disagrees with trend = 1,0 on line 2"
        assert err.value.line == 5

    def test_conflicting_n_is_rejected_even_when_the_last_matches(self, tmp_path):
        path = self._write(tmp_path, "# n = 3\n# trend = 1,0\nx_0,x_1,c\n0.5,0.5,1.0\n"
                                     "0.1,0.2,1.0\n# n = 2\n")
        with pytest.raises(DatasetFormatError,
                           match="^line 6: metadata n = 2 disagrees with n = 3 on line 1$"):
            load(path)


def whole_file_text(pop):
    """The dataset text, formatted all at once as by definition."""
    lines = [f"# d = {pop.d}", f"# n = {pop.n}",
             "# trend = " + ",".join("%.17g" % v for v in pop.trend.e),
             ",".join([f"x_{j}" for j in range(pop.d)] + ["c"])]
    table = np.column_stack([pop.feature_matrix, pop.costs])
    lines += [",".join("%.17g" % v for v in row) for row in table]
    return "\n".join(lines) + "\n"


class TestBlocks:
    """``save`` formats about ``_BLOCK_CHARS`` characters of rows at a time,
    and ``load`` reads ``_BLOCK_CHARS`` characters and then the rest of that
    line. At the sizes here a read ends inside a number, between rows and
    between the two characters of a \\r\\n."""

    # save formats _BLOCK_CHARS // (25 * (d + 1)) rows per block, at least one:
    # at d = 2 these give 1, 1, 1, 1, 3 and 7 rows
    SIZES = [1, 2, 3, 7, 3 * 75, 7 * 75]
    HEAD = "# d = 2\n# trend = 1,0\nx_0,x_1,c\n"
    GOOD = "0.5,-1.25,1.0\n"

    def _load_at(self, monkeypatch, path, chars):
        monkeypatch.setattr(data, "_BLOCK_CHARS", chars)
        return load(path)

    @pytest.mark.parametrize("chars", SIZES)
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_save_writes_the_same_bytes_at_every_block_size(self, tmp_path, monkeypatch,
                                                            n, chars):
        pop = generate(MixtureSpec(d=2, n=n, k=1, seed=5))
        path = tmp_path / "pop.csv"
        monkeypatch.setattr(data, "_BLOCK_CHARS", chars)
        save(pop, path)
        assert path.read_bytes() == whole_file_text(pop).encode()
        assert_same_bits(load(path), pop)

    @pytest.mark.parametrize("chars", [1, 2, 3, 4, 5, 6, 7, 64])
    @pytest.mark.parametrize("row, message", [
        ("0.0,oops,1.0", "bad float: could not convert string to float: 'oops'"),
        ("0.0,1.0", "expected 3 fields, got 2"),
        ("0.0,nan,1.0", "features must be finite"),
        ("0.0,1.0\x1c,1.0", "bad float: could not convert string to float: '1.0\\x1c'"),
    ], ids=["bad_float", "field_count", "nonfinite_feature", "file_separator"])
    def test_bad_row_in_a_later_block_names_its_line(self, tmp_path, monkeypatch, row, message,
                                                     chars):
        path = tmp_path / "pop.csv"
        path.write_text(self.HEAD + self.GOOD * 20 + row + "\n" + self.GOOD * 3)
        with pytest.raises(DatasetFormatError) as info:
            self._load_at(monkeypatch, path, chars)
        assert str(info.value) == f"line 24: {message}" and info.value.line == 24

    @pytest.mark.parametrize("chars", [1, 7, 64])
    @pytest.mark.parametrize("first, later, tail, expected", [
        # a metadata check outranks a bad row, wherever the row is
        (GOOD, "0.0,oops,1.0", "# n = 24\n", "line 3: metadata n = 24 disagrees with 25 data rows"),
        # malformed metadata is met in the scan, after the bad row
        (GOOD, "0.0,oops,1.0", "# oops\n", "line 29: malformed metadata comment '# oops'"),
        # a row that does not parse outranks an earlier row with a bad value
        ("0.0,nan,1.0\n", "0.0,oops,1.0", "",
         "line 24: bad float: could not convert string to float: 'oops'"),
        # otherwise the first bad row of each kind is named
        ("0.0,1.0\n", "0.0,oops,1.0", "", "line 4: expected 3 fields, got 2"),
        ("0.0,nan,1.0\n", "0.0,0.0,-1.0", "", "line 4: features must be finite"),
    ], ids=["n_mismatch", "malformed_footer", "parse_before_value", "first_parse_error",
            "first_bad_value"])
    def test_errors_keep_the_whole_file_order(self, tmp_path, monkeypatch, first, later, tail,
                                              expected, chars):
        path = tmp_path / "pop.csv"
        path.write_text(self.HEAD + first + self.GOOD * 19 + later + "\n"
                        + self.GOOD * 4 + tail)
        with pytest.raises(DatasetFormatError) as info:
            self._load_at(monkeypatch, path, chars)
        assert str(info.value) == expected

    @pytest.mark.parametrize("chars", [1, 2, 3, 5, 7])
    def test_line_breaks_across_blocks(self, tmp_path, monkeypatch, chars):
        pop = generate(MixtureSpec(d=2, n=6, k=1, seed=2))
        text = whole_file_text(pop)
        path = tmp_path / "pop.csv"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        assert_same_bits(self._load_at(monkeypatch, path, chars), pop)
        path.write_bytes(text.rstrip("\n").encode())
        assert_same_bits(self._load_at(monkeypatch, path, chars), pop)
        path.write_bytes((text + "# seed = 2\n# n = 6\n").encode())
        assert_same_bits(self._load_at(monkeypatch, path, chars), pop)
        bad = text.split("\n")
        bad[6] = "0.0,oops,1.0"
        path.write_bytes("\r\n".join(bad).encode())
        with pytest.raises(DatasetFormatError, match="^line 7: bad float"):
            self._load_at(monkeypatch, path, chars)

    @pytest.mark.parametrize("step", ["save", "load"])
    def test_traced_peak_is_a_few_tables(self, tmp_path, step):
        # n = 1e5, d = 5: a 4.6 MiB table in an 11.4 MiB file. Whole-file
        # versions peaked at 8.2x (save) and 10.2x (load); blocks give 0.6x and
        # 2.4x, where load holds the table twice while joining its blocks.
        pop = generate(MixtureSpec(d=5, n=100_000, k=5, seed=1))
        path = tmp_path / "pop.csv"
        save(pop, path)
        table_bytes = pop.n * (pop.d + 1) * 8
        tracemalloc.start()
        try:
            back = load(path) if step == "load" else save(pop, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * table_bytes, peak / table_bytes
        if step == "load":
            assert_same_bits(back, pop)
