"""Mixture generation determinism and dataset file round-trips."""

import numpy as np
import pytest

from modbalance import DatasetFormatError, MixtureSpec, generate, load, save


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

    def test_missing_trend(self, tmp_path):
        path = self._write(tmp_path, "x_0,x_1,c\n0.0,0.0,1.0\n")
        with pytest.raises(DatasetFormatError, match="trend"):
            load(path)

    @pytest.mark.parametrize("trend", ["0,0", "nan,0"], ids=["zero", "nan"])
    def test_bad_trend_reports_line_number(self, tmp_path, trend):
        path = self._write(tmp_path, f"# d = 2\n# trend = {trend}\nx_0,x_1,c\n0.0,0.0,1.0\n")
        with pytest.raises(DatasetFormatError, match="line 3: trend must be finite and nonzero"):
            load(path)

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

