"""End-to-end CLI runs: files, footers, determinism, exit codes."""

import csv
import dataclasses
import hashlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from modbalance import (
    CalibrationTarget,
    MixtureSpec,
    OracleConfig,
    SolverConfig,
    calibrate_lambda,
    generate,
    halfspace_scores,
    load,
    toy_disk,
)
from modbalance import cli
from modbalance.cli import _SCHEMAS, _result_header, run


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def data_rows(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def result_rows(path):
    """A result CSV's rows as dicts keyed by its header."""
    return list(csv.DictReader(data_rows(read(path))))


def row_moderator(row):
    """The moderator columns w_0, ..., w_{d-1}, b of a result row."""
    d = sum(1 for key in row if key.startswith("w_"))
    return np.array([float(row[f"w_{j}"]) for j in range(d)]), float(row["b"])


def footer_config(text):
    # the reproducibility footer is the trailing block of comment lines
    tail = []
    for line in reversed(text.splitlines()):
        if not line.startswith("# "):
            break
        tail.append(line[2:])
    return "\n".join(reversed(tail)) + "\n"


@pytest.fixture()
def small_pop(tmp_path):
    path = tmp_path / "pop.csv"
    rc = run(["generate", "--seed", "3", "--d", "2", "--n", "30", "--k", "3",
              "--out", str(path)])
    assert rc == 0
    return path


def assert_footer_reruns(tmp_path, command, rc, *outputs):
    """Delete ``outputs`` and re-run ``command`` from the first one's footer:
    the exit code is ``rc`` again and every output comes back byte-identical."""
    first = [p.read_bytes() for p in outputs]
    cfg = tmp_path / "replay.cfg"
    cfg.write_text(footer_config(first[0].decode()))
    for p in outputs:
        p.unlink()
    assert run([command, "--config", str(cfg)]) == rc
    assert [p.read_bytes() for p in outputs] == first


class TestDefaults:
    def test_every_default_is_its_dataclass_default(self):
        def default(cls, name):
            return next(f.default for f in dataclasses.fields(cls) if f.name == name)

        sources = [(MixtureSpec, "generate"), (MixtureSpec, "sweep"),
                   (SolverConfig, "solve"), (SolverConfig, "calibrate"),
                   (SolverConfig, "sweep"), (OracleConfig, "oracle")]
        for cls, command in sources:
            for f in dataclasses.fields(cls):
                key = "max_violations" if cls is OracleConfig and f.name == "K" else f.name
                if key in ("seed", "lam") and command != "generate":
                    continue
                assert _SCHEMAS[command][key][1] == f.default, (command, key)
        assert _SCHEMAS["calibrate"]["delta"][1] == default(CalibrationTarget, "delta")
        assert _SCHEMAS["solve"]["lam"][1] == default(SolverConfig, "lam")
        for command in ("solve", "calibrate", "sweep"):
            assert _SCHEMAS[command]["seed"][1] == default(SolverConfig, "seed")
        for key in ("samples", "c", "seed"):
            assert _SCHEMAS["toy"][key][1] == inspect.signature(toy_disk).parameters[key].default


class TestGenerate:
    def test_rerun_is_bitwise_identical(self, tmp_path):
        out = tmp_path / "pop.csv"
        args = ["generate", "--seed", "7", "--out", str(out)]
        assert run(args) == 0
        first = out.read_bytes()
        assert run(args) == 0
        assert out.read_bytes() == first

    def test_footer_reruns_the_job(self, tmp_path):
        out = tmp_path / "pop.csv"
        assert run(["generate", "--seed", "9", "--d", "3", "--n", "12", "--k", "3",
                    "--out", str(out)]) == 0
        first = out.read_bytes()
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(footer_config(first.decode()))
        assert run(["generate", "--config", str(cfg)]) == 0
        assert out.read_bytes() == first

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "base.cfg"
        cfg.write_text(f"seed = 1\nn = 10\nk = 2\nd = 2\nout = {tmp_path / 'a.csv'}\n")
        assert run(["generate", "--config", str(cfg)]) == 0
        assert run(["generate", "--config", str(cfg), "--seed", "2",
                    "--out", str(tmp_path / 'b.csv')]) == 0
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_config_with_byte_order_mark_reads_its_first_key(self, tmp_path):
        # editors on some platforms start a UTF-8 file with one
        cfg = tmp_path / "bom.cfg"
        cfg.write_text("\ufeffseed = 4\nn = 10\nk = 2\nd = 2\n", encoding="utf-8")
        out = tmp_path / "pop.csv"
        assert run(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert load(out) == generate(MixtureSpec(d=2, n=10, k=2, seed=4))

    def test_seed_past_philox_key_range_exits_two_without_output(self, tmp_path, capsys):
        # 2**64 would otherwise key the streams of seed 0
        out = tmp_path / "pop.csv"
        assert run(["generate", "--seed", str(2**64), "--n", "20", "--k", "2",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"seed must be a nonnegative integer below 2**64, got {2**64}" in err
        assert list(tmp_path.iterdir()) == []


class TestSolve:
    def test_writes_result_and_moderator(self, tmp_path, small_pop, capsys):
        out = tmp_path / "fit.csv"
        rc = run(["solve", "--data", str(small_pop), "--out", str(out),
                  "--lambda", "1.0", "--restarts", "2", "--max-iters", "200"])
        assert rc == 0
        text = read(out)
        rows = data_rows(text)
        assert rows[0].startswith("lambda,dm,fos_desired")
        assert rows[0].endswith("violations,penalty,w_0,w_1,b")
        assert len(rows) == 2
        assert "# lam = 1" in text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fit.csv", "pop.csv"]
        assert run(["solve", "--data", str(small_pop), "--out", str(out),
                    "--moderator-out", str(tmp_path / "m.csv")]) == 2
        assert "unrecognized arguments: --moderator-out" in capsys.readouterr().err

    def test_rerun_is_bitwise_identical(self, tmp_path, small_pop):
        out = tmp_path / "fit.csv"
        args = ["solve", "--data", str(small_pop), "--out", str(out),
                "--restarts", "2", "--max-iters", "150"]
        assert run(args) == 0
        first = out.read_bytes()
        assert run(args) == 0
        assert out.read_bytes() == first

    def test_nonfinite_lambda_exits_two_without_output(self, tmp_path, small_pop, capsys):
        out = tmp_path / "fit.csv"
        assert run(["solve", "--data", str(small_pop), "--out", str(out),
                    "--lambda", "nan"]) == 2
        assert "finite" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["pop.csv"]

    def test_footer_reruns_the_job(self, tmp_path, small_pop):
        out = tmp_path / "fit.csv"
        assert run(["solve", "--data", str(small_pop), "--out", str(out),
                    "--lambda", "2.5", "--restarts", "2", "--max-iters", "120",
                    "--seed", "4"]) == 0
        assert_footer_reruns(tmp_path, "solve", 0, out)


class TestCalibrate:
    def test_feasible_run_exits_zero(self, tmp_path, small_pop):
        out = tmp_path / "cal.csv"
        rc = run(["calibrate", "--data", str(small_pop), "--out", str(out),
                  "--max-violations", "30", "--restarts", "2", "--max-iters", "150"])
        assert rc == 0
        row = data_rows(read(out))[1]
        assert row.startswith("0,true")

    def test_infeasible_run_exits_three(self, tmp_path, small_pop):
        # one near-frozen iteration cannot move the boundary off the data mass
        out = tmp_path / "cal.csv"
        rc = run(["calibrate", "--data", str(small_pop), "--out", str(out),
                  "--max-violations", "0", "--restarts", "1", "--max-iters", "1",
                  "--learning-rate", "1e-12"])
        assert rc == 3
        assert ",false," in data_rows(read(out))[1]

    def test_row_moderator_is_the_calibrated_one(self, tmp_path, small_pop):
        out = tmp_path / "cal.csv"
        assert run(["calibrate", "--data", str(small_pop), "--out", str(out),
                    "--max-violations", "15", "--restarts", "2", "--max-iters", "150",
                    "--delta", "0.5"]) == 0
        outcome = calibrate_lambda(load(str(small_pop)), CalibrationTarget(K=15, delta=0.5),
                                   SolverConfig(restarts=2, max_iters=150))
        (row,) = result_rows(out)
        w, b = row_moderator(row)
        assert w.tobytes() == outcome.result.moderator.w.tobytes()
        assert np.float64(b).tobytes() == np.float64(outcome.result.moderator.b).tobytes()
        assert float(row["lambda"]) == outcome.lam

    @pytest.mark.parametrize("cap, rc", [(15, 0), (10, 3)], ids=["feasible", "infeasible"])
    def test_footer_reruns_the_job(self, tmp_path, small_pop, cap, rc):
        out = tmp_path / "cal.csv"
        assert run(["calibrate", "--data", str(small_pop), "--out", str(out),
                    "--max-violations", str(cap), "--restarts", "1", "--max-iters", "50",
                    "--delta", "0.5"]) == rc
        assert_footer_reruns(tmp_path, "calibrate", rc, out)


class TestSweep:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run(["sweep", "--out", str(out), "--seeds", "2", "--seed", "0",
                  "--lambdas", "0.5,5.0", "--d", "2", "--n", "20", "--k", "2",
                  "--restarts", "2", "--max-iters", "150"])
        assert rc == 0
        rows = data_rows(read(out))
        assert rows[0] == _result_header("sweep", 2)
        assert len(rows) == 1 + 2 * 2
        seeds = {r.split(",")[1] for r in rows[1:]}
        assert seeds == {"0", "1"}

    def test_rerun_and_plot_are_deterministic(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--out", str(out), "--seeds", "2", "--seed", "4",
                "--lambdas", "0.5,5.0", "--d", "2", "--n", "20", "--k", "2",
                "--restarts", "2", "--max-iters", "150", "--plot"]
        assert run(args) == 0
        csv_first = out.read_bytes()
        svg_first = (tmp_path / "sweep.svg").read_bytes()
        assert run(args) == 0
        assert out.read_bytes() == csv_first
        assert (tmp_path / "sweep.svg").read_bytes() == svg_first
        assert svg_first.startswith(b"<svg ")
        assert b"polyline" in svg_first and b"polygon" in svg_first

    def test_plot_bands_are_per_lambda_mean_and_std_of_csv_columns(self, tmp_path, monkeypatch):
        # each distinct lambda is drawn once, in increasing order, and pools
        # every row of that value
        drawn = []
        monkeypatch.setattr(cli, "render_plot", lambda *args: drawn.append(args) or "")
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--out", str(out), "--plot", "--lambdas", "0.5,5.0,0.5",
                    "--seeds", "2", "--d", "2", "--n", "20", "--k", "2", "--restarts", "2",
                    "--max-iters", "150"]) == 0
        [(xs, *bands)] = drawn
        assert list(xs) == [0.5, 5.0]
        rows = result_rows(out)
        assert len(rows) == 2 * 3
        for column, (means, lo, hi) in zip(["dm", "fos_retained"], bands):
            for i, lam in enumerate(xs):
                values = [float(r[column]) for r in rows if float(r["lambda"]) == lam]
                assert len(values) == (4 if lam == 0.5 else 2)
                mean, std = float(np.mean(values)), float(np.std(values))
                assert (means[i], lo[i], hi[i]) == (mean, mean - std, mean + std)

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_no_seeds_exits_two_without_output(self, tmp_path, capsys, seeds):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--seeds", seeds, "--out", str(out), "--plot"]) == 2
        assert f"seeds must be at least 1, got {seeds}" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "s.svg").exists()

    def test_plot_path_equal_to_out_exits_two_without_output(self, tmp_path, capsys):
        out = tmp_path / "s.svg"
        assert run(["sweep", "--out", str(out), "--plot", "--seeds", "1", "--lambdas", "1.0",
                    "--d", "2", "--n", "10", "--k", "2", "--restarts", "1",
                    "--max-iters", "5"]) == 2
        assert "would overwrite --out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_plot_with_nonpositive_lambda_exits_two_without_output(self, tmp_path, capsys):
        # the plot's x-axis is log10(lambda); the grid is checked before any solve
        out = tmp_path / "s.csv"
        args = ["sweep", "--out", str(out), "--lambdas", "0,1", "--seeds", "1",
                "--d", "2", "--n", "10", "--k", "2", "--restarts", "1", "--max-iters", "5"]
        assert run([*args, "--plot"]) == 2
        assert "every lambda must be > 0, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert run(args) == 0
        assert len(data_rows(read(out))) == 3

    def test_bad_dataset_seed_fails_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # dataset 1's seed is 2**64: the job stops before dataset 0 is solved
        def no_solve(*args):
            raise AssertionError("sweep_lambda ran")

        monkeypatch.setattr("modbalance.cli.sweep_lambda", no_solve)
        out = tmp_path / "s.csv"
        assert run(["sweep", "--out", str(out), "--seed", str(2**64 - 1), "--seeds", "2",
                    "--d", "2", "--n", "10", "--k", "2"]) == 2
        assert f"seed must be a nonnegative integer below 2**64, got {2**64}" in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_footer_reruns_the_job(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--out", str(out), "--seeds", "1", "--seed", "2",
                    "--lambdas", "1.0", "--d", "2", "--n", "10", "--k", "2",
                    "--restarts", "1", "--max-iters", "100"]) == 0
        first = out.read_bytes()
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(footer_config(first.decode()))
        assert run(["sweep", "--config", str(cfg)]) == 0
        assert out.read_bytes() == first


class TestOracleCommand:
    def test_constrained_and_penalized(self, tmp_path, small_pop):
        out = tmp_path / "oracle.csv"
        rc = run(["oracle", "--data", str(small_pop), "--out", str(out),
                  "--max-violations", "30", "--angle-steps", "16",
                  "--offset-steps", "16"])
        assert rc == 0
        assert data_rows(read(out))[1].startswith("constrained,")
        rc = run(["oracle", "--data", str(small_pop), "--out", str(out),
                  "--mode", "penalized", "--lambda", "1.0", "--angle-steps", "16",
                  "--offset-steps", "16"])
        assert rc == 0
        assert data_rows(read(out))[1].startswith("penalized,")

    @pytest.mark.parametrize("flags", [
        ["--max-violations", "4", "--angle-steps", "16", "--no-use-candidates"],
        ["--mode", "penalized", "--lambda", "0.3", "--offset-steps", "24"],
    ], ids=["constrained", "penalized"])
    def test_footer_reruns_the_job(self, tmp_path, small_pop, flags):
        out = tmp_path / "oracle.csv"
        assert run(["oracle", "--data", str(small_pop), "--out", str(out), *flags]) == 0
        assert "eps_slack" not in read(out)
        assert_footer_reruns(tmp_path, "oracle", 0, out)

    def test_rejects_bad_mode(self, tmp_path, small_pop):
        rc = run(["oracle", "--data", str(small_pop), "--out",
                  str(tmp_path / "o.csv"), "--mode", "banana"])
        assert rc == 2

    def test_checks_mode_before_loading_data(self, tmp_path, capsys):
        rc = run(["oracle", "--data", str(tmp_path / "missing.csv"), "--out",
                  str(tmp_path / "o.csv"), "--mode", "bogus"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err and "missing.csv" not in err
        rc = run(["oracle", "--data", str(tmp_path / "missing.csv"), "--out",
                  str(tmp_path / "o.csv"), "--mode", "penalized", "--lambda", "nan"])
        assert rc == 2
        assert capsys.readouterr().err == "error: lam must be nonnegative and finite, got nan\n"

    @pytest.mark.parametrize("mode", ["constrained", "penalized"])
    @pytest.mark.parametrize("lam", ["nan", "-3"])
    def test_rejects_a_bad_lambda_in_either_mode(self, tmp_path, small_pop, capsys, mode, lam):
        # the constrained search ignores lambda, but its row and footer print it
        out = tmp_path / "o.csv"
        rc = run(["oracle", "--data", str(small_pop), "--out", str(out), "--mode", mode,
                  "--lambda", lam])
        assert rc == 2
        value = "nan" if lam == "nan" else "-3.0"
        assert capsys.readouterr().err == (
            f"error: lam must be nonnegative and finite, got {value}\n")
        assert not out.exists()


class TestResultRows:
    @pytest.mark.parametrize("command, flags", [
        ("solve", ["--lambda", "2.0", "--restarts", "2", "--max-iters", "150"]),
        ("calibrate", ["--max-violations", "15", "--restarts", "2", "--max-iters", "150",
                       "--delta", "0.5"]),
        ("sweep", ["--seeds", "2", "--seed", "3", "--lambdas", "0.5,5.0", "--d", "2",
                   "--n", "30", "--k", "3", "--restarts", "2", "--max-iters", "150"]),
        ("oracle", ["--max-violations", "4", "--angle-steps", "16", "--offset-steps", "16"]),
        ("oracle", ["--mode", "penalized", "--lambda", "0.3", "--angle-steps", "16",
                    "--offset-steps", "16"]),
    ], ids=["solve", "calibrate", "sweep", "oracle_constrained", "oracle_penalized"])
    def test_row_moderator_rescores_to_the_row(self, tmp_path, small_pop, command, flags):
        # 17 significant digits round-trip a float64, so the printed moderator
        # is the record's moderator and scores to the record's figures exactly
        out = tmp_path / "result.csv"
        data = [] if command == "sweep" else ["--data", str(small_pop)]
        assert run([command, *data, "--out", str(out), *flags]) == 0
        rows = result_rows(out)
        assert list(rows[0])[-3:] == ["w_0", "w_1", "b"]
        for row in rows:
            if command == "sweep":
                pop = generate(MixtureSpec(d=2, n=30, k=3, seed=int(row["seed"])))
            else:
                pop = load(str(small_pop))
            w, b = row_moderator(row)
            dm, penalty, violations, filtered = halfspace_scores(pop, w[None, :], np.array([b]))
            assert float(row["dm"]) == dm[0]
            assert float(row["penalty"]) == penalty[0]
            assert int(row["violations"]) == violations[0]
            assert int(row["filtered_count"]) == filtered[0]


class TestToy:
    def test_csv_shape_and_monotone_speech(self, tmp_path):
        out = tmp_path / "toy.csv"
        rc = run(["toy", "--out", str(out), "--samples", "20000",
                  "--theta-steps", "21", "--seed", "5"])
        assert rc == 0
        rows = data_rows(read(out))
        assert rows[0] == "theta,dm,fos"
        assert len(rows) == 22
        fos = [float(r.split(",")[2]) for r in rows[1:]]
        assert all(b >= a for a, b in zip(fos, fos[1:]))

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_empty_grid_exits_two_without_output(self, tmp_path, capsys, steps):
        out = tmp_path / "toy.csv"
        assert run(["toy", "--out", str(out), "--theta-steps", steps]) == 2
        assert f"theta_steps must be at least 1, got {steps}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_nonfinite_cost_exits_two_without_output(self, tmp_path, capsys, c):
        out = tmp_path / "toy.csv"
        assert run(["toy", "--out", str(out), "--c", c, "--samples", "100"]) == 2
        assert f"manipulation cost c must be positive, got {c}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_two_without_output(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        assert run(["toy", "--out", str(out), "--seed", "-1", "--samples", "100"]) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run(["generate", "--frobnicate", "1"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required(self):
        assert run(["generate"]) == 2

    @pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x85", "\u2028"])
    def test_config_lines_end_at_newline_only(self, tmp_path, capsys, brk):
        # str.splitlines would also break at brk and misnumber the lines after it
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"n = 10{brk}\nk = 2\nno equals sign\n", encoding="utf-8")
        assert run(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert f"{cfg}:3: expected 'key = value'" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert run(["generate", "--config", str(cfg), "--out",
                    str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("command, text, message", [
        ("generate", "n = 10\nfoo = 1\n", "2: unknown config key for generate: foo"),
        ("solve", "data = pop.csv\nout = r.csv\nlam = abc\n",
         "3: bad value for lam: could not convert string to float: 'abc'"),
        ("solve", "lam = 1\nseed = 2\nlam = 5\n", "3: duplicate key 'lam' (first on line 1)"),
    ], ids=["unknown_key", "bad_value", "duplicate_key"])
    def test_config_errors_name_file_and_line(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(text)
        assert run([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:{message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["job.cfg"]

    @pytest.mark.parametrize("command, text, flags, message", [
        ("generate", "n = 0\n", [], "1: n must be at least 1, got 0"),
        ("solve", "data = pop.csv\nrestarts = 0\n", ["--out", "r.csv"],
         "2: restarts must be at least 1, got 0"),
        ("calibrate", "max_violations = 3\ndelta = 0\n", ["--data", "pop.csv", "--out", "r.csv"],
         "2: delta must be positive and finite, got 0.0"),
        ("oracle", "out = o.csv\nmax_violations = -1\n", ["--data", "pop.csv"],
         "2: K must be at least 0, got -1"),
        ("toy", "out = t.csv\nc = 0\n", [], "2: manipulation cost c must be positive, got 0.0"),
        ("generate", "n = 10\nsigma_lo = -1\n", [],
         "2: sigma_lo must be positive and finite, got -1.0"),
        ("generate", "sigma_hi = inf\n", [], "1: sigma_hi must be positive and finite, got inf"),
        ("generate", "c_lo = 0\n", [], "1: c_lo must be positive and finite, got 0.0"),
        ("generate", "n = 10\nc_hi = inf\n", [], "2: c_hi must be positive and finite, got inf"),
        ("generate", "n = 20\nk = 2\nsigma_lo = 1e300\nsigma_hi = 1e308\n", [],
         "4: sigma_hi = 1e+308 overflows a drawn feature; every feature must be finite"),
    ], ids=["generate_n", "solve_restarts", "calibrate_delta", "oracle_max_violations", "toy_c",
            "generate_sigma_lo", "generate_sigma_hi", "generate_c_lo", "generate_c_hi",
            "generate_sigma_hi_overflows"])
    def test_config_setting_errors_name_file_and_line(
        self, tmp_path, capsys, monkeypatch, command, text, flags, message
    ):
        monkeypatch.chdir(tmp_path)  # the relative paths below
        cfg = tmp_path / "job.cfg"
        cfg.write_text(text)
        out = ["--out", str(tmp_path / "x.csv")] if command == "generate" else []
        assert run([command, "--config", str(cfg), *out, *flags]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:{message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["job.cfg"]

    @pytest.mark.parametrize("text, flags, message", [
        ("n = 10\n", ["--n", "0"], "n must be at least 1, got 0"),
        ("n = 10\nk = 3\n", [], "k = 3 must divide n = 10"),
        ("c_lo = 2.0\n", [], "need 0 < c_lo <= c_hi"),
        ("n = 10\n", ["--sigma-hi", "inf"], "sigma_hi must be positive and finite, got inf"),
        ("n = 20\nk = 2\n", ["--sigma-lo", "1e300", "--sigma-hi", "1e308"],
         "sigma_hi = 1e+308 overflows a drawn feature; every feature must be finite"),
    ], ids=["flag_replaces_line", "k_divides_n", "c_lo_le_c_hi", "flag_sigma_hi_inf",
            "flag_sigma_hi_overflows"])
    def test_flag_and_cross_field_errors_name_no_line(
        self, tmp_path, capsys, text, flags, message
    ):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(text)
        assert run(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                    *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, flags, message", [
        ("solve", ["--restarts", "0"], "restarts must be at least 1, got 0"),
        ("calibrate", ["--max-violations", "3", "--delta", "0"],
         "delta must be positive and finite, got 0.0"),
        ("oracle", ["--angle-steps", "2"], "angle_steps must be at least 8, got 2"),
    ], ids=["solve_restarts", "calibrate_delta", "oracle_angle_steps"])
    def test_checks_settings_before_loading_data(self, tmp_path, capsys, command, flags, message):
        rc = run([command, "--data", str(tmp_path / "missing.csv"), "--out",
                  str(tmp_path / "o.csv"), *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, flag", [("solve", "--tol-grad"), ("sweep", "--a-min")])
    def test_removed_solver_flags_are_unrecognized(self, tmp_path, small_pop, capsys, command,
                                                   flag):
        data = ["--data", str(small_pop)] if command == "solve" else []
        value = "1e-8" if flag == "--tol-grad" else "1e-6"
        assert run([command, *data, "--out", str(tmp_path / "r.csv"), flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_config_boolean_that_is_not_one(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"out = {tmp_path / 's.csv'}\nplot = maybe\n")
        assert run(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: bad value for plot: not a boolean: 'maybe'\n")

    def test_unreadable_config(self, tmp_path, capsys):
        cfg = tmp_path / "missing.cfg"
        assert run(["toy", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {cfg}: ") and "No such file" in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_data_file(self, tmp_path):
        assert run(["solve", "--data", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "r.csv")]) == 2

    def test_malformed_dataset(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x_0,x_1\n0.0,0.0\n")
        assert run(["solve", "--data", str(bad), "--out",
                    str(tmp_path / "r.csv")]) == 2

    def test_bad_mixture_params(self, tmp_path):
        assert run(["generate", "--out", str(tmp_path / "x.csv"),
                    "--n", "10", "--k", "3"]) == 2

    def test_bad_lambda_list(self, tmp_path):
        assert run(["sweep", "--out", str(tmp_path / "s.csv"),
                    "--lambdas", "0.5,banana"]) == 2
        assert run(["sweep", "--out", str(tmp_path / "s.csv"),
                    "--lambdas", ""]) == 2

    @pytest.mark.parametrize("command, flags, source", [
        ("solve", ["--restarts", "1", "--max-iters", "5"], "data"),
        ("calibrate", ["--max-violations", "5", "--restarts", "1", "--max-iters", "5"], "data"),
        ("oracle", ["--angle-steps", "8", "--offset-steps", "8"], "data"),
        ("solve", ["--restarts", "1", "--max-iters", "5"], "config"),
        ("calibrate", ["--max-violations", "5", "--restarts", "1", "--max-iters", "5"],
         "config"),
        ("oracle", ["--angle-steps", "8", "--offset-steps", "8"], "config"),
        ("generate", ["--n", "20", "--k", "2"], "config"),
        ("toy", ["--samples", "100"], "config"),
        ("sweep", ["--plot", "--seeds", "1", "--lambdas", "1.0", "--d", "2", "--n", "10",
                   "--k", "2", "--restarts", "1", "--max-iters", "5"], "config"),
    ], ids=["solve", "calibrate", "oracle", "solve_config", "calibrate_config",
            "oracle_config", "generate_config", "toy_config", "sweep_plot_config"])
    def test_out_equal_to_data_exits_two_and_keeps_the_input(
        self, tmp_path, small_pop, capsys, command, flags, source
    ):
        # the sweep case's config file sits where its plot would go
        data = ["--data", str(small_pop)] if command in ("solve", "calibrate", "oracle") else []
        if source == "data":
            target, args = small_pop, ["--out", str(small_pop)]
        else:
            target = tmp_path / ("job.svg" if command == "sweep" else "job.cfg")
            target.write_text(f"out = {tmp_path / 'job.csv' if command == 'sweep' else target}\n")
            args = ["--config", str(target)]
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert run([command, *data, *args, *flags]) == 2
        assert f"output {target} would overwrite --{source} {target}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("link", ["symlink_to", "hardlink_to"])
    def test_out_linked_to_data_exits_two_and_keeps_the_input(self, tmp_path, small_pop, link):
        link_path = tmp_path / "link.csv"
        getattr(link_path, link)(small_pop)
        before = small_pop.read_bytes()
        assert run(["solve", "--data", str(small_pop), "--out", str(link_path),
                    "--restarts", "1", "--max-iters", "5"]) == 2
        assert small_pop.read_bytes() == before

    @pytest.mark.parametrize("link", ["symlink_to", "hardlink_to"])
    def test_out_linked_to_config_exits_two_and_keeps_the_input(self, tmp_path, link):
        cfg, link_path = tmp_path / "job.cfg", tmp_path / "link.csv"
        cfg.write_text(f"out = {link_path}\nsamples = 100\n")
        getattr(link_path, link)(cfg)
        before = cfg.read_bytes()
        assert run(["toy", "--config", str(cfg)]) == 2
        assert cfg.read_bytes() == before

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0
        assert run(["sweep", "--help"]) == 0


# The README's command-line jobs, in its order, each with its outputs' sha256.
# The sweep adds --seeds 2 to stay quick. fit.csv and cal.csv are the only
# outputs of a single-lambda solve; the sweep's records come from the
# grid-as-one-iterate path, so together they pin both callers of the solver.
_README_JOBS = [
    ("generate --seed 7 --out pop.csv", {
        "pop.csv": "a23e09aa0b42b1d01ffe2fde6dd6a2a9c776982d5aa83c92ae6cd19262e04c62"}),
    ("solve --data pop.csv --lambda 1.0 --out fit.csv", {
        "fit.csv": "37e488920ff92556ae8133bb7700dcadc41e97c67de2327938188206820d467f"}),
    ("calibrate --data pop.csv --max-violations 25 --out cal.csv", {
        "cal.csv": "3d7d8f2c1d3ca96c1a663dc93cae29d741fb98d3ba2d4f77a7349353d27ce4b1"}),
    ("sweep --out sweep.csv --plot", {
        "sweep.csv": "055f800845dfc6bec3f3bd74c08c6c50355cd1183111366d93de451c15fb9b6f",
        "sweep.svg": "e7976e659d4a140db16a38d31b90ad99571cfb8d7810f598ab4ea048557e389b"}),
    ("generate --seed 7 --d 2 --n 50 --k 5 --out pop2.csv", {
        "pop2.csv": "7f0859ac9d96efcb95318401837739140281477ee627b35b36f25dde2e23bb4c"}),
    ("oracle --data pop2.csv --mode penalized --lambda 1.0 --out oracle.csv", {
        "oracle.csv": "41eb12743852cc06c7dbdf0c5f020c85519631883c8d5ab47653e22e9d83da2e"}),
    ("oracle --data pop2.csv --mode constrained --max-violations 5 --out oracle_k5.csv", {
        "oracle_k5.csv": "05723544e2d4f68e9efab37f8a33b5e243ba078dfc7d0776ae7a8d3ec75c220f"}),
    ("oracle --data pop2.csv --out oracle_k0.csv", {
        "oracle_k0.csv": "13e5c6b9c4de42fe92a4d9e38a1b9f5a6e0c39c044c297e14569330c343a9d97"}),
    ("toy --out toy.csv", {
        "toy.csv": "0b374e2c9bac5e7b59026e80b777f1eb20fa1b84db99bae6a6b92f771cdb51f1"}),
]


def test_readme_jobs_keep_their_bytes(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [line[len("modbalance "):] for line in readme.splitlines()
                if line.startswith("modbalance ")]
    assert commands == [command for command, _ in _README_JOBS]
    monkeypatch.chdir(tmp_path)
    for command, digests in _README_JOBS:
        extra = ["--seeds", "2"] if command.startswith("sweep") else []
        assert run(command.split() + extra) == 0, command
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
