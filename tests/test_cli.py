"""End-to-end CLI runs: files, footers, determinism, exit codes."""

import dataclasses
import inspect

import numpy as np
import pytest

from modbalance import CalibrationTarget, MixtureSpec, OracleConfig, SolverConfig, toy_disk
from modbalance.cli import _SCHEMAS, SWEEP_HEADER, run


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def data_rows(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


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


class TestSolve:
    def test_writes_result_and_moderator(self, tmp_path, small_pop):
        out = tmp_path / "fit.csv"
        rc = run(["solve", "--data", str(small_pop), "--out", str(out),
                  "--lambda", "1.0", "--restarts", "2", "--max-iters", "200"])
        assert rc == 0
        text = read(out)
        rows = data_rows(text)
        assert rows[0].startswith("lambda,dm,fos_desired")
        assert len(rows) == 2
        mod_text = read(tmp_path / "fit.moderator.csv")
        assert data_rows(mod_text)[0] == "w_0,w_1,b"
        assert "# lam = 1" in text

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
        assert not out.exists()
        assert not (tmp_path / "fit.moderator.csv").exists()

    def test_moderator_out_equal_to_out_exits_two_without_output(
        self, tmp_path, small_pop, capsys
    ):
        out = tmp_path / "fit.csv"
        assert run(["solve", "--data", str(small_pop), "--out", str(out),
                    "--moderator-out", str(out), "--restarts", "1", "--max-iters", "5"]) == 2
        assert "would overwrite --out" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["pop.csv"]

    def test_footer_reruns_the_job(self, tmp_path, small_pop):
        out = tmp_path / "fit.csv"
        assert run(["solve", "--data", str(small_pop), "--out", str(out),
                    "--lambda", "2.5", "--restarts", "2", "--max-iters", "120",
                    "--seed", "4"]) == 0
        assert_footer_reruns(tmp_path, "solve", 0, out, tmp_path / "fit.moderator.csv")


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
        assert rows[0] == SWEEP_HEADER
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


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run(["generate", "--frobnicate", "1"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required(self):
        assert run(["generate"]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert run(["generate", "--config", str(cfg), "--out",
                    str(tmp_path / "x.csv")]) == 2

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

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0
        assert run(["sweep", "--help"]) == 0
