"""Command-line front end.

Subcommands: generate | solve | calibrate | sweep | oracle | toy. Every
parameter can come from a flat ``key = value`` config file (``--config``),
with explicit flags winning. Each output CSV ends with a reproducibility
footer: ``#``-prefixed ``key = value`` lines holding every resolved
parameter, so stripping the ``# `` prefix yields a config file that re-runs
the job bit for bit.

Exit codes: 0 success, 2 usage/validation error, 3 infeasible calibration.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys

import numpy as np

from . import data as data_mod
from .data import MixtureSpec
from .oracle import NoFeasibleCandidateError, OracleConfig, oracle_2d, oracle_penalized_2d, toy_disk
from .solver import (
    CalibrationTarget,
    SolverConfig,
    calibrate_lambda,
    pgd_solve,
    sweep_lambda,
)
from .svgplot import Series, render_plot

__all__ = ["run", "main"]

SWEEP_HEADER = "lambda,seed,dm,fos_desired,fos_retained,filtered_count,objective,iterations,converged"

_DEFAULT_LAMBDAS = [float(v) for v in np.logspace(-1.0, 2.0, 7)]


class UsageError(Exception):
    pass


# ----------------------------------------------------------------------
# parameter schemas: key -> (type, default); None default means required
# ----------------------------------------------------------------------

def _fields_schema(cls) -> dict:
    """Schema of a config dataclass's fields; seed and lam come per job."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in ("seed", "lam")]
    return {f.name: (type(f.default).__name__, f.default) for f in fields}


_MIXTURE = _fields_schema(MixtureSpec)
_SOLVER = _fields_schema(SolverConfig)
_ORACLE = _fields_schema(OracleConfig)  # its cap K is the max_violations key
_TOY = inspect.signature(toy_disk).parameters

_SCHEMAS = {
    "generate": {**_MIXTURE, "seed": ("int", MixtureSpec.seed), "out": ("str", None)},
    "solve": {
        "data": ("str", None),
        "out": ("str", None),
        "moderator_out": ("str", ""),
        "lam": ("float", SolverConfig.lam),
        "seed": ("int", SolverConfig.seed),
        **_SOLVER,
    },
    "calibrate": {
        "data": ("str", None),
        "out": ("str", None),
        "max_violations": ("int", None),
        "delta": ("float", CalibrationTarget.delta),
        "seed": ("int", SolverConfig.seed),
        **_SOLVER,
    },
    "sweep": {
        "out": ("str", None),
        "plot": ("bool", False),
        "seeds": ("int", 20),
        "seed": ("int", SolverConfig.seed),
        "lambdas": ("floats", _DEFAULT_LAMBDAS),
        **_MIXTURE,
        **_SOLVER,
    },
    "oracle": {
        "data": ("str", None),
        "out": ("str", None),
        "mode": ("str", "constrained"),
        "lam": ("float", 1.0),
        "max_violations": _ORACLE["K"],
        **{key: spec for key, spec in _ORACLE.items() if key != "K"},
    },
    "toy": {
        "out": ("str", None),
        "samples": ("int", _TOY["samples"].default),
        "theta_steps": ("int", 41),
        "c": ("float", _TOY["c"].default),
        "seed": ("int", _TOY["seed"].default),
    },
}


def _fmt(value) -> str:
    """A CSV cell, footer value or help default: floats at 17 significant
    digits, lists comma-joined, bools as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, list):
        return ",".join(_fmt(float(v)) for v in value)
    return str(value)


def _parse_value(kind: str, raw: str, key: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "floats":
            return [float(v) for v in raw.split(",") if v.strip() != ""]
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return raw
    except ValueError as exc:
        raise UsageError(f"bad value for {key}: {exc}") from None


def _read_config(path: str) -> dict[str, str]:
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    for line_no, line in enumerate(lines, start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _resolve(command: str, args: argparse.Namespace) -> dict:
    schema = _SCHEMAS[command]
    resolved = {k: default for k, (_, default) in schema.items()}
    if args.config:
        for key, raw in _read_config(args.config).items():
            if key not in schema:
                raise UsageError(f"unknown config key for {command}: {key}")
            resolved[key] = _parse_value(schema[key][0], raw, key)
    for key in schema:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    missing = [k for k, v in resolved.items() if v is None]
    if missing:
        raise UsageError(f"missing required parameters: {', '.join(sorted(missing))}")
    return resolved


def _footer_lines(command: str, params: dict) -> list[str]:
    return [f"# {key} = {_fmt(params[key])}" for key in sorted(_SCHEMAS[command])]


def _write_csv(path: str, header: str, rows: list[tuple], footer: list[str]) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.extend(footer)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _mixture_spec(params: dict, seed: int) -> MixtureSpec:
    return MixtureSpec(**{key: params[key] for key in _MIXTURE}, seed=seed)


def _solver_config(params: dict, lam: float, seed: int) -> SolverConfig:
    return SolverConfig(**{key: params[key] for key in _SOLVER}, lam=lam, seed=seed)


def _result_fields(result) -> tuple:
    """A solve's columns from dm on, in ``_RESULT_HEADER`` order."""
    m = result.metrics
    return (
        result.dm,
        m.fos_desired,
        m.fos_retained,
        m.filtered_count,
        result.objective,
        result.iterations_used,
        result.converged,
    )


_RESULT_HEADER = "lambda,dm,fos_desired,fos_retained,filtered_count,objective,iterations,converged"


def _cmd_generate(params: dict) -> int:
    pop = data_mod.generate(_mixture_spec(params, params["seed"]))
    data_mod.save(pop, params["out"])
    with open(params["out"], "a", encoding="utf-8") as fh:
        fh.write("\n".join(_footer_lines("generate", params)) + "\n")
    return 0


def _write_moderator(path: str, moderator, footer: list[str]) -> None:
    d = moderator.w.shape[0]
    header = ",".join([f"w_{j}" for j in range(d)] + ["b"])
    row = tuple(float(v) for v in moderator.w) + (float(moderator.b),)
    _write_csv(path, header, [row], footer)


def _cmd_solve(params: dict) -> int:
    out = params["out"]
    moderator_out = _second_output(
        out, params["moderator_out"] or _with_suffix(out, ".moderator.csv")
    )
    pop = data_mod.load(params["data"])
    cfg = _solver_config(params, lam=params["lam"], seed=params["seed"])
    result = pgd_solve(pop, cfg)
    footer = _footer_lines("solve", params)
    _write_csv(out, _RESULT_HEADER, [(params["lam"], *_result_fields(result))], footer)
    _write_moderator(moderator_out, result.moderator, footer)
    return 0


def _cmd_calibrate(params: dict) -> int:
    pop = data_mod.load(params["data"])
    cfg = _solver_config(params, lam=0.0, seed=params["seed"])
    target = CalibrationTarget(K=params["max_violations"], delta=params["delta"])
    outcome = calibrate_lambda(pop, target, cfg)
    header = (
        "lambda,feasible,violations,solve_count,dm,fos_desired,fos_retained,"
        "filtered_count,objective,iterations,converged"
    )
    row = (
        outcome.lam,
        outcome.feasible,
        outcome.result.violations,
        outcome.solve_count,
        *_result_fields(outcome.result),
    )
    _write_csv(params["out"], header, [row], _footer_lines("calibrate", params))
    return 0 if outcome.feasible else 3


def _with_suffix(path: str, suffix: str) -> str:
    base, _ = os.path.splitext(path)
    return base + suffix


def _second_output(out: str, path: str) -> str:
    """``path`` for a job's second file, refused if it would overwrite ``out``."""
    if os.path.abspath(path) == os.path.abspath(out):
        raise UsageError(f"second output {path} would overwrite --out {out}")
    return path


def _cmd_sweep(params: dict) -> int:
    if params["seeds"] < 1:
        raise UsageError(f"seeds must be at least 1, got {params['seeds']}")
    plot_out = None
    if params["plot"]:
        plot_out = _second_output(params["out"], _with_suffix(params["out"], ".svg"))
    lambdas = params["lambdas"]
    rows = []
    for s in range(params["seed"], params["seed"] + params["seeds"]):
        pop = data_mod.generate(_mixture_spec(params, s))
        cfg = _solver_config(params, lam=0.0, seed=s)
        results = sweep_lambda(pop, lambdas, cfg)
        rows.extend((lam, s, *_result_fields(r)) for lam, r in zip(lambdas, results))
    _write_csv(params["out"], SWEEP_HEADER, rows, _footer_lines("sweep", params))
    if plot_out:
        _write_sweep_plot(plot_out, lambdas, rows)
    return 0


def _write_sweep_plot(path: str, lambdas: list[float], rows: list[tuple]) -> None:
    dm_by_lam = {lam: [] for lam in lambdas}
    fos_by_lam = {lam: [] for lam in lambdas}
    for row in rows:
        dm_by_lam[row[0]].append(row[2])
        fos_by_lam[row[0]].append(row[4])

    def stats(per_lam):
        means = [float(np.mean(per_lam[lam])) for lam in lambdas]
        stds = [float(np.std(per_lam[lam])) for lam in lambdas]
        lo = [m - s for m, s in zip(means, stds)]
        hi = [m + s for m, s in zip(means, stds)]
        return means, lo, hi

    dm_mean, dm_lo, dm_hi = stats(dm_by_lam)
    fos_mean, fos_lo, fos_hi = stats(fos_by_lam)
    xs = tuple(lambdas)
    svg = render_plot(
        [
            Series("distortion mitigation", xs, tuple(dm_mean), tuple(dm_lo), tuple(dm_hi), "#1f77b4", "left"),
            Series("fraction retained", xs, tuple(fos_mean), tuple(fos_lo), tuple(fos_hi), "#e6a817", "right"),
        ],
        title="mitigation / retained-content trade-off",
        xlabel="penalty strength",
        left_label="distortion mitigation",
        right_label="fraction retained",
        logx=True,
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)


def _cmd_oracle(params: dict) -> int:
    pop = data_mod.load(params["data"])
    cfg = OracleConfig(
        **{key: params[key] for key in _ORACLE if key != "K"}, K=params["max_violations"]
    )
    mode = params["mode"]
    if mode == "penalized":
        result = oracle_penalized_2d(pop, params["lam"], cfg)
    elif mode == "constrained":
        result = oracle_2d(pop, cfg)
    else:
        raise UsageError(f"mode must be 'constrained' or 'penalized', got {mode!r}")
    header = "mode,lambda,k_max,dm,violations,penalty,objective,w_0,w_1,b,candidates"
    row = (
        mode,
        params["lam"],
        params["max_violations"],
        result.dm,
        result.violations,
        result.penalty,
        result.objective,
        float(result.moderator.w[0]),
        float(result.moderator.w[1]),
        float(result.moderator.b),
        result.iterations_used,
    )
    _write_csv(params["out"], header, [row], _footer_lines("oracle", params))
    return 0


def _cmd_toy(params: dict) -> int:
    if params["theta_steps"] < 1:
        raise UsageError(f"theta_steps must be at least 1, got {params['theta_steps']}")
    thetas = np.linspace(-1.0, 1.0, params["theta_steps"])
    points = toy_disk(thetas, c=params["c"], samples=params["samples"], seed=params["seed"])
    rows = [(theta, dm, fos) for theta, dm, fos in points]
    _write_csv(params["out"], "theta,dm,fos", rows, _footer_lines("toy", params))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "calibrate": _cmd_calibrate,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "toy": _cmd_toy,
}

_EPILOG = """\
output CSV schemas (all files end with a '# key = value' reproducibility
footer; stripping the '# ' prefix yields a config file that re-runs the job):
  generate   dataset: '# d/n/trend' metadata, header x_0,...,x_{d-1},c
  solve      %(result)s
             plus a moderator file: w_0,...,w_{d-1},b
  calibrate  lambda,feasible,violations,solve_count,dm,fos_desired,
             fos_retained,filtered_count,objective,iterations,converged
  sweep      %(sweep)s
  oracle     mode,lambda,k_max,dm,violations,penalty,objective,w_0,w_1,b,candidates
  toy        theta,dm,fos
""" % {"result": _RESULT_HEADER, "sweep": SWEEP_HEADER}


def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--config", default=None, help="flat 'key = value' config file")
    for key, (kind, default) in _SCHEMAS[command].items():
        flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
        helptext = f"default: {_fmt(default)}" if default is not None else "required"
        if kind == "bool":
            parser.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction,
                                default=None, help=helptext)
        elif kind == "int":
            parser.add_argument(flag, dest=key, type=int, default=None, help=helptext)
        elif kind == "float":
            parser.add_argument(flag, dest=key, type=float, default=None, help=helptext)
        elif kind == "floats":
            # plain ValueError here so argparse reports it as a usage error
            parser.add_argument(flag, dest=key,
                                type=lambda raw: [float(v) for v in raw.split(",") if v.strip()],
                                default=None, metavar="V1,V2,...", help=helptext)
        else:
            parser.add_argument(flag, dest=key, default=None, help=helptext)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modbalance",
        description="strategic content moderation: solve, calibrate and audit "
        "halfspace moderators on synthetic populations",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "generate": "write a seeded synthetic population CSV",
        "solve": "fit one moderator by projected gradient descent",
        "calibrate": "bisect the penalty strength for a violation cap",
        "sweep": "trade-off curve over a lambda grid and many seeds",
        "oracle": "brute-force reference search (d = 2 only)",
        "toy": "unit-disk trade-off curve",
    }
    for command in _COMMANDS:
        p = sub.add_parser(command, help=helps[command],
                           formatter_class=argparse.RawDescriptionHelpFormatter,
                           epilog=_EPILOG)
        _add_flags(p, command)
    return parser


def run(argv=None) -> int:
    """Parse arguments and execute one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        params = _resolve(args.command, args)
        return _COMMANDS[args.command](params)
    except NoFeasibleCandidateError as exc:
        print(
            f"error: {exc} (least-violating candidate: w = {exc.w.tolist()}, "
            f"b = {exc.b}, violations = {exc.violations})",
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        name = getattr(exc, "filename", None)
        print(f"error: {name or 'i/o'}: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:  # a DatasetFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
