"""Command-line front end.

Subcommands: generate | solve | calibrate | sweep | oracle | toy. Every
parameter can come from a flat ``key = value`` config file (``--config``),
with explicit flags winning. Each output CSV ends with a reproducibility
footer: ``#``-prefixed ``key = value`` lines holding every resolved
parameter, so stripping the ``# `` prefix yields a config file that re-runs
the job bit for bit. ``solve``, ``calibrate``, ``sweep`` and ``oracle`` write
one row per solve record: the job's key columns, the record's scores and
counts, then its moderator ``w_0,...,w_{d-1},b``.

Exit codes: 0 success, 2 usage/validation error, 3 infeasible calibration.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import operator
import os
import sys

import numpy as np

from . import data as data_mod
from .data import MixtureSpec
from .model import SettingError, _require_int, _require_lambda
from .oracle import NoFeasibleCandidateError, OracleConfig, oracle_2d, oracle_penalized_2d, toy_disk
from .solver import (
    CalibrationTarget,
    SolverConfig,
    calibrate_lambda,
    pgd_solve,
    sweep_lambda,
)
from .svgplot import render_plot

__all__ = ["run", "main"]

# a solve record's columns ahead of its moderator's: (column, SolveResult field).
# perfbench's tradeoff check reads the first six sweep columns by position, so
# a new column goes at the end.
_RECORD_COLUMNS = (
    ("dm", "dm"), ("fos_desired", "metrics.fos_desired"),
    ("fos_retained", "metrics.fos_retained"), ("filtered_count", "metrics.filtered_count"),
    ("objective", "objective"), ("iterations", "iterations_used"), ("converged", "converged"),
    ("violations", "violations"), ("penalty", "penalty"),
)
_RECORD_NAMES = ",".join(column for column, _ in _RECORD_COLUMNS)
_record_values = operator.attrgetter(*(field for _, field in _RECORD_COLUMNS))
# each job's key columns, ahead of its records' columns
_LAMBDA = "lambda"
_KEY_COLUMNS = {
    "solve": (_LAMBDA,),
    "calibrate": (_LAMBDA, "feasible", "solve_count"),
    "sweep": (_LAMBDA, "seed"),
    "oracle": ("mode", _LAMBDA, "k_max"),
}
TOY_HEADER = "theta,dm,fos"

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
        "lam": ("float", SolverConfig.lam),
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
        return data_mod._FLOAT % value
    if isinstance(value, list):
        return ",".join(_fmt(float(v)) for v in value)
    return str(value)


def _float_list(raw: str) -> list[float]:
    return [float(v) for v in raw.split(",") if v.strip()]


def _boolean(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# one parser per value kind, for config-file values and flags alike; each
# raises a plain ValueError, which argparse reports as a usage error
_PARSERS = {"int": int, "float": float, "floats": _float_list, "bool": _boolean, "str": str}


def _read_config(path: str) -> dict[str, tuple[str, int]]:
    """The file's ``key -> (value, line number)`` entries."""
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")  # as data.load splits: at "\n" only
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    for line_no, line in enumerate(lines, start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        if key in entries:
            raise UsageError(f"{path}:{line_no}: duplicate key {key!r} "
                             f"(first on line {entries[key][1]})")
        entries[key] = (value.strip(), line_no)
    return entries


def _resolve(command: str, args: argparse.Namespace) -> tuple[dict, dict[str, str]]:
    """The job's parameters, and ``PATH:LINE`` of each one a config line set."""
    schema = _SCHEMAS[command]
    resolved = {k: default for k, (_, default) in schema.items()}
    where = {}
    if args.config:
        for key, (raw, line_no) in _read_config(args.config).items():
            where[key] = f"{args.config}:{line_no}"
            if key not in schema:
                raise UsageError(f"{where[key]}: unknown config key for {command}: {key}")
            try:
                resolved[key] = _PARSERS[schema[key][0]](raw)
            except ValueError as exc:
                raise UsageError(f"{where[key]}: bad value for {key}: {exc}") from None
    for key in schema:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
            where.pop(key, None)
    missing = [k for k, v in resolved.items() if v is None]
    if missing:
        raise UsageError(f"missing required parameters: {', '.join(sorted(missing))}")
    return resolved, where


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


def _result_header(command: str, d: int) -> str:
    """A job's header: its key columns, then ``_RECORD_COLUMNS`` and the moderator's."""
    weights = [f"w_{j}" for j in range(d)]
    return ",".join([*_KEY_COLUMNS[command], _RECORD_NAMES, *weights, "b"])


def _result_fields(result) -> tuple:
    """A solve record's columns: ``_RECORD_COLUMNS``, then its moderator's."""
    return (*_record_values(result), *result.moderator.w.tolist(), result.moderator.b)


def _write_results(command: str, params: dict, d: int, rows: list[tuple]) -> None:
    """Write a job's rows, each its key values then ``_result_fields``."""
    _write_csv(params["out"], _result_header(command, d), rows, _footer_lines(command, params))


def _cmd_generate(params: dict) -> int:
    pop = data_mod.generate(_mixture_spec(params, params["seed"]))
    data_mod.save(pop, params["out"])
    with open(params["out"], "a", encoding="utf-8") as fh:
        fh.write("\n".join(_footer_lines("generate", params)) + "\n")
    return 0


def _cmd_solve(params: dict) -> int:
    cfg = _solver_config(params, lam=params["lam"], seed=params["seed"])
    pop = data_mod.load(params["data"])
    result = pgd_solve(pop, cfg)
    _write_results("solve", params, pop.d, [(params["lam"], *_result_fields(result))])
    return 0


def _cmd_calibrate(params: dict) -> int:
    cfg = _solver_config(params, lam=0.0, seed=params["seed"])
    target = CalibrationTarget(K=params["max_violations"], delta=params["delta"])
    pop = data_mod.load(params["data"])
    outcome = calibrate_lambda(pop, target, cfg)
    row = (outcome.lam, outcome.feasible, outcome.solve_count, *_result_fields(outcome.result))
    _write_results("calibrate", params, pop.d, [row])
    return 0 if outcome.feasible else 3


def _same_file(a: str, b: str) -> bool:
    """Whether writing ``a`` would overwrite ``b``, also through a link."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet: compare resolved paths
        return os.path.realpath(a) == os.path.realpath(b)


def _plot_path(params: dict) -> str | None:
    """``sweep --plot``'s SVG: ``out`` with its extension replaced by .svg."""
    return os.path.splitext(params["out"])[0] + ".svg" if params.get("plot") else None


def _check_outputs(params: dict, config: str | None) -> None:
    """Refuse a job, before it reads or writes anything, whose plot would
    overwrite ``out`` or whose output would overwrite ``--data`` or
    ``--config``."""
    out, plot = params["out"], _plot_path(params)
    if plot is not None and _same_file(plot, out):
        raise UsageError(f"second output {plot} would overwrite --out {out}")
    for flag, source in (("--data", params.get("data")), ("--config", config)):
        for path in (out, plot):
            if None not in (path, source) and _same_file(path, source):
                raise UsageError(f"output {path} would overwrite {flag} {source}")


def _cmd_sweep(params: dict) -> int:
    _require_int("seeds", params["seeds"], 1)
    lambdas = params["lambdas"]
    plot_out = _plot_path(params)
    if plot_out:
        bad = [lam for lam in lambdas if not lam > 0]
        if bad:
            raise UsageError(f"--plot draws lambda on a log axis, so every lambda must "
                             f"be > 0, got {_fmt(bad[0])}")
    # every dataset's spec and config first, so a bad seed fails before any solve
    jobs = [(s, _mixture_spec(params, s), _solver_config(params, lam=0.0, seed=s))
            for s in range(params["seed"], params["seed"] + params["seeds"])]
    records = []  # (lambda, seed, SolveResult)
    for s, spec, cfg in jobs:
        results = sweep_lambda(data_mod.generate(spec), lambdas, cfg)
        records.extend((lam, s, r) for lam, r in zip(lambdas, results))
    rows = [(lam, s, *_result_fields(r)) for lam, s, r in records]
    _write_results("sweep", params, params["d"], rows)
    if plot_out:
        _write_sweep_plot(plot_out, records)
    return 0


def _write_sweep_plot(path: str, records: list[tuple]) -> None:
    lambdas = sorted({lam for lam, _, _ in records})  # so the line never runs back

    def band(value) -> tuple[list, list, list]:
        """Mean and one-standard-deviation band of ``value(result)`` at each
        lambda, pooled over every record of that lambda's value."""
        pooled = [[value(r) for at, _, r in records if at == lam] for lam in lambdas]
        stats = [(float(np.mean(v)), float(np.std(v))) for v in pooled]
        return [m for m, _ in stats], [m - s for m, s in stats], [m + s for m, s in stats]

    svg = render_plot(lambdas, band(lambda r: r.dm), band(lambda r: r.metrics.fos_retained))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)


def _cmd_oracle(params: dict) -> int:
    mode = params["mode"]
    if mode not in ("constrained", "penalized"):
        raise UsageError(f"mode must be 'constrained' or 'penalized', got {mode!r}")
    cfg = OracleConfig(
        **{key: params[key] for key in _ORACLE if key != "K"}, K=params["max_violations"]
    )
    if mode == "penalized":
        _require_lambda(params["lam"])
    pop = data_mod.load(params["data"])
    if mode == "penalized":
        result = oracle_penalized_2d(pop, params["lam"], cfg)
    else:
        result = oracle_2d(pop, cfg)
    row = (mode, params["lam"], params["max_violations"], *_result_fields(result))
    _write_results("oracle", params, pop.d, [row])
    return 0


def _cmd_toy(params: dict) -> int:
    _require_int("theta_steps", params["theta_steps"], 1)
    thetas = np.linspace(-1.0, 1.0, params["theta_steps"])
    points = toy_disk(thetas, c=params["c"], samples=params["samples"], seed=params["seed"])
    _write_csv(params["out"], TOY_HEADER, points, _footer_lines("toy", params))
    return 0


# command -> (handler, help line)
_COMMANDS = {
    "generate": (_cmd_generate, "write a seeded synthetic population CSV"),
    "solve": (_cmd_solve, "fit one moderator by projected gradient descent"),
    "calibrate": (_cmd_calibrate, "bisect the penalty strength for a violation cap"),
    "sweep": (_cmd_sweep, "trade-off curve over a lambda grid and many seeds"),
    "oracle": (_cmd_oracle, "brute-force reference search (d = 2 only)"),
    "toy": (_cmd_toy, "unit-disk trade-off curve"),
}

_EPILOG = (
    "output CSV schemas (all files end with a '# key = value' reproducibility\n"
    "footer; stripping the '# ' prefix yields a config file that re-runs the job):\n"
    "  generate   dataset: '# d/n/trend' metadata, header x_0,...,x_{d-1},c\n"
    + "".join(f"  {command:<10} {','.join(keys)},<record>\n"
              for command, keys in _KEY_COLUMNS.items())
    + f"  toy        {TOY_HEADER}\n"
    "where <record> is one solve record: its scores and counts, then its moderator\n"
    f"  {_RECORD_NAMES},w_0,...,w_{{d-1}},b\n"
)


def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--config", default=None, help="flat 'key = value' config file")
    for key, (kind, default) in _SCHEMAS[command].items():
        flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
        helptext = f"default: {_fmt(default)}" if default is not None else "required"
        if kind == "bool":
            parser.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction,
                                default=None, help=helptext)
        else:
            parser.add_argument(flag, dest=key, type=_PARSERS[kind], default=None, help=helptext,
                                metavar="V1,V2,..." if kind == "floats" else None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modbalance",
        description="strategic content moderation: solve, calibrate and audit "
        "halfspace moderators on synthetic populations",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, helptext) in _COMMANDS.items():
        p = sub.add_parser(command, help=helptext,
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
    where = {}
    try:
        params, where = _resolve(args.command, args)
        _check_outputs(params, args.config)
        return _COMMANDS[args.command][0](params)
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
        # a setting that a config line set, and no flag replaced, is named by that line
        key = exc.name if isinstance(exc, SettingError) else None
        line = where.get("max_violations" if key == "K" else key)
        print(f"error: {line + ': ' if line else ''}{exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
