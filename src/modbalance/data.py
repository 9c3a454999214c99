"""Seeded synthetic populations and single-file CSV persistence.

Populations are Gaussian mixtures: centers from a standard normal, one noise
scale per center, quadratic costs uniform over a range, and the trend fixed
to the first coordinate axis. Randomness comes from the counter-based Philox
generator with one documented stream per ingredient (0 centers, 1 sigmas,
2 points, 3 costs), so a seed pins the dataset bit for bit across platforms.

Datasets are one CSV per population: ``#``-prefixed ``key = value`` metadata
(dimension, row count and trend vector) above a ``x_0,...,x_{d-1},c`` header,
floats at 17 significant digits for exact round-trips. ``load`` names the line
of the first bad value, and rejects a file whose row count disagrees with its
``n`` metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (Population, SettingError, _require_int, _require_positive, _require_seed,
                    _stream)

__all__ = ["MixtureSpec", "DatasetFormatError", "generate", "save", "load"]

_STREAM_CENTERS = 0
_STREAM_SIGMAS = 1
_STREAM_POINTS = 2
_STREAM_COSTS = 3

# every float the package writes (datasets, CLI outputs): 17 digits round-trip a float64
_FLOAT = "%.17g"


class DatasetFormatError(ValueError):
    """A dataset file failed to parse; the message carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class MixtureSpec:
    """Mixture shape: k centers, n/k samples each, noise and cost ranges."""

    d: int = 5
    n: int = 500
    k: int = 5
    sigma_lo: float = 0.3
    sigma_hi: float = 0.5
    c_lo: float = 0.5
    c_hi: float = 1.5
    seed: int = 0

    def __post_init__(self):
        for name in ("d", "n", "k"):
            _require_int(name, getattr(self, name), 1)
        for name in ("sigma_lo", "sigma_hi", "c_lo", "c_hi"):
            _require_positive(name, getattr(self, name))
        _require_seed(self.seed)
        if self.n % self.k != 0:
            raise ValueError(f"k = {self.k} must divide n = {self.n}")
        if self.sigma_lo > self.sigma_hi:
            raise ValueError("need 0 < sigma_lo <= sigma_hi")
        if self.c_lo > self.c_hi:
            raise ValueError("need 0 < c_lo <= c_hi")


def generate(spec: MixtureSpec) -> Population:
    """Draw a population from the mixture; fully determined by spec.seed.

    A noise scale so large that some drawn feature overflows is rejected as
    a ``SettingError`` on ``sigma_hi``, the larger end of the scale range.
    """
    centers = _stream(spec.seed, _STREAM_CENTERS).standard_normal((spec.k, spec.d))
    sigmas = _stream(spec.seed, _STREAM_SIGMAS).uniform(
        spec.sigma_lo, spec.sigma_hi, spec.k
    )
    m = spec.n // spec.k
    noise = _stream(spec.seed, _STREAM_POINTS).standard_normal((spec.k, m, spec.d))
    with np.errstate(over="ignore"):
        X = (centers[:, None, :] + sigmas[:, None, None] * noise).reshape(spec.n, spec.d)
    if not np.isfinite(X).all():
        raise SettingError("sigma_hi", f"sigma_hi = {spec.sigma_hi} overflows a drawn feature; "
                                       "every feature must be finite")
    costs = _stream(spec.seed, _STREAM_COSTS).uniform(spec.c_lo, spec.c_hi, spec.n)
    trend = np.zeros(spec.d)
    trend[0] = 1.0
    return Population.from_arrays(X, costs, trend)


def save(pop: Population, path) -> None:
    """Write one population as a self-describing CSV."""
    d = pop.d
    lines = [
        f"# d = {d}",
        f"# n = {pop.n}",
        "# trend = " + ",".join(_FLOAT % v for v in pop.trend.e),
        ",".join([f"x_{j}" for j in range(d)] + ["c"]),
    ]
    rows = "\n".join([",".join([_FLOAT] * (d + 1))] * pop.n)
    lines.append(rows % tuple(np.column_stack([pop.feature_matrix, pop.costs]).ravel().tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_meta(line: str, line_no: int) -> tuple[str, str]:
    body = line.lstrip("#").strip()
    if "=" not in body:
        raise DatasetFormatError(f"malformed metadata comment {line!r}", line_no)
    key, _, value = body.partition("=")
    return key.strip(), value.strip()


def _parse_rows(rows: list[tuple[int, str]], d: int, separators: bool) -> np.ndarray:
    """The (line number, text) data rows as an (n, d + 1) float table.

    One ``np.loadtxt`` call parses a well-formed table to the bits ``float``
    gives. If it fails, the rows are parsed one at a time by ``float``, which
    accepts a few more spellings (``1_0``) and names the line of the first bad
    row. loadtxt also skips the separators \\x1c-\\x1f around a number, which
    ``float`` rejects, so a file holding one (``separators``) goes the per-row
    way too.
    """
    if not separators:
        try:
            table = np.loadtxt([line for _, line in rows], delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if table.shape[1] == d + 1:
                return table
    table = np.empty((len(rows), d + 1))
    for i, (line_no, line) in enumerate(rows):
        parts = line.split(",")
        if len(parts) != d + 1:
            raise DatasetFormatError(f"expected {d + 1} fields, got {len(parts)}", line_no)
        try:
            table[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise DatasetFormatError(f"bad float: {exc}", line_no) from None
    return table


def load(path) -> Population:
    """Read a population back; inverse of :func:`save` to full precision."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    raw_lines = text.split("\n")  # not splitlines: float accepts \f, \x85 and others

    meta: dict[str, str] = {}
    header = None
    rows: list[tuple[int, str]] = []
    for line_no, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        if line.lstrip().startswith("#"):
            key, value = _parse_meta(line, line_no)
            meta[key] = value
            continue
        if header is None:
            header = (line_no, line)
        else:
            rows.append((line_no, line))

    if header is None:
        raise DatasetFormatError("no header row found")
    header_no, header_line = header
    columns = [c.strip() for c in header_line.split(",")]
    if columns[-1:] != ["c"]:
        raise DatasetFormatError(
            f"last column must be the cost column 'c', got {columns[-1:]}", header_no
        )
    d = len(columns) - 1
    if d < 1 or columns[:d] != [f"x_{j}" for j in range(d)]:
        raise DatasetFormatError(
            f"feature columns must be x_0..x_{{d-1}}, got {columns[:d]}", header_no
        )
    try:
        if "d" in meta and int(meta["d"]) != d:
            raise DatasetFormatError(
                f"metadata d = {meta['d']} disagrees with header width {d}", header_no
            )
        if "trend" not in meta:
            raise DatasetFormatError("missing 'trend' metadata comment", header_no)
        trend = np.array([float(v) for v in meta["trend"].split(",")])
        if "n" in meta and int(meta["n"]) != len(rows):
            raise DatasetFormatError(
                f"metadata n = {meta['n']} disagrees with {len(rows)} data rows", header_no
            )
    except ValueError as exc:
        if isinstance(exc, DatasetFormatError):
            raise
        raise DatasetFormatError(f"bad metadata value: {exc}", header_no) from None
    if trend.shape[0] != d:
        raise DatasetFormatError(
            f"trend has {trend.shape[0]} coordinates, expected {d}", header_no
        )
    if not (np.all(np.isfinite(trend)) and np.linalg.norm(trend) > 0):
        raise DatasetFormatError(
            f"trend must be finite and nonzero, got {meta['trend']}", header_no
        )

    if not rows:
        raise DatasetFormatError("empty population: header present but no data rows")

    table = _parse_rows(rows, d, any(sep in text for sep in "\x1c\x1d\x1e\x1f"))
    X, costs = table[:, :d], table[:, d]
    bad_x = ~np.isfinite(X).all(axis=1)
    bad = bad_x | ~(np.isfinite(costs) & (costs > 0))
    if np.any(bad):
        i = int(np.argmax(bad))
        if bad_x[i]:
            raise DatasetFormatError("features must be finite", rows[i][0])
        raise DatasetFormatError(f"cost must be positive and finite, got {costs[i]}", rows[i][0])
    return Population.from_arrays(X, costs, trend)
