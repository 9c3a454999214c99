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
``n`` metadata. ``save`` and ``load`` handle the rows in blocks of about 2**20
characters of text, so beside the population they hold one block's text, lines
and Python floats, not the whole file's; ``load`` also holds the parsed table a
second time while it joins the blocks.
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
# dataset text handled at once: load reads this many characters per block and save
# formats as many rows as fit in it, so neither holds the whole file
_BLOCK_CHARS = 1 << 20


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
    """Write one population as a self-describing CSV, one block of rows at a time."""
    d = pop.d
    head = [
        f"# d = {d}",
        f"# n = {pop.n}",
        "# trend = " + ",".join(_FLOAT % v for v in pop.trend.e),
        ",".join(_columns(d)),
    ]
    row = ",".join([_FLOAT] * (d + 1)) + "\n"
    # rows per block: a field and its comma take at most 25 characters (-1.2345678901234567e-308,)
    step = max(1, _BLOCK_CHARS // (25 * (d + 1)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head) + "\n")
        for start in range(0, pop.n, step):
            block = np.column_stack([pop.feature_matrix[start:start + step],
                                     pop.costs[start:start + step]])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _columns(d: int) -> list[str]:
    """A dataset header's column names: x_0, ..., x_{d-1}, c."""
    return [f"x_{j}" for j in range(d)] + ["c"]


def _parse_meta(line: str, line_no: int) -> tuple[str, str]:
    body = line.lstrip("#").strip()
    if "=" not in body:
        raise DatasetFormatError(f"malformed metadata comment {line!r}", line_no)
    key, _, value = body.partition("=")
    return key.strip(), value.strip()


def _header_width(line: str, line_no: int) -> int:
    """The feature dimension d a ``x_0,...,x_{d-1},c`` header line names."""
    columns = [c.strip() for c in line.split(",")]
    if columns[-1:] != ["c"]:
        raise DatasetFormatError(
            f"last column must be the cost column 'c', got {columns[-1:]}", line_no
        )
    d = len(columns) - 1
    if d < 1 or columns != _columns(d):
        raise DatasetFormatError(
            f"feature columns must be x_0..x_{{d-1}}, got {columns[:d]}", line_no
        )
    return d


def _parse_rows(rows: list[str], numbers: list[int], d: int, separators: bool) -> np.ndarray:
    """The data rows, on lines ``numbers``, as an (n, d + 1) float table.

    One ``np.loadtxt`` call parses a well-formed table to the bits ``float``
    gives. If it fails, the rows are parsed one at a time by ``float``, which
    accepts a few more spellings (``1_0``) and names the line of the first bad
    row. loadtxt also skips the separators \\x1c-\\x1f around a number, which
    ``float`` rejects, so a block holding one (``separators``) goes the
    per-row way too.
    """
    if not separators:
        try:
            table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if table.shape[1] == d + 1:
                return table
    table = np.empty((len(rows), d + 1))
    for i, (line_no, line) in enumerate(zip(numbers, rows)):
        parts = line.split(",")
        if len(parts) != d + 1:
            raise DatasetFormatError(f"expected {d + 1} fields, got {len(parts)}", line_no)
        try:
            table[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise DatasetFormatError(f"bad float: {exc}", line_no) from None
    return table


def _bad_value(table: np.ndarray, numbers: list[int], d: int) -> DatasetFormatError | None:
    """The error naming the first row with a nonfinite feature or a bad cost, if any."""
    X, costs = table[:, :d], table[:, d]
    bad_x = ~np.isfinite(X).all(axis=1)
    bad = bad_x | ~(np.isfinite(costs) & (costs > 0))
    if not np.any(bad):
        return None
    i = int(np.argmax(bad))
    if bad_x[i]:
        return DatasetFormatError("features must be finite", numbers[i])
    return DatasetFormatError(f"cost must be positive and finite, got {costs[i]}", numbers[i])


def load(path) -> Population:
    """Read a population back; inverse of :func:`save` to full precision.

    A metadata key may repeat only with its first value. Errors come in the
    order a whole-file read meets them: malformed or conflicting metadata as
    it is scanned, then the header and metadata checks, then the first row
    that does not parse, then the first row with a bad value.
    """
    meta: dict[str, str] = {}
    meta_lines: dict[str, int] = {}  # each key's first line
    header_no = header_error = row_error = value_error = d = None
    tables: list[np.ndarray] = []
    n_rows = line_no = 0
    # utf-8-sig drops a leading byte-order mark; text mode reads \r\n as \n even
    # when a block ends between the two
    with open(path, "r", encoding="utf-8-sig") as fh:
        # a block is whole lines: readline finishes the last one, however long
        while text := fh.read(_BLOCK_CHARS) + fh.readline():
            lines = text.split("\n")  # not splitlines: float accepts \f, \x85 and others
            if not lines[-1]:
                lines.pop()  # the empty string after the block's final "\n"
            rows, numbers = [], []
            for line in lines:
                line_no += 1
                body = line.lstrip()
                if not body:
                    continue
                if body[0] == "#":
                    key, value = _parse_meta(line, line_no)
                    if meta.setdefault(key, value) != value:
                        raise DatasetFormatError(
                            f"metadata {key} = {value} disagrees with {key} = {meta[key]} "
                            f"on line {meta_lines[key]}", line_no)
                    meta_lines.setdefault(key, line_no)
                elif header_no is None:
                    header_no = line_no
                    try:
                        d = _header_width(line, line_no)
                    except DatasetFormatError as exc:
                        header_error = exc
                else:
                    rows.append(line)
                    numbers.append(line_no)
            n_rows += len(rows)
            if rows and d is not None and row_error is None:
                separators = any(sep in text for sep in "\x1c\x1d\x1e\x1f")
                try:
                    table = _parse_rows(rows, numbers, d, separators)
                except DatasetFormatError as exc:
                    row_error, tables = exc, []
                else:
                    tables.append(table)
                    value_error = value_error or _bad_value(table, numbers, d)

    if header_no is None:
        raise DatasetFormatError("no header row found")
    if header_error is not None:
        raise header_error
    try:
        if "d" in meta and int(meta["d"]) != d:
            raise DatasetFormatError(
                f"metadata d = {meta['d']} disagrees with header width {d}", header_no
            )
        if "trend" not in meta:
            raise DatasetFormatError("missing 'trend' metadata comment", header_no)
        trend = np.array([float(v) for v in meta["trend"].split(",")])
        if "n" in meta and int(meta["n"]) != n_rows:
            raise DatasetFormatError(
                f"metadata n = {meta['n']} disagrees with {n_rows} data rows", header_no
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

    if not n_rows:
        raise DatasetFormatError("empty population: header present but no data rows")
    if row_error is not None:
        raise row_error
    if value_error is not None:
        raise value_error
    table = np.concatenate(tables)
    del tables  # so that the table and from_arrays' copies are all that is alive
    return Population.from_arrays(table[:, :d], table[:, d], trend)
