"""Brute-force reference solvers for two-dimensional desk-scale instances.

Exact optimization over halfspaces is combinatorially hard. In the plane each
oracle returns the best of the candidate set ``_candidates`` builds: the
do-nothing halfspace, which leaves every ideal point benign (DM = 0, penalty
0, no violations), then the search rows with w.e > 0 (a direction/offset
grid, boundaries through every data point and ideal point, and, with
``use_candidates``, through every pair of them). That is not always the
optimum: on the 60 criterion-5 records of the acceptance suite,
``polish_penalized`` reaches a lower objective than ``oracle_penalized_2d`` in
43, by up to 0.103. A row with w.e <= 0 is not built: users move only along
e, so each trend advance s_i = w.e/(2c_i) is <= 0, no ideal point scores above
its origin, DM is exactly 0 and lam * penalty >= 0 never beats doing nothing.
The do-nothing row wins every tie at 0, so a K = 0 call returns it.
``iterations_used`` is the size of the set; the grids are nested under
doubling of their step counts, so refining the search never hurts.

The search rows are scored by one :func:`~modbalance.metrics.halfspace_scores`
call, with its ``BENIGN_TOL``, and the do-nothing row's (0, 0, 0), its one-row
scores, are set. A batch row gets the bits of its one-row call, so the record
that re-scores the pick shows the very scores it was picked on: every
``oracle_2d`` record meets its cap K and every ``oracle_penalized_2d`` record
scores J <= 0, the do-nothing row's value, at any feature scale.

Neither the candidates nor their scores depend on lam or K, so one slot holds
them for the last population object and candidate set (the config with its
cap cleared) an oracle was called with, and a call with both the same reuses
them. A ``Population`` is frozen and its arrays are read-only copies, so its
identity stands for its contents. The slot holds the population itself, so no
other object can take its id, and keeps it alive until an oracle call on
another population object or candidate set empties the slot for its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .metrics import halfspace_scores
from .model import (Population, SettingError, Trend, _require_int, _require_lambda, _require_seed,
                    _stream)
from .solver import SolveResult, _all_benign_offset, _exact_result

__all__ = ["OracleConfig", "oracle_2d", "oracle_penalized_2d", "toy_disk"]


@dataclass(frozen=True)
class OracleConfig:
    """Search resolution and the violation cap K.

    ``use_candidates`` adds pairwise point-incident boundaries on top of the
    grid. Candidates are scored by :func:`~modbalance.metrics.halfspace_scores`,
    so an ideal point counts as a violation exactly when its score exceeds
    ``BENIGN_TOL``, as everywhere else in the package.
    """

    angle_steps: int = 64
    offset_steps: int = 64
    K: int = 0
    use_candidates: bool = True

    def __post_init__(self):
        _require_int("angle_steps", self.angle_steps, 8)
        _require_int("offset_steps", self.offset_steps, 8)
        _require_int("K", self.K, 0)


def _candidates(pop: Population, cfg: OracleConfig) -> tuple[np.ndarray, np.ndarray]:
    """The oracles' candidate set, (w, b) rows with unit normals. Row 0 is the
    do-nothing halfspace: normal e/|e| and the all-benign offset of its
    ideal-point scores. Then, per grid direction with w.e > 0, the offset
    grid and the boundaries through each point, then each ideal point. Then,
    if enabled, the boundary through each pair of distinct points (data and
    ideal) in its one orientation with w.e > 0, and none where w.e = 0.
    """
    X, e = pop.feature_matrix, pop.trend.e
    ideal = X + e / (2.0 * pop.costs)[:, None]
    w0 = e / np.linalg.norm(e)
    b0 = _all_benign_offset(X @ w0 + (w0 @ e) / (2.0 * pop.costs))

    thetas = 2.0 * np.pi * np.arange(cfg.angle_steps) / cfg.angle_steps
    directions = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    directions = directions[directions @ e > 0]
    proj = directions @ X.T
    lo = np.min(proj, axis=1, keepdims=True)
    hi = np.max(proj, axis=1, keepdims=True)
    fractions = np.arange(cfg.offset_steps + 1) / cfg.offset_steps
    offsets = np.hstack([lo + (hi - lo) * fractions, proj, directions @ ideal.T])
    W = np.vstack([w0, np.repeat(directions, offsets.shape[1], axis=0)])
    B = np.concatenate([[b0], -offsets.ravel()])

    if cfg.use_candidates:
        points = np.vstack([X, ideal])
        i, j = np.triu_indices(points.shape[0], k=1)
        direction = points[j] - points[i]
        norm = np.linalg.norm(direction, axis=1)
        keep = norm >= 1e-12
        w = np.stack([direction[keep, 1], -direction[keep, 0]], axis=1) / norm[keep, None]
        b = -np.sum(w * points[i[keep]], axis=1)
        side = w @ e  # (-w, -b) is the same boundary, with -side
        ahead = side != 0
        W = np.vstack([W, np.where(side[:, None] > 0, w, -w)[ahead]])
        B = np.concatenate([B, np.where(side > 0, b, -b)[ahead]])

    return W, B


def _require_plane(pop: Population):
    if pop.d != 2:
        raise ValueError(f"oracle search requires d = 2, got d = {pop.d}")


# The held stage: (population, config with K cleared, W, B, dm, penalty, violations), or None.
_held: tuple | None = None


def _stage(pop: Population, cfg: OracleConfig) -> tuple:
    """(W, B, dm, penalty, violations) of ``pop``'s candidates under ``cfg``:
    the held stage if it holds this very ``pop`` object and a config equal to
    ``cfg`` up to K. Otherwise the slot is emptied, so the old stage is freed
    before the new one is built."""
    global _held
    key = replace(cfg, K=0)
    if _held is None or _held[0] is not pop or _held[1] != key:
        _held = None
        W, B = _candidates(pop, cfg)
        scores = halfspace_scores(pop, W[1:], B[1:])[:3]
        _held = (pop, key, W, B, *(np.insert(part, 0, 0) for part in scores))
    return _held[2:]


def oracle_2d(pop: Population, cfg: OracleConfig) -> SolveResult:
    """Best mitigation over the candidates meeting the violation cap K, the
    first such row on ties; row 0 meets every cap."""
    _require_plane(pop)
    W, B, dm, _, violations = _stage(pop, cfg)
    best = int(np.argmax(np.where(violations <= cfg.K, dm, -np.inf)))
    return _exact_result(pop, W[best], B[best], None, W.shape[0], True)


def oracle_penalized_2d(pop: Population, lam: float, cfg: OracleConfig) -> SolveResult:
    """The best of its candidate set on -mitigation + lam * squared hinges,
    the first such row on ties; row 0 scores 0, so the pick scores <= 0."""
    _require_plane(pop)
    _require_lambda(lam)
    W, B, dm, penalty, _ = _stage(pop, cfg)
    best = int(np.argmin(-dm + lam * penalty))
    return _exact_result(pop, W[best], B[best], lam, W.shape[0], True)


def toy_disk(
    theta_grid, c: float = 0.5, samples: int = 100_000, seed: int = 0
) -> list[tuple[float, float, float]]:
    """Trade-off curve for content uniform on the unit disk, trend (1, 0).

    Sweeps vertical boundaries x1 = theta and reports, per theta, the mean
    per-user mitigation and the fraction of ideal points left unfiltered,
    scored by ``halfspace_scores`` as w = (1,), b = -theta on the samples' x1.
    One shared Monte Carlo sample serves the whole grid, so the speech index
    is exactly non-decreasing in theta rather than merely in expectation.
    """
    theta_grid = [float(t) for t in theta_grid]
    if not all(-1.0 <= t <= 1.0 for t in theta_grid):
        raise ValueError("theta values must lie in [-1, 1]")
    if not (c > 0 and np.isfinite(c)):
        raise SettingError("c", f"manipulation cost c must be positive, got {c}")
    _require_int("samples", samples, 1)
    _require_seed(seed)

    rng = _stream(seed, 0)
    radius = np.sqrt(rng.uniform(size=samples))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=samples)
    x1 = radius * np.cos(angle)

    line = Population(x1[:, None], np.full(samples, c), Trend((1.0,)))
    W = np.ones((len(theta_grid), 1))
    dm, _, violations, _ = halfspace_scores(line, W, -np.array(theta_grid))
    return [(theta, float(dm[i] / samples), float((samples - violations[i]) / samples))
            for i, theta in enumerate(theta_grid)]
