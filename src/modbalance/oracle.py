"""Brute-force reference solvers for two-dimensional desk-scale instances.

Exact optimization over halfspaces is combinatorially hard. In the plane each
oracle returns the best of a finite candidate set. It starts with the
do-nothing halfspace: normal e/|e| and an offset that leaves every ideal point
benign, so DM = 0, penalty = 0 and no violations. The rows of the search with
w.e > 0 follow in order: a direction/offset grid, boundaries through every
data point and ideal point, and (``use_candidates``) through every pair of
them. That is not always the optimum: on the 60 criterion-5 records of the
acceptance suite, ``polish_penalized`` reaches a lower objective than
``oracle_penalized_2d`` in 43, by up to 0.103. The candidates are scored by
:func:`~modbalance.metrics.halfspace_scores`, the closed form every halfspace
score uses, with its ``BENIGN_TOL``. The returned ``SolveResult`` re-scores the
winner by one ``halfspace_scores`` row, as every solver's result does, and its
``objective`` is computed from that row, so it agrees exactly with the
record's ``dm`` and ``penalty``.

Users move only along the trend e, so a search row whose normal has w.e <= 0
mitigates nothing: each user's trend advance s_i = w.e/(2c_i) is <= 0, so the
ideal point's score y_i = v_i + s_i never exceeds the origin's v_i, and no
user has a benign origin and a filtered ideal point. Its DM is exactly 0 and
its penalized objective lam * penalty is >= 0, so it never beats the
do-nothing row, which scores 0 and meets every cap; such rows are left out.
The do-nothing row comes first and so wins every tie at 0: a K = 0 call, whose
feasible rows all have DM = 0, returns it. ``iterations_used`` is the size of
the candidate set.

Neither the candidates nor their scores depend on lam or K, so one stage holds
them, with their DM, penalty and violation arrays, for the last population
object and candidate set (the config with its cap cleared) an oracle was
called with; a call with both the same reuses it, and picks by one argmin or
argmax. A ``Population`` is frozen and its arrays are read-only copies, so the
object's identity stands for its contents. The stage holds its population
only weakly and is dropped when the population dies, and the old stage is
dropped before a new one is built.

The candidate grids are nested under doubling of their step counts, so
refining the search can only improve the reported best.
"""

from __future__ import annotations

import weakref
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
    """The search's (w, b) rows, unit-normalized normals; the oracles keep
    those with w.e > 0, after the do-nothing row.

    Per grid direction: the offset grid, then boundaries through each point,
    then through each ideal point. Then, if enabled, the boundary through
    each pair of distinct points (data and ideal), once per orientation.
    """
    X = pop.feature_matrix
    ideal = X + pop.trend.e / (2.0 * pop.costs)[:, None]

    thetas = 2.0 * np.pi * np.arange(cfg.angle_steps) / cfg.angle_steps
    directions = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    proj = directions @ X.T
    lo = np.min(proj, axis=1, keepdims=True)
    hi = np.max(proj, axis=1, keepdims=True)
    fractions = np.arange(cfg.offset_steps + 1) / cfg.offset_steps
    offsets = np.hstack([lo + (hi - lo) * fractions, proj, directions @ ideal.T])
    W = np.repeat(directions, offsets.shape[1], axis=0)
    B = -offsets.ravel()

    if cfg.use_candidates:
        points = np.vstack([X, ideal])
        i, j = np.triu_indices(points.shape[0], k=1)
        direction = points[j] - points[i]
        norm = np.linalg.norm(direction, axis=1)
        keep = norm >= 1e-12
        w = np.stack([direction[keep, 1], -direction[keep, 0]], axis=1) / norm[keep, None]
        b = -np.sum(w * points[i[keep]], axis=1)
        # each boundary once per orientation: (w, b), then (-w, -b)
        W = np.vstack([W, np.stack([w, -w], axis=1).reshape(-1, 2)])
        B = np.concatenate([B, np.stack([b, -b], axis=1).ravel()])

    return W, B


def _require_plane(pop: Population):
    if pop.d != 2:
        raise ValueError(f"oracle search requires d = 2, got d = {pop.d}")


class _Stage:
    """A population's candidates and their scores, for every lam and K.

    Row 0 is the do-nothing halfspace, whose scores (0, 0, 0) are set, not
    computed; the rest are the search rows with w.e > 0, scored by one
    ``halfspace_scores`` call. The stage refers to its population only
    weakly, and a finalizer empties the slot when the population dies.
    """

    def __init__(self, pop: Population, cfg: OracleConfig):
        self.pop = weakref.ref(pop)
        self.key = replace(cfg, K=0)
        e = pop.trend.e
        W, B = _candidates(pop, cfg)
        ahead = W @ e > 0
        W, B = W[ahead], B[ahead]
        scores = halfspace_scores(pop, W, B)[:3]
        w = e / np.linalg.norm(e)
        b = _all_benign_offset(pop.feature_matrix @ w + (w @ e) / (2.0 * pop.costs))
        self.W, self.B = np.insert(W, 0, w, axis=0), np.insert(B, 0, b)
        self.dm, self.penalty, self.violations = (np.insert(part, 0, 0) for part in scores)
        self.finalizer = weakref.finalize(pop, _drop_stage)


# The one held stage, or None.
_held: _Stage | None = None


def _drop_stage():
    """Empty the slot and detach the stage's finalizer."""
    global _held
    stage, _held = _held, None
    if stage is not None:
        stage.finalizer.detach()


def _scores(pop: Population, cfg: OracleConfig) -> _Stage:
    """The stage of ``pop``'s candidates under ``cfg``.

    The held stage is reused when it was built for this very ``pop`` object
    and a config equal to ``cfg`` up to the cap K; otherwise it is dropped and
    a new one built. Identity is a valid key because a ``Population`` is
    frozen and holds read-only copies of its arrays, and a stage leaves the
    slot when its population dies, so no later object can take its place.
    """
    global _held
    stage = _held  # read once: a finalizer may empty the slot at any time
    if stage is None or stage.pop() is not pop or stage.key != replace(cfg, K=0):
        stage = None  # the old stage is freed before the new one is built
        _drop_stage()
        stage = _held = _Stage(pop, cfg)
    return stage


def oracle_2d(pop: Population, cfg: OracleConfig) -> SolveResult:
    """Best mitigation over the candidates meeting the violation cap K."""
    _require_plane(pop)
    stage = _scores(pop, cfg)
    best = int(np.argmax(np.where(stage.violations <= cfg.K, stage.dm, -np.inf)))
    return _exact_result(pop, stage.W[best], stage.B[best], None, stage.W.shape[0], True)


def oracle_penalized_2d(pop: Population, lam: float, cfg: OracleConfig) -> SolveResult:
    """The best of its candidate set on -mitigation + lam * squared hinges."""
    _require_plane(pop)
    _require_lambda(lam)
    stage = _scores(pop, cfg)
    best = int(np.argmin(-stage.dm + lam * stage.penalty))
    return _exact_result(pop, stage.W[best], stage.B[best], lam, stage.W.shape[0], True)


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
