"""Brute-force reference solvers for two-dimensional desk-scale instances.

Exact optimization over halfspaces is combinatorially hard, but in the plane
a finite candidate set suffices for verification work: a direction/offset
grid, boundaries snapped through every data point and ideal point, and (for
exactness on point-incident optima) boundaries through every pair drawn from
the data and ideal points. The candidate set is built from arrays and scored
by :func:`~modbalance.metrics.halfspace_scores`, the closed form every other
halfspace score in the package uses, so the oracles count mitigation and
violations with the same ``BENIGN_TOL`` as ``metrics``. The returned
``SolveResult`` re-scores the winner by one ``halfspace_scores`` row, as every
solver's result does.

The candidate grids are nested under doubling of their step counts, so
refining the search can only improve the reported optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .metrics import halfspace_scores
from .model import BENIGN_TOL, Population
from .solver import SolveResult, _solve_result

__all__ = [
    "OracleConfig",
    "NoFeasibleCandidateError",
    "oracle_2d",
    "oracle_penalized_2d",
    "toy_disk",
]


class NoFeasibleCandidateError(RuntimeError):
    """Every candidate broke the violation cap; carries the least-bad one."""

    def __init__(self, message: str, w: np.ndarray, b: float, violations: int):
        super().__init__(message)
        self.w = w
        self.b = b
        self.violations = violations


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
        if self.angle_steps < 8 or self.offset_steps < 8:
            raise ValueError("angle_steps and offset_steps must be at least 8")
        if self.K < 0:
            raise ValueError("K must be nonnegative")


def _candidates(pop: Population, cfg: OracleConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stack of candidate (w, b) rows, unit-normalized normals.

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


def oracle_2d(pop: Population, cfg: OracleConfig) -> SolveResult:
    """Best mitigation over all candidates meeting the violation cap K."""
    _require_plane(pop)
    W, B = _candidates(pop, cfg)
    dm, _, violations = halfspace_scores(pop, W, B)
    feasible = violations <= cfg.K
    if not np.any(feasible):
        least = int(np.argmin(violations))
        raise NoFeasibleCandidateError(
            f"no candidate satisfies the cap K = {cfg.K}; "
            f"best candidate violates {int(violations[least])}",
            w=W[least],
            b=float(B[least]),
            violations=int(violations[least]),
        )
    masked = np.where(feasible, dm, -np.inf)
    best = int(np.argmax(masked))
    return _solve_result(pop, W[best], B[best], -dm[best], W.shape[0], True)


def oracle_penalized_2d(pop: Population, lam: float, cfg: OracleConfig) -> SolveResult:
    """Exact candidate-set minimizer of -mitigation + lam * squared hinges."""
    _require_plane(pop)
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be nonnegative and finite, got {lam}")
    W, B = _candidates(pop, cfg)
    dm, penalty, _ = halfspace_scores(pop, W, B)
    objective = -dm + lam * penalty
    best = int(np.argmin(objective))
    return _solve_result(pop, W[best], B[best], objective[best], W.shape[0], True)


def toy_disk(
    theta_grid, c: float = 0.5, samples: int = 100_000, seed: int = 0
) -> list[tuple[float, float, float]]:
    """Trade-off curve for content uniform on the unit disk, trend (1, 0).

    Sweeps vertical boundaries x1 = theta and reports, per theta, the mean
    per-user mitigation and the fraction of ideal points left unfiltered.
    One shared Monte Carlo sample serves the whole grid, so the speech index
    is exactly non-decreasing in theta rather than merely in expectation.
    """
    theta_grid = [float(t) for t in theta_grid]
    if any(t < -1.0 or t > 1.0 for t in theta_grid):
        raise ValueError("theta values must lie in [-1, 1]")
    if not (c > 0 and np.isfinite(c)):
        raise ValueError(f"manipulation cost c must be positive, got {c}")
    if samples < 1:
        raise ValueError("samples must be positive")

    rng = Generator(Philox(key=[int(seed) % 2**64, 0]))
    radius = np.sqrt(rng.uniform(size=samples))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=samples)
    x1 = radius * np.cos(angle)

    shift = 1.0 / (2.0 * c)  # trend advance along (1, 0)
    out = []
    for theta in theta_grid:
        v = x1 - theta
        active = (v <= BENIGN_TOL) & (v + shift > BENIGN_TOL)
        dm = float(np.mean(np.where(active, shift**2 - v**2, 0.0)))
        fos = float(np.mean(x1 + shift <= theta + BENIGN_TOL))
        out.append((theta, dm, fos))
    return out
