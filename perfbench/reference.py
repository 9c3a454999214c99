"""Independent reference values for checking modbalance outputs.

Plain numpy written from the model's definitions; nothing here imports
modbalance. A user with content x and cost c facing the halfspace moderator
{z : w.z + b <= 0} and the trend e wants the ideal point z' = x + e/(2c):

- if z' is benign the user takes it, and the moderator mitigates nothing;
- if z' is filtered but x is benign, the user settles for p, the projection
  of z' onto the boundary, and the moderator saves |e|^2/(4c^2) - |p - x|^2;
- if both are filtered, the user crosses to p only when the utility
  p.e - c|p - x|^2 of doing so is positive, and otherwise stays filtered.

Scores within ``TOL`` of zero count as benign, the model's convention.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

TOL = 1e-12


def mixture_costs(seed: int, n: int, c_lo: float = 0.5, c_hi: float = 1.5) -> np.ndarray:
    """The cost column of a generated population: the documented stream 3 of
    the seed's Philox key, uniform over [c_lo, c_hi)."""
    return Generator(Philox(key=[int(seed) % 2**64, 3])).uniform(c_lo, c_hi, n)


def dm_bound(costs: np.ndarray, e: np.ndarray) -> float:
    """No moderator saves a user more than the baseline |e|^2/(4c^2)."""
    return float(np.sum(np.dot(e, e) / (4.0 * costs**2)))


def _geometry(X, costs, e, w, b):
    """Origin scores, ideal points, ideal scores and boundary projections."""
    w = np.asarray(w, dtype=np.float64)
    ideal = X + e[None, :] / (2.0 * costs)[:, None]
    origin_score = X @ w + b
    ideal_score = ideal @ w + b
    projection = ideal - (ideal_score / np.dot(w, w))[:, None] * w[None, :]
    return origin_score, ideal, ideal_score, projection


def mitigation(X, costs, e, w, b) -> np.ndarray:
    """Per-user distortion mitigation, from the boundary projection itself."""
    origin_score, _, ideal_score, projection = _geometry(X, costs, e, w, b)
    mitigated = (origin_score <= TOL) & (ideal_score > TOL)
    baseline = np.dot(e, e) / (4.0 * costs**2)
    moved = np.sum((projection - X) ** 2, axis=1)
    return np.where(mitigated, baseline - moved, 0.0)


def dm(X, costs, e, w, b) -> float:
    """Total distortion mitigation of the halfspace."""
    return float(np.sum(mitigation(X, costs, e, w, b)))


def violations(X, costs, e, w, b, slack: float = 0.0) -> int:
    """Number of ideal points scoring above ``slack`` (filtered)."""
    _, _, ideal_score, _ = _geometry(X, costs, e, w, b)
    return int(np.count_nonzero(ideal_score > slack))


def penalized_objective(X, costs, e, w, b, lam: float) -> float:
    """J = -DM + lam * sum_i max(0, w.z'_i + b)^2."""
    _, _, ideal_score, _ = _geometry(X, costs, e, w, b)
    hinge = np.maximum(ideal_score, 0.0)
    return -dm(X, costs, e, w, b) + lam * float(np.dot(hinge, hinge))


def filtered(X, costs, e, w, b) -> np.ndarray:
    """Users who stay filtered: origin and ideal point filtered, and crossing
    to the boundary earns no positive utility."""
    origin_score, _, ideal_score, projection = _geometry(X, costs, e, w, b)
    crossing_utility = projection @ e - costs * np.sum((projection - X) ** 2, axis=1)
    return (origin_score > TOL) & (ideal_score > TOL) & (crossing_utility <= 0.0)


def fos_desired(X, costs, e, w, b) -> float:
    """Share of users whose ideal point is benign."""
    _, _, ideal_score, _ = _geometry(X, costs, e, w, b)
    return float(np.mean(ideal_score <= TOL))


def close(a: float, b: float, scale: float, rtol: float = 1e-9) -> bool:
    """|a - b| within rtol of a problem scale (for DM and J: the DM bound)."""
    return abs(float(a) - float(b)) <= rtol * max(1.0, float(scale))
