"""Distortion and free-speech measurements for a moderated population.

Distortion counts the squared displacement of users whose original content is
benign; everyone else contributes nothing. Mitigation compares a moderator
against the do-nothing baseline, user by user, and is always nonnegative: a
moderator can only shorten the detour a benign user takes chasing the trend.

Halfspaces have a closed form that simulates no responses:
``halfspace_scores`` gives DM, the squared ideal-point hinge penalty, the
violation count and the filtered count of a batch of halfspaces. It is the
one place that scores a halfspace: ``metrics``, ``dm_closed_form_linear``,
every ``SolveResult``, the solver's exact penalized objective and the d = 2
oracles all call it, and like ``best_responses`` it counts a score <=
``BENIGN_TOL`` as benign. ``metrics``, ``dm_closed_form_linear`` and
``SolveResult`` read the same one-row call, so ``SolveResult.metrics`` is
``metrics(pop, result.moderator)``. The do-nothing ``TRIVIAL`` mitigates
nothing and filters no one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (BENIGN_TOL, LinearModerator, Population, TrivialModerator,
                    _require_same_dimension)

__all__ = ["MetricReport", "halfspace_scores", "dm_closed_form_linear", "metrics",
           "generalization_gap"]


@dataclass(frozen=True)
class MetricReport:
    """Population-level summary of one moderator.

    ``fos_desired`` is the fraction of users whose ideal point is already
    benign (the hard-constraint quantity); ``fos_retained`` is the fraction
    whose best response actually survives moderation. Retained can only
    exceed desired: a user with a benign ideal point is never filtered.
    ``filtered_count`` and ``fos_retained`` are derived from one integer
    count, so filtered_count == n * (1 - fos_retained) up to float rounding.
    """

    dm: float
    fos_desired: float
    fos_retained: float
    filtered_count: int
    n: int


# Candidates per block of ``halfspace_scores``: an (n, block) temporary holds
# at most this many entries, or n entries (one candidate) when n is larger.
# 16 times PGD's ``_PGD_BLOCK_ENTRIES`` on purpose: at 2**12 the audit benchmark's peak
# RSS fell from 45.0 to 40.6 MiB, but its ops/s fell in 5 of 6 paired runs (8.5 to 7.3).
_SCORE_BLOCK_ENTRIES = 2**16


def halfspace_scores(
    pop: Population, W: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mitigation, squared-hinge penalty, violation and filtered counts of
    halfspaces.

    Row k of ``W`` (k, d) and entry k of ``B`` (k,) are the moderator
    {z : w.z + b <= 0}. With v = w.x + b the origin score, s = w.e/(2c) the
    trend advance along the normal and y = v + s the ideal point's score:

    - DM is the sum of (s^2 - v^2)/|w|^2 over users whose origin is benign
      (v <= BENIGN_TOL) while their ideal point is not (y > BENIGN_TOL);
    - the penalty is the sum of max(0, y)^2;
    - the violation count is #{y > BENIGN_TOL};
    - the filtered count is the number of users who stay filtered: v and y
      above BENIGN_TOL, and crossing to the boundary projection p of the
      ideal point earns no positive utility, p.e - c|p - x|^2 =
      x.e + |e|^2/(4c) - c y^2/|w|^2 <= 0, tested as
      y^2 >= (x.e/c + |e|^2/(4c^2)) |w|^2.

    Raises ValueError unless ``W`` is (k, d) with d = ``pop.d``, ``B`` is
    (k,), both are finite and every row of ``W`` is nonzero. Candidates are
    scored in blocks, so no temporary holds more than max(2**16, n) entries.
    """
    X, e = pop.feature_matrix, pop.trend.e
    W = np.asarray(W, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if W.ndim != 2 or W.shape[1] != pop.d or B.shape != W.shape[:1]:
        raise ValueError(f"need W of shape (k, {pop.d}) and B of shape (k,), "
                         f"got {W.shape} and {B.shape}")
    if not (np.all(np.isfinite(W)) and np.all(np.isfinite(B))):
        raise ValueError("W and B must be finite")
    norms = np.sum(W * W, axis=1)
    if not np.all(norms > 0):
        raise ValueError(f"row {int(np.argmin(norms > 0))} of W is a zero normal")
    costs = pop.costs[:, None]
    two_costs = 2.0 * costs
    crossing = (X @ e[:, None] + np.dot(e, e) / (4.0 * costs)) / costs  # x.e/c + |e|^2/(4c^2)
    k = W.shape[0]
    dm = np.empty(k)
    penalty = np.empty(k)
    violations = np.empty(k, dtype=np.int64)
    filtered = np.empty(k, dtype=np.int64)
    block = max(1, _SCORE_BLOCK_ENTRIES // pop.n)
    for start in range(0, k, block):
        rows = slice(start, start + block)
        Wb = W[rows]
        V = X @ Wb.T + B[rows]
        S = (Wb @ e) / two_costs
        Y = V + S
        origin_benign = V <= BENIGN_TOL
        ideal_filtered = Y > BENIGN_TOL
        active = origin_benign & ideal_filtered
        dm[rows] = np.sum(np.where(active, S * S - V * V, 0.0), axis=0) / norms[rows]
        hinge = np.maximum(Y, 0.0)
        hinge2 = hinge * hinge
        penalty[rows] = np.sum(hinge2, axis=0)
        violations[rows] = np.count_nonzero(ideal_filtered, axis=0)
        # origin and ideal point filtered, and crossing does not pay
        stays = (ideal_filtered ^ active) & (hinge2 >= crossing * norms[rows])
        filtered[rows] = np.count_nonzero(stays, axis=0)
    return dm, penalty, violations, filtered


def _halfspace_report(pop: Population, f: LinearModerator) -> tuple[MetricReport, float, int]:
    """The report, penalty and violation count of ``f``'s one ``halfspace_scores`` row."""
    _require_same_dimension(pop, f)
    dm, penalty, violations, filtered = (
        v[0].item() for v in halfspace_scores(pop, f.w[None, :], np.array([f.b])))
    n = pop.n
    report = MetricReport(dm, (n - violations) / n, (n - filtered) / n, filtered, n)
    return report, penalty, violations


def dm_closed_form_linear(pop: Population, f: LinearModerator) -> float:
    """Total mitigation of a halfspace moderator without simulating responses."""
    return _halfspace_report(pop, f)[0].dm


def metrics(pop: Population, f: LinearModerator | TrivialModerator) -> MetricReport:
    """Mitigation total plus both speech indices of a halfspace or ``TRIVIAL``.

    A halfspace is reported from its ``halfspace_scores`` row: ``fos_desired``
    counts the ideal points it leaves benign and ``fos_retained`` the users
    who do not stay filtered. ``TRIVIAL`` moves no one off the baseline.
    """
    if isinstance(f, TrivialModerator):
        return MetricReport(0.0, 1.0, 1.0, 0, pop.n)
    return _halfspace_report(pop, f)[0]


def generalization_gap(
    train: Population, test: Population, f: LinearModerator | TrivialModerator
) -> tuple[float, float]:
    """Per-capita mitigation gap and desired-speech gap between two samples."""
    if train.d != test.d:
        raise ValueError("train and test populations must share dimension")
    if train.trend != test.trend:
        raise ValueError("train and test populations must share the trend")
    m_train = metrics(train, f)
    m_test = metrics(test, f)
    dm_gap = abs(m_train.dm / train.n - m_test.dm / test.n)
    fos_gap = abs(m_train.fos_desired - m_test.fos_desired)
    return dm_gap, fos_gap
