"""Distortion and free-speech measurements for a moderated population.

Distortion counts the squared displacement of users whose original content is
benign; everyone else contributes nothing. Mitigation compares a moderator
against the do-nothing baseline, user by user, and is always nonnegative: a
moderator can only shorten the detour a benign user takes chasing the trend.

``metrics`` is one array pass over :func:`~modbalance.model.best_responses`.
The per-user functions (``distortion``, ``mitigation``, ``dm_population``)
are the by-definition references it is checked against.

Halfspaces also have a closed form that simulates no responses:
``halfspace_scores`` gives DM, the squared ideal-point hinge penalty and the
violation count of a batch of halfspaces. It is the one place that scores a
halfspace: ``dm_closed_form_linear``, every ``SolveResult``, the solver's
exact penalized objective and the d = 2 oracles all call it, and like
``best_responses`` it counts a score <= ``BENIGN_TOL`` as benign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    BENIGN_TOL,
    LinearModerator,
    Moderator,
    Population,
    ResponseCase,
    Trend,
    UserProfile,
    best_response,
    best_responses,
)


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


def baseline_distortion(u: UserProfile, e: Trend) -> float:
    """Distortion under the do-nothing moderator: |e|^2 / (4 c^2)."""
    return float(np.dot(e.e, e.e)) / (4.0 * u.c * u.c)


def distortion(u: UserProfile, e: Trend, f: Moderator) -> float:
    """Squared displacement of the best response, for benign-origin users only."""
    if not f.is_benign(u.x):
        return 0.0
    z_star = best_response(u, e, f).z_star
    delta = z_star - u.x
    return float(np.dot(delta, delta))


def mitigation(u: UserProfile, e: Trend, f: Moderator) -> float:
    """How much distortion ``f`` removes for this user versus doing nothing."""
    gated_baseline = baseline_distortion(u, e) if f.is_benign(u.x) else 0.0
    return gated_baseline - distortion(u, e, f)


def dm_population(pop: Population, f: Moderator) -> float:
    """Total distortion mitigation, summed user by user from best responses."""
    e = pop.trend
    return sum(mitigation(u, e, f) for u in pop.users)


# Candidates per block of ``halfspace_scores``: no (n, block) temporary holds
# more than about this many entries, whatever n is.
_SCORE_BLOCK_ENTRIES = 2**18


def halfspace_scores(
    pop: Population, W: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mitigation, squared-hinge penalty and violation count of halfspaces.

    Row k of ``W`` (k, d) and entry k of ``B`` (k,) are the moderator
    {z : w.z + b <= 0}. With v = w.x + b the origin score, s = w.e/(2c) the
    trend advance along the normal and y = v + s the ideal point's score:

    - DM is the sum of (s^2 - v^2)/|w|^2 over users whose origin is benign
      (v <= BENIGN_TOL) while their ideal point is not (y > BENIGN_TOL);
    - the penalty is the sum of max(0, y)^2;
    - the violation count is #{y > BENIGN_TOL}.

    Candidates are scored in blocks, so memory stays bounded for any n.
    """
    X, e = pop.feature_matrix, pop.trend.e
    W = np.asarray(W, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    two_costs = 2.0 * pop.costs[:, None]
    k = W.shape[0]
    dm = np.empty(k)
    penalty = np.empty(k)
    violations = np.empty(k, dtype=np.int64)
    block = max(1, _SCORE_BLOCK_ENTRIES // pop.n)
    for start in range(0, k, block):
        rows = slice(start, start + block)
        Wb = W[rows]
        V = X @ Wb.T + B[rows]
        S = (Wb @ e) / two_costs
        Y = V + S
        active = (V <= BENIGN_TOL) & (Y > BENIGN_TOL)
        dm[rows] = np.sum(np.where(active, S * S - V * V, 0.0), axis=0) / np.sum(Wb * Wb, axis=1)
        hinge = np.maximum(Y, 0.0)
        penalty[rows] = np.sum(hinge * hinge, axis=0)
        violations[rows] = np.count_nonzero(Y > BENIGN_TOL, axis=0)
    return dm, penalty, violations


def dm_closed_form_linear(pop: Population, f: LinearModerator) -> float:
    """Total mitigation of a halfspace moderator without simulating responses."""
    dm, _, _ = halfspace_scores(pop, f.w[None, :], np.array([f.b]))
    return float(dm[0])


def metrics(pop: Population, f: Moderator) -> MetricReport:
    """Mitigation total plus both speech indices, from one best-response pass.

    Only projected users mitigate: a filtered origin counts nothing, and a
    user who reaches the ideal point moves the baseline distance.
    """
    Z, cases = best_responses(pop, f)
    moved = cases == ResponseCase.PROJECTED
    costs = pop.costs[moved]
    e = pop.trend.e
    delta = Z[moved] - pop.feature_matrix[moved]
    dm = float(np.sum(np.dot(e, e) / (4.0 * costs * costs) - np.sum(delta * delta, axis=1)))
    desired = int(np.count_nonzero(cases == ResponseCase.UNCONSTRAINED))
    filtered = int(np.count_nonzero(cases == ResponseCase.STAY_FILTERED))
    n = pop.n
    return MetricReport(
        dm=dm,
        fos_desired=desired / n,
        fos_retained=(n - filtered) / n,
        filtered_count=filtered,
        n=n,
    )


def generalization_gap(
    train: Population, test: Population, f: Moderator
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
