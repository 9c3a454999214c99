"""Distortion and free-speech measurements for a moderated population.

Distortion counts the squared displacement of users whose original content is
benign; everyone else contributes nothing. Mitigation compares a moderator
against the do-nothing baseline, user by user, and is always nonnegative: a
moderator can only shorten the detour a benign user takes chasing the trend.

``metrics`` is one array pass over :func:`~modbalance.model.best_responses`.
The per-user functions (``distortion``, ``mitigation``, ``dm_population``)
are the by-definition references it is checked against.
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

    CSV_FIELDS = ("dm", "fos_desired", "fos_retained", "filtered_count", "n")

    def as_row(self) -> tuple:
        return (self.dm, self.fos_desired, self.fos_retained, self.filtered_count, self.n)


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


def mitigation_terms_linear(
    X: np.ndarray, costs: np.ndarray, e: np.ndarray, w: np.ndarray, b: float
) -> np.ndarray:
    """Per-user mitigation against a halfspace, vectorized closed form.

    A user mitigates iff their origin is benign while their ideal point is
    not; the saving is (s^2 - v^2)/|w|^2 with v = w.x + b the origin score
    and s = w.e/(2c) the trend advance along the normal.
    """
    v = X @ w + b
    s = float(np.dot(w, e)) / (2.0 * costs)
    active = (v <= BENIGN_TOL) & (v + s > BENIGN_TOL)
    out = np.zeros_like(v)
    out[active] = (s[active] ** 2 - v[active] ** 2) / float(np.dot(w, w))
    return out


def dm_closed_form_linear(pop: Population, f: LinearModerator) -> float:
    """Total mitigation of a halfspace moderator without simulating responses."""
    terms = mitigation_terms_linear(
        pop.feature_matrix, pop.costs, pop.trend.e, f.w, f.b
    )
    return float(np.sum(terms))


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
