"""Smoothed-surrogate optimizer for halfspace moderators.

The hard trade-off problem (maximize mitigation subject to a cap on how many
ideal points get filtered) is relaxed to an unconstrained sum of per-user
losses. Writing v = w.x + b, a = w.e/(2c) and y = v + a, the per-user loss is
a quasi-convex curve in y, minimized when the user's content sits exactly on
the decision boundary (y = a, value -a^2):

    y < (1-eps)*a :  (1-eps^2)^2 a^3 / (2 eps y - 4 a (1-eps) + 3 a (1-eps)^2)
    (1-eps)*a <= y <= a :  y^2 - 2 a y
    y > a :  lam * (y - a)^2 - a^2

The left rational branch glues C1-continuously onto the parabola and decays
to zero as y -> -inf, so far-benign users exert no pull. The right branch
equals lam * (w.x + b)^2 - a^2: it charges the squared score of the user's
*origin* once the origin is filtered, and nothing while the origin is benign,
however far the ideal point x + e/2c lies past the boundary. Its lam is
therefore not the lam of the exact penalized objective -DM + lam * penalty,
whose penalty charges the squared hinge of every filtered *ideal point*. The
sum is minimized by projected gradient descent under the box |w_j| <= 1, all
restarts at once as the rows of one iterate [w | b], each row with its own
step and its own lam, held as a column; a sweep runs every restart of every
lam of its grid as one iterate, and a single solve is its one-lam case. A
trial point the Armijo rule rejects halves the step. One it accepts sets the
next step to the Barzilai-Borwein step of the move just made (the spectral
projected gradient of Birgin, Martinez and Raydan, 2000), or grows the step
by 1.5 where the move saw no positive curvature. The iterate is evaluated in blocks of rows small enough to stay in
cache, and every step is rowwise, so a row gets the bits it gets alone.

``polish_penalized`` minimizes the exact penalized objective
-DM + lam * sum_i max(0, w.(x_i + e/2c_i) + b)^2 over unit normals, started from
any halfspace (typically the PGD solution); it is the same objective as the
d = 2 reference ``oracle_penalized_2d``, in any dimension. Each poll of its
search over directions scores all its turned normals at their exact best
offsets in one sorted sweep (``_exact_offsets``), and the returned record's
objective is -dm + lam * penalty of its own scored row.

Every solver here and both oracles return a ``SolveResult``, the one record of
a solve. It scores its moderator once, by a one-row ``halfspace_scores`` call:
DM, the squared ideal-point hinge penalty, the violation count and the
filtered count, from which its ``metrics`` report is built. No solve
simulates best responses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .metrics import MetricReport, _halfspace_report
from .model import (LinearModerator, Population, SettingError, _require_int, _require_lambda,
                    _require_positive, _require_same_dimension, _require_seed, _stream)

__all__ = [
    "SolverConfig",
    "CalibrationTarget",
    "CalibrationOutcome",
    "SolveResult",
    "NonPositiveAError",
    "DegenerateSolutionError",
    "surrogate_loss",
    "surrogate_gradient",
    "pgd_solve",
    "polish_penalized",
    "lambda_max",
    "calibrate_lambda",
    "sweep_lambda",
    "derive_seed",
]

_GOLDEN64 = 0x9E3779B97F4A7C15


def derive_seed(base: int, index: int) -> int:
    """Deterministic per-index seed stream; index 0 maps to the base seed."""
    return (int(base) + int(index) * _GOLDEN64) % 2**64


class NonPositiveAError(ValueError):
    """The loss shape parameter a = w.e/(2c) must be positive; caller floors it."""


class DegenerateSolutionError(RuntimeError):
    """Every restart collapsed to the zero normal; re-seed and retry."""


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters for the surrogate objective and its PGD solver.

    ``learning_rate`` is each restart's first trial step on the mean-loss
    scale; later steps follow from the restart's own moves (``pgd_solve``).
    It is also the scale of the stationarity test: a restart has converged
    once (w - clip(w - (learning_rate/n) grad_w, -1, 1)) / learning_rate and
    grad_b / n together have norm at most ``_TOL_GRAD``. That tolerance and
    the floor ``_A_MIN`` on a, which keeps the branch formulas defined where
    w.e <= 0, are module constants: numerical guards, not modelling choices,
    so no caller tunes them. The floor never applies to geometry (the y values).
    """

    epsilon: float = 0.9
    lam: float = 1.0
    learning_rate: float = 0.1
    max_iters: int = 2000
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise SettingError("epsilon", f"epsilon must be in (0, 1), got {self.epsilon}")
        _require_lambda(self.lam)
        _require_positive("learning_rate", self.learning_rate)
        for name in ("max_iters", "restarts"):
            _require_int(name, getattr(self, name), 1)
        _require_seed(self.seed)


@dataclass(frozen=True)
class CalibrationTarget:
    """Hard cap K on filtered ideal points, and the bisection precision."""

    K: int
    delta: float = 1e-3

    def __post_init__(self):
        _require_int("K", self.K, 0)
        _require_positive("delta", self.delta)


@dataclass(frozen=True)
class SolveResult:
    """A solved moderator with its diagnostics; the one record of a solve.

    ``dm``, ``penalty`` and ``violations`` score the returned moderator by one
    ``halfspace_scores`` row: total mitigation, the squared ideal-point hinge
    penalty sum_i max(0, y_i)^2 and the count #{y_i > BENIGN_TOL}, where y_i
    is user i's ideal-point score. ``metrics`` is the report of the same row:
    its ``dm`` is ``dm``, ``fos_desired`` is (n - violations)/n and
    ``fos_retained`` is (n - filtered)/n, with the row's filtered count. It
    is ``metrics(pop, moderator)``, which reads the same row.

    ``objective`` is the summed surrogate loss for the PGD solver. Otherwise
    it is the exact objective of the returned moderator, computed from this
    record: -dm + lam * penalty for ``polish_penalized`` and the penalized
    oracle, -dm for the constrained oracle.

    ``iterations_used`` and ``converged`` describe the winning search only.
    For the PGD solver that is the first restart with the lowest objective:
    its trial evaluations, accepted or rejected, and whether the returned
    point passes the stationarity test. For ``polish_penalized`` they are the
    poll count and whether the step fell below its tolerance, and for the
    oracles the size of their candidate set (the do-nothing row and the search
    rows with w.e > 0) and ``True``.
    """

    moderator: LinearModerator
    objective: float
    dm: float
    penalty: float
    violations: int
    metrics: MetricReport
    iterations_used: int
    converged: bool


def _branch_terms(y: np.ndarray, a: np.ndarray, eps: float, lam):
    """Loss values, dl/dy and dl/dy + dl/da, elementwise for 1-D or 2-D arrays; a > 0.

    ``lam`` is a scalar or, for 2-D arrays, an (R, 1) column of row lams.

    The middle and right branches share the gap g = y - a: with k = lam where
    g > 0 and 1 otherwise, the value is k g^2 - a^2 (the middle branch's
    y^2 - 2ay is g^2 - a^2), dl/dy is 2 k g and dl/dy + dl/da is -2a; k g is
    formed as g + (lam - 1) max(g, 0). The left branch, q = (1-eps^2)^2 a^3 /
    den with den = 2 eps y + beta a, is computed only on the users left of
    (1-eps) a, where den < 0: there dl/dy = -2 eps q / den and
    dl/dy + dl/da = q (3/a - (2 eps + beta)/den). Every output is
    elementwise, so a row gets the bits it gets alone.
    """
    beta = 3.0 * (1.0 - eps) ** 2 - 4.0 * (1.0 - eps)
    gap = y - a
    kgap = gap + (lam - 1.0) * np.maximum(gap, 0.0)
    values = kgap * gap - a * a
    dl_dy = 2.0 * kgap
    dl_dsum = -2.0 * a
    left = np.flatnonzero(y < (1.0 - eps) * a)
    yl, al = y.take(left), a.take(left)
    den = 2.0 * eps * yl + beta * al
    q = (1.0 - eps**2) ** 2 * (al * al * al) / den
    values.put(left, q)
    dl_dy.put(left, -2.0 * eps * q / den)
    dl_dsum.put(left, q * (3.0 / al - (2.0 * eps + beta) / den))
    return values, dl_dy, dl_dsum


def surrogate_loss(y: float, a: float, cfg: SolverConfig) -> float:
    """Single-user surrogate loss; rejects a <= 0 (caller applies the floor)."""
    if a <= 0:
        raise NonPositiveAError(f"loss shape parameter a must be positive, got {a}")
    values, _, _ = _branch_terms(np.array([y], dtype=np.float64),
                                 np.array([a], dtype=np.float64), cfg.epsilon, cfg.lam)
    return float(values[0])


def _objective_and_gradient(Z, X, e, half_inv_cost, eps: float, lam):
    """Summed surrogate loss and its exact gradient at R points at once.

    Row r of ``Z`` (R, d + 1) is one point [w | b]; ``half_inv_cost`` is
    1/(2c) per user and ``lam`` an (R, 1) column, row r's lam.
    Returns the objectives (R,) and the gradients G (R, d + 1) in the same
    layout. Rows beyond max(1, ``_PGD_BLOCK_ENTRIES`` // n) are split into
    blocks of that many, each evaluated by a call of its own, so no (rows, n)
    temporary holds more than max(``_PGD_BLOCK_ENTRIES``, n) entries.

    Both y and a depend on w (da/dw = e/(2c)); only y depends on b, so G's b
    entry is the sum of dl/dy and its w part is
    X^T dl/dy + e sum_i (dl/dy + dl/da)_i / (2c_i). Where the floor is active
    (a_raw < ``_A_MIN``), a is held constant: its chain-rule term drops out and
    the sum is dl/dy alone.

    Per-user terms are laid out (R, n) and each product with X or e is a
    stacked matmul over contiguous rows, which numpy runs as one
    matrix-vector product per row: each row gets the bits it would get
    alone, so blocking moves no bit either. That matters because objectives
    near zero are ill-conditioned (a user's y can be a 1e-6 difference of
    O(1) scores); one matrix-matrix product sums in another order and moves
    them by up to 6e-10 relative.
    """
    R, size = Z.shape[0], max(1, _PGD_BLOCK_ENTRIES // X.shape[0])
    if R > size:
        obj, G = np.empty(R), np.empty_like(Z)
        for start in range(0, R, size):
            block = slice(start, start + size)
            obj[block], G[block] = _objective_and_gradient(
                Z[block], X, e, half_inv_cost, eps, lam[block])
        return obj, G
    W = np.ascontiguousarray(Z[:, :-1])
    a_raw = np.matmul(W[:, None, :], e) * half_inv_cost
    y = np.matmul(X, W[:, :, None])[:, :, 0] + Z[:, -1:] + a_raw
    a = np.maximum(a_raw, _A_MIN)
    values, dl_dy, dl_dsum = _branch_terms(y, a, eps, lam)
    np.copyto(dl_dsum, dl_dy, where=a_raw < _A_MIN)

    G = np.empty_like(Z)
    G[:, :-1] = np.matmul(X.T, dl_dy[:, :, None])[:, :, 0]
    G[:, :-1] += (dl_dsum * half_inv_cost).sum(axis=1)[:, None] * e
    G[:, -1] = dl_dy.sum(axis=1)
    return values.sum(axis=1), G


def surrogate_gradient(
    w, b: float, pop: Population, cfg: SolverConfig
) -> tuple[np.ndarray, float]:
    """Exact gradient of the summed surrogate loss over the population: one
    ``_objective_and_gradient`` row, with ``cfg.lam`` as its (1, 1) column."""
    Z = np.append(np.asarray(w, dtype=np.float64), float(b))[None, :]
    _, G = _objective_and_gradient(Z, pop.feature_matrix, pop.trend.e, 1.0 / (2.0 * pop.costs),
                                   cfg.epsilon, np.full((1, 1), cfg.lam))
    return G[0, :-1], float(G[0, -1])


def lambda_max(pop: Population) -> float:
    """Upper bound on achievable mitigation, plus one: a safe bisection cap.

    No user can save more than their baseline distortion |e|^2/(4c^2), so the
    termwise sum bounds any moderator's total mitigation.
    """
    e2 = float(np.dot(pop.trend.e, pop.trend.e))
    return float(np.sum(e2 / (4.0 * pop.costs**2))) + 1.0


def _initial_point(
    r: int, seed: int, restarts: int, X: np.ndarray, e: np.ndarray
) -> tuple[np.ndarray, float]:
    """Restart r of ``restarts`` under ``seed``: w along the trend e (plus noise
    from stream (seed, r) for r > 0), boundary at a data quantile so restarts
    probe different cuts through the mass. e is nonzero and the noise a
    continuous draw, so the direction is never zero."""
    direction = e if r == 0 else e + _stream(seed, r).normal(scale=0.3, size=e.shape[0])
    w = direction / np.max(np.abs(direction))
    q = (r + 1) / (restarts + 1)
    b = -float(np.quantile(X @ w, q))
    return w, b


def _solve_result(pop: Population, w, b, objective, iterations, converged) -> SolveResult:
    """The SolveResult of halfspace (w, b), scored by one ``halfspace_scores`` row."""
    f = LinearModerator(w, b)
    report, penalty, violations = _halfspace_report(pop, f)
    return SolveResult(f, float(objective), report.dm, penalty, violations, report,
                       int(iterations), bool(converged))


# Armijo rule along the projection arc (Bertsekas 1976): sufficient-decrease
# fraction, and the factors applied to a row's step on accept and reject; an
# accepted move with positive curvature sets the Barzilai-Borwein step instead,
# clamped to [_STEP_MIN, _STEP_MAX]. Then ``SolverConfig``'s numerical guards.
_ARMIJO_SIGMA = 1e-4
_STEP_GROW = 1.5
_STEP_SHRINK = 0.5
_STEP_MIN = 1e-10
_STEP_MAX = 1e10
_TOL_GRAD = 1e-8
_A_MIN = 1e-6
# Entries (rows x users) per evaluation block of ``_objective_and_gradient``,
# 8 rows at n = 500: there a row costs least in blocks of 8-16 rows, whose
# (rows, n) temporaries stay in cache; 2**13 ran the tradeoff sweep no faster
# and doubled its peak of traced allocations, and larger blocks ran it slower.
# ``metrics._SCORE_BLOCK_ENTRIES`` is 16 times larger on purpose: it says why.
_PGD_BLOCK_ENTRIES = 2**12


def _clip(x, lo, hi):
    """np.clip's values at a fraction of its call overhead on a few rows."""
    return np.minimum(np.maximum(x, lo), hi)


def _rowdot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Dot products of matching rows, each by the BLAS dot one row gets alone."""
    return np.matmul(U[:, None, :], V[:, :, None])[:, 0, 0]


def _stationary(Z, G, n: int, cfg: SolverConfig) -> np.ndarray:
    """Per row of [w | b]: passes the stationarity test of ``SolverConfig``."""
    P = (Z - _clip(Z - (cfg.learning_rate / n) * G, -1.0, 1.0)) / cfg.learning_rate
    P[:, -1] = G[:, -1] / n
    return np.sqrt(_rowdot(P, P)) <= _TOL_GRAD


def _pgd_rows(pop: Population, cfg: SolverConfig, lams: list[float]) -> list[SolveResult]:
    """The solve of ``pgd_solve`` at each lam of ``lams``, all in one iterate.

    Group j is the ``cfg.restarts`` rows of the solve at lam = ``lams[j]``,
    restart r started by ``_initial_point`` under seed
    ``derive_seed(cfg.seed, j)``. Every row carries its own lam, in one
    (rows, 1) column however many groups there are, and every step below is
    rowwise, so group j gets the bits of its own solve, and the loop runs as
    many trials as its slowest group needs, not their sum. Every trial
    evaluates its running rows by one ``_objective_and_gradient`` call,
    which splits them into blocks only when they outgrow one.
    Returns each group's winner, in the order of ``lams``.
    """
    X, e = pop.feature_matrix, pop.trend.e
    n, d = X.shape
    R = cfg.restarts
    half_inv_cost = 1.0 / (2.0 * pop.costs)
    upper = np.append(np.ones(d), np.inf)
    Z = np.array([np.append(*_initial_point(r, derive_seed(cfg.seed, j), R, X, e))
                  for j in range(len(lams)) for r in range(R)])
    lam = np.repeat(np.asarray(lams, dtype=np.float64), R)[:, None]
    obj, G = _objective_and_gradient(Z, X, e, half_inv_cost, cfg.epsilon, lam)
    iterations = np.zeros(Z.shape[0], dtype=np.int64)
    converged = _stationary(Z, G, n, cfg)

    step = np.full(Z.shape[0], cfg.learning_rate)
    for trials in range(1, cfg.max_iters + 1):
        rows = np.flatnonzero(~converged)
        if rows.size == 0:
            break
        Zr, Gr, t = Z.take(rows, axis=0), G.take(rows, axis=0), step.take(rows)
        Z_try = _clip(Zr - (t / n)[:, None] * Gr, -upper, upper)
        obj_try, G_try = _objective_and_gradient(Z_try, X, e, half_inv_cost, cfg.epsilon,
                                                 lam.take(rows, axis=0))
        move = Z_try - Zr
        ok = obj_try <= obj.take(rows) + _ARMIJO_SIGMA * _rowdot(Gr, move)  # nan/inf trials fail
        ss, sy = _rowdot(move, move), _rowdot(move, G_try - Gr)
        curved = sy > 0
        spectral = _clip(n * ss / np.where(curved, sy, 1.0), _STEP_MIN, _STEP_MAX)
        step[rows] = np.where(ok, np.where(curved, spectral, t * _STEP_GROW), t * _STEP_SHRINK)
        moved, Z_ok, G_ok = rows[ok], Z_try[ok], G_try[ok]
        Z[moved], G[moved], obj[moved] = Z_ok, G_ok, obj_try[ok]
        converged[moved] = _stationary(Z_ok, G_ok, n, cfg)
        iterations[rows] = trials

    results = []
    for first in range(0, Z.shape[0], R):
        nonzero = first + np.flatnonzero(np.any(np.abs(Z[first:first + R, :-1]) > 0, axis=1))
        if nonzero.size == 0:
            raise DegenerateSolutionError("all restarts collapsed to w = 0; re-seed")
        r = nonzero[np.argmin(obj[nonzero])]
        results.append(_solve_result(pop, Z[r, :-1], Z[r, -1], obj[r], iterations[r],
                                     converged[r]))
    return results


def pgd_solve(pop: Population, cfg: SolverConfig) -> SolveResult:
    """Minimize the summed surrogate loss under |w_j| <= 1; best of restarts.

    The restarts are the rows of one (R, d + 1) iterate [w | b], each with
    its own step t, first ``learning_rate``. One evaluation per iteration
    scores every running row's trial (clip(w - (t/n) grad_w, -1, 1), b - (t/n)
    grad_b). The Armijo rule accepts it if it lowers the objective by at
    least ``_ARMIJO_SIGMA`` times the gradient's inner product with the move
    s: the row moves. With dg the change of the gradient from the old point
    to the trial, the next t is then the Barzilai-Borwein step
    n (s.s) / (s.dg), clamped to [``_STEP_MIN``, ``_STEP_MAX``], when
    s.dg > 0, and t times ``_STEP_GROW`` otherwise. A rejected trial leaves
    the row in place and multiplies t by ``_STEP_SHRINK``. So a row's
    objective never rises and its current iterate is its best. It stops at a
    point passing ``SolverConfig``'s stationarity test or after
    ``max_iters`` trials. The first lowest objective with w != 0 wins. Each
    restart's state is held once, in arrays indexed by restart: a trial gathers
    the running rows, writes the accepted trials back and tests only those.
    This is the one-group case of the iterate ``sweep_lambda`` runs
    (``_pgd_rows``).
    """
    return _pgd_rows(pop, cfg, [cfg.lam])[0]


# Pattern search over the normal's direction: rotation step (radians) at the
# start, the step below which the search stops, and a cap on polls that
# guards against an endless run of ever smaller strict improvements. A sweep
# value J is a difference of running sums and carries their rounding, so
# values within _POLISH_TIE * |J| of a poll's best count as tied with it and
# the first of them wins, as it would in exact arithmetic.
_POLISH_STEP = 1.5
_POLISH_STEP_TOL = 1e-3
_POLISH_MAX_POLLS = 1000
_POLISH_TIE = 1e-12


def _exact_offsets(P: np.ndarray, S: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets b minimizing the exact penalized objective for k unit normals.

    Row r of ``P`` (k, n) holds normal r's origin scores p_i = w.x_i and row r
    of ``S`` its trend advances s_i = w.e/(2c_i). User i contributes 0 while
    b <= -p_i - s_i (ideal point benign), -(s_i^2 - (p_i + b)^2) +
    lam (p_i + s_i + b)^2 while -p_i - s_i < b <= -p_i (mitigated, ideal
    point filtered), and lam (p_i + s_i + b)^2 once b > -p_i (origin
    filtered). The objective is continuous at the first breakpoint and jumps
    up by s_i^2 past the second, whose closed side is attained. Between
    sorted breakpoints it is one convex quadratic A b^2 + B b + C whose
    coefficients are running sums, so each piece is minimized in closed form:
    O(n log n) time and O(n) memory per row. Each row is swept on its own, so
    it gets the bits its one-row call gets.

    Returns (b, J), each (k,). Where no offset beats J = 0, in particular in
    a row with some s_i <= 0, b is an all-benign offset and J = 0.
    """
    k, n = P.shape
    Q = P + S
    breakpoints = np.concatenate([-Q, -P], axis=1)
    order = np.argsort(breakpoints, axis=1, kind="stable")
    enters = order < n  # ideal point crosses: user becomes mitigated and penalized
    user = np.where(enters, order, order - n)
    row = np.arange(k)[:, None]
    Pu, Qu, Su = P[row, user], Q[row, user], S[row, user]
    mitigated = np.where(enters, 1.0, -1.0)  # joins or leaves the mitigated set
    penalized = lam * enters
    A = np.cumsum(penalized + mitigated, axis=1)
    B = np.cumsum(2.0 * (penalized * Qu + mitigated * Pu), axis=1)
    C = np.cumsum(penalized * Qu**2 + mitigated * (Pu**2 - Su**2), axis=1)
    lo = breakpoints[row, order]
    hi = np.concatenate([lo[:, 1:], np.full((k, 1), np.inf)], axis=1)
    vertex = np.divide(-B, 2.0 * A, out=lo.copy(), where=A > 0)
    b = np.clip(vertex, lo, hi)
    J = (A * b + B) * b + C
    best = np.argmin(J, axis=1)[:, None]
    b, J = b[row, best][:, 0], J[row, best][:, 0]
    gains = (J < 0.0) & np.all(S > 0, axis=1)
    return np.where(gains, b, _all_benign_offset(Q)), np.where(gains, J, 0.0)


def _all_benign_offset(Q: np.ndarray):
    """-(m + 1 + |m|) for m the largest of ideal-point scores ``Q`` (last axis):
    an offset leaving every ideal point benign, by a margin that scales with m."""
    m = np.max(Q, axis=-1)
    return -(m + 1.0 + np.abs(m))


def _tangent_basis(w: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the complement of unit w, by a Householder
    reflection that maps the first coordinate axis onto -sign(w_0) w."""
    u = w.copy()
    u[0] += 1.0 if w[0] >= 0 else -1.0
    H = np.eye(w.shape[0]) - 2.0 * np.outer(u, u) / float(np.dot(u, u))
    return H[1:]


def _pattern_search(pop: Population, w: np.ndarray, b: float, J: float, lam: float):
    """Compass search over unit normals, each scored at its exact best offset.

    Every poll turns w by +/- step along each tangent basis vector, in the
    order +t_0, -t_0, +t_1, -t_1, ..., scores the 2(d - 1) turned normals in
    one ``_exact_offsets`` call and moves to the first of those tied with
    the best, unless the current point is among them; a poll without a move
    (at d = 1, every poll) halves the step. Returns
    (w, b, J, polls, converged), converged meaning the step fell below its
    tolerance rather than the poll cap being reached.
    """
    X, e, two_costs = pop.feature_matrix, pop.trend.e, 2.0 * pop.costs
    step, polls = _POLISH_STEP, 0
    while step >= _POLISH_STEP_TOL and polls < _POLISH_MAX_POLLS:
        polls += 1
        turns = np.sin(step) * _tangent_basis(w)
        W = np.cos(step) * w + np.stack([turns, -turns], axis=1).reshape(-1, w.shape[0])
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        offsets, Js = _exact_offsets(W @ X.T, (W @ e)[:, None] / two_costs, lam)
        scores = np.append(J, Js)  # the current point first, so it keeps ties
        low = scores.min()
        best = int(np.argmax(scores <= low + _POLISH_TIE * abs(low)))
        if best == 0:
            step *= 0.5
        else:
            w, b, J = W[best - 1], offsets[best - 1], Js[best - 1]
    return w, b, J, polls, step < _POLISH_STEP_TOL


def _exact_result(pop: Population, w, b, lam, iterations, converged) -> SolveResult:
    """(w, b)'s SolveResult, objective -dm + lam * penalty of its own row (-dm if lam is None)."""
    result = _solve_result(pop, w, b, 0.0, iterations, converged)
    # 0.0 - dm, not -dm: a record with DM = 0 prints objective 0, not -0
    objective = 0.0 - result.dm if lam is None else -result.dm + lam * result.penalty
    return replace(result, objective=objective)


def polish_penalized(pop: Population, f: LinearModerator, lam: float) -> SolveResult:
    """Minimize the exact penalized objective over unit-normal halfspaces.

    The objective is -DM + lam * sum_i max(0, w.(x_i + e/2c_i) + b)^2, the one
    ``oracle_penalized_2d`` minimizes, in any dimension. Two pattern searches
    over the normal's direction run, one from f's normal and one from the
    trend, each poll scoring its turned normals at their exact best offsets
    in one batch. The better search's moderator is returned if its record
    scores strictly below f rescaled to a unit normal, and that start
    otherwise, so the result never scores above it, nor above the do-nothing
    value 0. |w| = 1, so |w_j| <= 1 still holds, and ``objective`` is
    -dm + lam * penalty of the returned record.
    """
    _require_lambda(lam)
    _require_same_dimension(pop, f)
    norm = float(np.linalg.norm(f.w))
    W = np.stack([f.w / norm, pop.trend.e / np.linalg.norm(pop.trend.e)])
    offsets, Js = _exact_offsets(W @ pop.feature_matrix.T,
                                 (W @ pop.trend.e)[:, None] / (2.0 * pop.costs), lam)
    runs = [_pattern_search(pop, W[k], offsets[k], Js[k], lam) for k in (0, 1)]
    w, b, _, polls, converged = min(runs, key=lambda run: run[2])
    result = _exact_result(pop, w, b, lam, polls, converged)
    start = _exact_result(pop, W[0], f.b / norm, lam, polls, converged)
    return result if result.objective < start.objective else start


@dataclass(frozen=True)
class CalibrationOutcome:
    """Result of the bisection on lambda.

    ``feasible`` is False when even the lambda cap cannot push the violation
    count under K; the cap's solution is still returned for inspection.
    """

    lam: float
    result: SolveResult
    feasible: bool
    solve_count: int


def calibrate_lambda(
    pop: Population, target: CalibrationTarget, cfg: SolverConfig
) -> CalibrationOutcome:
    """Bisection for the smallest penalty strength meeting the K-cap.

    The bisection assumes that violations shrink as lambda grows, so that
    too many violations at a midpoint send the search to the upper half.
    The assumption fails: the violation count of the PGD solutions is not
    monotone in lambda (on the README population at K = 25, solver seed 0:
    0 at lambda = 163.06, 1 at 81.53, 44 at 40.77, 47 at 61.15 and 1 at
    71.34). The caller then gets the smallest probed lambda whose solve met
    the cap. Its moderator meets the cap, but a smaller feasible lambda may
    have been skipped, and it may mitigate nothing (DM = 0 in that README
    case, at lambda = 65.034 with 1 violation, after 19 solves). Each solve
    uses a seed derived from (base seed, solve index) for a reproducible
    trace. The interval shrinks from lambda_max to delta in
    ceil(log2(max/delta)) midpoint solves, plus the single feasibility probe
    at the cap, for every delta: the loop halves the exact bracket width
    rather than testing hi - lo, which stalls at adjacent floats.
    """
    if target.K > pop.n:
        raise ValueError(f"K = {target.K} exceeds population size {pop.n}")

    def solve_at(lam: float, index: int) -> SolveResult:
        return pgd_solve(pop, replace(cfg, lam=lam, seed=derive_seed(cfg.seed, index)))

    if target.K >= pop.n:
        # The cap is vacuous: no penalty needed at all.
        result = solve_at(0.0, 0)
        return CalibrationOutcome(0.0, result, True, 1)

    cap = lambda_max(pop)
    result_cap = solve_at(cap, 0)
    solves = 1
    if result_cap.violations > target.K:
        return CalibrationOutcome(cap, result_cap, False, solves)

    lo, hi, hi_result = 0.0, cap, result_cap
    width = cap  # hi - lo in exact arithmetic: halving a normal float is exact
    while width > target.delta:
        width *= 0.5
        mid = 0.5 * (lo + hi)
        result = solve_at(mid, solves)
        solves += 1
        if result.violations > target.K:
            lo = mid
        else:
            hi, hi_result = mid, result
    return CalibrationOutcome(hi, hi_result, True, solves)


def sweep_lambda(pop: Population, lambdas, cfg: SolverConfig) -> list[SolveResult]:
    """One solve per lambda, returned in grid order: record j is
    ``pgd_solve(pop, replace(cfg, lam=lambdas[j], seed=derive_seed(cfg.seed, j)))``
    bit for bit. Every lambda is checked before any solve, then the whole grid
    runs as one iterate, every restart of every lambda a row of it, so the
    sweep takes as many trials as its slowest lambda needs."""
    lams = [float(lam) for lam in lambdas]
    if not lams:
        raise ValueError("lambdas must be nonempty")
    for lam in lams:
        _require_lambda(lam)
    return _pgd_rows(pop, cfg, lams)
