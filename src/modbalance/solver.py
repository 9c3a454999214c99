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
restarts at once as the columns of a (d, R) iterate, each column with its own
step that grows when the Armijo rule accepts a trial point and halves when it
rejects one.

``polish_penalized`` minimizes the exact penalized objective
-DM + lam * sum_i max(0, w.(x_i + e/2c_i) + b)^2 over unit normals, started from
any halfspace (typically the PGD solution); it is the same objective as the
d = 2 reference ``oracle_penalized_2d``, in any dimension.

Every solver here and both oracles return a ``SolveResult``, the one record of
a solve. It scores its moderator once, by a one-row ``halfspace_scores`` call:
DM, the squared ideal-point hinge penalty and the violation count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .metrics import MetricReport, halfspace_scores, metrics
from .model import LinearModerator, Population

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
    scale, and the scale of the stationarity test: a restart has converged
    once (w - clip(w - (learning_rate/n) grad_w, -1, 1)) / learning_rate and
    grad_b / n together have norm at most ``tol_grad``. ``a_min`` floors the
    loss shape parameter when the candidate normal turns against the trend
    (w.e <= 0), keeping the branch formulas defined; geometry (the y values)
    is never floored.
    """

    epsilon: float = 0.9
    lam: float = 1.0
    learning_rate: float = 0.1
    max_iters: int = 2000
    restarts: int = 8
    seed: int = 0
    tol_grad: float = 1e-8
    a_min: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        for name in ("lam", "learning_rate", "tol_grad", "a_min"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be at least 1")
        if self.tol_grad <= 0 or self.a_min <= 0:
            raise ValueError("tol_grad and a_min must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class CalibrationTarget:
    """Hard cap K on filtered ideal points, and the bisection precision."""

    K: int
    delta: float = 1e-3

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("K must be nonnegative")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")


@dataclass(frozen=True)
class SolveResult:
    """A solved moderator with its diagnostics; the one record of a solve.

    ``dm``, ``penalty`` and ``violations`` score the returned moderator by one
    ``halfspace_scores`` row: total mitigation, the squared ideal-point hinge
    penalty sum_i max(0, y_i)^2 and the count #{y_i > BENIGN_TOL}, where y_i
    is user i's ideal-point score. ``metrics`` is the best-response report of
    the same moderator; its own ``dm`` is summed from the responses.

    ``objective`` is the value of the producing search: the summed surrogate
    loss for the PGD solver, the exact penalized objective -dm + lam * penalty
    of the returned moderator for ``polish_penalized``, and the
    penalized/constrained search objective for the brute-force oracles.

    ``iterations_used`` and ``converged`` describe the winning search only.
    For the PGD solver that is the first restart with the lowest objective:
    its trial evaluations, accepted or rejected, and whether the returned
    point passes the stationarity test. For ``polish_penalized`` they are the
    poll count and whether the step fell below its tolerance, and for the
    oracles the number of candidates scored and ``True``.
    """

    moderator: LinearModerator
    objective: float
    dm: float
    penalty: float
    violations: int
    metrics: MetricReport
    iterations_used: int
    converged: bool


def _branch_terms(y: np.ndarray, a: np.ndarray, eps: float, lam: float):
    """Loss values and partials (d/dy, d/da), elementwise for any shape; a > 0.

    Each output is one ``np.where`` choice between the three branches. The
    left branch's denominator changes sign inside the middle region, so it is
    replaced by 1 outside the left region before anything divides by it.
    """
    left = y < (1.0 - eps) * a
    right = y > a
    num = (1.0 - eps**2) ** 2 * a**3
    beta = 3.0 * (1.0 - eps) ** 2 - 4.0 * (1.0 - eps)
    den = np.where(left, 2.0 * eps * y + beta * a, 1.0)
    gap = y - a
    values = np.where(
        left, num / den, np.where(right, lam * gap**2 - a**2, y**2 - 2.0 * a * y)
    )
    dl_dy = np.where(
        left, -2.0 * eps * num / den**2, np.where(right, 2.0 * lam * gap, 2.0 * y - 2.0 * a)
    )
    dl_da = np.where(
        left,
        3.0 * (1.0 - eps**2) ** 2 * a**2 / den - beta * num / den**2,
        np.where(right, -2.0 * lam * gap - 2.0 * a, -2.0 * y),
    )
    return values, dl_dy, dl_da


def surrogate_loss(y: float, a: float, cfg: SolverConfig) -> float:
    """Single-user surrogate loss; rejects a <= 0 (caller applies the floor)."""
    if a <= 0:
        raise NonPositiveAError(f"loss shape parameter a must be positive, got {a}")
    values, _, _ = _branch_terms(np.float64(y), np.float64(a), cfg.epsilon, cfg.lam)
    return float(values)


def _objective_and_gradient(W, B, X, costs, e, cfg: SolverConfig):
    """Summed surrogate loss and its exact gradient at R points at once.

    Column r of ``W`` (d, R) and entry r of ``B`` (R,) are one point (w, b).
    Returns the objectives (R,), the w-gradients (d, R) and the b-gradients
    (R,). Both y and a depend on w (da/dw = e/(2c)); only y depends on b.
    Where the floor is active, a is held constant so its chain-rule term
    drops out.

    Per-user terms are laid out (R, n) and each product with X or e is a
    stacked matmul over contiguous rows, which numpy runs as one
    matrix-vector product per row: each column gets the bits it would get
    alone. That matters because objectives near zero are ill-conditioned (a
    user's y can be a 1e-6 difference of O(1) scores); one matrix-matrix
    product sums in another order and moves them by up to 6e-10 relative.
    """
    Wr = np.ascontiguousarray(W.T)
    half_inv_cost = 1.0 / (2.0 * costs)
    a_raw = np.matmul(Wr[:, None, :], e) * half_inv_cost
    a = np.maximum(a_raw, cfg.a_min)
    y = np.matmul(X, Wr[:, :, None])[:, :, 0] + B[:, None] + a_raw

    values, dl_dy, dl_da = _branch_terms(y, a, cfg.epsilon, cfg.lam)
    dl_da = np.where(a_raw < cfg.a_min, 0.0, dl_da)

    grad_w = np.matmul(X.T, dl_dy[:, :, None])[:, :, 0]
    grad_W = (grad_w + np.sum((dl_dy + dl_da) * half_inv_cost, axis=1)[:, None] * e).T
    return np.sum(values, axis=1), grad_W, np.sum(dl_dy, axis=1)


def surrogate_gradient(
    w, b: float, pop: Population, cfg: SolverConfig
) -> tuple[np.ndarray, float]:
    """Exact gradient of the summed surrogate loss over the population."""
    W = np.asarray(w, dtype=np.float64)[:, None]
    _, grad_W, grad_B = _objective_and_gradient(
        W, np.array([float(b)]), pop.feature_matrix, pop.costs, pop.trend.e, cfg
    )
    return grad_W[:, 0], float(grad_B[0])


def lambda_max(pop: Population) -> float:
    """Upper bound on achievable mitigation, plus one: a safe bisection cap.

    No user can save more than their baseline distortion |e|^2/(4c^2), so the
    termwise sum bounds any moderator's total mitigation.
    """
    e2 = float(np.dot(pop.trend.e, pop.trend.e))
    return float(np.sum(e2 / (4.0 * pop.costs**2))) + 1.0


def _initial_point(
    r: int, cfg: SolverConfig, X: np.ndarray, e: np.ndarray
) -> tuple[np.ndarray, float]:
    """Trend-facing start: w along e (plus per-restart noise), boundary at a
    data quantile so restarts probe different cuts through the mass."""
    rng = Generator(Philox(key=[cfg.seed % 2**64, r]))
    direction = e.copy()
    if r > 0:
        direction = direction + rng.normal(scale=0.3, size=e.shape[0])
    if not np.any(np.abs(direction) > 0):
        direction = e.copy()
    w = direction / np.max(np.abs(direction))
    q = (r + 1) / (cfg.restarts + 1)
    b = -float(np.quantile(X @ w, q))
    return w, b


def _solve_result(pop: Population, w, b, objective, iterations, converged) -> SolveResult:
    """The SolveResult of halfspace (w, b), scored by one ``halfspace_scores`` row."""
    f = LinearModerator(w, b)
    dm, penalty, violations = halfspace_scores(pop, f.w[None, :], np.array([f.b]))
    return SolveResult(f, float(objective), float(dm[0]), float(penalty[0]), int(violations[0]),
                       metrics(pop, f), int(iterations), bool(converged))


# Armijo rule along the projection arc (Bertsekas 1976): sufficient-decrease
# fraction, and the factors applied to a column's step on accept and reject.
_ARMIJO_SIGMA = 1e-4
_STEP_GROW = 1.5
_STEP_SHRINK = 0.5


def _rowdot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Dot products of matching rows, each by the BLAS dot one row gets alone."""
    return np.matmul(U[:, None, :], V[:, :, None])[:, 0, 0]


def _stationary(W, G_W, G_B, n: int, cfg: SolverConfig) -> np.ndarray:
    """Per column: passes the stationarity test of ``SolverConfig``."""
    W_step = np.clip(W - (cfg.learning_rate / n) * G_W, -1.0, 1.0)
    P = np.column_stack(((W - W_step).T / cfg.learning_rate, G_B / n))
    return np.sqrt(_rowdot(P, P)) <= cfg.tol_grad


def pgd_solve(pop: Population, cfg: SolverConfig) -> SolveResult:
    """Minimize the summed surrogate loss under |w_j| <= 1; best of restarts.

    The restarts are the columns of one (d, R) iterate, each with its own
    step t, first ``learning_rate``. One evaluation per iteration scores
    every active column's trial (clip(w - (t/n) grad_w, -1, 1), b - (t/n)
    grad_b). The Armijo rule accepts it if it lowers the objective by at
    least ``_ARMIJO_SIGMA`` times the gradient's inner product with the move:
    the column moves and t grows. Else the column stays and t shrinks. So a
    column's objective never rises and its current iterate is its best. It
    stops at a point passing ``SolverConfig``'s stationarity test or after
    ``max_iters`` trials. The first lowest objective with w != 0 wins.
    """
    X, costs, e = pop.feature_matrix, pop.costs, pop.trend.e
    n = X.shape[0]
    starts = [_initial_point(r, cfg, X, e) for r in range(cfg.restarts)]
    W = np.stack([w for w, _ in starts], axis=1)
    B = np.array([b for _, b in starts])
    obj, G_W, G_B = _objective_and_gradient(W, B, X, costs, e, cfg)
    step = np.full(cfg.restarts, cfg.learning_rate)
    iterations = np.zeros(cfg.restarts, dtype=np.int64)
    converged = _stationary(W, G_W, G_B, n, cfg)
    active = np.flatnonzero(~converged)

    for _ in range(cfg.max_iters):
        if active.size == 0:
            break
        Wa, Ba, Ga_W, Ga_B, ta = W[:, active], B[active], G_W[:, active], G_B[active], step[active]
        W_try = np.clip(Wa - (ta / n) * Ga_W, -1.0, 1.0)
        B_try = Ba - (ta / n) * Ga_B
        obj_try, Gt_W, Gt_B = _objective_and_gradient(W_try, B_try, X, costs, e, cfg)
        iterations[active] += 1
        move = np.column_stack(((W_try - Wa).T, B_try - Ba))
        slope = _rowdot(np.column_stack((Ga_W.T, Ga_B)), move)
        ok = obj_try <= obj[active] + _ARMIJO_SIGMA * slope  # nan/inf trials fail
        cols = active[ok]
        W[:, cols], B[cols], obj[cols] = W_try[:, ok], B_try[ok], obj_try[ok]
        G_W[:, cols], G_B[cols] = Gt_W[:, ok], Gt_B[ok]
        step[active] = np.where(ok, ta * _STEP_GROW, ta * _STEP_SHRINK)
        done = ok & _stationary(W_try, Gt_W, Gt_B, n, cfg)
        converged[active[done]] = True
        active = active[~done]

    nonzero = np.flatnonzero(np.any(np.abs(W) > 0, axis=0))
    if nonzero.size == 0:
        raise DegenerateSolutionError("all restarts collapsed to w = 0; re-seed")
    r = nonzero[np.argmin(obj[nonzero])]
    return _solve_result(pop, W[:, r], B[r], obj[r], iterations[r], converged[r])


# Pattern search over the normal's direction: rotation step (radians) at the
# start, the step below which the search stops, and a cap on polls that
# guards against an endless run of ever smaller strict improvements.
_POLISH_STEP = 1.5
_POLISH_STEP_TOL = 1e-3
_POLISH_MAX_POLLS = 1000


def _penalized_objective(pop: Population, f: LinearModerator, lam: float) -> float:
    """Exact penalized objective: -DM + lam * squared ideal-point hinges."""
    dm, penalty, _ = halfspace_scores(pop, f.w[None, :], np.array([f.b]))
    return float(-dm[0] + lam * penalty[0])


def _exact_offset(p: np.ndarray, s: np.ndarray, lam: float) -> tuple[float, float]:
    """Offset b minimizing the exact penalized objective for one unit normal.

    ``p`` holds the origin scores w.x_i and ``s`` the trend advances
    w.e/(2c_i). User i contributes 0 while b <= -p_i - s_i (ideal point
    benign), -(s_i^2 - (p_i + b)^2) + lam (p_i + s_i + b)^2 while
    -p_i - s_i < b <= -p_i (mitigated, ideal point filtered), and
    lam (p_i + s_i + b)^2 once b > -p_i (origin filtered). The objective is
    continuous at the first breakpoint and jumps up by s_i^2 past the second,
    whose closed side is attained. Between sorted breakpoints it is one convex
    quadratic A b^2 + B b + C whose coefficients are running sums, so each
    piece is minimized in closed form: O(n log n) time, O(n) memory.

    Returns (b, J). When no offset beats J = 0, in particular when s <= 0
    and nobody can be mitigated, b is an all-benign offset with J = 0.
    """
    n = p.shape[0]
    q = p + s
    all_benign = -float(np.max(q)) - 1.0
    if not np.all(s > 0):
        return all_benign, 0.0
    breakpoints = np.concatenate([-q, -p])
    order = np.argsort(breakpoints, kind="stable")
    enters = order < n  # ideal point crosses: user becomes mitigated and penalized
    user = np.where(enters, order, order - n)
    pu, qu, su = p[user], q[user], s[user]
    mitigated = np.where(enters, 1.0, -1.0)  # joins or leaves the mitigated set
    penalized = lam * enters
    A = np.cumsum(penalized + mitigated)
    B = np.cumsum(2.0 * (penalized * qu + mitigated * pu))
    C = np.cumsum(penalized * qu**2 + mitigated * (pu**2 - su**2))
    lo = breakpoints[order]
    hi = np.append(lo[1:], np.inf)
    vertex = np.divide(-B, 2.0 * A, out=lo.copy(), where=A > 0)
    b = np.clip(vertex, lo, hi)
    J = (A * b + B) * b + C
    k = int(np.argmin(J))
    if J[k] < 0.0:
        return float(b[k]), float(J[k])
    return all_benign, 0.0


def _with_best_offset(
    pop: Population, w: np.ndarray, lam: float
) -> tuple[LinearModerator, float]:
    """Unit normal w with its exact best offset, scored by direct evaluation."""
    s = float(np.dot(w, pop.trend.e)) / (2.0 * pop.costs)
    b, _ = _exact_offset(pop.feature_matrix @ w, s, lam)
    f = LinearModerator(w, b)
    return f, _penalized_objective(pop, f, lam)


def _tangent_basis(w: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the complement of unit w, by a Householder
    reflection that maps the first coordinate axis onto -sign(w_0) w."""
    u = w.copy()
    u[0] += 1.0 if w[0] >= 0 else -1.0
    H = np.eye(w.shape[0]) - 2.0 * np.outer(u, u) / float(np.dot(u, u))
    return H[1:]


def _pattern_search(pop: Population, f: LinearModerator, J: float, lam: float):
    """Compass search over unit normals, each scored at its exact best offset.

    Every poll rotates w by +/- step along each tangent basis vector and moves
    to the best strict improvement; a poll without one halves the step.
    Returns (moderator, J, polls, converged), converged meaning the step fell
    below its tolerance rather than the poll cap being reached.
    """
    step, polls = _POLISH_STEP, 0
    while step >= _POLISH_STEP_TOL and polls < _POLISH_MAX_POLLS:
        polls += 1
        best = (f, J)
        for t in _tangent_basis(f.w):
            for sign in (1.0, -1.0):
                w = np.cos(step) * f.w + sign * np.sin(step) * t
                g, Jg = _with_best_offset(pop, w / np.linalg.norm(w), lam)
                if Jg < best[1]:
                    best = (g, Jg)
        if best[0] is f:
            step *= 0.5
        else:
            f, J = best
    return f, J, polls, step < _POLISH_STEP_TOL


def polish_penalized(pop: Population, f: LinearModerator, lam: float) -> SolveResult:
    """Minimize the exact penalized objective over unit-normal halfspaces.

    The objective is -DM + lam * sum_i max(0, w.(x_i + e/2c_i) + b)^2, the one
    ``oracle_penalized_2d`` minimizes, in any dimension. Two pattern searches
    over the normal's direction run, one from f's normal and one from the
    trend, each scoring a direction at its exact best offset; the better
    result is kept. Only strict improvements are accepted, so the result
    never scores above f rescaled to a unit normal, nor above the do-nothing
    value 0. The returned normal has |w| = 1, so |w_j| <= 1 still holds, and
    ``objective`` is its exact penalized objective.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be nonnegative and finite, got {lam}")
    if f.w.shape[0] != pop.d:
        raise ValueError(f"moderator dimension {f.w.shape[0]} != population d = {pop.d}")
    norm = float(np.linalg.norm(f.w))
    start = LinearModerator(f.w / norm, f.b / norm)
    J_start = _penalized_objective(pop, start, lam)
    g, J = _with_best_offset(pop, start.w, lam)
    if not J < J_start:
        g, J = start, J_start
    trend = pop.trend.e / np.linalg.norm(pop.trend.e)
    runs = [
        _pattern_search(pop, g, J, lam),
        _pattern_search(pop, *_with_best_offset(pop, trend, lam), lam),
    ]
    moderator, objective, polls, converged = min(runs, key=lambda r: r[1])
    return _solve_result(pop, moderator.w, moderator.b, objective, polls, converged)


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
    monotone in lambda (on the README population at K = 25: 0 at
    lambda = 50.211, 25 at 50.221, 0 at 50.241). The caller then gets the
    smallest probed lambda whose solve met the cap. Its moderator meets the
    cap, but a smaller feasible lambda may have been skipped, and it may
    mitigate nothing (DM = 0 in that README case). Each solve uses a seed
    derived from (base seed, step index) for a reproducible trace. The
    interval shrinks from lambda_max to delta in ceil(log2(max/delta))
    midpoint solves, plus the single feasibility probe at the cap.
    """
    if target.K > pop.n:
        raise ValueError(f"K = {target.K} exceeds population size {pop.n}")

    def solve_at(lam: float, step_index: int) -> SolveResult:
        sub = replace(cfg, lam=lam, seed=derive_seed(cfg.seed, step_index))
        return pgd_solve(pop, sub)

    if target.K >= pop.n:
        # The cap is vacuous: no penalty needed at all.
        result = solve_at(0.0, 0)
        return CalibrationOutcome(0.0, result, True, 1)

    cap = lambda_max(pop)
    result_cap = solve_at(cap, 0)
    solves = 1
    if result_cap.violations > target.K:
        return CalibrationOutcome(cap, result_cap, False, solves)

    best_lam, best_result = cap, result_cap
    lo, hi = 0.0, cap
    step_index = 1
    while hi - lo > target.delta:
        mid = 0.5 * (lo + hi)
        result = solve_at(mid, step_index)
        solves += 1
        step_index += 1
        if result.violations > target.K:
            lo = mid
        else:
            hi = mid
            if mid < best_lam:
                best_lam, best_result = mid, result
    return CalibrationOutcome(best_lam, best_result, True, solves)


def sweep_lambda(pop: Population, lambdas, cfg: SolverConfig) -> list[SolveResult]:
    """Independent solve per lambda, returned in grid order; seeds offset
    deterministically by index."""
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ValueError("lambdas must be nonempty")
    if not all(np.isfinite(l) and l >= 0 for l in lambdas):
        raise ValueError(f"lambdas must be nonnegative and finite, got {lambdas}")
    return [
        pgd_solve(pop, replace(cfg, lam=lam, seed=derive_seed(cfg.seed, j)))
        for j, lam in enumerate(lambdas)
    ]
