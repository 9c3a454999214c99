"""Shared test oracles: the per-user best response, utility and mitigation
by definition, exhaustive utility grids, regime sampling, random moderated
populations, the ideal-point hinge and the exact penalized objective, the
oracle's search rows built by nested loops, the do-nothing halfspace, the
d = 2 oracles' picks by definition, and PGD run one restart at a time."""

import numpy as np

from modbalance import (
    BENIGN_TOL,
    BestResponseResult,
    LinearModerator,
    Population,
    ResponseCase,
    TRIVIAL,
    dm_closed_form_linear,
    halfspace_scores,
    ideal_point,
    project_hyperplane,
)
from modbalance.oracle import _candidates
from modbalance.solver import (_A_MIN, _TOL_GRAD, _all_benign_offset, _branch_terms, _exact_result,
                               _initial_point)


def utility(z, u, e, f):
    """Payoff of publishing ``z``: benign-gated trend alignment minus cost."""
    z = np.asarray(z, dtype=np.float64)
    gain = float(np.dot(z, e.e)) if f.is_benign(z) else 0.0
    return gain - u.c * float(np.dot(z - u.x, z - u.x))


def reference_best_response(u, e, f):
    """Utility-maximizing rewrite of ``u.x`` against a halfspace or
    ``TRIVIAL`` ``f``, by cases.

    Three regimes: the ideal point is benign and taken as-is; the ideal point
    is filtered but the origin is benign, so the user settles for the boundary
    projection of the ideal point; or both are filtered, and the user crosses
    to the boundary only when doing so beats the zero utility of staying put
    (ties break to staying).
    """
    z_prime = ideal_point(u, e)
    if f.is_benign(z_prime):
        gain = float(np.dot(z_prime, e.e))
        cost = u.c * float(np.dot(z_prime - u.x, z_prime - u.x))
        return BestResponseResult(z_prime, ResponseCase.UNCONSTRAINED, False, gain - cost)

    p = project_hyperplane(z_prime, f)
    # p sits on the boundary by construction, hence publishes; evaluating the
    # benign indicator at p would be roundoff-fragile.
    utility_p = float(np.dot(p, e.e)) - u.c * float(np.dot(p - u.x, p - u.x))

    if f.is_benign(u.x):
        return BestResponseResult(p, ResponseCase.PROJECTED, False, utility_p)
    if utility_p > 0.0:
        return BestResponseResult(p, ResponseCase.CROSS_TO_BOUNDARY, False, utility_p)
    return BestResponseResult(u.x, ResponseCase.STAY_FILTERED, True, 0.0)


def baseline_distortion(u, e):
    """Distortion under the do-nothing moderator: |e|^2 / (4 c^2)."""
    return float(np.dot(e.e, e.e)) / (4.0 * u.c * u.c)


def distortion(u, e, f):
    """Squared displacement of the best response, for benign-origin users only."""
    if not f.is_benign(u.x):
        return 0.0
    z_star = reference_best_response(u, e, f).z_star
    delta = z_star - u.x
    return float(np.dot(delta, delta))


def mitigation(u, e, f):
    """How much distortion ``f`` removes for this user versus doing nothing."""
    gated_baseline = baseline_distortion(u, e) if f.is_benign(u.x) else 0.0
    return gated_baseline - distortion(u, e, f)


def dm_population(pop, f):
    """Total distortion mitigation, summed user by user from best responses."""
    e = pop.trend
    return sum(mitigation(u, e, f) for u in pop.users)


def in_strategic_regime(u, e, f):
    """True when engaging with the trend beats self-censorship for this user.

    The utility model zeroes the alignment gain of filtered content, so a
    user whose achievable alignment is negative can profit from opting out:
    staying filtered (worth 0) or posting just across the boundary (gain
    gone, cost tiny). Such trend-averse corners are outside the strategic
    model; optimality checks sample the regime where the case-split response
    is worth at least the opt-out supremum.
    """
    r = reference_best_response(u, e, f)
    if f.score(u.x) > 0:
        opt_out = 0.0
    else:
        dist = abs(f.score(u.x)) / np.linalg.norm(f.w)
        opt_out = -u.c * dist * dist
    return r.utility >= opt_out


def grid_max_utility(u, e, f, half_extent=None, points=201):
    """Independent oracle: exhaustive utility over a plane through x and z'.

    The best response always lies in the affine plane spanned by the trend
    and the moderator normal through x, so a dense 2-d grid there bounds the
    achievable utility.
    """
    z_prime = ideal_point(u, e)
    u1 = e.e / np.linalg.norm(e.e)
    if isinstance(f, LinearModerator):
        w_perp = f.w - np.dot(f.w, u1) * u1
    else:
        w_perp = np.zeros_like(u1)
    if np.linalg.norm(w_perp) > 1e-12:
        u2 = w_perp / np.linalg.norm(w_perp)
    elif u.d > 1:
        u2 = np.zeros_like(u1)
        u2[int(np.argmin(np.abs(u1)))] = 1.0
        u2 = u2 - np.dot(u2, u1) * u1
        u2 = u2 / np.linalg.norm(u2)
    else:
        u2 = np.zeros_like(u1)
    center = 0.5 * (u.x + z_prime)
    if half_extent is None:
        half_extent = 2.0 * (1.0 + np.linalg.norm(z_prime - u.x))
        if isinstance(f, LinearModerator):
            half_extent += abs(f.score(z_prime)) / np.linalg.norm(f.w)
    t = np.linspace(-half_extent, half_extent, points)
    T1, T2 = np.meshgrid(t, t)
    Z = (
        center[None, :]
        + T1.reshape(-1, 1) * u1[None, :]
        + T2.reshape(-1, 1) * u2[None, :]
    )
    gain = np.where(f.score_many(Z) <= 1e-12, Z @ e.e, 0.0)
    cost = u.c * np.sum((Z - u.x) ** 2, axis=1)
    return float(np.max(gain - cost))


def random_regime_instance(rng, d):
    """One random (user, trend, moderator) triple inside the strategic regime."""
    from modbalance import Trend, UserProfile

    while True:
        u = UserProfile(rng.normal(scale=1.5, size=d), float(rng.uniform(0.2, 2.0)))
        e_vec = rng.normal(size=d)
        if np.linalg.norm(e_vec) < 1e-6:
            e_vec[0] = 1.0
        e = Trend(e_vec)
        w = rng.normal(size=d)
        if np.linalg.norm(w) < 1e-6:
            w[0] = 1.0
        f = LinearModerator(w, float(rng.normal()))
        if in_strategic_regime(u, e, f):
            return u, e, f


def ideal_hinge(pop, f):
    """Per-user hinge on the ideal point's score: max(0, w.(x + e/2c) + b)."""
    y = pop.feature_matrix @ f.w + f.b + float(np.dot(f.w, pop.trend.e)) / (
        2.0 * pop.costs
    )
    return np.maximum(y, 0.0)


def hinge_penalty(pop, f):
    """Squared ideal-point hinges, summed."""
    g = ideal_hinge(pop, f)
    return float(np.sum(g * g))


def hinge_violations(pop, f):
    """Number of users whose ideal point is filtered: hinges above BENIGN_TOL."""
    return int(np.count_nonzero(ideal_hinge(pop, f) > BENIGN_TOL))


def penalized_objective(pop, f, lam):
    """Exact penalized objective J = -DM + lam * squared ideal-point hinges."""
    return -dm_closed_form_linear(pop, f) + lam * hinge_penalty(pop, f)


def random_moderated_population(rng, kind):
    """Random population (d in 1..5, n in 1..300) and a moderator of ``kind``,
    "halfspace" or "trivial". The halfspace's offset sits among the ideal
    points' scores, so every response case occurs across draws.
    """
    d = int(rng.integers(1, 6))
    n = int(rng.integers(1, 301))
    X = rng.normal(scale=1.5, size=(n, d))
    costs = rng.uniform(0.2, 2.0, n)
    e = rng.normal(size=d)
    if np.linalg.norm(e) < 1e-6:
        e[0] = 1.0
    pop = Population.from_arrays(X, costs, e)
    if kind == "trivial":
        return pop, TRIVIAL
    ideal = X + e / (2.0 * costs)[:, None]
    w = rng.normal(size=d)
    if np.linalg.norm(w) < 1e-6:
        w[0] = 1.0
    b = -float(np.quantile(ideal @ w, rng.uniform(0.2, 0.9)))
    return pop, LinearModerator(w, b)


def loop_candidates(pop, cfg):
    """The d = 2 oracle's candidate (w, b) rows, built one by one by definition.

    Per grid direction: the offset grid, then boundaries through each point,
    then through each ideal point. Then, if ``cfg.use_candidates``, the
    boundary through each pair of points (data and ideal) at least 1e-12
    apart, as (w, b) followed by (-w, -b).
    """
    X = pop.feature_matrix
    ideal = X + pop.trend.e / (2.0 * pop.costs)[:, None]
    ws, bs = [], []
    for a in range(cfg.angle_steps):
        theta = 2.0 * np.pi * a / cfg.angle_steps
        w = np.array([np.cos(theta), np.sin(theta)])
        proj = X @ w
        lo, hi = float(np.min(proj)), float(np.max(proj))
        offsets = [lo + (hi - lo) * s / cfg.offset_steps for s in range(cfg.offset_steps + 1)]
        for t in offsets + list(proj) + list(ideal @ w):
            ws.append(w)
            bs.append(-float(t))
    if cfg.use_candidates:
        points = np.vstack([X, ideal])
        for i in range(points.shape[0]):
            for j in range(i + 1, points.shape[0]):
                direction = points[j] - points[i]
                norm = float(np.linalg.norm(direction))
                if norm < 1e-12:
                    continue
                w = np.array([direction[1], -direction[0]]) / norm
                b = -float(np.dot(w, points[i]))
                ws.extend([w, -w])
                bs.extend([b, -b])
    return np.vstack(ws), np.array(bs)


def do_nothing_row(pop):
    """The do-nothing halfspace by definition: normal e/|e| and the
    all-benign offset of its ideal-point scores."""
    e = pop.trend.e
    w = e / np.linalg.norm(e)
    return w, _all_benign_offset(pop.feature_matrix @ w + (w @ e) / (2.0 * pop.costs))


def reference_candidates(pop, cfg):
    """The d = 2 oracles' candidate set, ``_candidates``, with the scores of
    every row by one ``halfspace_scores`` call."""
    W, B = _candidates(pop, cfg)
    return W, B, halfspace_scores(pop, W, B)


def reference_oracle_2d(pop, cfg):
    """``oracle_2d`` by definition: of the candidates within the cap, by
    decreasing dm and then by row, the first whose record meets the cap."""
    W, B, (dm, _, violations, _) = reference_candidates(pop, cfg)
    for best in np.argsort(-np.where(violations <= cfg.K, dm, -np.inf), kind="stable"):
        result = _exact_result(pop, W[best], B[best], None, W.shape[0], True)
        if result.violations <= cfg.K:
            return result


def reference_oracle_penalized_2d(pop, lam, cfg):
    """``oracle_penalized_2d`` by definition: the candidate of least
    -dm + lam * penalty, or the do-nothing row 0 if its record scores J > 0."""
    W, B, (dm, penalty, _, _) = reference_candidates(pop, cfg)
    best = int(np.argmin(-dm + lam * penalty))
    result = _exact_result(pop, W[best], B[best], lam, W.shape[0], True)
    return result if result.objective <= 0.0 else _exact_result(pop, W[0], B[0], lam,
                                                                 W.shape[0], True)


def single_objective_and_gradient(w, b, X, costs, e, cfg):
    """Summed surrogate loss and its (w, b) gradient at one point (w, b)."""
    half_inv_cost = 1.0 / (2.0 * costs)
    a_raw = float(np.dot(w, e)) * half_inv_cost
    a = np.maximum(a_raw, _A_MIN)
    y = X @ w + b + a_raw
    values, dl_dy, dl_dsum = _branch_terms(y, a, cfg.epsilon, cfg.lam)
    dl_dsum = np.where(a_raw < _A_MIN, dl_dy, dl_dsum)  # a is held at the floor
    grad_w = X.T @ dl_dy + e * float(np.sum(dl_dsum * half_inv_cost))
    return float(np.sum(values)), grad_w, float(np.sum(dl_dy))


def projected_gradient_norm(w, grad_w, grad_b, n, cfg):
    """Norm of the mean-loss projected gradient at the fixed learning rate."""
    w_step = np.clip(w - (cfg.learning_rate / n) * grad_w, -1.0, 1.0)
    return float(np.linalg.norm(np.hstack(((w - w_step) / cfg.learning_rate, grad_b / n))))


def reference_restart(r, cfg, X, costs, e):
    """One PGD restart by definition:
    (objective, w, b, iterations, converged, fallbacks).

    The step t starts at the learning rate. Each iteration scores the trial
    point w_t = clip(w - (t/n) grad_w, -1, 1), b_t = b - (t/n) grad_b, and
    accepts it when f(trial) <= f + 1e-4 * <grad, trial - current>. On
    acceptance the restart moves there; with s the move in (w, b) and dg the
    change of the gradient along it, t becomes n <s, s> / <s, dg> clamped to
    [1e-10, 1e10] when <s, dg> > 0, and grows by 1.5 otherwise (counted in
    ``fallbacks``). A rejected trial halves t. The restart stops once its
    current point's projected gradient is at most ``_TOL_GRAD``, or after
    ``max_iters`` trials.
    """
    n = X.shape[0]
    w, b = _initial_point(r, cfg.seed, cfg.restarts, X, e)
    obj, grad_w, grad_b = single_objective_and_gradient(w, b, X, costs, e, cfg)
    t = cfg.learning_rate
    iterations = fallbacks = 0
    converged = projected_gradient_norm(w, grad_w, grad_b, n, cfg) <= _TOL_GRAD
    while not converged and iterations < cfg.max_iters:
        w_try = np.clip(w - (t / n) * grad_w, -1.0, 1.0)
        b_try = b - (t / n) * grad_b
        obj_try, gw_try, gb_try = single_objective_and_gradient(w_try, b_try, X, costs, e, cfg)
        iterations += 1
        s = np.hstack((w_try - w, b_try - b))
        slope = float(np.dot(np.hstack((grad_w, grad_b)), s))
        if obj_try <= obj + 1e-4 * slope:
            sy = float(np.dot(s, np.hstack((gw_try - grad_w, gb_try - grad_b))))
            if sy > 0:
                t = min(max(n * float(np.dot(s, s)) / sy, 1e-10), 1e10)
            else:
                t *= 1.5
                fallbacks += 1
            w, b, obj, grad_w, grad_b = w_try, b_try, obj_try, gw_try, gb_try
            converged = projected_gradient_norm(w, grad_w, grad_b, n, cfg) <= _TOL_GRAD
        else:
            t *= 0.5
    return obj, w, b, iterations, converged, fallbacks


def reference_pgd(pop, cfg):
    """Best restart, run one at a time, among those with a nonzero normal:
    (objective, w, b, iterations, converged, fallbacks); the first of equal
    objectives wins, and ``fallbacks`` sums the 1.5-growths of every restart."""
    X, costs, e = pop.feature_matrix, pop.costs, pop.trend.e
    best, fallbacks = None, 0
    for r in range(cfg.restarts):
        run = reference_restart(r, cfg, X, costs, e)
        fallbacks += run[5]
        if np.any(np.abs(run[1]) > 0) and (best is None or run[0] < best[0]):
            best = run
    return best[:5] + (fallbacks,)
