"""Shared test oracles: exhaustive utility grids, regime sampling, random
moderated populations, polytope projection one point at a time, the
ideal-point hinge and the exact penalized objective, the oracle's candidate
set built by nested loops, and PGD run one restart at a time."""

import itertools

import numpy as np

from modbalance import (
    BENIGN_TOL,
    EmptyBenignRegionError,
    LinearModerator,
    Population,
    PolytopeModerator,
    TRIVIAL,
    best_response,
    dm_closed_form_linear,
    ideal_point,
)
from modbalance.solver import _branch_terms, _initial_point


def in_strategic_regime(u, e, f):
    """True when engaging with the trend beats self-censorship for this user.

    The utility model zeroes the alignment gain of filtered content, so a
    user whose achievable alignment is negative can profit from opting out:
    staying filtered (worth 0) or posting just across the boundary (gain
    gone, cost tiny). Such trend-averse corners are outside the strategic
    model; optimality checks sample the regime where the case-split response
    is worth at least the opt-out supremum.
    """
    r = best_response(u, e, f)
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
    """Random population (d in 1..5, n in 1..300) and a moderator of ``kind``.

    ``kind`` is "halfspace", "polytope" (1-4 faces, origin strictly benign)
    or "trivial". Offsets sit among the ideal points' scores, so every
    response case occurs across draws.
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
    m = 1 if kind == "halfspace" else int(rng.integers(1, 5))
    faces = []
    for _ in range(m):
        w = rng.normal(size=d)
        if np.linalg.norm(w) < 1e-6:
            w[0] = 1.0
        b = -float(np.quantile(ideal @ w, rng.uniform(0.2, 0.9)))
        if kind == "polytope":
            b = min(b, -0.2)
        faces.append((w, b))
    if kind == "halfspace":
        return pop, LinearModerator(*faces[0])
    return pop, PolytopeModerator(tuple(faces))


def reference_project_polytope(z, f):
    """Nearest benign point to one point ``z`` (d,), by definition.

    Returns ``z`` when it is feasible within 1e-9 (1 + |z|). Otherwise tries
    every subset of at most d faces as the active set, skipping subsets with
    rank-deficient normals, projects ``z`` onto its affine intersection, and
    keeps the first strictly closest candidate feasible for every face.
    """
    z = np.asarray(z, dtype=np.float64)
    A, b = f.normals, f.offsets
    tol = 1e-9 * (1.0 + float(np.linalg.norm(z)))
    if np.max(A @ z + b) <= tol:
        return z
    best = None
    best_dist = np.inf
    for r in range(1, min(f.m, z.shape[0]) + 1):
        for subset in itertools.combinations(range(f.m), r):
            As, bs = A[list(subset)], b[list(subset)]
            if np.linalg.matrix_rank(As) < r:
                continue
            p = z - As.T @ np.linalg.solve(As @ As.T, As @ z + bs)
            if np.max(A @ p + b) > tol:
                continue
            dist = float(np.dot(p - z, p - z))
            if dist < best_dist:
                best, best_dist = p, dist
    if best is None:
        raise EmptyBenignRegionError("no feasible projection candidate")
    return best


def random_polytope(rng, d, m):
    """Polytope of ``m`` faces in ``d`` dimensions with the origin strictly
    benign; some faces repeat an earlier one exactly, or scaled (the same
    hyperplane), or parallel at another offset."""
    faces = []
    for _ in range(m):
        w, b = rng.normal(size=d), -float(rng.uniform(0.2, 1.5))
        kind = rng.integers(4) if faces else 0
        if kind == 1:
            w, b = faces[int(rng.integers(len(faces)))]
        elif kind == 2:
            s = float(rng.uniform(0.5, 3.0))
            w, b = faces[int(rng.integers(len(faces)))]
            w, b = s * w, s * b
        elif kind == 3:
            w = faces[int(rng.integers(len(faces)))][0]
        if np.linalg.norm(w) < 1e-6:
            w = np.eye(d)[0]
        faces.append((w, b))
    return PolytopeModerator(tuple(faces))


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


def single_objective_and_gradient(w, b, X, costs, e, cfg):
    """Summed surrogate loss and its (w, b) gradient at one point (w, b)."""
    half_inv_cost = 1.0 / (2.0 * costs)
    a_raw = float(np.dot(w, e)) * half_inv_cost
    a = np.maximum(a_raw, cfg.a_min)
    y = X @ w + b + a_raw
    values, dl_dy, dl_da = _branch_terms(y, a, cfg.epsilon, cfg.lam)
    dl_da = np.where(a_raw < cfg.a_min, 0.0, dl_da)
    grad_w = X.T @ dl_dy + e * float(np.sum((dl_dy + dl_da) * half_inv_cost))
    return float(np.sum(values)), grad_w, float(np.sum(dl_dy))


def projected_gradient_norm(w, grad_w, grad_b, n, cfg):
    """Norm of the mean-loss projected gradient at the fixed learning rate."""
    w_step = np.clip(w - (cfg.learning_rate / n) * grad_w, -1.0, 1.0)
    return float(np.linalg.norm(np.hstack(((w - w_step) / cfg.learning_rate, grad_b / n))))


def reference_restart(r, cfg, X, costs, e):
    """One PGD restart by definition: (objective, w, b, iterations, converged).

    The step t starts at the learning rate. Each iteration scores the trial
    point w_t = clip(w - (t/n) grad_w, -1, 1), b_t = b - (t/n) grad_b, and
    accepts it when f(trial) <= f + 1e-4 * <grad, trial - current>: then the
    restart moves there and t grows by 1.5; otherwise it stays and t halves.
    It stops once its current point's projected gradient is at most
    ``tol_grad``, or after ``max_iters`` trials.
    """
    n = X.shape[0]
    w, b = _initial_point(r, cfg, X, e)
    obj, grad_w, grad_b = single_objective_and_gradient(w, b, X, costs, e, cfg)
    t = cfg.learning_rate
    iterations = 0
    converged = projected_gradient_norm(w, grad_w, grad_b, n, cfg) <= cfg.tol_grad
    while not converged and iterations < cfg.max_iters:
        w_try = np.clip(w - (t / n) * grad_w, -1.0, 1.0)
        b_try = b - (t / n) * grad_b
        obj_try, gw_try, gb_try = single_objective_and_gradient(w_try, b_try, X, costs, e, cfg)
        iterations += 1
        slope = float(np.dot(np.hstack((grad_w, grad_b)), np.hstack((w_try - w, b_try - b))))
        if obj_try <= obj + 1e-4 * slope:
            w, b, obj, grad_w, grad_b = w_try, b_try, obj_try, gw_try, gb_try
            t *= 1.5
            converged = projected_gradient_norm(w, grad_w, grad_b, n, cfg) <= cfg.tol_grad
        else:
            t *= 0.5
    return obj, w, b, iterations, converged


def reference_pgd(pop, cfg):
    """Best restart, run one at a time, among those with a nonzero normal:
    (objective, w, b, iterations, converged); the first of equal objectives
    wins."""
    X, costs, e = pop.feature_matrix, pop.costs, pop.trend.e
    best = None
    for r in range(cfg.restarts):
        run = reference_restart(r, cfg, X, costs, e)
        if np.any(np.abs(run[1]) > 0) and (best is None or run[0] < best[0]):
            best = run
    return best
