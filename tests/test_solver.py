"""Surrogate loss analytics, PGD behavior, calibration, sweeps."""

import hashlib
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from _helpers import (
    dm_population,
    hinge_penalty,
    hinge_violations,
    penalized_objective,
    projected_gradient_norm,
    reference_pgd,
    single_objective_and_gradient,
)
from modbalance import (
    CalibrationTarget,
    LinearModerator,
    MixtureSpec,
    NonPositiveAError,
    Population,
    ResponseCase,
    SolverConfig,
    best_responses,
    calibrate_lambda,
    derive_seed,
    dm_closed_form_linear,
    generate,
    lambda_max,
    metrics,
    oracle_2d,
    oracle_penalized_2d,
    OracleConfig,
    pgd_solve,
    polish_penalized,
    surrogate_gradient,
    surrogate_loss,
    sweep_lambda,
    toy_disk,
)
from modbalance.model import _stream
from modbalance.solver import (
    _A_MIN,
    _PGD_BLOCK_ENTRIES,
    _TOL_GRAD,
    _branch_terms,
    _exact_offsets,
    _initial_point,
    _objective_and_gradient,
)

CFG = SolverConfig(epsilon=0.9, lam=10.0)


# independent re-derivations of the three branches, used as the oracle here
def left_branch(y, a, eps):
    return (1 - eps**2) ** 2 * a**3 / (2 * eps * y - 4 * a * (1 - eps) + 3 * a * (1 - eps) ** 2)


def middle_branch(y, a):
    return y**2 - 2 * a * y


def right_branch(y, a, lam):
    return lam * (y - a) ** 2 - a**2


def left_slope(y, a, eps):
    den = 2 * eps * y - 4 * a * (1 - eps) + 3 * a * (1 - eps) ** 2
    return -2 * eps * (1 - eps**2) ** 2 * a**3 / den**2


class TestSurrogateLoss:
    def test_frozen_values(self):
        cfg = SolverConfig(epsilon=0.9, lam=10.0)
        assert surrogate_loss(0.5, 0.5, cfg) == pytest.approx(-0.25, abs=1e-12)
        assert surrogate_loss(0.05, 0.5, cfg) == pytest.approx(-0.0475, abs=1e-12)
        assert surrogate_loss(1.5, 0.5, cfg) == pytest.approx(9.75, abs=1e-12)
        assert surrogate_loss(-10.0, 0.5, cfg) == pytest.approx(-2.4814407478691e-4, rel=1e-10)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(NonPositiveAError):
            surrogate_loss(0.3, 0.0, CFG)
        with pytest.raises(NonPositiveAError):
            surrogate_loss(0.3, -1.0, CFG)

    def test_matches_branches_on_open_regions(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = float(rng.uniform(0.05, 3.0))
            eps = float(rng.uniform(0.1, 0.95))
            lam = float(rng.uniform(0.01, 50.0))
            cfg = SolverConfig(epsilon=eps, lam=lam)
            y = float(rng.uniform(-10 * a, 4 * a))
            got = surrogate_loss(y, a, cfg)
            if y < (1 - eps) * a:
                assert got == pytest.approx(left_branch(y, a, eps), rel=1e-12)
            elif y <= a:
                assert got == pytest.approx(middle_branch(y, a), rel=1e-12)
            else:
                assert got == pytest.approx(right_branch(y, a, lam), rel=1e-12)

    @pytest.mark.parametrize("a", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("eps", [0.5, 0.9])
    @pytest.mark.parametrize("lam", [0.1, 10.0])
    def test_continuity_and_smoothness_at_junctions(self, a, eps, lam):
        bp = (1 - eps) * a
        # values agree at both junctions, and equal the stated closed forms
        assert abs(left_branch(bp, a, eps) - middle_branch(bp, a)) <= 1e-9
        assert abs(middle_branch(bp, a) - (-(1 - eps**2) * a**2)) <= 1e-9
        assert abs(middle_branch(a, a) - right_branch(a, a, lam)) <= 1e-9
        assert abs(middle_branch(a, a) - (-(a**2))) <= 1e-9
        # one-sided slopes agree: -2*eps*a at the left junction, 0 at y = a
        assert abs(left_slope(bp, a, eps) - (-2 * eps * a)) <= 1e-9
        assert abs((2 * bp - 2 * a) - (-2 * eps * a)) <= 1e-9
        assert abs(2 * a - 2 * a) <= 1e-9 and abs(2 * lam * (a - a)) <= 1e-9

    def test_minimum_at_a(self):
        for a in (0.1, 0.5, 2.0):
            for lam in (0.1, 1.0, 10.0):
                cfg = SolverConfig(epsilon=0.9, lam=lam)
                v0 = surrogate_loss(a, a, cfg)
                assert v0 == pytest.approx(-(a**2), abs=1e-12)
                ys = np.linspace(-5 * a, 5 * a, 1001)
                vals = [surrogate_loss(float(y), a, cfg) for y in ys]
                assert min(vals) >= v0 - 1e-12

    def test_decays_to_zero_from_below(self):
        cfg = SolverConfig(epsilon=0.9, lam=1.0)
        prev = surrogate_loss(-1e3, 0.5, cfg)
        for y in (-1e4, -1e5, -1e6):
            val = surrogate_loss(y, 0.5, cfg)
            assert prev < val < 0
            prev = val
        assert -1e-6 < surrogate_loss(-1e6, 0.5, cfg) < 0

    def test_two_dimensional_input_matches_column_calls(self):
        # each column, at its own a: far left, left, the left junction,
        # middle, the y = a junction, then two right points; at y = 1.25 a
        # the left denominator 2 eps y + beta a is exactly 0 for eps = 0.5
        eps, lam = 0.5, 7.0
        a = np.array([0.25, 0.5, 1.0, 2.5])[None, :] * np.ones((7, 1))
        bp = (1.0 - eps) * a
        y = np.vstack([-50.0 * a[0], 0.5 * bp[0], bp[0], 0.5 * (bp[0] + a[0]), a[0],
                       1.25 * a[0], 3.0 * a[0]])
        with np.errstate(all="raise"):
            batched = _branch_terms(y, a, eps, lam)
            for r in range(y.shape[1]):
                column = _branch_terms(y[:, r].copy(), a[:, r].copy(), eps, lam)
                for full, single in zip(batched, column):
                    assert full[:, r].tobytes() == single.tobytes()
        values = batched[0]
        for i in range(y.shape[0]):
            for r in range(y.shape[1]):
                yi, ai = y[i, r], a[i, r]
                if yi < (1.0 - eps) * ai:
                    want = left_branch(yi, ai, eps)
                elif yi <= ai:
                    want = middle_branch(yi, ai)
                else:
                    want = right_branch(yi, ai, lam)
                assert values[i, r] == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("region", ["left", "middle", "right"])
    def test_partials_match_central_differences(self, region):
        # dl/dy along y, and dl/dy + dl/da along the diagonal (1, 1) of (y, a),
        # inside each region and away from its joins at 0.28 and 0.7
        eps, lam, a, h = 0.6, 3.0, 0.7, 1e-6
        y, loss = {
            "left": (-2.1, lambda yv, av: left_branch(yv, av, eps)),
            "middle": (0.42, middle_branch),
            "right": (1.26, lambda yv, av: right_branch(yv, av, lam)),
        }[region]
        _, dl_dy, dl_dsum = _branch_terms(np.array([y]), np.array([a]), eps, lam)
        fd_y = (loss(y + h, a) - loss(y - h, a)) / (2 * h)
        fd_sum = (loss(y + h, a + h) - loss(y - h, a - h)) / (2 * h)
        assert dl_dy[0] == pytest.approx(fd_y, rel=1e-7, abs=1e-9)
        assert dl_dsum[0] == pytest.approx(fd_sum, rel=1e-7, abs=1e-9)


def _fd_gradient(pop, w, b, cfg, h=1e-6):
    """Central differences on the summed loss, built from the scalar op."""

    def objective(wv, bv):
        a_raw = (wv @ pop.trend.e) / (2.0 * pop.costs)
        y = pop.feature_matrix @ wv + bv + a_raw
        total = 0.0
        for yi, ai in zip(y, np.maximum(a_raw, _A_MIN)):
            total += surrogate_loss(float(yi), float(ai), cfg)
        return total

    gw = np.zeros_like(w)
    for j in range(w.shape[0]):
        dw = np.zeros_like(w)
        dw[j] = h
        gw[j] = (objective(w + dw, b) - objective(w - dw, b)) / (2 * h)
    gb = (objective(w, b + h) - objective(w, b - h)) / (2 * h)
    return gw, gb


def _random_triple(rng):
    d = int(rng.integers(1, 6))
    n = int(rng.integers(1, 20))
    X = rng.normal(size=(n, d))
    costs = rng.uniform(0.3, 2.0, n)
    e = rng.normal(size=d)
    if np.linalg.norm(e) < 1e-6:
        e[0] = 1.0
    pop = Population.from_arrays(X, costs, e)
    w = rng.uniform(-1, 1, d)
    b = float(rng.normal())
    cfg = SolverConfig(
        epsilon=float(rng.uniform(0.3, 0.95)), lam=float(rng.uniform(0.05, 20.0))
    )
    return pop, w, b, cfg


def _near_kink(pop, w, b, cfg, margin=1e-4):
    a_raw = (w @ pop.trend.e) / (2.0 * pop.costs)
    a = np.maximum(a_raw, _A_MIN)
    y = pop.feature_matrix @ w + b + a_raw
    joins = np.minimum(np.abs(y - (1 - cfg.epsilon) * a), np.abs(y - a))
    return bool(np.any(joins < margin) or np.any(np.abs(a_raw - _A_MIN) < margin))


class TestSurrogateGradient:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 25:
            pop, w, b, cfg = _random_triple(rng)
            if _near_kink(pop, w, b, cfg):
                continue
            gw, gb = surrogate_gradient(w, b, pop, cfg)
            fw, fb = _fd_gradient(pop, w, b, cfg)
            analytic = np.hstack([gw, gb])
            numeric = np.hstack([fw, fb])
            err = np.linalg.norm(analytic - numeric) / max(1e-8, np.linalg.norm(numeric))
            assert err <= 1e-5, f"gradient mismatch {err}"
            checked += 1

    def test_flat_far_left_regime(self):
        pop = Population.from_arrays(np.array([[-200.0, 0.0]]), [0.5], [1.0, 0.0])
        gw, gb = surrogate_gradient(np.array([1.0, 0.0]), 0.0, pop, CFG)
        assert np.linalg.norm(np.hstack([gw, gb])) <= 1e-3

    def test_middle_branch_b_derivative(self):
        pop = Population.from_arrays([[0.0, 0.0]], [0.5], [1.0, 0.0])
        w = np.array([1.0, 0.0])
        b = -0.3  # a = 1, y = b + 1 = 0.7 inside [(1-eps)a, a] = [0.1, 1]
        cfg = SolverConfig(epsilon=0.9, lam=3.0)
        _, gb = surrogate_gradient(w, b, pop, cfg)
        y, a = 0.7, 1.0
        assert gb == pytest.approx(2 * y - 2 * a, abs=1e-12)

    def test_floor_holds_a_at_a_min(self):
        # w.e < 0 for every user, so a = _A_MIN throughout and only y moves with w
        X = np.array([[1.0, 0.5], [-0.8, 1.2], [2.0, -1.0], [0.3, 0.9]])
        pop = Population.from_arrays(X, [0.5, 1.0, 1.5, 0.8], [1.0, 0.5])
        w, b = np.array([-0.6, 0.2]), 0.15
        cfg = SolverConfig(epsilon=0.8, lam=2.0)
        assert np.all(w @ pop.trend.e / (2.0 * pop.costs) < _A_MIN)
        assert not _near_kink(pop, w, b, cfg)
        gw, gb = surrogate_gradient(w, b, pop, cfg)
        fw, fb = _fd_gradient(pop, w, b, cfg)
        np.testing.assert_allclose(np.hstack([gw, gb]), np.hstack([fw, fb]), rtol=1e-7)


class TestPgdSolve:
    def test_three_user_line(self):
        X = np.array([[0.3, 0.0], [0.3, 0.1], [0.3, -0.1]])
        pop = Population.from_arrays(X, np.ones(3), [1.0, 0.0])
        res = pgd_solve(pop, SolverConfig(lam=0.01, restarts=8, seed=0))
        w, b = res.moderator.w, res.moderator.b
        for x in X:
            assert abs(np.dot(w, x) + b) / np.linalg.norm(w) <= 0.05
        oracle = oracle_penalized_2d(pop, 0.01, OracleConfig())
        assert abs(res.dm - oracle.dm) <= 0.05 * abs(oracle.dm)

    def test_huge_lambda_clears_all_violations(self):
        pop = generate(MixtureSpec(d=2, n=60, k=3, seed=5))
        res = pgd_solve(pop, SolverConfig(lam=1e6, restarts=4, seed=5))
        assert res.metrics.fos_desired == 1.0
        assert res.violations == 0 and hinge_violations(pop, res.moderator) == 0

    def test_lambda_zero_objective_nonpositive(self):
        # with the penalty off every branch value is <= 0, so any minimizer is
        X = np.column_stack([np.full(10, -50.0), np.linspace(-1, 1, 10)])
        pop = Population.from_arrays(X, np.full(10, 0.5), [1.0, 0.0])
        res = pgd_solve(pop, SolverConfig(lam=0.0, restarts=2, seed=1, max_iters=300))
        assert res.objective <= 0.0
        pop2 = generate(MixtureSpec(d=2, n=40, k=2, seed=9))
        res2 = pgd_solve(pop2, SolverConfig(lam=0.0, restarts=2, seed=9, max_iters=300))
        assert res2.objective <= 0.0

    def test_box_feasibility_and_nonzero_normal(self):
        for seed in range(4):
            pop = generate(MixtureSpec(d=3, n=30, k=3, seed=seed))
            res = pgd_solve(
                pop, SolverConfig(lam=2.0, restarts=3, seed=seed, max_iters=400)
            )
            assert np.max(np.abs(res.moderator.w)) <= 1.0 + 1e-12
            assert np.any(np.abs(res.moderator.w) > 0)

    def test_oversized_learning_rate_stays_in_box(self):
        pop = generate(MixtureSpec(d=2, n=20, k=2, seed=3))
        res = pgd_solve(
            pop,
            SolverConfig(lam=5.0, learning_rate=25.0, max_iters=50, restarts=2, seed=3),
        )
        assert np.max(np.abs(res.moderator.w)) <= 1.0 + 1e-12

    def test_bitwise_determinism(self):
        pop = generate(MixtureSpec(d=4, n=50, k=5, seed=12))
        cfg = SolverConfig(lam=1.5, restarts=3, seed=7, max_iters=500)
        a = pgd_solve(pop, cfg)
        b = pgd_solve(pop, cfg)
        assert a.moderator.w.tobytes() == b.moderator.w.tobytes()
        assert a.moderator.b == b.moderator.b
        assert a.objective == b.objective and a.dm == b.dm
        assert a.iterations_used == b.iterations_used and a.converged == b.converged

    def test_metrics_consistency(self):
        pop = generate(MixtureSpec(d=2, n=40, k=4, seed=2))
        res = pgd_solve(pop, SolverConfig(lam=1.0, restarts=2, seed=2, max_iters=300))
        assert res.dm == pytest.approx(dm_closed_form_linear(pop, res.moderator))
        assert res.metrics.n == 40


class TestBatchedRestarts:
    def test_matches_restarts_run_one_at_a_time(self):
        rng = np.random.default_rng(2024)
        single = fallbacks = 0
        for case in range(30):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(2, 81))
            pop = Population.from_arrays(
                rng.normal(scale=1.5, size=(n, d)), rng.uniform(0.3, 2.0, n), rng.normal(size=d)
            )
            restarts = int(rng.integers(1, 5))
            cfg = SolverConfig(
                lam=[0.0, 0.1, 10.0, 1e6][case % 4],
                learning_rate=25.0 if case % 5 == 4 else 0.1,  # w sits on the box
                restarts=restarts,
                seed=case,
                max_iters=300,
            )
            res = pgd_solve(pop, cfg)
            ref_obj, _, _, ref_iters, ref_converged, ref_fallbacks = reference_pgd(pop, cfg)
            fallbacks += ref_fallbacks
            assert abs(res.objective - ref_obj) <= 1e-12 * abs(ref_obj)
            if restarts == 1:
                single += 1
                assert res.iterations_used == ref_iters
                assert res.converged == ref_converged
        assert single >= 5
        assert fallbacks >= 1  # an accepted move without positive curvature

    @pytest.mark.parametrize("R", [1, 3, 8])
    def test_rows_match_one_row_calls(self, R):
        rng = np.random.default_rng(R)
        for case in range(10):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 120))
            pop = Population.from_arrays(
                rng.normal(scale=1.5, size=(n, d)), rng.uniform(0.3, 2.0, n), rng.normal(size=d)
            )
            X, e = pop.feature_matrix, pop.trend.e
            half_inv_cost = 1.0 / (2.0 * pop.costs)
            cfg = SolverConfig(
                epsilon=float(rng.uniform(0.3, 0.95)), lam=[0.0, 0.1, 10.0][case % 3]
            )
            Z = np.column_stack([rng.uniform(-1.0, 1.0, (R, d)), rng.normal(size=R)])
            Z[0, :d] *= -1.0 if Z[0, :d] @ e > 0 else 1.0  # w.e <= 0: the floor applies
            Z[-1, case % d] = 1.0  # a coordinate on the box
            same = np.full((R, 1), cfg.lam)  # every row the config's lam
            obj, G = _objective_and_gradient(Z, X, e, half_inv_cost, cfg.epsilon, same)
            lam = rng.choice([0.0, 0.1, 10.0, 100.0], size=(R, 1))  # each row its own lam
            obj_col, G_col = _objective_and_gradient(Z, X, e, half_inv_cost, cfg.epsilon, lam)
            for r in range(R):
                row = Z[r:r + 1].copy()
                one_obj, one_G = _objective_and_gradient(row, X, e, half_inv_cost,
                                                         cfg.epsilon, same[r:r + 1])
                assert one_obj.tobytes() == obj[r:r + 1].tobytes()
                assert one_G.tobytes() == G[r:r + 1].tobytes()
                one_obj, one_G = _objective_and_gradient(row, X, e, half_inv_cost,
                                                         cfg.epsilon, lam[r:r + 1])
                assert one_obj.tobytes() == obj_col[r:r + 1].tobytes()
                assert one_G.tobytes() == G_col[r:r + 1].tobytes()


class TestArmijoStep:
    def test_accepted_objectives_never_increase(self):
        # one restart's state after k trials is the solve capped at max_iters = k
        rng = np.random.default_rng(77)
        for case in range(6):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(5, 60))
            pop = Population.from_arrays(
                rng.normal(scale=1.5, size=(n, d)), rng.uniform(0.3, 2.0, n), rng.normal(size=d)
            )
            cfg = SolverConfig(lam=[0.1, 10.0, 1e4][case % 3], restarts=1, seed=case)
            X, costs, e = pop.feature_matrix, pop.costs, pop.trend.e
            w, b = _initial_point(0, cfg.seed, cfg.restarts, X, e)
            previous, _, _ = single_objective_and_gradient(w, b, X, costs, e, cfg)
            for k in range(1, 41):
                res = pgd_solve(pop, replace(cfg, max_iters=k))
                assert res.objective <= previous
                previous = res.objective

    def test_converged_result_passes_the_stationarity_test(self):
        converged = 0
        for seed in range(6):
            pop = generate(MixtureSpec(d=3, n=60, k=3, seed=seed))
            cfg = SolverConfig(lam=[0.1, 1.0, 10.0][seed % 3], restarts=3, seed=seed)
            res = pgd_solve(pop, cfg)
            if res.converged:
                converged += 1
                w, b = res.moderator.w, res.moderator.b
                grad_w, grad_b = surrogate_gradient(w, b, pop, cfg)
                assert projected_gradient_norm(w, grad_w, grad_b, pop.n, cfg) <= _TOL_GRAD
        assert converged >= 4

    def test_lambda_ten_converges_at_default_size(self):
        pop = generate(MixtureSpec(d=5, n=500, k=5, seed=0))
        res = pgd_solve(pop, SolverConfig(lam=10.0, seed=derive_seed(0, 4), restarts=8))
        assert res.converged
        assert res.iterations_used < 2000

    def test_lambda_hundred_converges_at_default_size(self):
        # the tradeoff benchmark's second dataset; a fixed-factor step stalls here
        pop = generate(MixtureSpec(d=5, n=500, k=5, seed=1))
        res = pgd_solve(pop, SolverConfig(lam=100.0, seed=derive_seed(1, 6), restarts=8))
        assert res.converged
        assert res.iterations_used < 2000


def penalized_by_definition(p, s, offsets, lam):
    """J at each offset from origin scores p and trend advances s, user by user."""
    V = p[None, :] + offsets[:, None]
    Y = V + s[None, :]
    mitigated = (V <= 0) & (Y > 0)
    dm = np.sum(np.where(mitigated, s[None, :] ** 2 - V**2, 0.0), axis=1)
    return -dm + lam * np.sum(np.maximum(Y, 0.0) ** 2, axis=1)


def exact_offset(p, s, lam):
    """One normal's (b, J) through a one-row ``_exact_offsets`` call."""
    b, J = _exact_offsets(p[None, :], s[None, :], lam)
    return float(b[0]), float(J[0])


def _random_unit_instance(rng):
    d = int(rng.integers(1, 6))
    n = int(rng.integers(1, 41))
    pop = Population.from_arrays(
        rng.normal(scale=1.5, size=(n, d)), rng.uniform(0.3, 2.0, n), rng.normal(size=d)
    )
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    lam = float(10.0 ** rng.uniform(-1.0, 2.0))
    return pop, w, lam


class TestPolishPenalized:
    def test_exact_offset_matches_exhaustive_search(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            pop, w, lam = _random_unit_instance(rng)
            if w @ pop.trend.e < 0:
                w = -w
            p = pop.feature_matrix @ w
            s = float(w @ pop.trend.e) / (2.0 * pop.costs)
            b, J = exact_offset(p, s, lam)

            # every breakpoint, and each piece's midpoint and vertex, the
            # vertex interpolated from three interior values of the piece
            edges = np.unique(np.concatenate([-p, -p - s]))
            edges = np.concatenate([[edges[0] - 1.0], edges, [edges[-1] + 1.0]])
            offsets = [edges]
            for lo, hi in zip(edges[:-1], edges[1:]):
                inner = lo + (hi - lo) * np.array([0.25, 0.5, 0.75])
                c2, c1, _ = np.polyfit(inner, penalized_by_definition(p, s, inner, lam), 2)
                vertex = -c1 / (2.0 * c2) if c2 > 0 else lo
                offsets.append([inner[1], min(max(vertex, lo), hi)])
            exhaustive = float(np.min(penalized_by_definition(p, s, np.hstack(offsets), lam)))

            direct = penalized_objective(pop, LinearModerator(w, b), lam)
            tol = 1e-9 * (1.0 + abs(exhaustive))
            assert abs(direct - exhaustive) <= tol
            assert abs(J - direct) <= tol

    def test_normal_against_trend_scores_zero(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            pop, w, lam = _random_unit_instance(rng)
            if w @ pop.trend.e > 0:
                w = -w
            p = pop.feature_matrix @ w
            b, J = exact_offset(p, float(w @ pop.trend.e) / (2.0 * pop.costs), lam)
            f = LinearModerator(w, b)
            assert J == 0.0
            assert penalized_objective(pop, f, lam) == 0.0
            assert hinge_violations(pop, f) == 0

    def test_each_stacked_row_equals_its_one_row_call(self):
        # the 300 instances of the exhaustive check, each with a stack of
        # unit normals of its population, against the trend ones included
        rng, normals = np.random.default_rng(31), np.random.default_rng(34)
        for _ in range(300):
            pop, w, lam = _random_unit_instance(rng)
            W = np.vstack([w, -w, normals.normal(size=(4, pop.d))])
            W /= np.linalg.norm(W, axis=1, keepdims=True)
            P = W @ pop.feature_matrix.T
            S = (W @ pop.trend.e)[:, None] / (2.0 * pop.costs)
            b, J = _exact_offsets(P, S, lam)
            assert b.shape == J.shape == (W.shape[0],)
            for r in range(W.shape[0]):
                b_r, J_r = _exact_offsets(P[r:r + 1], S[r:r + 1], lam)
                assert b[r].tobytes() == b_r[0].tobytes()
                assert J[r].tobytes() == J_r[0].tobytes()

    def test_line_polls_only_halve_the_step(self):
        # d = 1 has no tangent directions: every poll scores an empty stack,
        # finds no move and halves the step, 1.5 / 2^11 < 1e-3 after 11 polls
        pop = Population.from_arrays(
            np.array([[0.1], [0.5], [-0.3], [1.2]]), np.array([1.0, 0.5, 2.0, 1.0]), [1.0]
        )
        res = polish_penalized(pop, LinearModerator([2.0], -0.4), 1.0)
        assert res.iterations_used == 11 and res.converged
        assert res.objective == pytest.approx(-0.4225, rel=1e-12)
        assert res.moderator.w.tolist() == [1.0]
        assert res.moderator.b == -1.225

    def test_exact_ties_go_to_the_first_turn(self):
        # The trend is e_0. Polling from it at step 0.375, the turns toward
        # +e_3 and +e_4 share w.e, and user 90 alone decides both optima, so
        # both score -s_90^2 / (1 + lam); their sweep values differ by 1e-14
        # of rounding. Following that rounding ends at J = -0.2053 after 130
        # polls; the first of the tied turns, +e_3, leads here.
        pop = generate(MixtureSpec(d=5, n=100, k=5, seed=11))
        res = polish_penalized(pop, LinearModerator(pop.trend.e, 0.0), 10.0)
        assert res.objective == pytest.approx(-0.2078227369935708, rel=1e-12)
        assert res.iterations_used == 75

    def test_never_above_start_or_zero(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            pop, w, lam = _random_unit_instance(rng)
            f = LinearModerator(w * rng.uniform(0.2, 3.0), float(rng.normal()))
            res = polish_penalized(pop, f, lam)
            norm = np.linalg.norm(f.w)
            start = LinearModerator(f.w / norm, f.b / norm)
            assert res.objective == penalized_objective(pop, res.moderator, lam)
            assert res.objective == -res.dm + lam * res.penalty
            assert res.objective <= penalized_objective(pop, start, lam)
            assert res.objective <= 0.0
            assert np.linalg.norm(res.moderator.w) == pytest.approx(1.0, abs=1e-12)
            assert res.dm == dm_closed_form_linear(pop, res.moderator)

    def test_polishes_pgd_output_in_five_dimensions(self):
        pop = generate(MixtureSpec(d=5, n=60, k=3, seed=4))
        solved = pgd_solve(pop, SolverConfig(lam=1.0, restarts=2, seed=4, max_iters=300))
        res = polish_penalized(pop, solved.moderator, 1.0)
        assert res.converged
        assert res.objective < min(0.0, penalized_objective(pop, solved.moderator, 1.0))

    def test_rerun_is_bitwise_identical(self):
        pop = generate(MixtureSpec(d=3, n=40, k=4, seed=6))
        f = LinearModerator([0.2, -0.5, 0.9], 0.3)
        a = polish_penalized(pop, f, 2.0)
        b = polish_penalized(pop, f, 2.0)
        assert a.moderator.w.tobytes() == b.moderator.w.tobytes()
        assert a.moderator.b == b.moderator.b
        assert a.objective == b.objective and a.dm == b.dm
        assert a.iterations_used == b.iterations_used and a.converged == b.converged

    def test_rejects_bad_inputs(self):
        pop = generate(MixtureSpec(d=2, n=10, k=2, seed=0))
        with pytest.raises(ValueError):
            polish_penalized(pop, LinearModerator([1.0, 0.0], 0.0), -0.1)
        with pytest.raises(ValueError):
            polish_penalized(pop, LinearModerator([1.0, 0.0, 0.0], 0.0), 1.0)


class TestCalibrate:
    def test_vacuous_cap_accepts_zero_lambda(self):
        pop = generate(MixtureSpec(d=2, n=30, k=3, seed=1))
        out = calibrate_lambda(
            pop, CalibrationTarget(K=30), SolverConfig(restarts=2, seed=1, max_iters=300)
        )
        assert out.lam == 0.0
        assert out.feasible
        assert out.solve_count == 1

    def test_zero_cap_on_straddling_population(self):
        pop = generate(MixtureSpec(d=2, n=30, k=3, seed=4))
        out = calibrate_lambda(
            pop, CalibrationTarget(K=0), SolverConfig(restarts=2, seed=4, max_iters=400)
        )
        if out.feasible:
            assert hinge_violations(pop, out.result.moderator) == 0

    def test_solve_count_bound(self):
        pop = generate(MixtureSpec(d=2, n=30, k=3, seed=6))
        delta = 1e-3
        out = calibrate_lambda(
            pop,
            CalibrationTarget(K=3, delta=delta),
            SolverConfig(restarts=2, seed=6, max_iters=300),
        )
        bound = int(np.ceil(np.log2(lambda_max(pop) / delta))) + 1
        assert out.solve_count <= bound
        if out.feasible:
            assert hinge_violations(pop, out.result.moderator) <= 3

    def test_bisection_stops_below_float_spacing(self, monkeypatch):
        # at delta = 1e-16 the bracket's ends become adjacent floats long
        # before their difference reaches delta; the halving count still holds
        import modbalance.solver as solver_mod

        calls = []
        solve = solver_mod.pgd_solve

        def counted(pop, cfg):
            if len(calls) == 200:
                raise RuntimeError("the bisection did not stop")
            result = solve(pop, cfg)
            calls.append((cfg.lam, result.violations))
            return result

        monkeypatch.setattr(solver_mod, "pgd_solve", counted)
        pop = generate(MixtureSpec(d=2, n=40, k=4, seed=7))
        delta = 1e-16
        out = calibrate_lambda(pop, CalibrationTarget(K=5, delta=delta),
                               SolverConfig(restarts=1, max_iters=30))
        assert out.feasible
        assert out.solve_count == len(calls) == 58
        assert out.solve_count == int(np.ceil(np.log2(lambda_max(pop) / delta))) + 1
        assert out.lam == min(lam for lam, violations in calls if violations <= 5)

    def test_cap_exceeding_population_rejected(self):
        pop = generate(MixtureSpec(d=2, n=10, k=2, seed=0))
        with pytest.raises(ValueError):
            calibrate_lambda(pop, CalibrationTarget(K=11), SolverConfig())


class TestSweep:
    def test_single_lambda_matches_pgd_solve(self):
        pop = generate(MixtureSpec(d=2, n=30, k=3, seed=8))
        cfg = SolverConfig(lam=2.5, restarts=2, seed=8, max_iters=300)
        results = sweep_lambda(pop, [2.5], cfg)
        assert len(results) == 1
        direct = pgd_solve(pop, cfg)
        assert results[0].moderator.w.tobytes() == direct.moderator.w.tobytes()
        assert results[0] == direct

    def test_results_in_grid_order(self):
        pop = generate(MixtureSpec(d=2, n=30, k=3, seed=8))
        cfg = SolverConfig(restarts=2, seed=8, max_iters=300)
        grid = [10.0, 0.5, 2.5]
        results = sweep_lambda(pop, grid, cfg)
        assert len(results) == len(grid)
        for j, (lam, r) in enumerate(zip(grid, results)):
            assert r == pgd_solve(pop, replace(cfg, lam=lam, seed=derive_seed(cfg.seed, j)))

    # (d, n, k, restarts, overrides, grid): every d with every restart count;
    # a capped run; lam = 0 and a repeated lam in a grid; at n = 700 a block
    # holds 5 rows, so groups of 3 straddle blocks; at n = 4097 one row is
    # wider than a block
    _GROUPED = {
        f"d{d}_r{restarts}": (d, 120, 3, restarts, {}, [0.3, 3.0, 30.0])
        for d in (2, 5, 10) for restarts in (1, 3, 8)
    } | {
        "capped": (5, 300, 5, 4, {"max_iters": 100}, [0.1, 1.0, 10.0, 100.0]),
        "lam_zero": (3, 150, 3, 3, {}, [0.0, 1.0, 10.0]),
        "repeated": (3, 150, 3, 3, {}, [1.0, 10.0, 1.0, 10.0]),
        "straddling_blocks": (5, 700, 5, 3, {}, [0.1, 1.0, 10.0, 100.0]),
        "row_wider_than_block": (2, _PGD_BLOCK_ENTRIES + 1, 17, 2, {"max_iters": 60},
                                 [0.5, 5.0]),
    }

    @pytest.mark.parametrize("name", sorted(_GROUPED))
    def test_each_record_is_its_own_pgd_solve(self, name):
        d, n, k, restarts, overrides, grid = self._GROUPED[name]
        pop = generate(MixtureSpec(d=d, n=n, k=k, seed=n + d))
        cfg = SolverConfig(restarts=restarts, seed=d, **overrides)
        results = sweep_lambda(pop, grid, cfg)
        assert len(results) == len(grid)
        for j, (lam, got) in enumerate(zip(grid, results)):
            want = pgd_solve(pop, replace(cfg, lam=lam, seed=derive_seed(cfg.seed, j)))
            for field in fields(want):
                assert getattr(got, field.name) == getattr(want, field.name), (j, field.name)
            assert got.moderator.w.tobytes() == want.moderator.w.tobytes()
            assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
        if name == "capped":
            assert not all(r.converged for r in results)

    def test_rejects_bad_grids(self):
        pop = generate(MixtureSpec(d=2, n=10, k=2, seed=0))
        with pytest.raises(ValueError):
            sweep_lambda(pop, [], SolverConfig())
        with pytest.raises(ValueError):
            sweep_lambda(pop, [-1.0], SolverConfig())


def _results_digest(results):
    """sha256 of each record's w, b, objective, iterations_used and converged."""
    h = hashlib.sha256()
    for r in results:
        floats = np.append(r.moderator.w, [r.moderator.b, r.objective]).astype(np.float64)
        h.update(floats.tobytes())
        h.update(np.array([r.iterations_used, r.converged], dtype=np.int64).tobytes())
    return h.hexdigest()


# The tradeoff benchmark's two datasets, a d = 2 population, and one run whose
# last four solves stop at max_iters unconverged; digests recorded on x86-64
# (numpy 2.4.6, OpenBLAS) before the PGD loop held one copy of each restart.
_PINNED_SWEEPS = {
    "d5_seed0": (MixtureSpec(seed=0), {},
                 "e7ad5c43f02a8f0f067feab53f75870d38822058d5e4297887a6f598a36899a4"),
    "d5_seed1": (MixtureSpec(seed=1), {},
                 "17613666303c5587270ad0ef6c1a265dbf47fc19d0abb3958464ba06d959af74"),
    "d2_seed7": (MixtureSpec(d=2, n=50, k=5, seed=7), {},
                 "5fda8569b226dc4328d246979ab477cbfa544c02d007a8b377c60339ee3842ea"),
    "d5_seed0_capped": (MixtureSpec(seed=0), {"max_iters": 100},
                        "ba7f0b91b865465c6cfb4bf5578fe23eddd8076f77f69a6f73708c1e7643dee3"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_SWEEPS))
def test_sweep_keeps_its_pinned_bits(name):
    spec, overrides, expected = _PINNED_SWEEPS[name]
    grid = [float(v) for v in np.logspace(-1.0, 2.0, 7)]
    cfg = SolverConfig(seed=spec.seed, restarts=8, **overrides)
    assert _results_digest(sweep_lambda(generate(spec), grid, cfg)) == expected


class TestSolveResultScores:
    """Every producer of a SolveResult scores its moderator as the
    by-definition ideal-point hinge does."""

    @staticmethod
    def results(seed):
        pop = generate(MixtureSpec(d=2, n=30, k=3, seed=seed))
        cfg = SolverConfig(lam=2.0, restarts=2, seed=seed, max_iters=300)
        solved = pgd_solve(pop, cfg)
        calibrated = calibrate_lambda(
            pop, CalibrationTarget(K=5, delta=0.5), replace(cfg, restarts=1, max_iters=100)
        )
        named = {
            "pgd_solve": solved,
            "polish_penalized": polish_penalized(pop, solved.moderator, 2.0),
            "oracle_2d": oracle_2d(pop, OracleConfig(K=5)),
            "oracle_penalized_2d": oracle_penalized_2d(pop, 2.0, OracleConfig()),
            "calibrate_lambda": calibrated.result,
        }
        for j, r in enumerate(sweep_lambda(pop, [0.1, 1.0, 10.0], cfg)):
            named[f"sweep_lambda[{j}]"] = r
        return pop, named

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fields_match_the_hinge_by_definition(self, seed):
        pop, named = self.results(seed)
        n = pop.n
        for name, r in named.items():
            f = r.moderator
            assert r.dm == dm_closed_form_linear(pop, f), name
            assert abs(r.dm - dm_population(pop, f)) <= 1e-9 * (1.0 + abs(r.dm)), name
            assert r.penalty == hinge_penalty(pop, f), name
            assert r.violations == hinge_violations(pop, f), name
            assert r.violations == n - round(n * r.metrics.fos_desired), name


    @pytest.mark.parametrize("seed", [0, 1])
    def test_metrics_report_is_the_scored_row(self, seed):
        # the report is ``metrics`` of the moderator, reuses the row's DM bits
        # and counts what an independent best-response pass counts
        pop, named = self.results(seed)
        n = pop.n
        for name, r in named.items():
            _, cases = best_responses(pop, r.moderator)
            desired = int(np.count_nonzero(cases == ResponseCase.UNCONSTRAINED))
            filtered = int(np.count_nonzero(cases == ResponseCase.STAY_FILTERED))
            assert r.metrics == metrics(pop, r.moderator), name
            assert r.metrics.dm == r.dm, name
            assert (r.metrics.n, r.metrics.filtered_count) == (n, filtered), name
            assert r.metrics.fos_desired == desired / n, name
            assert r.metrics.fos_retained == (n - filtered) / n, name


class TestSeeds:
    def test_derive_seed_identity_at_zero(self):
        assert derive_seed(123, 0) == 123

    def test_derive_seed_is_injective_for_small_indices(self):
        seen = {derive_seed(5, j) for j in range(100)}
        assert len(seen) == 100

    def test_lambda_max_bound(self):
        pop = generate(MixtureSpec(d=2, n=30, k=3, seed=1))
        assert lambda_max(pop) == pytest.approx(
            float(np.sum(1.0 / (4.0 * pop.costs**2))) + 1.0
        )


class TestConfigValidation:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=1.0)

    def test_positive_rates(self):
        with pytest.raises(ValueError):
            SolverConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            SolverConfig(lam=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(restarts=0)


@pytest.mark.parametrize("make, value", [
    (lambda v: SolverConfig(max_iters=v), 2.5),
    (lambda v: SolverConfig(restarts=v), 2.0),
    (lambda v: SolverConfig(seed=v), 1.5),
    (lambda v: SolverConfig(seed=v), True),
    (lambda v: CalibrationTarget(K=v), 2.5),
    (lambda v: OracleConfig(angle_steps=v), 8.5),
    (lambda v: OracleConfig(offset_steps=v), np.float64(16.0)),
    (lambda v: OracleConfig(K=v), 2.5),
    (lambda v: MixtureSpec(d=v), 2.5),
    (lambda v: MixtureSpec(n=v), 500.0),
    (lambda v: MixtureSpec(k=v), np.True_),
    (lambda v: MixtureSpec(seed=v), 1.5),
    (lambda v: toy_disk([0.0], samples=v), 10.5),
    (lambda v: toy_disk([0.0], samples=10, seed=v), True),
], ids=["max_iters", "restarts", "seed", "seed_bool", "calibration_K", "angle_steps",
        "offset_steps", "oracle_K", "mixture_d", "mixture_n", "mixture_k", "mixture_seed",
        "toy_samples", "toy_seed"])
def test_integer_fields_reject_other_types(make, value):
    with pytest.raises(ValueError, match="must be an integer"):
        make(value)
    make(np.int64(10))  # numpy integers are integers


@pytest.mark.parametrize("make, field, low, value", [
    (lambda v: MixtureSpec(d=v), "d", 1, 0),
    (lambda v: MixtureSpec(k=v), "k", 1, -2),
    (lambda v: SolverConfig(max_iters=v), "max_iters", 1, 0),
    (lambda v: SolverConfig(restarts=v), "restarts", 1, 0),
    (lambda v: CalibrationTarget(K=v), "K", 0, -1),
    (lambda v: OracleConfig(angle_steps=v), "angle_steps", 8, 7),
    (lambda v: OracleConfig(offset_steps=v), "offset_steps", 8, 4),
    (lambda v: OracleConfig(K=v), "K", 0, -1),
    (lambda v: toy_disk([0.0], samples=v), "samples", 1, 0),
], ids=["mixture_d", "mixture_k", "max_iters", "restarts", "calibration_K", "angle_steps",
        "offset_steps", "oracle_K", "toy_samples"])
def test_counts_below_their_floor_name_field_floor_and_value(make, field, low, value):
    with pytest.raises(ValueError, match=f"^{field} must be at least {low}, got {value}$"):
        make(value)


_SEEDED = {
    "mixture": lambda seed: MixtureSpec(d=2, n=4, k=2, seed=seed),
    "solver": lambda seed: SolverConfig(seed=seed),
    "toy_disk": lambda seed: toy_disk([0.0], samples=10, seed=seed),
}


@pytest.mark.parametrize("name", sorted(_SEEDED))
@pytest.mark.parametrize("seed", [2**64, 2**64 + 3, -1, np.int64(-1)],
                         ids=["2**64", "2**64+3", "-1", "int64(-1)"])
def test_seeds_outside_the_philox_key_range_are_rejected(name, seed):
    # Philox keys are 64-bit: a larger seed would alias seed mod 2**64
    with pytest.raises(ValueError, match=r"seed must be a nonnegative integer below 2\*\*64"):
        _SEEDED[name](seed)


@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_largest_seed_is_accepted(name):
    _SEEDED[name](2**64 - 1)
    _SEEDED[name](np.uint64(2**64 - 1))


# numpy reads a Philox key list holding a value above 2**63 - 1 through
# float64, so the keys are uint64 arrays: the seeds below stay distinct
def test_seeds_above_int64_draw_their_own_streams():
    assert _stream(2**63, 0).random() != _stream(2**63 + 1, 0).random()


def test_largest_seed_is_not_seed_zero():
    assert generate(MixtureSpec(seed=2**64 - 1)) != generate(MixtureSpec(seed=0))


def test_largest_seed_keys_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generate(MixtureSpec(d=2, n=4, k=2, seed=2**64 - 1))


def test_numpy_integer_seeds_draw_the_streams_of_the_equal_int():
    # the configs accept numpy integers, so every seeded stream takes them too
    pop = generate(MixtureSpec(d=2, n=20, k=2, seed=np.int64(3)))
    assert pop == generate(MixtureSpec(d=2, n=20, k=2, seed=3))
    cfg = SolverConfig(restarts=3, max_iters=5)
    assert pgd_solve(pop, replace(cfg, seed=np.int64(3))) == pgd_solve(pop, replace(cfg, seed=3))
    assert toy_disk([0.0], samples=10, seed=np.uint64(3)) == toy_disk([0.0], samples=10, seed=3)


def _nonfinite_calls():
    pop = generate(MixtureSpec(d=2, n=10, k=2, seed=0))
    f = LinearModerator([1.0, 0.0], 0.0)
    calls = {}
    for bad in (np.nan, np.inf):
        calls[f"lam={bad}"] = lambda bad=bad: SolverConfig(lam=bad)
        calls[f"learning_rate={bad}"] = lambda bad=bad: SolverConfig(learning_rate=bad)
        calls[f"delta={bad}"] = lambda bad=bad: CalibrationTarget(K=1, delta=bad)
        calls[f"sweep_lambda {bad}"] = lambda bad=bad: sweep_lambda(pop, [1.0, bad], SolverConfig())
        calls[f"polish_penalized {bad}"] = lambda bad=bad: polish_penalized(pop, f, bad)
        calls[f"oracle_penalized_2d {bad}"] = lambda bad=bad: oracle_penalized_2d(
            pop, bad, OracleConfig()
        )
    return calls


_NONFINITE = _nonfinite_calls()


@pytest.mark.parametrize("name", sorted(_NONFINITE))
def test_nonfinite_parameters_rejected(name):
    with pytest.raises(ValueError, match="finite"):
        _NONFINITE[name]()
