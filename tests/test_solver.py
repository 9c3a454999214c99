"""Surrogate loss analytics, PGD behavior, calibration, sweeps."""

from dataclasses import replace

import numpy as np
import pytest

from _helpers import (
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
    SolverConfig,
    calibrate_lambda,
    derive_seed,
    dm_closed_form_linear,
    dm_population,
    generate,
    lambda_max,
    oracle_2d,
    oracle_penalized_2d,
    OracleConfig,
    pgd_solve,
    polish_penalized,
    surrogate_gradient,
    surrogate_loss,
    sweep_lambda,
)
from modbalance.solver import _branch_terms, _exact_offset, _initial_point

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


def _fd_gradient(pop, w, b, cfg, h=1e-6):
    """Central differences on the summed loss, built from the scalar op."""

    def objective(wv, bv):
        a_raw = (wv @ pop.trend.e) / (2.0 * pop.costs)
        y = pop.feature_matrix @ wv + bv + a_raw
        total = 0.0
        for yi, ai in zip(y, np.maximum(a_raw, cfg.a_min)):
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
    a = np.maximum(a_raw, cfg.a_min)
    y = pop.feature_matrix @ w + b + a_raw
    joins = np.minimum(np.abs(y - (1 - cfg.epsilon) * a), np.abs(y - a))
    return bool(np.any(joins < margin) or np.any(np.abs(a_raw - cfg.a_min) < margin))


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
        single = 0
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
            ref_obj, _, _, ref_iters, ref_converged = reference_pgd(pop, cfg)
            assert abs(res.objective - ref_obj) <= 1e-12 * abs(ref_obj)
            if restarts == 1:
                single += 1
                assert res.iterations_used == ref_iters
                assert res.converged == ref_converged
        assert single >= 5


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
            w, b = _initial_point(0, cfg, X, e)
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
                assert projected_gradient_norm(w, grad_w, grad_b, pop.n, cfg) <= cfg.tol_grad
        assert converged >= 4

    def test_lambda_ten_converges_at_default_size(self):
        pop = generate(MixtureSpec(d=5, n=500, k=5, seed=0))
        res = pgd_solve(pop, SolverConfig(lam=10.0, seed=derive_seed(0, 4), restarts=8))
        assert res.converged
        assert res.iterations_used < 2000


def penalized_by_definition(p, s, offsets, lam):
    """J at each offset from origin scores p and trend advances s, user by user."""
    V = p[None, :] + offsets[:, None]
    Y = V + s[None, :]
    mitigated = (V <= 0) & (Y > 0)
    dm = np.sum(np.where(mitigated, s[None, :] ** 2 - V**2, 0.0), axis=1)
    return -dm + lam * np.sum(np.maximum(Y, 0.0) ** 2, axis=1)


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
            b, J = _exact_offset(p, s, lam)

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
            b, J = _exact_offset(p, float(w @ pop.trend.e) / (2.0 * pop.costs), lam)
            f = LinearModerator(w, b)
            assert J == 0.0
            assert penalized_objective(pop, f, lam) == 0.0
            assert hinge_violations(pop, f) == 0

    def test_never_above_start_or_zero(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            pop, w, lam = _random_unit_instance(rng)
            f = LinearModerator(w * rng.uniform(0.2, 3.0), float(rng.normal()))
            res = polish_penalized(pop, f, lam)
            norm = np.linalg.norm(f.w)
            start = LinearModerator(f.w / norm, f.b / norm)
            assert res.objective == penalized_objective(pop, res.moderator, lam)
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

    def test_rejects_bad_grids(self):
        pop = generate(MixtureSpec(d=2, n=10, k=2, seed=0))
        with pytest.raises(ValueError):
            sweep_lambda(pop, [], SolverConfig())
        with pytest.raises(ValueError):
            sweep_lambda(pop, [-1.0], SolverConfig())


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


def _nonfinite_calls():
    pop = generate(MixtureSpec(d=2, n=10, k=2, seed=0))
    f = LinearModerator([1.0, 0.0], 0.0)
    calls = {}
    for bad in (np.nan, np.inf):
        calls[f"lam={bad}"] = lambda bad=bad: SolverConfig(lam=bad)
        calls[f"learning_rate={bad}"] = lambda bad=bad: SolverConfig(learning_rate=bad)
        calls[f"tol_grad={bad}"] = lambda bad=bad: SolverConfig(tol_grad=bad)
        calls[f"a_min={bad}"] = lambda bad=bad: SolverConfig(a_min=bad)
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
