"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single pass/fail line (visible with `pytest -rP` or `-s`)
before asserting, so a full run yields a one-page scorecard.
"""

import time

import numpy as np
import pytest

from _helpers import (
    distortion,
    dm_population,
    grid_max_utility,
    hinge_penalty,
    hinge_violations,
    penalized_objective,
    random_regime_instance,
)
from modbalance import (
    CalibrationTarget,
    MixtureSpec,
    OracleConfig,
    Population,
    SolverConfig,
    TRIVIAL,
    best_response,
    calibrate_lambda,
    dm_closed_form_linear,
    generate,
    ideal_point,
    lambda_max,
    oracle_penalized_2d,
    pgd_solve,
    polish_penalized,
    surrogate_gradient,
    surrogate_loss,
    sweep_lambda,
    toy_disk,
)
from modbalance.cli import run
from modbalance.solver import _A_MIN


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def spearman(x, y):
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def test_criterion_01_best_response_oracle_equivalence():
    rng = np.random.default_rng(2026)
    t0 = time.time()
    worst = np.inf
    for i in range(200):
        u, e, f = random_regime_instance(rng, d=1 + (i % 3))
        r = best_response(u, e, f)
        worst = min(worst, r.utility - grid_max_utility(u, e, f, points=401))
    elapsed = time.time() - t0
    ok = worst >= -1e-3 and elapsed < 10.0
    report(1, "best response vs 401^2 utility grid", ok,
           f"worst margin {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_equals_definition():
    rng = np.random.default_rng(7)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 11))
        n = int(rng.integers(1, 501))
        pop = Population.from_arrays(
            rng.normal(scale=1.5, size=(n, d)), rng.uniform(0.3, 2.0, n),
            rng.normal(size=d) + np.eye(d)[0] * 1e-3,
        )
        w = rng.normal(size=d)
        if np.linalg.norm(w) < 1e-6:
            w[0] = 1.0
        from modbalance import LinearModerator

        f = LinearModerator(w, float(rng.normal()))
        by_definition = dm_population(pop, f)
        closed = dm_closed_form_linear(pop, f)
        worst = max(worst, abs(closed - by_definition) / (1 + abs(by_definition)))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(2, "mitigation closed form vs definition", ok,
           f"worst rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_dominance_with_strictness():
    # Dominance holds for every pair. The strictness characterization is
    # well-posed only for benign-origin users: a filtered origin has zero
    # distortion by definition, which undercuts the positive baseline
    # trivially rather than through any boundary geometry.
    from modbalance import LinearModerator, Trend, UserProfile

    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(10_000):
        d = int(rng.integers(1, 4))
        u = UserProfile(rng.normal(scale=1.5, size=d), float(rng.uniform(0.2, 2.0)))
        e_vec = rng.normal(size=d)
        if np.linalg.norm(e_vec) < 1e-6:
            e_vec[0] = 1.0
        e = Trend(e_vec)
        w = rng.normal(size=d)
        if np.linalg.norm(w) < 1e-6:
            w[0] = 1.0
        f = LinearModerator(w, float(rng.normal()))
        d_f = distortion(u, e, f)
        d_base = distortion(u, e, TRIVIAL)
        if d_f > d_base:
            violations += 1
            continue
        if f.score(u.x) <= 0:
            strict = d_f < d_base
            expected = f.score(ideal_point(u, e)) > 0
            if strict != expected:
                violations += 1
        elif d_f != 0.0:
            violations += 1
    report(3, "baseline dominance with exact strictness", violations == 0,
           f"{violations} violations in 10000 pairs")


def test_criterion_04_surrogate_analytics():
    # continuity and one-sided slopes at both junctions, on the stated grid
    worst_gap = 0.0
    for a in (0.1, 0.5, 2.0):
        for eps in (0.5, 0.9):
            for lam in (0.1, 10.0):
                bp = (1 - eps) * a
                left = (1 - eps**2) ** 2 * a**3 / (
                    2 * eps * bp - 4 * a * (1 - eps) + 3 * a * (1 - eps) ** 2
                )
                mid_at_bp = bp**2 - 2 * a * bp
                mid_at_a = a**2 - 2 * a * a
                right_at_a = lam * 0.0 - a**2
                den = 2 * eps * bp - 4 * a * (1 - eps) + 3 * a * (1 - eps) ** 2
                left_slope = -2 * eps * (1 - eps**2) ** 2 * a**3 / den**2
                gaps = [
                    abs(left - mid_at_bp),
                    abs(mid_at_bp - (-(1 - eps**2) * a**2)),
                    abs(mid_at_a - right_at_a),
                    abs(mid_at_a - (-(a**2))),
                    abs(left_slope - (2 * bp - 2 * a)),
                    abs((2 * a - 2 * a) - 2 * lam * (a - a)),
                ]
                worst_gap = max(worst_gap, max(gaps))
                cfg = SolverConfig(epsilon=eps, lam=lam)
                for y, want in ((bp, -(1 - eps**2) * a**2), (a, -(a**2))):
                    worst_gap = max(worst_gap, abs(surrogate_loss(y, a, cfg) - want))
    junctions_ok = worst_gap <= 1e-9

    # full analytic gradient vs central finite differences at 100 points
    rng = np.random.default_rng(23)
    worst_err = 0.0
    checked = 0
    while checked < 100:
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 20))
        pop = Population.from_arrays(
            rng.normal(size=(n, d)), rng.uniform(0.3, 2.0, n),
            rng.normal(size=d) + np.eye(d)[0] * 1e-3,
        )
        w = rng.uniform(-1, 1, d)
        b = float(rng.normal())
        cfg = SolverConfig(
            epsilon=float(rng.uniform(0.3, 0.95)), lam=float(rng.uniform(0.05, 20.0))
        )
        a_raw = (w @ pop.trend.e) / (2.0 * pop.costs)
        a = np.maximum(a_raw, _A_MIN)
        y = pop.feature_matrix @ w + b + a_raw
        joins = np.minimum(np.abs(y - (1 - cfg.epsilon) * a), np.abs(y - a))
        if np.any(joins < 1e-4) or np.any(np.abs(a_raw - _A_MIN) < 1e-4):
            continue

        def objective(wv, bv):
            av_raw = (wv @ pop.trend.e) / (2.0 * pop.costs)
            yv = pop.feature_matrix @ wv + bv + av_raw
            return sum(
                surrogate_loss(float(yi), float(ai), cfg)
                for yi, ai in zip(yv, np.maximum(av_raw, _A_MIN))
            )

        gw, gb = surrogate_gradient(w, b, pop, cfg)
        h = 1e-6
        fw = np.zeros(d)
        for j in range(d):
            dw = np.zeros(d)
            dw[j] = h
            fw[j] = (objective(w + dw, b) - objective(w - dw, b)) / (2 * h)
        fb = (objective(w, b + h) - objective(w, b - h)) / (2 * h)
        analytic = np.hstack([gw, gb])
        numeric = np.hstack([fw, fb])
        err = np.linalg.norm(analytic - numeric) / max(1e-8, np.linalg.norm(numeric))
        worst_err = max(worst_err, err)
        checked += 1
    gradient_ok = worst_err <= 1e-5
    report(4, "surrogate junctions and exact gradient", junctions_ok and gradient_ok,
           f"junction gap {worst_gap:.2e}, FD rel err {worst_err:.2e}")


def test_criterion_05_solver_versus_penalized_oracle():
    # The oracle minimizes J = -DM + lam * sum max(0, w.z' + b)^2 over unit
    # normals, charging every filtered ideal point z'. PGD minimizes the
    # surrogate, whose right branch lam * (w.x + b)^2 charges only filtered
    # origins, so its lam is a different parameter: PGD's moderators beat the
    # surrogate value of the oracle's, yet score J > 0, worse than doing
    # nothing. The audited solver is therefore PGD followed by the exact
    # polish. The oracle's DM is only a by-product of minimizing J, and a
    # polished moderator can reach a lower J than the oracle with less DM,
    # so the gate compares the objective both minimize: the gain -J over the
    # do-nothing moderator (J = 0) must reach 95% of the oracle's gain.
    t0 = time.time()
    records = []
    for seed in range(20):
        pop = generate(MixtureSpec(d=2, n=50, k=5, seed=seed))
        for lam in (0.1, 1.0, 10.0):
            oracle = oracle_penalized_2d(pop, lam, OracleConfig())
            solved = pgd_solve(pop, SolverConfig(lam=lam, restarts=8, seed=seed))
            polished = polish_penalized(pop, solved.moderator, lam)
            if oracle.dm > 0:
                gain = -penalized_objective(pop, polished.moderator, lam)
                oracle_gain = -penalized_objective(pop, oracle.moderator, lam)
                records.append((gain, oracle_gain, polished.dm / oracle.dm, seed, lam))
    elapsed = time.time() - t0
    failures = [r for r in records if r[0] < 0.95 * r[1]]
    per_lam = {
        lam: sum(1 for r in failures if r[4] == lam) for lam in (0.1, 1.0, 10.0)
    }
    ok = bool(records) and not failures and elapsed < 120.0
    gain_ratio = min((r[0] / r[1] for r in records), default=float("nan"))
    dm_ratio = min((r[2] for r in records), default=float("nan"))
    report(5, "polished solver gain within 95% of penalized oracle", ok,
           f"worst gain ratio {gain_ratio:.3f}, worst DM ratio {dm_ratio:.3f}, "
           f"fails/lam {per_lam}, {len(records)} records, {elapsed:.0f}s")


def test_criterion_06_exact_penalty_monotonicity():
    worst = 0.0
    for seed in range(10):
        pop = generate(MixtureSpec(d=2, n=30, k=3, seed=100 + seed))
        cfg = OracleConfig()
        prev_dm, prev_pen = np.inf, np.inf
        for lam in (0.1, 1.0, 10.0, 100.0):
            res = oracle_penalized_2d(pop, lam, cfg)
            pen = hinge_penalty(pop, res.moderator)
            worst = max(worst, res.dm - prev_dm, pen - prev_pen)
            prev_dm, prev_pen = res.dm, pen
    report(6, "exact minimizers monotone in penalty strength", worst <= 1e-9,
           f"worst increase {worst:.2e}")


def _sweep_shape(d, seeds=20):
    grid = [float(v) for v in np.logspace(-1.0, 2.0, 7)]
    fos = np.zeros((seeds, len(grid)))
    dm = np.zeros((seeds, len(grid)))
    for s in range(seeds):
        pop = generate(MixtureSpec(d=d, n=500, k=5, seed=s))
        results = sweep_lambda(pop, grid, SolverConfig(seed=s, restarts=8))
        fos[s] = [r.metrics.fos_retained for r in results]
        dm[s] = [r.dm for r in results]
    rho = spearman(np.array(grid), fos.mean(axis=0))
    peak = int(np.argmax(dm.mean(axis=0)))
    return rho, peak, len(grid)


def test_criterion_07_tradeoff_curve_shape():
    t0 = time.time()
    rho, peak, width = _sweep_shape(d=5)
    elapsed = time.time() - t0
    ok = rho >= 0.9 and 0 < peak < width - 1 and elapsed < 600.0
    report(7, "trade-off curve shape at d=5", ok,
           f"spearman {rho:.3f}, peak index {peak}/{width - 1}, {elapsed:.0f}s")


def test_criterion_08_dimension_robustness():
    rho2, peak2, width = _sweep_shape(d=2)
    rho10, peak10, _ = _sweep_shape(d=10)
    ok = rho2 >= 0.9 and rho10 >= 0.8
    report(8, "trade-off shape holds at d=2 and d=10", ok,
           f"spearman d2 {rho2:.3f}, d10 {rho10:.3f}")


def test_criterion_09_toy_disk_shape():
    t0 = time.time()
    pts = toy_disk(np.linspace(-1.0, 1.0, 41), c=0.5, samples=100_000, seed=0)
    elapsed = time.time() - t0
    fos = [p[2] for p in pts]
    dm = [p[1] for p in pts]
    monotone = all(b >= a for a, b in zip(fos, fos[1:]))
    peak = int(np.argmax(dm))
    ok = monotone and 0 < peak < 40 and elapsed < 10.0
    report(9, "unit-disk curve: speech monotone, mitigation peaked", ok,
           f"peak {peak}/40, {elapsed:.1f}s")


def test_criterion_10_calibration_contract():
    pop = generate(MixtureSpec())  # the default d=5, n=500 mixture
    delta = 1e-3
    bound = int(np.ceil(np.log2(lambda_max(pop) / delta))) + 1
    ok = True
    details = []
    for K in (0, pop.n // 10, pop.n):
        out = calibrate_lambda(
            pop, CalibrationTarget(K=K, delta=delta), SolverConfig(seed=1)
        )
        count = hinge_violations(pop, out.result.moderator)
        ok = ok and out.solve_count <= bound and (not out.feasible or count <= K)
        details.append(f"K={K}: lam={out.lam:.4g} viol={count} "
                       f"solves={out.solve_count}{'' if out.feasible else ' infeasible'}")
    report(10, "lambda calibration respects cap and budget", ok,
           f"bound {bound}; " + "; ".join(details))


def test_criterion_11_cli_determinism(tmp_path):
    pop_path = tmp_path / "pop.csv"
    gen = ["generate", "--seed", "5", "--d", "2", "--n", "40", "--k", "4",
           "--out", str(pop_path)]
    assert run(gen) == 0
    first_pop = pop_path.read_bytes()
    assert run(gen) == 0
    ok = pop_path.read_bytes() == first_pop

    fit_path = tmp_path / "fit.csv"
    solve = ["solve", "--data", str(pop_path), "--out", str(fit_path),
             "--restarts", "2", "--max-iters", "300"]
    assert run(solve) == 0
    first_fit = fit_path.read_bytes()
    assert run(solve) == 0
    ok = ok and fit_path.read_bytes() == first_fit

    sweep_path = tmp_path / "sweep.csv"
    sweep = ["sweep", "--out", str(sweep_path), "--seeds", "2", "--seed", "1",
             "--lambdas", "0.5,5.0", "--d", "2", "--n", "30", "--k", "3",
             "--restarts", "2", "--max-iters", "300"]
    assert run(sweep) == 0
    first_sweep = sweep_path.read_bytes()
    assert run(sweep) == 0
    ok = ok and sweep_path.read_bytes() == first_sweep
    report(11, "generate/solve/sweep re-runs are bitwise identical", ok)
