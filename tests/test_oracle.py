"""Brute-force reference searches and the unit-disk toy model."""

import numpy as np
import pytest

from _helpers import hinge_penalty, hinge_violations, loop_candidates
from modbalance import (
    LinearModerator,
    MixtureSpec,
    OracleConfig,
    Population,
    SolverConfig,
    dm_closed_form_linear,
    generate,
    oracle_2d,
    oracle_penalized_2d,
    pgd_solve,
    toy_disk,
)
from modbalance.oracle import _candidates

LINE3 = Population.from_arrays(
    np.array([[0.3, 0.0], [0.3, 0.1], [0.3, -0.1]]), np.ones(3), [1.0, 0.0]
)


class TestOracle2d:
    def test_collinear_users_found_exactly(self):
        res = oracle_2d(LINE3, OracleConfig(K=3))
        assert res.dm == pytest.approx(0.75, abs=1e-12)
        # optimal boundary passes through all three points
        w, b = res.moderator.w, res.moderator.b
        for x in LINE3.feature_matrix:
            assert abs(np.dot(w, x) + b) <= 1e-9

    def test_single_user_reaches_baseline(self):
        c = 0.7
        pop = Population.from_arrays(np.array([[0.4, -0.2]]), [c], [1.0, 0.0])
        res = oracle_2d(pop, OracleConfig(K=1))
        assert res.dm == pytest.approx(1.0 / (4 * c * c), rel=1e-12)

    def test_upper_bounds_the_solver(self):
        # the oracle is a maximizer, so the solver can never beat it by > 5%
        for seed in (0, 1, 2):
            pop = generate(MixtureSpec(d=2, n=30, k=3, seed=seed))
            oracle = oracle_2d(pop, OracleConfig(K=30))
            solved = pgd_solve(
                pop, SolverConfig(lam=0.1, restarts=4, seed=seed, max_iters=600)
            )
            assert oracle.dm >= solved.dm - 0.05 * abs(oracle.dm)

    def test_constraint_recount_on_return(self):
        # incident candidates graze ideal points to within roundoff; the
        # recount uses the package's one benign tolerance, as the oracle does
        for seed, k_cap in ((3, 0), (4, 3), (5, 10)):
            cfg = OracleConfig(K=k_cap)
            pop = generate(MixtureSpec(d=2, n=20, k=2, seed=seed))
            res = oracle_2d(pop, cfg)
            assert hinge_violations(pop, res.moderator) <= k_cap

    def test_zero_cap_is_always_feasible(self):
        # anti-trend directions give violation-free candidates, so K = 0 works
        cfg = OracleConfig(K=0)
        pop = generate(MixtureSpec(d=2, n=15, k=3, seed=9))
        res = oracle_2d(pop, cfg)
        assert hinge_violations(pop, res.moderator) == 0
        assert res.dm >= 0.0

    def test_reported_violations_respect_the_cap(self):
        # the CLI's violations column: never above K, and the complement of
        # the desired-speech index (both count ideal scores > BENIGN_TOL)
        n = 50
        for seed in range(40):
            pop = generate(MixtureSpec(d=2, n=n, k=5, seed=seed))
            for k_cap in (0, 5, 10):
                res = oracle_2d(pop, OracleConfig(K=k_cap))
                count = res.violations
                assert count == hinge_violations(pop, res.moderator)
                assert count <= k_cap
                assert count == n - round(n * res.metrics.fos_desired)

    def test_grid_refinement_never_hurts(self):
        for seed in (0, 7):
            pop = generate(MixtureSpec(d=2, n=25, k=5, seed=seed))
            coarse = oracle_2d(pop, OracleConfig(angle_steps=16, offset_steps=16, K=25))
            fine = oracle_2d(pop, OracleConfig(angle_steps=32, offset_steps=32, K=25))
            finest = oracle_2d(pop, OracleConfig(angle_steps=64, offset_steps=64, K=25))
            assert fine.dm >= coarse.dm - 1e-12
            assert finest.dm >= fine.dm - 1e-12

    def test_requires_plane(self):
        pop = generate(MixtureSpec(d=3, n=9, k=3, seed=0))
        with pytest.raises(ValueError):
            oracle_2d(pop, OracleConfig())

    def test_reported_dm_matches_closed_form(self):
        pop = generate(MixtureSpec(d=2, n=20, k=4, seed=11))
        res = oracle_2d(pop, OracleConfig(K=20))
        assert res.dm == pytest.approx(
            dm_closed_form_linear(pop, res.moderator), rel=1e-9
        )


class TestOraclePenalized:
    def test_lambda_zero_matches_unconstrained_search(self):
        pop = generate(MixtureSpec(d=2, n=20, k=4, seed=2))
        free = oracle_2d(pop, OracleConfig(K=20))
        pen = oracle_penalized_2d(pop, 0.0, OracleConfig())
        assert pen.dm == pytest.approx(free.dm, rel=1e-12)

    def test_monotone_in_lambda(self):
        for seed in (0, 5):
            pop = generate(MixtureSpec(d=2, n=25, k=5, seed=seed))
            cfg = OracleConfig()
            prev_dm, prev_pen = np.inf, np.inf
            for lam in (0.1, 1.0, 10.0, 100.0):
                res = oracle_penalized_2d(pop, lam, cfg)
                pen = hinge_penalty(pop, res.moderator)
                assert res.dm <= prev_dm + 1e-9
                assert pen <= prev_pen + 1e-9
                prev_dm, prev_pen = res.dm, pen

    def test_enormous_lambda_clears_penalty(self):
        pop = generate(MixtureSpec(d=2, n=20, k=4, seed=6))
        res = oracle_penalized_2d(pop, 1e9, OracleConfig())
        assert hinge_penalty(pop, res.moderator) == 0.0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            oracle_penalized_2d(LINE3, -1.0, OracleConfig())


class TestToyDisk:
    def test_left_margin_mitigates_nothing(self):
        pts = toy_disk([-1.0], samples=50_000, seed=1)
        assert pts[0][1] == pytest.approx(0.0, abs=1e-6)

    def test_speech_index_non_decreasing(self):
        pts = toy_disk(np.linspace(-1, 1, 41), samples=100_000, seed=2)
        fos = [p[2] for p in pts]
        assert all(b >= a for a, b in zip(fos, fos[1:]))

    def test_mitigation_peaks_in_the_interior(self):
        pts = toy_disk(np.linspace(-1, 1, 41), samples=100_000, seed=3)
        dm = [p[1] for p in pts]
        peak = int(np.argmax(dm))
        assert 0 < peak < len(dm) - 1

    def test_deterministic(self):
        a = toy_disk(np.linspace(-1, 1, 5), samples=2_000, seed=7)
        b = toy_disk(np.linspace(-1, 1, 5), samples=2_000, seed=7)
        assert a == b

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            toy_disk([1.5])
        for c in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="manipulation cost c must be positive"):
                toy_disk([0.0], c=c)
        with pytest.raises(ValueError):
            toy_disk([0.0], samples=0)


class TestCandidates:
    """The array-built candidate set against the nested-loop definition."""

    @staticmethod
    def assert_same_rows(pop, cfg):
        W, B = _candidates(pop, cfg)
        W_ref, B_ref = loop_candidates(pop, cfg)
        assert W.shape == W_ref.shape and B.shape == B_ref.shape
        assert np.max(np.abs(W - W_ref)) <= 1e-15
        assert np.max(np.abs(B - B_ref)) <= 1e-14

    @pytest.mark.parametrize("cfg", [
        OracleConfig(),
        OracleConfig(use_candidates=False),
        OracleConfig(angle_steps=16, offset_steps=8),
    ], ids=["default", "grid_only", "coarse"])
    def test_matches_loops(self, cfg):
        for seed in (0, 1, 2):
            self.assert_same_rows(generate(MixtureSpec(d=2, n=50, k=5, seed=seed)), cfg)

    def test_coincident_points_are_skipped(self):
        # users 0 and 1 coincide, and so do their ideal points; user 3's
        # content is user 0's ideal point
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.5], [0.5, 0.0]])
        pop = Population.from_arrays(X, np.ones(4), [1.0, 0.0])
        self.assert_same_rows(pop, OracleConfig())
        cfg = OracleConfig(angle_steps=8, offset_steps=8)
        W, _ = _candidates(pop, cfg)
        k = 2 * pop.n
        grid_rows = cfg.angle_steps * (cfg.offset_steps + 1 + k)
        assert W.shape[0] == grid_rows + 2 * (k * (k - 1) // 2 - 4)


class TestOracleConfig:
    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            OracleConfig(angle_steps=4)
        with pytest.raises(ValueError):
            OracleConfig(offset_steps=4)
