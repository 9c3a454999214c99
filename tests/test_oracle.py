"""Brute-force reference searches and the unit-disk toy model."""

import weakref

import numpy as np
import pytest

import modbalance.oracle
from _helpers import (do_nothing_row, hinge_penalty, hinge_violations, loop_candidates,
                      reference_oracle_2d, reference_oracle_penalized_2d)
from modbalance import (
    LinearModerator,
    MixtureSpec,
    OracleConfig,
    Population,
    SolverConfig,
    dm_closed_form_linear,
    generate,
    halfspace_scores,
    oracle_2d,
    oracle_penalized_2d,
    pgd_solve,
    polish_penalized,
    toy_disk,
)
from modbalance.oracle import _candidates
from modbalance.solver import _exact_result

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

    def test_objective_at_zero_mitigation_is_positive_zero(self):
        # -dm would print as -0 in the CLI's objective column
        pop = generate(MixtureSpec(d=2, n=50, k=5, seed=7))
        res = oracle_2d(pop, OracleConfig(K=0))
        assert res.dm == 0.0
        assert not np.signbit(res.objective)

    def test_zero_cap_is_always_feasible(self):
        # the do-nothing candidate filters no ideal point, so K = 0 is met
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_objective_is_computed_from_the_returned_record(seed):
    # the winner is chosen by the batch score, whose sum order differs from
    # the one-row rescoring, so the objective must come from the record; the
    # polish chooses by its offset sweep's value, which rounds differently
    pop = generate(MixtureSpec(d=2, n=50, k=5, seed=seed))
    for k_cap in (0, 5, 10):
        res = oracle_2d(pop, OracleConfig(K=k_cap))
        assert res.objective == -res.dm
    for lam in (0.1, 1.0, 10.0):
        res = oracle_penalized_2d(pop, lam, OracleConfig())
        assert res.objective == -res.dm + lam * res.penalty
        polished = polish_penalized(pop, res.moderator, lam)
        assert polished.objective == -polished.dm + lam * polished.penalty


def _trend_populations():
    """The README's d = 2 population, data seeds 0-9, LINE3, and a population
    each with trend (-1, 0) and (0.6, 0.8)."""
    readme = generate(MixtureSpec(d=2, n=50, k=5, seed=7))
    yield "readme", readme
    for seed in range(10):
        yield f"seed{seed}", generate(MixtureSpec(d=2, n=50, k=5, seed=seed))
    yield "line3", LINE3
    for trend in ((-1.0, 0.0), (0.6, 0.8)):
        yield f"trend{trend}", Population.from_arrays(readme.feature_matrix, readme.costs, trend)


TREND_POPULATIONS = dict(_trend_populations())


def _off_side_rows(pop, cfg):
    """The search rows ``_candidates`` does not build: the loop rows with w.e <= 0."""
    W, B = loop_candidates(pop, cfg)
    off = W @ pop.trend.e <= 0
    return W[off], B[off]


def assert_same_result(res, ref):
    assert res == ref
    for a, b in ((res.moderator.w, ref.moderator.w), (res.moderator.b, ref.moderator.b),
                 (res.objective, ref.objective)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestTrendSideFirst:
    """The oracles' candidates are the do-nothing row and the search rows with
    w.e > 0, and each oracle picks what its definition over them picks."""

    @pytest.mark.parametrize("name", list(TREND_POPULATIONS))
    def test_oracles_equal_a_full_scan(self, name):
        pop = TREND_POPULATIONS[name]
        # at 1e9 no trend-side row of the README population scores below 0
        for lam in (0.0, 1.0, 1e9):
            assert_same_result(oracle_penalized_2d(pop, lam, OracleConfig()),
                               reference_oracle_penalized_2d(pop, lam, OracleConfig()))
        for k_cap in (0, 5):
            assert_same_result(oracle_2d(pop, OracleConfig(K=k_cap)),
                               reference_oracle_2d(pop, OracleConfig(K=k_cap)))

    @pytest.mark.parametrize("name", list(TREND_POPULATIONS))
    def test_rows_off_the_trend_side_mitigate_nothing(self, name):
        pop = TREND_POPULATIONS[name]
        W, B = _off_side_rows(pop, OracleConfig())
        assert W.shape[0] > 0
        dm, _, _, _ = halfspace_scores(pop, W, B)
        assert np.all(dm == 0.0)

    def test_only_trend_side_rows_are_scored_when_one_wins(self, monkeypatch):
        # the stage scores the trend side once, and never the rest; an equal
        # but new population gets a stage of its own
        scored = []

        def counting(pop, W, B):
            scored.append(W.shape[0])
            return halfspace_scores(pop, W, B)

        monkeypatch.setattr(modbalance.oracle, "halfspace_scores", counting)
        readme = TREND_POPULATIONS["readme"]
        pop, twin = (Population.from_arrays(readme.feature_matrix, readme.costs, readme.trend.e)
                     for _ in range(2))
        # lam None: oracle_2d at K = 5, which reuses the stage built at K = 0
        for who, lam, rows in ((pop, 1.0, 10_180), (pop, 1e9, 0), (pop, None, 0),
                               (twin, 1.0, 10_180)):
            scored.clear()
            res = (oracle_2d(who, OracleConfig(K=5)) if lam is None
                   else oracle_penalized_2d(who, lam, OracleConfig()))
            assert sum(scored) == rows
            assert res.iterations_used == 10_181


def _scaled(pop, scale):
    """``pop`` with every feature multiplied by ``scale``."""
    return Population.from_arrays(pop.feature_matrix * scale, pop.costs, pop.trend.e)


SCALES = (1.0, 1e16, 1e17)


def _every_row(pop, cfg):
    """Every search row, w.e <= 0 included: the ``_candidates`` rows, then
    ``_off_side_rows``, with their scores by one ``halfspace_scores`` call."""
    W, B = (np.concatenate(parts) for parts in zip(_candidates(pop, cfg),
                                                   _off_side_rows(pop, cfg)))
    return W, B, halfspace_scores(pop, W, B)


def _full_scan(pop, rows, lam, k_cap=None):
    """The best of ``_every_row``'s ``rows``: -dm + lam * penalty, or (lam
    None) the most mitigating row within the cap ``k_cap``."""
    W, B, (dm, penalty, violations, _) = rows
    if lam is None:
        best = int(np.argmax(np.where(violations <= k_cap, dm, -np.inf)))
    else:
        best = int(np.argmin(-dm + lam * penalty))
    return _exact_result(pop, W[best], B[best], lam, W.shape[0], True)


class TestDoNothingRow:
    """The candidate set's first row filters no ideal point, so no record is
    worse than doing nothing and every cap is met, at any feature scale."""

    @pytest.mark.parametrize("name", list(TREND_POPULATIONS))
    def test_it_scores_zero_at_any_scale(self, name):
        for scale in SCALES:
            pop = _scaled(TREND_POPULATIONS[name], scale)
            W, B = _candidates(pop, OracleConfig())
            e = pop.trend.e
            assert W[0].tobytes() == (e / np.linalg.norm(e)).tobytes()
            scores = halfspace_scores(pop, W[:1], B[:1])
            assert [part.tolist() for part in scores] == [[0.0], [0.0], [0], [0]], scale
            _, _, dm, penalty, violations = modbalance.oracle._stage(pop, OracleConfig())
            assert (dm[0], penalty[0], violations[0]) == (0, 0, 0)

    @pytest.mark.parametrize("name", list(TREND_POPULATIONS))
    def test_zero_cap_returns_it(self, name):
        # a feasible row at K = 0 filters no ideal point, so it mitigates nothing
        for scale in SCALES:
            pop = _scaled(TREND_POPULATIONS[name], scale)
            res = oracle_2d(pop, OracleConfig(K=0))
            assert (res.dm, res.violations) == (0.0, 0), scale
            W, B = modbalance.oracle._held[2:4]
            assert (res.moderator.w.tobytes(), res.moderator.b) == (W[0].tobytes(), B[0])

    @pytest.mark.parametrize("name", list(TREND_POPULATIONS))
    def test_every_cap_is_met_at_any_scale(self, name):
        # the pick is made on batch bits, and its one-row record can count
        # one violation more; such a pick gives way to the next
        for scale in SCALES:
            pop = _scaled(TREND_POPULATIONS[name], scale)
            for k_cap in (1, 2, 5, 10):
                res = oracle_2d(pop, OracleConfig(K=k_cap))
                assert res.violations <= k_cap, (scale, k_cap)

    @pytest.mark.parametrize("name", list(TREND_POPULATIONS))
    def test_penalized_objective_is_never_positive(self, name):
        # a pick whose one-row record scores J > 0 gives way to row 0
        for scale in SCALES:
            pop = _scaled(TREND_POPULATIONS[name], scale)
            for lam in (0.0, 0.1, 1.0, 10.0, 100.0, 1e9):
                res = oracle_penalized_2d(pop, lam, OracleConfig())
                assert res.objective <= 0.0, (scale, lam)

    @pytest.mark.parametrize("name", list(TREND_POPULATIONS))
    def test_no_worse_than_a_scan_of_every_row(self, name):
        pop = TREND_POPULATIONS[name]
        rows = _every_row(pop, OracleConfig())
        for lam in (0.0, 0.1, 1.0, 10.0, 100.0, 1e9):
            res = oracle_penalized_2d(pop, lam, OracleConfig())
            assert res.objective <= _full_scan(pop, rows, lam).objective, lam
        for k_cap in (0, 1, 5, 10):
            res = oracle_2d(pop, OracleConfig(K=k_cap))
            assert res.dm >= _full_scan(pop, rows, None, k_cap).dm, k_cap


def _fresh(pop):
    """A new Population object equal to ``pop``."""
    return Population.from_arrays(pop.feature_matrix, pop.costs, pop.trend.e)


class TestStage:
    """One held stage serves every lam and every cap on the same population
    object and candidate set, and changes no output."""

    # constrained calls before penalized ones, and lam = 1e9, whose README
    # pick is the do-nothing row, before K = 0 and after lam = 1
    ORDERS = (
        ("K5", "K0", "lam1", "lam1e9", "lam0"),
        ("lam1", "lam1e9", "K0", "lam0", "K5"),
        ("lam0", "K5", "lam1e9", "lam1", "K0"),
    )
    CALLS = {
        "K0": (oracle_2d, reference_oracle_2d, (OracleConfig(K=0),)),
        "K5": (oracle_2d, reference_oracle_2d, (OracleConfig(K=5),)),
        "lam0": (oracle_penalized_2d, reference_oracle_penalized_2d, (0.0, OracleConfig())),
        "lam1": (oracle_penalized_2d, reference_oracle_penalized_2d, (1.0, OracleConfig())),
        "lam1e9": (oracle_penalized_2d, reference_oracle_penalized_2d, (1e9, OracleConfig())),
    }

    @pytest.mark.parametrize("name", list(TREND_POPULATIONS))
    def test_warm_calls_equal_cold_full_scans(self, name):
        pop = TREND_POPULATIONS[name]
        want = {call: ref(pop, *args) for call, (_, ref, args) in self.CALLS.items()}
        for order in self.ORDERS:
            warm = _fresh(pop)
            for call in order:
                oracle, _, args = self.CALLS[call]
                assert_same_result(oracle(warm, *args), want[call])

    def test_a_stage_is_served_only_to_its_candidate_set(self):
        pop = TREND_POPULATIONS["readme"]
        configs = (OracleConfig(), OracleConfig(use_candidates=False),
                   OracleConfig(angle_steps=32), OracleConfig(offset_steps=32),
                   OracleConfig(K=5, use_candidates=False), OracleConfig())
        for cfg in configs:
            for lam in (1.0, 1e9):
                assert_same_result(oracle_penalized_2d(pop, lam, cfg),
                                   reference_oracle_penalized_2d(pop, lam, cfg))
            assert_same_result(oracle_2d(pop, cfg), reference_oracle_2d(pop, cfg))

    def test_the_old_stage_is_freed_before_a_new_one_is_built(self, monkeypatch):
        first, second = (_fresh(TREND_POPULATIONS["readme"]) for _ in range(2))
        oracle_penalized_2d(first, 1.0, OracleConfig())
        old = weakref.ref(modbalance.oracle._held[2])
        candidates = modbalance.oracle._candidates
        seen = []

        def watching(pop, cfg):
            seen.append(old() is None)
            return candidates(pop, cfg)

        monkeypatch.setattr(modbalance.oracle, "_candidates", watching)
        oracle_penalized_2d(second, 1.0, OracleConfig())
        assert seen == [True]


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
        for theta in (1.5, -1.5, np.nan):
            with pytest.raises(ValueError, match=r"theta values must lie in \[-1, 1\]"):
                toy_disk([0.0, theta])
        for c in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="manipulation cost c must be positive"):
                toy_disk([0.0], c=c)
        with pytest.raises(ValueError):
            toy_disk([0.0], samples=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": -1}, "seed must be a nonnegative integer"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"samples": 10.5}, "samples must be an integer, got 10.5"),
    ], ids=["negative-seed", "float-seed", "bool-seed", "float-samples"])
    def test_rejects_bad_seed_and_samples(self, kwargs, message):
        # a negative seed would alias seed + 2**64 in the Philox key
        with pytest.raises(ValueError, match=message):
            toy_disk([0.0], **{"samples": 10, **kwargs})


class TestCandidates:
    """The array-built candidate set against the nested-loop definition: the
    do-nothing row, then the loop rows with w.e > 0."""

    @staticmethod
    def assert_same_rows(pop, cfg):
        W, B = _candidates(pop, cfg)
        w, b = do_nothing_row(pop)
        assert (W[0].tobytes(), B[0]) == (w.tobytes(), b)
        W_ref, B_ref = loop_candidates(pop, cfg)
        ahead = W_ref @ pop.trend.e > 0
        W_ref, B_ref = W_ref[ahead], B_ref[ahead]
        assert W[1:].shape == W_ref.shape and B[1:].shape == B_ref.shape
        assert np.max(np.abs(W[1:] - W_ref)) <= 1e-15
        assert np.max(np.abs(B[1:] - B_ref)) <= 1e-14

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
        # the do-nothing row; the grid angles 0, pi/4, pi/2 (cos 6e-17 > 0)
        # and 7 pi/4, which face the trend; and one orientation of each pair
        # of distinct points but the 12 that share a height, whose boundary
        # runs along the trend
        k = 2 * pop.n
        grid_rows = 4 * (cfg.offset_steps + 1 + k)
        assert W.shape[0] == 1 + grid_rows + (k * (k - 1) // 2 - 4 - 12)


class TestOracleConfig:
    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            OracleConfig(angle_steps=4)
        with pytest.raises(ValueError):
            OracleConfig(offset_steps=4)
