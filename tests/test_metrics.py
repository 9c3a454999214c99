"""Distortion, mitigation, closed forms, and the population report."""

import importlib

import numpy as np
import pytest

from _helpers import (
    baseline_distortion,
    distortion,
    dm_population,
    mitigation,
    random_moderated_population,
    reference_best_response,
)
from modbalance import (
    BENIGN_TOL,
    LinearModerator,
    Population,
    Trend,
    TRIVIAL,
    UserProfile,
    dm_closed_form_linear,
    generalization_gap,
    halfspace_scores,
    ideal_point,
    metrics,
)

# the module, which the package's ``metrics`` function shadows as an attribute
metrics_mod = importlib.import_module("modbalance.metrics")

E10 = Trend([1.0, 0.0])
U_QUARTER = UserProfile([-0.25, 0.0], 0.5)
F_AXIS = LinearModerator([1.0, 0.0], 0.0)


def quarter_population(n):
    """n copies of U_QUARTER under the trend E10."""
    return Population.from_arrays(np.tile(U_QUARTER.x, (n, 1)), [U_QUARTER.c] * n, E10.e)


def random_instance(rng, n=None, d=None):
    d = d or int(rng.integers(1, 11))
    n = n or int(rng.integers(1, 501))
    X = rng.normal(scale=1.5, size=(n, d))
    costs = rng.uniform(0.3, 2.0, n)
    e = rng.normal(size=d)
    if np.linalg.norm(e) < 1e-6:
        e[0] = 1.0
    w = rng.normal(size=d)
    if np.linalg.norm(w) < 1e-6:
        w[0] = 1.0
    pop = Population.from_arrays(X, costs, e)
    return pop, LinearModerator(w, float(rng.normal()))


class TestDistortion:
    def test_filtered_origin_contributes_nothing(self):
        u = UserProfile([0.5, 0.0], 0.5)
        assert F_AXIS.score(u.x) > 0
        assert distortion(u, E10, F_AXIS) == 0.0

    def test_trivial_moderator_baseline(self):
        u = UserProfile([3.0, -1.0], 0.5)
        assert distortion(u, E10, TRIVIAL) == pytest.approx(1.0)
        assert baseline_distortion(u, E10) == pytest.approx(1.0)

    def test_projected_user(self):
        assert distortion(U_QUARTER, E10, F_AXIS) == pytest.approx(0.0625)


class TestMitigation:
    def test_filtered_origin_zero(self):
        u = UserProfile([0.5, 0.0], 0.5)
        assert mitigation(u, E10, F_AXIS) == 0.0

    def test_unconstrained_user_zero(self):
        u = UserProfile([-5.0, 0.0], 0.5)
        assert F_AXIS.score(ideal_point(u, E10)) <= 0
        assert mitigation(u, E10, F_AXIS) == pytest.approx(0.0)

    def test_banded_user(self):
        assert mitigation(U_QUARTER, E10, F_AXIS) == pytest.approx(0.9375)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            d = int(rng.integers(1, 5))
            u = UserProfile(rng.normal(size=d), float(rng.uniform(0.2, 2.0)))
            e_vec = rng.normal(size=d)
            if np.linalg.norm(e_vec) < 1e-6:
                e_vec[0] = 1.0
            e = Trend(e_vec)
            w = rng.normal(size=d)
            if np.linalg.norm(w) < 1e-6:
                w[0] = 1.0
            f = LinearModerator(w, float(rng.normal()))
            assert mitigation(u, e, f) >= -1e-12


class TestDominance:
    def test_strictness_characterization(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            d = int(rng.integers(1, 4))
            u = UserProfile(rng.normal(size=d), float(rng.uniform(0.2, 2.0)))
            e_vec = rng.normal(size=d)
            if np.linalg.norm(e_vec) < 1e-6:
                e_vec[0] = 1.0
            e = Trend(e_vec)
            w = rng.normal(size=d)
            if np.linalg.norm(w) < 1e-6:
                w[0] = 1.0
            f = LinearModerator(w, float(rng.normal()))
            d_f = distortion(u, e, f)
            d_triv = distortion(u, e, TRIVIAL)
            assert d_f <= d_triv + 1e-12
            if f.score(u.x) <= 0:
                # strict saving exactly when the ideal point would be filtered
                strict = d_f < d_triv - 1e-12
                expected = f.score(ideal_point(u, e)) > 0
                assert strict == expected
            else:
                assert d_f == 0.0


class TestDmPopulation:
    def test_trivial_moderator_mitigates_nothing(self):
        rng = np.random.default_rng(2)
        pop, _ = random_instance(rng, n=40, d=3)
        assert dm_population(pop, TRIVIAL) == pytest.approx(0.0)

    def test_single_user(self):
        pop = quarter_population(1)
        assert dm_population(pop, F_AXIS) == pytest.approx(0.9375)

    def test_additivity(self):
        pop = quarter_population(2)
        assert dm_population(pop, F_AXIS) == pytest.approx(1.875)


class TestClosedForm:
    def test_single_user_matches_definition(self):
        pop = quarter_population(1)
        assert dm_closed_form_linear(pop, F_AXIS) == pytest.approx(0.9375)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        pop, f = random_instance(rng, n=60, d=4)
        base = dm_closed_form_linear(pop, f)
        for t in (0.1, 2.0, 37.5):
            scaled = LinearModerator(t * f.w, t * f.b)
            assert dm_closed_form_linear(pop, scaled) == pytest.approx(
                base, abs=1e-12 * (1 + abs(base))
            )

    def test_all_unconstrained_population_gives_zero(self):
        X = np.full((5, 2), -50.0)
        pop = Population.from_arrays(X, np.ones(5), [1.0, 0.0])
        assert dm_closed_form_linear(pop, F_AXIS) == 0.0

    def test_matches_definition_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(12):
            pop, f = random_instance(rng, n=int(rng.integers(1, 200)))
            lhs = dm_closed_form_linear(pop, f)
            rhs = dm_population(pop, f)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def per_user_scores(pop, W, B):
    """DM, squared-hinge penalty, violation count and filtered count of each
    halfspace row, summed user by user from ``reference_best_response``
    (through ``mitigation`` for DM)."""
    dm, penalty, count, filtered = [], [], [], []
    for w, b in zip(W, B):
        f = LinearModerator(w, b)
        scores = [f.score(ideal_point(u, pop.trend)) for u in pop.users]
        dm.append(sum(mitigation(u, pop.trend, f) for u in pop.users))
        penalty.append(sum(max(0.0, y) ** 2 for y in scores))
        count.append(sum(y > BENIGN_TOL for y in scores))
        filtered.append(sum(reference_best_response(u, pop.trend, f).filtered for u in pop.users))
    return np.array(dm), np.array(penalty), np.array(count), np.array(filtered)


def random_rows(rng, pop, k):
    """k random halfspaces with offsets among the ideal points' scores; the
    last one's boundary passes exactly through an ideal point."""
    ideal = pop.feature_matrix + pop.trend.e / (2.0 * pop.costs)[:, None]
    W = rng.normal(size=(k, pop.d))
    W[np.linalg.norm(W, axis=1) < 1e-6, 0] = 1.0
    B = np.array([-float(np.quantile(ideal @ w, rng.uniform(0.0, 1.0))) for w in W])
    B[-1] = -float(ideal[int(rng.integers(pop.n))] @ W[-1])
    return W, B


class TestHalfspaceScores:
    @staticmethod
    def assert_matches_reference(pop, W, B):
        dm, penalty, count, filtered = halfspace_scores(pop, W, B)
        dm_ref, penalty_ref, count_ref, filtered_ref = per_user_scores(pop, W, B)
        np.testing.assert_array_equal(count, count_ref)
        np.testing.assert_array_equal(filtered, filtered_ref)
        assert np.all(np.abs(dm - dm_ref) <= 1e-9 * (1 + np.abs(dm_ref)))
        assert np.all(np.abs(penalty - penalty_ref) <= 1e-9 * (1 + penalty_ref))

    def test_all_benign_gives_zeros(self):
        pop = Population.from_arrays(np.full((4, 2), -10.0), np.ones(4), [1.0, 0.0])
        dm, penalty, count, filtered = halfspace_scores(pop, [[1.0, 0.0]], [0.0])
        assert dm[0] == 0.0 and penalty[0] == 0.0 and count[0] == 0 and filtered[0] == 0

    def test_hinge_and_penalty(self):
        pop = Population.from_arrays(np.array([[0.0, 0.0]]), [0.5], [1.0, 0.0])
        # origin score -0.5, ideal point score 1 - 0.5 = 0.5
        dm, penalty, count, filtered = halfspace_scores(pop, [[1.0, 0.0]], [-0.5])
        assert dm[0] == pytest.approx(1.0 - 0.25)
        assert penalty[0] == pytest.approx(0.25)
        assert count[0] == 1 and filtered[0] == 0

    def test_matches_per_user_reference(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            n = 1 if trial < 5 else None
            pop, _ = random_instance(rng, n=n, d=int(rng.integers(1, 6)))
            W, B = random_rows(rng, pop, int(rng.integers(1, 9)))
            self.assert_matches_reference(pop, W, B)

    def test_blocks_of_candidates(self, monkeypatch):
        # 16 entries per block: n = 7 scores two candidates per block, so
        # eleven rows take six blocks, the last one partial
        monkeypatch.setattr(metrics_mod, "_SCORE_BLOCK_ENTRIES", 16)
        rng = np.random.default_rng(5)
        pop, _ = random_instance(rng, n=7, d=3)
        W, B = random_rows(rng, pop, 11)
        self.assert_matches_reference(pop, W, B)

    @pytest.mark.parametrize(
        "W, B, message",
        [
            (np.ones((2, 2)), [0.0], "shape"),  # one offset short
            (np.ones((1, 2)), [[0.0]], "shape"),  # offsets not a vector
            (np.ones(2), [0.0], "shape"),  # one normal, not a matrix
            (np.ones((1, 3)), [0.0], "shape"),  # wrong dimension
            ([[1.0, np.nan]], [0.0], "finite"),
            ([[1.0, 0.0]], [np.inf], "finite"),
            ([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0], "row 1 of W is a zero normal"),
        ],
    )
    def test_bad_rows_rejected(self, W, B, message):
        pop = Population.from_arrays([[0.0, 0.0], [1.0, -1.0]], [0.5, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError, match=message):
            halfspace_scores(pop, W, B)

    def test_batch_equals_single_rows(self):
        # at the real block size n = 300 takes 218 candidates per block
        rng = np.random.default_rng(6)
        pop, _ = random_instance(rng, n=300, d=4)
        W, B = random_rows(rng, pop, 2000)
        batch = halfspace_scores(pop, W, B)
        for k in range(2000):
            for got, single in zip(batch, halfspace_scores(pop, W[k : k + 1], B[k : k + 1])):
                assert abs(got[k] - single[0]) <= 1e-12 * (1 + abs(single[0]))


class TestMetrics:
    def test_trivial(self):
        rng = np.random.default_rng(8)
        pop, _ = random_instance(rng, n=30, d=2)
        m = metrics(pop, TRIVIAL)
        assert m.dm == pytest.approx(0.0)
        assert m.fos_desired == 1.0
        assert m.fos_retained == 1.0
        assert m.filtered_count == 0

    def test_single_stay_filtered_user(self):
        pop = Population.from_arrays([[0.1, 0.0]], [0.5], E10.e)
        m = metrics(pop, F_AXIS)
        assert m.fos_retained == 0.0
        assert m.filtered_count == 1
        assert m.fos_desired == 0.0

    def test_single_projected_user(self):
        pop = quarter_population(1)
        m = metrics(pop, F_AXIS)
        assert m.fos_desired == 0.0
        assert m.fos_retained == 1.0
        assert m.filtered_count == 0
        assert m.dm == pytest.approx(0.9375)

    def test_report_invariants(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            pop, f = random_instance(rng, n=int(rng.integers(1, 80)), d=2)
            m = metrics(pop, f)
            assert m.fos_retained >= m.fos_desired - 1e-12
            assert m.filtered_count == round(m.n * (1 - m.fos_retained))
            assert 0 <= m.fos_desired <= 1 and 0 <= m.fos_retained <= 1

    @pytest.mark.parametrize("kind", ["halfspace", "trivial"])
    def test_matches_per_user_loop(self, kind):
        rng = np.random.default_rng({"halfspace": 51, "trivial": 53}[kind])
        for _ in range(40):
            pop, f = random_moderated_population(rng, kind)
            m = metrics(pop, f)
            e = pop.trend
            results = [reference_best_response(u, e, f) for u in pop.users]
            desired = sum(f.is_benign(ideal_point(u, e)) for u in pop.users)
            filtered = sum(r.filtered for r in results)
            dm = dm_population(pop, f)
            assert (m.n, m.filtered_count) == (pop.n, filtered)
            assert m.fos_desired == desired / pop.n
            assert m.fos_retained == (pop.n - filtered) / pop.n
            assert abs(m.dm - dm) <= 1e-9 * max(1.0, abs(dm))

    def test_dm_is_the_closed_form_bit_for_bit(self):
        rng = np.random.default_rng(54)
        for _ in range(40):
            pop, f = random_moderated_population(rng, "halfspace")
            assert metrics(pop, f).dm == dm_closed_form_linear(pop, f)

    def test_builds_no_user_objects(self, tmp_path, monkeypatch):
        from modbalance import MixtureSpec, generate, load, save
        from modbalance import model

        def refuse(self):
            raise AssertionError("a UserProfile was built")

        monkeypatch.setattr(model.UserProfile, "__post_init__", refuse)
        pop = generate(MixtureSpec(n=50, k=5, seed=1))
        save(pop, tmp_path / "pop.csv")
        back = load(tmp_path / "pop.csv")
        for f in (LinearModerator(np.eye(5)[0], -0.5), TRIVIAL):
            metrics(back, f)


class TestGeneralizationGap:
    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(5)
        pop, f = random_instance(rng, n=50, d=3)
        assert generalization_gap(pop, pop, f) == (0.0, 0.0)

    def test_disjoint_supports_stay_finite(self):
        a = Population.from_arrays(np.full((4, 2), -10.0), np.ones(4), [1.0, 0.0])
        b = Population.from_arrays(np.full((6, 2), 10.0), np.ones(6), [1.0, 0.0])
        dm_gap, fos_gap = generalization_gap(a, b, F_AXIS)
        assert np.isfinite(dm_gap) and np.isfinite(fos_gap)
        assert fos_gap == 1.0

    def test_dimension_mismatch_rejected(self):
        a = Population.from_arrays(np.zeros((2, 2)) - 1.0, np.ones(2), [1.0, 0.0])
        b = Population.from_arrays(np.zeros((2, 3)) - 1.0, np.ones(2), [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            generalization_gap(a, b, F_AXIS)

    def test_paired_mixture_samples(self):
        # 20 paired n=500 samples from one mixture each (one 1000-user draw
        # split evenly); report the gap distribution, no hard bound asserted
        # beyond typicality of the medians
        from modbalance import MixtureSpec, Population, generate

        f = LinearModerator([1.0, 0.0, 0.0, 0.0, 0.0], -0.5)
        gaps = []
        for s in range(20):
            both = generate(MixtureSpec(n=1000, k=5, seed=s))
            X, costs = both.feature_matrix, both.costs
            train = Population.from_arrays(X[::2], costs[::2], both.trend.e)
            test = Population.from_arrays(X[1::2], costs[1::2], both.trend.e)
            dm_gap, fos_gap = generalization_gap(train, test, f)
            assert np.isfinite(dm_gap) and np.isfinite(fos_gap)
            gaps.append((dm_gap, fos_gap))
        dm_gaps = sorted(g[0] for g in gaps)
        fos_gaps = sorted(g[1] for g in gaps)
        print(
            f"paired-sample gaps: dm median={dm_gaps[10]:.4f} max={dm_gaps[-1]:.4f}; "
            f"fos median={fos_gaps[10]:.4f} max={fos_gaps[-1]:.4f}"
        )
        assert dm_gaps[10] <= 0.1 and fos_gaps[10] <= 0.1
