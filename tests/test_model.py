"""Best-response geometry: projections, case split, optimality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modbalance import (
    LinearModerator,
    Population,
    ResponseCase,
    Trend,
    TRIVIAL,
    UserProfile,
    best_response,
    best_responses,
    dm_closed_form_linear,
    generalization_gap,
    ideal_point,
    metrics,
    polish_penalized,
    project_hyperplane,
)

E10 = Trend([1.0, 0.0])


from _helpers import (
    grid_max_utility,
    in_strategic_regime,
    random_moderated_population,
    reference_best_response,
    utility,
)


class TestTypes:
    def test_cost_must_be_positive(self):
        with pytest.raises(ValueError):
            UserProfile([0.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            UserProfile([0.0, 0.0], -1.0)

    def test_features_must_be_finite(self):
        with pytest.raises(ValueError):
            UserProfile([np.nan, 0.0], 1.0)

    def test_zero_trend_rejected(self):
        with pytest.raises(ValueError):
            Trend([0.0, 0.0])

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            LinearModerator([0.0, 0.0], 1.0)

    def test_normal_whose_square_underflows_rejected(self):
        # |w|^2 underflows to 0, so halfspace_scores would call it a zero normal
        with pytest.raises(ValueError, match="normal w must be nonzero"):
            LinearModerator(np.array([1e-200, 0.0]), 0.5)

    @pytest.mark.parametrize("b", [np.nan, np.inf, -np.inf])
    def test_nonfinite_offset_rejected(self, b):
        with pytest.raises(ValueError, match="offset b must be finite"):
            LinearModerator(np.ones(2), b)

    def test_population_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Population.from_arrays([[1.0]], [1.0], E10.e)

    def test_population_nonempty(self):
        with pytest.raises(ValueError):
            Population.from_arrays(np.empty((0, 2)), [], E10.e)

    def test_inputs_are_immutable(self):
        u = UserProfile([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            u.x[0] = 5.0


PLANE = Population.from_arrays([[0.1, 0.2], [-0.3, 0.4]], [1.0, 1.0], E10.e)


@pytest.mark.parametrize("call", [
    lambda f: best_responses(PLANE, f),
    lambda f: best_response(PLANE.users[0], PLANE.trend, f),
    lambda f: metrics(PLANE, f),
    lambda f: dm_closed_form_linear(PLANE, f),
    lambda f: generalization_gap(PLANE, PLANE, f),
    lambda f: polish_penalized(PLANE, f, 1.0),
], ids=["best_responses", "best_response", "metrics", "dm_closed_form_linear",
        "generalization_gap", "polish_penalized"])
def test_a_moderator_of_another_dimension_is_rejected(call):
    # every entry point that takes a moderator fails with the same message
    with pytest.raises(ValueError, match=r"^moderator dimension 3 != population d = 2$"):
        call(LinearModerator([1.0, 0.0, 0.0], -0.5))


class TestPopulation:
    X = np.array([[1.0, 2.0], [-0.5, 0.25], [3.0, -1.0]])
    costs = np.array([0.5, 1.0, 2.0])

    def test_arrays_are_read_only(self):
        pop = Population.from_arrays(self.X, self.costs, E10.e)
        with pytest.raises(ValueError):
            pop.feature_matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            pop.costs[0] = 5.0

    def test_from_arrays_copies_its_inputs(self):
        X, costs, e = self.X.copy(), self.costs.copy(), E10.e.copy()
        pop = Population.from_arrays(X, costs, e)
        before = Population.from_arrays(self.X, self.costs, E10.e)
        X[0, 0], costs[0], e[1] = 9.0, 9.0, 9.0
        assert pop == before
        np.testing.assert_array_equal(pop.feature_matrix, self.X)
        np.testing.assert_array_equal(pop.costs, self.costs)

    @pytest.mark.parametrize(
        "X, costs",
        [
            (np.empty((0, 2)), []),  # empty
            (np.zeros((3, 3)), [1.0, 1.0, 1.0]),  # dimension mismatch with the trend
            (np.zeros(2), [1.0]),  # not a matrix
            (np.zeros((3, 2)), [1.0, 1.0]),  # one cost short
            (np.zeros((3, 2)), [1.0, 0.0, 1.0]),  # zero cost
            (np.zeros((3, 2)), [1.0, 1.0, -1.0]),  # negative cost
            (np.zeros((3, 2)), [1.0, np.nan, 1.0]),  # nan cost
            (np.zeros((3, 2)), [np.inf, 1.0, 1.0]),  # infinite cost
            (np.array([[0.0, 0.0], [np.nan, 0.0]]), [1.0, 1.0]),  # nan feature
            (np.array([[0.0, -np.inf], [0.0, 0.0]]), [1.0, 1.0]),  # infinite feature
        ],
    )
    def test_bad_arrays_rejected(self, X, costs):
        with pytest.raises(ValueError):
            Population.from_arrays(X, costs, E10.e)

    def test_users_view_matches_arrays(self):
        pop = Population.from_arrays(self.X, self.costs, E10.e)
        assert pop.n == 3 and pop.d == 2
        assert pop.users == tuple(UserProfile(x, c) for x, c in zip(self.X, self.costs))

    def test_equality_is_arraywise(self):
        a = Population.from_arrays(self.X, self.costs, E10.e)
        assert a == Population.from_arrays(self.X.tolist(), list(self.costs), [1.0, 0.0])
        assert a != Population.from_arrays(self.X, self.costs * 2.0, E10.e)
        assert a != Population.from_arrays(self.X[:2], self.costs[:2], E10.e)
        assert a != Population.from_arrays(self.X, self.costs, [0.0, 1.0])
        assert a != Population.from_arrays(self.X + 1.0, self.costs, E10.e)
        assert a != a.trend and a.__eq__(a.trend) is NotImplemented

        u = UserProfile([0.5, -1.0], 2.0)
        assert u == UserProfile(np.array([0.5, -1.0]), 2)
        assert u != UserProfile([0.5, -1.5], 2.0)
        assert u != UserProfile([0.5, -1.0], 3.0)
        assert u != UserProfile([0.5, -1.0, 0.0], 2.0)
        assert u != E10 and u.__eq__(E10) is NotImplemented

        assert E10 == Trend(np.array([1, 0]))
        assert E10 != Trend([0.0, 1.0])
        assert E10 != Trend([1.0, 0.0, 0.0])
        assert E10 != u and E10.__eq__(u) is NotImplemented

        f = LinearModerator([1.0, 2.0], -0.5)
        assert f == LinearModerator(np.array([1, 2]), -0.5)
        assert f != LinearModerator([1.0, 2.5], -0.5)
        assert f != LinearModerator([1.0, 2.0], 0.5)
        assert f != TRIVIAL and f.__eq__(TRIVIAL) is NotImplemented

        for value in (a, u, E10, f):
            with pytest.raises(TypeError):
                hash(value)


class TestIdealPoint:
    def test_basic_shift(self):
        u = UserProfile([0.0, 0.0], 0.5)
        np.testing.assert_allclose(ideal_point(u, E10), [1.0, 0.0])

    def test_quarter_back(self):
        u = UserProfile([-0.25, 0.0], 0.5)
        np.testing.assert_allclose(ideal_point(u, E10), [0.75, 0.0])


class TestUtility:
    def test_staying_benign_keeps_alignment(self):
        u = UserProfile([0.3, -0.2], 1.0)
        f = LinearModerator([1.0, 0.0], -1.0)
        assert f.score(u.x) <= 0
        assert utility(u.x, u, E10, f) == pytest.approx(0.3)

    def test_staying_filtered_is_zero(self):
        u = UserProfile([0.3, -0.2], 1.0)
        f = LinearModerator([1.0, 0.0], 0.0)
        assert f.score(u.x) > 0
        assert utility(u.x, u, E10, f) == 0.0

    def test_hand_evaluated_case(self):
        u = UserProfile([-0.25, 0.0], 0.5)
        f = LinearModerator([1.0, 0.0], 0.0)
        assert utility([0.0, 0.0], u, E10, f) == pytest.approx(-0.03125)


class TestProjectHyperplane:
    def test_fixed_point_on_boundary(self):
        f = LinearModerator([1.0, 2.0], -1.0)
        z = np.array([1.0, 0.0])  # w.z + b = 0
        np.testing.assert_array_equal(project_hyperplane(z, f), z)

    def test_axis_projection(self):
        f = LinearModerator([1.0, 0.0], 0.0)
        p = project_hyperplane([0.75, 0.0], f)
        np.testing.assert_allclose(p, [0.0, 0.0])
        assert abs(f.score(p)) <= 1e-9 * (1 + np.linalg.norm([0.75, 0.0]))

    def test_diagonal_symmetry(self):
        f = LinearModerator([1.0, 1.0], 0.0)
        np.testing.assert_allclose(project_hyperplane([1.0, 1.0], f), [0.0, 0.0])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_residual_property(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        z = rng.normal(scale=3.0, size=d)
        w = rng.normal(size=d)
        if np.linalg.norm(w) < 1e-6:
            w[0] = 1.0
        f = LinearModerator(w, float(rng.normal()))
        p = project_hyperplane(z, f)
        assert abs(f.score(p)) <= 1e-9 * (1.0 + np.linalg.norm(z))


class TestBestResponse:
    def test_unconstrained(self):
        u = UserProfile([0.0, 0.0], 0.5)
        f = LinearModerator([1.0, 0.0], -2.0)
        r = best_response(u, E10, f)
        assert r.case_tag is ResponseCase.UNCONSTRAINED
        np.testing.assert_array_equal(r.z_star, [1.0, 0.0])
        assert not r.filtered

    def test_projected(self):
        u = UserProfile([-0.25, 0.0], 0.5)
        f = LinearModerator([1.0, 0.0], 0.0)
        r = best_response(u, E10, f)
        assert r.case_tag is ResponseCase.PROJECTED
        np.testing.assert_allclose(r.z_star, [0.0, 0.0])
        assert r.utility >= grid_max_utility(u, E10, f) - 1e-3

    def test_stay_filtered(self):
        u = UserProfile([0.1, 0.0], 0.5)
        f = LinearModerator([1.0, 0.0], 0.0)
        r = best_response(u, E10, f)
        assert r.case_tag is ResponseCase.STAY_FILTERED
        np.testing.assert_array_equal(r.z_star, u.x)
        assert r.filtered and r.utility == 0.0
        # the rejected alternative: boundary utility is negative
        p = project_hyperplane(ideal_point(u, E10), f)
        assert utility(p, u, E10, f) == pytest.approx(-0.005)

    def test_cross_to_boundary(self):
        u = UserProfile([0.5, 0.1], 0.5)
        f = LinearModerator([0.0, 1.0], 0.0)
        r = best_response(u, E10, f)
        assert r.case_tag is ResponseCase.CROSS_TO_BOUNDARY
        np.testing.assert_allclose(r.z_star, [1.5, 0.0])
        assert r.utility == pytest.approx(0.995)
        assert not r.filtered

    def test_case1_fixed_point_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            u = UserProfile(rng.normal(size=d), float(rng.uniform(0.2, 2.0)))
            e = Trend(rng.normal(size=d) + 1e-3)
            w = rng.normal(size=d)
            if np.linalg.norm(w) < 1e-6:
                w[0] = 1.0
            f = LinearModerator(w, float(rng.normal()))
            z_prime = ideal_point(u, e)
            if f.score(z_prime) > 0:
                continue
            r = best_response(u, e, f)
            assert r.case_tag is ResponseCase.UNCONSTRAINED
            np.testing.assert_array_equal(r.z_star, z_prime)

    def test_trivial_moderator_gives_ideal_point(self):
        u = UserProfile([2.0, -1.0], 0.8)
        r = best_response(u, E10, TRIVIAL)
        np.testing.assert_array_equal(r.z_star, ideal_point(u, E10))
        assert r.case_tag is ResponseCase.UNCONSTRAINED

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_optimality_against_grid(self, seed):
        rng = np.random.default_rng(seed)
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
        if not in_strategic_regime(u, e, f):
            return
        r = best_response(u, e, f)
        assert r.utility >= grid_max_utility(u, e, f) - 1e-6

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_no_overshoot_for_benign_origin(self, seed):
        # benign-origin users never move farther than the unmoderated ideal point
        rng = np.random.default_rng(seed)
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
        if f.score(u.x) > 0:
            return
        r = best_response(u, e, f)
        z_prime = ideal_point(u, e)
        assert np.linalg.norm(r.z_star - u.x) <= np.linalg.norm(z_prime - u.x) + 1e-12

    def test_utility_field_matches_equation(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
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
            r = best_response(u, e, f)
            assert r.utility == pytest.approx(utility(r.z_star, u, e, f), abs=1e-9)

class TestBestResponses:
    """The array pass against the per-user reference ``reference_best_response``."""

    @pytest.mark.parametrize("kind", ["halfspace", "trivial"])
    def test_matches_per_user_reference(self, kind):
        rng = np.random.default_rng({"halfspace": 41, "trivial": 43}[kind])
        seen = set()
        for _ in range(40):
            pop, f = random_moderated_population(rng, kind)
            Z, cases = best_responses(pop, f)
            ref = [reference_best_response(u, pop.trend, f) for u in pop.users]
            assert Z.shape == (pop.n, pop.d) and cases.shape == (pop.n,)
            assert [ResponseCase(c) for c in cases] == [r.case_tag for r in ref]
            np.testing.assert_allclose(Z, np.array([r.z_star for r in ref]), rtol=0, atol=1e-12)
            seen.update(r.case_tag for r in ref)
        expected = {ResponseCase.UNCONSTRAINED} if kind == "trivial" else set(ResponseCase)
        assert seen == expected

    def test_hand_cases(self):
        # one user per case against the halfspace x_0 <= 0 (see TestBestResponse)
        f = LinearModerator([1.0, 0.0], 0.0)
        rows = [([-5.0, 0.0], 0.5), ([-0.25, 0.0], 0.5), ([0.1, 0.0], 0.5)]
        pop = Population.from_arrays([x for x, _ in rows], [c for _, c in rows], E10.e)
        Z, cases = best_responses(pop, f)
        assert list(cases) == [
            ResponseCase.UNCONSTRAINED, ResponseCase.PROJECTED, ResponseCase.STAY_FILTERED
        ]
        np.testing.assert_allclose(Z, [[-4.0, 0.0], [0.0, 0.0], [0.1, 0.0]])
        cross = Population.from_arrays([[0.5, 0.1]], [0.5], E10.e)
        Z, cases = best_responses(cross, LinearModerator([0.0, 1.0], 0.0))
        assert cases[0] == ResponseCase.CROSS_TO_BOUNDARY
        np.testing.assert_allclose(Z, [[1.5, 0.0]])
