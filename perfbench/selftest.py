"""Self-test: the reference values against modbalance's by-definition path.

    python3 perfbench/selftest.py        (or: pytest perfbench/selftest.py)

On small random populations (random trend, costs and halfspace, d = 1..5)
each reference value in ``reference.py`` must match the same quantity
assembled user by user from ``modbalance.best_response`` and the moderator's
own score, which share no code with the reference:

- mitigation: baseline minus squared displacement, for benign origins;
- the violation count and the exact penalized objective, from ideal-point
  scores;
- the filtered count, from the responses that stay filtered;
- the DM bound, which every user's mitigation respects.
"""

from __future__ import annotations

import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
from modbalance import LinearModerator, Population, best_response, ideal_point  # noqa: E402

POPULATIONS = 200


def by_definition(pop: Population, f: LinearModerator, lam: float) -> dict:
    e = pop.trend
    mitigation, filtered, violations, hinge2 = [], 0, 0, 0.0
    for u in pop.users:
        r = best_response(u, e, f)
        baseline = float(np.dot(e.e, e.e)) / (4.0 * u.c**2)
        if f.is_benign(u.x):
            d = r.z_star - u.x
            mitigation.append(baseline - float(np.dot(d, d)))
        else:
            mitigation.append(0.0)
        filtered += int(r.filtered)
        score = f.score(ideal_point(u, e))
        violations += int(score > 0.0)
        hinge2 += max(score, 0.0) ** 2
    dm = float(np.sum(mitigation))
    return {
        "mitigation": np.array(mitigation),
        "dm": dm,
        "filtered": filtered,
        "violations": violations,
        "J": -dm + lam * hinge2,
    }


def check_population(rng: np.random.Generator) -> list[str]:
    d = int(rng.integers(1, 6))
    n = int(rng.integers(10, 60))
    X = rng.normal(scale=1.0, size=(n, d))
    costs = rng.uniform(0.3, 2.0, size=n)
    e = rng.normal(size=d)
    w = rng.normal(size=d)
    # offset through the bulk of the ideal points, so every response case occurs
    b = -float(np.quantile((X + e / (2.0 * costs)[:, None]) @ w, rng.uniform(0.2, 0.8)))
    lam = float(rng.uniform(0.1, 10.0))
    pop = Population.from_arrays(X, costs, e)
    f = LinearModerator(w, b)
    want = by_definition(pop, f, lam)
    bound = ref.dm_bound(costs, e)
    got_mitigation = ref.mitigation(X, costs, e, w, b)
    problems = []
    if not np.allclose(got_mitigation, want["mitigation"], rtol=0, atol=1e-9 * max(1.0, bound)):
        problems.append("per-user mitigation")
    if not ref.close(ref.dm(X, costs, e, w, b), want["dm"], bound):
        problems.append("DM")
    if ref.violations(X, costs, e, w, b) != want["violations"]:
        problems.append("violation count")
    if not ref.close(ref.penalized_objective(X, costs, e, w, b, lam), want["J"], bound):
        problems.append("penalized objective")
    if int(np.sum(ref.filtered(X, costs, e, w, b))) != want["filtered"]:
        problems.append("filtered count")
    if np.any(want["mitigation"] > np.dot(e, e) / (4.0 * costs**2) + 1e-12) or want["dm"] > bound + 1e-9:
        problems.append("DM bound")
    return problems


def test_reference_matches_best_response():
    rng = np.random.default_rng(20250718)
    failures = []
    for k in range(POPULATIONS):
        failures += [f"population {k}: {p}" for p in check_population(rng)]
    assert not failures, failures


def test_mixture_costs_match_generator():
    from modbalance import MixtureSpec, generate

    for seed in (0, 1, 7, 123456789):
        pop = generate(MixtureSpec(seed=seed))
        assert np.array_equal(ref.mixture_costs(seed, pop.n), pop.costs)


if __name__ == "__main__":
    try:
        test_reference_matches_best_response()
        test_mixture_costs_match_generator()
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        sys.exit(1)
    print(f"ok: {POPULATIONS} random populations, reference == by-definition best responses")
