"""Domain model: users, trends, moderators, and strategic best responses.

A user publishes content represented by a feature vector ``x`` and pays a
quadratic cost ``c`` per unit of squared displacement when rewriting it. A
moderator assigns every candidate vector a harmfulness score; content with a
nonpositive score is benign (published), positive means filtered. The
moderators are halfspaces, {z : w.z + b <= 0}, and the do-nothing
:data:`TRIVIAL`, which filters nothing. Facing a halfspace, a rational user
shifts toward the trend direction as far as the benign region allows, which
this module resolves in closed form by one projection onto the boundary,
:func:`project_hyperplane`, of a point (d,) or of rows (k, d).

A :class:`Population` is three read-only things: a feature matrix (n, d), a
cost vector (n,) and the trend. :func:`best_responses` is the one
best-response implementation: it resolves every user of a population in one
array pass. The scalar :func:`best_response` on a :class:`UserProfile` is a
one-row call of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import IntEnum

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "BENIGN_TOL", "UserProfile", "Trend", "Population", "LinearModerator", "TrivialModerator",
    "TRIVIAL", "ResponseCase", "BestResponseResult", "ideal_point", "project_hyperplane",
    "best_response", "best_responses",
]

# Scores within this slack of zero count as benign, so points constructed on
# the decision boundary (projections) are accepted despite roundoff.
BENIGN_TOL = 1e-12


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite in every coordinate")
    return _read_only(arr.copy())


class SettingError(ValueError):
    """One setting's value failed its own check; ``name`` is the setting, so
    a caller that read it from a file can say where."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def _require_int(name: str, value, low: int | None = None) -> None:
    """Reject a bool or non-integer ``value``, or one below ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SettingError(name, f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise SettingError(name, f"{name} must be at least {low}, got {value}")


def _require_seed(seed) -> None:
    """Reject anything but an integer in [0, 2**64), the Philox key range."""
    _require_int("seed", seed)
    if not 0 <= int(seed) < 2**64:
        raise SettingError("seed", f"seed must be a nonnegative integer below 2**64, got {seed}")


def _require_lambda(lam) -> None:
    """Reject a penalty strength that is negative or not finite."""
    if not (np.isfinite(lam) and lam >= 0):
        raise SettingError("lam", f"lam must be nonnegative and finite, got {lam}")


def _require_positive(name: str, value) -> None:
    """Reject a real that is not positive or not finite."""
    if not (np.isfinite(value) and value > 0):
        raise SettingError(name, f"{name} must be positive and finite, got {value}")


def _stream(seed: int, stream: int) -> Generator:
    """The Philox generator keyed (seed, stream), the package's one source of
    randomness; every seed is checked by ``_require_seed`` before it gets
    here. Key map: data ingredients (seed, 0-3) for centers, sigmas, points
    and costs; PGD restart r (seed, r); toy sample (seed, 0).

    The solver's keys share the data's key space: ``sweep`` passes one number
    as data seed and solver seed, and ``derive_seed(s, 0) = s``, so at its
    first lambda restarts 1-3 draw from the data's sigma, point and cost keys.
    The keys stay as they are: changing them would move every sweep output.

    The key is a uint64 array: numpy reads a key list holding a value above
    2**63 - 1 through float64, which would alias such seeds.
    """
    return Generator(Philox(key=np.array([int(seed), stream], dtype=np.uint64)))


class _FieldEquality:
    """Equality of dataclasses holding arrays: field by field, arrays by
    ``np.array_equal`` and the rest by ``==``; another type is
    ``NotImplemented``. Defining ``__eq__`` leaves the types unhashable."""

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in pairs)


@dataclass(frozen=True, eq=False)
class UserProfile(_FieldEquality):
    """One content creator: original feature vector ``x`` and cost ``c > 0``."""

    x: np.ndarray
    c: float

    def __post_init__(self):
        object.__setattr__(self, "x", _as_vector(self.x, "x"))
        object.__setattr__(self, "c", float(self.c))
        if not (self.c > 0 and np.isfinite(self.c)):
            raise ValueError(f"manipulation cost c must be positive, got {self.c}")

    @property
    def d(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True, eq=False)
class Trend(_FieldEquality):
    """A global trend direction; alignment with it is the user's payoff."""

    e: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "e", _as_vector(self.e, "e"))
        if not np.linalg.norm(self.e) > 0:
            raise ValueError("trend vector must be nonzero")

    @property
    def d(self) -> int:
        return self.e.shape[0]


@dataclass(frozen=True, eq=False)
class Population(_FieldEquality):
    """An ordered set of users sharing one trend direction, held as arrays.

    Row i of ``feature_matrix`` (n, d) and entry i of ``costs`` (n,) are user
    i's content and manipulation cost. Construction copies both, checks them
    once (nonempty, matching shapes, finite, positive costs) and makes the
    copies read-only.
    """

    feature_matrix: np.ndarray
    costs: np.ndarray
    trend: Trend

    def __post_init__(self):
        X = np.array(self.feature_matrix, dtype=np.float64)
        costs = np.array(self.costs, dtype=np.float64)
        n = X.shape[0] if X.ndim == 2 else 0
        if n == 0 or X.shape[1] != self.trend.d or costs.shape != (n,):
            raise ValueError(
                f"need a nonempty (n, {self.trend.d}) feature matrix and n costs, "
                f"got shapes {X.shape} and {costs.shape}"
            )
        bad_x = ~np.isfinite(X).all(axis=1)
        if np.any(bad_x):
            raise ValueError(f"user {int(np.argmax(bad_x))}: x must be finite in every coordinate")
        bad_c = ~(np.isfinite(costs) & (costs > 0))
        if np.any(bad_c):
            i = int(np.argmax(bad_c))
            raise ValueError(f"user {i}: manipulation cost c must be positive, got {costs[i]}")
        object.__setattr__(self, "feature_matrix", _read_only(X))
        object.__setattr__(self, "costs", _read_only(costs))

    @classmethod
    def from_arrays(cls, features, costs, trend) -> "Population":
        return cls(features, costs, Trend(trend))

    @property
    def n(self) -> int:
        return self.costs.shape[0]

    @property
    def d(self) -> int:
        return self.trend.d

    @property
    def users(self) -> tuple[UserProfile, ...]:
        """Per-user view, built on every access, for by-definition references."""
        return tuple(UserProfile(x, c) for x, c in zip(self.feature_matrix, self.costs))


class Moderator:
    """Scoring shared by :class:`LinearModerator` and :class:`TrivialModerator`,
    the only moderators (no extension point): ``score(z) <= 0`` means ``z`` is
    benign; ``score_many`` gives the scores (k,) of rows (k, d)."""

    def score_many(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def score(self, z) -> float:
        return float(self.score_many(np.asarray(z, dtype=np.float64)[None])[0])

    def is_benign(self, z) -> bool:
        return self.score(z) <= BENIGN_TOL


@dataclass(frozen=True, eq=False)
class LinearModerator(_FieldEquality, Moderator):
    """Halfspace moderator: benign region {z : w.z + b <= 0}."""

    w: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "w", _as_vector(self.w, "w"))
        object.__setattr__(self, "b", float(self.b))
        if not np.sum(self.w * self.w) > 0:  # |w|^2, as halfspace_scores tests it
            raise ValueError("moderator normal w must be nonzero")
        if not np.isfinite(self.b):
            raise ValueError(f"moderator offset b must be finite, got {self.b}")

    def score_many(self, Z: np.ndarray) -> np.ndarray:
        return Z @ self.w + self.b


class TrivialModerator(Moderator):
    """The do-nothing moderator: everything is benign."""

    def score_many(self, Z: np.ndarray) -> np.ndarray:
        return np.full(Z.shape[0], -np.inf)


#: Shared do-nothing moderator instance (the distortion baseline).
TRIVIAL = TrivialModerator()


def _require_same_dimension(pop: Population, f: Moderator) -> None:
    """Reject a halfspace whose dimension is not ``pop``'s; ``TRIVIAL`` has none."""
    if isinstance(f, LinearModerator) and f.w.shape[0] != pop.d:
        raise ValueError(f"moderator dimension {f.w.shape[0]} != population d = {pop.d}")


class ResponseCase(IntEnum):
    """Regime of a best response; :func:`best_responses` reports these codes."""

    UNCONSTRAINED = 0
    PROJECTED = 1
    STAY_FILTERED = 2
    CROSS_TO_BOUNDARY = 3


@dataclass(frozen=True)
class BestResponseResult:
    """Outcome of one user's optimization against a moderator.

    ``filtered`` is True only when the user stays put on the filtered side;
    every other case publishes successfully. ``utility`` is the achieved
    payoff: trend alignment (if published) minus quadratic movement cost.
    """

    z_star: np.ndarray = field(repr=False)
    case_tag: ResponseCase
    filtered: bool
    utility: float


def ideal_point(u: UserProfile, e: Trend) -> np.ndarray:
    """The unmoderated optimum x + e/(2c): trend pull balanced against cost."""
    return u.x + e.e / (2.0 * u.c)


def project_hyperplane(z, f: LinearModerator) -> np.ndarray:
    """L2 projection of ``z`` (d,) or of its rows (k, d) onto {w.z + b = 0}."""
    z = np.asarray(z, dtype=np.float64)
    return z - ((z @ f.w + f.b) / np.dot(f.w, f.w))[..., None] * f.w


def best_response(u: UserProfile, e: Trend,
                  f: LinearModerator | TrivialModerator) -> BestResponseResult:
    """Utility-maximizing rewrite of ``u.x`` against moderator ``f``: a
    one-row :func:`best_responses` call.

    The utility is the trend alignment z*.e, earned unless the user stays
    filtered, minus the movement cost c |z* - x|^2.
    """
    Z, cases = best_responses(Population(u.x[None, :], np.array([u.c]), e), f)
    z, case = Z[0], ResponseCase(cases[0])
    filtered = case is ResponseCase.STAY_FILTERED
    gain = 0.0 if filtered else float(np.dot(z, e.e))
    return BestResponseResult(z, case, filtered, gain - u.c * float(np.dot(z - u.x, z - u.x)))


def best_responses(pop: Population,
                   f: LinearModerator | TrivialModerator) -> tuple[np.ndarray, np.ndarray]:
    """Every user's utility-maximizing rewrite in one array pass: z* (n, d)
    and each user's :class:`ResponseCase` code (n,).

    Three regimes: the ideal point is benign and taken as-is; the ideal point
    is filtered but the origin is benign, so the user settles for the
    boundary projection of the ideal point; or both are filtered, and the
    user crosses to the boundary only when doing so beats the zero utility of
    staying put (ties break to staying). ``f`` is a halfspace or
    :data:`TRIVIAL`; only users whose ideal point is filtered are projected,
    all in one :func:`project_hyperplane` call.
    """
    _require_same_dimension(pop, f)
    X, costs, e = pop.feature_matrix, pop.costs, pop.trend.e
    Z = X + e / (2.0 * costs)[:, None]
    cases = np.full(pop.n, ResponseCase.UNCONSTRAINED, dtype=np.int8)
    out = f.score_many(Z) > BENIGN_TOL
    if not np.any(out):
        return Z, cases
    P = project_hyperplane(Z[out], f)
    Xo = X[out]
    utility_p = P @ e - costs[out] * np.sum((P - Xo) ** 2, axis=1)
    origin_benign = f.score_many(Xo) <= BENIGN_TOL
    stay = ~origin_benign & ~(utility_p > 0.0)
    cases[out] = np.select(
        [origin_benign, stay], [ResponseCase.PROJECTED, ResponseCase.STAY_FILTERED],
        ResponseCase.CROSS_TO_BOUNDARY,
    )
    Z[out] = np.where(stay[:, None], Xo, P)
    return Z, cases
