"""Stirling-style actor diversity: variety, balance, disparity.

The diversity of a set of entities is computed as a sum over ordered pairs
of entities, weighting the pairwise dissimilarity (disparity) against the
product of the entities' frequency shares (balance). Variety is the number
of distinct entities present.

Since (p_i p_j)^beta = p_i^beta p_j^beta, the sum is the quadratic form
q^T D_alpha q over the distinct feature sets ("points"): entities with equal
features are merged into one point whose weight q_g sums their p_i^beta.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

ACTOR_TYPES = ("person", "organisation", "geopolitical-entity")


@dataclass(frozen=True)
class FeatureSet:
    """A set of (feature_name, feature_value) pairs describing one entity.

    Multiple values per feature name are allowed; exact duplicates are not
    (the frozenset collapses them).
    """

    pairs: frozenset[tuple[str, str]] = frozenset()

    @classmethod
    def of(cls, *pairs: tuple[str, str]) -> "FeatureSet":
        return cls(frozenset(pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)


@dataclass(frozen=True)
class EntityRecord:
    """A recognized actor with its enriched features."""

    id: str
    label: str
    actor_type: str
    features: FeatureSet = field(default_factory=FeatureSet)

    def __post_init__(self) -> None:
        if self.actor_type not in ACTOR_TYPES:
            raise ValueError(
                f"actor_type must be one of {ACTOR_TYPES}, got {self.actor_type!r}"
            )


@dataclass(frozen=True)
class BalanceVector:
    """Frequency shares p_i per entity id; shares sum to 1 unless empty."""

    shares: Mapping[str, float]

    def __post_init__(self) -> None:
        for entity_id, p in self.shares.items():
            if p < 0:
                raise ValueError(f"negative share for {entity_id!r}: {p}")
        if self.shares:
            total = sum(self.shares.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"shares sum to {total}, expected 1")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self.shares)

    def __len__(self) -> int:
        return len(self.shares)


class DisparityMatrix:
    """Symmetric pairwise dissimilarities in [0, 1] with zero diagonal.

    Each id maps to a point; the values live in a table over the points, so
    ids sharing a point (equal feature sets) are at distance 0.
    """

    def __init__(self, ids: Sequence[str], values: Mapping[tuple[str, str], float]):
        """Build from values keyed by unordered id pairs (either orientation).

        Missing pairs default to 0. Diagonal entries must be absent or 0.
        Every id gets a point of its own.
        """
        ids = tuple(ids)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate entity ids in disparity matrix")
        point = {entity_id: g for g, entity_id in enumerate(ids)}
        store: dict[frozenset[str], float] = {}
        for (i, j), d in values.items():
            if i not in point or j not in point:
                raise ValueError(f"pair ({i!r}, {j!r}) references unknown entity id")
            if i == j:
                if d != 0:
                    raise ValueError(f"diagonal entry d({i!r},{i!r}) must be 0, got {d}")
                continue
            if not 0.0 <= d <= 1.0:
                raise ValueError(f"disparity d({i!r},{j!r}) = {d} outside [0, 1]")
            key = frozenset((i, j))
            if key in store and store[key] != d:
                raise ValueError(f"conflicting values for pair ({i!r}, {j!r})")
            store[key] = d
        table = [[0.0] * len(ids) for _ in ids]
        for key, d in store.items():
            g, h = (point[i] for i in key)
            table[g][h] = table[h][g] = d
        self._ids = ids
        self._point = point
        self._table = table

    @classmethod
    def _from_points(
        cls, ids: tuple[str, ...], point: dict[str, int], table: list[list[float]]
    ) -> "DisparityMatrix":
        """Wrap an id -> point map and a symmetric table over the points."""
        matrix = cls.__new__(cls)
        matrix._ids = ids
        matrix._point = point
        matrix._table = table
        return matrix

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    def value(self, i: str, j: str) -> float:
        if i == j or i not in self._point or j not in self._point:
            return 0.0
        return self._table[self._point[i]][self._point[j]]

    def with_value(self, i: str, j: str, d: float) -> "DisparityMatrix":
        """Return a copy with one off-diagonal pair replaced."""
        values = {
            (a, b): self.value(a, b) for a, b in itertools.combinations(self._ids, 2)
        }
        values.pop((j, i), None)
        values[(i, j)] = d
        return DisparityMatrix(self._ids, values)


@dataclass(frozen=True)
class DiversityParams:
    """Exponents weighting disparity (alpha) and balance (beta)."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        # written so that nan fails too
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError("alpha and beta must be finite and non-negative")


@dataclass(frozen=True)
class DiversityResult:
    delta: float
    variety: int
    balance: BalanceVector
    per_pair_terms: Mapping[tuple[str, str], float] | None = None


def jaccard_distance(a: FeatureSet, b: FeatureSet) -> float:
    """Jaccard complement over feature pairs.

    Two empty sets are indistinguishable (0); an empty set against a
    nonempty one is maximally distant (1).
    """
    if not a.pairs and not b.pairs:
        return 0.0
    shared = len(a.pairs & b.pairs)
    return 1.0 - shared / (len(a.pairs) + len(b.pairs) - shared)


def compute_balance(counts: Mapping[str, int]) -> BalanceVector:
    """Normalize occurrence counts into frequency shares."""
    if not counts:
        return BalanceVector({})
    for entity_id, c in counts.items():
        if c < 0:
            raise ValueError(f"negative count for {entity_id!r}: {c}")
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no occurrences: all counts are zero")
    return BalanceVector({entity_id: c / total for entity_id, c in counts.items()})


def compute_disparity(entities: Sequence[EntityRecord]) -> DisparityMatrix:
    """Pairwise Jaccard distances over the entities' feature sets.

    Entities with equal feature sets share one point, so the distance runs
    once per pair of distinct feature sets.
    """
    ids = tuple(e.id for e in entities)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate entity ids")
    index: dict[FeatureSet, int] = {}
    point = {e.id: index.setdefault(e.features, len(index)) for e in entities}
    features = list(index)
    table = [[0.0] * len(features) for _ in features]
    for g, a in enumerate(features):
        for h in range(g + 1, len(features)):
            d = jaccard_distance(a, features[h])
            if not 0.0 <= d <= 1.0:
                i, j = (next(k for k, x in point.items() if x == y) for y in (g, h))
                raise ValueError(f"disparity d({i!r},{j!r}) = {d} outside [0, 1]")
            table[g][h] = table[h][g] = d
    return DisparityMatrix._from_points(ids, point, table)


def stirling_delta(
    balance: BalanceVector,
    disparity: DisparityMatrix,
    params: DiversityParams = DiversityParams(),
    keep_terms: bool = False,
) -> DiversityResult:
    """Diversity as the sum over ordered pairs i != j of d_ij^alpha * (p_i p_j)^beta.

    Pairs with zero disparity contribute 0 for every alpha (this pins the
    0^0 case: identical entities never add diversity). A set of at most one
    entity has diversity 0.

    The sum is computed as 2 * sum over point pairs g < h with d_gh > 0 of
    d_gh^alpha * Q_g * Q_h, where Q_g sums p_i^beta over the ids of point g.
    With keep_terms, it is computed pair by pair and every ordered pair's
    term is kept.
    """
    if set(balance.ids) != set(disparity.ids):
        raise ValueError("balance and disparity cover different entity ids")
    if keep_terms:
        return _stirling_delta_terms(balance, disparity, params)
    table = disparity._table
    weights = [0.0] * len(table)
    for i, p_i in balance.shares.items():
        weights[disparity._point[i]] += p_i**params.beta
    alpha = params.alpha
    delta = 0.0
    for g, row in enumerate(table):
        row_sum = 0.0
        for h in range(g + 1, len(row)):
            d = row[h]
            if d != 0.0:
                row_sum += d**alpha * weights[h]
        delta += weights[g] * row_sum
    return DiversityResult(delta=2.0 * delta, variety=len(balance), balance=balance)


def _stirling_delta_terms(
    balance: BalanceVector, disparity: DisparityMatrix, params: DiversityParams
) -> DiversityResult:
    """The per-pair reference loop of stirling_delta, keeping every term."""
    ids = balance.ids
    terms: dict[tuple[str, str], float] = {}
    delta = 0.0
    if len(ids) > 1:
        for i in ids:
            p_i = balance.shares[i]
            for j in ids:
                if i == j:
                    continue
                d = disparity.value(i, j)
                if d == 0.0:
                    term = 0.0
                else:
                    term = d**params.alpha * (p_i * balance.shares[j]) ** params.beta
                delta += term
                terms[(i, j)] = term
    return DiversityResult(
        delta=delta, variety=len(ids), balance=balance, per_pair_terms=terms
    )


def gini_simpson(balance: BalanceVector) -> float:
    """1 minus the sum of squared shares; the alpha=0, beta=1 reduction."""
    return 1.0 - sum(p * p for p in balance.shares.values())
