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

import math
from collections import namedtuple
from collections.abc import Mapping

ACTOR_TYPES = ("person", "organisation", "geopolitical-entity")


#: A set of (feature_name, feature_value) pairs describing one entity.
#: Multiple values per feature name are allowed; exact duplicates are not
#: (the frozenset collapses them).
FeatureSet = namedtuple("FeatureSet", "pairs", defaults=(frozenset(),))


class BalanceVector(namedtuple("BalanceVector", "shares")):
    """Frequency shares p_i per entity id; shares sum to 1 unless empty."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for entity_id, p in self.shares.items():
            if p < 0:
                raise ValueError(f"negative share for {entity_id!r}: {p}")
        if self.shares:
            total = sum(self.shares.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"shares sum to {total}, expected 1")
        return self

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self.shares)


#: Symmetric pairwise dissimilarities in [0, 1] with zero diagonal. Each id
#: maps to a point, and ids sharing a point (equal feature sets) are at
#: distance 0. The table holds the upper triangle over the points, either
#: as explicit tails (row g lists d_gh for the points h > g, so d_gh is
#: table[g][h - g - 1]) or, from `compute_disparity`, as each point's mask
#: and size, from which d_gh follows.
DisparityMatrix = namedtuple("DisparityMatrix", "ids point table")

#: Each point's bitmask of feature pairs and its count of them.
_Masks = namedtuple("_Masks", "masks sizes")


class DiversityParams(namedtuple("DiversityParams", "alpha beta", defaults=(1.0, 1.0))):
    """Exponents weighting disparity (alpha) and balance (beta)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # written so that nan fails too
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError("alpha and beta must be finite and non-negative")
        return self


DiversityResult = namedtuple("DiversityResult", "delta variety balance")


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


def compute_disparity(features: Mapping[str, FeatureSet]) -> DisparityMatrix:
    """Pairwise Jaccard distances over each id's feature set.

    Ids with equal feature sets share one point, so the distance runs once
    per pair of distinct feature sets: 1 - |a & b| / |a | b| over the
    feature pairs, with |a & b| counted as the set bits of the two points'
    masks (one bit per distinct pair). Points are distinct sets, so at
    most one is empty, and an empty set is at distance 1 from every other.
    Only the masks and sizes are kept, so memory stays linear in the
    points; `stirling_delta` computes each d_gh^alpha from them.
    """
    index: dict[FeatureSet, int] = {}
    point = {i: index.setdefault(f, len(index)) for i, f in features.items()}
    bit: dict[tuple[str, str], int] = {}
    masks = []
    for f in index:
        mask = 0
        for pair in f.pairs:
            mask |= 1 << bit.setdefault(pair, len(bit))
        masks.append(mask)
    sizes = [len(f.pairs) for f in index]
    return DisparityMatrix(tuple(features), point, _Masks(masks, sizes))


#: for the alpha last used, d^alpha = (1 - s / (a + b - s))^alpha of two points of sizes
#: a and b sharing s pairs, as table[a + b][s], made when first needed and never more than
#: once per pair; a sum that no pair has needed yet holds _UNUSED, which stays empty
_powers: tuple[float, list[dict[int, float]]] = (1.0, [])
_UNUSED: dict[int, float] = {}


def _power_table(alpha: float, most: int) -> list[dict[int, float]]:
    """alpha's lookup table, with an entry for each sum of two sizes up to `most`."""
    global _powers
    # one read of both, so that the table is alpha's whatever other threads set
    kept, table = _powers
    if kept != alpha:
        table = []
        _powers = (alpha, table)
    table.extend([_UNUSED] * (2 * most + 1 - len(table)))
    return table


def _power(table: list[dict[int, float]], total: int, shared: int, alpha: float) -> float:
    """d^alpha of two sizes adding up to `total` that share `shared` pairs, kept in table."""
    if table[total] is _UNUSED:
        table[total] = {}
    table[total][shared] = power = (1.0 - shared / (total - shared)) ** alpha
    return power


def stirling_delta(
    balance: BalanceVector,
    disparity: DisparityMatrix,
    params: DiversityParams = DiversityParams(),
) -> DiversityResult:
    """Diversity as the sum over ordered pairs i != j of d_ij^alpha * (p_i p_j)^beta.

    Pairs with zero disparity contribute 0 for every alpha (this pins the
    0^0 case: identical entities never add diversity). A set of at most one
    entity has diversity 0.

    The sum is computed as 2 * sum over point pairs g < h with d_gh > 0 of
    d_gh^alpha * Q_g * Q_h, row by row with h ascending, where Q_g adds up
    p_i^beta over the ids of point g in the matrix's id order, so the order
    of the balance's keys does not matter. Over a `compute_disparity`
    matrix, whose distinct points are never at distance 0, each d^alpha is
    looked up by the sum of the two sizes and the shared count in a table
    kept for the alpha last used. Explicit rows are read as given. Both
    give the same bits for the same distances.
    """
    if set(balance.ids) != set(disparity.ids):
        raise ValueError("balance and disparity cover different entity ids")
    table, point, shares = disparity.table, disparity.point, balance.shares
    by_masks = isinstance(table, _Masks)
    weights = [0.0] * len(table.masks if by_masks else table)
    for i in point:
        weights[point[i]] += shares[i] ** params.beta
    delta, alpha = 0.0, params.alpha
    if by_masks:
        powers = _power_table(alpha, max(table.sizes, default=0))
        points = list(zip(table.masks, table.sizes, weights))
        for g, (mask_g, size_g, weight_g) in enumerate(points):
            # power[size_h] is table[size_g + size_h] as the row began
            power = powers[size_g:]
            row_sum = 0.0
            for mask_h, size_h, weight_h in points[g + 1 :]:
                shared = (mask_g & mask_h).bit_count()
                try:
                    row_sum += power[size_h][shared] * weight_h
                except KeyError:
                    row_sum += _power(powers, size_g + size_h, shared, alpha) * weight_h
            delta += weight_g * row_sum
    else:
        for g, row in enumerate(table):
            row_sum = 0.0
            for d, weight_h in zip(row, weights[g + 1 :]):
                if d != 0.0:
                    row_sum += d**alpha * weight_h
            delta += weights[g] * row_sum
    return DiversityResult(delta=2.0 * delta, variety=len(shares), balance=balance)
