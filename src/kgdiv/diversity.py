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
from collections.abc import Mapping, Sequence

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
#: distance 0. The table holds the upper triangle over the points as tails:
#: row g lists d_gh for the points h > g, so d_gh is table[g][h - g - 1].
DisparityMatrix = namedtuple("DisparityMatrix", "ids point table")


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
    Only the masks and sizes are kept: each row of the table is computed
    when it is read, so memory stays linear in the points, and
    `stirling_delta` can read the masks and sizes instead of the rows.
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
    return DisparityMatrix(tuple(features), point, _TailRows(masks, sizes))


class _TailRows(Sequence):
    """The upper-triangle tails of a Jaccard disparity table: row g holds
    d_gh for the points h > g and is computed anew on each read."""

    __slots__ = ("masks", "sizes")

    def __init__(self, masks: list[int], sizes: list[int]):
        self.masks, self.sizes = masks, sizes

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, g: int) -> list[float]:
        g = range(len(self.masks))[g]  # IndexError past the end ends iteration
        mask_g, size_g = self.masks[g], self.sizes[g]
        return [
            1.0 - (shared := (mask_g & mask_h).bit_count()) / (size_g + size_h - shared)
            for mask_h, size_h in zip(self.masks[g + 1 :], self.sizes[g + 1 :])
        ]


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
    d_gh^alpha * Q_g * Q_h, where Q_g sums p_i^beta over the ids of point g,
    row by row with h ascending. Over a `compute_disparity` matrix of many
    points of few sizes, as of a document of many actors, it is one pass
    over the point pairs, each d^alpha looked up by the two sizes and the
    shared count. Other rows, computed or explicit, are read as given. Both
    give the same bits for the same distances.
    """
    if set(balance.ids) != set(disparity.ids):
        raise ValueError("balance and disparity cover different entity ids")
    table = disparity.table
    weights = [0.0] * len(table)
    for i, p_i in balance.shares.items():
        weights[disparity.point[i]] += p_i**params.beta
    alpha = params.alpha
    delta = 0.0
    sizes = table.sizes if isinstance(table, _TailRows) else ()
    present, n = set(sizes), len(sizes)
    # d_gh depends only on the two sizes and the shared count, so d^alpha can
    # be computed once per pair of sizes present and shared count, and looked
    # up. Each entry costs what a pair's d^alpha does, so the lookup is built
    # only where the pairs, about n^2 / 2, are twice the entries, of which
    # there are at least len(present)^2. A denominator is 0 only between two
    # empty sets, never two points
    if 2 * len(present) < n and 4 * sum(min(a, b) + 1 for a in present for b in present) < n * n:
        powers = {
            a: {
                b: [
                    0.0 if (d := 1.0 - s / ((a + b - s) or 1)) == 0.0 else d**alpha
                    for s in range(min(a, b) + 1)
                ]
                for b in present
            }
            for a in present
        }
        points = list(zip(table.masks, sizes, weights))
        for g, (mask_g, size_g, weight_g) in enumerate(points):
            power = powers[size_g]
            row_sum = 0.0
            for mask_h, size_h, weight_h in points[g + 1 :]:
                row_sum += power[size_h][(mask_g & mask_h).bit_count()] * weight_h
            delta += weight_g * row_sum
    else:
        for g, row in enumerate(table):
            row_sum = 0.0
            for d, weight_h in zip(row, weights[g + 1 :]):
                if d != 0.0:
                    row_sum += d**alpha * weight_h
            delta += weights[g] * row_sum
    return DiversityResult(delta=2.0 * delta, variety=len(balance.shares), balance=balance)
