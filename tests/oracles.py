"""Reference computations that tests compare the package against.

They are written for plainness, not speed: the Jaccard distance of two
feature sets, the Gini–Simpson index, the ordered-pair loop of Stirling's
Δ, a disparity matrix from explicit pair values, and the inverse of a
figure panel's y-transform.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from kgdiv.diversity import BalanceVector, DisparityMatrix, DiversityParams, FeatureSet
from kgdiv.report import PANEL_HEIGHT


def jaccard_distance(a: FeatureSet, b: FeatureSet) -> float:
    """Jaccard complement over feature pairs.

    Two empty sets are indistinguishable (0); an empty set against a
    nonempty one is maximally distant (1).
    """
    if not a.pairs and not b.pairs:
        return 0.0
    shared = len(a.pairs & b.pairs)
    return 1.0 - shared / (len(a.pairs) + len(b.pairs) - shared)


def gini_simpson(balance: BalanceVector) -> float:
    """1 minus the sum of squared shares; the alpha=0, beta=1 reduction."""
    return 1.0 - sum(p * p for p in balance.shares.values())


def disparity_value(matrix: DisparityMatrix, i: str, j: str) -> float:
    """d_ij looked up through the ids' points (0 on the diagonal)."""
    return matrix.table[matrix.point[i]][matrix.point[j]]


def pair_terms(
    balance: BalanceVector,
    matrix: DisparityMatrix,
    params: DiversityParams = DiversityParams(),
) -> dict[tuple[str, str], float]:
    """Every ordered pair i != j with its term d_ij^alpha * (p_i p_j)^beta,
    where a zero disparity gives a zero term for every alpha."""
    terms = {}
    for i, p_i in balance.shares.items():
        for j, p_j in balance.shares.items():
            if i == j:
                continue
            d = disparity_value(matrix, i, j)
            terms[(i, j)] = 0.0 if d == 0.0 else d**params.alpha * (p_i * p_j) ** params.beta
    return terms


def explicit_matrix(
    ids: Sequence[str], values: Mapping[tuple[str, str], float]
) -> DisparityMatrix:
    """A matrix in which every id is its own point, with values keyed by
    unordered id pairs (either orientation); missing pairs are 0."""
    ids = tuple(ids)
    point = {entity_id: g for g, entity_id in enumerate(ids)}
    table = [[0.0] * len(ids) for _ in ids]
    for (i, j), d in values.items():
        if i not in point or j not in point:
            raise ValueError(f"pair ({i!r}, {j!r}) references unknown entity id")
        if i == j and d != 0:
            raise ValueError(f"diagonal entry d({i!r},{i!r}) must be 0, got {d}")
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"disparity d({i!r},{j!r}) = {d} outside [0, 1]")
        table[point[i]][point[j]] = table[point[j]][point[i]] = d
    return DisparityMatrix(ids, point, table)


def share_from_pixel(y_pixel: float, panel_top: float, y_max: float) -> float:
    """Invert the panel y-transform; the declared axis contract."""
    return (panel_top + PANEL_HEIGHT - y_pixel) / PANEL_HEIGHT * y_max
