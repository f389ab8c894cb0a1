"""Unit and property tests for the Stirling diversity measure."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdiv import diversity
from kgdiv.diversity import (
    BalanceVector,
    DisparityMatrix,
    DiversityParams,
    FeatureSet,
    compute_balance,
    compute_disparity,
    stirling_delta,
)
from tests.oracles import (
    disparity_value,
    explicit_matrix,
    gini_simpson,
    jaccard_distance,
    pair_terms,
    tail_rows,
    two_pass_delta,
)


def features(*pairs):
    return FeatureSet(frozenset(pairs))


def random_instance(rng, max_n=8):
    n = rng.randint(1, max_n)
    ids = [f"e{k}" for k in range(n)]
    raw = [rng.random() + 1e-6 for _ in ids]
    total = sum(raw)
    shares = {i: w / total for i, w in zip(ids, raw)}
    values = {}
    for a, b in itertools.combinations(ids, 2):
        # mix in exact zeros to exercise the zero-disparity convention
        values[(a, b)] = 0.0 if rng.random() < 0.2 else rng.random()
    return BalanceVector(shares), explicit_matrix(ids, values)


class TestComputeBalance:
    def test_direct_normalization(self):
        bv = compute_balance({"A": 3, "B": 1})
        assert bv.shares == {"A": 0.75, "B": 0.25}

    def test_singleton(self):
        assert compute_balance({"A": 5}).shares == {"A": 1.0}

    def test_uniform(self):
        bv = compute_balance({"A": 2, "B": 2, "C": 2})
        for p in bv.shares.values():
            assert p == pytest.approx(1 / 3)

    def test_empty_map(self):
        assert compute_balance({}).shares == {}

    def test_all_zero_counts_rejected(self):
        with pytest.raises(ValueError, match="no occurrences"):
            compute_balance({"A": 0, "B": 0})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            compute_balance({"A": -1})


class TestJaccard:
    def test_identical_sets(self):
        f = features(("a", "1"), ("b", "2"))
        assert jaccard_distance(f, f) == 0.0

    def test_disjoint_nonempty(self):
        a = features(("a", "1"))
        b = features(("b", "2"))
        assert jaccard_distance(a, b) == 1.0

    def test_partial_overlap(self):
        # oracle: plain set arithmetic on the raw pairs
        pa = {("a", "1"), ("b", "1"), ("c", "1")}
        pb = {("b", "1"), ("c", "1"), ("d", "1")}
        expected = 1 - len(pa & pb) / len(pa | pb)
        assert expected == 0.5
        assert jaccard_distance(FeatureSet(frozenset(pa)), FeatureSet(frozenset(pb))) == expected

    def test_both_empty(self):
        assert jaccard_distance(FeatureSet(), FeatureSet()) == 0.0

    def test_one_empty(self):
        assert jaccard_distance(FeatureSet(), features(("a", "1"))) == 1.0


class TestComputeDisparity:
    def test_matrix_invariants(self):
        m = compute_disparity(
            {
                "x": features(("p", "1")),
                "y": features(("p", "1"), ("q", "2")),
                "z": FeatureSet(),
            }
        )
        assert m.ids == ("x", "y", "z")
        for i in m.ids:
            assert disparity_value(m, i, i) == 0.0
            for j in m.ids:
                assert disparity_value(m, i, j) == disparity_value(m, j, i)
                assert 0.0 <= disparity_value(m, i, j) <= 1.0


class TestStirlingDelta:
    def test_single_entity_is_zero(self):
        bv = BalanceVector({"A": 1.0})
        m = explicit_matrix(["A"], {})
        for alpha, beta in [(0, 0), (1, 1), (2.5, 0.5)]:
            res = stirling_delta(bv, m, DiversityParams(alpha, beta))
            assert res.delta == 0.0
            assert res.variety == 1

    def test_two_entities_hand_value(self):
        bv = BalanceVector({"A": 0.5, "B": 0.5})
        m = explicit_matrix(["A", "B"], {("A", "B"): 1.0})
        res = stirling_delta(bv, m)
        assert res.delta == pytest.approx(0.5, abs=1e-15)

    def test_gini_simpson_reduction_hand_value(self):
        bv = BalanceVector({"A": 0.5, "B": 0.3, "C": 0.2})
        m = explicit_matrix(
            ["A", "B", "C"],
            {("A", "B"): 0.4, ("A", "C"): 0.9, ("B", "C"): 0.1},
        )
        res = stirling_delta(bv, m, DiversityParams(alpha=0.0, beta=1.0))
        # independent cross-check: 1 - sum of squares = 0.62
        assert res.delta == pytest.approx(1 - (0.25 + 0.09 + 0.04), abs=1e-12)
        assert res.delta == pytest.approx(0.62, abs=1e-12)

    def test_id_set_mismatch(self):
        bv = BalanceVector({"A": 1.0})
        m = explicit_matrix(["B"], {})
        with pytest.raises(ValueError, match="different entity ids"):
            stirling_delta(bv, m)

    def test_per_pair_terms(self):
        bv = BalanceVector({"A": 0.5, "B": 0.5})
        m = explicit_matrix(["A", "B"], {("A", "B"): 0.8})
        assert pair_terms(bv, m) == {
            ("A", "B"): pytest.approx(0.2),
            ("B", "A"): pytest.approx(0.2),
        }
        assert stirling_delta(bv, m).delta == pytest.approx(0.4)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            bv, m = random_instance(rng)
            alpha, beta = rng.uniform(0, 3), rng.uniform(0, 3)
            expected = sum(pair_terms(bv, m, DiversityParams(alpha, beta)).values())
            got = stirling_delta(bv, m, DiversityParams(alpha, beta)).delta
            assert got == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_disparity(self):
        bv = BalanceVector({"A": 0.5, "B": 0.3, "C": 0.2})
        values = {("A", "B"): 0.3, ("A", "C"): 0.5, ("B", "C"): 0.2}
        base = stirling_delta(bv, explicit_matrix(["A", "B", "C"], values)).delta
        values[("A", "B")] = 0.6
        bumped = stirling_delta(bv, explicit_matrix(["A", "B", "C"], values)).delta
        assert bumped > base

    def test_uniform_balance_maximizes_delta(self):
        # grid search over 3-entity balance vectors with all-ones disparity
        ids = ["A", "B", "C"]
        m = explicit_matrix(ids, {("A", "B"): 1.0, ("A", "C"): 1.0, ("B", "C"): 1.0})
        best, best_shares = -1.0, None
        steps = 20
        for a in range(steps + 1):
            for b in range(steps + 1 - a):
                c = steps - a - b
                shares = {"A": a / steps, "B": b / steps, "C": c / steps}
                d = stirling_delta(BalanceVector(shares), m).delta
                if d > best:
                    best, best_shares = d, shares
        uniform = stirling_delta(
            BalanceVector({i: 1 / 3 for i in ids}), m
        ).delta
        # 1/3 is not a grid point, so the uniform vector must dominate the grid
        assert uniform >= best - 1e-12
        for p in best_shares.values():
            assert p == pytest.approx(1 / 3, abs=0.051)


@st.composite
def balance_vectors(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    raw = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n
        )
    )
    total = sum(raw)
    return BalanceVector({f"e{k}": w / total for k, w in enumerate(raw)})


@given(balance_vectors())
@settings(max_examples=150)
def test_property_gini_reduction(bv):
    ids = list(bv.ids)
    values = {
        (a, b): 0.25 + 0.75 * ((hash((a, b)) % 97) / 97)
        for a, b in itertools.combinations(ids, 2)
    }
    m = explicit_matrix(ids, values)
    res = stirling_delta(bv, m, DiversityParams(alpha=0.0, beta=1.0))
    assert res.delta == pytest.approx(gini_simpson(bv), abs=1e-12)


@given(balance_vectors(max_n=6), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_property_permutation_invariance(bv, rng):
    ids = list(bv.ids)
    values = {
        (a, b): rng.random() for a, b in itertools.combinations(ids, 2)
    }
    m = explicit_matrix(ids, values)
    baseline = stirling_delta(bv, m).delta

    shuffled = list(ids)
    rng.shuffle(shuffled)
    bv2 = BalanceVector({i: bv.shares[i] for i in shuffled})
    m2 = explicit_matrix(shuffled, values)
    assert stirling_delta(bv2, m2).delta == pytest.approx(baseline, abs=1e-12)


def test_gini_simpson_values():
    assert gini_simpson(BalanceVector({"A": 0.5, "B": 0.5})) == pytest.approx(0.5)
    assert gini_simpson(BalanceVector({"A": 1.0})) == 0.0
    assert gini_simpson(
        BalanceVector({"A": 0.5, "B": 0.3, "C": 0.2})
    ) == pytest.approx(0.62)


def test_params_validation():
    for bad in (-0.1, -1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and non-negative"):
            DiversityParams(alpha=bad)
        with pytest.raises(ValueError, match="finite and non-negative"):
            DiversityParams(beta=bad)


def test_balance_vector_validation():
    with pytest.raises(ValueError, match="sum"):
        BalanceVector({"A": 0.5, "B": 0.4})
    with pytest.raises(ValueError, match="negative"):
        BalanceVector({"A": 1.5, "B": -0.5})


def test_disparity_matrix_validation():
    with pytest.raises(ValueError, match="outside"):
        explicit_matrix(["A", "B"], {("A", "B"): 1.5})
    with pytest.raises(ValueError, match="diagonal"):
        explicit_matrix(["A"], {("A", "A"): 0.2})
    with pytest.raises(ValueError, match="unknown entity"):
        explicit_matrix(["A"], {("A", "B"): 0.2})


def test_an_id_given_twice_in_the_ids_is_weighed_once():
    balance = compute_balance({"A": 1, "B": 3})
    m = explicit_matrix(["A", "B"], {("A", "B"): 0.5})
    twice = DisparityMatrix(("A", "B", "A"), m.point, m.table)
    assert stirling_delta(balance, twice).delta == stirling_delta(balance, m).delta == 0.1875


FEATURE_POOL = [
    ("party", "a"),
    ("party", "b"),
    ("ideology", "x"),
    ("country", "c"),
    ("country", "d"),
]


@st.composite
def scored_entities(draw, max_n=10):
    """Entities over a few feature sets (always including the empty one, so
    that sets repeat) with random counts, at least one of them positive."""
    feature_sets = draw(
        st.lists(
            st.frozensets(st.sampled_from(FEATURE_POOL), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        )
    ) + [frozenset()]
    n = draw(st.integers(min_value=1, max_value=max_n))
    entities = {f"e{k}": FeatureSet(draw(st.sampled_from(feature_sets))) for k in range(n)}
    counts = {i: draw(st.integers(min_value=0, max_value=5)) for i in entities}
    counts["e0"] = draw(st.integers(min_value=1, max_value=5))
    return entities, counts


EXPONENTS = st.sampled_from([0.0, 0.5, 1.0, 2.0])


def assert_grouped_equals_pair_terms(bv, m, alpha, beta):
    """The grouped quadratic form against the per-pair reference loop."""
    params = DiversityParams(alpha, beta)
    assert stirling_delta(bv, m, params).delta == pytest.approx(
        sum(pair_terms(bv, m, params).values()), abs=1e-12
    )


@given(scored_entities())
@settings(max_examples=150)
def test_property_grouped_disparity_is_jaccard(drawn):
    entities, _ = drawn
    m = compute_disparity(entities)
    for a, fa in entities.items():
        for b, fb in entities.items():
            assert disparity_value(m, a, b) == jaccard_distance(fa, fb)


@given(
    st.lists(
        st.frozensets(st.integers(min_value=0, max_value=199), max_size=40),
        max_size=8,
    )
)
@settings(max_examples=150)
def test_property_disparity_over_masks_wider_than_a_word(drawn):
    # the first entity alone has 70 distinct feature pairs, so the masks
    # run past 64 bits; the last has none
    sets = [frozenset(range(70)), *drawn, frozenset()]
    entities = {
        f"e{k}": FeatureSet(frozenset(("f", str(v)) for v in values))
        for k, values in enumerate(sets)
    }
    m = compute_disparity(entities)
    for a, fa in entities.items():
        for b, fb in entities.items():
            assert disparity_value(m, a, b) == jaccard_distance(fa, fb)


@given(scored_entities(), EXPONENTS, EXPONENTS)
@settings(max_examples=300)
def test_property_grouped_delta_matches_pair_terms(drawn, alpha, beta):
    entities, counts = drawn
    assert_grouped_equals_pair_terms(
        compute_balance(counts), compute_disparity(entities), alpha, beta
    )


@given(st.randoms(use_true_random=False), EXPONENTS, EXPONENTS)
@settings(max_examples=150)
def test_property_zero_disparity_pinned_in_grouped_delta(rng, alpha, beta):
    # explicit matrices hold zeros between distinct ids, which alpha = 0
    # would turn into 0^0 = 1 without the pin
    assert_grouped_equals_pair_terms(*random_instance(rng), alpha, beta)


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=3),
        st.frozensets(st.tuples(st.sampled_from("abc"), st.sampled_from("xyz")), max_size=6),
        min_size=1,
        max_size=12,
    ),
    st.data(),
    EXPONENTS,
    EXPONENTS,
)
@settings(max_examples=200)
def test_property_computed_rows_match_the_oracles(raw, data, alpha, beta):
    entities = {i: FeatureSet(pairs) for i, pairs in raw.items()}
    counts = {i: data.draw(st.integers(min_value=1, max_value=5)) for i in entities}
    m = compute_disparity(entities)
    for a, fa in entities.items():
        for b, fb in entities.items():
            assert disparity_value(m, a, b) == jaccard_distance(fa, fb)
    assert_grouped_equals_pair_terms(compute_balance(counts), m, alpha, beta)


DELTA_POOL = [("f", str(k)) for k in range(70)]


@st.composite
def delta_instances(draw):
    """0 to 60 entities, each with the set of an earlier one, a prefix of
    one order of 70 pairs (so nested sets, and masks past 64 bits), or a
    set of the first 20 pairs. Every set but the whole order has one of up
    to three sizes, so the points are often many of few sizes, and sets
    repeat, so a point often holds several ids."""
    chain = draw(st.permutations(DELTA_POOL))
    sizes = draw(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=3))
    sets: list[frozenset] = []
    for _ in range(draw(st.integers(min_value=0, max_value=60))):
        kind = draw(st.sampled_from(["earlier", "prefix", "sized", "sized", "sized"]))
        if kind == "earlier" and sets:
            sets.append(draw(st.sampled_from(sets)))
        elif kind == "prefix":
            sets.append(frozenset(chain[: draw(st.sampled_from([*sizes, 70]))]))
        else:
            size = draw(st.sampled_from(sizes))
            sets.append(frozenset(draw(st.permutations(DELTA_POOL[:20]))[:size]))
    counts = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=len(sets), max_size=len(sets)))
    entities = {f"e{k}": FeatureSet(f) for k, f in enumerate(sets)}
    return entities, dict(zip(entities, counts))


DELTA_ALPHAS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 1.7])


@given(delta_instances(), DELTA_ALPHAS, EXPONENTS)
@settings(max_examples=200, deadline=None)
def test_property_delta_equals_the_two_pass_delta_exactly(drawn, alpha, beta):
    entities, counts = drawn
    balance, m = compute_balance(counts), compute_disparity(entities)
    params = DiversityParams(alpha, beta)
    delta = stirling_delta(balance, m, params).delta
    assert delta == two_pass_delta(balance, m, params)
    # the same rows given explicitly take the row loop, to the same bits
    rows = DisparityMatrix(m.ids, m.point, tail_rows(m))
    assert stirling_delta(balance, rows, params).delta == delta


@given(delta_instances(), DELTA_ALPHAS, EXPONENTS, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_property_delta_does_not_depend_on_the_order_of_the_counts(drawn, alpha, beta, rng):
    # the shares of a point's ids are added up in the matrix's id order,
    # so shuffling the balance's keys leaves every bit of Δ
    entities, counts = drawn
    m, params = compute_disparity(entities), DiversityParams(alpha, beta)
    balance = compute_balance(counts)
    keys = list(counts)
    rng.shuffle(keys)
    shuffled = BalanceVector({i: balance.shares[i] for i in keys})
    delta = stirling_delta(balance, m, params).delta
    assert stirling_delta(shuffled, m, params).delta == delta


@given(st.randoms(use_true_random=False), DELTA_ALPHAS, EXPONENTS)
@settings(max_examples=150)
def test_property_explicit_rows_give_the_two_pass_delta_exactly(rng, alpha, beta):
    balance, m = random_instance(rng, max_n=12)
    params = DiversityParams(alpha, beta)
    assert stirling_delta(balance, m, params).delta == two_pass_delta(balance, m, params)


def test_few_large_points_compute_one_power_per_pair():
    # points of 300, 301, 450 and 451 pairs, the k-th sharing k pairs with
    # every later one: the lookup table computes one d^alpha per sum of two
    # sizes and shared count met, 6 here for 6 pairs, where a list over
    # every count up to the smaller size for each ordered pair of sizes
    # would compute 5,418; an alpha no other test uses starts a fresh table
    common = [("c", str(k)) for k in range(3)]
    entities = {
        f"e{k}": FeatureSet(frozenset(common[:k] + [(f"p{k}", str(j)) for j in range(size - k)]))
        for k, size in enumerate([300, 301, 450, 451])
    }
    balance, m = compute_balance({"e0": 1, "e1": 2, "e2": 3, "e3": 4}), compute_disparity(entities)
    params = DiversityParams(alpha=0.3125)
    tracemalloc.start()
    try:
        delta = stirling_delta(balance, m, params).delta
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert delta == two_pass_delta(balance, m, params)
    alpha, table = diversity._powers
    assert alpha == 0.3125
    assert sum(map(len, table)) == 6
    # the table's 903 entries, one per sum of two sizes, take 8 bytes each;
    # those 5,418 floats in lists would peak near 176 kB
    assert peak < 32_000


def test_disparity_and_delta_memory_is_linear_in_points():
    rng = random.Random(1)
    pool = [("f", str(k)) for k in range(40)]
    sets: set[frozenset] = set()
    while len(sets) < 1500:
        sets.add(frozenset(rng.sample(pool, rng.randint(1, 8))))
    entities = {f"e{k}": FeatureSet(f) for k, f in enumerate(sorted(sets, key=sorted))}
    balance = compute_balance({i: 1 + k % 3 for k, i in enumerate(entities)})
    tracemalloc.start()
    try:
        stirling_delta(balance, compute_disparity(entities))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a full table over n points holds n * n float references, 8 bytes each
    # (18 MB here, with the floats themselves 54 MB more); rows computed one
    # at a time peak near 0.5 MB, most of it the id and point dicts
    n = len(entities)
    assert peak < n * n * 8 / 20
