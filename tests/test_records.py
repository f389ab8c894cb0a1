"""The records are named tuples: each checked one rejects a bad value
however it is constructed, and every one compares and unpacks as a tuple."""

from __future__ import annotations

import math
from datetime import date

import pytest

from kgdiv.audit import BaselineTable, ElectionResult, NormalizationMap, PartyRecord
from kgdiv.csvformat import AuditRow
from kgdiv.diversity import BalanceVector, DiversityParams
from kgdiv.pipeline import EntityMention, LocalOntology, MatchRule, load_rules
from kgdiv.report import FigureSpec
from kgdiv.sparql import EndpointConfig

_PARTY = PartyRecord("A", "left", "relevant")
_ELECTION = ElectionResult({"A": 3}, 10)

#: (record, a valid value for every field, {case: (bad fields, message)})
CHECKED = [
    (
        EndpointConfig,
        dict(
            url="http://localhost/sparql", dialect="wikidata", page_size=10,
            max_requests_per_second=1.0, retry_limit=0, timeout=5.0,
        ),
        {
            "dialect": ({"dialect": "mars"}, "unknown dialect"),
            "page_size": ({"page_size": 0}, "page_size must be >= 1"),
            "rate": ({"max_requests_per_second": math.nan}, "max_requests_per_second"),
            "timeout": ({"timeout": 0.0}, "timeout must be positive"),
            "retry_limit": ({"retry_limit": -1}, "retry_limit must be >= 0"),
        },
    ),
    (
        BalanceVector,
        dict(shares={"a": 0.25, "b": 0.75}),
        {
            "negative": ({"shares": {"a": -0.5, "b": 1.5}}, "negative share"),
            "sum": ({"shares": {"a": 0.5}}, "shares sum to"),
        },
    ),
    (
        DiversityParams,
        dict(alpha=1.0, beta=2.0),
        {
            "alpha": ({"alpha": -1.0}, "finite and non-negative"),
            "beta": ({"beta": math.inf}, "finite and non-negative"),
        },
    ),
    (
        PartyRecord,
        dict(canonical_acronym="A", alignment="left", relevance="relevant"),
        {
            "alignment": ({"alignment": "leftish"}, "alignment 'leftish'"),
            "relevance": ({"relevance": "maybe"}, "relevance 'maybe'"),
        },
    ),
    (
        NormalizationMap,
        dict(alias_to_canonical={"a": "A"}, canonical_to_party={"A": _PARTY}),
        {"alias": ({"alias_to_canonical": {"a": "B"}}, "unknown canonical party 'B'")},
    ),
    (
        ElectionResult,
        dict(seats={"A": 3}, total_seats=10),
        {
            "total": ({"total_seats": 0}, "total_seats must be positive"),
            "negative": ({"seats": {"A": -1}}, "negative seats"),
            "exceed": ({"seats": {"A": 11}}, "exceed total seats"),
        },
    ),
    (
        BaselineTable,
        dict(body="KVV", elections={date(2019, 5, 26): _ELECTION}),
        {"empty": ({"elections": {}}, "no elections")},
    ),
    (
        FigureSpec,
        dict(
            title="t", source_label="s", baseline_label="b", time_points=(),
            parties=(), active_counts={}, style="line",
        ),
        {
            "style": ({"style": "pie"}, "style must be one of"),
            "order": ({"time_points": (date(2020, 1, 1), date(2010, 1, 1))}, "sorted"),
        },
    ),
    (
        MatchRule,
        dict(pattern="Groen", case_sensitive=True, target_entity=""),
        {"empty": ({"pattern": ""}, "pattern must be nonempty")},
    ),
    (
        EntityMention,
        dict(
            doc_id="d", char_start=0, char_end=5, surface="Groen",
            resolved_id=None, provenance="rule",
        ),
        {"span": ({"char_end": 0}, "span must be non-empty")},
    ),
    (
        LocalOntology,
        dict(property_map={"p": "p"}, actor_type_classes={}),
        {
            "name": ({"property_map": {"p": ""}}, "empty feature name"),
            "type": (
                {"actor_type_classes": {"c": "animal"}}, "unknown actor type"
            ),
        },
    ),
]

_CASES = [
    pytest.param(record, good, bad, message, id=f"{record.__name__}-{case}")
    for record, good, cases in CHECKED
    for case, (bad, message) in cases.items()
]


@pytest.mark.parametrize("record, good, bad, message", _CASES)
def test_checked_record_rejects_a_bad_value_by_keyword_and_by_position(
    record, good, bad, message
):
    assert list(good) == list(record._fields)
    values = {**good, **bad}
    with pytest.raises(ValueError, match=message):
        record(**values)
    with pytest.raises(ValueError, match=message):
        record(*values.values())
    # a rebuild through the constructor is checked; `_replace` is not
    with pytest.raises(ValueError, match=message):
        record(**{**record(**good)._asdict(), **bad})


@pytest.mark.parametrize("record, good", [(record, good) for record, good, _ in CHECKED])
def test_checked_record_is_a_plain_tuple_of_its_fields(record, good):
    built = record(**good)
    assert built == tuple(good.values())
    assert record(*built) == built


def test_a_record_unpacks_and_keeps_its_defaults():
    row = AuditRow("en-dbpedia", date(2011, 1, 1), "A", "left", 1, 2, 0.1, 0.2, 10)
    source, time_point, *_, baseline_share, verdict = row
    assert (source, time_point, baseline_share, verdict) == (
        "en-dbpedia", date(2011, 1, 1), None, None
    )
    judged = row._replace(baseline_share=0.15, verdict="indeterminate")
    assert judged[:9] == row[:9]
    assert EndpointConfig("u", "wikidata")[2:] == (1000, 2.0, 2, 30.0)


def test_loading_rules_compiles_no_regex(tmp_path):
    """A case-insensitive rule compiles its regex only when it is asked
    for, and the rules' scan index is built on their first match."""
    path = tmp_path / "rules.csv"
    path.write_text("pattern,case_sensitive\ngroen,false\nN-VA,true\n", encoding="utf-8")
    rules = load_rules(path)
    assert [vars(rule) for rule in rules] == [{}, {}]
    assert vars(rules) == {}
    assert rules[0].regex.match("GROEN")
    assert list(vars(rules[0])) == ["regex"]
