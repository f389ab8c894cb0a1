"""Tests for the SPARQL client: parsing, paging, rate limiting, retries."""

from __future__ import annotations

import copy
import json
import random
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgdiv.fixtures
import kgdiv.sparql
from kgdiv.fixtures import FixtureStore, FixtureTransport
from kgdiv.sparql import (
    EndpointConfig,
    MalformedResultError,
    QueryTemplate,
    QueryTransportError,
    RateLimiter,
    execute_query,
    http_transport,
    parse_results,
)
from tests import oracles
from tests.conftest import FIXTURES, make_probe_dataset
from tests.fixture_server import FixtureServer, RecordingStore

PROBE_TEMPLATE = QueryTemplate(
    template_id="probe",
    dialect="en-dbpedia",
    query_text="#template=probe\nSELECT ?x WHERE { ?x ?p ?o }\nORDER BY ?x",
)

MINIMAL_JSON = json.dumps(
    {
        "head": {"vars": ["s"]},
        "results": {
            "bindings": [{"s": {"type": "uri", "value": "http://example.org/a"}}]
        },
    }
).encode()

EMPTY_JSON = json.dumps(
    {"head": {"vars": ["s", "o"]}, "results": {"bindings": []}}
).encode()

LANG_JSON = json.dumps(
    {
        "head": {"vars": ["label"]},
        "results": {
            "bindings": [
                {"label": {"type": "literal", "value": "België", "xml:lang": "nl"}}
            ]
        },
    }
).encode()


def results_doc(variables, bindings) -> bytes:
    doc = {"head": {"vars": list(variables)}, "results": {"bindings": list(bindings)}}
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")


def serving(body: bytes):
    """A transport that answers every page with the same one-page document."""

    def transport(url, query, accept, timeout):
        return body

    return transport


#: the rows of a SELECT * come in the order the results declare
SELECT_ALL = QueryTemplate(
    template_id="probe",
    dialect="en-dbpedia",
    query_text="#template=probe\nSELECT * WHERE { ?s ?p ?o }",
)


def parse_all(body, order=None):
    """parse_results' order and its rows, read to the end."""
    order, rows = parse_results(body, order)
    return order, list(rows)


def query_bindings(variables, bindings, template=SELECT_ALL):
    endpoint = EndpointConfig(
        url="fixture:///en-dbpedia/served",
        dialect="en-dbpedia",
        page_size=1000,
        max_requests_per_second=1e9,
    )
    return list(
        execute_query(endpoint, template, transport=serving(results_doc(variables, bindings)))
    )


class TestParseResults:
    def test_minimal_json(self):
        assert parse_all(MINIMAL_JSON) == (
            ("s",),
            [(("http://example.org/a",), (("uri", "", ""),))],
        )

    def test_empty_document_gives_no_rows(self):
        assert parse_all(EMPTY_JSON) == (("s", "o"), [])

    def test_language_tag(self):
        assert parse_all(LANG_JSON) == (
            ("label",),
            [(("België",), (("literal", "", "nl"),))],
        )

    def test_values_in_declared_order(self):
        body = results_doc(
            ["b", "a", "c"],
            [
                {
                    "a": {"type": "literal", "value": "1", "datatype": "xsd:int"},
                    "b": {"type": "bnode", "value": "n1"},
                }
            ],
        )
        # an unbound variable reads as "" with no term
        assert parse_all(body) == (
            ("b", "a", "c"),
            [(("n1", "1", ""), (("bnode", "", ""), ("literal", "xsd:int", ""), None))],
        )

    def test_rows_of_one_shape_share_their_terms(self):
        term = {"type": "literal", "datatype": "http://www.w3.org/2001/XMLSchema#date"}
        body = results_doc(
            ["d"], [{"d": {**term, "value": day}} for day in ("2001-01-01", "2002-02-02")]
        )
        (_, first), (_, second) = parse_all(body)[1]
        assert first is second
        assert first == (("literal", "http://www.w3.org/2001/XMLSchema#date", ""),)

    def test_typed_literal_reads_as_literal(self):
        plain = {"type": "literal", "value": "1990", "datatype": "xsd:gYear"}
        typed = {**plain, "type": "typed-literal"}
        assert parse_all(results_doc(["y"], [{"y": plain}])) == parse_all(
            results_doc(["y"], [{"y": typed}])
        )

    def test_datatype_on_iri_ignored(self):
        term = {"type": "uri", "value": "http://x/a", "datatype": "d", "xml:lang": "en"}
        assert parse_all(results_doc(["s"], [{"s": term}]))[1] == [
            (("http://x/a",), (("uri", "", ""),))
        ]

    def test_malformed_body(self):
        with pytest.raises(MalformedResultError):
            parse_results(b"this is not json")

    def test_truncated_document(self):
        with pytest.raises(MalformedResultError):
            parse_results(MINIMAL_JSON[: len(MINIMAL_JSON) // 2])

    @pytest.mark.parametrize(
        "doc",
        [
            {"results": {"bindings": []}},
            {"head": {}, "results": {"bindings": []}},
            {"head": {"vars": ["s"]}},
            {"head": {"vars": ["s"]}, "results": {}},
            {"head": {"vars": 3}, "results": {"bindings": []}},
        ],
        ids=["no-head", "no-vars", "no-results", "no-bindings", "vars-not-a-list"],
    )
    def test_missing_head_vars_or_bindings(self, doc):
        # the head is checked at the call, before any row is read
        with pytest.raises(MalformedResultError, match="not a SPARQL JSON results"):
            parse_results(json.dumps(doc).encode())

    def test_unknown_binding_kind(self):
        doc = results_doc(["s"], [{"s": {"type": "wat", "value": "x"}}])
        with pytest.raises(MalformedResultError, match="unknown binding kind"):
            parse_all(doc)

    @pytest.mark.parametrize(
        "term",
        [
            {"type": "uri"},
            {"type": "literal", "value": None},
            {"type": "literal", "value": 5},
            {"type": "uri", "value": ["http://x/a"]},
        ],
        ids=["missing", "null", "number", "list"],
    )
    def test_binding_without_a_value(self, term):
        with pytest.raises(MalformedResultError, match="without a string value"):
            parse_all(results_doc(["s"], [{"s": term}]))

    def test_undeclared_variable(self):
        doc = results_doc(["s"], [{"s": {"type": "uri", "value": "x"}, "o": {"type": "uri", "value": "y"}}])
        with pytest.raises(MalformedResultError, match=r"undeclared variables \['o'\]"):
            parse_all(doc)

    def test_datatype_and_lang_exclusive(self):
        term = {"type": "literal", "value": "x", "datatype": "d", "xml:lang": "en"}
        with pytest.raises(MalformedResultError, match="both a datatype and a language tag"):
            parse_all(results_doc(["s"], [{"s": term}]))

    def test_non_string_datatype_rejected(self):
        term = {"type": "literal", "value": "x", "datatype": ["d"]}
        with pytest.raises(MalformedResultError, match="non-string datatype"):
            parse_all(results_doc(["s"], [{"s": term}]))

    @pytest.mark.parametrize(
        "bindings",
        [[5], [{"s": "http://x/a"}], "abc", 7],
        ids=["binding-not-a-mapping", "term-not-a-mapping", "bindings-a-string", "bindings-a-number"],
    )
    def test_malformed_binding(self, bindings):
        doc = json.dumps({"head": {"vars": ["s"]}, "results": {"bindings": bindings}}).encode()
        with pytest.raises(MalformedResultError):
            parse_all(doc)


class TestDedup:
    def test_bindings_differing_only_in_language_are_two_rows(self):
        rows = query_bindings(
            ["label"],
            [
                {"label": {"type": "literal", "value": "Gent", "xml:lang": "nl"}},
                {"label": {"type": "literal", "value": "Gent", "xml:lang": "en"}},
                {"label": {"type": "literal", "value": "Gent", "xml:lang": "nl"}},
            ],
        )
        assert rows == [("Gent",), ("Gent",)]

    def test_bindings_differing_only_in_datatype_are_two_rows(self):
        rows = query_bindings(
            ["y"],
            [
                {"y": {"type": "literal", "value": "1990", "datatype": "xsd:gYear"}},
                {"y": {"type": "literal", "value": "1990"}},
            ],
        )
        assert rows == [("1990",), ("1990",)]

    def test_values_that_join_alike_on_nul_are_two_rows(self):
        rows = query_bindings(["a", "b"], NUL_PAIR + NUL_PAIR)
        assert rows == [("a\0b", "c"), ("a", "b\0c")]

    def test_literal_and_typed_literal_are_one_row(self):
        rows = query_bindings(
            ["y"],
            [
                {"y": {"type": "literal", "value": "1990", "datatype": "xsd:gYear"}},
                {"y": {"type": "typed-literal", "value": "1990", "datatype": "xsd:gYear"}},
            ],
        )
        assert rows == [("1990",)]

    def test_first_seen_order_across_pages(self, tmp_path):
        bindings = [
            {"x": {"type": "uri", "value": f"http://probe.test/{name}"}}
            for name in "cabcbd"
        ]
        (tmp_path / "en-dbpedia").mkdir()
        (tmp_path / "en-dbpedia" / "probe.json").write_text(
            json.dumps({"variables": ["x"], "bindings": bindings})
        )
        endpoint = EndpointConfig(
            url="fixture:///en-dbpedia/order", dialect="en-dbpedia", page_size=2,
            max_requests_per_second=1e9,
        )
        rows = execute_query(
            endpoint, PROBE_TEMPLATE, transport=FixtureTransport(FixtureStore(tmp_path))
        )
        assert [x[-1] for x, in rows] == ["c", "a", "b", "d"]


def iri(name):
    return {"type": "uri", "value": f"http://x/{name}"}


class TestSelectOrder:
    TEMPLATE = QueryTemplate(
        template_id="probe",
        dialect="en-dbpedia",
        query_text="#template=probe\nSELECT DISTINCT ?a ?b WHERE { ?a ?p ?b }",
    )

    def test_rows_follow_the_select_order(self):
        rows = query_bindings(
            ["b", "a"], [{"a": iri("x"), "b": iri("y")}, {"b": iri("z")}], self.TEMPLATE
        )
        assert rows == [("http://x/x", "http://x/y"), ("", "http://x/z")]

    def test_a_declared_unselected_variable_may_stay_unbound(self):
        rows = query_bindings(["a", "c"], [{"a": iri("x")}], self.TEMPLATE)
        assert rows == [("http://x/x", "")]

    def test_a_bound_unselected_variable_is_malformed(self):
        with pytest.raises(MalformedResultError, match=r"unselected variables \['c'\]"):
            query_bindings(["a", "c"], [{"a": iri("x"), "c": iri("y")}], self.TEMPLATE)


def safe_text(max_size=30):
    return st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
        min_size=1,
        max_size=max_size,
    )


LANGUAGES = ["en", "nl", "fr", "de"]


def datatypes():
    return st.sampled_from("abc").map(lambda name: "http://example.org/dt/" + name)


@st.composite
def raw_terms(draw, values=None):
    """One term in the SPARQL JSON results encoding, its value drawn from
    `values` (by default any safe text)."""
    kind = draw(st.sampled_from(["uri", "bnode", "literal", "typed-literal"]))
    term = {"type": kind, "value": draw(safe_text() if values is None else values)}
    if kind == "typed-literal":
        term["datatype"] = draw(datatypes())
    elif kind == "literal":
        which = draw(st.sampled_from(["plain", "datatype", "lang"]))
        if which == "datatype":
            term["datatype"] = draw(datatypes())
        elif which == "lang":
            term["xml:lang"] = draw(st.sampled_from(LANGUAGES))
    return term


@st.composite
def raw_results(draw):
    """Variables and bindings drawn from a small pool, so that rows repeat,
    sometimes with a typed literal re-encoded (literal <-> typed-literal, and
    perhaps another datatype) or a tagged literal given another tag."""
    variables = draw(
        st.lists(
            st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    pool = draw(
        st.lists(
            st.dictionaries(st.sampled_from(variables), raw_terms(), max_size=len(variables)),
            min_size=1,
            max_size=4,
        )
    )
    bindings = []
    for index in draw(st.lists(st.integers(0, len(pool) - 1), max_size=12)):
        binding = {}
        for var, term in pool[index].items():
            if "datatype" in term and draw(st.booleans()):
                flipped = "literal" if term["type"] == "typed-literal" else "typed-literal"
                term = {**term, "type": flipped, "datatype": draw(datatypes())}
            elif "xml:lang" in term and draw(st.booleans()):
                term = {**term, "xml:lang": draw(st.sampled_from(LANGUAGES))}
            binding[var] = term
        bindings.append(binding)
    return variables, bindings


def term_key(var, term):
    kind = {"typed-literal": "literal"}.get(term["type"], term["type"])
    literal = kind == "literal"
    return (
        var,
        kind,
        term["value"],
        term.get("datatype", "") if literal else "",
        term.get("xml:lang", "") if literal else "",
    )


def row_terms(variables, row):
    """A parsed row's bound terms, as sorted term_key tuples."""
    values, terms = row
    return sorted(
        (var, term[0], value, *term[1:])
        for var, value, term in zip(variables, values, terms)
        if term is not None
    )


@given(raw_results())
@settings(max_examples=100)
def test_property_json_round_trip(results):
    variables, bindings = results
    declared, parsed = parse_all(results_doc(variables, bindings))
    assert declared == tuple(variables)
    # parsing gives the terms of each binding, in binding order
    assert [row_terms(variables, row) for row in parsed] == [
        sorted(term_key(var, term) for var, term in binding.items()) for binding in bindings
    ]
    # dedup gives the distinct term tuples in first-seen order
    distinct = []
    for binding in bindings:
        key = sorted(term_key(var, term) for var, term in binding.items())
        if key not in distinct:
            distinct.append(key)
    expected = []
    for key in distinct:
        values = {var: value for var, _, value, _, _ in key}
        expected.append(tuple(values.get(var, "") for var in variables))
    assert query_bindings(variables, bindings) == expected


#: few values, so that rows repeat, and two pairs that join alike on NUL:
#: ("a\0b", "c") and ("a", "b\0c")
NUL_VALUES = ["", "a", "c", "a\0b", "b\0c", "\0"]


@st.composite
def scripted_pages(draw):
    """Variables, a template that selects them all (SELECT * or named in
    some order), a page size and the pages an endpoint serves: full pages
    and then a short one, of bindings drawn from a small pool, so that
    rows repeat within and across pages, differ only by a datatype or
    language tag, hold NUL or leave a variable unbound."""
    variables = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    named = draw(st.one_of(st.none(), st.permutations(variables)))
    select = "*" if named is None else " ".join(f"?{var}" for var in named)
    template = QueryTemplate(
        template_id="probe",
        dialect="en-dbpedia",
        query_text=f"#template=probe\nSELECT {select} WHERE {{ ?s ?p ?o }}",
    )
    pool = draw(
        st.lists(
            st.dictionaries(
                st.sampled_from(variables),
                raw_terms(st.sampled_from(NUL_VALUES)),
                max_size=len(variables),
            ),
            min_size=1,
            max_size=6,
        )
    )
    page_size = draw(st.integers(1, 4))
    picks = st.sampled_from(pool)
    pages = [
        draw(st.lists(picks, min_size=page_size, max_size=page_size))
        for _ in range(draw(st.integers(0, 3)))
    ]
    pages.append(draw(st.lists(picks, max_size=page_size - 1)))
    return variables, template, page_size, pages


NUL_PAIR = [
    {"a": {"type": "uri", "value": "a\0b"}, "b": {"type": "uri", "value": "c"}},
    {"a": {"type": "uri", "value": "a"}, "b": {"type": "uri", "value": "b\0c"}},
]


@given(scripted_pages())
@example((["a", "b"], SELECT_ALL, 2, [NUL_PAIR, NUL_PAIR[1:]]))
@settings(max_examples=200)
def test_property_streamed_rows_match_the_listed_dedup(script):
    variables, template, page_size, pages = script

    def scripted(url, query, accept, timeout):
        index = int(query.rsplit("OFFSET ", 1)[1]) // page_size
        return results_doc(variables, pages[index] if index < len(pages) else [])

    def outcome(run):
        try:
            return "rows", run()
        except MalformedResultError as exc:
            return "error", str(exc)

    endpoint = EndpointConfig(
        url="fixture:///en-dbpedia/scripted",
        dialect="en-dbpedia",
        page_size=page_size,
        max_requests_per_second=1e9,
    )
    streamed = outcome(lambda: list(execute_query(endpoint, template, scripted)))
    assert streamed == outcome(lambda: oracles.query_rows(endpoint, template, scripted))


class LateClock:
    """Fake monotonic clock; each sleep ends late by the next overshoot."""

    def __init__(self, overshoots):
        self.now = 0.0
        self.overshoots = list(overshoots)

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds + (self.overshoots.pop(0) if self.overshoots else 0.0)


def test_rate_limiter_spaces_actual_starts(monkeypatch):
    # binary fractions keep the fake clock's arithmetic exact
    clock = LateClock([0.125])
    monkeypatch.setattr(kgdiv.sparql, "time", clock)
    limiter = RateLimiter(max_per_second=4.0)
    starts = []
    for _ in range(5):
        limiter.wait()
        starts.append(clock.monotonic())
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    # one late wake-up delays the next start; no start comes early after it
    assert gaps == [0.375, 0.25, 0.25, 0.25]


@pytest.fixture()
def probe_store(tmp_path):
    make_probe_dataset(tmp_path, "en-dbpedia", "probe", 250)
    return RecordingStore(tmp_path)


def endpoint_for(server, dialect="en-dbpedia", **kwargs):
    defaults = dict(page_size=100, max_requests_per_second=500.0, retry_limit=0)
    defaults.update(kwargs)
    return EndpointConfig(url=server.url_for(dialect), dialect=dialect, **defaults)


class TestExecuteQuery:
    def test_paging_over_http(self, probe_store):
        with FixtureServer(probe_store) as server:
            endpoint = endpoint_for(server, page_size=100)
            rows = list(execute_query(endpoint, PROBE_TEMPLATE))
        assert len(rows) == 250
        # 100 + 100 + 50: the short third page stops the loop
        assert len(probe_store.requests) == 3
        assert [r.offset for r in probe_store.requests] == [0, 100, 200]

    def test_page_size_invariance(self, probe_store):
        row_sets = {}
        with FixtureServer(probe_store) as server:
            for size in (1, 7, 100):
                endpoint = endpoint_for(server, page_size=size)
                rows = execute_query(endpoint, PROBE_TEMPLATE)
                row_sets[size] = {x for x, in rows}
        assert row_sets[1] == row_sets[7] == row_sets[100]
        assert len(row_sets[1]) == 250

    def test_deduplication(self, tmp_path):
        dataset = {
            "variables": ["x"],
            "bindings": [
                {"x": {"type": "uri", "value": "http://probe.test/a"}},
                {"x": {"type": "uri", "value": "http://probe.test/a"}},
                {"x": {"type": "uri", "value": "http://probe.test/b"}},
            ],
        }
        target = tmp_path / "en-dbpedia"
        target.mkdir()
        (target / "probe.json").write_text(json.dumps(dataset))
        store = FixtureStore(tmp_path)
        transport = FixtureTransport(store)
        endpoint = EndpointConfig(
            url="fixture:///en-dbpedia", dialect="en-dbpedia", page_size=10,
            max_requests_per_second=1000,
        )
        rows = list(execute_query(endpoint, PROBE_TEMPLATE, transport=transport))
        assert rows == [("http://probe.test/a",), ("http://probe.test/b",)]

    def test_dialect_mismatch(self, probe_store):
        endpoint = EndpointConfig(
            url="fixture:///wikidata", dialect="wikidata", max_requests_per_second=1000
        )
        with pytest.raises(ValueError, match="does not match endpoint dialect"):
            execute_query(endpoint, PROBE_TEMPLATE, transport=FixtureTransport(probe_store))

    def test_rate_limit_enforced(self, probe_store):
        sent = []
        transport = FixtureTransport(probe_store)

        def recording(url, query, accept, timeout):
            sent.append(time.monotonic())
            return transport(url, query, accept, timeout)

        endpoint = EndpointConfig(
            url="fixture:///en-dbpedia/rate-test",
            dialect="en-dbpedia",
            page_size=50,
            max_requests_per_second=40.0,
        )
        rows = list(execute_query(endpoint, PROBE_TEMPLATE, transport=recording))
        assert len(rows) == 250
        gaps = [b - a for a, b in zip(sent, sent[1:])]
        assert min(gaps) >= (1 / 40.0) - 0.002

    def test_retries_then_success(self, probe_store):
        transport = FixtureTransport(probe_store)
        failures = {"left": 2}

        def flaky(url, query, accept, timeout):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise QueryTransportError("transient")
            return transport(url, query, accept, timeout)

        endpoint = EndpointConfig(
            url="fixture:///en-dbpedia/retry-ok",
            dialect="en-dbpedia",
            page_size=300,
            max_requests_per_second=1000,
            retry_limit=2,
        )
        assert len(list(execute_query(endpoint, PROBE_TEMPLATE, transport=flaky))) == 250

    def test_retries_exhausted(self, probe_store):
        def always_down(url, query, accept, timeout):
            raise QueryTransportError("down")

        endpoint = EndpointConfig(
            url="fixture:///en-dbpedia/retry-fail",
            dialect="en-dbpedia",
            max_requests_per_second=1000,
            retry_limit=1,
        )
        with pytest.raises(QueryTransportError):
            list(execute_query(endpoint, PROBE_TEMPLATE, transport=always_down))

    def test_http_error_status(self, probe_store):
        with FixtureServer(probe_store) as server:
            endpoint = EndpointConfig(
                url=f"{server.base_url}/nonsense/sparql",
                dialect="en-dbpedia",
                max_requests_per_second=1000,
            )
            with pytest.raises(QueryTransportError, match="HTTP 400"):
                list(execute_query(endpoint, PROBE_TEMPLATE))

    def test_unreachable_endpoint(self):
        endpoint = EndpointConfig(
            url="http://127.0.0.1:1/en-dbpedia/sparql",
            dialect="en-dbpedia",
            max_requests_per_second=1000,
            timeout=0.5,
        )
        with pytest.raises(QueryTransportError):
            list(execute_query(endpoint, PROBE_TEMPLATE))

    def test_full_page_without_new_rows_stops(self):
        # an endpoint that ignores OFFSET serves the same full page forever
        page = json.dumps(
            {
                "head": {"vars": ["x"]},
                "results": {
                    "bindings": [
                        {"x": {"type": "uri", "value": f"http://probe.test/{n}"}}
                        for n in range(10)
                    ]
                },
            }
        ).encode()
        sent = []

        def ignores_offset(url, query, accept, timeout):
            sent.append(query)
            if len(sent) > 5:
                raise AssertionError("paging did not stop")
            return page

        endpoint = EndpointConfig(
            url="fixture:///en-dbpedia/ignores-offset",
            dialect="en-dbpedia",
            page_size=10,
            max_requests_per_second=1000,
        )
        with pytest.raises(MalformedResultError, match="no new rows"):
            list(execute_query(endpoint, PROBE_TEMPLATE, transport=ignores_offset))
        assert len(sent) == 2

    def test_post_for_long_queries(self, probe_store):
        long_template = QueryTemplate(
            template_id="probe",
            dialect="en-dbpedia",
            query_text="#template=probe\n# "
            + "x" * 2500
            + "\nSELECT ?x WHERE { ?x ?p ?o }\nORDER BY ?x",
        )
        with FixtureServer(probe_store) as server:
            endpoint = endpoint_for(server, page_size=300)
            rows = list(execute_query(endpoint, long_template))
        assert len(rows) == 250


def test_http_transport_roundtrip(probe_store):
    with FixtureServer(probe_store) as server:
        body = http_transport(
            server.url_for("en-dbpedia"),
            "#template=probe\nSELECT ?x\nLIMIT 5 OFFSET 0",
            "application/sparql-results+json",
            10.0,
        )
    assert len(parse_all(body)[1]) == 5


# --- the in-process fixture path against the HTTP one ------------------------
#
# FixtureTransport hands the store's decoded results documents to
# parse_results, while FixtureServer encodes them for the wire and
# http_transport returns bytes. Both must give the same rows and errors.

BUNDLED = sorted((FIXTURES / "kg").glob("*/*.json"))


def fixture_template(dialect: str, template_id: str) -> QueryTemplate:
    return QueryTemplate(
        template_id=template_id,
        dialect=dialect,
        query_text=f"#template={template_id}\nSELECT * WHERE {{ ?s ?p ?o }}",
    )


def both_paths(store: FixtureStore, dialect: str, template_id: str, page_size: int = 1000):
    """execute_query over the in-process transport and over HTTP, each as
    ("rows", rows) or ("error", message)."""
    template = fixture_template(dialect, template_id)

    def run(endpoint, transport=None):
        try:
            return "rows", list(execute_query(endpoint, template, transport=transport))
        except MalformedResultError as exc:
            return "error", str(exc)

    in_process = run(
        EndpointConfig(
            url=f"fixture:///{dialect}/in-process",
            dialect=dialect,
            page_size=page_size,
            max_requests_per_second=1e9,
        ),
        FixtureTransport(store),
    )
    with FixtureServer(store) as server:
        over_http = run(
            endpoint_for(
                server, dialect, page_size=page_size, max_requests_per_second=1e9
            )
        )
    return in_process, over_http


@pytest.mark.parametrize(
    "path", BUNDLED, ids=[f"{p.parent.name}/{p.stem}" for p in BUNDLED]
)
def test_in_process_and_http_rows_agree_on_bundled_fixtures(path: Path):
    in_process, over_http = both_paths(
        FixtureStore(FIXTURES / "kg"), path.parent.name, path.stem
    )
    assert in_process[0] == "rows"
    assert in_process == over_http


@pytest.mark.parametrize(
    "binding, message",
    [
        (
            {"s": {"type": "literal", "value": "x", "datatype": "d", "xml:lang": "en"}},
            "both a datatype and a language tag",
        ),
        ({"s": {"type": "literal", "value": 5}}, "without a string value"),
        ({"s": {"type": "wat", "value": "x"}}, "unknown binding kind"),
        (
            {"s": {"type": "uri", "value": "x"}, "o": {"type": "uri", "value": "y"}},
            "undeclared variables",
        ),
    ],
    ids=["datatype-and-lang", "non-string-value", "unknown-kind", "undeclared-variable"],
)
def test_in_process_and_http_errors_agree(tmp_path, binding, message):
    (tmp_path / "en-dbpedia").mkdir()
    (tmp_path / "en-dbpedia" / "probe.json").write_text(
        json.dumps({"variables": ["s"], "bindings": [binding]})
    )
    in_process, over_http = both_paths(FixtureStore(tmp_path), "en-dbpedia", "probe")
    assert in_process[0] == "error"
    assert message in in_process[1]
    assert in_process == over_http


@given(raw_results())
@settings(max_examples=100)
def test_property_decoded_document_parses_like_its_bytes(results):
    variables, bindings = results
    body = results_doc(variables, bindings)
    doc = json.loads(body)
    before = copy.deepcopy(doc)
    assert parse_all(body) == parse_all(doc)
    assert doc == before


def test_store_cache_survives_repeated_fetches():
    # the store opens a dataset once and keeps where its elements start;
    # each fetch decodes the pages afresh, from the file as it is
    store = FixtureStore(FIXTURES / "kg")
    transport = FixtureTransport(store)
    endpoint = EndpointConfig(
        url="fixture:///en-dbpedia/twice",
        dialect="en-dbpedia",
        page_size=4,
        max_requests_per_second=1e9,
    )
    template = fixture_template("en-dbpedia", "politicians")
    first = list(execute_query(endpoint, template, transport=transport))
    dataset = store.dataset("en-dbpedia", "politicians")
    second = list(execute_query(endpoint, template, transport=transport))
    assert first and first == second
    assert store.dataset("en-dbpedia", "politicians") is dataset
    recorded = json.loads(dataset.path.read_text(encoding="utf-8"))["bindings"]
    assert list(dataset.page(0, None)) == recorded


# --- the store decodes a page at a time ------------------------------------------

DATE = "http://www.w3.org/2001/XMLSchema#date"


def politician_bindings(count: int) -> list[dict]:
    """Politicians-shaped bindings: two IRIs, a tagged and a typed literal."""
    return [
        {
            "politician": {"type": "uri", "value": f"http://dbpedia.org/resource/P_{n:06d}"},
            "label": {"type": "literal", "value": f"Politician {n}", "xml:lang": "en"},
            "party": {"type": "uri", "value": f"http://dbpedia.org/resource/Party_{n % 40}"},
            "start": {"type": "literal", "value": f"{1950 + n % 70}-0{1 + n % 9}-1{n % 10}", "datatype": DATE},
        }
        for n in range(count)
    ]


def write_dataset(root: Path, text: str) -> Path:
    (root / "en-dbpedia").mkdir(exist_ok=True)
    path = root / "en-dbpedia" / "probe.json"
    path.write_text(text, encoding="utf-8")
    return path


def page(store: FixtureStore, offset: int, limit: int = 100) -> dict:
    """The store's answer to one page, its bindings decoded into a list."""
    doc = store.respond("en-dbpedia", f"#template=probe\nLIMIT {limit} OFFSET {offset}")
    doc["results"]["bindings"] = list(doc["results"]["bindings"])
    return doc


def test_bindings_before_variables(tmp_path):
    bindings = politician_bindings(250)
    variables = list(bindings[0])
    write_dataset(tmp_path, json.dumps({"bindings": bindings, "variables": variables}))
    store = FixtureStore(tmp_path)
    for offset in (0, 200, 100, 250, 300):
        assert page(store, offset) == {
            "head": {"vars": variables},
            "results": {"bindings": bindings[offset : offset + 100]},
        }


def test_page_asked_twice_is_decoded_twice(tmp_path):
    bindings = politician_bindings(250)
    write_dataset(tmp_path, json.dumps({"variables": list(bindings[0]), "bindings": bindings}))
    store = FixtureStore(tmp_path)
    first, second = page(store, 100), page(store, 100)
    assert first == second
    assert first["results"]["bindings"] == bindings[100:200]
    assert all(
        a is not b for a, b in zip(first["results"]["bindings"], second["results"]["bindings"])
    )


def test_concurrent_respond_calls_agree(tmp_path):
    bindings = politician_bindings(2000)
    # whitespace of every kind between the elements
    text = json.dumps({"variables": list(bindings[0]), "bindings": bindings}, indent="\t")
    write_dataset(tmp_path, text.replace("\n", "\r\n"))
    store = FixtureStore(tmp_path)
    offsets = list(range(0, 2100, 100))
    answers: dict[int, list] = {}
    errors = []

    def fetch_all(seed):
        # each thread asks for the pages in its own order, most of them
        # beyond the starts found so far
        order = offsets[:]
        random.Random(seed).shuffle(order)
        try:
            for offset in order:
                answers.setdefault(offset, []).append(page(store, offset))
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=fetch_all, args=(seed,)) for seed in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for offset in offsets:
        expected = bindings[offset : offset + 100]
        assert [doc["results"]["bindings"] for doc in answers[offset]] == [expected] * 4


def test_synthetic_pages_make_only_their_slice(tmp_path):
    make_probe_dataset(tmp_path, "en-dbpedia", "probe", 250)
    store = FixtureStore(tmp_path)
    assert [b["x"]["value"] for b in page(store, 240)["results"]["bindings"]] == [
        f"http://probe.test/probe/{n}" for n in range(240, 250)
    ]
    assert page(store, 300)["results"]["bindings"] == []


#: malformed datasets, and what the error that names the file says
MALFORMED = [
    ('{"variables": ["x"], "bindings": [], "variables": ["x"]}', "names 'variables' twice"),
    ('{"variables": ["x"], "bindings": [], "bindings": []}', "names 'bindings' twice"),
    (
        '{"variables": ["x"], "synthetic": {"count": 1, "binding": {}}, "bindings": []}',
        "has both bindings and synthetic",
    ),
    ('{"variables": ["x"], "bindings": {}}', "has no list of bindings"),
    ('{"variables": ["x"], "bindings": []} []', "Extra data"),
    # placed after the whitespace before it, as json places it
    ('{"variables": ["x"], "bindings": []}   []', r"Extra data: line 1 column 40 \(char 39\)"),
    ('{"variables": ["x"] "bindings": []}', "Expecting ',' delimiter"),
    ('{"variables": ["x"], "bindings": [{}, ]}', "Expecting value"),
    ('{"variables": ["x"], "bindings": [{} {}]}', "Expecting ',' delimiter"),
    ('{"variables": ["x"], "bindings": [{}]', "Expecting ',' delimiter"),
    ("[]", "is not an object with a list of string variables"),
    ("\ufeff{}", "is not JSON"),
    # placed as in the text read with universal newlines
    (
        '{\r\n"variables": ["x"],\r\n"bindings": [{} {}]}',
        "Expecting ',' delimiter: line 3 column 17 \\(char 38\\)",
    ),
]
MALFORMED_IDS = [
    "variables-twice",
    "bindings-twice",
    "bindings-and-synthetic",
    "bindings-an-object",
    "extra-data",
    "extra-data-after-whitespace",
    "no-comma-between-keys",
    "trailing-comma",
    "no-comma-between-elements",
    "unclosed-document",
    "a-list",
    "byte-order-mark",
    "crlf-line-ends",
]


@pytest.mark.parametrize("text, message", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_dataset_names_the_file(tmp_path, text, message):
    path = write_dataset(tmp_path, text)
    with pytest.raises(ValueError, match=message) as raised:
        page(FixtureStore(tmp_path), 0)
    assert str(path) in str(raised.value)


@pytest.mark.parametrize("text, message", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_dataset_read_a_byte_at_a_time_says_the_same(tmp_path, text, message):
    write_dataset(tmp_path, text)
    with pytest.raises(ValueError, match=message) as whole:
        page(FixtureStore(tmp_path), 0)
    with patch.object(kgdiv.fixtures, "CHUNK", 1):
        with pytest.raises(ValueError) as raised:
            page(FixtureStore(tmp_path), 0)
    assert str(raised.value) == str(whole.value)


def test_a_later_page_finds_bad_json_when_it_gets_there(tmp_path):
    text = json.dumps({"variables": ["politician"], "bindings": politician_bindings(150)})
    path = write_dataset(tmp_path, text.replace('"Politician 120"', "Politician 120", 1))
    store = FixtureStore(tmp_path)
    assert len(page(store, 0)["results"]["bindings"]) == 100
    for _ in range(2):
        with pytest.raises(ValueError, match=f"fixture file {path} is not JSON"):
            page(store, 100)


def test_paging_a_fixture_traces_under_half_its_size(tmp_path):
    # the store holds a chunk of the file's text and the bindings one at a
    # time, and the parser one page of rows. Holding the file's text, and
    # its bytes while it was read, traced about twice the file's size
    bindings = politician_bindings(20_000)
    path = write_dataset(
        tmp_path, json.dumps({"variables": list(bindings[0]), "bindings": bindings})
    )
    del bindings
    size = path.stat().st_size
    transport = FixtureTransport(FixtureStore(tmp_path))
    tracemalloc.start()
    try:
        offset = parsed = 0
        while True:
            query = f"#template=probe\nLIMIT 1000 OFFSET {offset}"
            rows = list(parse_results(transport("fixture:///en-dbpedia", query, "", 1.0))[1])
            parsed += len(rows)
            if len(rows) < 1000:
                break
            offset += 1000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == 20_000
    assert peak <= 0.5 * size


@pytest.fixture()
def opened(monkeypatch):
    """The files kgdiv.fixtures opens from now on."""
    files = []

    def recording_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(kgdiv.fixtures, "open", recording_open, raising=False)
    return files


def test_a_page_the_parser_abandons_closes_its_file(tmp_path, monkeypatch, opened):
    bindings = politician_bindings(300)
    bindings[150]["label"]["type"] = "wat"
    write_dataset(tmp_path, json.dumps({"variables": list(bindings[0]), "bindings": bindings}))
    monkeypatch.setattr(kgdiv.fixtures, "CHUNK", 1024)
    transport = FixtureTransport(FixtureStore(tmp_path))
    query = "#template=probe\nLIMIT 200 OFFSET 100"
    with pytest.raises(MalformedResultError, match="unknown binding kind 'wat'"):
        list(parse_results(transport("fixture:///en-dbpedia", query, "", 1.0))[1])
    assert len(opened) == 2  # the dataset's head, then the page
    assert all(fh.closed for fh in opened)


def test_rows_left_unread_close_the_page_file(tmp_path, opened):
    bindings = politician_bindings(300)
    write_dataset(tmp_path, json.dumps({"variables": list(bindings[0]), "bindings": bindings}))
    endpoint = EndpointConfig(
        url="fixture:///en-dbpedia/unread", dialect="en-dbpedia", page_size=200,
        max_requests_per_second=1e9,
    )
    rows = execute_query(endpoint, SELECT_ALL, transport=FixtureTransport(FixtureStore(tmp_path)))
    assert opened == []  # nothing is requested before a row is read
    next(rows)
    assert len(opened) == 2 and not opened[1].closed  # the dataset's head, then the page
    del rows
    assert all(fh.closed for fh in opened)


@pytest.mark.parametrize(
    "old, new",
    [(b"Politician 120", b"Politician \xff120"), (b"}]}", "}]}\u4e2d".encode("utf-8")[:-1])],
    ids=["in-a-binding", "a-character-cut-off-at-the-end"],
)
def test_a_byte_that_is_not_utf8_is_found_by_the_page_that_reaches_it(
    tmp_path, monkeypatch, old, new
):
    monkeypatch.setattr(kgdiv.fixtures, "CHUNK", 1024)
    text = json.dumps({"variables": ["politician"], "bindings": politician_bindings(150)})
    path = write_dataset(tmp_path, "")
    data = text.encode("utf-8").replace(old, new, 1)
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    store = FixtureStore(tmp_path)
    assert page(store, 0)["results"]["bindings"] == politician_bindings(100)
    for _ in range(2):
        with pytest.raises(ValueError) as raised:
            page(store, 100)
        assert str(raised.value) == f"fixture file {path} is not JSON: {whole.value}"


#: label characters of one (ASCII), two (Dutch), three (CJK) and four
#: (emoji) bytes in UTF-8, and two that JSON escapes
LABEL_CHARACTERS = "Jan Zoëĳsé中文名字😀\"\\"
WHITESPACE = st.sampled_from(["", " ", "\n", "\t", "\r\n", " \r\n\t "])


@st.composite
def dataset_layouts(draw):
    """A dataset's text and its bindings, the members in any order with
    whitespace of every kind between the tokens, non-ASCII labels written
    as they are or escaped, and sometimes a member the store skips; one in
    two has a character deleted or inserted, or is cut short."""
    labels = draw(st.lists(st.text(LABEL_CHARACTERS, max_size=8), max_size=12))
    bindings = [
        {
            "politician": {"type": "uri", "value": f"http://dbpedia.org/resource/P_{n}"},
            "label": {"type": "literal", "value": label, "xml:lang": "nl"},
        }
        for n, label in enumerate(labels)
    ]
    members = [("variables", ["politician", "label"]), ("bindings", bindings)]
    if draw(st.booleans()):
        members.append(("note", draw(st.sampled_from([12345, -1.5e-07, "zeven", None, [1, 2]]))))
    ensure_ascii = draw(st.booleans())

    def dumps(value):
        return json.dumps(value, ensure_ascii=ensure_ascii)

    parts = []
    for key, value in draw(st.permutations(members)):
        if key == "bindings" and value:
            elements = [dumps(binding) for binding in value]
            written = "[" + draw(WHITESPACE)
            written += "".join(e + draw(WHITESPACE) + "," + draw(WHITESPACE) for e in elements[:-1])
            written += elements[-1] + draw(WHITESPACE) + "]"
        else:
            written = dumps(value)
        space = [draw(WHITESPACE) for _ in range(4)]
        parts.append(space[0] + dumps(key) + space[1] + ":" + space[2] + written + space[3])
    text = draw(WHITESPACE) + "{" + ",".join(parts) + "}" + draw(WHITESPACE)
    malformed = draw(st.sampled_from([None, None, None, "delete", "insert", "cut"]))
    if malformed:
        at = draw(st.integers(0, len(text)))
        if malformed == "delete":
            text = text[:at] + text[at + 1 :]
        elif malformed == "insert":
            text = text[:at] + draw(st.sampled_from(list(',:[]{}" 1x\n'))) + text[at:]
        else:
            text = text[:at]
    return text, malformed is None


def store_outcomes(root: Path, requests) -> list:
    """The variables of the dataset, then each requested page's bindings,
    up to the text of the first error."""
    outcomes = []
    try:
        dataset = FixtureStore(root).dataset("en-dbpedia", "probe")
        outcomes.append(dataset.variables)
        for offset, limit in requests:
            outcomes.append(list(dataset.page(offset, limit)))
    except ValueError as exc:
        outcomes.append(str(exc))
    return outcomes


@given(
    dataset_layouts(),
    st.lists(st.tuples(st.integers(0, 14), st.sampled_from([None, 1, 2, 5])), max_size=4),
    st.integers(1, 7),
)
@example(('{"variables": ["x"], "bindings": [{}]} \n[]', False), [(0, None)], 1)
@settings(max_examples=200, deadline=None)
def test_property_pages_and_errors_do_not_depend_on_the_chunk_size(layout, requests, chunk):
    # a text of a few hundred bytes is one chunk, read as the store once
    # held the whole file's text; chunks of a few bytes cut elements,
    # delimiters and multibyte characters at every place
    text, well_formed = layout
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "en-dbpedia").mkdir()
        (root / "en-dbpedia" / "probe.json").write_bytes(text.encode("utf-8"))
        whole = store_outcomes(root, requests)
        with patch.object(kgdiv.fixtures, "CHUNK", chunk):
            assert store_outcomes(root, requests) == whole
        if isinstance(whole[-1], str) and " is not JSON: " in whole[-1]:
            # json's own words, placed in the whole file
            path = root / "en-dbpedia" / "probe.json"
            with pytest.raises(ValueError) as raised:
                json.loads(path.read_text(encoding="utf-8"))
            assert whole[-1] == f"fixture file {path} is not JSON: {raised.value}"
    if well_formed:
        decoded = json.loads(text)
        assert whole == [decoded["variables"]] + [
            decoded["bindings"][offset : None if limit is None else offset + limit]
            for offset, limit in requests
        ]
