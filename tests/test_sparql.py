"""Tests for the SPARQL client: parsing, paging, rate limiting, retries."""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgdiv.sparql
from kgdiv.fixtures import FixtureStore, FixtureTransport
from kgdiv.sparql import (
    EndpointConfig,
    MalformedResultError,
    QueryTemplate,
    QueryTransportError,
    RateLimiter,
    RdfTerm,
    ResultTable,
    execute_query,
    http_transport,
    parse_results,
)
from tests.conftest import make_probe_dataset
from tests.fixture_server import FixtureServer

PROBE_TEMPLATE = QueryTemplate(
    template_id="probe",
    dialect="en-dbpedia",
    query_text="#template=probe\nSELECT ?x WHERE { ?x ?p ?o }\nORDER BY ?x",
    result_schema=("x",),
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


class TestParseResults:
    def test_minimal_json(self):
        table = parse_results(MINIMAL_JSON)
        assert table.variables == ("s",)
        assert len(table) == 1
        assert table.rows[0]["s"] == RdfTerm("iri", "http://example.org/a")

    def test_empty_document_keeps_variables(self):
        table = parse_results(EMPTY_JSON)
        assert table.variables == ("s", "o")
        assert len(table) == 0

    def test_language_tag(self):
        table = parse_results(LANG_JSON)
        term = table.rows[0]["label"]
        assert term.language_tag == "nl"
        assert term.datatype is None

    def test_malformed_body(self):
        with pytest.raises(MalformedResultError):
            parse_results(b"this is not json")

    def test_truncated_document(self):
        with pytest.raises(MalformedResultError):
            parse_results(MINIMAL_JSON[: len(MINIMAL_JSON) // 2])

    def test_unknown_binding_kind(self):
        doc = json.dumps(
            {
                "head": {"vars": ["s"]},
                "results": {"bindings": [{"s": {"type": "wat", "value": "x"}}]},
            }
        ).encode()
        with pytest.raises(MalformedResultError, match="unknown binding kind"):
            parse_results(doc)



def safe_text(max_size=30):
    return st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
        min_size=1,
        max_size=max_size,
    )


@st.composite
def result_tables(draw):
    variables = draw(
        st.lists(
            st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    n_rows = draw(st.integers(min_value=0, max_value=5))
    rows = []
    for _ in range(n_rows):
        row = {}
        for var in variables:
            if draw(st.booleans()):
                continue  # leave some variables unbound
            kind = draw(st.sampled_from(["iri", "literal", "blank"]))
            value = draw(safe_text())
            datatype = language = None
            if kind == "literal":
                which = draw(st.sampled_from(["plain", "datatype", "lang"]))
                if which == "datatype":
                    datatype = "http://example.org/dt/" + draw(
                        st.from_regex(r"[a-z]{1,8}", fullmatch=True)
                    )
                elif which == "lang":
                    language = draw(st.sampled_from(["en", "nl", "fr", "de"]))
            row[var] = RdfTerm(kind, value, datatype=datatype, language_tag=language)
        rows.append(row)
    return ResultTable(variables=tuple(variables), rows=tuple(rows))


def to_json(table):
    """Encode a table in the SPARQL JSON results format."""

    def term(t):
        kind = {"iri": "uri", "blank": "bnode"}.get(t.kind, t.kind)
        out = {"type": kind, "value": t.value}
        if t.datatype:
            out["datatype"] = t.datatype
        if t.language_tag:
            out["xml:lang"] = t.language_tag
        return out

    bindings = [{var: term(t) for var, t in row.items()} for row in table.rows]
    doc = {"head": {"vars": list(table.variables)}, "results": {"bindings": bindings}}
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")


@given(result_tables())
@settings(max_examples=100)
def test_property_json_round_trip(table):
    assert parse_results(to_json(table)) == table


class TestRdfTerm:
    def test_datatype_on_iri_rejected(self):
        with pytest.raises(ValueError):
            RdfTerm("iri", "x", datatype="http://example.org/dt")

    def test_datatype_and_lang_exclusive(self):
        with pytest.raises(ValueError):
            RdfTerm("literal", "x", datatype="d", language_tag="en")


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
    return FixtureStore(tmp_path)


def endpoint_for(server, dialect="en-dbpedia", **kwargs):
    defaults = dict(page_size=100, max_requests_per_second=500.0, retry_limit=0)
    defaults.update(kwargs)
    return EndpointConfig(url=server.url_for(dialect), dialect=dialect, **defaults)


class TestExecuteQuery:
    def test_paging_over_http(self, probe_store):
        with FixtureServer(probe_store) as server:
            endpoint = endpoint_for(server, page_size=100)
            table = execute_query(endpoint, PROBE_TEMPLATE)
        assert len(table) == 250
        # 100 + 100 + 50: the short third page stops the loop
        assert len(probe_store.requests) == 3
        assert [r.offset for r in probe_store.requests] == [0, 100, 200]

    def test_page_size_invariance(self, probe_store):
        tables = {}
        with FixtureServer(probe_store) as server:
            for size in (1, 7, 100):
                endpoint = endpoint_for(server, page_size=size)
                tables[size] = execute_query(endpoint, PROBE_TEMPLATE)
        row_sets = {size: set(t.values("x")) for size, t in tables.items()}
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
        table = execute_query(endpoint, PROBE_TEMPLATE, transport=transport)
        assert table.values("x") == ["http://probe.test/a", "http://probe.test/b"]

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
        table = execute_query(endpoint, PROBE_TEMPLATE, transport=recording)
        assert len(table) == 250
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
        assert len(execute_query(endpoint, PROBE_TEMPLATE, transport=flaky)) == 250

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
            execute_query(endpoint, PROBE_TEMPLATE, transport=always_down)

    def test_http_error_status(self, probe_store):
        with FixtureServer(probe_store) as server:
            endpoint = EndpointConfig(
                url=f"{server.base_url}/nonsense/sparql",
                dialect="en-dbpedia",
                max_requests_per_second=1000,
            )
            with pytest.raises(QueryTransportError, match="HTTP 400"):
                execute_query(endpoint, PROBE_TEMPLATE)

    def test_unreachable_endpoint(self):
        endpoint = EndpointConfig(
            url="http://127.0.0.1:1/en-dbpedia/sparql",
            dialect="en-dbpedia",
            max_requests_per_second=1000,
            timeout=0.5,
        )
        with pytest.raises(QueryTransportError):
            execute_query(endpoint, PROBE_TEMPLATE)

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
            execute_query(endpoint, PROBE_TEMPLATE, transport=ignores_offset)
        assert len(sent) == 2

    def test_post_for_long_queries(self, probe_store):
        long_template = QueryTemplate(
            template_id="probe",
            dialect="en-dbpedia",
            query_text="#template=probe\n# "
            + "x" * 2500
            + "\nSELECT ?x WHERE { ?x ?p ?o }\nORDER BY ?x",
            result_schema=("x",),
        )
        with FixtureServer(probe_store) as server:
            endpoint = endpoint_for(server, page_size=300)
            table = execute_query(endpoint, long_template)
        assert len(table) == 250


def test_http_transport_roundtrip(probe_store):
    with FixtureServer(probe_store) as server:
        body = http_transport(
            server.url_for("en-dbpedia"),
            "#template=probe\nSELECT ?x\nLIMIT 5 OFFSET 0",
            "application/sparql-results+json",
            10.0,
        )
    assert len(parse_results(body)) == 5
