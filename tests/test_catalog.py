"""Tests for the template catalog and snapshot materialization."""

from __future__ import annotations

import csv
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kgdiv.catalog import (
    PARTIES_CSV_HEADER,
    POLITICIANS_CSV_HEADER,
    builtin_templates,
    coverage_counts,
    fetch_parties,
    fetch_politicians,
    read_parties_csv,
    read_politicians_csv,
    write_parties_csv,
    write_politicians_csv,
)
from kgdiv.csvformat import write_csv
from kgdiv.fixtures import FixtureStore, FixtureTransport
from kgdiv.sparql import _SELECT as SELECT
from kgdiv.sparql import DIALECTS, EndpointConfig, execute_query
from tests.fixture_server import TieShufflingStore


def endpoint(dialect):
    return EndpointConfig(
        url=f"fixture:///{dialect}",
        dialect=dialect,
        page_size=500,
        max_requests_per_second=10_000,
    )


@pytest.fixture(scope="module")
def transport(kg_fixture_dir):
    return FixtureTransport(FixtureStore(kg_fixture_dir))


def politician_dicts(dialect, transport):
    """fetch_politicians' rows, each keyed by the snapshot header."""
    rows = fetch_politicians(endpoint(dialect), "2022-05-27", transport)
    return [dict(zip(POLITICIANS_CSV_HEADER, row, strict=True)) for row in rows]


def party_dicts(dialect, transport):
    """fetch_parties' rows, each keyed by the snapshot header."""
    rows = fetch_parties(endpoint(dialect), "2022-05-27", transport)
    return [dict(zip(PARTIES_CSV_HEADER, row, strict=True)) for row in rows]


def test_builtin_templates_cover_all_dialects():
    catalog = builtin_templates()
    for dialect in DIALECTS:
        assert (dialect, "politicians") in catalog
        assert (dialect, "parties") in catalog
    assert ("nl-dbpedia", "parties_via_usage") in catalog
    for (dialect, _), template in catalog.items():
        assert template.dialect == dialect
        assert template.query_text.startswith("#template=")
        # ordered by every selected variable, so that the order is total
        selected = re.search(SELECT, template.query_text).group(1).split()
        order = re.search(r"\nORDER BY ([?\w ]+)$", template.query_text).group(1).split()
        assert sorted(order) == sorted(selected)


def test_templates_select_the_columns_the_fetches_unpack():
    # fetch_politicians and fetch_parties unpack execute_query's values,
    # which come in the order each template's SELECT names them
    politician = ["politician", "label", "party", "start", "end", "death", "position"]
    party = ["party", "label", "country", "alignment"]
    expected = {"politicians": politician, "parties": party, "parties_via_usage": party}
    for (_, template_id), template in builtin_templates().items():
        selected = re.search(SELECT, template.query_text)
        names = selected.group(1).replace("?", "").split()
        assert names == expected.get(template_id, ["member"])


class TestFetchPoliticians:
    def test_one_row_per_affiliation(self, transport):
        rows = politician_dicts("en-dbpedia", transport)
        by_pol = {}
        for row in rows:
            by_pol.setdefault(row["politician_id"], []).append(row)
        two_party = by_pol["http://dbpedia.org/resource/Dirk_Janssens"]
        assert len(two_party) == 2
        assert {r["party_id"] for r in two_party} == {
            "http://dbpedia.org/resource/Christen-Democratisch_en_Vlaams",
            "http://dbpedia.org/resource/Open_Vlaamse_Liberalen_en_Democraten",
        }

    def test_missing_fields_become_empty(self, transport):
        rows = politician_dicts("en-dbpedia", transport)
        undated = [
            r
            for r in rows
            if r["politician_id"] == "http://dbpedia.org/resource/Joris_Segers"
        ]
        assert undated[0]["aff_start"] == ""
        assert undated[0]["aff_end"] == ""
        assert undated[0]["death_date"] == ""

    def test_wikidata_datetimes_clipped_to_dates(self, transport):
        rows = politician_dicts("wikidata", transport)
        dated = [r for r in rows if r["aff_start"]]
        assert dated
        for row in dated:
            assert len(row["aff_start"]) == 10

    def test_wikidata_positions_populated(self, transport):
        rows = politician_dicts("wikidata", transport)
        assert all(r["position"].startswith("http://www.wikidata.org/") for r in rows)

    def test_columns_identical_across_dialects(self, transport):
        for dialect in DIALECTS:
            rows = fetch_politicians(endpoint(dialect), "2022-05-27", transport)
            assert {len(row) for row in rows} == {len(POLITICIANS_CSV_HEADER)}
            for row in politician_dicts(dialect, transport):
                assert row["source"] == dialect
                assert row["retrieved_at"] == "2022-05-27"


class TestFetchParties:
    def test_direct_query(self, transport):
        rows = fetch_parties(endpoint("en-dbpedia"), "2022-05-27", transport)
        assert {len(row) for row in rows} == {len(PARTIES_CSV_HEADER)}
        ids = {r["party_id"] for r in party_dicts("en-dbpedia", transport)}
        assert "http://dbpedia.org/resource/New_Flemish_Alliance" in ids

    def test_nl_dbpedia_usage_workaround(self, transport):
        # the direct nl-dbpedia query yields nothing; the fallback must kick in
        rows = party_dicts("nl-dbpedia", transport)
        assert rows
        assert {r["party_id"] for r in rows} >= {
            "http://nl.dbpedia.org/resource/Nieuw-Vlaamse_Alliantie"
        }

    def test_miscategorized_party_still_emitted(self, transport):
        ids = {r["party_id"] for r in party_dicts("en-dbpedia", transport)}
        assert (
            "http://dbpedia.org/resource/Women%27s_Equality_Party_(New_York)" in ids
        )


def test_coverage_counts_match_recorded_fixtures(transport):
    en = coverage_counts(endpoint("en-dbpedia"), transport)
    wd = coverage_counts(endpoint("wikidata"), transport)
    assert en == {
        "belgian_chamber_members": 143,
        "flemish_parliament_members": 21,
        "us_house_members": 14886,
    }
    assert wd == {
        "belgian_chamber_members": 2996,
        "flemish_parliament_members": 464,
        "us_house_members": 11160,
    }


@given(st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_property_pages_give_every_row_whatever_the_order_of_ties(data, seed):
    # each bundled template over a dataset of many ties, served sorted by
    # the template's ORDER BY with ties in a new order on every request
    catalog = builtin_templates()
    selected = {key: re.search(SELECT, t.query_text).group(1).split() for key, t in catalog.items()}
    values = st.sampled_from(["", "a", "b"])  # "" is unbound
    rows = {
        len(names): set(data.draw(st.lists(st.tuples(*[values] * len(names)), max_size=30)))
        for names in selected.values()
    }
    with tempfile.TemporaryDirectory() as root:
        for (dialect, template_id), names in selected.items():
            names = [name[1:] for name in names]
            bindings = [
                {name: {"type": "literal", "value": v} for name, v in zip(names, row) if v}
                for row in rows[len(names)]
            ]
            path = Path(root, dialect, f"{template_id}.json")
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps({"variables": names, "bindings": bindings}))
        transport = FixtureTransport(TieShufflingStore(root, seed))
        for (dialect, template_id), template in catalog.items():
            for page_size in (1, 2, 3, 7):
                config = endpoint(dialect)._replace(page_size=page_size)
                got = list(execute_query(config, template, transport=transport))
                assert sorted(got) == sorted(rows[len(selected[dialect, template_id])]), (
                    template_id,
                    page_size,
                )


def test_snapshot_csv_round_trip(tmp_path, transport):
    politicians = list(fetch_politicians(endpoint("en-dbpedia"), "2022-05-27", transport))
    parties = list(fetch_parties(endpoint("en-dbpedia"), "2022-05-27", transport))
    pol_path = tmp_path / "politicians.csv"
    par_path = tmp_path / "parties.csv"
    write_politicians_csv(pol_path, politicians)
    write_parties_csv(par_path, parties)

    header = pol_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(POLITICIANS_CSV_HEADER)
    header = par_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(PARTIES_CSV_HEADER)

    assert read_politicians_csv(pol_path) == politicians
    assert read_parties_csv(par_path) == [dict(zip(PARTIES_CSV_HEADER, row)) for row in parties]


#: rows that csv.writer may write otherwise than joined with ","; hypothesis
#: draws the first ones most, and the last five send a whole chunk to it
ODD_CSV_ROWS = [
    ['"', "c"], ["a\nb", "c"], ["a,b", "c"], ["a\rb", "c"], [",", ""], ['a"b', "c"],
    ["a", "\r\n"], ["a", "\x00"], [], [""], ["a"], ["a", 1], [2, -3],
]


@given(
    plain=st.lists(
        st.lists(st.text(st.sampled_from("ab \u00e9"), max_size=3), min_size=2, max_size=4),
        min_size=1,
        max_size=8,
    ),
    copies=st.integers(0, 20),
    odd=st.lists(st.tuples(st.integers(0, 600), st.sampled_from(ODD_CSV_ROWS)), max_size=3),
)
# each odd row alone in a chunk of 32 rows, 40 rows apart
@example(plain=[["a", "b"]] * 16, copies=33, odd=[(40 * k, r) for k, r in enumerate(ODD_CSV_ROWS)])
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_write_csv_writes_csv_writer_bytes(tmp_path, plain, copies, odd):
    # up to 160 plain rows and a few odd ones anywhere, so that the writer's
    # chunks of 32 rows are plain or mixed and the odd rows fall at any offset
    rows = plain * copies
    for at, row in odd:
        rows.insert(at % (len(rows) + 1), row)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["h1", "h2"])
    writer.writerows(rows)
    path = tmp_path / "out.csv"
    write_csv(path, ["h1", "h2"], iter(rows))
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


def test_read_csv_rejects_missing_columns(tmp_path):
    bad = tmp_path / "politicians.csv"
    bad.write_text("foo,bar\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="lacks expected columns"):
        read_politicians_csv(bad)
