"""Built-in query templates per knowledge-source dialect and snapshot CSVs.

Source divergences live in the templates, not in code branches: the
English DBpedia encodes politicians' active terms with date properties,
while the Dutch DBpedia and Wikidata mostly express positions held; the
Dutch DBpedia additionally needs the party-usage workaround because its
party entities are not reachable through a direct type+country query.
Each template starts with a #template= comment (a plain SPARQL comment)
so offline fixture backends can dispatch on it.

The snapshot CSV formats, and their readers, live in csvformat.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from pathlib import Path

from .csvformat import PARTIES_CSV_HEADER, POLITICIANS_CSV_HEADER, write_csv
# callers still read snapshots through catalog
from .csvformat import read_parties_csv, read_politicians_csv  # noqa: F401
from .sparql import EndpointConfig, QueryTemplate, Transport, execute_query

COVERAGE_TEMPLATE_IDS = (
    "belgian_chamber_members",
    "flemish_parliament_members",
    "us_house_members",
)

_DATE10 = re.compile(r"^\d{4}-\d{2}-\d{2}")

_EN_PREFIXES = """\
PREFIX dbo: <http://dbpedia.org/ontology/>
PREFIX dbr: <http://dbpedia.org/resource/>
PREFIX dbc: <http://dbpedia.org/resource/Category:>
PREFIX dct: <http://purl.org/dc/terms/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
"""

_NL_PREFIXES = """\
PREFIX dbo: <http://dbpedia.org/ontology/>
PREFIX nlres: <http://nl.dbpedia.org/resource/>
PREFIX nlprop: <http://nl.dbpedia.org/property/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
"""

_WD_PREFIXES = """\
PREFIX wd: <http://www.wikidata.org/entity/>
PREFIX wdt: <http://www.wikidata.org/prop/direct/>
PREFIX p: <http://www.wikidata.org/prop/>
PREFIX ps: <http://www.wikidata.org/prop/statement/>
PREFIX pq: <http://www.wikidata.org/prop/qualifier/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
"""

def _tpl(template_id: str, dialect: str, query: str) -> QueryTemplate:
    return QueryTemplate(
        template_id=template_id,
        dialect=dialect,
        query_text=f"#template={template_id}\n{query}",
    )


def builtin_templates() -> dict[tuple[str, str], QueryTemplate]:
    """The full template catalog keyed by (dialect, template_id)."""
    # Each template orders by every variable it selects. SELECT DISTINCT
    # leaves no two rows equal in all of them, so the order is total: every
    # request sorts the rows the same way, and LIMIT/OFFSET pages neither
    # repeat nor skip a row, whatever order an endpoint gives tied rows.
    templates = [
        # --- politicians with party affiliations ------------------------
        _tpl(
            "politicians",
            "en-dbpedia",
            _EN_PREFIXES
            + """\
SELECT DISTINCT ?politician ?label ?party ?start ?end ?death ?position WHERE {
  ?politician a dbo:Politician ;
              dbo:party ?party .
  ?party dbo:country dbr:Belgium .
  OPTIONAL { ?politician rdfs:label ?label . FILTER (lang(?label) = "en") }
  OPTIONAL { ?politician dbo:activeYearsStartDate ?start }
  OPTIONAL { ?politician dbo:activeYearsEndDate ?end }
  OPTIONAL { ?politician dbo:deathDate ?death }
  OPTIONAL { ?politician dbo:office ?position }
}
ORDER BY ?politician ?party ?label ?start ?end ?death ?position""",
        ),
        _tpl(
            "politicians",
            "nl-dbpedia",
            _NL_PREFIXES
            + """\
SELECT DISTINCT ?politician ?label ?party ?start ?end ?death ?position WHERE {
  ?politician nlprop:partij ?party .
  OPTIONAL { ?politician rdfs:label ?label . FILTER (lang(?label) = "nl") }
  OPTIONAL { ?politician nlprop:begin ?start }
  OPTIONAL { ?politician nlprop:einde ?end }
  OPTIONAL { ?politician dbo:deathDate ?death }
  OPTIONAL { ?politician nlprop:functie ?position }
}
ORDER BY ?politician ?party ?label ?start ?end ?death ?position""",
        ),
        _tpl(
            "politicians",
            "wikidata",
            _WD_PREFIXES
            + """\
SELECT DISTINCT ?politician ?label ?party ?start ?end ?death ?position WHERE {
  ?politician wdt:P106 wd:Q82955 ;
              wdt:P27 wd:Q31 .
  ?politician p:P102 ?aff .
  ?aff ps:P102 ?party .
  OPTIONAL { ?aff pq:P580 ?start }
  OPTIONAL { ?aff pq:P582 ?end }
  OPTIONAL { ?politician wdt:P570 ?death }
  OPTIONAL { ?politician p:P39 ?held . ?held ps:P39 ?position }
  OPTIONAL { ?politician rdfs:label ?label . FILTER (lang(?label) = "nl") }
}
ORDER BY ?politician ?party ?label ?start ?end ?death ?position""",
        ),
        # --- parties -----------------------------------------------------
        _tpl(
            "parties",
            "en-dbpedia",
            _EN_PREFIXES
            + """\
SELECT DISTINCT ?party ?label ?country ?alignment WHERE {
  ?party a dbo:PoliticalParty ;
         dbo:country ?country .
  FILTER (?country = dbr:Belgium)
  OPTIONAL { ?party rdfs:label ?label . FILTER (lang(?label) = "en") }
  OPTIONAL { ?party dbo:ideology ?alignment }
}
ORDER BY ?party ?label ?country ?alignment""",
        ),
        _tpl(
            "parties",
            "nl-dbpedia",
            _NL_PREFIXES
            + """\
SELECT DISTINCT ?party ?label ?country ?alignment WHERE {
  ?party a dbo:PoliticalParty ;
         dbo:country ?country .
  FILTER (?country = nlres:België)
  OPTIONAL { ?party rdfs:label ?label . FILTER (lang(?label) = "nl") }
  OPTIONAL { ?party nlprop:ideologie ?alignment }
}
ORDER BY ?party ?label ?country ?alignment""",
        ),
        # The Dutch DBpedia's direct type+country query returns nothing for
        # its party entities, so fall back to entities used as the party
        # property of someone, restricted to Belgium.
        _tpl(
            "parties_via_usage",
            "nl-dbpedia",
            _NL_PREFIXES
            + """\
SELECT DISTINCT ?party ?label ?country ?alignment WHERE {
  ?someone nlprop:partij ?party .
  ?party nlprop:land ?country .
  FILTER (?country = nlres:België)
  OPTIONAL { ?party rdfs:label ?label . FILTER (lang(?label) = "nl") }
  OPTIONAL { ?party nlprop:ideologie ?alignment }
}
ORDER BY ?party ?label ?country ?alignment""",
        ),
        _tpl(
            "parties",
            "wikidata",
            _WD_PREFIXES
            + """\
SELECT DISTINCT ?party ?label ?country ?alignment WHERE {
  ?party wdt:P31 wd:Q7278 ;
         wdt:P17 ?country .
  FILTER (?country = wd:Q31)
  OPTIONAL { ?party wdt:P1142 ?alignment }
  OPTIONAL { ?party rdfs:label ?label . FILTER (lang(?label) = "nl") }
}
ORDER BY ?party ?label ?country ?alignment""",
        ),
        # --- coverage counts ----------------------------------------------
        _tpl(
            "belgian_chamber_members",
            "en-dbpedia",
            _EN_PREFIXES
            + """\
SELECT DISTINCT ?member WHERE {
  ?member dct:subject <http://dbpedia.org/resource/Category:Members_of_the_Chamber_of_Representatives_(Belgium)> .
}
ORDER BY ?member""",
        ),
        _tpl(
            "belgian_chamber_members",
            "wikidata",
            _WD_PREFIXES
            + """\
SELECT DISTINCT ?member WHERE {
  ?member p:P39 ?held .
  ?held ps:P39 wd:Q15705021 .
}
ORDER BY ?member""",
        ),
        _tpl(
            "flemish_parliament_members",
            "en-dbpedia",
            _EN_PREFIXES
            + """\
SELECT DISTINCT ?member WHERE {
  ?member dct:subject dbc:Members_of_the_Flemish_Parliament .
}
ORDER BY ?member""",
        ),
        _tpl(
            "flemish_parliament_members",
            "wikidata",
            _WD_PREFIXES
            + """\
SELECT DISTINCT ?member WHERE {
  ?member p:P39 ?held .
  ?held ps:P39 wd:Q19945604 .
}
ORDER BY ?member""",
        ),
        _tpl(
            "us_house_members",
            "en-dbpedia",
            _EN_PREFIXES
            + """\
SELECT DISTINCT ?member WHERE {
  ?member dct:subject dbc:Members_of_the_United_States_House_of_Representatives .
}
ORDER BY ?member""",
        ),
        _tpl(
            "us_house_members",
            "wikidata",
            _WD_PREFIXES
            + """\
SELECT DISTINCT ?member WHERE {
  ?member p:P39 ?held .
  ?held ps:P39 wd:Q13218630 .
}
ORDER BY ?member""",
        ),
    ]
    return {(t.dialect, t.template_id): t for t in templates}


def _clip_date(value: str) -> str:
    """Reduce datetime literals to their ISO date part."""
    return value[:10] if len(value) > 10 and _DATE10.match(value) else value


def fetch_politicians(
    endpoint: EndpointConfig,
    retrieved_at: str,
    transport: Transport | None = None,
) -> Iterator[tuple[str, ...]]:
    """The politicians snapshot, one tuple per affiliation in
    POLITICIANS_CSV_HEADER order, fetched as the iterator is read."""
    template = builtin_templates()[(endpoint.dialect, "politicians")]
    dialect = endpoint.dialect
    # the values come in the template's SELECT order
    return (
        (
            dialect,
            politician,
            label,
            party,
            _clip_date(start),
            _clip_date(end),
            _clip_date(death),
            position,
            retrieved_at,
        )
        for politician, label, party, start, end, death, position in execute_query(
            endpoint, template, transport=transport
        )
    )


def fetch_parties(
    endpoint: EndpointConfig,
    retrieved_at: str,
    transport: Transport | None = None,
) -> Iterator[tuple[str, ...]]:
    """The parties snapshot, one tuple per party in PARTIES_CSV_HEADER
    order, fetched as the iterator is read. The direct query's first row,
    or its lack, decides on the usage-based fallback."""
    catalog = builtin_templates()
    bindings = execute_query(
        endpoint, catalog[(endpoint.dialect, "parties")], transport=transport
    )
    first = next(bindings, None)
    fallback = catalog.get((endpoint.dialect, "parties_via_usage"))
    if first is not None:
        bindings = chain((first,), bindings)
    elif fallback is not None:
        bindings = execute_query(endpoint, fallback, transport=transport)
    # the values come in the templates' SELECT order
    for party, label, country, alignment in bindings:
        yield endpoint.dialect, party, label, country, alignment, retrieved_at


def coverage_counts(
    endpoint: EndpointConfig,
    transport: Transport | None = None,
) -> dict[str, int]:
    """Distinct-member counts of the three parliamentary coverage queries."""
    catalog = builtin_templates()
    counts = {}
    for template_id in COVERAGE_TEMPLATE_IDS:
        rows = execute_query(
            endpoint, catalog[(endpoint.dialect, template_id)], transport=transport
        )
        counts[template_id] = sum(1 for _ in rows)
    return counts


def write_politicians_csv(path: str | Path, rows: Iterable[Sequence[str]]) -> int:
    """Write fetch_politicians' tuples as they are; gives their number."""
    return write_csv(Path(path), POLITICIANS_CSV_HEADER, rows)


def write_parties_csv(path: str | Path, rows: Iterable[Sequence[str]]) -> int:
    """Write fetch_parties' tuples as they are; gives their number."""
    return write_csv(Path(path), PARTIES_CSV_HEADER, rows)
