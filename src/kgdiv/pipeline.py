"""Actor detection and enrichment: rule matching, annotation, ontology mapping.

Actors are found in text through user-defined surface pattern rules and
through an external annotation endpoint that links spans to
knowledge-base resources. Linked entities are then enriched into
feature pairs by mapping their predicates through a local ontology, with
linked resources of the recognized actor types expanded one hop deep.
Errors and biases of linked resources flow into the root's features by
design; the dotted feature-name prefix records the path they came in by.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Protocol

from . import warn
from .csvformat import csv_columns, numbered_csv_rows
from .diversity import ACTOR_TYPES, FeatureSet

#: target prefix marking an unnamed category instead of a linked resource
UNNAMED_PREFIX = "unnamed:"


class AnnotationError(RuntimeError):
    """Base class for annotation endpoint failures."""


class AnnotationTransportError(AnnotationError):
    """The annotation endpoint could not be reached."""


class AnnotationResponseError(AnnotationError):
    """The annotation endpoint returned an unusable document."""


class EnrichmentError(RuntimeError):
    """The root resource's triples could not be retrieved."""


@dataclass(frozen=True)
class TextDocument:
    doc_id: str
    text: str


@dataclass(frozen=True)
class MatchRule:
    pattern: str
    case_sensitive: bool = True
    target_entity: str = ""

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("rule pattern must be nonempty")

    @cached_property
    def regex(self) -> re.Pattern[str]:
        """The pattern as a literal surface regex, compiled once per rule.

        `match_rules` builds it only for a case-insensitive rule, and only
        once the rule's folded pattern occurs in a document's folded text.
        """
        flags = 0 if self.case_sensitive else re.IGNORECASE
        return re.compile(re.escape(self.pattern), flags)

    @cached_property
    def _folded(self) -> str:
        return _fold(self.pattern)

    @cached_property
    def _folds_in_place(self) -> bool:
        return _folds_in_place(self.pattern)


@dataclass(frozen=True)
class EntityMention:
    doc_id: str
    char_start: int
    char_end: int
    surface: str
    resolved_id: str | None
    provenance: str

    def __post_init__(self) -> None:
        if self.char_start >= self.char_end:
            raise ValueError("mention span must be non-empty")


@dataclass(frozen=True)
class LocalOntology:
    """Maps source predicates to feature names and classes to actor types."""

    property_map: Mapping[tuple[str, str], str]
    actor_type_classes: Mapping[tuple[str, str], str]

    def __post_init__(self) -> None:
        for key, name in self.property_map.items():
            if not name:
                raise ValueError(f"empty feature name for predicate {key}")
        for key, actor_type in self.actor_type_classes.items():
            if actor_type not in ACTOR_TYPES:
                raise ValueError(
                    f"class {key} mapped to unknown actor type {actor_type!r}"
                )

    def feature_name(self, dialect: str, predicate: str) -> str | None:
        return self.property_map.get((dialect, predicate))

    def classify(self, dialect: str, class_ids: Iterable[str]) -> str | None:
        for class_id in class_ids:
            actor_type = self.actor_type_classes.get((dialect, class_id))
            if actor_type is not None:
                return actor_type
        return None


class TripleSource(Protocol):
    """Provider of (predicate, object) pairs and type classes per resource."""

    dialect: str

    def predicates(self, resource_id: str) -> Sequence[tuple[str, str]]: ...

    def types(self, resource_id: str) -> Sequence[str]: ...


_TYPE_PREDICATES = frozenset(
    {
        "a",
        "rdf:type",
        "type",
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
        "http://www.wikidata.org/prop/direct/P31",
        "P31",
    }
)


@dataclass
class CsvTripleSource:
    """Triples from a CSV of subject,predicate,object rows.

    Lookups go through a subject index built on the first lookup, so the
    rows must not change after that.
    """

    rows: list[tuple[str, str, str]]
    dialect: str = "generic"

    @classmethod
    def from_file(cls, path: str | Path, dialect: str = "generic") -> "CsvTripleSource":
        rows = [
            (subject.strip(), predicate.strip(), obj.strip())
            for subject, predicate, obj in csv_columns(
                path, ("subject", "predicate", "object")
            )
        ]
        return cls(rows=rows, dialect=dialect)

    @cached_property
    def _by_subject(self) -> dict[str, list[tuple[str, str, str]]]:
        """The rows of each subject, in file order, built on first lookup."""
        index: dict[str, list[tuple[str, str, str]]] = {}
        for row in self.rows:
            index.setdefault(row[0], []).append(row)
        return index

    def predicates(self, resource_id: str) -> list[tuple[str, str]]:
        return [(p, o) for _, p, o in self._by_subject.get(resource_id, ())]

    def types(self, resource_id: str) -> list[str]:
        return [
            o
            for _, p, o in self._by_subject.get(resource_id, ())
            if p in _TYPE_PREDICATES
        ]


def match_rules(doc: TextDocument, rules: Sequence[MatchRule]) -> list[EntityMention]:
    """All non-overlapping occurrences of each rule in the raw text.

    Matches of different rules may overlap; matches of one rule never do.
    A case-sensitive rule is found by substring search and builds no
    regex; one whose pattern is absent costs one `in` test and nothing
    else. A case-insensitive rule builds its `MatchRule.regex` only if its
    folded pattern occurs in the folded text; that test never drops a
    match, so the regex decides every case-insensitive span. Where every
    character of the text and of the pattern folds to exactly one
    character, folded positions are text positions, so the regex is only
    tried at each occurrence of the folded pattern; otherwise it scans
    the whole text.
    """
    text = doc.text
    folded_text: str | None = None
    text_folds_in_place = False
    mentions: list[EntityMention] = []
    for rule in rules:
        if rule.case_sensitive:
            if rule.pattern not in text:
                continue
            spans = _literal_spans(text, rule.pattern)
        else:
            if folded_text is None:
                folded_text = _fold(text)
                text_folds_in_place = _folds_in_place(text)
            first = folded_text.find(rule._folded)
            if first < 0:
                continue
            if text_folds_in_place and rule._folds_in_place:
                spans = _anchored_spans(text, folded_text, rule, first)
            else:
                spans = (
                    (m.start(), m.end(), m.group(0)) for m in rule.regex.finditer(text)
                )
        resolved_id = rule.target_entity or None
        mentions.extend(
            EntityMention(
                doc_id=doc.doc_id,
                char_start=start,
                char_end=end,
                surface=surface,
                resolved_id=resolved_id,
                provenance="rule",
            )
            for start, end, surface in spans
        )
    mentions.sort(key=lambda m: (m.char_start, m.char_end, m.resolved_id or ""))
    return mentions


def _literal_spans(text: str, pattern: str) -> Iterator[tuple[int, int, str]]:
    """The non-overlapping occurrences of a nonempty literal, left to right,
    as `re.finditer(re.escape(pattern), text)` finds them."""
    start = text.find(pattern)
    while start >= 0:
        end = start + len(pattern)
        yield start, end, pattern
        start = text.find(pattern, end)


def _anchored_spans(
    text: str, folded_text: str, rule: MatchRule, first: int
) -> Iterator[tuple[int, int, str]]:
    """The spans of `rule.regex.finditer(text)`, found by trying the regex
    only where the folded pattern occurs in `folded_text`, from `first` on.

    Both the text and the pattern must fold in place: then every span the
    regex matches folds to the folded pattern at the same position, so no
    span is skipped. A failed check moves on by one character, a match to
    its end, as `finditer` does.
    """
    regex = rule.regex
    folded = rule._folded
    pos = first
    while pos >= 0:
        m = regex.match(text, pos)
        if m is None:
            pos = folded_text.find(folded, pos + 1)
        else:
            end = m.end()
            yield pos, end, m.group(0)
            pos = folded_text.find(folded, end)


def _fold(s: str) -> str:
    """Case-fold `s` one character at a time so that every pair of
    characters `re.IGNORECASE` equates folds to the same string: casefold
    alone keeps dotless ı apart from i, and İ as i plus a combining dot."""
    return s.casefold().replace("\u0307", "").replace("\u0131", "i")


def _folds_in_place(s: str) -> bool:
    """Whether every character of `s` folds to exactly one character, so
    that each position of `_fold(s)` is the same position of `s`. Equal
    lengths are not enough: ß, a, a combining dot and k fold to 'ssak',
    which puts the a one place late."""
    return all(len(_fold(c)) == 1 for c in set(s))


@dataclass
class AnnotationClient:
    """Client for a Spotlight-style entity annotation HTTP endpoint."""

    endpoint_url: str
    timeout: float = 30.0

    def fetch(self, text: str) -> bytes:
        import requests  # only live annotation pays its import

        try:
            resp = requests.post(
                self.endpoint_url,
                data={"text": text},
                headers={"Accept": "application/json"},
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise AnnotationTransportError(
                f"annotation request to {self.endpoint_url} failed: {exc}"
            ) from exc
        if resp.status_code != 200:
            raise AnnotationTransportError(
                f"annotation endpoint returned HTTP {resp.status_code}"
            )
        return resp.content


def parse_annotation_response(doc: TextDocument, body: bytes) -> list[EntityMention]:
    """Parse a Spotlight-style JSON annotation document into mentions."""
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise AnnotationResponseError(f"annotation body is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise AnnotationResponseError("annotation body is not a JSON object")
    resources = payload.get("Resources", [])
    mentions = []
    for item in resources:
        try:
            uri = item["@URI"]
            surface = item["@surfaceForm"]
            offset = int(item["@offset"])
        except (KeyError, TypeError, ValueError) as exc:
            raise AnnotationResponseError(f"malformed annotation entry: {exc}") from exc
        end = offset + len(surface)
        if not 0 <= offset < end <= len(doc.text):
            raise AnnotationResponseError(
                f"annotation span [{offset}, {end}) outside document {doc.doc_id!r}"
            )
        mentions.append(
            EntityMention(
                doc_id=doc.doc_id,
                char_start=offset,
                char_end=end,
                surface=surface,
                resolved_id=uri,
                provenance="annotator",
            )
        )
    return mentions


def annotate(doc: TextDocument, client: AnnotationClient) -> list[EntityMention]:
    """Annotate a document via the external endpoint.

    Transport and response problems raise distinct errors. Type filtering
    happens later, at enrichment time, when the resource's classes are
    known.
    """
    return parse_annotation_response(doc, client.fetch(doc.text))


def enrich_entity(
    root_id: str, triples: TripleSource, ontology: LocalOntology
) -> FeatureSet:
    """Map a resource's predicates to feature pairs, expanding one hop.

    Linked resources reached through a mapped predicate are expanded once
    if they belong to one of the recognized actor types; their mapped
    predicates are prefixed with the linking feature name. Failures on
    linked resources degrade to a partial feature set with a warning; only
    the root's retrieval failure is fatal.
    """
    try:
        root_pairs = triples.predicates(root_id)
    except Exception as exc:
        raise EnrichmentError(f"cannot retrieve triples for {root_id!r}: {exc}") from exc

    features: set[tuple[str, str]] = set()
    for predicate, obj in root_pairs:
        name = ontology.feature_name(triples.dialect, predicate)
        if name is None:
            continue
        features.add((name, obj))
        if obj == root_id:
            continue
        try:
            obj_types = triples.types(obj)
            if ontology.classify(triples.dialect, obj_types) is None:
                continue
            linked_pairs = triples.predicates(obj)
        except Exception as exc:
            warn(
                __name__,
                "enrichment of %r: linked resource %r failed (%s); keeping "
                "partial features",
                root_id,
                obj,
                exc,
            )
            continue
        for linked_predicate, linked_obj in linked_pairs:
            linked_name = ontology.feature_name(triples.dialect, linked_predicate)
            if linked_name is None:
                continue
            features.add((f"{name}.{linked_name}", linked_obj))
    return FeatureSet(frozenset(features))


def aggregate_mentions(mentions: Iterable[EntityMention]) -> dict[str, int]:
    """Occurrence counts per resolved id (mentions without one count under
    their surface string)."""
    counts: dict[str, int] = {}
    for mention in mentions:
        key = mention.resolved_id if mention.resolved_id is not None else mention.surface
        counts[key] = counts.get(key, 0) + 1
    return counts


def load_rules(path: str | Path) -> list[MatchRule]:
    """Load match rules from a CSV with columns pattern, case_sensitive,
    match_layer, target. A missing or empty case_sensitive means true, and
    a missing or empty match_layer means surface. A bad value is an error
    that names the file and the line of its row.

    Rows with match_layer lemma are skipped with a warning: plain-text
    ingestion carries no lemma layer.
    """
    rules = []
    lemma_rules = 0
    for line, row in numbered_csv_rows(path, ("pattern",)):
        try:
            rule = MatchRule(
                pattern=row["pattern"],
                case_sensitive=_parse_bool(row.get("case_sensitive"), default=True),
                target_entity=(row.get("target") or "").strip(),
            )
            layer = (row.get("match_layer") or "surface").strip()
            if layer not in ("surface", "lemma"):
                raise ValueError(f"match_layer must be surface or lemma, got {layer!r}")
        except ValueError as exc:
            raise ValueError(f"{path} line {line}: {exc}") from exc
        if layer == "lemma":
            lemma_rules += 1
        else:
            rules.append(rule)
    if lemma_rules:
        warn(
            __name__,
            "skipping %d lemma rule(s); corpus ingestion provides no lemma layer",
            lemma_rules,
        )
    return rules


def _parse_bool(raw: str | None, default: bool) -> bool:
    value = (raw or "").strip().lower()
    if not value:
        return default
    if value in ("1", "true", "yes", "y"):
        return True
    if value in ("0", "false", "no", "n"):
        return False
    raise ValueError(f"cannot parse boolean {raw!r}")


def builtin_ontology() -> LocalOntology:
    """Default predicate and class mappings for the supported dialects.

    The generic dialect maps bare predicate names onto themselves, for
    locally curated triple files.
    """
    property_map: dict[tuple[str, str], str] = {}
    actor_type_classes: dict[tuple[str, str], str] = {}

    generic_predicates = (
        "party",
        "ideology",
        "country",
        "government-type",
        "eu-membership",
        "alignment",
        "occupation",
    )
    for predicate in generic_predicates:
        property_map[("generic", predicate)] = predicate
    actor_type_classes.update(
        {
            ("generic", "person"): "person",
            ("generic", "organisation"): "organisation",
            ("generic", "party"): "organisation",
            ("generic", "country"): "geopolitical-entity",
            ("generic", "geopolitical-entity"): "geopolitical-entity",
        }
    )

    dbo = "http://dbpedia.org/ontology/"
    for dialect in ("en-dbpedia", "nl-dbpedia"):
        property_map.update(
            {
                (dialect, f"{dbo}party"): "party",
                (dialect, f"{dbo}ideology"): "ideology",
                (dialect, f"{dbo}country"): "country",
                (dialect, f"{dbo}governmentType"): "government-type",
                (dialect, f"{dbo}occupation"): "occupation",
            }
        )
        actor_type_classes.update(
            {
                (dialect, f"{dbo}Person"): "person",
                (dialect, f"{dbo}Politician"): "person",
                (dialect, f"{dbo}Organisation"): "organisation",
                (dialect, f"{dbo}PoliticalParty"): "organisation",
                (dialect, f"{dbo}Country"): "geopolitical-entity",
            }
        )

    wdt = "http://www.wikidata.org/prop/direct/"
    wd = "http://www.wikidata.org/entity/"
    property_map.update(
        {
            ("wikidata", f"{wdt}P102"): "party",
            ("wikidata", f"{wdt}P1142"): "ideology",
            ("wikidata", f"{wdt}P27"): "country",
            ("wikidata", f"{wdt}P17"): "country",
            ("wikidata", f"{wdt}P122"): "government-type",
            ("wikidata", f"{wdt}P106"): "occupation",
        }
    )
    actor_type_classes.update(
        {
            ("wikidata", f"{wd}Q5"): "person",
            ("wikidata", f"{wd}Q7278"): "organisation",
            ("wikidata", f"{wd}Q43229"): "organisation",
            ("wikidata", f"{wd}Q6256"): "geopolitical-entity",
        }
    )
    return LocalOntology(
        property_map=property_map, actor_type_classes=actor_type_classes
    )
