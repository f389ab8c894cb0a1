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

import re
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from pathlib import Path

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


TextDocument = namedtuple("TextDocument", "doc_id text")


class MatchRule(
    namedtuple("MatchRule", "pattern case_sensitive target_entity", defaults=(True, ""))
):
    # no __slots__: the cached regex keeps its value in a __dict__

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.pattern:
            raise ValueError("rule pattern must be nonempty")
        return self

    @cached_property
    def regex(self) -> re.Pattern[str]:
        """The pattern as a literal surface regex, compiled once per rule.

        `rule_counts` builds it only for a case-insensitive rule, only once
        the rule's folded pattern occurs in a document's folded text, and
        only where the text or the pattern is not ASCII.
        """
        flags = 0 if self.case_sensitive else re.IGNORECASE
        return re.compile(re.escape(self.pattern), flags)


class EntityMention(
    namedtuple(
        "EntityMention", "doc_id char_start char_end surface resolved_id provenance"
    )
):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.char_start >= self.char_end:
            raise ValueError("mention span must be non-empty")
        return self


class LocalOntology(namedtuple("LocalOntology", "property_map actor_type_classes")):
    """Maps source predicates to feature names and classes to actor types."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for key, name in self.property_map.items():
            if not name:
                raise ValueError(f"empty feature name for predicate {key}")
        for key, actor_type in self.actor_type_classes.items():
            if actor_type not in ACTOR_TYPES:
                raise ValueError(
                    f"class {key} mapped to unknown actor type {actor_type!r}"
                )
        return self

    def classify(self, class_ids: Iterable[str]) -> str | None:
        """The actor type of the first class that has one, or None."""
        return next(filter(None, map(self.actor_type_classes.get, class_ids)), None)


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


class CsvTripleSource:
    """Triples from subject,predicate,object rows, each field stripped,
    held as each subject's (predicate, object) pairs in file order.

    Given an ontology, only the rows that scoring reads are kept, as they
    are read: those whose predicate the ontology maps, and type rows.
    Labels, abstracts, notes and every other predicate are dropped.

    Equal pairs are one tuple, so a source holds one pair and one object
    string per distinct pair, however many rows repeat it. `shared` maps
    each of them to itself, and `enrich_entity` keeps its feature pairs,
    linked feature names and linked resources' expansions there too, for
    as long as the source lives.
    """

    def __init__(
        self, rows: Iterable[Sequence[str]], ontology: LocalOntology | None = None
    ):
        if ontology is not None:
            # a kept predicate is held as the ontology's own string
            keep = {p: p for p in (*ontology.property_map, *_TYPE_PREDICATES)}
            rows = (
                (subject, keep[stripped], obj)
                for subject, predicate, obj in rows
                if (stripped := predicate.strip()) in keep
            )
        index: dict[str, list[tuple[str, str]]] = {}
        shared: dict = {}
        for subject, predicate, obj in rows:
            subject = subject.strip()
            pairs = index.get(subject)
            if pairs is None:
                index[subject] = pairs = []
            pair = (predicate.strip(), obj.strip())
            pairs.append(shared.setdefault(pair, pair))
        self._by_subject = index
        self.shared = shared

    @classmethod
    def from_file(
        cls, path: str | Path, ontology: LocalOntology | None = None
    ) -> "CsvTripleSource":
        return cls(csv_columns(path, ("subject", "predicate", "object")), ontology)

    def predicates(self, resource_id: str) -> list[tuple[str, str]]:
        return list(self._by_subject.get(resource_id, ()))

    def types(self, resource_id: str) -> list[str]:
        return [
            o for p, o in self._by_subject.get(resource_id, ()) if p in _TYPE_PREDICATES
        ]


def rule_counts(doc: TextDocument, rules: Sequence[MatchRule]) -> dict[str, int]:
    """Each rule's non-overlapping matches in the raw text, counted by the
    rule's target or, for a rule without one, by the matched surface. The
    keys come in rule order; `stirling_delta` does not depend on it.

    Matches of different rules may overlap; matches of one rule never do.
    One scan of the text finds every case-sensitive pattern, and one scan
    of the folded text every folded case-insensitive one; only the rules
    found are visited, in rule order. A case-sensitive rule's occurrences
    are its matches, and so are a case-insensitive rule's in ASCII text
    when its pattern is ASCII too: there `re.IGNORECASE` only equates
    ASCII case pairs, and the fold is `lower()`. Otherwise the rule's
    `MatchRule.regex` decides each of its spans: where the text and the
    pattern fold in place, folded positions are text positions, so it is
    tried only where the folded pattern occurs; elsewhere it scans the
    whole text.
    """
    text = doc.text
    index = rules._index if isinstance(rules, _RuleList) else _RuleIndex(rules)
    ascii_text = text.isascii()
    found = index.scan_sensitive(text)
    visits = [(k, found[pattern]) for pattern in found for k in index.sensitive[pattern]]
    if index.insensitive:
        anchored = index.anchored if _folds_in_place(text) else ()
        found = index.scan_insensitive(_fold(text))
        found[""] = None  # a pattern of combining dots folds to "", found everywhere
        visits += [
            (k, found[folded] if k in anchored else None)
            for folded in found
            for k in index.insensitive.get(folded, ())
        ]
    counts: dict[str, int] = {}
    for k, starts in sorted(visits):  # in rule order: each rule is visited once
        rule = rules[k]
        if starts is None:
            surfaces = (m.group(0) for m in rule.regex.finditer(text))
        else:
            exact = rule.case_sensitive or ascii_text and rule.pattern.isascii()
            match = None if exact else rule.regex.match
            surfaces = _surfaces(text, starts, len(rule.pattern), match)
        target = rule.target_entity
        for surface in surfaces:
            key = target or surface
            counts[key] = counts.get(key, 0) + 1
    return counts


def _surfaces(text: str, starts: list[int], length: int, match) -> Iterator[str]:
    """A rule's non-overlapping matches, left to right as `finditer` finds
    them, from the sorted positions where its (folded) pattern occurs:
    `match`, if given, decides each match, else each position starts one
    of the pattern's `length`."""
    end = 0
    for start in starts:
        if start < end:
            continue
        if match is None:
            end = start + length
            yield text[start:end]
        elif m := match(text, start):
            end = m.end()
            yield m.group(0)


class _RuleList(list):
    """The rules `load_rules` returns: a list that keeps the scan index it
    builds on its first match, so the rules must not change after that."""

    @cached_property
    def _index(self) -> _RuleIndex:
        return _RuleIndex(self)


class _RuleIndex:
    """The rules' positions by case-sensitive and by folded pattern, the
    case-insensitive ones that fold in place, and a scanner of each set."""

    def __init__(self, rules: Sequence[MatchRule]):
        self.sensitive: dict[str, list[int]] = {}
        self.insensitive: dict[str, list[int]] = {}
        self.anchored: set[int] = set()
        for k, rule in enumerate(rules):
            if rule.case_sensitive:
                self.sensitive.setdefault(rule.pattern, []).append(k)
                continue
            self.insensitive.setdefault(_fold(rule.pattern), []).append(k)
            if _folds_in_place(rule.pattern):
                self.anchored.add(k)
        self.scan_sensitive = _scanner(self.sensitive)
        self.scan_insensitive = _scanner(self.insensitive)


def _scanner(literals: Iterable[str]) -> Callable[[str], dict[str, list[int]]]:
    """A function from a text to the sorted start positions of each
    nonempty literal that occurs in it, overlapping occurrences too. It
    searches a regex of the literals' distinct prefixes of up to three
    characters (`_trie_branches`) once per position where one starts, and
    confirms there each literal whose prefix the match starts with."""
    by_prefix: dict[str, list[str]] = {}
    for literal in filter(None, literals):
        by_prefix.setdefault(literal[:3], []).append(literal)
    if not by_prefix:
        return lambda text: {}
    candidates = {
        prefix: [p for n in range(1, len(prefix) + 1) for p in by_prefix.get(prefix[:n], ())]
        for prefix in by_prefix
    }
    search = re.compile("|".join(_trie_branches(by_prefix, first=True))).search

    def occurrences(text: str) -> dict[str, list[int]]:
        found: dict[str, list[int]] = {}
        m = search(text)
        while m is not None:
            start = m.start()
            for literal in candidates[m.group()]:
                if text.startswith(literal, start):
                    found.setdefault(literal, []).append(start)
            m = search(text, start + 1)
        return found

    return occurrences


def _trie_branches(words: Iterable[str], first: bool = False) -> list[str]:
    """Regex alternatives that match the longest of the nonempty words at
    a position, nested by character: `ab(?:xy|[cd])?` and `e` for ab, abc,
    abd, abxy and e. The characters that only end words share a class,
    except `first` ones: those stay literals, so that sre can skip ahead
    to them."""
    branches, ends = [], []
    for char, group in groupby(sorted(words), itemgetter(0)):
        rests = [word[1:] for word in group]
        tails = [rest for rest in rests if rest]
        if not tails:
            (branches if first else ends).append(re.escape(char))
            continue
        nested = _trie_branches(tails)
        optional = "?" if len(tails) < len(rests) else ""
        if optional or len(nested) > 1:
            nested = [f"(?:{'|'.join(nested)}){optional}"]
        branches.append(re.escape(char) + nested[0])
    if ends:
        branches.append(ends[0] if len(ends) == 1 else f"[{''.join(ends)}]")
    return branches


def _fold(s: str) -> str:
    """Case-fold `s` one character at a time so that every pair of
    characters `re.IGNORECASE` equates folds to the same string: casefold
    alone keeps dotless ı apart from i, and İ as i plus a combining dot."""
    return s.casefold().replace("\u0307", "").replace("\u0131", "i")


def _folds_in_place(s: str) -> bool:
    """Whether every character of `s` folds to exactly one character, so
    that each position of `_fold(s)` is the same position of `s`. Equal
    lengths are not enough: ß, a, a combining dot and k fold to 'ssak',
    which puts the a one place late. Every ASCII character folds to one."""
    return s.isascii() or all(len(_fold(c)) == 1 for c in set(s))


class AnnotationClient:
    """Client for a Spotlight-style entity annotation HTTP endpoint."""

    def __init__(self, endpoint_url: str, timeout: float = 30.0):
        self.endpoint_url = endpoint_url
        self.timeout = timeout

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
    import json  # only annotation pays its import

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
    root_id: str, triples: CsvTripleSource, ontology: LocalOntology
) -> FeatureSet:
    """Map a resource's predicates to feature pairs, expanding one hop.

    Linked resources other than the root reached through a mapped
    predicate are expanded if they belong to one of the recognized actor
    types; their mapped predicates are prefixed with the linking feature
    name.

    Each distinct feature pair is one tuple, each linked feature name is
    built once, and each linked resource is classified and expanded once
    per feature name, whichever root links to it: all three are kept in
    the source's `shared` memo, where a pair equal to a triple pair, as
    under bare predicate names, is that pair itself.
    """
    names = ontology.property_map
    shared = triples.shared
    features: set[tuple[str, str]] = set()
    for predicate, obj in triples.predicates(root_id):
        name = names.get(predicate)
        if name is None:
            continue
        pair = (name, obj)
        features.add(pair := shared.setdefault(pair, pair))
        if obj == root_id:
            continue
        # a linked resource's expansion is keyed by a one-tuple, which no
        # pair and no linked name's key equals
        linked = shared.get((pair,))
        if linked is None:
            linked = []
            if ontology.classify(triples.types(obj)) is not None:
                for linked_predicate, linked_obj in triples.predicates(obj):
                    linked_name = names.get(linked_predicate)
                    if linked_name is None:
                        continue
                    # a linked name is keyed by a three-tuple, which no pair equals
                    dotted = shared.get(key := (name, ".", linked_name))
                    if dotted is None:
                        shared[key] = dotted = f"{name}.{linked_name}"
                    linked_pair = (dotted, linked_obj)
                    linked.append(shared.setdefault(linked_pair, linked_pair))
            shared[(pair,)] = linked = tuple(linked)
        features.update(linked)
    return FeatureSet(frozenset(features))


def aggregate_mentions(
    mentions: Iterable[EntityMention], counts: dict[str, int] | None = None
) -> dict[str, int]:
    """Occurrence counts per resolved id (mentions without one count under
    their surface string), added to `counts` if given."""
    counts = {} if counts is None else counts
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
    return _RuleList(rules)


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
    """Default predicate and class mappings, in one table for every source.

    Bare predicate and class names, as locally curated triple files use
    them, map onto themselves; the DBpedia and Wikidata IRIs of the same
    concepts map onto the same names. A bare name has no colon, so it
    never equals an IRI.
    """
    dbo = "http://dbpedia.org/ontology/"
    wdt = "http://www.wikidata.org/prop/direct/"
    wd = "http://www.wikidata.org/entity/"
    property_map: dict[str, str] = {}
    for name, iris in (
        ("party", (f"{dbo}party", f"{wdt}P102")),
        ("ideology", (f"{dbo}ideology", f"{wdt}P1142")),
        ("country", (f"{dbo}country", f"{wdt}P27", f"{wdt}P17")),
        ("government-type", (f"{dbo}governmentType", f"{wdt}P122")),
        ("eu-membership", ()),
        ("alignment", ()),
        ("occupation", (f"{dbo}occupation", f"{wdt}P106")),
    ):
        property_map.update(dict.fromkeys((name, *iris), name))
    actor_type_classes: dict[str, str] = {}
    for actor_type, classes in (
        ("person", ("person", f"{dbo}Person", f"{dbo}Politician", f"{wd}Q5")),
        ("organisation", ("organisation", f"{dbo}Organisation", f"{wd}Q43229")),
        ("organisation", ("party", f"{dbo}PoliticalParty", f"{wd}Q7278")),  # parties
        ("geopolitical-entity", ("geopolitical-entity", "country", f"{dbo}Country", f"{wd}Q6256")),
    ):
        actor_type_classes.update(dict.fromkeys(classes, actor_type))
    return LocalOntology(
        property_map=property_map, actor_type_classes=actor_type_classes
    )
