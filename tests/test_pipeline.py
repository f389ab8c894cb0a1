"""Tests for actor detection and enrichment."""

from __future__ import annotations

import _sre
import csv
import json
import random
import re
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kgdiv.diversity import FeatureSet
from kgdiv.pipeline import (
    AnnotationClient,
    AnnotationResponseError,
    AnnotationTransportError,
    CsvTripleSource,
    EntityMention,
    LocalOntology,
    MatchRule,
    TextDocument,
    aggregate_mentions,
    annotate,
    builtin_ontology,
    enrich_entity,
    load_rules,
    match_rules,
    parse_annotation_response,
    rule_counts,
)
from kgdiv.pipeline import _TYPE_PREDICATES, _fold, _folds_in_place
from tests import oracles

try:
    from re._casefix import _EXTRA_CASES
except ImportError:  # Python 3.10 keeps the table in sre_compile
    from sre_compile import _ignorecase_fixes as _EXTRA_CASES

NVA_RULE = MatchRule(
    pattern="N-VA",
    case_sensitive=True,
    target_entity="http://example.org/party/NVA",
)


class TestMatchRules:
    def test_literal_substring(self):
        doc = TextDocument(doc_id="d", text="N-VA wint")
        (mention,) = match_rules(doc, [NVA_RULE])
        assert (mention.char_start, mention.char_end) == (0, 4)
        assert mention.surface == "N-VA"
        assert mention.provenance == "rule"
        assert mention.resolved_id == "http://example.org/party/NVA"

    def test_case_sensitive_mismatch(self):
        doc = TextDocument(doc_id="d", text="n-va wint")
        assert match_rules(doc, [NVA_RULE]) == []

    def test_case_insensitive_match(self):
        doc = TextDocument(doc_id="d", text="n-va wint")
        rule = MatchRule(
            pattern="N-VA", case_sensitive=False, target_entity="unnamed:nva"
        )
        (mention,) = match_rules(doc, [rule])
        assert mention.surface == "n-va"

    def test_single_rule_matches_never_overlap(self):
        doc = TextDocument(doc_id="d", text="aaaa")
        rule = MatchRule(pattern="aa", target_entity="unnamed:a")
        mentions = match_rules(doc, [rule])
        assert [(m.char_start, m.char_end) for m in mentions] == [(0, 2), (2, 4)]

    def test_cross_rule_overlaps_are_kept(self):
        doc = TextDocument(doc_id="d", text="N-VA")
        rules = [
            NVA_RULE,
            MatchRule(pattern="VA", target_entity="unnamed:va"),
        ]
        assert len(match_rules(doc, rules)) == 2

    def test_rules_beyond_re_cache_match_like_finditer(self):
        # more distinct rules than re's 512-pattern cache, and one pattern
        # listed with both case flags
        rng = random.Random(11)
        rules = [
            MatchRule(
                pattern=f"Name{k:03d}",
                case_sensitive=rng.random() < 0.5,
                target_entity=f"t{k}",
            )
            for k in range(600)
        ]
        rules += [
            MatchRule(pattern="Alpha", case_sensitive=True, target_entity="a-cs"),
            MatchRule(pattern="Alpha", case_sensitive=False, target_entity="a-ci"),
        ]
        words = []
        for _ in range(400):
            word = rng.choice(["Alpha", f"Name{rng.randrange(650):03d}", "filler"])
            words.append(word.upper() if rng.random() < 0.3 else word)
        doc = TextDocument(doc_id="d", text=" ".join(words) + " AlphaAlpha")
        expected = sorted(
            (m.start(), m.end(), rule.target_entity)
            for rule in rules
            for m in re.finditer(
                re.escape(rule.pattern),
                doc.text,
                0 if rule.case_sensitive else re.IGNORECASE,
            )
        )
        got = [
            (m.char_start, m.char_end, m.resolved_id) for m in match_rules(doc, rules)
        ]
        assert got == expected
        assert {"a-cs", "a-ci"} <= {target for _, _, target in got}
        assert rules[0].regex is rules[0].regex

    @given(st.text(min_size=1, max_size=60), st.text(min_size=1, max_size=5))
    @settings(max_examples=150)
    def test_property_spans_within_bounds(self, text, pattern):
        doc = TextDocument(doc_id="d", text=text)
        rule = MatchRule(pattern=pattern, target_entity="unnamed:p")
        previous_end = 0
        for m in match_rules(doc, [rule]):
            assert 0 <= m.char_start < m.char_end <= len(text)
            assert m.char_start >= previous_end
            previous_end = m.char_end

    @given(st.text(alphabet="aAbB -", min_size=1, max_size=40))
    @settings(max_examples=150)
    def test_property_insensitive_superset(self, text):
        doc = TextDocument(doc_id="d", text=text)
        sensitive = MatchRule(pattern="aB", case_sensitive=True, target_entity="u:x")
        insensitive = MatchRule(pattern="aB", case_sensitive=False, target_entity="u:x")
        strict = {(m.char_start, m.char_end) for m in match_rules(doc, [sensitive])}
        loose = {(m.char_start, m.char_end) for m in match_rules(doc, [insensitive])}
        assert strict <= loose

    # case pairs that re.IGNORECASE equates although lower() or casefold()
    # tell them apart: long s, Kelvin sign, dotted and dotless i, sharp s,
    # final sigma, micro sign, and a combining dot above
    CASE_ALPHABET = "sſSkK\u212aİıIißẞσςΣµμ\u0307 "

    @given(
        st.text(alphabet=CASE_ALPHABET, max_size=30),
        st.lists(
            st.tuples(st.text(alphabet=CASE_ALPHABET, min_size=1, max_size=4), st.booleans()),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=400)
    def test_property_equals_per_rule_finditer(self, text, specs):
        rules = [
            MatchRule(pattern=pattern, case_sensitive=sensitive, target_entity=f"t{k}")
            for k, (pattern, sensitive) in enumerate(specs)
        ]
        expected = sorted(
            (
                (m.start(), m.end(), m.group(0), rule.target_entity)
                for rule in rules
                for m in re.finditer(
                    re.escape(rule.pattern),
                    text,
                    0 if rule.case_sensitive else re.IGNORECASE,
                )
            ),
            key=lambda span: (span[0], span[1], span[3]),
        )
        got = [
            (m.char_start, m.char_end, m.surface, m.resolved_id)
            for m in match_rules(TextDocument(doc_id="d", text=text), rules)
        ]
        assert got == expected

    def test_insensitive_match_behind_a_multi_character_fold(self):
        # ß, a, a combining dot and k fold to 'ssak', as long as the text,
        # but the folded a sits one place after the text's a
        text = "\u00dfa\u0307k"
        assert len(_fold(text)) == len(text) and not _folds_in_place(text)
        rule = MatchRule(pattern="a", case_sensitive=False, target_entity="u:a")
        got = [(m.char_start, m.char_end) for m in match_rules(TextDocument("d", text), [rule])]
        assert got == [m.span() for m in re.finditer("a", text, re.IGNORECASE)] == [(1, 2)]

    @given(
        st.text(
            alphabet=st.one_of(
                st.characters(max_codepoint=127),
                st.sampled_from("\u00df\u0307\u0130\u0131\ufb03\u1e9e\u212a\u00e9"),
                st.characters(),
            ),
            max_size=20,
        )
    )
    @example(s="")
    @example(s="abc\x00\x7f")
    @example(s="a\u00df")
    def test_property_folds_in_place_per_character(self, s):
        # the ASCII shortcut answers as the per-character definition does
        assert _folds_in_place(s) == all(len(_fold(c)) == 1 for c in s)

    # characters that each fold to exactly one character, in case groups
    # that re.IGNORECASE equates: long s, Kelvin sign, dotted and dotless
    # i, final sigma and micro sign
    IN_PLACE_ALPHABET = "sſSkK\u212aıIiİσςΣµμaA "

    @given(
        st.text(alphabet=IN_PLACE_ALPHABET, max_size=30),
        st.lists(
            st.text(alphabet=IN_PLACE_ALPHABET, min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ),
    )
    @example(text="sſSs K\u212akK", patterns=["ss", "Kk"])
    @settings(max_examples=400)
    def test_property_anchored_check_equals_finditer(self, text, patterns):
        # every example folds in place, so every rule takes the anchored path
        assert _folds_in_place(text + "".join(patterns))
        rules = [
            MatchRule(pattern=pattern, case_sensitive=False, target_entity=f"t{k}")
            for k, pattern in enumerate(patterns)
        ]
        expected = sorted(
            (m.start(), m.end(), m.group(0), rule.target_entity)
            for rule in rules
            for m in re.finditer(re.escape(rule.pattern), text, re.IGNORECASE)
        )
        got = [
            (m.char_start, m.char_end, m.surface, m.resolved_id)
            for m in match_rules(TextDocument(doc_id="d", text=text), rules)
        ]
        assert got == expected

    def test_regex_built_only_for_insensitive_rules_that_can_match(self):
        doc = TextDocument(doc_id="d", text="De N-VA en Groen")
        sensitive_hit = MatchRule(pattern="N-VA", target_entity="u:nva")
        sensitive_miss = MatchRule(pattern="Vooruit", target_entity="u:v")
        insensitive_miss = MatchRule(
            pattern="vlaams belang", case_sensitive=False, target_entity="u:vb"
        )
        insensitive_hit = MatchRule(pattern="GROEN", case_sensitive=False, target_entity="u:g")
        rules = [sensitive_hit, sensitive_miss, insensitive_miss, insensitive_hit]
        # in ASCII text an ASCII pattern's folded occurrences are its spans
        assert len(match_rules(doc, rules)) == 2
        assert len(rule_counts(doc, rules)) == 2
        for rule in rules:
            assert "regex" not in rule.__dict__
        # a text that is not ASCII but folds in place tries the regex of the
        # rule it hits, and only that one
        doc = TextDocument(doc_id="d", text="De N-VA en Groen \u00e9n")
        assert len(match_rules(doc, rules)) == 2
        for rule in (sensitive_hit, sensitive_miss, insensitive_miss):
            assert "regex" not in rule.__dict__
        assert "regex" in insensitive_hit.__dict__

    # few letters, so that patterns share their 3-character prefixes and
    # overlap; k, K and the Kelvin sign fold in place, ß and a combining dot
    # do not (and a pattern of combining dots folds to nothing)
    SCAN_ALPHABET = "abAB kK\u212a\u00df\u0307"

    @staticmethod
    def draw_specs_and_text(data, alphabet: str) -> tuple[list[tuple[str, bool]], str]:
        """Patterns with their case flags, and a text of the alphabet that
        strings some of them together."""
        pattern = st.text(alphabet=alphabet, min_size=1, max_size=5)
        specs = data.draw(st.lists(st.tuples(pattern, st.booleans()), min_size=1, max_size=40))
        # repeat some patterns, with the same case flag or the other one
        again = st.sampled_from(specs)
        flipped = again.map(lambda spec: (spec[0], not spec[1]))
        specs += data.draw(st.lists(st.one_of(again, flipped), max_size=5))
        # the text strings patterns together, some with their cases swapped
        pieces = st.sampled_from([pattern for pattern, _ in specs])
        filler = st.text(alphabet=alphabet, max_size=3)
        text = "".join(
            data.draw(st.lists(st.one_of(pieces, pieces.map(str.swapcase), filler), max_size=20))
        )
        return specs, text

    @given(st.data())
    @settings(max_examples=300)
    def test_property_one_scan_equals_one_rule_at_a_time(self, data):
        specs, text = self.draw_specs_and_text(data, self.SCAN_ALPHABET)
        rules = [
            MatchRule(pattern=pattern, case_sensitive=sensitive, target_entity=f"t{k % 7}")
            for k, (pattern, sensitive) in enumerate(specs)
        ]
        doc = TextDocument(doc_id="d", text=text)
        assert match_rules(doc, rules) == oracles.match_rules(doc, rules)

    @given(st.data(), st.sampled_from([SCAN_ALPHABET, "abAB kK"]))
    @settings(max_examples=300)
    def test_property_counts_equal_the_oracle_mentions_counted(self, data, alphabet):
        # an ASCII alphabet too, where case-insensitive spans need no regex;
        # every third rule has no target, so its spans count by surface
        specs, text = self.draw_specs_and_text(data, alphabet)
        rules = [
            MatchRule(pattern=pattern, case_sensitive=sensitive, target_entity=f"t{k % 5}" if k % 3 else "")
            for k, (pattern, sensitive) in enumerate(specs)
        ]
        doc = TextDocument(doc_id="d", text=text)
        expected = aggregate_mentions(oracles.match_rules(doc, rules))
        assert rule_counts(doc, rules) == expected

    def test_pattern_that_folds_to_nothing_occurs_everywhere(self):
        text = "a\u0307b\u0307"
        rule = MatchRule(pattern="\u0307", case_sensitive=False, target_entity="u:dot")
        got = [(m.char_start, m.char_end) for m in match_rules(TextDocument("d", text), [rule])]
        assert got == [(1, 2), (3, 4)]

    def test_thousands_of_patterns_in_one_scan(self):
        rng = random.Random(5)
        letters = "aeiouklmnrstvzAEKLMNRSTVZ"
        patterns = sorted(
            {"".join(rng.choice(letters) for _ in range(rng.randint(1, 9))) for _ in range(3500)}
        )
        assert len(patterns) > 3000
        rules = [
            MatchRule(pattern=p, case_sensitive=rng.random() < 0.7, target_entity=f"t{k}")
            for k, p in enumerate(patterns)
        ]
        picks = [rng.choice(patterns) for _ in range(1500)]
        text = " ".join(p.swapcase() if rng.random() < 0.2 else p for p in picks)
        doc = TextDocument(doc_id="d", text=text)
        assert match_rules(doc, rules) == oracles.match_rules(doc, rules)
        assert len(match_rules(doc, rules)) > 1500

    def test_loaded_rules_keep_one_scan_index(self, tmp_path):
        path = tmp_path / "rules.csv"
        path.write_text("pattern,case_sensitive\ngroen,false\nN-VA,true\n", encoding="utf-8")
        rules = load_rules(path)
        docs = [TextDocument("a", "Groen en N-VA"), TextDocument("b", "GROEN, groen")]
        assert [match_rules(doc, rules) for doc in docs] == [
            oracles.match_rules(doc, rules) for doc in docs
        ]
        index = vars(rules)["_index"]
        match_rules(docs[0], rules)
        assert vars(rules)["_index"] is index


def _ignorecase_pairs() -> list[tuple[str, str]]:
    """Every ordered pair of distinct code points that re.IGNORECASE
    equates: those sharing a lowercase form, joined by re's table of extra
    cases (such as i and dotless ı)."""
    groups: dict[int, set[int]] = {}
    for code in range(0x110000):
        lower = _sre.unicode_tolower(code)
        if lower != code:
            groups.setdefault(lower, {lower}).add(code)
    for lower in _EXTRA_CASES:
        groups.setdefault(lower, {lower})
    pairs = []
    for lower, group in groups.items():
        equal = set(group)
        for extra in _EXTRA_CASES.get(lower, ()):
            equal |= groups.get(extra, {extra})
        pairs += [(chr(a), chr(b)) for a in group for b in equal if a != b]
    return pairs


def test_fold_keeps_every_ignorecase_pair():
    # the prefilter may drop a case-insensitive rule only if no span can
    # match, so fold(a) must occur in fold(b) whenever re equates a and b
    pairs = _ignorecase_pairs()
    assert len(pairs) > 2000
    for a, b in pairs:
        assert re.fullmatch(re.escape(a), b, re.IGNORECASE), (a, b)
        assert _fold(a) in _fold(b), (a, b)


class TestAnnotation:
    def test_recorded_response_fixture(self, fixture_dir):
        body = (fixture_dir / "annotation_response.json").read_bytes()
        doc = TextDocument(doc_id="d", text="N-VA wint de verkiezingen in Vlaanderen")
        mentions = parse_annotation_response(doc, body)
        assert len(mentions) == 2
        first = mentions[0]
        assert first.resolved_id == "http://dbpedia.org/resource/New_Flemish_Alliance"
        assert (first.char_start, first.char_end) == (0, 4)
        assert first.provenance == "annotator"

    def test_empty_annotation(self):
        doc = TextDocument(doc_id="d", text="nothing here")
        assert parse_annotation_response(doc, b'{"@text": "nothing here"}') == []

    def test_truncated_body(self):
        doc = TextDocument(doc_id="d", text="x")
        with pytest.raises(AnnotationResponseError):
            parse_annotation_response(doc, b'{"Resources": [{"@URI": "ht')

    def test_span_outside_document(self):
        doc = TextDocument(doc_id="d", text="ab")
        body = json.dumps(
            {"Resources": [{"@URI": "u", "@surfaceForm": "abc", "@offset": "0"}]}
        ).encode()
        with pytest.raises(AnnotationResponseError, match="outside document"):
            parse_annotation_response(doc, body)

    def test_transport_error(self):
        client = AnnotationClient(
            endpoint_url="http://127.0.0.1:1/rest/annotate", timeout=0.5
        )
        doc = TextDocument(doc_id="d", text="N-VA wint")
        with pytest.raises(AnnotationTransportError):
            annotate(doc, client)

    def test_live_endpoint_round_trip(self, fixture_dir):
        payload = (fixture_dir / "annotation_response.json").read_bytes()

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = AnnotationClient(
                endpoint_url=f"http://127.0.0.1:{server.server_address[1]}/rest/annotate"
            )
            doc = TextDocument(
                doc_id="d", text="N-VA wint de verkiezingen in Vlaanderen"
            )
            mentions = annotate(doc, client)
        finally:
            server.shutdown()
            server.server_close()
        assert [m.surface for m in mentions] == ["N-VA", "Vlaanderen"]


def chain_source(depth: int) -> CsvTripleSource:
    """res0 -party-> res1 -party-> res2 ... each resource a typed organisation."""
    rows = []
    for i in range(depth):
        rows.append((f"res{i}", "party", f"res{i + 1}"))
        rows.append((f"res{i + 1}", "type", "organisation"))
    return CsvTripleSource(rows=rows)


class TestTripleIndex:
    ROWS = [
        ("X", "type", "building"),
        ("Y", "party", "P"),
        ("X", "ideology", "I"),
        ("X", "type", "party"),
        ("X", "ideology", "I"),
        ("X", "rdf:type", "person"),
    ]

    def test_lookups_keep_file_order_and_duplicates(self):
        triples = CsvTripleSource(rows=list(self.ROWS))
        assert triples.predicates("X") == [
            ("type", "building"),
            ("ideology", "I"),
            ("type", "party"),
            ("ideology", "I"),
            ("rdf:type", "person"),
        ]
        assert triples.types("X") == ["building", "party", "person"]
        # the first actor-type class in file order wins
        assert builtin_ontology().classify(triples.types("X")) == "organisation"

    def test_unknown_id_gives_empty_lists(self):
        triples = CsvTripleSource(rows=list(self.ROWS))
        assert triples.predicates("Z") == []
        assert triples.types("Z") == []
        assert triples.types("Y") == []

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("ABC"),
                st.sampled_from(["type", "P31", "party", "ideology"]),
                st.sampled_from(["person", "party", "o"]),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=100)
    def test_property_lookups_equal_a_full_scan(self, rows):
        triples = CsvTripleSource(rows=rows)
        for subject in "ABCD":
            assert triples.predicates(subject) == [
                (p, o) for s, p, o in rows if s == subject
            ]
            assert triples.types(subject) == [
                o for s, p, o in rows if s == subject and p in ("type", "P31")
            ]


def write_triples(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "predicate", "object"])
        writer.writerows(rows)


DBO = "http://dbpedia.org/ontology/"
WDT = "http://www.wikidata.org/prop/direct/"
TRIPLE_SUBJECTS = ["A", "B", "http://example.org/C"]
TRIPLE_PREDICATES = [
    # mapped, as bare names and as IRIs
    "party", "ideology", "country", f"{DBO}party", f"{WDT}P1142", f"{WDT}P17",
    # type predicates
    "type", "a", "P31", "rdf:type", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
    # never read
    "label", "note-1", "http://www.w3.org/2000/01/rdf-schema#label", f"{DBO}abstract",
]
TRIPLE_OBJECTS = [*TRIPLE_SUBJECTS, "person", "party", "country", f"{DBO}Person", "x"]


def padded(values):
    return st.builds(
        lambda left, value, right: left + value + right,
        st.sampled_from(["", " ", "  "]),
        st.sampled_from(values),
        st.sampled_from(["", " "]),
    )


class TestOntologyFilter:
    @given(
        st.lists(
            st.tuples(padded(TRIPLE_SUBJECTS), padded(TRIPLE_PREDICATES), padded(TRIPLE_OBJECTS)),
            max_size=40,
        )
    )
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property_filtered_source_scores_alike(self, tmp_path, rows):
        path = tmp_path / "triples.csv"
        write_triples(path, rows)
        ontology = builtin_ontology()
        full = CsvTripleSource.from_file(path)
        kept = CsvTripleSource.from_file(path, ontology)
        for resource in {*TRIPLE_SUBJECTS, *TRIPLE_OBJECTS}:
            assert enrich_entity(resource, kept, ontology) == enrich_entity(
                resource, full, ontology
            )
            assert kept.types(resource) == full.types(resource)
            assert kept.predicates(resource) == [
                (p, o)
                for p, o in full.predicates(resource)
                if p in ontology.property_map or p in _TYPE_PREDICATES
            ]

    def test_unread_rows_are_not_held(self, tmp_path):
        # three unread rows per read row, as in a dump with labels and notes
        rows = []
        for i in range(2000):
            actor = f"http://example.org/actor/{i:05d}"
            rows += [
                (actor, f"{DBO}party" if i % 2 else "type", f"http://example.org/party/{i % 7}"),
                (actor, "http://www.w3.org/2000/01/rdf-schema#label", f"Actor number {i:05d}"),
                (actor, f"{DBO}abstract", f"An actor, one of many: number {i:05d}"),
                (actor, f"note-{i % 3}", f"note on actor {i:05d}"),
            ]
        path = tmp_path / "triples.csv"
        write_triples(path, rows)
        ontology = builtin_ontology()

        def held(*args):
            tracemalloc.start()
            try:
                source = CsvTripleSource.from_file(path, *args)
                return tracemalloc.get_traced_memory()[0], source
            finally:
                tracemalloc.stop()

        (full, _), (kept, source) = held(), held(ontology)
        assert kept <= 0.4 * full
        assert source.predicates("http://example.org/actor/00001") == [
            (f"{DBO}party", "http://example.org/party/1")
        ]


    def test_held_size_follows_the_distinct_pairs(self):
        # 2,000 subjects over the same 20 pairs, two rows each or ten, each
        # field a new string, as the CSV reader gives them: a row past the
        # distinct pairs adds only its slot in its subject's list, where a
        # tuple and two strings per row held about 220 bytes
        def rows(per_subject):
            for i in range(2000):
                for k in range(per_subject):
                    yield f"actor/{i:05d}", f"{DBO}party", f"http://example.org/party/{(i + k) % 20}"

        def held(per_subject):
            tracemalloc.start()
            try:
                source = CsvTripleSource(rows(per_subject))
                return tracemalloc.get_traced_memory()[0], source
            finally:
                tracemalloc.stop()

        (few, _), (many, source) = held(2), held(10)
        assert (many - few) / (2000 * 8) < 24
        assert len(source.shared) == 20
        assert source.predicates("actor/00003")[0] is source.predicates("actor/00023")[0]


class TestSharedPairs:
    @given(
        st.lists(
            st.tuples(padded(TRIPLE_SUBJECTS), padded(TRIPLE_PREDICATES), padded(TRIPLE_OBJECTS)),
            max_size=40,
        ),
        st.booleans(),
    )
    @settings(max_examples=150)
    def test_property_equals_the_unshared_index_and_enrichment(self, rows, filtered):
        ontology = builtin_ontology()
        source = CsvTripleSource(rows, ontology if filtered else None)
        index = oracles.triple_index(rows, ontology if filtered else None)
        resources = {*TRIPLE_SUBJECTS, *TRIPLE_OBJECTS, "absent"}
        for resource in resources:
            assert source.predicates(resource) == index.get(resource, [])
        # twice over, so that the second pass reads the memo the first made
        for resource in [*sorted(resources), *sorted(resources)]:
            assert enrich_entity(resource, source, ontology) == oracles.enrich(
                resource, index, ontology
            )

    def test_entities_with_the_same_party_share_its_pairs(self):
        party = "".join(["http://example.org/", "party/1"])
        rows = [
            ("A", "party", party),
            ("B", "party", "".join(["http://example.org/", "party/1"])),
            (party, "type", "party"),
            (party, "ideology", "green"),
        ]
        triples = CsvTripleSource(rows, builtin_ontology())
        a = enrich_entity("A", triples, builtin_ontology())
        b = enrich_entity("B", triples, builtin_ontology())
        assert a == b == FeatureSet(
            frozenset({("party", party), ("party.ideology", "green")})
        )
        by_name = {pair[0]: pair for pair in a.pairs}
        for pair in b.pairs:
            assert pair is by_name[pair[0]]
        # under bare predicate names a feature pair is the triple's own pair
        assert by_name["party"] is triples.predicates("A")[0]


class TestLinkedExpansion:
    # rows every example holds: R names the party L under two feature names,
    # and L links back to R and to itself; R's ideology I has mapped
    # predicates but no actor type; R links to itself
    ROWS = [
        ("R", "party", "L"),
        ("R", "country", "L"),
        ("L", "type", "party"),
        ("L", "party", "R"),
        ("L", "party", "L"),
        ("L", "ideology", "green"),
        ("R", "ideology", "I"),
        ("I", "type", "idea"),
        ("I", "party", "L"),
        ("R", "party", "R"),
    ]
    RESOURCES = ["R", "L", "I", "S", "T"]

    def test_each_linked_resource_under_each_name(self):
        triples = CsvTripleSource(self.ROWS, builtin_ontology())
        assert enrich_entity("R", triples, builtin_ontology()).pairs == {
            ("party", "L"), ("country", "L"), ("ideology", "I"), ("party", "R"),
            ("party.party", "R"), ("party.party", "L"), ("party.ideology", "green"),
            ("country.party", "R"), ("country.party", "L"), ("country.ideology", "green"),
        }
        # L's expansion under party is kept, but L does not expand itself
        assert enrich_entity("L", triples, builtin_ontology()).pairs == {
            ("party", "R"), ("party", "L"), ("ideology", "green"),
        }

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(RESOURCES),
                st.sampled_from(["party", "country", "ideology", "occupation", "type", "label"]),
                st.sampled_from([*RESOURCES, "party", "person", "idea", "x"]),
            ),
            max_size=30,
        ),
        st.permutations(RESOURCES),
    )
    @settings(max_examples=200)
    def test_property_equals_expanding_for_every_root(self, extra, order):
        rows = [*self.ROWS, *extra]
        ontology = builtin_ontology()
        source, per_root = CsvTripleSource(rows, ontology), CsvTripleSource(rows, ontology)
        # twice over, so that the second pass reads the expansions the first kept
        for resource in [*order, *order]:
            assert enrich_entity(resource, source, ontology) == oracles.enrich_per_root(
                resource, per_root, ontology
            )


class TestEnrichment:
    def test_party_then_ideology(self):
        triples = CsvTripleSource(
            rows=[
                ("X", "party", "Y"),
                ("Y", "type", "party"),
                ("Y", "ideology", "Z"),
            ]
        )
        features = enrich_entity("X", triples, builtin_ontology())
        assert features.pairs == frozenset(
            {("party", "Y"), ("party.ideology", "Z")}
        )

    def test_country_then_government_type(self):
        triples = CsvTripleSource(
            rows=[
                ("X", "country", "C"),
                ("C", "type", "country"),
                ("C", "government-type", "G"),
                ("C", "eu-membership", "yes"),
            ]
        )
        features = enrich_entity("X", triples, builtin_ontology())
        assert ("country", "C") in features.pairs
        assert ("country.government-type", "G") in features.pairs
        assert ("country.eu-membership", "yes") in features.pairs

    def test_unmapped_predicates_only(self):
        triples = CsvTripleSource(rows=[("X", "shoeSize", "42")])
        assert enrich_entity("X", triples, builtin_ontology()) == FeatureSet()

    def test_untyped_link_not_expanded(self):
        triples = CsvTripleSource(
            rows=[("X", "party", "Y"), ("Y", "ideology", "Z")]
        )
        features = enrich_entity("X", triples, builtin_ontology())
        assert features.pairs == frozenset({("party", "Y")})

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=20)
    def test_property_one_hop_limit(self, depth):
        features = enrich_entity("res0", chain_source(depth), builtin_ontology())
        assert ("party", "res1") in features.pairs
        assert ("party.party", "res2") in features.pairs
        # nothing from two or more hops away leaks in
        for name, value in features.pairs:
            assert name.count(".") <= 1
            assert value in ("res1", "res2")


class TestAggregate:
    def mention(self, rid, start=0):
        return EntityMention(
            doc_id="d",
            char_start=start,
            char_end=start + 1,
            surface="x",
            resolved_id=rid,
            provenance="rule",
        )

    def test_counts(self):
        mentions = [self.mention("A", i) for i in range(3)] + [self.mention("B", 9)]
        assert aggregate_mentions(mentions) == {"A": 3, "B": 1}

    def test_empty(self):
        assert aggregate_mentions([]) == {}

    def test_mixed_provenance_merges(self):
        rule_m = self.mention("A", 0)
        annot_m = EntityMention(
            doc_id="d",
            char_start=5,
            char_end=6,
            surface="y",
            resolved_id="A",
            provenance="annotator",
        )
        assert aggregate_mentions([rule_m, annot_m]) == {"A": 2}

    @given(st.lists(st.sampled_from(["A", "B", "C", None]), max_size=30))
    @settings(max_examples=100)
    def test_property_totals_preserved(self, ids):
        mentions = [
            EntityMention(
                doc_id="d",
                char_start=i,
                char_end=i + 1,
                surface=f"s{i}",
                resolved_id=rid,
                provenance="rule",
            )
            for i, rid in enumerate(ids)
        ]
        counts = aggregate_mentions(mentions)
        assert sum(counts.values()) == len(mentions)


def test_load_rules(fixture_dir, caplog):
    # the fixture's third row is a lemma rule, which plain text cannot match
    rules = load_rules(fixture_dir / "rules.csv")
    assert rules == [
        MatchRule(
            pattern="N-VA",
            case_sensitive=True,
            target_entity="http://dbpedia.org/resource/New_Flemish_Alliance",
        ),
        MatchRule(
            pattern="cd&v",
            case_sensitive=False,
            target_entity="http://dbpedia.org/resource/Christen-Democratisch_en_Vlaams",
        ),
    ]
    assert "skipping 1 lemma rule(s)" in caplog.text


def test_load_rules_rejects_unknown_match_layer(tmp_path):
    path = tmp_path / "rules.csv"
    path.write_text(
        "pattern,case_sensitive,match_layer,target\nN-VA,,token,x\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="match_layer must be surface or lemma"):
        load_rules(path)


def test_load_rules_empty_case_cell_means_case_sensitive(tmp_path):
    path = tmp_path / "rules.csv"
    path.write_text(
        "pattern,case_sensitive,match_layer,target\n"
        "N-VA,,surface,x\n"
        "Groen, ,surface,y\n"
        "cd&v,false,surface,z\n",
        encoding="utf-8",
    )
    assert [r.case_sensitive for r in load_rules(path)] == [True, True, False]
    path.write_text("pattern,target\nN-VA,x\n", encoding="utf-8")
    assert load_rules(path)[0].case_sensitive is True


def test_ontology_validation():
    with pytest.raises(ValueError, match="empty feature name"):
        LocalOntology(property_map={"p": ""}, actor_type_classes={})
    with pytest.raises(ValueError, match="unknown actor type"):
        LocalOntology(property_map={}, actor_type_classes={"c": "robot"})


DBO = "http://dbpedia.org/ontology/"
WDT = "http://www.wikidata.org/prop/direct/"
WD = "http://www.wikidata.org/entity/"

#: the IRI mappings the table held when it was keyed by knowledge source
#: as well, each with its target name
SOURCE_KEYED_PREDICATES = {
    f"{DBO}party": "party",
    f"{DBO}ideology": "ideology",
    f"{DBO}country": "country",
    f"{DBO}governmentType": "government-type",
    f"{DBO}occupation": "occupation",
    f"{WDT}P102": "party",
    f"{WDT}P1142": "ideology",
    f"{WDT}P27": "country",
    f"{WDT}P17": "country",
    f"{WDT}P122": "government-type",
    f"{WDT}P106": "occupation",
}
SOURCE_KEYED_CLASSES = {
    f"{DBO}Person": "person",
    f"{DBO}Politician": "person",
    f"{DBO}Organisation": "organisation",
    f"{DBO}PoliticalParty": "organisation",
    f"{DBO}Country": "geopolitical-entity",
    f"{WD}Q5": "person",
    f"{WD}Q7278": "organisation",
    f"{WD}Q43229": "organisation",
    f"{WD}Q6256": "geopolitical-entity",
}


def test_builtin_ontology_keeps_every_iri_mapping():
    ontology = builtin_ontology()
    for iri, name in SOURCE_KEYED_PREDICATES.items():
        assert ontology.property_map[iri] == name
    for iri, actor_type in SOURCE_KEYED_CLASSES.items():
        assert ontology.actor_type_classes[iri] == actor_type
    # the bare names map onto themselves, and no bare name is an IRI
    bare = {key for key in ontology.property_map if ":" not in key}
    assert {ontology.property_map[key] for key in bare} == bare
    assert set(ontology.property_map) == bare | set(SOURCE_KEYED_PREDICATES)
    assert set(ontology.actor_type_classes) - set(SOURCE_KEYED_CLASSES) == {
        "person", "organisation", "party", "country", "geopolitical-entity",
    }


@pytest.mark.parametrize(
    "party, type_, party_class, ideology",
    [
        (
            f"{DBO}party",
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            f"{DBO}PoliticalParty",
            f"{DBO}ideology",
        ),
        (f"{WDT}P102", f"{WDT}P31", f"{WD}Q7278", f"{WDT}P1142"),
    ],
    ids=["dbpedia", "wikidata"],
)
def test_iris_enrich_to_the_bare_feature_names(party, type_, party_class, ideology):
    triples = CsvTripleSource(
        rows=[("X", party, "Y"), ("Y", type_, party_class), ("Y", ideology, "Z")]
    )
    features = enrich_entity("X", triples, builtin_ontology())
    assert features.pairs == frozenset({("party", "Y"), ("party.ideology", "Z")})
