"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a pass line through the terminal-summary hook in
conftest; a failing criterion shows up there as FAIL.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
import xml.etree.ElementTree as ET
from collections import Counter
from datetime import date, timedelta

import pytest

from kgdiv.audit import (
    BaselineTable,
    ElectionResult,
    NormalizationMap,
    PartyRecord,
    classify,
    compute_bounds,
    judge,
    read_snapshot,
    run_audit,
)
from kgdiv.catalog import coverage_counts
from kgdiv.cli import main as cli_main
from kgdiv.diversity import (
    BalanceVector,
    DiversityParams,
    compute_balance,
    compute_disparity,
    stirling_delta,
)
from kgdiv.fixtures import FixtureStore, FixtureTransport
from kgdiv.pipeline import (
    CsvTripleSource,
    MatchRule,
    TextDocument,
    aggregate_mentions,
    builtin_ontology,
    enrich_entity,
    match_rules,
)
from kgdiv.report import PANEL_HEIGHT
from kgdiv.sparql import EndpointConfig, QueryTemplate, execute_query
from tests.conftest import make_probe_dataset, record_criterion
from tests.fixture_server import FixtureServer, RecordingStore
from tests.oracles import (
    Affiliation,
    DateInterval,
    PoliticianRecord,
    activity_period,
    explicit_matrix,
    gini_simpson,
    pair_terms,
    share_from_pixel,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def random_balance(rng, n):
    raw = [rng.random() + 1e-9 for _ in range(n)]
    total = sum(raw)
    return BalanceVector({f"e{k}": w / total for k, w in enumerate(raw)})


def test_criterion_1_stirling_gini_reduction():
    rng = random.Random(101)
    started = time.monotonic()
    for _ in range(1000):
        n = rng.randint(1, 8)
        balance = random_balance(rng, n)
        ids = list(balance.ids)
        disparity = explicit_matrix(
            ids,
            {
                (a, b): rng.uniform(1e-6, 1.0)
                for a, b in itertools.combinations(ids, 2)
            },
        )
        delta = stirling_delta(
            balance, disparity, DiversityParams(alpha=0.0, beta=1.0)
        ).delta
        assert abs(delta - gini_simpson(balance)) <= 1e-12
    assert time.monotonic() - started < 5.0
    record_criterion(1, "stirling alpha=0 beta=1 reduces to gini-simpson")


def test_criterion_2_stirling_brute_force_oracle():
    rng = random.Random(202)
    for _ in range(1000):
        n = rng.randint(1, 8)
        balance = random_balance(rng, n)
        ids = list(balance.ids)
        values = {
            (a, b): 0.0 if rng.random() < 0.15 else rng.random()
            for a, b in itertools.combinations(ids, 2)
        }
        disparity = explicit_matrix(ids, values)
        params = DiversityParams(rng.uniform(0, 3), rng.uniform(0, 3))
        expected = sum(pair_terms(balance, disparity, params).values())
        got = stirling_delta(balance, disparity, params).delta
        assert abs(got - expected) <= 1e-12
    record_criterion(2, "stirling equals ordered-pair brute force")


def test_criterion_3_coverage_query_fixture_counts(kg_fixture_dir):
    started = time.monotonic()
    transport = FixtureTransport(FixtureStore(kg_fixture_dir))

    def endpoint(dialect):
        return EndpointConfig(
            url=f"fixture:///{dialect}",
            dialect=dialect,
            page_size=1000,
            max_requests_per_second=1e9,
        )

    en = coverage_counts(endpoint("en-dbpedia"), transport)
    wd = coverage_counts(endpoint("wikidata"), transport)
    assert en["belgian_chamber_members"] == 143
    assert wd["belgian_chamber_members"] == 2996
    assert en["flemish_parliament_members"] == 21
    assert wd["flemish_parliament_members"] == 464
    assert en["us_house_members"] == 14886
    assert wd["us_house_members"] == 11160
    assert time.monotonic() - started < 5.0
    record_criterion(3, "coverage fixtures return the recorded counts")


def test_criterion_4_flemish_over_representation():
    started = time.monotonic()
    parties = {
        "N-VA": PartyRecord("N-VA", "right", "relevant"),
        "CD&V": PartyRecord("CD&V", "centre", "relevant"),
        "Vooruit": PartyRecord("Vooruit", "centre-left", "relevant"),
    }
    nmap = NormalizationMap(alias_to_canonical={}, canonical_to_party=parties)
    baselines = BaselineTable(
        body="VP",
        elections={date(2019, 5, 26): ElectionResult({"N-VA": 35, "CD&V": 19}, 124)},
    )
    rows = []
    for k in range(21):
        party = "N-VA" if k < 15 else ("CD&V" if k < 18 else "Vooruit")
        rows.append(
            (
                "en-dbpedia",
                f"flemish{k:02d}",
                f"Flemish politician {k}",
                party,
                "2014-06-01",
                "",
                "",
                "",
                "2022-05-27",
            )
        )
    result = run_audit(read_snapshot(rows, nmap=nmap), nmap, schedule=[date(2020, 1, 1)])
    nva = next(r for r in judge(result.rows, baselines) if r.party == "N-VA")
    assert nva.verdict == "over"
    assert nva.lower_share == pytest.approx(15 / 21)
    assert round(nva.lower_share, 3) == 0.714
    assert nva.baseline_share == pytest.approx(35 / 124)
    assert round(nva.baseline_share, 3) == 0.282
    assert nva.lower_share > nva.baseline_share
    # 21 active actors sit above the <20 threshold: no low-sample warning
    (coverage,) = result.coverage
    assert coverage.active_total == 21
    assert coverage.low_sample is False
    assert time.monotonic() - started < 1.0
    record_criterion(4, "Flemish snapshot flags N-VA over-represented")


# --- shared enumeration machinery for criteria 5 and 6 ----------------------

PARTIES = ("A", "B", "C", "D")
ENUM_INTERVAL = DateInterval(date(2010, 1, 1), None)


def random_snapshot(rng):
    """Politicians with random relevant-party careers; enumeration stays
    tractable by limiting how many multi-party careers one snapshot has."""
    count = rng.randint(1, 10)
    politicians = []
    multi_budget = 3
    for k in range(count):
        roll = rng.random()
        if roll < 0.15:
            affs = [Affiliation("Local", ENUM_INTERVAL, relevant=False)]
        elif roll < 0.75 or multi_budget == 0:
            affs = [Affiliation(rng.choice(PARTIES), ENUM_INTERVAL)]
        else:
            multi_budget -= 1
            chosen = rng.sample(PARTIES, rng.randint(2, 3))
            affs = [Affiliation(p, ENUM_INTERVAL) for p in chosen]
        politicians.append(
            PoliticianRecord(id=f"p{k}", label=f"p{k}", affiliations=tuple(affs))
        )
    return politicians


def enumerate_counts(politicians):
    """All reachable per-party visibility counts: single-party careers always
    count, multi-party careers contribute any subset of their parties."""
    choices = []
    for p in politicians:
        career = sorted(p.relevant_parties())
        if len(career) <= 1:
            choices.append((frozenset(career),))
        else:
            choices.append(
                tuple(
                    frozenset(c)
                    for r in range(len(career) + 1)
                    for c in itertools.combinations(career, r)
                )
            )
    for assignment in itertools.product(*choices):
        yield {
            party: sum(1 for chosen in assignment if party in chosen)
            for party in PARTIES
        }


@pytest.fixture(scope="module")
def enumeration_cases():
    rng = random.Random(555)
    cases = []
    for _ in range(200):
        politicians = random_snapshot(rng)
        bounds = compute_bounds(
            Counter(p.relevant_parties() for p in politicians), parties=PARTIES
        )
        observed = list(enumerate_counts(politicians))
        cases.append((politicians, bounds, observed))
    return cases


def test_criterion_5_bounds_tightness(enumeration_cases):
    started = time.monotonic()
    for politicians, bounds, observed in enumeration_cases:
        for party in PARTIES:
            counts = [c[party] for c in observed]
            lower, upper = bounds[party]
            assert lower == min(counts)
            assert upper == max(counts)
    assert time.monotonic() - started < 30.0
    record_criterion(5, "bounds match exhaustive visibility enumeration")


def test_criterion_6_verdict_soundness(enumeration_cases):
    rng = random.Random(556)
    counterexamples = 0
    for politicians, bounds, observed in enumeration_cases:
        total = len(politicians)
        for party in PARTIES:
            baseline = rng.random()
            lower, upper = bounds[party]
            verdict = classify(lower / total, upper / total, baseline)
            shares = [c[party] / total for c in observed]
            if verdict == "over" and not all(s > baseline for s in shares):
                counterexamples += 1
            if verdict == "under" and not all(s < baseline for s in shares):
                counterexamples += 1
    assert counterexamples == 0
    record_criterion(6, "over/under verdicts hold for every assignment")


def _score_text(doc, rules, triples):
    mentions = match_rules(doc, rules)
    counts = aggregate_mentions(mentions)
    ontology = builtin_ontology()
    features = {i: enrich_entity(i, triples, ontology) for i in sorted(counts)}
    return stirling_delta(
        compute_balance(counts), compute_disparity(features), DiversityParams(1, 1)
    ).delta


def test_criterion_7_bias_propagation_inversion():
    left = ["La", "Lb", "Lc"]
    right_r = ["Ra", "Rb", "Rc"]
    right_r2 = ["Rd", "Re", "Rf"]
    extreme_q = ["Qa", "Qb", "Qc"]

    text_a = "La Lb Lc Ra Rb Rc"
    text_b = "Rd Re Rf Qa Qb Qc"
    doc_a = TextDocument(doc_id="a", text=text_a)
    doc_b = TextDocument(doc_id="b", text=text_b)

    def rule(name):
        return MatchRule(pattern=name, target_entity=name)

    full_rules = [rule(n) for n in left + right_r + right_r2 + extreme_q]
    biased_rules = [rule(n) for n in right_r + right_r2 + extreme_q]

    # full knowledge source: text (a) actors have pairwise-disjoint features
    full_rows = []
    for name in left + right_r:
        full_rows.append((name, "type", "person"))
        full_rows.append((name, "occupation", f"office-{name}"))
    for name in right_r2:
        full_rows.extend(
            [
                (name, "type", "person"),
                (name, "party", f"R:{name}"),
                (name, "alignment", "right"),
                (name, "occupation", f"office-{name}"),
            ]
        )
    for name in extreme_q:
        full_rows.extend(
            [
                (name, "type", "person"),
                (name, "party", f"Q:{name}"),
                (name, "alignment", "right"),
                (name, "occupation", f"office-{name}"),
            ]
        )
    full = CsvTripleSource(rows=full_rows)

    # right-biased source: only R and Q actors exist, with flat party features
    biased_rows = []
    for name in right_r + right_r2:
        biased_rows.extend(
            [(name, "type", "person"), (name, "party", "R"), (name, "ideology", "right")]
        )
    for name in extreme_q:
        biased_rows.extend(
            [(name, "type", "person"), (name, "party", "Q"), (name, "ideology", "extreme-right")]
        )
    biased = CsvTripleSource(rows=biased_rows)

    delta_a = _score_text(doc_a, full_rules, full)
    delta_b = _score_text(doc_b, full_rules, full)
    # ground truth: the balanced text is more diverse
    assert delta_a > delta_b
    assert delta_a == pytest.approx(5 / 6, abs=1e-12)

    delta_a_filtered = _score_text(doc_a, biased_rules, biased)
    delta_b_filtered = _score_text(doc_b, biased_rules, biased)
    # seen through the right-biased recognizer the ordering inverts
    assert delta_a_filtered < delta_b_filtered
    assert delta_a_filtered == 0.0
    record_criterion(7, "knowledge-source bias inverts computed diversity")


def test_criterion_8_pagination_and_rate_cap(tmp_path):
    make_probe_dataset(tmp_path, "en-dbpedia", "probe", 250)
    store = RecordingStore(tmp_path)
    template = QueryTemplate(
        template_id="probe",
        dialect="en-dbpedia",
        query_text="#template=probe\nSELECT ?x WHERE { ?x ?p ?o }\nORDER BY ?x",
    )
    cap = 200.0
    row_sets = {}
    with FixtureServer(store) as server:
        for page_size in (1, 7, 100):
            endpoint = EndpointConfig(
                url=server.url_for("en-dbpedia"),
                dialect="en-dbpedia",
                page_size=page_size,
                max_requests_per_second=cap,
            )
            rows = execute_query(endpoint, template)
            row_sets[page_size] = frozenset(x for x, in rows)
    assert row_sets[1] == row_sets[7] == row_sets[100]
    assert len(row_sets[1]) == 250

    for page_size in (1, 7, 100):
        requests = [r for r in store.requests if r.limit == page_size]
        assert [r.offset for r in requests] == list(range(0, 251, page_size))
        stamps = sorted(r.monotonic for r in requests)
        assert len(stamps) == 250 // page_size + 1
        # arrival jitter dominates tiny samples; judge the rate only on runs
        # with enough requests for the average to be meaningful
        if len(stamps) >= 10:
            observed_rate = (len(stamps) - 1) / (stamps[-1] - stamps[0])
            assert observed_rate <= cap * 1.05
    record_criterion(8, "paging invariant and request rate capped")


def test_criterion_9_end_to_end_determinism(tmp_path, fixture_dir, kg_fixture_dir):
    def run(argv):
        assert cli_main(argv) == 0

    digests = []
    for label in ("first", "second"):
        base = tmp_path / label
        run(
            [
                "fetch",
                "--source",
                "en-dbpedia",
                "--from-fixture",
                str(kg_fixture_dir),
                "--out",
                str(base / "snap"),
            ]
        )
        run(
            [
                "audit",
                "--snapshot",
                str(base / "snap"),
                "--baseline",
                str(fixture_dir / "baselines.csv"),
                "--map",
                str(fixture_dir / "map.csv"),
                "--parties",
                str(fixture_dir / "parties.csv"),
                "--body",
                "KVV",
                "--out",
                str(base / "audit"),
            ]
        )
        run(
            [
                "report",
                "--audit",
                str(base / "audit" / "audit_kvv.csv"),
                "--baseline-label",
                "KVV",
                "--out",
                str(base / "fig"),
            ]
        )
        tree = {}
        for path in sorted((base).rglob("*")):
            if path.is_file():
                tree[str(path.relative_to(base))] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
        digests.append(tree)
    assert digests[0] == digests[1]

    # band edges must parse back to the audit CSV shares within one pixel
    base = tmp_path / "first"
    audit_rows = {}
    audit_lines = (
        (base / "audit" / "audit_kvv.csv").read_text(encoding="utf-8").strip().splitlines()
    )
    header = audit_lines[0].split(",")
    for line in audit_lines[1:]:
        row = dict(zip(header, line.split(",")))
        audit_rows.setdefault(row["canonical_acronym"], []).append(row)

    root = ET.fromstring(
        (base / "fig" / "figure_en-dbpedia.svg").read_text(encoding="utf-8")
    )
    y_max = float(root.attrib["data-y-max"])
    checked = 0
    for panel in root.iter(f"{SVG_NS}g"):
        if panel.attrib.get("class") != "panel":
            continue
        party = panel.attrib["data-party"]
        panel_top = float(panel.attrib["data-panel-top"])
        rows = sorted(audit_rows[party], key=lambda r: r["time_point"])
        for element in panel.iter(f"{SVG_NS}polyline"):
            if element.attrib.get("class") != "band-edge":
                continue
            kind = element.attrib["data-kind"]
            column = "lower_share" if kind == "lower" else "upper_share"
            points = [
                tuple(float(v) for v in pair.split(","))
                for pair in element.attrib["points"].split()
            ]
            assert len(points) == len(rows)
            for row, (_, y_pixel) in zip(rows, points):
                share = float(row[column])
                expected_pixel = panel_top + PANEL_HEIGHT - share / y_max * PANEL_HEIGHT
                assert abs(expected_pixel - y_pixel) <= 1.0
                assert share_from_pixel(y_pixel, panel_top, y_max) == pytest.approx(
                    share, abs=y_max / PANEL_HEIGHT
                )
                checked += 1
    assert checked > 50
    record_criterion(9, "pipeline reruns byte-identical; figure edges parse back")


def test_criterion_10_activity_period_properties():
    rng = random.Random(777)
    day0 = date(1970, 1, 1)

    def maybe_date(low, high, p_none):
        if rng.random() < p_none:
            return None
        return day0 + timedelta(days=rng.randint(low, high))

    for _ in range(1000):
        intervals = []
        for _ in range(rng.randint(1, 6)):
            start = maybe_date(0, 18000, 0.25)
            if start is None:
                end = maybe_date(0, 20000, 0.0)
            else:
                end = (
                    None
                    if rng.random() < 0.4
                    else start + timedelta(days=rng.randint(0, 4000))
                )
            intervals.append(DateInterval(start, end))
        death = maybe_date(1000, 25000, 0.6)
        override = maybe_date(1000, 25000, 0.7)
        if death is not None and override is not None and override > death:
            override = death
        today = day0 + timedelta(days=rng.randint(20000, 26000))

        politician = PoliticianRecord(
            id="p",
            label="p",
            affiliations=tuple(Affiliation("A", iv) for iv in intervals),
            death_date=death,
            career_end_override=override,
        )
        period = activity_period(politician, today)
        caps = [today] + [d for d in (death, override) if d is not None]
        cap = min(caps)
        starts = [iv.start for iv in intervals if iv.start is not None]
        effective_ends = [iv.end if iv.end is not None else cap for iv in intervals]

        if period is None:
            assert starts and min(starts) > max(effective_ends)
            continue
        # hull containment of all recorded endpoints
        for iv in intervals:
            if iv.start is not None:
                assert period.start is not None and period.start <= iv.start
            if iv.end is not None:
                assert period.end >= iv.end
        # the end cap is exactly the minimum applicable cap
        assert period.end == max(effective_ends)
        open_ended = [iv for iv in intervals if iv.end is None]
        if open_ended and all(iv.end is None or iv.end <= cap for iv in intervals):
            assert period.end == cap or period.end >= cap
        if all(iv.end is None for iv in intervals):
            assert period.end == cap
        # inclusive boundary membership
        assert period.contains(period.end)
        assert not period.contains(period.end + timedelta(days=1))
        if period.start is not None:
            assert period.contains(period.start)
            assert not period.contains(period.start - timedelta(days=1))
    record_criterion(10, "activity hulls contain input and cap open ends")
