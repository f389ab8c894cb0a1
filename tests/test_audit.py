"""Unit and property tests for the representation-bias audit."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgdiv.audit import (
    BaselineTable,
    ElectionResult,
    NormalizationMap,
    PartyRecord,
    baseline_share,
    classify,
    compute_bounds,
    judge,
    load_baselines,
    load_normalization_map,
    read_snapshot,
    run_audit,
)
from kgdiv.csvformat import read_parties_csv, read_politicians_csv
from tests.oracles import (
    Affiliation,
    DateInterval,
    PoliticianRecord,
    activity_period,
    audit_by_records,
    normalize_affiliations,
)

TODAY = date(2022, 5, 1)


def make_map(**relevance_overrides):
    parties = {
        "N-VA": PartyRecord("N-VA", "right", "relevant"),
        "CD&V": PartyRecord("CD&V", "centre", "relevant"),
        "VB": PartyRecord("VB", "extreme-right", "relevant"),
        "Vooruit": PartyRecord("Vooruit", "centre-left", "relevant"),
        "LocalList": PartyRecord("LocalList", "other", "not-relevant"),
        "UF": PartyRecord("UF", "unknown", "foreign"),
    }
    for name, rel in relevance_overrides.items():
        parties[name] = PartyRecord(name, parties[name].alignment, rel)
    aliases = {
        "Volksunie": "N-VA",
        "http://example.org/party/NVA": "N-VA",
        "sp.a": "Vooruit",
    }
    return NormalizationMap(alias_to_canonical=aliases, canonical_to_party=parties)


def snapshot_row(
    pid, party="", start="", end="", death="", label="", source="test", stamp="2022-05-01"
):
    """A politicians row as read_politicians_csv gives it."""
    return (source, pid, label or pid, party, start, end, death, "", stamp)


def normalize(rows):
    """The records and unmapped refs of one source's rows, read once."""
    snapshot = read_snapshot(rows, nmap=make_map())
    return normalize_affiliations(snapshot.rows), snapshot.unmapped


def audit(rows, nmap, schedule, today=None):
    return run_audit(read_snapshot(rows, nmap=nmap), nmap, schedule=schedule, today=today)


def findings_of(rows, nmap=None):
    return read_snapshot(rows, nmap=nmap).findings


def politician(pid, *affs, death=None, override=None):
    return PoliticianRecord(
        id=pid,
        label=pid,
        affiliations=tuple(affs),
        death_date=death,
        career_end_override=override,
    )


def enumerate_visibility_assignments(active, parties):
    """Oracle: every way multi-party politicians can spread visibility.

    Single-relevant-party politicians always confer visibility on their
    party; multi-party ones confer it on an arbitrary subset (possibly
    empty) of theirs. Yields a count per party for each assignment.
    """
    choice_sets = []
    for p in active:
        career = sorted(p.relevant_parties())
        if len(career) <= 1:
            choice_sets.append([frozenset(career)])
        else:
            subsets = []
            for r in range(len(career) + 1):
                subsets.extend(frozenset(c) for c in itertools.combinations(career, r))
            choice_sets.append(subsets)
    for assignment in itertools.product(*choice_sets):
        yield {party: sum(1 for chosen in assignment if party in chosen) for party in parties}


class TestNormalize:
    def test_alias_collapse(self):
        rows = [
            snapshot_row("p1", party="Volksunie", start="1980-01-01", end="2001-09-30"),
            snapshot_row("p1", party="http://example.org/party/NVA", start="2001-10-01"),
        ]
        (p,), unmapped = normalize(rows)
        assert {a.party for a in p.affiliations} == {"N-VA"}
        assert len(p.affiliations) == 2  # distinct intervals survive the merge
        assert unmapped == []

    def test_not_relevant_flagged_but_retained(self):
        rows = [snapshot_row("p1", party="LocalList", start="2000-01-01")]
        (p,), _ = normalize(rows)
        assert len(p.affiliations) == 1
        assert not p.affiliations[0].relevant
        assert p.relevant_parties() == frozenset()

    def test_duplicate_rows_merged(self):
        rows = [
            snapshot_row("p1", party="N-VA", start="2004-01-01", end="2010-01-01"),
            snapshot_row("p1", party="N-VA", start="2004-01-01", end="2010-01-01"),
        ]
        (p,), _ = normalize(rows)
        assert len(p.affiliations) == 1

    def test_unmapped_ref_reported(self):
        rows = [snapshot_row("p1", party="MysteryParty")]
        (p,), unmapped = normalize(rows)
        assert len(unmapped) == 1
        assert unmapped[0].raw_ref == "MysteryParty"
        assert p.affiliations == ()

    def test_inverted_interval_loses_dates(self):
        rows = [snapshot_row("p1", party="N-VA", start="2005-01-01", end="2001-01-01")]
        (p,), _ = normalize(rows)
        assert p.affiliations[0].interval is None


class TestActivityPeriod:
    def test_hull_with_death_cap(self):
        p = politician(
            "p1",
            Affiliation("N-VA", DateInterval(date(1995, 1, 1), date(2003, 1, 1))),
            Affiliation("CD&V", DateInterval(date(2001, 1, 1), None)),
            death=date(2010, 6, 1),
        )
        period = activity_period(p, date(2022, 1, 1))
        assert period == DateInterval(date(1995, 1, 1), date(2010, 6, 1))

    def test_today_cap(self):
        p = politician("p1", Affiliation("N-VA", DateInterval(date(2018, 1, 1), None)))
        assert activity_period(p, TODAY) == DateInterval(date(2018, 1, 1), TODAY)

    def test_override_cap(self):
        p = politician(
            "p1",
            Affiliation("N-VA", DateInterval(date(2000, 1, 1), None)),
            override=date(2012, 3, 15),
        )
        assert activity_period(p, TODAY).end == date(2012, 3, 15)

    def test_no_dated_affiliations(self):
        p = politician("p1", Affiliation("N-VA", None))
        assert activity_period(p, TODAY) is None

    def test_explicit_end_trusted_over_cap(self):
        p = politician(
            "p1",
            Affiliation("N-VA", DateInterval(date(1990, 1, 1), date(2012, 1, 1))),
            death=date(2005, 1, 1),
        )
        # the explicit affiliation end stands; only open ends get capped
        assert activity_period(p, TODAY).end == date(2012, 1, 1)

    def test_evidence_beyond_cap(self):
        p = politician(
            "p1",
            Affiliation("N-VA", DateInterval(date(2012, 1, 1), None)),
            death=date(2005, 1, 1),
        )
        assert activity_period(p, TODAY) is None


def is_active(p, time_point):
    period = activity_period(p, TODAY)
    return period is not None and period.contains(time_point)


def career_counts(politicians):
    return Counter(p.relevant_parties() for p in politicians)


class TestSelectActive:
    @pytest.mark.parametrize(
        "time_point, expect_active",
        [
            (date(2000, 1, 1), True),
            (date(2011, 1, 1), False),
            (date(2010, 12, 31), True),
            (date(1995, 1, 1), True),  # inclusive start boundary
            (date(1994, 12, 31), False),
        ],
    )
    def test_containment(self, time_point, expect_active):
        p = politician(
            "p1",
            Affiliation(
                "N-VA", DateInterval(date(1995, 1, 1), date(2010, 12, 31))
            ),
        )
        assert is_active(p, time_point) == expect_active

    def test_inclusive_end_boundary(self):
        p = politician(
            "p1", Affiliation("N-VA", DateInterval(date(1995, 1, 1), date(2000, 1, 1)))
        )
        assert is_active(p, date(2000, 1, 1))


class TestComputeBounds:
    def test_hand_enumeration(self):
        t = date(2020, 1, 1)
        iv = DateInterval(date(2010, 1, 1), None)
        ps = [
            politician("p1", Affiliation("A", iv)),
            politician("p2", Affiliation("A", iv)),
            politician("p3", Affiliation("A", iv), Affiliation("B", iv)),
            politician("p4", Affiliation("B", iv)),
        ]
        assert all(is_active(p, t) for p in ps)
        counts = career_counts(ps)
        bounds = compute_bounds(counts)
        assert bounds["A"] == (2, 3)
        assert bounds["B"] == (1, 2)
        active_total = counts.total()
        assert active_total == 4
        assert bounds["A"][0] / active_total == pytest.approx(0.5)
        assert bounds["A"][1] / active_total == pytest.approx(0.75)

    def test_single_party_careers_collapse_bounds(self):
        t = date(2020, 1, 1)
        iv = DateInterval(date(2010, 1, 1), None)
        ps = [
            politician("p1", Affiliation("A", iv)),
            politician("p2", Affiliation("B", iv)),
        ]
        assert all(is_active(p, t) for p in ps)
        for lower, upper in compute_bounds(career_counts(ps)).values():
            assert lower == upper

    def test_non_relevant_only_counts_in_denominator(self):
        t = date(2020, 1, 1)
        iv = DateInterval(date(2010, 1, 1), None)
        ps = [
            politician("p1", Affiliation("A", iv)),
            politician("p2", Affiliation("Local", iv, relevant=False)),
        ]
        assert all(is_active(p, t) for p in ps)
        counts = career_counts(ps)
        bounds = compute_bounds(counts)
        assert set(bounds) == {"A"}
        assert counts.total() == 2
        assert bounds["A"][0] / counts.total() == pytest.approx(0.5)

    def test_empty_active_set(self):
        assert compute_bounds(Counter()) == {}

    def test_matches_enumeration_oracle(self):
        rng = random.Random(11)
        t = date(2020, 1, 1)
        iv = DateInterval(date(2010, 1, 1), None)
        parties = ["A", "B", "C", "D"]
        for _ in range(50):
            ps = []
            for k in range(rng.randint(1, 8)):
                n_parties = rng.choice([0, 1, 1, 1, 1, 2, 2, 3])
                chosen = rng.sample(parties, n_parties)
                affs = [Affiliation(party, iv) for party in chosen]
                if not affs:
                    affs = [Affiliation("Local", iv, relevant=False)]
                ps.append(politician(f"p{k}", *affs))
            assert all(is_active(p, t) for p in ps)
            bounds = compute_bounds(career_counts(ps), parties=parties)
            counts_per_assignment = list(
                enumerate_visibility_assignments(ps, parties)
            )
            for party in parties:
                observed = [c[party] for c in counts_per_assignment]
                assert bounds[party][0] == min(observed)
                assert bounds[party][1] == max(observed)
            # each politician feeds at most one lower count, and everyone
            # with a relevant affiliation feeds at least one upper count
            assert sum(lower for lower, _ in bounds.values()) <= len(ps)
            with_relevant = sum(1 for p in ps if p.relevant_parties())
            assert sum(upper for _, upper in bounds.values()) >= with_relevant


class TestBaselineShare:
    def setup_method(self):
        self.table = BaselineTable(
            body="VP",
            elections={
                date(2014, 5, 25): ElectionResult({"N-VA": 43, "CD&V": 27}, 124),
                date(2019, 5, 26): ElectionResult({"N-VA": 35, "CD&V": 19}, 124),
            },
        )

    def test_seat_share(self):
        share = baseline_share(self.table, "N-VA", date(2020, 1, 1))
        assert share == pytest.approx(35 / 124)
        assert share == pytest.approx(0.282, abs=5e-4)

    def test_party_without_seats(self):
        assert baseline_share(self.table, "PVDA", date(2020, 1, 1)) == 0.0

    def test_preceding_policy(self):
        share = baseline_share(self.table, "N-VA", date(2015, 1, 1))
        assert share == pytest.approx(43 / 124)

    def test_preceding_before_first_election(self):
        with pytest.raises(ValueError, match="precedes the first recorded election"):
            baseline_share(self.table, "N-VA", date(1990, 1, 1))

    def test_closest_policy_before_first_election(self):
        share = baseline_share(
            self.table, "N-VA", date(1990, 1, 1), policy="closest-in-time"
        )
        assert share == pytest.approx(43 / 124)

    def test_closest_equidistant_breaks_earlier(self):
        table = BaselineTable(
            body="VP",
            elections={
                date(2000, 1, 1): ElectionResult({"N-VA": 10}, 100),
                date(2000, 1, 11): ElectionResult({"N-VA": 20}, 100),
            },
        )
        share = baseline_share(
            table, "N-VA", date(2000, 1, 6), policy="closest-in-time"
        )
        assert share == pytest.approx(0.10)


class TestClassify:
    def _bounds(self, lower, upper, total=100):
        return compute_bounds_stub(lower, upper, total)

    def test_over(self):
        b = compute_bounds_stub(30, 40)
        assert classify(*b, 0.20) == "over"

    def test_under(self):
        b = compute_bounds_stub(5, 10)
        assert classify(*b, 0.20) == "under"

    def test_indeterminate_straddle(self):
        b = compute_bounds_stub(15, 25)
        assert classify(*b, 0.20) == "indeterminate"

    @pytest.mark.parametrize("lower,upper", [(20, 30), (10, 20)])
    def test_tie_is_indeterminate(self, lower, upper):
        b = compute_bounds_stub(lower, upper)
        assert classify(*b, 0.20) == "indeterminate"


def compute_bounds_stub(lower, upper, total=100):
    """The (lower share, upper share) of one party."""
    return lower / total, upper / total


class TestRunAudit:
    def test_synthetic_over_under(self):
        nmap = NormalizationMap(
            alias_to_canonical={},
            canonical_to_party={
                "A": PartyRecord("A", "left", "relevant"),
                "B": PartyRecord("B", "right", "relevant"),
            },
        )
        baselines = BaselineTable(
            body="KVV",
            elections={date(2019, 5, 26): ElectionResult({"A": 40, "B": 60}, 100)},
        )
        rows = [
            snapshot_row("p1", party="A", start="2010-01-01"),
            snapshot_row("p2", party="A", start="2010-01-01"),
            snapshot_row("p3", party="A", start="2010-01-01"),
            snapshot_row("p4", party="B", start="2010-01-01"),
        ]
        result = audit(rows, nmap, schedule=[date(2020, 1, 1)], today=TODAY)
        verdicts = {r.party: r.verdict for r in judge(result.rows, baselines)}
        assert verdicts == {"A": "over", "B": "under"}
        assert result.coverage[0].active_total == 4
        assert result.coverage[0].low_sample

    def test_empty_snapshot(self):
        nmap = make_map()
        baselines = BaselineTable(
            body="KVV",
            elections={date(2019, 5, 26): ElectionResult({"N-VA": 25}, 150)},
        )
        result = audit([], nmap, schedule=[date(2020, 1, 1)], today=TODAY)
        assert judge(result.rows, baselines) == []
        assert result.coverage == []

    def test_deterministic(self):
        nmap = make_map()
        baselines = BaselineTable(
            body="KVV",
            elections={date(2019, 5, 26): ElectionResult({"N-VA": 25, "CD&V": 12}, 150)},
        )
        rows = [
            snapshot_row("p1", party="N-VA", start="2010-01-01"),
            snapshot_row("p2", party="Volksunie", start="1990-01-01", end="2001-01-01"),
            snapshot_row("p2", party="CD&V", start="2001-01-02"),
        ]
        first = audit(rows, nmap, schedule=[date(2020, 1, 1)], today=TODAY)
        second = audit(rows, nmap, schedule=[date(2020, 1, 1)], today=TODAY)
        assert judge(first.rows, baselines) == judge(second.rows, baselines)
        assert first.coverage == second.coverage

    def test_unstamped_rows_need_today(self):
        rows = [snapshot_row("p1", party="N-VA", start="2021-01-01", stamp="")]
        with pytest.raises(ValueError, match="--today"):
            audit(rows, make_map(), schedule=[date(2022, 1, 1)])
        result = audit(rows, make_map(), schedule=[date(2022, 1, 1)], today=TODAY)
        assert result.coverage[0].active_total == 1

    def test_empty_snapshot_needs_no_today(self):
        result = audit([], make_map(), schedule=[date(2020, 1, 1)])
        assert result.rows == [] and result.coverage == []

    def test_today_defaults_to_retrieved_at(self):
        nmap = make_map()
        rows = [snapshot_row("p1", party="N-VA", start="2021-01-01")]
        result = audit(rows, nmap, schedule=[date(2022, 1, 1)])
        # open affiliation capped at the snapshot stamp 2022-05-01, so the
        # politician is active at 2022-01-01 regardless of the wall clock
        assert result.coverage[0].active_total == 1

    def test_partial_dates_span_their_whole_period(self):
        rows = [
            snapshot_row("p1", party="N-VA", start="1990", end="1990"),
            snapshot_row("p2", party="CD&V", start="1990-02", end="1990-12"),
        ]
        schedule = [date(1990, 1, 1), date(1990, 12, 31), date(1991, 1, 1)]
        result = audit(rows, make_map(), schedule=schedule, today=TODAY)
        assert [c.active_total for c in result.coverage] == [1, 2, 0]


def test_two_sources_keep_their_own_deaths():
    """A record takes the first death of its own source; death-before-start
    takes each politician's first death across sources and every start,
    an inverted row's too."""
    rows = [
        snapshot_row("p1", party="N-VA", start="1990-01-01", death="2000-06-30", source="en-dbpedia"),
        snapshot_row("p1", party="sp.a", start="2005-01-01", source="wikidata"),
        snapshot_row(
            "p1", party="CD&V", start="2003-01-01", end="2004-12-31", death="2011-12-31",
            source="wikidata",
        ),
        snapshot_row("p1", party="Volksunie", start="2011", death="1999", source="wikidata"),
        snapshot_row(
            "p2", party="VB", start="2005-01-01", end="2001-01-01", death="2002-01-01",
            source="en-dbpedia",
        ),
    ]
    nmap = make_map()
    snapshot = read_snapshot(rows, nmap=nmap)
    assert [(f.kind, f.subject, f.detail) for f in snapshot.findings] == [
        ("death-before-start", "p1", "death 2000-06-30 precedes affiliation start 2003-01-01"),
        ("death-before-start", "p2", "death 2002-01-01 precedes affiliation start 2005-01-01"),
        ("inverted-interval", "p2", "affiliation VB has end 2001-01-01 before start 2005-01-01"),
        (
            "partial-date",
            "p1",
            "affiliation Volksunie: aff_start 2011 read as 2011-01-01, "
            "death_date 1999 read as 1999-12-31",
        ),
    ]
    records = {
        source: normalize_affiliations(r for r in snapshot.rows if r[0] == source)
        for source in ("en-dbpedia", "wikidata")
    }
    assert records == {
        "en-dbpedia": [
            politician(
                "p1",
                Affiliation("N-VA", DateInterval(date(1990, 1, 1), None)),
                death=date(2000, 6, 30),
            ),
            politician("p2", Affiliation("VB", None), death=date(2002, 1, 1)),
        ],
        "wikidata": [
            politician(
                "p1",
                Affiliation("Vooruit", DateInterval(date(2005, 1, 1), None)),
                Affiliation("CD&V", DateInterval(date(2003, 1, 1), date(2004, 12, 31))),
                Affiliation("N-VA", DateInterval(date(2011, 1, 1), None)),
                death=date(2011, 12, 31),
            ),
        ],
    }
    schedule = [date(2000, 1, 1), date(2004, 1, 1), date(2010, 1, 1), date(2012, 1, 1)]
    result = run_audit(snapshot, nmap, schedule=schedule)
    assert [(c.source, c.active_total, c.undated_total) for c in result.coverage] == [
        ("en-dbpedia", 1, 1),
        ("en-dbpedia", 0, 1),
        ("en-dbpedia", 0, 1),
        ("en-dbpedia", 0, 1),
        ("wikidata", 0, 0),
        ("wikidata", 1, 0),
        ("wikidata", 1, 0),
        ("wikidata", 0, 0),
    ]


def test_a_repeated_schedule_day_is_one_time_point(fixture_dir):
    nmap = load_normalization_map(fixture_dir / "map.csv", fixture_dir / "parties.csv")
    golden = Path(__file__).parent / "golden" / "snapshot_en"
    snapshot = read_snapshot(
        read_politicians_csv(golden / "politicians.csv"),
        read_parties_csv(golden / "parties.csv"),
        nmap,
    )
    once = run_audit(snapshot, nmap, schedule=(date(2011, 1, 1),))
    assert (len(once.rows), len(once.coverage)) == (7, 1)
    assert run_audit(snapshot, nmap, schedule=(date(2011, 1, 1),) * 2) == once


class TestValidateSnapshot:
    def test_type_conflict(self):
        rows = [
            snapshot_row("p1", party="X"),
            snapshot_row("X", party="N-VA"),
        ]
        findings = findings_of(rows)
        assert any(f.kind == "type-conflict" and f.subject == "X" for f in findings)

    def test_inverted_interval(self):
        rows = [snapshot_row("p1", party="N-VA", start="2005-01-01", end="2001-01-01")]
        findings = findings_of(rows)
        assert [f.kind for f in findings] == ["inverted-interval"]

    def test_death_before_start(self):
        rows = [
            snapshot_row(
                "p1", party="N-VA", start="2010-01-01", death="2005-06-01"
            )
        ]
        findings = findings_of(rows)
        assert [f.kind for f in findings] == ["death-before-start"]

    def test_clean_snapshot(self):
        rows = [snapshot_row("p1", party="N-VA", start="2010-01-01", end="2014-01-01")]
        assert findings_of(rows) == []

    def test_no_relevant_affiliation(self):
        rows = [snapshot_row("p1", party="LocalList", start="2010-01-01")]
        findings = findings_of(rows, nmap=make_map())
        assert [f.kind for f in findings] == ["no-relevant-affiliation"]

    def test_partial_date_one_finding_per_row(self):
        rows = [
            snapshot_row("p1", party="N-VA", start="1990", end="1995-06"),
            snapshot_row("p1", party="CD&V", start="1996-01-01", death="2001-04"),
            snapshot_row("p2", party="N-VA", start="2000-01-01", end="2004-01-01"),
        ]
        findings = findings_of(rows)
        assert [(f.kind, f.subject) for f in findings] == [
            ("partial-date", "p1"),
            ("partial-date", "p1"),
        ]
        assert findings[0].detail == (
            "affiliation N-VA: aff_start 1990 read as 1990-01-01, "
            "aff_end 1995-06 read as 1995-06-30"
        )
        assert findings[1].detail == (
            "affiliation CD&V: death_date 2001-04 read as 2001-04-30"
        )


@st.composite
def iso_dates_of_any_precision(draw):
    """(text, first day, last day) for a YYYY, YYYY-MM or YYYY-MM-DD value."""
    day = draw(st.dates(min_value=date(1000, 1, 1), max_value=date(9998, 12, 31)))
    precision = draw(st.sampled_from(["year", "month", "day"]))
    if precision == "year":
        return f"{day:%Y}", date(day.year, 1, 1), date(day.year, 12, 31)
    if precision == "month":
        first = day.replace(day=1)
        following = (first + timedelta(days=31)).replace(day=1)
        return f"{day:%Y-%m}", first, following - timedelta(days=1)
    return day.isoformat(), day, day


@given(iso_dates_of_any_precision())
@settings(max_examples=300)
def test_property_partial_date_edges(case):
    text, first, last = case
    rows = [snapshot_row("p1", party="N-VA", start=text, end=text, death=text)]
    (p,), _ = normalize(rows)
    interval = p.affiliations[0].interval
    assert interval.start <= interval.end
    # the start edge is the period's first day, the end and death its last
    assert interval.start == first
    assert interval.end == last == p.death_date
    assert [f.kind for f in findings_of(rows)] == (["partial-date"] if first != last else [])


DAY0 = date(1970, 1, 1)


@st.composite
def interval_sets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    intervals = []
    for _ in range(n):
        start_off = draw(st.one_of(st.none(), st.integers(0, 18000)))
        if start_off is None:
            end_off = draw(st.integers(0, 20000))
        else:
            end_off = draw(st.one_of(st.none(), st.integers(start_off, 20000)))
        start = DAY0 + timedelta(days=start_off) if start_off is not None else None
        end = DAY0 + timedelta(days=end_off) if end_off is not None else None
        if start is None and end is None:
            intervals.append(None)
        else:
            intervals.append(DateInterval(start, end))
    death_off = draw(st.one_of(st.none(), st.integers(0, 25000)))
    override_off = draw(st.one_of(st.none(), st.integers(0, 25000)))
    death = DAY0 + timedelta(days=death_off) if death_off is not None else None
    override = DAY0 + timedelta(days=override_off) if override_off is not None else None
    if death is not None and override is not None and override > death:
        override = death
    today_off = draw(st.integers(20000, 26000))
    return intervals, death, override, DAY0 + timedelta(days=today_off)


@given(interval_sets())
@settings(max_examples=200)
def test_property_activity_hull(case):
    intervals, death, override, today = case
    p = PoliticianRecord(
        id="p",
        label="p",
        affiliations=tuple(Affiliation("A", iv) for iv in intervals),
        death_date=death,
        career_end_override=override,
    )
    period = activity_period(p, today)
    dated = [iv for iv in intervals if iv is not None]
    if not dated:
        assert period is None
        return
    caps = [today] + [d for d in (death, override) if d is not None]
    cap = min(caps)
    starts = [iv.start for iv in dated if iv.start is not None]
    if period is None:
        # only possible when every bit of evidence lies beyond the cap
        assert starts and min(starts) > max(
            iv.end if iv.end is not None else cap for iv in dated
        )
        return
    # hull contains every dated interval's known endpoints
    for iv in dated:
        if iv.start is not None:
            assert period.contains(iv.start) or iv.start > period.end
            assert period.start <= iv.start
        if iv.end is not None:
            assert period.end >= iv.end
    # open ends are capped by the minimum applicable cap
    expected_end = max(iv.end if iv.end is not None else cap for iv in dated)
    assert period.end == expected_end
    assert period.start == (min(starts) if starts else None)
    # inclusive boundary membership
    assert period.contains(period.end)
    if period.start is not None:
        assert period.contains(period.start)
        assert not period.contains(period.start - timedelta(days=1))
    assert not period.contains(period.end + timedelta(days=1))


def test_loaders(tmp_path):
    map_csv = tmp_path / "map.csv"
    map_csv.write_text(
        "alias,canonical_acronym\nVolksunie,N-VA\n", encoding="utf-8"
    )
    parties_csv = tmp_path / "parties.csv"
    parties_csv.write_text(
        "canonical_acronym,alignment,relevance\n"
        "N-VA,right,relevant\nUF,unknown,foreign\n",
        encoding="utf-8",
    )
    nmap = load_normalization_map(map_csv, parties_csv)
    assert nmap.resolve("Volksunie") == "N-VA"
    assert nmap.resolve("N-VA") == "N-VA"
    assert nmap.resolve("nope") is None
    assert nmap.relevant_parties() == ["N-VA"]

    baseline_csv = tmp_path / "baselines.csv"
    baseline_csv.write_text(
        "body,election_date,canonical_acronym,seats,total_seats\n"
        "VP,2019-05-26,N-VA,35,124\n"
        "VP,2019-05-26,CD&V,19,124\n"
        "KVV,2019-05-26,N-VA,25,150\n",
        encoding="utf-8",
    )
    tables = load_baselines(baseline_csv)
    assert set(tables) == {"VP", "KVV"}
    assert tables["VP"].elections[date(2019, 5, 26)].seats["N-VA"] == 35
    assert tables["VP"].elections[date(2019, 5, 26)].total_seats == 124


SOURCES = ("en-dbpedia", "nl-dbpedia", "wikidata")
#: mapped, aliased, not-relevant, foreign, unmapped and missing references
REFS = ("N-VA", "Volksunie", "CD&V", "VB", "sp.a", "LocalList", "UF", "Mystery", "")


@st.composite
def date_texts(draw):
    """An empty cell or a YYYY, YYYY-MM or YYYY-MM-DD value."""
    day = draw(st.dates(min_value=date(1985, 1, 1), max_value=date(2024, 12, 31)))
    return draw(st.sampled_from(["", f"{day:%Y}", f"{day:%Y-%m}", day.isoformat()]))


@st.composite
def audit_cases(draw):
    """Rows of up to three sources, with partial, inverted and missing
    dates and deaths; overrides no later than any death; a schedule; and
    an explicit today or none."""
    pids = [f"p{k}" for k in range(6)]
    rows = draw(
        st.lists(
            st.builds(
                snapshot_row,
                st.sampled_from(pids),
                party=st.sampled_from(REFS),
                start=date_texts(),
                end=date_texts(),
                death=st.one_of(st.just(""), date_texts()),
                source=st.sampled_from(SOURCES),
                stamp=st.sampled_from(["2022-05-01", "2021-11-30", ""]),
            ),
            max_size=30,
        )
    )
    overrides = draw(
        st.dictionaries(
            st.sampled_from(pids),
            st.dates(min_value=date(1985, 1, 1), max_value=date(2024, 12, 31)),
            max_size=3,
        )
    )
    schedule = draw(
        st.lists(
            st.dates(min_value=date(1984, 1, 1), max_value=date(2025, 12, 31)),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    today = draw(st.one_of(st.none(), st.dates(date(2000, 1, 1), date(2025, 12, 31))))
    return rows, overrides, schedule, today


@given(audit_cases())
@example(
    (
        [
            # a relevant and a not-relevant party; an override caps the career
            snapshot_row("p0", party="N-VA", start="2000-01-01", source="wikidata"),
            snapshot_row("p0", party="LocalList", start="2001", source="wikidata"),
            # an end-only pair, an open start, and two deaths of which the first counts
            snapshot_row("p1", party="CD&V", end="2010-06", source="en-dbpedia"),
            snapshot_row("p1", party="VB", start="2005-01-01", death="2012", source="en-dbpedia"),
            snapshot_row("p1", party="Mystery", death="2015-01-01", source="en-dbpedia"),
            # an inverted pair and an unstamped row without a party
            snapshot_row("p2", party="UF", start="2004-01-01", end="2003-01-01", source="nl-dbpedia"),
            snapshot_row("p2", start="1999", source="nl-dbpedia", stamp=""),
        ],
        {"p0": date(2010, 1, 1)},
        [date(2006, 1, 1), date(2011, 1, 1), date(2013, 1, 1)],
        None,
    )
)
@settings(max_examples=300, deadline=None)
def test_property_run_audit_equals_record_oracle(case):
    rows, overrides, schedule, today = case
    nmap = make_map()
    snapshot = read_snapshot(rows, nmap=nmap)
    # an override may not pass any death of its politician
    for _, pid, _, _, _, _, _, death in snapshot.rows:
        if death is not None and pid in overrides:
            overrides[pid] = min(overrides[pid], death)
    if today is None and snapshot.rows and snapshot.retrieved_at is None:
        with pytest.raises(ValueError, match="--today"):
            run_audit(snapshot, nmap, schedule=schedule, career_end_overrides=overrides)
        return
    result = run_audit(
        snapshot, nmap, schedule=schedule, today=today, career_end_overrides=overrides
    )
    expected = audit_by_records(
        snapshot, nmap, schedule, today or snapshot.retrieved_at or date.today(), overrides
    )
    assert result == expected


def test_override_after_death_names_the_first_politician():
    """Both a record and run_audit reject an override past the death; the
    audit names the first such politician of the first source."""
    rows = [
        snapshot_row("p2", party="N-VA", start="2000-01-01", death="2010-01-01", source="b"),
        snapshot_row("p1", party="N-VA", start="2000-01-01", death="2010-01-01", source="b"),
        snapshot_row("p3", party="N-VA", start="2000-01-01", death="2011", source="a"),
        snapshot_row("p3", party="N-VA", start="2000-01-01", death="2012-01-01", source="b"),
    ]
    nmap = make_map()
    snapshot = read_snapshot(rows, nmap=nmap)
    overrides = {pid: date(2011, 1, 1) for pid in ("p1", "p2", "p3")}
    message = "career end override 2011-01-01 after death 2010-01-01 for 'p1'"
    with pytest.raises(ValueError, match=message):
        run_audit(snapshot, nmap, schedule=[TODAY], career_end_overrides=overrides)
    with pytest.raises(ValueError, match=message):
        audit_by_records(snapshot, nmap, [TODAY], TODAY, overrides)
