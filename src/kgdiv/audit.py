"""Representation-bias audit of politician/party snapshots.

Pipeline: normalize raw affiliations to canonical party acronyms, derive
each politician's maximal activity period, count the whole-career party
sets of those active at each audit time point, bracket every party's
visibility between a lower bound (politicians whose whole relevant career
is that single party) and an upper bound (politicians ever affiliated
with it), and compare the bounds against parliamentary seat-share
baselines to classify parties as over-, under-, or indeterminately
represented. The bounds do not depend on the body, so one pass serves
every body and only the comparison runs per body.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path

from .catalog import csv_rows

logger = logging.getLogger(__name__)

ALIGNMENTS = (
    "extreme-left",
    "left",
    "centre-left",
    "centre",
    "centre-right",
    "right",
    "extreme-right",
    "other",
    "unknown",
)

RELEVANCE_CLASSES = ("relevant", "not-relevant", "foreign")

#: Audit years sampled at 1 January; the off-5-year points bracket the
#: general elections of 1995 and 2010.
DEFAULT_SCHEDULE = (
    date(1990, 1, 1),
    date(1996, 1, 1),
    date(2000, 1, 1),
    date(2005, 1, 1),
    date(2011, 1, 1),
    date(2015, 1, 1),
    date(2020, 1, 1),
)

#: Below this many active politicians the bound shares are flagged as hard
#: to interpret.
LOW_SAMPLE_THRESHOLD = 20

BASELINE_POLICIES = ("most-recent-preceding", "closest-in-time")


@dataclass(frozen=True)
class DateInterval:
    """Closed interval with optional open ends; None means unbounded."""

    start: date | None = None
    end: date | None = None

    def __post_init__(self) -> None:
        if self.start is not None and self.end is not None and self.start > self.end:
            raise ValueError(f"interval start {self.start} after end {self.end}")

    def contains(self, day: date) -> bool:
        if self.start is not None and day < self.start:
            return False
        if self.end is not None and day > self.end:
            return False
        return True

    @property
    def dated(self) -> bool:
        return self.start is not None or self.end is not None


@dataclass(frozen=True)
class Affiliation:
    party: str
    interval: DateInterval | None = None
    relevant: bool = True


@dataclass(frozen=True)
class PoliticianRecord:
    id: str
    label: str
    affiliations: tuple[Affiliation, ...] = ()
    death_date: date | None = None
    career_end_override: date | None = None

    def __post_init__(self) -> None:
        if (
            self.career_end_override is not None
            and self.death_date is not None
            and self.career_end_override > self.death_date
        ):
            raise ValueError(
                f"career end override {self.career_end_override} after death "
                f"{self.death_date} for {self.id!r}"
            )

    def relevant_parties(self) -> frozenset[str]:
        """The whole-career set of relevant party acronyms."""
        return frozenset(a.party for a in self.affiliations if a.relevant)


@dataclass(frozen=True)
class PartyRecord:
    canonical_acronym: str
    alignment: str
    relevance: str

    def __post_init__(self) -> None:
        if self.alignment not in ALIGNMENTS:
            raise ValueError(
                f"alignment {self.alignment!r} not one of {ALIGNMENTS}"
            )
        if self.relevance not in RELEVANCE_CLASSES:
            raise ValueError(
                f"relevance {self.relevance!r} not one of {RELEVANCE_CLASSES}"
            )


@dataclass(frozen=True)
class NormalizationMap:
    """Curated mapping of raw party references to canonical party records."""

    alias_to_canonical: Mapping[str, str]
    canonical_to_party: Mapping[str, PartyRecord]

    def __post_init__(self) -> None:
        for alias, canonical in self.alias_to_canonical.items():
            if canonical not in self.canonical_to_party:
                raise ValueError(
                    f"alias {alias!r} maps to unknown canonical party {canonical!r}"
                )

    def resolve(self, raw_ref: str) -> str | None:
        if raw_ref in self.alias_to_canonical:
            return self.alias_to_canonical[raw_ref]
        if raw_ref in self.canonical_to_party:
            return raw_ref
        return None

    def party(self, canonical: str) -> PartyRecord:
        return self.canonical_to_party[canonical]

    def relevant_parties(self) -> list[str]:
        return sorted(
            p.canonical_acronym
            for p in self.canonical_to_party.values()
            if p.relevance == "relevant"
        )


@dataclass(frozen=True)
class ElectionResult:
    seats: Mapping[str, int]
    total_seats: int

    def __post_init__(self) -> None:
        if self.total_seats <= 0:
            raise ValueError("total_seats must be positive")
        for party, n in self.seats.items():
            if n < 0:
                raise ValueError(f"negative seats for {party!r}")
        if sum(self.seats.values()) > self.total_seats:
            raise ValueError("party seats exceed total seats")


@dataclass(frozen=True)
class BaselineTable:
    body: str
    elections: Mapping[date, ElectionResult]

    def __post_init__(self) -> None:
        if not self.elections:
            raise ValueError("baseline table has no elections")


@dataclass(frozen=True)
class Finding:
    """A data-quality issue detected in a snapshot."""

    kind: str
    subject: str
    detail: str


@dataclass(frozen=True)
class UnmappedRef:
    raw_ref: str
    politician_id: str
    source: str


#: One parsed snapshot row: (source, politician_id, label, party, relevant,
#: start, end, death). party is the canonical acronym, or None for a row
#: with no party reference or one the map cannot resolve; an inverted
#: interval has lost its start and end.
SnapshotRow = tuple[str, str, str, str | None, bool, date | None, date | None, date | None]


@dataclass
class Snapshot:
    """A politicians snapshot read once by read_snapshot: one SnapshotRow
    per row, the refs the map cannot resolve, the sorted findings, and the
    latest retrieved_at stamp (None when no row has one)."""

    rows: list[SnapshotRow]
    unmapped: list[UnmappedRef]
    findings: list[Finding]
    retrieved_at: date | None


@dataclass(frozen=True)
class AuditRow:
    """One party's visibility bracket in one source at one time point.

    run_audit leaves baseline_share and verdict unset; judge fills them in
    for one parliamentary body.
    """

    source: str
    time_point: date
    party: str
    alignment: str
    lower_count: int
    upper_count: int
    lower_share: float
    upper_share: float
    active_total: int
    baseline_share: float | None = None
    verdict: str | None = None


@dataclass(frozen=True)
class CoverageRow:
    """Per-source, per-time-point actor accounting."""

    source: str
    time_point: date
    active_total: int
    undated_total: int
    low_sample: bool


@dataclass
class AuditResult:
    rows: list[AuditRow]
    coverage: list[CoverageRow]


#: xsd:gYear and xsd:gYearMonth values, as DBpedia returns them
_PARTIAL_DATE = re.compile(r"(\d{4})(?:-(\d{2}))?")

#: columns whose year or year-month value is read as its latest day, so a
#: partial end or death never comes early; a partial start or stamp is read
#: as its earliest day, so it never begins late
_LATEST_DAY_COLUMNS = frozenset(("aff_end", "death_date"))


def _row_date(row: Mapping[str, str], column: str, partial: list[str]) -> date | None:
    """The ISO date in a snapshot row's column, or None if it is empty.

    A bare year or year-month is read as its earliest or latest day, by
    column, and the reading is noted in `partial`.
    """
    raw = (row.get(column) or "").strip()
    if not raw:
        return None
    try:
        return date.fromisoformat(raw[:10])
    except ValueError:
        match = _PARTIAL_DATE.fullmatch(raw)
        if match is None:
            raise ValueError(f"{column} {raw!r} is not an ISO date") from None
    year = int(match.group(1))
    if match.group(2) is None:
        first, last = date(year, 1, 1), date(year, 12, 31)
    else:
        first = date(year, int(match.group(2)), 1)
        if first.month == 12:
            last = date(year, 12, 31)
        else:
            last = first.replace(month=first.month + 1) - timedelta(days=1)
    day = last if column in _LATEST_DAY_COLUMNS else first
    partial.append(f"{column} {raw} read as {day}")
    return day


def read_snapshot(
    politician_rows: Iterable[Mapping[str, str]],
    party_rows: Iterable[Mapping[str, str]] = (),
    nmap: NormalizationMap | None = None,
) -> Snapshot:
    """Parse each politicians row once and flag data-quality problems.

    Every date column is read once and every party reference resolved
    once (given a map; without one no row has a party). The findings are
    resources appearing both as politician and as party reference, rows
    with a year or year-month date (one finding per row, naming the day
    each is read as), inverted affiliation intervals, deaths predating an
    affiliation start, and (given a map) politicians with no relevant
    affiliation at all.
    """
    rows: list[SnapshotRow] = []
    unmapped: list[UnmappedRef] = []
    findings: list[Finding] = []
    retrieved_at = None
    politician_ids: set[str] = set()
    party_refs = {r["party_id"] for r in party_rows if r.get("party_id")}
    deaths: dict[str, date] = {}
    starts: dict[str, list[date]] = {}
    with_relevant: set[str] = set()
    for row in politician_rows:
        source = row.get("source", "")
        pid = row["politician_id"]
        ref = row.get("party_id") or ""
        politician_ids.add(pid)
        if ref:
            party_refs.add(ref)

        partial: list[str] = []
        start = _row_date(row, "aff_start", partial)
        end = _row_date(row, "aff_end", partial)
        death = _row_date(row, "death_date", partial)
        # a partial stamp is no finding
        stamp = _row_date(row, "retrieved_at", [])
        if stamp is not None and (retrieved_at is None or stamp > retrieved_at):
            retrieved_at = stamp
        if partial:
            findings.append(
                Finding("partial-date", pid, f"affiliation {ref}: " + ", ".join(partial))
            )
        if start is not None:
            starts.setdefault(pid, []).append(start)
            if end is not None and end < start:
                findings.append(
                    Finding(
                        "inverted-interval",
                        pid,
                        f"affiliation {ref} has end {end} before start {start}",
                    )
                )
                start = end = None
        if death is not None:
            deaths.setdefault(pid, death)

        party, relevant = None, False
        raw_ref = ref.strip()
        if raw_ref and nmap is not None:
            party = nmap.resolve(raw_ref)
            if party is None:
                unmapped.append(UnmappedRef(raw_ref, pid, source))
            elif nmap.party(party).relevance == "relevant":
                relevant = True
                with_relevant.add(pid)
        rows.append((source, pid, row.get("label") or "", party, relevant, start, end, death))

    for conflicted in sorted(politician_ids & party_refs):
        findings.append(
            Finding(
                "type-conflict",
                conflicted,
                "appears both as a politician and as a party reference",
            )
        )
    for pid in sorted(deaths):
        late_starts = [s for s in starts.get(pid, []) if s > deaths[pid]]
        if late_starts:
            findings.append(
                Finding(
                    "death-before-start",
                    pid,
                    f"death {deaths[pid]} precedes affiliation start {min(late_starts)}",
                )
            )
    if nmap is not None:
        for pid in sorted(politician_ids - with_relevant):
            findings.append(
                Finding("no-relevant-affiliation", pid, "no affiliation with a relevant party")
            )
    findings.sort(key=lambda f: (f.kind, f.subject))
    return Snapshot(rows, unmapped, findings, retrieved_at)


def normalize_affiliations(
    rows: Iterable[SnapshotRow],
    career_end_overrides: Mapping[str, date] | None = None,
) -> list[PoliticianRecord]:
    """Collapse one source's parsed rows into one PoliticianRecord per
    politician, in politician order.

    A politician's label and death are its first non-empty ones. Rows
    without a canonical party add no affiliation; affiliations to
    not-relevant or foreign parties are kept but flagged, so the bounds
    computation skips them.
    """
    overrides = career_end_overrides or {}
    by_id: dict[str, dict] = {}
    for _, pid, label, party, relevant, start, end, death in rows:
        entry = by_id.setdefault(pid, {"label": "", "death": None, "affs": []})
        if not entry["label"]:
            entry["label"] = label
        if entry["death"] is None:
            entry["death"] = death
        if party is not None:
            interval = DateInterval(start, end) if (start or end) else None
            entry["affs"].append(Affiliation(party, interval, relevant))
    return [
        PoliticianRecord(
            id=pid,
            label=entry["label"],
            affiliations=tuple(dict.fromkeys(entry["affs"])),
            death_date=entry["death"],
            career_end_override=overrides.get(pid),
        )
        for pid, entry in sorted(by_id.items())
    ]


def activity_period(p: PoliticianRecord, today: date) -> DateInterval | None:
    """Convex hull of the politician's dated affiliations.

    An affiliation without an end date is capped by the earliest applicable
    of: today, the death date, and the curated career-end override. Records
    with no dated affiliation at all return None (no activity evidence) and
    are excluded from active-at-T selection.
    """
    dated = [a.interval for a in p.affiliations if a.interval is not None and a.interval.dated]
    if not dated:
        return None
    caps = [today]
    if p.death_date is not None:
        caps.append(p.death_date)
    if p.career_end_override is not None:
        caps.append(p.career_end_override)
    cap = min(caps)

    starts = [iv.start for iv in dated if iv.start is not None]
    effective_ends = [iv.end if iv.end is not None else cap for iv in dated]
    start = min(starts) if starts else None
    end = max(effective_ends)
    if start is not None and start > end:
        # all evidence lies beyond the activity cap (e.g. affiliation
        # starting after the recorded death); treat as no usable evidence
        return None
    return DateInterval(start, end)


def compute_bounds(
    career_counts: Mapping[frozenset[str], int],
    parties: Iterable[str] | None = None,
) -> dict[str, tuple[int, int]]:
    """(lower, upper) visibility count per relevant party.

    `career_counts` counts the active politicians by their whole-career
    set of relevant parties. The lower bound of P is the count of {P}:
    politicians whose whole relevant career is P alone. The upper bound of
    P is the summed count of the sets that contain P: anyone ever in P.
    Without `parties`, every party in some career set is bounded.
    """
    if parties is None:
        parties = sorted(set().union(*career_counts))
    return {
        party: (
            career_counts.get(frozenset((party,)), 0),
            sum(n for career, n in career_counts.items() if party in career),
        )
        for party in parties
    }


def baseline_share(
    baselines: BaselineTable,
    party: str,
    time_point: date,
    policy: str = "most-recent-preceding",
) -> float:
    """Seat share of the party at the policy-selected election.

    most-recent-preceding picks the latest election on or before the time
    point; closest-in-time picks the nearest election, breaking equidistant
    ties toward the earlier one. A party without recorded seats has share 0.
    """
    if policy not in BASELINE_POLICIES:
        raise ValueError(f"unknown baseline policy {policy!r}")
    election_dates = sorted(baselines.elections)
    if policy == "most-recent-preceding":
        preceding = [d for d in election_dates if d <= time_point]
        if not preceding:
            raise ValueError(
                f"time point {time_point} precedes the first recorded election "
                f"{election_dates[0]} for body {baselines.body!r}"
            )
        chosen = preceding[-1]
    else:
        chosen = min(election_dates, key=lambda d: (abs((time_point - d).days), d))
    result = baselines.elections[chosen]
    return result.seats.get(party, 0) / result.total_seats


def classify(lower_share: float, upper_share: float, baseline: float) -> str:
    """Over if even the lower share exceeds the baseline, under if even the
    upper share falls short; ties and straddles are indeterminate."""
    if lower_share > baseline:
        return "over"
    if upper_share < baseline:
        return "under"
    return "indeterminate"


def run_audit(
    snapshot: Snapshot,
    nmap: NormalizationMap,
    schedule: Sequence[date] = DEFAULT_SCHEDULE,
    today: date | None = None,
    career_end_overrides: Mapping[str, date] | None = None,
) -> AuditResult:
    """Visibility bounds over a politicians snapshot, per source and time point.

    `snapshot` is read_snapshot's result under the same map. One pass per
    source: normalize once, take each politician's activity period and
    relevant career set once, then at each time point count the career
    sets of the active politicians and read every relevant party's bounds
    from that count. The rows carry no baseline; judge compares them with
    one body's seat shares.

    `today` caps open-ended affiliations; it defaults to the snapshot's
    latest retrieved_at stamp so a cached snapshot always audits the same
    way. Rows without any stamp need an explicit `today`.
    """
    if today is None:
        if snapshot.rows and snapshot.retrieved_at is None:
            raise ValueError(
                "no snapshot row has a retrieved_at stamp; give the date that "
                "caps open careers with --today"
            )
        today = snapshot.retrieved_at or date.today()

    by_source: dict[str, list[SnapshotRow]] = {}
    for row in snapshot.rows:
        by_source.setdefault(row[0], []).append(row)

    relevant = nmap.relevant_parties()
    alignment = {p: nmap.party(p).alignment for p in relevant}
    audit_rows: list[AuditRow] = []
    coverage: list[CoverageRow] = []

    for source in sorted(by_source):
        politicians = normalize_affiliations(by_source[source], career_end_overrides)
        careers = []
        for p in politicians:
            period = activity_period(p, today)
            if period is not None:
                careers.append((period, p.relevant_parties()))
        undated = len(politicians) - len(careers)
        for time_point in sorted(schedule):
            counts = Counter(
                career for period, career in careers if period.contains(time_point)
            )
            active_total = counts.total()
            low_sample = 0 < active_total < LOW_SAMPLE_THRESHOLD
            coverage.append(
                CoverageRow(
                    source=source,
                    time_point=time_point,
                    active_total=active_total,
                    undated_total=undated,
                    low_sample=low_sample,
                )
            )
            if not active_total:
                logger.warning(
                    "no active politicians for source %s at %s", source, time_point
                )
                continue
            if low_sample:
                logger.warning(
                    "only %d active politicians for source %s at %s; "
                    "bound shares are hard to interpret",
                    active_total,
                    source,
                    time_point,
                )
            for party, (lower, upper) in compute_bounds(counts, relevant).items():
                audit_rows.append(
                    AuditRow(
                        source=source,
                        time_point=time_point,
                        party=party,
                        alignment=alignment[party],
                        lower_count=lower,
                        upper_count=upper,
                        lower_share=lower / active_total,
                        upper_share=upper / active_total,
                        active_total=active_total,
                    )
                )
    return AuditResult(rows=audit_rows, coverage=coverage)


def judge(
    rows: Iterable[AuditRow],
    baselines: BaselineTable,
    policy: str = "most-recent-preceding",
) -> list[AuditRow]:
    """The rows with one body's seat share and verdict filled in."""
    judged = []
    for row in rows:
        share = baseline_share(baselines, row.party, row.time_point, policy)
        verdict = classify(row.lower_share, row.upper_share, share)
        judged.append(replace(row, baseline_share=share, verdict=verdict))
    return judged


def load_normalization_map(
    alias_path: str | Path, parties_path: str | Path
) -> NormalizationMap:
    """Load the curated alias map and party attribute tables.

    alias CSV: alias,canonical_acronym
    parties CSV: canonical_acronym,alignment,relevance
    """
    parties: dict[str, PartyRecord] = {}
    for row in csv_rows(parties_path, ("canonical_acronym", "alignment", "relevance")):
        acronym = row["canonical_acronym"].strip()
        parties[acronym] = PartyRecord(
            canonical_acronym=acronym,
            alignment=row["alignment"].strip(),
            relevance=row["relevance"].strip(),
        )
    aliases = {
        row["alias"].strip(): row["canonical_acronym"].strip()
        for row in csv_rows(alias_path, ("alias", "canonical_acronym"))
    }
    return NormalizationMap(alias_to_canonical=aliases, canonical_to_party=parties)


def load_baselines(path: str | Path) -> dict[str, BaselineTable]:
    """Load seat baselines, one table per parliamentary body.

    CSV: body,election_date,canonical_acronym,seats,total_seats
    """
    per_body: dict[str, dict[date, dict]] = {}
    columns = ("body", "election_date", "canonical_acronym", "seats", "total_seats")
    for row in csv_rows(path, columns):
        body = row["body"].strip()
        election = date.fromisoformat(row["election_date"].strip())
        entry = per_body.setdefault(body, {}).setdefault(
            election, {"seats": {}, "total": None}
        )
        entry["seats"][row["canonical_acronym"].strip()] = int(row["seats"])
        total = int(row["total_seats"])
        if entry["total"] is not None and entry["total"] != total:
            raise ValueError(
                f"inconsistent total_seats for {body} {election}: "
                f"{entry['total']} vs {total}"
            )
        entry["total"] = total
    tables = {}
    for body, elections in per_body.items():
        tables[body] = BaselineTable(
            body=body,
            elections={
                day: ElectionResult(seats=e["seats"], total_seats=e["total"])
                for day, e in elections.items()
            },
        )
    return tables


def load_career_end_overrides(path: str | Path) -> dict[str, date]:
    """Load curated career-end dates (CSV: politician_id,career_end)."""
    return {
        row["politician_id"].strip(): date.fromisoformat(row["career_end"].strip())
        for row in csv_rows(path, ("politician_id", "career_end"))
    }
