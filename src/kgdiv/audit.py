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

import re
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path

from . import ConfigError, warn
from .csvformat import ALIGNMENTS, AuditRow, csv_rows, numbered_csv_rows

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


def parse_schedule(raw: str) -> tuple[date, ...]:
    """Parse a comma-separated schedule of years or ISO dates (1 January
    is assumed for bare years); entries naming the same day are one point."""
    points = set()
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            if len(item) == 4:
                points.add(date(int(item), 1, 1))
            else:
                points.add(date.fromisoformat(item))
        except ValueError as exc:
            raise ConfigError(f"bad schedule entry {item!r}: {exc}") from exc
    if not points:
        raise ConfigError("schedule is empty")
    return tuple(sorted(points))


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


def _row_date(raw: str, column: str, partial: list[str]) -> date | None:
    """The ISO date in a snapshot row's column value, or None if it is empty.

    A bare year or year-month is read as its earliest or latest day, by
    column, and the reading is noted in `partial`.
    """
    raw = raw.strip()
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
    politician_rows: Iterable[Sequence[str]],
    party_rows: Iterable[Mapping[str, str]] = (),
    nmap: NormalizationMap | None = None,
) -> Snapshot:
    """Parse each politicians row once and flag data-quality problems.

    A politicians row holds the fields of catalog.POLITICIANS_CSV_HEADER,
    in that order, as fetch_politicians and read_politicians_csv give it.
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
    for source, pid, label, ref, raw_start, raw_end, raw_death, _, raw_stamp in politician_rows:
        politician_ids.add(pid)
        if ref:
            party_refs.add(ref)

        partial: list[str] = []
        start = _row_date(raw_start, "aff_start", partial)
        end = _row_date(raw_end, "aff_end", partial)
        death = _row_date(raw_death, "death_date", partial)
        # a partial stamp is no finding
        stamp = _row_date(raw_stamp, "retrieved_at", [])
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
        rows.append((source, pid, label, party, relevant, start, end, death))

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


def _careers(
    rows: Iterable[SnapshotRow], today: date, overrides: Mapping[str, date]
) -> tuple[list[tuple[date, date, frozenset[str]]], int]:
    """The (first, last, relevant parties) career of each dated politician
    in one source's rows, and how many politicians are undated.

    A politician's death is its first non-empty one, and a row without a
    canonical party adds nothing to its career. The career is the hull of
    its dated (start, end) pairs, with an open end read as the cap: the
    earliest of today, the death and the career-end override. A hull with
    no start begins at date.min. A politician with no dated pair, or whose
    hull starts after its end, is undated.
    """
    deaths: dict[str, date | None] = {}
    pairs: dict[str, list[tuple[date | None, date | None]]] = {}
    parties: dict[str, set[str]] = {}
    for _, pid, _, party, relevant, start, end, death in rows:
        if deaths.get(pid) is None:
            deaths[pid] = death
        if party is not None:
            if start is not None or end is not None:
                pairs.setdefault(pid, []).append((start, end))
            if relevant:
                parties.setdefault(pid, set()).add(party)

    late = min(
        (pid for pid, day in overrides.items() if deaths.get(pid) and day > deaths[pid]),
        default=None,
    )
    if late is not None:
        raise ValueError(
            f"career end override {overrides[late]} after death {deaths[late]} for {late!r}"
        )

    careers = []
    for pid, dated in pairs.items():
        cap = min(today, deaths[pid] or today, overrides.get(pid, today))
        first = min((start for start, _ in dated if start is not None), default=date.min)
        last = max(cap if end is None else end for _, end in dated)
        if first <= last:
            careers.append((first, last, frozenset(parties.get(pid, ()))))
    return careers, len(deaths) - len(careers)


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
    source: build each politician's career from the rows once, then at
    each distinct time point count the relevant party sets of the active careers
    and read every relevant party's bounds from that count. The rows carry
    no baseline; judge compares them with one body's seat shares.

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
        careers, undated = _careers(by_source[source], today, career_end_overrides or {})
        for time_point in sorted(set(schedule)):
            counts = Counter(
                parties for first, last, parties in careers if first <= time_point <= last
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
                warn(__name__, "no active politicians for source %s at %s", source, time_point)
                continue
            if low_sample:
                warn(
                    __name__,
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


def _cell(
    path: str | Path, line: int, column: str, raw: str, parse: Callable[[str], object], what: str
):
    """parse(raw), or a ValueError naming the file, the line, the column,
    the value and `what` it should be."""
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{path} line {line}: {column} {raw!r} is not {what}") from None


def load_baselines(path: str | Path) -> dict[str, BaselineTable]:
    """Load seat baselines, one table per parliamentary body.

    CSV: body,election_date,canonical_acronym,seats,total_seats
    """
    per_body: dict[str, dict[date, dict]] = {}
    columns = ("body", "election_date", "canonical_acronym", "seats", "total_seats")
    for line, row in numbered_csv_rows(path, columns):
        body = row["body"].strip()
        election = _cell(
            path, line, "election_date", row["election_date"].strip(), date.fromisoformat,
            "an ISO date",
        )
        entry = per_body.setdefault(body, {}).setdefault(
            election, {"seats": {}, "total": None}
        )
        entry["seats"][row["canonical_acronym"].strip()] = _cell(
            path, line, "seats", row["seats"], int, "an integer"
        )
        total = _cell(path, line, "total_seats", row["total_seats"], int, "an integer")
        if entry["total"] is not None and entry["total"] != total:
            raise ValueError(
                f"{path} line {line}: inconsistent total_seats for {body} {election}: "
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
        row["politician_id"].strip(): _cell(
            path, line, "career_end", row["career_end"].strip(), date.fromisoformat,
            "an ISO date",
        )
        for line, row in numbered_csv_rows(path, ("politician_id", "career_end"))
    }
