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
from collections import Counter, defaultdict, namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from datetime import date, timedelta
from pathlib import Path

from . import ConfigError, warn
from .csvformat import ALIGNMENTS, AuditRow, iso_date, numbered_csv_rows

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
            if re.fullmatch("[0-9]{4}", item):
                points.add(date(int(item), 1, 1))
            else:
                points.add(iso_date(item))
        except ValueError as exc:
            raise ConfigError(f"bad schedule entry {item!r}: {exc}") from exc
    if not points:
        raise ConfigError("schedule is empty")
    return tuple(sorted(points))


class PartyRecord(namedtuple("PartyRecord", "canonical_acronym alignment relevance")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.alignment not in ALIGNMENTS:
            raise ValueError(
                f"alignment {self.alignment!r} not one of {ALIGNMENTS}"
            )
        if self.relevance not in RELEVANCE_CLASSES:
            raise ValueError(
                f"relevance {self.relevance!r} not one of {RELEVANCE_CLASSES}"
            )
        return self


class NormalizationMap(
    namedtuple("NormalizationMap", "alias_to_canonical canonical_to_party")
):
    """Curated mapping of raw party references to canonical party records."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for alias, canonical in self.alias_to_canonical.items():
            if canonical not in self.canonical_to_party:
                raise ValueError(
                    f"alias {alias!r} maps to unknown canonical party {canonical!r}"
                )
        return self

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


class ElectionResult(namedtuple("ElectionResult", "seats total_seats")):
    """The seats of each party, by canonical acronym, in one election."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.total_seats <= 0:
            raise ValueError("total_seats must be positive")
        for party, n in self.seats.items():
            if n < 0:
                raise ValueError(f"negative seats for {party!r}")
        if sum(self.seats.values()) > self.total_seats:
            raise ValueError("party seats exceed total seats")
        return self


class BaselineTable(namedtuple("BaselineTable", "body elections")):
    """One body's ElectionResult per election date."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.elections:
            raise ValueError("baseline table has no elections")
        return self


#: A data-quality issue detected in a snapshot.
Finding = namedtuple("Finding", "kind subject detail")

UnmappedRef = namedtuple("UnmappedRef", "raw_ref politician_id source")


#: A politicians snapshot read once by read_snapshot. `careers` holds, per
#: source and politician id, one career list [death, first, last, open,
#: parties]: the politician's first non-empty death in that source; the
#: earliest start and the latest end of its affiliations that have a
#: canonical party and a date (None if none has one); whether one of those
#: is open-ended; and the frozenset of its relevant parties. `retrieved_at`
#: holds the latest stamp of each source that has one; then come the refs
#: the map cannot resolve and the sorted findings.
Snapshot = namedtuple("Snapshot", "careers retrieved_at unmapped findings")

#: Per-source, per-time-point actor accounting.
CoverageRow = namedtuple(
    "CoverageRow", "source time_point active_total undated_total low_sample"
)

AuditResult = namedtuple("AuditResult", "rows coverage")


#: xsd:gYear and xsd:gYearMonth values, as DBpedia returns them
_PARTIAL_DATE = re.compile("([0-9]{4})(?:-([0-9]{2}))?")

#: columns whose year or year-month value is read as its latest day, so a
#: partial end or death never comes early; a partial start or stamp is read
#: as its earliest day, so it never begins late
_LATEST_DAY_COLUMNS = frozenset(("aff_end", "death_date"))

_UNREAD = object()


def _row_date(
    raw: str, column: str, partial: list[str], days: dict[str, date | None]
) -> date | None:
    """The ISO date in a snapshot row's column value, or None if it is empty.

    A bare year or year-month is read as its earliest or latest day, by
    column, and the reading is noted in `partial`. An empty or full ISO
    date value is added to `days`, since its reading depends on neither the
    column nor the row; the caller looks a value up there first.
    """
    stripped = raw.strip()
    if not stripped:
        days[raw] = None
        return None
    try:
        day = days[raw] = iso_date(stripped[:10])
        return day
    except ValueError:
        match = _PARTIAL_DATE.fullmatch(stripped)
        if match is None:
            raise ValueError(f"{column} {stripped!r} is not an ISO date") from None
    year = int(match.group(1))
    try:
        if match.group(2) is None:
            first, last = date(year, 1, 1), date(year, 12, 31)
        else:
            first = date(year, int(match.group(2)), 1)
            if first.month == 12:
                last = date(year, 12, 31)
            else:
                last = first.replace(month=first.month + 1) - timedelta(days=1)
    except ValueError:  # year 0, or a month out of range
        raise ValueError(f"{column} {stripped!r} is not an ISO date") from None
    day = last if column in _LATEST_DAY_COLUMNS else first
    partial.append(f"{column} {stripped} read as {day}")
    return day


def read_snapshot(
    politician_rows: Iterable[Sequence[str]],
    party_rows: Iterable[Mapping[str, str]] = (),
    nmap: NormalizationMap | None = None,
    path: str | Path = "snapshot",
) -> Snapshot:
    """Read each politicians row once into its career, and flag
    data-quality problems.

    A politicians row holds the fields of catalog.POLITICIANS_CSV_HEADER,
    in that order, as fetch_politicians and read_politicians_csv give it.
    Every date column is read once, and each distinct full ISO date value
    parsed once; a bad date names `path` and the row, counted from 1.
    Every party reference is resolved once (given a map; without one no
    row has a party). The findings are
    resources appearing both as politician and as party reference, rows
    with a year or year-month date (one finding per row, naming the day
    each is read as), inverted affiliation intervals, deaths predating an
    affiliation start, and (given a map) politicians with no relevant
    affiliation at all.
    """
    careers: defaultdict[str, dict[str, list]] = defaultdict(dict)
    retrieved_at: dict[str, date] = {}
    unmapped: list[UnmappedRef] = []
    findings: list[Finding] = []
    party_refs = {r["party_id"] for r in party_rows if r.get("party_id")}
    # each party set grown by one party is built once, and shared
    grown: dict[tuple[frozenset[str], str], frozenset[str]] = {}
    deaths: dict[str, date] = {}
    starts: dict[str, list[date]] = {}
    days: dict[str, date | None] = {}
    for row, (source, pid, _, ref, raw_start, raw_end, raw_death, _, raw_stamp) in enumerate(
        politician_rows, 1
    ):
        if ref:
            party_refs.add(ref)

        # the memo is read here, so a value read before costs no call
        partial: list[str] = []
        try:
            start = days.get(raw_start, _UNREAD)
            if start is _UNREAD:
                start = _row_date(raw_start, "aff_start", partial, days)
            end = days.get(raw_end, _UNREAD)
            if end is _UNREAD:
                end = _row_date(raw_end, "aff_end", partial, days)
            death = days.get(raw_death, _UNREAD)
            if death is _UNREAD:
                death = _row_date(raw_death, "death_date", partial, days)
            stamp = days.get(raw_stamp, _UNREAD)
            if stamp is _UNREAD:
                # a partial stamp is no finding
                stamp = _row_date(raw_stamp, "retrieved_at", [], days)
        except ValueError as exc:
            raise ValueError(f"{path} row {row}: {exc}") from None
        if stamp is not None and stamp > retrieved_at.get(source, date.min):
            retrieved_at[source] = stamp
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

        by_pid = careers[source]
        career = by_pid.get(pid)
        if career is None:
            career = by_pid[pid] = [death, None, None, False, frozenset()]
        elif career[0] is None:
            career[0] = death
        raw_ref = ref.strip()
        if not raw_ref or nmap is None:
            continue
        party = nmap.resolve(raw_ref)
        if party is None:
            unmapped.append(UnmappedRef(raw_ref, pid, source))
            continue
        if start is not None and (career[1] is None or start < career[1]):
            career[1] = start
        if end is not None:
            if career[2] is None or end > career[2]:
                career[2] = end
        elif start is not None:
            career[3] = True
        if nmap.party(party).relevance == "relevant" and party not in career[4]:
            key = (career[4], party)
            parties = grown.get(key)
            if parties is None:
                parties = grown[key] = career[4] | {party}
            career[4] = parties

    for conflicted in sorted(
        ref for ref in party_refs if any(ref in by_pid for by_pid in careers.values())
    ):
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
        lacking = {pid for by_pid in careers.values() for pid, c in by_pid.items() if not c[4]}
        lacking.difference_update(
            pid for by_pid in careers.values() for pid, c in by_pid.items() if c[4]
        )
        for pid in sorted(lacking):
            findings.append(
                Finding("no-relevant-affiliation", pid, "no affiliation with a relevant party")
            )
    findings.sort(key=lambda f: (f.kind, f.subject))
    return Snapshot(dict(careers), retrieved_at, unmapped, findings)


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
                f"{election_dates[0]} for body {baselines.body!r}; audit the other "
                "bodies (--body), use --baseline-policy closest, or start the "
                f"--schedule on or after {election_dates[0]}"
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

    `snapshot` is read_snapshot's result under the same map. Per source:
    cap each open career at the earliest of today, its death and its
    override, then at each distinct time point count the relevant party
    sets of the active careers and read every relevant party's bounds
    from that count. The rows carry no baseline; judge compares them with
    one body's seat shares.

    `today` defaults to each source's latest retrieved_at stamp, so a
    cached snapshot always audits the same way, alone or beside other
    sources. A source without any stamp needs an explicit `today`.
    """
    if today is None:
        unstamped = sorted(set(snapshot.careers) - set(snapshot.retrieved_at))
        if unstamped:
            raise ValueError(
                f"no row of source {', '.join(unstamped)} has a retrieved_at stamp; give "
                "the date that caps open careers with --today"
            )
    overrides = career_end_overrides or {}
    relevant = nmap.relevant_parties()
    alignment = {p: nmap.party(p).alignment for p in relevant}
    audit_rows: list[AuditRow] = []
    coverage: list[CoverageRow] = []

    for source, by_pid in sorted(snapshot.careers.items()):
        deaths = {pid: by_pid[pid][0] for pid in overrides if pid in by_pid and by_pid[pid][0]}
        late = min((pid for pid in deaths if overrides[pid] > deaths[pid]), default=None)
        if late is not None:
            raise ValueError(
                f"career end override {overrides[late]} after death {deaths[late]} for {late!r}"
            )
        cap = today or snapshot.retrieved_at[source]
        careers = []
        for pid, (death, first, last, open_end, parties) in by_pid.items():
            if open_end:
                last = max(last or date.min, min(cap, death or cap, overrides.get(pid, cap)))
            elif last is None:
                continue
            first = first or date.min
            if first <= last:
                careers.append((first, last, parties))
        undated = len(by_pid) - len(careers)
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
        judged.append(row._replace(baseline_share=share, verdict=verdict))
    return judged


def load_normalization_map(
    alias_path: str | Path, parties_path: str | Path
) -> NormalizationMap:
    """Load the curated alias map and party attribute tables.

    alias CSV: alias,canonical_acronym
    parties CSV: canonical_acronym,alignment,relevance
    """
    parties: dict[str, PartyRecord] = {}
    columns = ("canonical_acronym", "alignment", "relevance")
    for line, row in numbered_csv_rows(parties_path, columns):
        acronym = row["canonical_acronym"].strip()
        parties[acronym] = _checked(
            f"{parties_path} line {line}",
            PartyRecord,
            canonical_acronym=acronym,
            alignment=row["alignment"].strip(),
            relevance=row["relevance"].strip(),
        )
    aliases = {}
    for line, row in numbered_csv_rows(alias_path, ("alias", "canonical_acronym")):
        alias, canonical = row["alias"].strip(), row["canonical_acronym"].strip()
        if canonical not in parties:
            raise ValueError(
                f"{alias_path} line {line}: alias {alias!r} maps to unknown canonical "
                f"party {canonical!r}"
            )
        aliases[alias] = canonical
    return NormalizationMap(alias_to_canonical=aliases, canonical_to_party=parties)


def _checked(where: str, record: Callable, **fields):
    """record(**fields), or its ValueError prefixed with `where`."""
    try:
        return record(**fields)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


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
            path, line, "election_date", row["election_date"].strip(), iso_date,
            "an ISO date",
        )
        entry = per_body.setdefault(body, {}).setdefault(
            election, {"seats": {}, "total": None}
        )
        party = row["canonical_acronym"].strip()
        seats = _cell(path, line, "seats", row["seats"], int, "an integer")
        if seats < 0:
            raise ValueError(f"{path} line {line}: negative seats for {party!r}")
        entry["seats"][party] = seats
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
                day: _checked(
                    f"{path}: body {body!r} election {day}",
                    ElectionResult,
                    seats=e["seats"],
                    total_seats=e["total"],
                )
                for day, e in elections.items()
            },
        )
    return tables


def load_career_end_overrides(path: str | Path) -> dict[str, date]:
    """Load curated career-end dates (CSV: politician_id,career_end)."""
    return {
        row["politician_id"].strip(): _cell(
            path, line, "career_end", row["career_end"].strip(), iso_date,
            "an ISO date",
        )
        for line, row in numbered_csv_rows(path, ("politician_id", "career_end"))
    }
