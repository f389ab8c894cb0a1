"""Reference computations that tests compare the package against.

They are written for plainness, not speed: the Jaccard distance of two
feature sets, the Gini–Simpson index, the ordered-pair loop of
Stirling's Δ, the rows of d_gh from a disparity matrix's masks and
sizes, Δ as two passes over those rows, a disparity matrix from explicit
pair values, the inverse of a figure panel's y-transform, the audit's
record layer (politician records with their affiliations, each one's
activity period as a date interval, and the per-time-point count of the
active politicians' careers, over a snapshot parsed into one tuple per
row), rule matching one rule at a time, a triple index and one-hop
enrichment that build a new tuple per row and per feature pair, one-hop
enrichment that expands each linked resource anew for every root, and a
query's distinct rows kept whole, as (values, terms) dict keys over
lists of each page's rows.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from datetime import date

from kgdiv.audit import (
    _UNREAD,
    LOW_SAMPLE_THRESHOLD,
    AuditResult,
    AuditRow,
    CoverageRow,
    Finding,
    NormalizationMap,
    UnmappedRef,
    _row_date,
    compute_bounds,
)
from kgdiv.diversity import BalanceVector, DisparityMatrix, DiversityParams, FeatureSet
from kgdiv.pipeline import (
    _TYPE_PREDICATES,
    EntityMention,
    LocalOntology,
    MatchRule,
    TextDocument,
    _fold,
    _folds_in_place,
)
from kgdiv.report import PANEL_HEIGHT
from kgdiv.sparql import (
    _SELECT,
    RESULTS_JSON,
    EndpointConfig,
    MalformedResultError,
    QueryTemplate,
    Transport,
    parse_results,
)


def jaccard_distance(a: FeatureSet, b: FeatureSet) -> float:
    """Jaccard complement over feature pairs.

    Two empty sets are indistinguishable (0); an empty set against a
    nonempty one is maximally distant (1).
    """
    if not a.pairs and not b.pairs:
        return 0.0
    shared = len(a.pairs & b.pairs)
    return 1.0 - shared / (len(a.pairs) + len(b.pairs) - shared)


def gini_simpson(balance: BalanceVector) -> float:
    """1 minus the sum of squared shares; the alpha=0, beta=1 reduction."""
    return 1.0 - sum(p * p for p in balance.shares.values())


def tail_rows(matrix: DisparityMatrix) -> list[list[float]]:
    """The upper-triangle tails of the table: row g lists d_gh for the
    points h > g, each with one division from the masks and sizes of a
    `compute_disparity` matrix, or the explicit rows as given."""
    table = matrix.table
    if not hasattr(table, "masks"):
        return table
    masks, sizes = table.masks, table.sizes
    return [
        [
            1.0 - (shared := (masks[g] & mask_h).bit_count()) / (sizes[g] + size_h - shared)
            for mask_h, size_h in zip(masks[g + 1 :], sizes[g + 1 :])
        ]
        for g in range(len(masks))
    ]


def disparity_value(matrix: DisparityMatrix, i: str, j: str) -> float:
    """d_ij looked up through the ids' points in the table's upper-triangle
    tails (0 on the diagonal)."""
    g, h = sorted((matrix.point[i], matrix.point[j]))
    return 0.0 if g == h else tail_rows(matrix)[g][h - g - 1]


def pair_terms(
    balance: BalanceVector,
    matrix: DisparityMatrix,
    params: DiversityParams = DiversityParams(),
) -> dict[tuple[str, str], float]:
    """Every ordered pair i != j with its term d_ij^alpha * (p_i p_j)^beta,
    where a zero disparity gives a zero term for every alpha."""
    terms = {}
    for i, p_i in balance.shares.items():
        for j, p_j in balance.shares.items():
            if i == j:
                continue
            d = disparity_value(matrix, i, j)
            terms[(i, j)] = 0.0 if d == 0.0 else d**params.alpha * (p_i * p_j) ** params.beta
    return terms


def two_pass_delta(
    balance: BalanceVector,
    matrix: DisparityMatrix,
    params: DiversityParams = DiversityParams(),
) -> float:
    """Stirling's Δ in two passes: the tail rows of d_gh for h > g, then
    one d**alpha per nonzero pair, row by row with h ascending, over the
    weights of the points added up in the matrix's id order."""
    table = tail_rows(matrix)
    weights = [0.0] * len(table)
    for i in matrix.ids:
        weights[matrix.point[i]] += balance.shares[i] ** params.beta
    delta = 0.0
    for g, row in enumerate(table):
        row_sum = 0.0
        for d, weight_h in zip(row, weights[g + 1 :]):
            if d != 0.0:
                row_sum += d**params.alpha * weight_h
        delta += weights[g] * row_sum
    return 2.0 * delta


def explicit_matrix(
    ids: Sequence[str], values: Mapping[tuple[str, str], float]
) -> DisparityMatrix:
    """A matrix in which every id is its own point, with values keyed by
    unordered id pairs (either orientation); missing pairs are 0. Row g of
    the table holds the pairs (g, h) for h > g."""
    ids = tuple(ids)
    point = {entity_id: g for g, entity_id in enumerate(ids)}
    table = [[0.0] * (len(ids) - g - 1) for g in range(len(ids))]
    for (i, j), d in values.items():
        if i not in point or j not in point:
            raise ValueError(f"pair ({i!r}, {j!r}) references unknown entity id")
        if i == j and d != 0:
            raise ValueError(f"diagonal entry d({i!r},{i!r}) must be 0, got {d}")
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"disparity d({i!r},{j!r}) = {d} outside [0, 1]")
        g, h = sorted((point[i], point[j]))
        if g != h:
            table[g][h - g - 1] = d
    return DisparityMatrix(ids, point, table)


def share_from_pixel(y_pixel: float, panel_top: float, y_max: float) -> float:
    """Invert the panel y-transform; the declared axis contract."""
    return (panel_top + PANEL_HEIGHT - y_pixel) / PANEL_HEIGHT * y_max


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


#: One parsed snapshot row: (source, politician_id, label, party, relevant,
#: start, end, death). party is the canonical acronym, or None for a row
#: with no party reference or one the map cannot resolve; an inverted
#: interval has lost its start and end.
SnapshotRow = tuple[str, str, str, str | None, bool, date | None, date | None, date | None]

#: A politicians snapshot parsed by read_snapshot_rows: one SnapshotRow per
#: row, the refs the map cannot resolve, the sorted findings, and the
#: latest retrieved_at stamp (None when no row has one).
RowSnapshot = namedtuple("RowSnapshot", "rows unmapped findings retrieved_at")


def read_snapshot_rows(
    politician_rows: Iterable[Sequence[str]],
    party_rows: Iterable[Mapping[str, str]] = (),
    nmap: NormalizationMap | None = None,
) -> RowSnapshot:
    """Parse each politicians row once and flag data-quality problems.

    A politicians row holds the fields of catalog.POLITICIANS_CSV_HEADER,
    in that order, as fetch_politicians and read_politicians_csv give it.
    Every date column is read once, and each distinct full ISO date value
    parsed once; every party reference is resolved once (given a map;
    without one no row has a party). The findings are
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
    days: dict[str, date | None] = {}
    for source, pid, label, ref, raw_start, raw_end, raw_death, _, raw_stamp in politician_rows:
        politician_ids.add(pid)
        if ref:
            party_refs.add(ref)

        # the memo is read here, so a value read before costs no call
        partial: list[str] = []
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
    return RowSnapshot(rows, unmapped, findings, retrieved_at)


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


def audit_by_records(
    snapshot: RowSnapshot,
    nmap: NormalizationMap,
    schedule: Sequence[date],
    today: Mapping[str, date],
    career_end_overrides: Mapping[str, date] | None = None,
) -> AuditResult:
    """run_audit through the record layer: per source, one record per
    politician and one activity period per record, its open ends capped at
    the source's `today`, then per time point a count of the active
    records' relevant party sets."""
    relevant = nmap.relevant_parties()
    rows, coverage = [], []
    for source in sorted({row[0] for row in snapshot.rows}):
        politicians = normalize_affiliations(
            [row for row in snapshot.rows if row[0] == source], career_end_overrides
        )
        periods = [
            (activity_period(p, today[source]), p.relevant_parties()) for p in politicians
        ]
        dated = [(period, parties) for period, parties in periods if period is not None]
        for time_point in sorted(schedule):
            counts = Counter(
                parties for period, parties in dated if period.contains(time_point)
            )
            total = sum(counts.values())
            coverage.append(
                CoverageRow(
                    source=source,
                    time_point=time_point,
                    active_total=total,
                    undated_total=len(politicians) - len(dated),
                    low_sample=0 < total < LOW_SAMPLE_THRESHOLD,
                )
            )
            if not total:
                continue
            for party, (lower, upper) in compute_bounds(counts, relevant).items():
                rows.append(
                    AuditRow(
                        source=source,
                        time_point=time_point,
                        party=party,
                        alignment=nmap.party(party).alignment,
                        lower_count=lower,
                        upper_count=upper,
                        lower_share=lower / total,
                        upper_share=upper / total,
                        active_total=total,
                    )
                )
    return AuditResult(rows=rows, coverage=coverage)


def match_rules(doc: TextDocument, rules: Sequence[MatchRule]) -> list[EntityMention]:
    """All non-overlapping occurrences of each rule in the raw text, one
    rule at a time: a case-sensitive rule by substring search, a
    case-insensitive one by its regex where its folded pattern occurs in
    the folded text (anchored at each occurrence where both fold in
    place, over the whole text otherwise)."""
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
            first = folded_text.find(_fold(rule.pattern))
            if first < 0:
                continue
            if text_folds_in_place and _folds_in_place(rule.pattern):
                spans = _anchored_spans(text, folded_text, rule, first)
            else:
                spans = (
                    (m.start(), m.end(), m.group(0)) for m in rule.regex.finditer(text)
                )
        mentions.extend(
            EntityMention(doc.doc_id, start, end, surface, rule.target_entity or None, "rule")
            for start, end, surface in spans
        )
    mentions.sort(key=lambda m: (m.char_start, m.char_end, m.resolved_id or ""))
    return mentions


def _literal_spans(text: str, pattern: str) -> Iterator[tuple[int, int, str]]:
    """The non-overlapping occurrences of a nonempty literal, left to right."""
    start = text.find(pattern)
    while start >= 0:
        end = start + len(pattern)
        yield start, end, pattern
        start = text.find(pattern, end)


def _anchored_spans(
    text: str, folded_text: str, rule: MatchRule, first: int
) -> Iterator[tuple[int, int, str]]:
    """The spans of `rule.regex.finditer(text)`, trying the regex only where
    the folded pattern occurs in `folded_text` (both must fold in place)."""
    folded = _fold(rule.pattern)
    pos = first
    while pos >= 0:
        m = rule.regex.match(text, pos)
        if m is None:
            pos = folded_text.find(folded, pos + 1)
        else:
            yield pos, m.end(), m.group(0)
            pos = folded_text.find(folded, m.end())


def triple_index(
    rows: Iterable[Sequence[str]], ontology: LocalOntology | None = None
) -> dict[str, list[tuple[str, str]]]:
    """Each subject's (predicate, object) pairs, every field stripped, in
    row order, one new tuple per row; given an ontology, only the rows
    whose predicate it maps or that are type rows."""
    index: dict[str, list[tuple[str, str]]] = {}
    for subject, predicate, obj in rows:
        predicate = predicate.strip()
        if ontology is None or predicate in ontology.property_map or predicate in _TYPE_PREDICATES:
            index.setdefault(subject.strip(), []).append((predicate, obj.strip()))
    return index


def enrich(
    root_id: str, index: Mapping[str, list[tuple[str, str]]], ontology: LocalOntology
) -> FeatureSet:
    """A resource's feature pairs over a `triple_index`, each pair and each
    linked name built anew: every mapped pair of the root, and, for each
    object other than the root that has an actor type, that object's
    mapped pairs under the root pair's name and a dot."""
    names = ontology.property_map
    features = set()
    for predicate, obj in index.get(root_id, ()):
        if predicate not in names:
            continue
        features.add((names[predicate], obj))
        types = [o for p, o in index.get(obj, ()) if p in _TYPE_PREDICATES]
        if obj == root_id or ontology.classify(types) is None:
            continue
        for linked_predicate, linked_obj in index.get(obj, ()):
            if linked_predicate in names:
                features.add((names[predicate] + "." + names[linked_predicate], linked_obj))
    return FeatureSet(frozenset(features))


def enrich_per_root(root_id: str, triples, ontology: LocalOntology) -> FeatureSet:
    """One-hop enrichment over a `CsvTripleSource` that classifies and
    expands a linked resource again for every root that links to it,
    keeping each feature pair and linked name in the source's `shared`."""
    names = ontology.property_map
    shared = triples.shared
    features: set[tuple[str, str]] = set()
    for predicate, obj in triples.predicates(root_id):
        name = names.get(predicate)
        if name is None:
            continue
        pair = (name, obj)
        features.add(shared.setdefault(pair, pair))
        if obj == root_id or ontology.classify(triples.types(obj)) is None:
            continue
        for linked_predicate, linked_obj in triples.predicates(obj):
            linked_name = names.get(linked_predicate)
            if linked_name is None:
                continue
            dotted = shared.get(key := (name, ".", linked_name))
            if dotted is None:
                shared[key] = dotted = f"{name}.{linked_name}"
            pair = (dotted, linked_obj)
            features.add(shared.setdefault(pair, pair))
    return FeatureSet(frozenset(features))


def query_rows(
    endpoint: EndpointConfig, template: QueryTemplate, transport: Transport
) -> list[tuple[str, ...]]:
    """execute_query's rows as a list, without its rate limit and retries:
    each page's rows listed whole, and every distinct (values, terms) row
    kept as a dict key, in first-seen order."""
    selected = re.search(_SELECT, template.query_text)
    order = tuple(selected.group(1).replace("?", "").split()) if selected else None
    rows: dict = {}
    offset = 0
    while True:
        paged = f"{template.query_text}\nLIMIT {endpoint.page_size} OFFSET {offset}"
        body = transport(endpoint.url, paged, RESULTS_JSON, endpoint.timeout)
        order, page = parse_results(body, order)
        page = list(page)
        before = len(rows)
        rows.update(dict.fromkeys(page))
        if len(page) < endpoint.page_size:
            break
        if len(rows) == before:
            raise MalformedResultError(
                f"endpoint {endpoint.url} returned a full page at offset {offset} "
                "with no new rows; it may ignore OFFSET"
            )
        offset += endpoint.page_size
    return [values for values, _ in rows]
