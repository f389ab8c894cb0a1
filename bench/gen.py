"""Seeded input generators for the kgdiv benchmark workloads.

Each generator writes the files one workload feeds to the kgdiv CLI and
returns the ground truth that the output checks in check.py compare
against. The truth is derived from the generator's own model of the data,
never from kgdiv code. The same seed and sizes give byte-identical inputs.

Dates are full ISO dates only: partial dates are a known defect of the
audit and are not exercised here.
"""

from __future__ import annotations

import csv
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, timedelta
from itertools import accumulate
from pathlib import Path

# --- audit-kg -----------------------------------------------------------------

DBR = "http://dbpedia.org/resource/"
XSD_DATE = "http://www.w3.org/2001/XMLSchema#date"
RETRIEVED_AT = date(2022, 5, 27)

#: kgdiv's default audit schedule (1 January of each year).
SCHEDULE = tuple(date(y, 1, 1) for y in (1990, 1996, 2000, 2005, 2011, 2015, 2020))

#: canonical acronym, alignment, relevance, weight in affiliations
PARTIES = (
    ("PVDA", "extreme-left", "relevant", 4),
    ("Groen", "left", "relevant", 8),
    ("Vooruit", "centre-left", "relevant", 14),
    ("CDV", "centre", "relevant", 18),
    ("OpenVLD", "centre-right", "relevant", 15),
    ("NVA", "right", "relevant", 16),
    ("VB", "extreme-right", "relevant", 12),
    ("LocalList", "other", "not-relevant", 8),
    ("UF", "unknown", "foreign", 5),
)

#: election dates and total seats per parliamentary body; VP's first
#: election (1995) comes after the schedule's first point (1990).
ELECTIONS = {
    "KVV": (
        (date(1987, 12, 13), 212),
        (date(1991, 11, 24), 212),
        (date(1995, 5, 21), 150),
        (date(1999, 6, 13), 150),
        (date(2003, 5, 18), 150),
        (date(2007, 6, 10), 150),
        (date(2010, 6, 13), 150),
        (date(2014, 5, 25), 150),
        (date(2019, 5, 26), 150),
    ),
    "VP": (
        (date(1995, 5, 21), 124),
        (date(1999, 6, 13), 124),
        (date(2004, 6, 13), 124),
        (date(2009, 6, 7), 124),
        (date(2014, 5, 25), 124),
        (date(2019, 5, 26), 124),
    ),
}

POSITIONS = tuple(f"{DBR}Office_{k}" for k in range(12))
UNMAPPED_POOL = 40


@dataclass(frozen=True)
class AuditSizes:
    politicians: int = 5_000
    aliases_per_party: int = 6
    #: share of affiliation rows whose party ref is in no alias map
    unmapped_share: float = 0.01
    #: share of affiliation rows with neither start nor end date
    undated_share: float = 0.01
    #: share of dated rows left open-ended although they ended before the snapshot
    open_end_share: float = 0.03
    #: share of politicians with a death date
    death_share: float = 0.01
    #: share of bindings the fixture serves twice, for the client to dedup
    duplicate_share: float = 0.02


@dataclass
class AuditTruth:
    #: distinct (politician, label, party ref, start, end, death, position)
    bindings: set[tuple[str, ...]]
    party_rows: int
    unmapped_rows: int
    unmapped_distinct: int
    #: sorted (kind, subject) pairs that validate must report
    findings: list[tuple[str, str]]
    #: body -> (time point ISO, party) -> row fields as audit_<body>.csv prints them
    audit: dict[str, dict[tuple[str, str], dict[str, str]]]
    #: time point ISO -> (active_total, undated_total)
    coverage: dict[str, tuple[int, int]]
    politicians: int


def _random_date(rng: random.Random, first: date, last: date) -> date:
    return first + timedelta(days=rng.randrange((last - first).days + 1))


def _term(value: str, kind: str = "uri", datatype: str | None = None, lang: str | None = None) -> dict:
    term = {"type": kind, "value": value}
    if datatype:
        term["datatype"] = datatype
    if lang:
        term["xml:lang"] = lang
    return term


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def generate_audit(root: Path, seed: int, sizes: AuditSizes) -> AuditTruth:
    """Write an en-dbpedia fixture tree, alias map, party table and seat
    baselines under `root`, and return what the audit must find."""
    rng = random.Random(seed)
    attrs = {canon: (alignment, relevance) for canon, alignment, relevance, _ in PARTIES}
    aliases = {
        canon: [f"{DBR}{canon}_party_{k}" for k in range(sizes.aliases_per_party)]
        for canon, *_ in PARTIES
    }
    canon_of = {alias: canon for canon, refs in aliases.items() for alias in refs}
    names = [p[0] for p in PARTIES]
    weights = [p[3] for p in PARTIES]

    bindings: list[tuple[str, ...]] = []
    first_day, last_day = date(1975, 1, 1), date(2021, 12, 31)
    for i in range(sizes.politicians):
        pid = f"{DBR}Politician_{i:06d}"
        label = f"Politician {i}"
        position = rng.choice(POSITIONS) if rng.random() < 0.3 else ""
        rows = []
        for _ in range(rng.choices((1, 2, 3), weights=(50, 35, 15))[0]):
            if rng.random() < sizes.unmapped_share:
                ref = f"{DBR}Unlisted_party_{rng.randrange(UNMAPPED_POOL)}"
            else:
                ref = rng.choice(aliases[rng.choices(names, weights=weights)[0]])
            if rng.random() < sizes.undated_share:
                start = end = None
            else:
                start = _random_date(rng, first_day, last_day)
                end = start + timedelta(days=rng.randint(365, 20 * 365))
                if end >= RETRIEVED_AT or rng.random() < sizes.open_end_share:
                    end = None
            rows.append((ref, start, end))
        death = None
        if rng.random() < sizes.death_share:
            starts = [s for _, s, _ in rows if s is not None] or [date(1985, 1, 1)]
            death = min(starts) + timedelta(days=rng.randint(-3 * 365, 25 * 365))
            death = min(death, RETRIEVED_AT - timedelta(days=1))
        for ref, start, end in rows:
            bindings.append(
                (
                    pid,
                    label,
                    ref,
                    start.isoformat() if start else "",
                    end.isoformat() if end else "",
                    death.isoformat() if death else "",
                    position,
                )
            )

    distinct = list(dict.fromkeys(bindings))
    served = list(distinct)
    for _ in range(int(len(distinct) * sizes.duplicate_share)):
        served.insert(rng.randrange(len(served) + 1), rng.choice(distinct))

    kg = root / "kg"
    (kg / "en-dbpedia").mkdir(parents=True)
    (kg / "manifest.json").write_text(
        json.dumps({"retrieved_at": RETRIEVED_AT.isoformat()}), encoding="utf-8"
    )
    variables = ["politician", "label", "party", "start", "end", "death", "position"]
    json_rows = []
    for pid, label, ref, start, end, death, position in served:
        row = {
            "politician": _term(pid),
            "label": _term(label, "literal", lang="en"),
            "party": _term(ref),
        }
        for var, value in (("start", start), ("end", end), ("death", death)):
            if value:
                row[var] = _term(value, "literal", datatype=XSD_DATE)
        if position:
            row["position"] = _term(position)
        json_rows.append(row)
    (kg / "en-dbpedia" / "politicians.json").write_text(
        json.dumps({"variables": variables, "bindings": json_rows}), encoding="utf-8"
    )
    party_bindings = [
        {
            "party": _term(alias),
            "label": _term(alias.rsplit("/", 1)[1].replace("_", " "), "literal", lang="en"),
            "country": _term(f"{DBR}Belgium"),
            "alignment": _term(f"{DBR}Ideology_{attrs[canon][0]}"),
        }
        for canon, refs in aliases.items()
        for alias in refs
    ]
    (kg / "en-dbpedia" / "parties.json").write_text(
        json.dumps({"variables": ["party", "label", "country", "alignment"], "bindings": party_bindings}),
        encoding="utf-8",
    )

    alias_rows = [[alias, canon] for alias, canon in canon_of.items()]
    rng.shuffle(alias_rows)
    _write_csv(root / "map.csv", ["alias", "canonical_acronym"], alias_rows)
    _write_csv(
        root / "parties.csv",
        ["canonical_acronym", "alignment", "relevance"],
        [[canon, alignment, relevance] for canon, alignment, relevance, _ in PARTIES],
    )
    relevant = [canon for canon, _, relevance, _ in PARTIES if relevance == "relevant"]
    seats: dict[str, dict[date, tuple[dict[str, int], int]]] = {}
    baseline_rows = []
    for body, elections in ELECTIONS.items():
        for day, total in elections:
            raw = {p: dict(zip(names, weights))[p] * rng.uniform(0.5, 1.5) for p in relevant}
            scale = 0.85 * total / sum(raw.values())
            won = {p: int(w * scale) for p, w in raw.items()}
            seats.setdefault(body, {})[day] = (won, total)
            baseline_rows.extend([body, day.isoformat(), p, won[p], total] for p in relevant)
    _write_csv(
        root / "baselines.csv",
        ["body", "election_date", "canonical_acronym", "seats", "total_seats"],
        baseline_rows,
    )

    return _audit_truth(distinct, canon_of, attrs, relevant, seats, len(party_bindings))


def _audit_truth(distinct, canon_of, attrs, relevant, seats, party_rows) -> AuditTruth:
    by_pid: dict[str, list[tuple[str, ...]]] = {}
    for b in distinct:
        by_pid.setdefault(b[0], []).append(b)

    unmapped = [b for b in distinct if b[2] not in canon_of]
    findings = []
    careers: dict[str, tuple[frozenset[str], tuple[date | None, date] | None]] = {}
    for pid, rows in by_pid.items():
        death = date.fromisoformat(rows[0][5]) if rows[0][5] else None
        if death and any(r[3] and date.fromisoformat(r[3]) > death for r in rows):
            findings.append(("death-before-start", pid))
        mapped = [r for r in rows if r[2] in canon_of]
        party_set = frozenset(
            canon_of[r[2]] for r in mapped if attrs[canon_of[r[2]]][1] == "relevant"
        )
        if not party_set:
            findings.append(("no-relevant-affiliation", pid))
        dated = [
            (date.fromisoformat(r[3]) if r[3] else None, date.fromisoformat(r[4]) if r[4] else None)
            for r in mapped
            if r[3] or r[4]
        ]
        period = None
        if dated:
            cap = min(RETRIEVED_AT, death) if death else RETRIEVED_AT
            starts = [s for s, _ in dated if s is not None]
            start = min(starts) if starts else None
            end = max(e if e is not None else cap for _, e in dated)
            if start is None or start <= end:
                period = (start, end)
        careers[pid] = (party_set, period)

    undated = sum(1 for _, period in careers.values() if period is None)
    coverage = {}
    active_sets: dict[date, list[frozenset[str]]] = {}
    for tp in SCHEDULE:
        active = [
            parties
            for parties, period in careers.values()
            if period is not None and (period[0] is None or period[0] <= tp) and tp <= period[1]
        ]
        active_sets[tp] = active
        coverage[tp.isoformat()] = (len(active), undated)

    audit: dict[str, dict[tuple[str, str], dict[str, str]]] = {}
    for body, elections in seats.items():
        table = {}
        for tp, active in active_sets.items():
            if not active:
                continue
            chosen = min(elections, key=lambda d: (abs((tp - d).days), d))
            won, total = elections[chosen]
            n = len(active)
            for party in relevant:
                lower = sum(1 for s in active if s == {party})
                upper = sum(1 for s in active if party in s)
                share = won.get(party, 0) / total
                if lower / n > share:
                    verdict = "over"
                elif upper / n < share:
                    verdict = "under"
                else:
                    verdict = "indeterminate"
                table[(tp.isoformat(), party)] = {
                    "alignment": attrs[party][0],
                    "lower_count": str(lower),
                    "upper_count": str(upper),
                    "lower_share": f"{lower / n:.6f}",
                    "upper_share": f"{upper / n:.6f}",
                    "baseline_share": f"{share:.6f}",
                    "verdict": verdict,
                    "active_total": str(n),
                }
        audit[body] = table

    return AuditTruth(
        bindings=set(distinct),
        party_rows=party_rows,
        unmapped_rows=len(unmapped),
        unmapped_distinct=len({b[2] for b in unmapped}),
        findings=sorted(findings),
        audit=audit,
        coverage=coverage,
        politicians=len(by_pid),
    )


# --- score workloads ----------------------------------------------------------

KG = "http://kg.example/"
FILLER = (
    "the of and to in a is that for on with as was by at from it an be this "
    "which or are were has have had not but they their its been more after "
    "said government minister council parliament reform budget vote policy "
    "city region week report plan talks support law election debate coalition "
    "tax health school union workers court press leader member public today"
).split()
SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")
GOVERNMENT_TYPES = ("republic", "monarchy", "federation", "confederation")
IDEOLOGIES = tuple(f"ideology-{k}" for k in range(10))
OCCUPATIONS = tuple(f"occupation-{k}" for k in range(25))


@dataclass(frozen=True)
class ScoreSizes:
    documents: int
    #: distinct actors named in each document
    actors_per_doc: int
    #: gazetteer entities, each with one or two surface rules
    pool_actors: int
    #: filler words between two mentions (mean)
    gap_words: int
    #: Zipf exponent of actor popularity; 0 draws disjoint actor sets per document
    zipf_s: float
    #: target triple rows; padding rows use predicates the ontology ignores
    triples: int
    #: share of actors whose feature-defining triples copy one of a few templates
    same_features_share: float
    #: share of actors without any triples
    featureless_share: float


@dataclass
class ScoreTruth:
    #: doc id -> entity id -> mention count, in document order
    counts: dict[str, dict[str, int]]
    #: doc id -> Stirling delta for alpha = beta = 1
    delta: dict[str, float]
    rules: int
    triples: int
    words: int
    distinct_actors: int


@dataclass
class _Actor:
    id: str
    surfaces: list[tuple[str, bool]] = field(default_factory=list)
    attrs: tuple | None = None  # None: featureless


def _name(rng: random.Random, taken: set[str]) -> tuple[str, str]:
    while True:
        first = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()
        last = "".join(rng.choice(SYLLABLES) for _ in range(3)).capitalize()
        if last not in taken:
            taken.add(last)
            return first, last


def _features(attrs: tuple, parties: dict, countries: dict) -> frozenset[tuple[str, str]]:
    """The feature set kgdiv's one-hop enrichment must derive for an actor."""
    kind = attrs[0]
    out: set[tuple[str, str]] = set()
    if kind == "person":
        _, party_ids, occupation, country = attrs
        out.add(("occupation", occupation))
        for party in party_ids:
            ideology, party_country = parties[party]
            out |= {("party", party), ("party.ideology", ideology), ("party.country", party_country)}
    else:
        _, ideology, country = attrs
        out.add(("ideology", ideology))
    government, eu = countries[country]
    out |= {("country", country), ("country.government-type", government), ("country.eu-membership", eu)}
    return frozenset(out)


def stirling_delta_reference(counts: dict[str, int], features: dict[str, frozenset]) -> float:
    """Delta = q^T D q with q_i = p_i and D the Jaccard distances, entities
    with identical feature sets grouped, since they are at distance 0."""
    total = sum(counts.values())
    groups: dict[frozenset, float] = {}
    for entity, c in counts.items():
        fs = features.get(entity, frozenset())
        groups[fs] = groups.get(fs, 0.0) + c / total
    bit = {}
    masks = []
    for fs, q in groups.items():
        mask = 0
        for pair in fs:
            mask |= 1 << bit.setdefault(pair, len(bit))
        masks.append((mask, q))
    delta = 0.0
    for i, (a, qa) in enumerate(masks):
        for b, qb in masks[i + 1 :]:
            union = (a | b).bit_count()
            if union:
                delta += (1.0 - (a & b).bit_count() / union) * qa * qb
    return 2.0 * delta


def generate_score(root: Path, seed: int, sizes: ScoreSizes) -> ScoreTruth:
    """Write a corpus directory, a surface-rule gazetteer and a triples CSV
    under `root`, and return the counts and deltas `score` must report."""
    rng = random.Random(seed)
    root.mkdir(parents=True)
    countries = {
        f"{KG}country/{k}": (rng.choice(GOVERNMENT_TYPES), rng.choice(("yes", "no")))
        for k in range(12)
    }
    country_ids = list(countries)
    parties = {
        f"{KG}party/{k}": (rng.choice(IDEOLOGIES), rng.choice(country_ids)) for k in range(30)
    }
    party_ids = list(parties)

    def random_attrs() -> tuple:
        if rng.random() < 0.85:
            n_parties = 2 if rng.random() < 0.1 else 1
            return (
                "person",
                tuple(sorted(rng.sample(party_ids, n_parties))),
                rng.choice(OCCUPATIONS),
                rng.choice(country_ids),
            )
        return ("organisation", rng.choice(IDEOLOGIES), rng.choice(country_ids))

    templates = [random_attrs() for _ in range(8)]
    taken: set[str] = set()
    actors = []
    for k in range(sizes.pool_actors):
        actor = _Actor(id=f"{KG}actor/{k:05d}")
        first, last = _name(rng, taken)
        actor.surfaces.append((f"{first} {last}", True))
        if k % 5 < 2:
            actor.surfaces.append((f"{first[0]}. {last}", True))
        if k % 5 == 4:
            actor.surfaces.append((f"{first} {last}".lower(), False))
        draw = rng.random()
        if draw < sizes.featureless_share:
            actor.attrs = None
        elif draw < sizes.featureless_share + sizes.same_features_share:
            actor.attrs = rng.choice(templates)
        else:
            actor.attrs = random_attrs()
        actors.append(actor)

    triples = []
    for cid, (government, eu) in countries.items():
        triples += [(cid, "type", "country"), (cid, "government-type", government), (cid, "eu-membership", eu)]
    for pid, (ideology, country) in parties.items():
        triples += [(pid, "type", "party"), (pid, "ideology", ideology), (pid, "country", country)]
    for actor in actors:
        if actor.attrs is None:
            continue
        if actor.attrs[0] == "person":
            _, member_of, occupation, country = actor.attrs
            triples.append((actor.id, "type", "person"))
            triples += [(actor.id, "party", p) for p in member_of]
            triples += [(actor.id, "occupation", occupation), (actor.id, "country", country)]
        else:
            _, ideology, country = actor.attrs
            triples += [(actor.id, "type", "organisation"), (actor.id, "ideology", ideology), (actor.id, "country", country)]
        triples.append((actor.id, "label", actor.surfaces[0][0]))
    with_triples = [a for a in actors if a.attrs is not None]
    pad = 0
    while len(triples) < sizes.triples and with_triples:
        actor = with_triples[pad % len(with_triples)]
        triples.append((actor.id, f"note-{pad // len(with_triples)}", f"note {pad}"))
        pad += 1
    rng.shuffle(triples)
    _write_csv(root / "triples.csv", ["subject", "predicate", "object"], [list(t) for t in triples])

    rules = [
        [surface, "true" if case else "false", "surface", actor.id]
        for actor in actors
        for surface, case in actor.surfaces
    ]
    rng.shuffle(rules)
    _write_csv(root / "rules.csv", ["pattern", "case_sensitive", "match_layer", "target"], rules)

    corpus = root / "corpus"
    corpus.mkdir()
    if sizes.zipf_s > 0:
        popularity = list(accumulate(1.0 / (rank + 1) ** sizes.zipf_s for rank in range(len(actors))))
    counts: dict[str, dict[str, int]] = {}
    delta: dict[str, float] = {}
    features = {
        a.id: _features(a.attrs, parties, countries) if a.attrs else frozenset() for a in actors
    }
    words_total = 0
    named: set[str] = set()
    for d in range(sizes.documents):
        if sizes.zipf_s > 0:
            chosen: dict[int, None] = {}
            while len(chosen) < min(sizes.actors_per_doc, len(actors)):
                chosen[rng.choices(range(len(actors)), cum_weights=popularity)[0]] = None
            doc_actors = [actors[k] for k in chosen]
        else:
            lo = d * sizes.actors_per_doc
            doc_actors = actors[lo : lo + sizes.actors_per_doc]
        slots = [a for a in doc_actors for _ in range(rng.randint(1, 4))]
        rng.shuffle(slots)
        words = []
        for actor in slots:
            words += rng.choices(FILLER, k=rng.randint(1, 2 * sizes.gap_words - 1))
            words.append(rng.choice(actor.surfaces)[0])
            if rng.random() < 0.3:
                words[-1] += "."
        words += rng.choices(FILLER, k=sizes.gap_words)
        text = " ".join(words)
        words_total += len(text.split())
        doc_id = f"doc_{d:05d}"
        (corpus / f"{doc_id}.txt").write_text(text, encoding="utf-8")

        lowered = text.lower()
        doc_counts: Counter[str] = Counter()
        for surface, case, _, target in rules:
            n = text.count(surface) if case == "true" else lowered.count(surface.lower())
            if n:
                doc_counts[target] += n
        counts[doc_id] = dict(sorted(doc_counts.items()))
        named.update(doc_counts)
        delta[doc_id] = stirling_delta_reference(doc_counts, features)

    return ScoreTruth(
        counts=counts,
        delta=delta,
        rules=len(rules),
        triples=len(triples),
        words=words_total,
        distinct_actors=len(named),
    )
