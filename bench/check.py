"""Output checks that compare kgdiv's files with the generators' ground truth.

Each check returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

from gen import AuditTruth, ScoreTruth

AUDIT_FIELDS = (
    "alignment",
    "lower_count",
    "upper_count",
    "lower_share",
    "upper_share",
    "baseline_share",
    "verdict",
    "active_total",
)


def digest(stdout: bytes, out_dir: Path | None) -> str:
    """One hash over a command's standard output and every file it wrote."""
    h = hashlib.sha256(stdout)
    if out_dir is not None and out_dir.is_dir():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out_dir)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _read(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _guard(problems: list[str], what: str, fn) -> None:
    try:
        fn()
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"{what}: unreadable output ({exc!r})")


def check_fetch(snapshot: Path, truth: AuditTruth) -> list[str]:
    problems: list[str] = []

    def run():
        rows = _read(snapshot / "politicians.csv")
        got = [
            (r["politician_id"], r["label"], r["party_id"], r["aff_start"], r["aff_end"], r["death_date"], r["position"])
            for r in rows
        ]
        if len(got) != len(truth.bindings):
            problems.append(f"fetch: {len(got)} politician rows, expected {len(truth.bindings)} distinct bindings")
        elif set(got) != truth.bindings:
            problems.append("fetch: politician rows differ from the generated bindings")
        parties = _read(snapshot / "parties.csv")
        if len(parties) != truth.party_rows:
            problems.append(f"fetch: {len(parties)} party rows, expected {truth.party_rows}")

    _guard(problems, "fetch", run)
    return problems


def check_validate(stdout: bytes, truth: AuditTruth) -> list[str]:
    found = []
    for line in stdout.decode("utf-8").splitlines():
        if line == "no findings":
            continue
        kind, _, rest = line.partition(": ")
        found.append((kind, rest.split(" (", 1)[0]))
    if sorted(found) != truth.findings:
        return [f"validate: {len(found)} findings, expected {len(truth.findings)} (or they differ)"]
    return []


def check_audit(out: Path, truth: AuditTruth) -> list[str]:
    problems: list[str] = []

    def run():
        findings = sorted((r["kind"], r["subject"]) for r in _read(out / "findings.csv"))
        if findings != truth.findings:
            problems.append("audit: findings.csv differs from the expected findings")
        unmapped = _read(out / "unmapped_refs.csv")
        if len(unmapped) != truth.unmapped_rows:
            problems.append(f"audit: {len(unmapped)} unmapped refs, expected {truth.unmapped_rows}")
        for body, expected in truth.audit.items():
            rows = _read(out / f"audit_{body.lower()}.csv")
            got = {}
            for r in rows:
                got[(r["time_point"], r["canonical_acronym"])] = {k: r[k] for k in AUDIT_FIELDS}
                lo, hi, base = float(r["lower_share"]), float(r["upper_share"]), float(r["baseline_share"])
                consistent = {
                    "over": lo >= base,
                    "under": hi <= base,
                    "indeterminate": lo <= base <= hi,
                }.get(r["verdict"], False)
                if not consistent:
                    problems.append(f"audit {body}: verdict {r['verdict']!r} contradicts its shares in {r}")
            if len(rows) != len(got) or got != expected:
                wrong = sorted(k for k in expected.keys() | got.keys() if got.get(k) != expected.get(k))
                problems.append(f"audit {body}: {len(wrong)} rows differ from the reference, first {wrong[:3]}")
            coverage = {
                r["time_point"]: (int(r["active_total"]), int(r["undated_total"]))
                for r in _read(out / f"coverage_{body.lower()}.csv")
            }
            if coverage != truth.coverage:
                problems.append(f"audit {body}: coverage differs from the reference")

    _guard(problems, "audit", run)
    return problems


def check_report(out: Path, truth: AuditTruth) -> list[str]:
    path = out / "figure_en-dbpedia.svg"
    if not path.is_file():
        return [f"report: {path.name} missing"]
    svg = path.read_text(encoding="utf-8")
    parties = {party for _, party in next(iter(truth.audit.values()))}
    missing = sorted(p for p in parties if f'data-party="{p}"' not in svg)
    if not svg.lstrip().startswith(("<svg", "<?xml")) or missing:
        return [f"report: figure is not an SVG naming every party (missing {missing})"]
    return []


def check_score(out: Path, truth: ScoreTruth) -> list[str]:
    problems: list[str] = []

    def run():
        counts = [(r["doc_id"], r["entity_id"], int(r["count"])) for r in _read(out / "entity_counts.csv")]
        expected = [(d, e, c) for d, per_doc in truth.counts.items() for e, c in per_doc.items()]
        if counts != expected:
            problems.append(f"score: entity_counts.csv has {len(counts)} rows, expected {len(expected)} (or they differ)")
        scores = _read(out / "scores.csv")
        if [r["doc_id"] for r in scores] != list(truth.delta):
            problems.append("score: scores.csv does not list every document in order")
        for r in scores:
            ref = truth.delta.get(r["doc_id"])
            if ref is None:
                continue
            got = float(r["delta"])
            if abs(got - ref) > 1e-9 * max(abs(ref), 1e-3):
                problems.append(f"score: delta of {r['doc_id']} is {got!r}, reference {ref!r}")
            if int(r["n_entities"]) != len(truth.counts[r["doc_id"]]):
                problems.append(f"score: n_entities of {r['doc_id']} is {r['n_entities']}")

    _guard(problems, "score", run)
    return problems
