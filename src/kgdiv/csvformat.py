"""The CSV formats kgdiv reads and writes, and the one checked reader.

The snapshot CSVs share one column set across dialects, so auditing is
dialect-agnostic; the audit series CSV holds one AuditRow per line. No
SPARQL, audit or figure code is loaded here.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from datetime import date
from operator import itemgetter
from pathlib import Path

POLITICIANS_CSV_HEADER = (
    "source",
    "politician_id",
    "label",
    "party_id",
    "aff_start",
    "aff_end",
    "death_date",
    "position",
    "retrieved_at",
)

PARTIES_CSV_HEADER = (
    "source",
    "party_id",
    "label",
    "country",
    "raw_alignment",
    "retrieved_at",
)

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

CSV_COLUMNS = (
    "source",
    "time_point",
    "canonical_acronym",
    "alignment",
    "lower_count",
    "upper_count",
    "lower_share",
    "upper_share",
    "baseline_share",
    "verdict",
    "active_total",
)


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


def alignment_rank(alignment: str) -> int:
    return ALIGNMENTS.index(alignment)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _checked_rows(path: str | Path, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """The header, then each row, of a CSV file whose header names every
    one of `columns`, each with the line it ends on. A leading byte-order
    mark is dropped, blank lines are skipped, and a row of another width
    than the header or a file that is not UTF-8 is an error."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = set(columns) - set(header)
            if missing:
                raise ValueError(f"{path} lacks expected columns {sorted(missing)}")
            yield reader.line_num, header
            for fields in reader:
                if len(fields) != len(header):
                    if not fields:
                        continue
                    raise ValueError(
                        f"{path} line {reader.line_num}: {len(fields)} fields "
                        f"where the header has {len(header)}"
                    )
                yield reader.line_num, fields
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None


def numbered_csv_rows(
    path: str | Path, columns: Sequence[str]
) -> Iterator[tuple[int, dict[str, str]]]:
    """Each row, keyed by the header, of a CSV file whose header names
    every one of `columns` (checked as in `_checked_rows`), with the line
    it ends on, so that a caller can say where a bad value is."""
    rows = _checked_rows(path, columns)
    _, header = next(rows)
    for line, fields in rows:
        yield line, dict(zip(header, fields))


def csv_rows(path: str | Path, columns: Sequence[str]) -> Iterator[dict[str, str]]:
    """Each row of `numbered_csv_rows`, without its line."""
    return (row for _, row in numbered_csv_rows(path, columns))


def csv_columns(path: str | Path, columns: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """Each row's fields of two or more `columns`, in that order, picked by
    header position with no dict per row (checked as in `_checked_rows`)."""
    rows = _checked_rows(path, columns)
    position = {name: i for i, name in enumerate(next(rows)[1])}
    pick = itemgetter(*(position[name] for name in columns))
    return map(pick, map(itemgetter(1), rows))


def read_politicians_csv(path: str | Path) -> list[tuple[str, ...]]:
    """A politicians snapshot's rows as fetch_politicians gives them."""
    return list(csv_columns(path, POLITICIANS_CSV_HEADER))


def read_parties_csv(path: str | Path) -> list[dict[str, str]]:
    return list(csv_rows(path, PARTIES_CSV_HEADER))


def emit_series_csv(rows: Sequence[AuditRow]) -> bytes:
    """Audit rows as CSV bytes, in figure order (party, then time)."""
    ordered = sorted(
        rows,
        key=lambda r: (
            r.source,
            alignment_rank(r.alignment),
            r.party,
            r.time_point,
        ),
    )
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in ordered:
        writer.writerow(
            [
                r.source,
                r.time_point.isoformat(),
                r.party,
                r.alignment,
                r.lower_count,
                r.upper_count,
                f"{r.lower_share:.6f}",
                f"{r.upper_share:.6f}",
                f"{r.baseline_share:.6f}",
                r.verdict,
                r.active_total,
            ]
        )
    return buffer.getvalue().encode("utf-8")


def read_series_csv(path: str | Path) -> list[AuditRow]:
    """Audit rows back from a CSV that emit_series_csv wrote (checked as in
    `_checked_rows`). Every malformed row is reported in one ValueError,
    with its line number."""
    problems = []
    rows = []
    for line, row in numbered_csv_rows(path, CSV_COLUMNS):
        try:
            rows.append(
                AuditRow(
                    source=row["source"],
                    time_point=date.fromisoformat(row["time_point"]),
                    party=row["canonical_acronym"],
                    alignment=row["alignment"],
                    lower_count=int(row["lower_count"]),
                    upper_count=int(row["upper_count"]),
                    lower_share=float(row["lower_share"]),
                    upper_share=float(row["upper_share"]),
                    baseline_share=float(row["baseline_share"]),
                    verdict=row["verdict"],
                    active_total=int(row["active_total"]),
                )
            )
        except ValueError as exc:
            problems.append(f"row {line}: {exc}")
    if problems:
        raise ValueError(f"malformed audit CSV {path}:\n  " + "\n  ".join(problems))
    return rows
