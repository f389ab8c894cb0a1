"""The CSV formats kgdiv reads and writes, and the one checked reader.

The snapshot CSVs share one column set across dialects, so auditing is
dialect-agnostic; the audit series CSV holds one AuditRow per line. No
SPARQL, audit or figure code is loaded here.
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from datetime import date
from itertools import islice
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


#: One party's visibility bracket in one source at one time point.
#: run_audit leaves baseline_share and verdict unset; judge fills them in
#: for one parliamentary body.
AuditRow = namedtuple(
    "AuditRow",
    "source time_point party alignment lower_count upper_count lower_share "
    "upper_share active_total baseline_share verdict",
    defaults=(None, None),
)


def alignment_rank(alignment: str) -> int:
    return ALIGNMENTS.index(alignment)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """Write the header and the rows as csv.writer writes them, with "\n"
    line ends, and give the number of rows. The rows go 32 at a time, each
    chunk joined with "," unless `_joined` finds a field that csv.writer
    would write otherwise. A chunk's text stays within the file's 8 KiB
    write buffer, so it adds no memory: 256-row chunks raised `fetch`'s
    peak."""
    written = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        rows = iter(rows)
        for chunk in iter(lambda: list(islice(rows, 32)), []):
            written += len(chunk)
            text = _joined(chunk)
            if text is None:
                writer.writerows(chunk)
            else:
                fh.write(text)
    return written


def _joined(rows: list[Sequence]) -> str | None:
    """The rows joined with "," and each ended with "\n", or None if
    csv.writer might write them otherwise: where a value is not a str, a
    row has fewer than two fields (csv.writer quotes a lone empty one), or
    a field holds a quote, CR, LF, NUL or comma (counted: a row of n fields
    joins with n - 1 commas)."""
    if min(map(len, rows)) < 2:
        return None
    try:
        text = "\n".join(map(",".join, rows))
    except TypeError:
        return None
    if (
        '"' in text
        or "\r" in text
        or "\0" in text
        or text.count("\n") != len(rows) - 1
        or text.count(",") != sum(map(len, rows)) - len(rows)
    ):
        return None
    return text + "\n"


def _checked_rows(path: str | Path, columns: Sequence[str]) -> Iterator:
    """The reader and the header, then each row's fields, of a CSV file
    whose header names every one of `columns`; while a row is out, the
    reader's `line_num` is the line it ends on. A leading byte-order mark
    is dropped, blank lines are skipped, and a row of another width than
    the header, a file that is not UTF-8 or one the csv module cannot read
    is an error."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = set(columns) - set(header)
            if missing:
                raise ValueError(f"{path} lacks expected columns {sorted(missing)}")
            yield reader, header
            width = len(header)
            for fields in reader:
                if len(fields) != width:
                    if not fields:
                        continue
                    raise ValueError(
                        f"{path} line {reader.line_num}: {len(fields)} fields "
                        f"where the header has {width}"
                    )
                yield fields
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
    except csv.Error as exc:  # a field over the size limit, or NUL before 3.11
        raise ValueError(f"{path} line {reader.line_num}: {exc}") from None


def numbered_csv_rows(
    path: str | Path, columns: Sequence[str]
) -> Iterator[tuple[int, dict[str, str]]]:
    """Each row, keyed by the header, of a CSV file whose header names
    every one of `columns` (checked as in `_checked_rows`), with the line
    it ends on, so that a caller can say where a bad value is."""
    rows = _checked_rows(path, columns)
    reader, header = next(rows)
    for fields in rows:
        yield reader.line_num, dict(zip(header, fields))


def csv_rows(path: str | Path, columns: Sequence[str]) -> Iterator[dict[str, str]]:
    """Each row of `numbered_csv_rows`, without its line."""
    return (row for _, row in numbered_csv_rows(path, columns))


def csv_columns(path: str | Path, columns: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """Each row's fields of two or more `columns`, in that order, picked by
    header position with no dict per row (checked as in `_checked_rows`)."""
    rows = _checked_rows(path, columns)
    position = {name: i for i, name in enumerate(next(rows)[1])}
    return map(itemgetter(*(position[name] for name in columns)), rows)


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


def iso_date(raw: str) -> date:
    """A YYYY-MM-DD date, read alike on every Python: from 3.11 on,
    `date.fromisoformat` also reads week dates and the basic format, and
    the dashes at 4 and 7 of a 10-character value leave only YYYY-MM-DD."""
    if len(raw) == 10 and raw[4] == "-" and raw[7] == "-":
        try:
            return date.fromisoformat(raw)
        except ValueError:  # no such day, or not digits
            pass
    raise ValueError(f"{raw!r} is not a YYYY-MM-DD date")


def read_series_csv(path: str | Path) -> list[AuditRow]:
    """Audit rows back from a CSV that emit_series_csv wrote (checked as in
    `_checked_rows`). Every malformed row is reported in one ValueError,
    with its line number."""
    problems = []
    rows = []
    for line, row in numbered_csv_rows(path, CSV_COLUMNS):
        try:
            if row["alignment"] not in ALIGNMENTS:
                raise ValueError(f"alignment {row['alignment']!r} not one of {ALIGNMENTS}")
            lower, upper = _share(row, "lower_share"), _share(row, "upper_share")
            if lower > upper:
                raise ValueError(
                    f"lower_share {row['lower_share']!r} above upper_share {row['upper_share']!r}"
                )
            rows.append(
                AuditRow(
                    source=row["source"],
                    time_point=iso_date(row["time_point"]),
                    party=row["canonical_acronym"],
                    alignment=row["alignment"],
                    lower_count=_field(row, "lower_count", int, "an integer"),
                    upper_count=_field(row, "upper_count", int, "an integer"),
                    lower_share=lower,
                    upper_share=upper,
                    baseline_share=_share(row, "baseline_share"),
                    verdict=row["verdict"],
                    active_total=_field(row, "active_total", int, "an integer"),
                )
            )
        except ValueError as exc:
            problems.append(f"row {line}: {exc}")
    if problems:
        raise ValueError(f"malformed audit CSV {path}:\n  " + "\n  ".join(problems))
    return rows


def _field(row: dict[str, str], column: str, parse, what: str):
    """A column's value parsed, or a ValueError that names the column and
    the value in place of the parser's own words."""
    try:
        return parse(row[column])
    except ValueError:
        raise ValueError(f"{column} {row[column]!r} is not {what}") from None


def _share(row: dict[str, str], column: str) -> float:
    share = _field(row, column, float, "a number")
    if not 0 <= share <= 1:  # NaN too
        raise ValueError(f"{column} {row[column]!r} outside [0, 1]")
    return share
