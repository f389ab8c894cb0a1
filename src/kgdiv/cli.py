"""Command-line interface: fetch, audit, score, report, validate.

Exit codes: 0 success, 1 runtime or data failure, 2 usage or
configuration error. Commands never mutate their inputs and rerunning
with identical inputs rewrites byte-identical outputs. A command runs
with the cyclic garbage collector off.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from collections.abc import Callable, Iterator
from datetime import date
from functools import partial
from itertools import chain, islice
from pathlib import Path

from . import DIALECTS, ConfigError, QueryError, warn

# Each command imports the modules it runs, so `import kgdiv.cli` loads no
# other kgdiv module.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgdiv",
        description="Actor diversity scoring and knowledge-source "
        "representation audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fetch = sub.add_parser("fetch", help="materialize snapshot CSVs from a source")
    fetch.add_argument("--source", required=True, choices=DIALECTS)
    fetch.add_argument("--from-fixture", metavar="DIR", default=None)
    fetch.add_argument("--config", default=None)
    fetch.add_argument("--out", default="out")
    # set only by a config file's endpoints
    fetch.set_defaults(func=cmd_fetch, endpoints=None)

    aud = sub.add_parser("audit", help="run the representation audit on a snapshot")
    aud.add_argument("--snapshot", required=True, metavar="DIR")
    aud.add_argument("--baseline", required=True, metavar="FILE")
    aud.add_argument("--map", required=True, metavar="FILE", dest="map_file")
    aud.add_argument("--parties", required=True, metavar="FILE")
    aud.add_argument("--overrides", default=None, metavar="FILE")
    aud.add_argument("--schedule", default=None, help="comma-separated years or dates")
    aud.add_argument(
        "--baseline-policy",
        choices=("preceding", "closest"),
        default="preceding",
    )
    aud.add_argument("--body", default=None, help="audit only this baseline body")
    aud.add_argument(
        "--today", type=_iso_date, default=None, help="cap open careers at this date"
    )
    aud.add_argument("--max-unmapped", type=_count, default=0)
    aud.add_argument("--out", default="out")
    aud.set_defaults(func=cmd_audit)

    score = sub.add_parser("score", help="compute per-document actor diversity")
    score.add_argument("--corpus", required=True, metavar="PATH")
    score.add_argument("--rules", default=None, metavar="FILE")
    score.add_argument("--triples", default=None, metavar="FILE")
    score.add_argument("--alpha", type=_exponent, default=None)
    score.add_argument("--beta", type=_exponent, default=None)
    score.add_argument("--nel-endpoint", default=None, metavar="URL")
    score.add_argument("--require-nel", action="store_true")
    score.add_argument("--config", default=None)
    score.add_argument("--out", default="out")
    score.set_defaults(func=cmd_score)

    rep = sub.add_parser("report", help="render audit output as SVG figures")
    rep.add_argument("--audit", required=True, metavar="FILE")
    # report.RENDER_STYLES, spelled out so that parsing imports no report code
    rep.add_argument("--style", choices=("line", "stacked"), default="line")
    rep.add_argument("--baseline-label", default="baseline")
    rep.add_argument("--out", default="out")
    rep.set_defaults(func=cmd_report)

    val = sub.add_parser("validate", help="report data-quality findings in a snapshot")
    val.add_argument("--snapshot", required=True, metavar="DIR")
    val.add_argument("--map", default=None, metavar="FILE", dest="map_file")
    val.add_argument("--parties", default=None, metavar="FILE")
    val.add_argument("--out", default=None)
    val.set_defaults(func=cmd_validate)

    return parser


def _exponent(raw: str) -> float:
    """An --alpha/--beta value: a finite, non-negative number."""
    from .diversity import DiversityParams

    try:
        return DiversityParams(alpha=float(raw)).alpha
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{raw!r} is not a finite, non-negative number"
        ) from None


def _iso_date(raw: str) -> date:
    """A --today value: an ISO calendar date."""
    from .csvformat import iso_date

    try:
        return iso_date(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not an ISO date (YYYY-MM-DD)") from None


def _count(raw: str) -> int:
    """A --max-unmapped value: a non-negative integer."""
    try:
        if int(raw) >= 0:
            return int(raw)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{raw!r} is not a non-negative integer")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a command's objects live until it returns, so the cyclic collector
    # would only rescan them; a caller that had it on gets it back
    collecting = gc.isenabled()
    gc.disable()
    try:
        if getattr(args, "config", None):
            from .config import load_run_config

            # a config value is the default of the option it names: it fills
            # each one the command line left unset (None, or --nel-endpoint '')
            options = vars(args)
            for dest, value in load_run_config(args.config).items():
                if dest in options and options[dest] in (None, ""):
                    options[dest] = value
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QueryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


def _write_all(out: Path, writers: dict[str, Callable[[Path], object]]) -> dict[str, object]:
    """Write each named output into the directory `out`, made if missing,
    through a .tmp file, and rename them only once all are written, so a
    failure leaves none of them behind, nor an empty directory it made.
    Gives what each writer returned, by name."""
    # the directories that mkdir makes, deepest first
    made = [path for path in (out, *out.parents) if not path.exists()]
    out.mkdir(parents=True, exist_ok=True)
    tmps = {name: out / f"{name}.tmp" for name in writers}
    try:
        written = {}
        for name, write in writers.items():
            written[name] = write(tmps[name])
        for name, tmp in tmps.items():
            tmp.replace(out / name)
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        for path in made:
            if not any(path.iterdir()):
                path.rmdir()
        raise
    return written


def _findings_writer(findings) -> Callable[[Path], object]:
    """The findings.csv writer of `audit` and `validate --out`."""
    from .csvformat import write_csv

    return partial(
        write_csv,
        header=["kind", "subject", "detail"],
        rows=[[f.kind, f.subject, f.detail] for f in findings],
    )


def _require_file(raw: str | Path | None, what: str) -> Path | None:
    if raw is None:
        return None
    path = Path(raw)
    if not path.exists():
        raise ConfigError(f"{what} file {path} does not exist")
    return path


# --- fetch ----------------------------------------------------------------


def cmd_fetch(args) -> int:
    from . import catalog, config, sparql

    out = Path(args.out)
    endpoint = config.endpoint(args.source, args.endpoints)

    transport = None
    if args.from_fixture:
        from .fixtures import FixtureStore, FixtureTransport

        store = FixtureStore(args.from_fixture)
        transport = FixtureTransport(store)
        retrieved_at = store.retrieved_at
        # rebuilt through the constructor, which checks every field
        endpoint = sparql.EndpointConfig(
            **{
                **endpoint._asdict(),
                "url": f"fixture:///{args.source}",
                "max_requests_per_second": 10_000.0,
                "retry_limit": 0,
            }
        )
    else:
        retrieved_at = date.today().isoformat()

    # the rows are fetched as they are written: the parties once the
    # politicians are all written
    politicians = catalog.fetch_politicians(endpoint, retrieved_at, transport=transport)
    parties = catalog.fetch_parties(endpoint, retrieved_at, transport=transport)
    written = _write_all(
        out,
        {
            "politicians.csv": partial(catalog.write_politicians_csv, rows=politicians),
            "parties.csv": partial(catalog.write_parties_csv, rows=parties),
        },
    )
    print(
        f"wrote {written['politicians.csv']} politician rows and "
        f"{written['parties.csv']} party rows to {out}"
    )
    return 0


# --- audit ------------------------------------------------------------------


def _read_snapshot(raw: str, nmap):
    """A snapshot directory's audit.Snapshot under the audit.NormalizationMap
    `nmap` (or None), its rows read once, as they stream from the file; its
    parties.csv is optional."""
    from . import audit, csvformat

    snapshot_dir = Path(raw)
    politicians_path = snapshot_dir / "politicians.csv"
    if not politicians_path.exists():
        raise ConfigError(f"snapshot {snapshot_dir} has no politicians.csv")
    parties_path = snapshot_dir / "parties.csv"
    return audit.read_snapshot(
        csvformat.csv_columns(politicians_path, csvformat.POLITICIANS_CSV_HEADER),
        csvformat.read_parties_csv(parties_path) if parties_path.exists() else [],
        nmap,
        politicians_path,
    )


def cmd_audit(args) -> int:
    from . import audit, csvformat

    out = Path(args.out)
    for name, raw in (
        ("baseline", args.baseline),
        ("map", args.map_file),
        ("parties", args.parties),
    ):
        _require_file(raw, name)

    nmap = audit.load_normalization_map(args.map_file, args.parties)
    baselines = audit.load_baselines(args.baseline)
    overrides = (
        audit.load_career_end_overrides(args.overrides)
        if _require_file(args.overrides, "overrides")
        else None
    )
    schedule = (
        audit.parse_schedule(args.schedule) if args.schedule else audit.DEFAULT_SCHEDULE
    )
    policy = (
        "most-recent-preceding" if args.baseline_policy == "preceding" else "closest-in-time"
    )

    bodies = sorted(baselines)
    if args.body:
        if args.body not in baselines:
            raise ConfigError(
                f"body {args.body!r} not in baseline file (has {bodies})"
            )
        bodies = [args.body]
    # each body names two output files, so no name may hold a path or clash
    named: dict[str, list[str]] = {}
    for body in bodies:
        if any(c in body for c in "/\\\0"):
            raise ValueError(
                f"baselines file {args.baseline}: body {body!r} holds a path "
                "separator or NUL, so it cannot name an output file"
            )
        named.setdefault(f"audit_{body.lower()}.csv", []).append(body)
    for name, clashing in named.items():
        if len(clashing) > 1:
            raise ValueError(
                f"baselines file {args.baseline}: bodies {', '.join(map(repr, clashing))} "
                f"map to the same output file {name}"
            )

    snapshot = _read_snapshot(args.snapshot, nmap)
    result = audit.run_audit(
        snapshot,
        nmap,
        schedule=schedule,
        today=args.today,
        career_end_overrides=overrides,
    )
    distinct_refs = sorted({u.raw_ref for u in snapshot.unmapped})
    writers = {
        "unmapped_refs.csv": partial(
            csvformat.write_csv,
            header=["source", "politician_id", "raw_ref"],
            rows=[
                [u.source, u.politician_id, u.raw_ref]
                for u in sorted(
                    snapshot.unmapped, key=lambda u: (u.source, u.politician_id, u.raw_ref)
                )
            ],
        )
    }
    if len(distinct_refs) > args.max_unmapped:
        # the one output of a failed audit: the refs its message points to
        _write_all(out, writers)
        print(
            f"error: {len(distinct_refs)} unmapped party refs exceed "
            f"--max-unmapped {args.max_unmapped}; see "
            f"{out / 'unmapped_refs.csv'}",
            file=sys.stderr,
        )
        return 1
    writers["findings.csv"] = _findings_writer(snapshot.findings)
    coverage = [
        [
            c.source,
            c.time_point.isoformat(),
            c.active_total,
            c.undated_total,
            str(c.low_sample).lower(),
        ]
        for c in result.coverage
    ]
    # every body is judged before any output is written
    for body in bodies:
        rows = audit.judge(result.rows, baselines[body], policy)
        writers[f"audit_{body.lower()}.csv"] = partial(
            Path.write_bytes, data=csvformat.emit_series_csv(rows)
        )
        writers[f"coverage_{body.lower()}.csv"] = partial(
            csvformat.write_csv,
            header=["source", "time_point", "active_total", "undated_total", "low_sample"],
            rows=coverage,
        )
    _write_all(out, writers)
    print(f"audit written to {out} (bodies: {', '.join(bodies)}; findings: {len(snapshot.findings)})")
    return 0


# --- score ------------------------------------------------------------------


def _load_corpus(path: Path) -> Iterator:
    """The corpus's pipeline.TextDocuments, from a directory of .txt files
    or a CSV with doc_id and text columns, read 16 at a time as they are
    taken. The corpus's kind, a CSV's header and an empty corpus, a
    configuration error, are checked at the call; a document that is not
    UTF-8 and a repeated CSV doc_id are errors once they are read."""
    from .csvformat import csv_rows

    if path.is_dir():
        # names, not paths: a Path held per file took about 257 bytes
        names = sorted(file.name for file in path.glob("*.txt"))
        if not names:
            raise ConfigError(f"corpus directory {path} has no .txt files")
        docs = (_text_document(path / name) for name in names)
    elif path.suffix.lower() != ".csv":
        raise ConfigError(f"corpus {path} is neither a directory nor a CSV file")
    else:
        rows = csv_rows(path, ("doc_id", "text"))
        first = next(rows, None)
        if first is None:
            raise ConfigError(f"corpus CSV {path} has no documents")
        docs = _csv_documents(path, chain([first], rows))
    # a file read between every two documents made matching them 5-6%
    # slower than reading the corpus first; 16 reads at a time cost about 1%
    return chain.from_iterable(iter(lambda: list(islice(docs, 16)), []))


def _text_document(file: Path):
    from .pipeline import TextDocument

    try:
        return TextDocument(doc_id=file.stem, text=file.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{file} is not UTF-8 text: {exc}") from None


def _csv_documents(path: Path, rows: Iterator[dict[str, str]]) -> Iterator:
    from .pipeline import TextDocument

    seen: set[str] = set()
    for row in rows:
        doc_id = row["doc_id"]
        if doc_id in seen:
            raise ValueError(f"corpus CSV {path} repeats doc_id {doc_id!r}")
        seen.add(doc_id)
        yield TextDocument(doc_id=doc_id, text=row["text"])


def cmd_score(args) -> int:
    """Score each document of the corpus as `_load_corpus` reads it: its
    rule matches are counted, not built as mentions, and its
    entity_counts.csv rows and its scores.csv row go to their .tmp files
    as it is scored, so nothing is held per document. Both files are
    renamed into place once every document is scored, so a failure at any
    document, a late corpus error or an unreachable annotator under
    --require-nel, leaves neither."""
    import csv

    from .csvformat import write_csv
    from .diversity import (
        DiversityParams,
        FeatureSet,
        compute_balance,
        compute_disparity,
        stirling_delta,
    )
    from .pipeline import (
        UNNAMED_PREFIX,
        AnnotationClient,
        AnnotationError,
        CsvTripleSource,
        aggregate_mentions,
        annotate,
        builtin_ontology,
        enrich_entity,
        load_rules,
        rule_counts,
    )

    out = Path(args.out)
    corpus_path = Path(args.corpus)
    if not corpus_path.exists():
        raise ConfigError(f"corpus {corpus_path} does not exist")
    docs = _load_corpus(corpus_path)

    rules_path = _require_file(args.rules, "rules")
    rules = load_rules(rules_path) if rules_path else []
    triples_path = _require_file(args.triples, "triples")
    ontology = builtin_ontology()
    triples = (
        CsvTripleSource.from_file(triples_path, ontology) if triples_path else None
    )
    params = DiversityParams(
        alpha=1.0 if args.alpha is None else args.alpha,
        beta=1.0 if args.beta is None else args.beta,
    )

    client = AnnotationClient(endpoint_url=args.nel_endpoint) if args.nel_endpoint else None

    # enrichment is a pure function of the id, the triples and the ontology,
    # so each id is enriched once per run
    features: dict[str, FeatureSet] = {}
    scored = 0

    def count_rows(write_score):
        nonlocal scored
        nel_warned = False
        for doc in docs:
            counts = rule_counts(doc, rules)
            if client is not None:
                try:
                    annotated = annotate(doc, client)
                except AnnotationError as exc:
                    if args.require_nel:
                        raise
                    if not nel_warned:
                        warn(
                            __name__,
                            "annotation endpoint unavailable (%s); continuing with "
                            "rule matches only",
                            exc,
                        )
                        nel_warned = True
                    annotated = []
                aggregate_mentions(_type_filtered(annotated, triples, ontology), counts)
            ids = sorted(counts)
            for entity_id in ids:
                if entity_id not in features:
                    # no features without triples or for an unnamed category
                    features[entity_id] = (
                        FeatureSet()
                        if triples is None or entity_id.startswith(UNNAMED_PREFIX)
                        else enrich_entity(entity_id, triples, ontology)
                    )
            balance = compute_balance(counts)
            disparity = compute_disparity({i: features[i] for i in ids})
            result = stirling_delta(balance, disparity, params)
            write_score((doc.doc_id, str(result.variety), f"{result.delta:.12g}"))
            scored += 1
            for entity_id in ids:
                yield doc.doc_id, entity_id, str(counts[entity_id])

    def write_both(counts_tmp: Path) -> None:
        """Write entity_counts.csv.tmp and, beside it, scores.csv.tmp, a
        row of each as each document is scored."""
        with open(counts_tmp.with_name("scores.csv.tmp"), "w", newline="", encoding="utf-8") as fh:
            scores = csv.writer(fh, lineterminator="\n")
            scores.writerow(["doc_id", "n_entities", "delta"])
            write_csv(
                counts_tmp, header=["doc_id", "entity_id", "count"], rows=count_rows(scores.writerow)
            )

    try:
        # scores.csv.tmp is written by entity_counts.csv's writer; _write_all
        # renames both, or removes both on a failure
        _write_all(out, {"entity_counts.csv": write_both, "scores.csv": lambda tmp: None})
    except AnnotationError as exc:  # only under --require-nel
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"scored {scored} documents into {out}")
    return 0


def _type_filtered(mentions, triples, ontology):
    """Drop annotator mentions whose resource is typed but not actor-typed."""
    if triples is None:
        return list(mentions)
    kept = []
    for mention in mentions:
        types = triples.types(mention.resolved_id) if mention.resolved_id else []
        if types and ontology.classify(types) is None:
            continue
        kept.append(mention)
    return kept


# --- report -----------------------------------------------------------------


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]+", "-", name) or "unnamed"


def cmd_report(args) -> int:
    from . import report
    from .csvformat import read_series_csv

    audit_path = _require_file(args.audit, "audit")
    if audit_path.is_dir():
        raise ConfigError(f"audit file {audit_path} is a directory")
    rows = read_series_csv(audit_path)
    sources = sorted({r.source for r in rows})
    figure_sources: dict[str, list[str]] = {}
    for source in sources:
        figure_sources.setdefault(f"figure_{_safe_name(source)}.svg", []).append(source)
    for name, named in figure_sources.items():
        if len(named) > 1:
            raise ValueError(
                f"sources {', '.join(map(repr, named))} map to the same figure file {name}"
            )
    specs = {
        name: report.build_figure_spec(rows, source, args.baseline_label, style=args.style)
        for name, (source,) in figure_sources.items()
    } or {
        "figure_empty.svg": report.FigureSpec(
            title="no data",
            source_label="none",
            baseline_label=args.baseline_label,
            time_points=(),
            parties=(),
            active_counts={},
            style=args.style,
        )
    }
    out = Path(args.out)
    # every figure is drawn before any is written
    _write_all(
        out,
        {
            name: partial(Path.write_bytes, data=report.emit_figure_svg(spec))
            for name, spec in specs.items()
        },
    )
    if sources:
        print(f"wrote {len(sources)} figure(s) to {out}")
    else:
        print(f"no audit rows; wrote placeholder figure to {out}")
    return 0


# --- validate -----------------------------------------------------------------


def cmd_validate(args) -> int:
    from . import audit

    if bool(args.map_file) != bool(args.parties):
        given, missing = ("--map", "--parties") if args.map_file else ("--parties", "--map")
        raise ConfigError(f"{given} needs {missing}")
    nmap = None
    if args.map_file:
        nmap = audit.load_normalization_map(
            _require_file(args.map_file, "map"), _require_file(args.parties, "parties")
        )
    findings = _read_snapshot(args.snapshot, nmap).findings
    for finding in findings:
        print(f"{finding.kind}: {finding.subject} ({finding.detail})")
    if not findings:
        print("no findings")
    if args.out:
        _write_all(Path(args.out), {"findings.csv": _findings_writer(findings)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
