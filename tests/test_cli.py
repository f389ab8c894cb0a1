"""End-to-end CLI tests: golden outputs, exit codes, determinism."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgdiv.cli import main
from kgdiv.csvformat import POLITICIANS_CSV_HEADER
from tests.conftest import FIXTURES, write_config

GOLDEN = Path(__file__).parent / "golden"

#: a politicians dataset of one and a half default pages
POLITICIANS_1500 = json.dumps(
    {
        "variables": ["politician"],
        "bindings": [
            {"politician": {"type": "uri", "value": f"http://x/p{n}"}} for n in range(1500)
        ],
    }
)
SRC = Path(__file__).parent.parent / "src"


def run_cli(*argv: str) -> int:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return int(code or 0)


def fetch_args(out: Path, fixture: Path, source: str = "en-dbpedia") -> list[str]:
    return [
        "fetch",
        "--source",
        source,
        "--from-fixture",
        str(fixture),
        "--out",
        str(out),
    ]


def audit_args(snapshot: Path, out: Path, fixture_dir: Path, body="KVV") -> list[str]:
    """Audit arguments for one body, or for every baseline body if None."""
    return [
        "audit",
        "--snapshot",
        str(snapshot),
        "--baseline",
        str(fixture_dir / "baselines.csv"),
        "--map",
        str(fixture_dir / "map.csv"),
        "--parties",
        str(fixture_dir / "parties.csv"),
        *(["--body", body] if body else []),
        "--out",
        str(out),
    ]


class TestFetch:
    def test_matches_golden_snapshot(self, tmp_path, kg_fixture_dir):
        out = tmp_path / "snap"
        assert run_cli(*fetch_args(out, kg_fixture_dir)) == 0
        for name in ("politicians.csv", "parties.csv"):
            assert (out / name).read_bytes() == (
                GOLDEN / "snapshot_en" / name
            ).read_bytes()

    def test_unknown_source_usage_error(self, tmp_path, kg_fixture_dir):
        code = run_cli(
            "fetch from mars".replace("fetch from mars", "fetch"),
            "--source",
            "mars",
            "--from-fixture",
            str(kg_fixture_dir),
            "--out",
            str(tmp_path),
        )
        assert code == 2

    def test_fixture_endpoint_is_rebuilt_checked(
        self, tmp_path, kg_fixture_dir, monkeypatch, capsys
    ):
        """--from-fixture rebuilds the endpoint through the constructor, so a
        record that skipped its checks through `_replace` is rejected."""
        from kgdiv import config

        unchecked = config.DEFAULT_ENDPOINTS["en-dbpedia"]._replace(page_size=0)
        monkeypatch.setitem(config.DEFAULT_ENDPOINTS, "en-dbpedia", unchecked)
        out = tmp_path / "snap"
        assert run_cli(*fetch_args(out, kg_fixture_dir)) == 1
        assert "page_size must be >= 1" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_unreachable_endpoint_leaves_no_partials(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "KGDIV_ENDPOINT_EN_DBPEDIA", "http://127.0.0.1:1/en-dbpedia/sparql"
        )
        out = tmp_path / "snap"
        code = run_cli("fetch", "--source", "en-dbpedia", "--out", str(out))
        assert code == 1
        assert not list(out.glob("*.csv"))
        assert not list(out.glob("*.tmp"))

    def test_all_dialects_fetch(self, tmp_path, kg_fixture_dir):
        for source in ("en-dbpedia", "nl-dbpedia", "wikidata"):
            out = tmp_path / source
            assert run_cli(*fetch_args(out, kg_fixture_dir, source)) == 0
            assert (out / "politicians.csv").exists()
            assert (out / "parties.csv").exists()

    def test_fixture_without_manifest_gives_unstamped_rows(
        self, tmp_path, fixture_dir, kg_fixture_dir, capsys
    ):
        fixture = tmp_path / "kg"
        shutil.copytree(kg_fixture_dir, fixture)
        (fixture / "manifest.json").unlink()
        snap = tmp_path / "snap"
        assert run_cli(*fetch_args(snap, fixture)) == 0
        for name in ("politicians.csv", "parties.csv"):
            with open(snap / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            assert rows
            assert {row["retrieved_at"] for row in rows} == {""}
        # no stamp is made up, so the audit asks for the date to cap careers at
        capsys.readouterr()
        assert run_cli(*audit_args(snap, tmp_path / "audit", fixture_dir)) == 1
        assert "--today" in capsys.readouterr().err
        argv = [*audit_args(snap, tmp_path / "audit", fixture_dir), "--today", "2022-05-27"]
        assert run_cli(*argv) == 0
        assert (tmp_path / "audit" / "audit_kvv.csv").read_bytes() == (
            GOLDEN / "audit_en" / "audit_kvv.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "name, text",
        [
            ("manifest.json", "[1]"),
            ("manifest.json", '{"retrieved_at": 5}'),
            ("manifest.json", "{"),
            ("manifest.json", '{"retrieved_at": "2022-13-01"}'),
            ("manifest.json", '{"retrieved_at": "2022-W21-5"}'),
            ("manifest.json", '{"retrieved_at": {%s}}' % ", ".join(f'"{k}": 1' for k in range(10))),
            ("en-dbpedia/politicians.json", '{"bindings": []}'),
            ("en-dbpedia/politicians.json", "[]"),
            ("en-dbpedia/politicians.json", '{"variables": [1], "bindings": []}'),
            ("en-dbpedia/politicians.json", '{"variables": ["politician"]}'),
            (
                "en-dbpedia/politicians.json",
                '{"variables": ["politician"], "synthetic": {"count": 2, '
                '"binding": {"politician": "http://x/p{n}"}}}',
            ),
            (
                "en-dbpedia/politicians.json",
                '{"variables": ["politician"], "synthetic": {"count": "x", '
                '"binding": {"politician": {"type": "uri", "value": "http://x/p{n}"}}}}',
            ),
            (
                "en-dbpedia/politicians.json",
                '{"variables": ["politician"], "synthetic": {"count": -1, '
                '"binding": {"politician": {"type": "uri", "value": "http://x/p{n}"}}}}',
            ),
            ("en-dbpedia/parties.json", '{"variables": ["party"], "synthetic": []}'),
            # the default page is 1000 rows, so the store meets these late
            ("en-dbpedia/politicians.json", POLITICIANS_1500.replace('"http://x/p1200"', "x", 1)),
            ("en-dbpedia/politicians.json", POLITICIANS_1500 + ' {"x": 1}'),
        ],
        ids=[
            "manifest-a-list",
            "manifest-stamp-a-number",
            "manifest-not-json",
            "manifest-stamp-not-a-date",
            "manifest-stamp-a-week-date",
            "manifest-stamp-an-object-of-ten-keys",
            "dataset-without-variables",
            "dataset-a-list",
            "variables-not-strings",
            "dataset-without-bindings",
            "synthetic-term-a-string",
            "synthetic-count-a-string",
            "synthetic-count-negative",
            "synthetic-not-an-object",
            "bad-element-in-a-later-page",
            "extra-data-after-the-document",
        ],
    )
    def test_malformed_fixture_is_a_clean_error(
        self, tmp_path, kg_fixture_dir, capsys, name, text
    ):
        fixture = tmp_path / "kg"
        shutil.copytree(kg_fixture_dir, fixture)
        (fixture / name).write_text(text, encoding="utf-8")
        out = tmp_path / "snap"
        assert run_cli(*fetch_args(out, fixture)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(fixture / name) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_comma_before_a_byte_not_utf8_words_the_whole_file(
        self, tmp_path, kg_fixture_dir, capsys
    ):
        # the comma is missed first, and the fault is worded as in the whole
        # file read at once: the byte that does not decode
        fixture = tmp_path / "kg"
        shutil.copytree(kg_fixture_dir, fixture)
        data = POLITICIANS_1500.replace('}}, {"politician"', '}} \xff{"politician"', 1)
        dataset = fixture / "en-dbpedia" / "politicians.json"
        dataset.write_bytes(data.encode("latin-1"))
        out = tmp_path / "snap"
        assert run_cli(*fetch_args(out, fixture)) == 1
        assert capsys.readouterr().err == (
            f"error: fixture file {dataset} is not JSON: 'utf-8' codec can't decode byte 0xff"
            f" in position {data.index(chr(0xFF))}: invalid start byte\n"
        )
        assert not out.exists()

    def test_source_choices_are_the_dialects(self):
        # kgdiv.DIALECTS, which sparql binds too, so parsing imports no sparql code
        from kgdiv.cli import build_parser
        from kgdiv.sparql import DIALECTS

        fetch_parser = build_parser()._subparsers._group_actions[0].choices["fetch"]
        (source,) = [a for a in fetch_parser._actions if a.dest == "source"]
        assert tuple(source.choices) == DIALECTS

    def test_nl_dbpedia_party_workaround_produces_rows(self, tmp_path, kg_fixture_dir):
        out = tmp_path / "nl"
        assert run_cli(*fetch_args(out, kg_fixture_dir, "nl-dbpedia")) == 0
        lines = (out / "parties.csv").read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) > 1

    def test_a_failing_parties_query_leaves_the_earlier_snapshot(
        self, tmp_path, kg_fixture_dir, capsys
    ):
        # the parties are fetched once politicians.csv.tmp is written
        fixture = tmp_path / "kg"
        shutil.copytree(kg_fixture_dir, fixture)
        (fixture / "en-dbpedia" / "parties.json").write_text(
            '{"variables": ["party"], "bindings": [{"party": {"type": "wat", "value": "x"}}]}',
            encoding="utf-8",
        )
        out = tmp_path / "snap"
        out.mkdir()
        (out / "politicians.csv").write_text("earlier", encoding="utf-8")
        assert run_cli(*fetch_args(out, fixture)) == 1
        assert capsys.readouterr().err == (
            "error: template parties, page at offset 0: unknown binding kind 'wat'\n"
        )
        assert [p.name for p in out.iterdir()] == ["politicians.csv"]
        assert (out / "politicians.csv").read_text(encoding="utf-8") == "earlier"

    def test_an_output_name_taken_by_a_directory_leaves_the_earlier_snapshot(
        self, tmp_path, kg_fixture_dir, capsys
    ):
        # politicians.csv.tmp is written before parties.csv is found taken
        out = tmp_path / "snap"
        (out / "parties.csv").mkdir(parents=True)
        (out / "parties.csv" / "keep").write_text("kept", encoding="utf-8")
        (out / "politicians.csv").write_text("earlier", encoding="utf-8")
        assert run_cli(*fetch_args(out, kg_fixture_dir)) == 1
        assert capsys.readouterr().err == f"error: output {out / 'parties.csv'} is a directory\n"
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
            "parties.csv",
            "parties.csv/keep",
            "politicians.csv",
        ]
        assert (out / "politicians.csv").read_text(encoding="utf-8") == "earlier"
        assert (out / "parties.csv" / "keep").read_text(encoding="utf-8") == "kept"

    def test_peak_follows_the_distinct_keys(self, tmp_path, capsys):
        # fetch keeps one NUL-joined key per distinct row while the rows
        # stream to the file: its traced peak is about 1.6 times the keys'
        # size; a page of parsed rows, every distinct row and the fetched
        # tuples, each held whole, peaked at about 3.5 times
        import kgdiv.catalog
        import kgdiv.config
        import kgdiv.fixtures  # noqa: F401 (imported outside the trace)

        date = "http://www.w3.org/2001/XMLSchema#date"
        bindings = []
        for n in range(20_000):
            binding = {
                "politician": {"type": "uri", "value": f"http://dbpedia.org/resource/P_{n // 2:06d}"},
                "label": {"type": "literal", "value": f"Politician {n // 2}", "xml:lang": "en"},
                "party": {"type": "uri", "value": f"http://dbpedia.org/resource/Party_{n % 40}"},
                "start": {"type": "literal", "value": f"{1950 + n % 60}-0{1 + n % 9}-1{n % 10}", "datatype": date},
            }
            if n % 3 == 0:
                binding["end"] = {"type": "literal", "value": f"{1960 + n % 60}-12-31", "datatype": date}
            bindings.append(binding)
            if n % 10 == 0:
                bindings.append(binding)  # a repeat
        fixture = tmp_path / "kg"
        (fixture / "en-dbpedia").mkdir(parents=True)
        variables = ["politician", "label", "party", "start", "end", "death", "position"]
        (fixture / "en-dbpedia" / "politicians.json").write_text(
            json.dumps({"variables": variables, "bindings": bindings}), encoding="utf-8"
        )
        (fixture / "en-dbpedia" / "parties.json").write_text(
            '{"variables": ["party", "label", "country", "alignment"], "bindings": []}',
            encoding="utf-8",
        )
        del bindings, binding
        out = tmp_path / "snap"
        tracemalloc.start()
        try:
            code = run_cli(*fetch_args(out, fixture))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out.startswith("wrote 20000 politician rows and 0 party rows")
        with open(out / "politicians.csv", newline="", encoding="utf-8") as fh:
            keys = {"\0".join(row[1:8]) for row in list(csv.reader(fh))[1:]}
        assert len(keys) == 20_000
        assert peak < 2.5 * sum(map(sys.getsizeof, keys))


def unstamped_snapshot(snapshot: Path) -> Path:
    """The golden snapshot's politicians with their retrieved_at stamps blanked."""
    snapshot.mkdir()
    with open(GOLDEN / "snapshot_en" / "politicians.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(snapshot / "politicians.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows({**row, "retrieved_at": ""} for row in rows)
    return snapshot


class TestAudit:
    def test_matches_golden(self, tmp_path, fixture_dir):
        out = tmp_path / "audit"
        code = run_cli(*audit_args(GOLDEN / "snapshot_en", out, fixture_dir))
        assert code == 0
        for name in ("audit_kvv.csv", "coverage_kvv.csv", "findings.csv"):
            assert (out / name).read_bytes() == (
                GOLDEN / "audit_en" / name
            ).read_bytes()

    def test_inverted_interval_reported_but_audit_proceeds(
        self, tmp_path, fixture_dir
    ):
        out = tmp_path / "audit"
        code = run_cli(*audit_args(GOLDEN / "snapshot_en", out, fixture_dir))
        assert code == 0
        findings = (out / "findings.csv").read_text(encoding="utf-8")
        assert "inverted-interval" in findings
        assert (out / "audit_kvv.csv").exists()

    def test_unstamped_snapshot_needs_today(self, tmp_path, fixture_dir, capsys):
        snapshot = unstamped_snapshot(tmp_path / "snap")

        assert run_cli(*audit_args(snapshot, tmp_path / "refused", fixture_dir)) == 1
        assert "--today" in capsys.readouterr().err

        digests = []
        for run in ("first", "second"):
            out = tmp_path / run
            argv = [*audit_args(snapshot, out, fixture_dir), "--today", "2022-05-27"]
            assert run_cli(*argv) == 0
            digests.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert digests[0] == digests[1]
        # the stamp the rows lost, given as --today, audits as the golden run
        assert digests[0]["audit_kvv.csv"] == (GOLDEN / "audit_en" / "audit_kvv.csv").read_bytes()

    @pytest.mark.parametrize(
        "case, code, written",
        [
            ("unstamped", 1, []),
            ("preceding-before-first-election", 1, []),
            ("unknown-body", 2, []),
            # its message names the file, so the refs to review are written
            ("unmapped-over-threshold", 1, ["unmapped_refs.csv"]),
        ],
        ids=["unstamped", "preceding-before-first-election", "unknown-body", "unmapped-over-threshold"],
    )
    def test_failed_audit_writes_no_output(
        self, tmp_path, fixture_dir, capsys, case, code, written
    ):
        snapshot, body = GOLDEN / "snapshot_en", None
        if case == "unstamped":
            snapshot = unstamped_snapshot(tmp_path / "snap")
        elif case == "unknown-body":
            body = "SENATE"
        elif case == "unmapped-over-threshold":
            snapshot = tmp_path / "snap"
            snapshot.mkdir()
            (snapshot / "politicians.csv").write_text(
                "source,politician_id,label,party_id,aff_start,aff_end,death_date,"
                "position,retrieved_at\n"
                "test,p1,P One,UnknownParty,2010-01-01,,,,2022-01-01\n",
                encoding="utf-8",
            )
        out = tmp_path / "out"
        out.mkdir()
        (out / "earlier.txt").write_text("kept", encoding="utf-8")
        assert run_cli(*audit_args(snapshot, out, fixture_dir, body=body)) == code
        if case == "preceding-before-first-election":
            # VP's first recorded election is 1995; the default schedule starts
            # in 1990. The message names the three ways out
            assert capsys.readouterr().err == (
                "error: time point 1990-01-01 precedes the first recorded election "
                "1995-05-21 for body 'VP'; audit the other bodies (--body), use "
                "--baseline-policy closest, or start the --schedule on or after "
                "1995-05-21\n"
            )
        assert sorted(p.name for p in out.iterdir()) == ["earlier.txt", *written]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--today", "2020-13-01"), ("--today", "soon"),
            # an ISO week date and the basic format, which Python 3.11+ would read
            ("--today", "1995-W21-1"), ("--today", "19950521"),
            ("--max-unmapped", "-1"), ("--max-unmapped", "x"),
        ],
    )
    def test_bad_flag_value_is_usage_error(self, tmp_path, fixture_dir, capsys, flag, value):
        out = tmp_path / "out"
        argv = [*audit_args(GOLDEN / "snapshot_en", out, fixture_dir), flag, value]
        assert run_cli(*argv) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_missing_baseline_is_config_error(self, tmp_path, fixture_dir):
        code = run_cli(
            "audit",
            "--snapshot",
            str(GOLDEN / "snapshot_en"),
            "--baseline",
            str(tmp_path / "nope.csv"),
            "--map",
            str(fixture_dir / "map.csv"),
            "--parties",
            str(fixture_dir / "parties.csv"),
            "--out",
            str(tmp_path / "out"),
        )
        assert code == 2

    def test_missing_snapshot_is_config_error(self, tmp_path, fixture_dir):
        code = run_cli(*audit_args(tmp_path / "empty", tmp_path / "out", fixture_dir))
        assert code == 2

    def test_unmapped_over_threshold_fails(self, tmp_path, fixture_dir):
        snapshot = tmp_path / "snap"
        snapshot.mkdir()
        (snapshot / "politicians.csv").write_text(
            "source,politician_id,label,party_id,aff_start,aff_end,death_date,"
            "position,retrieved_at\n"
            "test,p1,P One,UnknownParty,2010-01-01,,,,2022-01-01\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = run_cli(*audit_args(snapshot, out, fixture_dir))
        assert code == 1
        review = (out / "unmapped_refs.csv").read_text(encoding="utf-8")
        assert "UnknownParty" in review

    def test_unmapped_threshold_can_be_raised(self, tmp_path, fixture_dir):
        snapshot = tmp_path / "snap"
        snapshot.mkdir()
        (snapshot / "politicians.csv").write_text(
            "source,politician_id,label,party_id,aff_start,aff_end,death_date,"
            "position,retrieved_at\n"
            "test,p1,P One,UnknownParty,2010-01-01,,,,2022-01-01\n"
            "test,p2,P Two,N-VA,2010-01-01,,,,2022-01-01\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = run_cli(
            *audit_args(snapshot, out, fixture_dir), "--max-unmapped", "5"
        )
        assert code == 0

    def test_inputs_not_mutated(self, tmp_path, fixture_dir):
        digests = {}
        inputs = [
            GOLDEN / "snapshot_en" / "politicians.csv",
            fixture_dir / "baselines.csv",
            fixture_dir / "map.csv",
            fixture_dir / "parties.csv",
        ]
        for path in inputs:
            digests[path] = hashlib.sha256(path.read_bytes()).hexdigest()
        run_cli(*audit_args(GOLDEN / "snapshot_en", tmp_path / "out", fixture_dir))
        for path, digest in digests.items():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_schedule_entries_naming_one_day_are_one_time_point(
        self, tmp_path, fixture_dir, caplog
    ):
        outputs, warnings = {}, {}
        for schedule in ("2011", "2011,2011-01-01"):
            caplog.clear()
            out = tmp_path / schedule.replace(",", "_")
            argv = audit_args(GOLDEN / "snapshot_en", out, fixture_dir, body=None)
            assert run_cli(*argv, "--schedule", schedule) == 0
            outputs[schedule] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            warnings[schedule] = [r.getMessage() for r in caplog.records]
        assert outputs["2011,2011-01-01"] == outputs["2011"]
        assert warnings["2011,2011-01-01"] == warnings["2011"]
        assert len(warnings["2011"]) == 1

    def test_all_bodies_match_single_body_runs(self, tmp_path, fixture_dir):
        snapshot = GOLDEN / "snapshot_en"
        # closest: VP's first election comes after the 1990 time point
        policy = ("--baseline-policy", "closest")
        every = tmp_path / "every"
        assert run_cli(*audit_args(snapshot, every, fixture_dir, body=None), *policy) == 0
        for body in ("KVV", "VP"):
            single = tmp_path / body
            assert run_cli(*audit_args(snapshot, single, fixture_dir, body), *policy) == 0
            for name in (f"audit_{body.lower()}.csv", f"coverage_{body.lower()}.csv"):
                assert (every / name).read_bytes() == (single / name).read_bytes()
        assert (every / "audit_kvv.csv").read_bytes() != (
            every / "audit_vp.csv"
        ).read_bytes()

    def test_one_pass_per_source(self, tmp_path, fixture_dir, monkeypatch):
        import kgdiv.audit

        # the golden snapshot again under a second source, minus one politician
        with open(GOLDEN / "snapshot_en" / "politicians.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        dropped = rows[0]["politician_id"]
        rows += [
            {**row, "source": "wikidata"}
            for row in rows
            if row["politician_id"] != dropped
        ]
        snapshot = tmp_path / "snap"
        snapshot.mkdir()
        with open(snapshot / "politicians.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        per_source = Counter(row["source"] for row in rows)
        politicians = {
            source: len({row["politician_id"] for row in rows if row["source"] == source})
            for source in per_source
        }

        # one read walks the rows once, into one career per politician and source
        walked, careers = Counter(), []
        real = kgdiv.audit.read_snapshot

        def counting(politician_rows, *args):
            def walk():
                for row in politician_rows:
                    walked[row[0]] += 1
                    yield row

            snapshot = real(walk(), *args)
            careers.append({source: len(by_pid) for source, by_pid in snapshot.careers.items()})
            return snapshot

        monkeypatch.setattr(kgdiv.audit, "read_snapshot", counting)
        schedule = ",".join(str(year) for year in range(1996, 2022, 2))
        argv = audit_args(snapshot, tmp_path / "out", fixture_dir, body=None)
        assert run_cli(*argv, "--schedule", schedule) == 0
        assert walked == per_source
        assert careers == [politicians]


    def test_each_date_read_once(self, tmp_path, fixture_dir, monkeypatch):
        import kgdiv.audit

        with open(GOLDEN / "snapshot_en" / "politicians.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # a partial date twice and another once
        partial = {"1985", "2010-06"}
        rows[0]["aff_start"] = rows[2]["aff_start"] = "1985"
        rows[1]["aff_end"] = "2010-06"
        snapshot = tmp_path / "snap"
        snapshot.mkdir()
        with open(snapshot / "politicians.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        calls = Counter()
        real = kgdiv.audit._row_date

        def counting(raw, *args):
            calls[raw] += 1
            return real(raw, *args)

        monkeypatch.setattr(kgdiv.audit, "_row_date", counting)
        assert run_cli(*audit_args(snapshot, tmp_path / "out", fixture_dir)) == 0
        cells = Counter(
            row[column]
            for row in rows
            for column in ("aff_start", "aff_end", "death_date", "retrieved_at")
        )
        # one call per distinct empty or full ISO value; a partial date is
        # read per cell, since its reading depends on the column
        assert calls == {raw: n if raw in partial else 1 for raw, n in cells.items()}

    def test_override_after_death_fails_and_writes_nothing(
        self, tmp_path, fixture_dir, capsys
    ):
        overrides = tmp_path / "overrides.csv"
        overrides.write_text(
            "politician_id,career_end\nhttp://dbpedia.org/resource/Carla_Maes,2017-01-01\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        argv = [
            *audit_args(GOLDEN / "snapshot_en", out, fixture_dir),
            "--overrides",
            str(overrides),
        ]
        assert run_cli(*argv) == 1
        assert (
            "error: career end override 2017-01-01 after death 2016-03-02 for "
            "'http://dbpedia.org/resource/Carla_Maes'\n"
        ) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, rows, message",
        [
            ("--baseline", "KVV,2019-05-26,N-VA,25,150\nKVV,2019-05-26,CD&V,x,150\n",
             "line 3: seats 'x' is not an integer"),
            ("--baseline", "KVV,2019-05-26,N-VA,25,15O\n",
             "line 2: total_seats '15O' is not an integer"),
            ("--baseline", "KVV,2019-5-26,N-VA,25,150\n",
             "line 2: election_date '2019-5-26' is not an ISO date"),
            ("--baseline", "KVV,2019-05-26,N-VA,25,150\nKVV,2019-05-26,CD&V,12,124\n",
             "line 3: inconsistent total_seats for KVV 2019-05-26: 150 vs 124"),
            ("--baseline", "KVV,1995-W21-1,N-VA,25,150\n",
             "line 2: election_date '1995-W21-1' is not an ISO date"),
            ("--overrides", "p1,2019-12-01\np2,2019-13-01\n",
             "line 3: career_end '2019-13-01' is not an ISO date"),
            ("--overrides", "p1,19950521\n", "line 2: career_end '19950521' is not an ISO date"),
        ],
        ids=[
            "seats", "total-seats", "election-date", "inconsistent-total", "week-date",
            "career-end", "basic-format",
        ],
    )
    def test_bad_baseline_or_override_cell_names_file_and_line(
        self, tmp_path, fixture_dir, capsys, flag, rows, message
    ):
        if flag == "--baseline":
            bad = tmp_path / "baselines.csv"
            header = "body,election_date,canonical_acronym,seats,total_seats\n"
        else:
            bad = tmp_path / "overrides.csv"
            header = "politician_id,career_end\n"
        bad.write_text(header + rows, encoding="utf-8")
        out = tmp_path / "out"
        argv = audit_args(GOLDEN / "snapshot_en", out, fixture_dir)
        if flag in argv:
            argv[argv.index(flag) + 1] = str(bad)
        else:
            argv += [flag, str(bad)]
        assert run_cli(*argv) == 1
        assert f"error: {bad} {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bodies, message",
        [
            (("KVV", "kvv"), "bodies 'KVV', 'kvv' map to the same output file audit_kvv.csv"),
            (("KVV", "K/V"), "body 'K/V' holds a path separator or NUL"),
            (("KVV", "K\\V"), "body 'K\\\\V' holds a path separator or NUL"),
            (("KVV", "K\0V"), "body 'K\\x00V' holds a path separator or NUL"),
        ],
        ids=["case-clash", "slash", "backslash", "nul"],
    )
    def test_body_that_cannot_name_its_own_files_is_rejected(
        self, tmp_path, fixture_dir, capsys, bodies, message
    ):
        header, *rows = (fixture_dir / "baselines.csv").read_text(encoding="utf-8").splitlines(
            keepends=True
        )
        kvv = [row.removeprefix("KVV") for row in rows if row.startswith("KVV,")]
        baselines = tmp_path / "baselines.csv"
        baselines.write_text(
            header + "".join(body + row for body in bodies for row in kvv), encoding="utf-8"
        )
        out = tmp_path / "out"
        argv = audit_args(GOLDEN / "snapshot_en", out, fixture_dir, body=None)
        argv[argv.index("--baseline") + 1] = str(baselines)
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        if "\0" in bodies[1] and sys.version_info < (3, 11):
            # the csv module reads no NUL before Python 3.11
            message = f"line {len(kvv) + 2}: line contains NUL"
            assert f"error: {baselines} {message}\n" in err
        else:
            assert f"error: baselines file {baselines}: {message}" in err
        assert not out.exists()


# Python 3.11+ reads an ISO week date and the basic format as dates, 3.10
# does not; every date input accepts YYYY-MM-DD only, on every Python. A
# year is four ASCII digits: int() also reads other decimal digits, an
# underscore between digits and a sign. A snapshot's year or year-month
# must name a real month of a year from 1 on
@pytest.mark.parametrize(
    "value",
    [
        "1995-W21-1", "19950521", "\u0661\u0669\u0669\u0660", "\uff11\uff19\uff19\uff10",
        "1_99", "+123", "1985-13", "1985-00", "0000", "2020-13-01",
    ],
)
@pytest.mark.parametrize("given", ["snapshot", "schedule", "audit-csv"])
def test_dates_other_than_year_month_day_are_rejected(tmp_path, fixture_dir, capsys, given, value):
    out = tmp_path / "out"
    if given == "snapshot":
        shutil.copytree(GOLDEN / "snapshot_en", tmp_path / "snap")
        politicians = tmp_path / "snap" / "politicians.csv"
        politicians.write_text(
            politicians.read_text(encoding="utf-8").replace("1985-01-08", value, 1),
            encoding="utf-8",
        )
        argv = ["validate", "--snapshot", str(tmp_path / "snap")]
        code, message = 1, f"aff_start {value!r} is not an ISO date"
    elif given == "schedule":
        argv = [*audit_args(GOLDEN / "snapshot_en", out, fixture_dir), "--schedule", value]
        code, message = 2, f"bad schedule entry {value!r}"
    else:
        series = tmp_path / "audit.csv"
        golden = (GOLDEN / "audit_en" / "audit_kvv.csv").read_text(encoding="utf-8")
        series.write_text(golden.replace("1990-01-01", value, 1), encoding="utf-8")
        argv = ["report", "--audit", str(series), "--out", str(out)]
        code, message = 1, f"row 2: {value!r} is not a YYYY-MM-DD date"
    assert run_cli(*argv) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "audit"])
def test_bad_snapshot_date_names_file_and_row(tmp_path, fixture_dir, capsys, command):
    snapshot = tmp_path / "snap"
    shutil.copytree(GOLDEN / "snapshot_en", snapshot)
    politicians = snapshot / "politicians.csv"
    with open(politicians, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[3]["aff_start"] = "1985-1x-01"
    with open(politicians, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    out = tmp_path / "out"
    if command == "validate":
        argv = ["validate", "--snapshot", str(snapshot), "--out", str(out)]
    else:
        argv = audit_args(snapshot, out, fixture_dir)
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {politicians} row 4: aff_start '1985-1x-01' is not an ISO date\n"
    )
    assert not out.exists()


def test_field_over_the_csv_size_limit_names_file_and_line(tmp_path, capsys):
    snapshot = tmp_path / "snap"
    shutil.copytree(GOLDEN / "snapshot_en", snapshot)
    politicians = snapshot / "politicians.csv"
    politicians.write_text(
        politicians.read_text(encoding="utf-8").replace("An Peeters", "A" * 200_000, 1),
        encoding="utf-8",
    )
    assert run_cli("validate", "--snapshot", str(snapshot)) == 1
    assert f"error: {politicians} line 2: field larger than field limit" in (
        capsys.readouterr().err
    )


RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
DBO = "http://dbpedia.org/ontology/"
WDT = "http://www.wikidata.org/prop/direct/"
WD = "http://www.wikidata.org/entity/"


class TestScore:
    def test_hand_computed_deltas(self, tmp_path, fixture_dir):
        out = tmp_path / "score"
        code = run_cli(
            "score",
            "--corpus",
            str(fixture_dir / "corpus"),
            "--rules",
            str(fixture_dir / "rules.csv"),
            "--triples",
            str(fixture_dir / "triples.csv"),
            "--out",
            str(out),
        )
        assert code == 0
        lines = (out / "scores.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "doc_id,n_entities,delta"
        # batch outputs follow corpus order
        assert [line.split(",")[0] for line in lines[1:]] == ["doc1", "doc2", "doc3"]
        by_doc = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        # two disjoint-feature entities with equal counts and alpha=beta=1
        assert by_doc["doc1"][1] == "2"
        assert float(by_doc["doc1"][2]) == pytest.approx(0.5, abs=1e-12)
        assert by_doc["doc2"][1] == "0"
        assert float(by_doc["doc2"][2]) == 0.0
        # counts 2:1 -> 2 * 1 * (2/3 * 1/3)
        assert float(by_doc["doc3"][2]) == pytest.approx(4 / 9, abs=1e-12)

    def test_counts_in_text_that_is_not_ascii_equal_the_oracle(self, tmp_path):
        # ß folds to ss, İ to i plus a dot that the fold drops, and the
        # Kelvin sign to k: in these texts case-insensitive spans are
        # decided by the rules' regexes, not by the ASCII shortcut
        from kgdiv.pipeline import TextDocument, aggregate_mentions, load_rules
        from tests import oracles

        texts = {
            "d1": "STRASSE en Straße, strasse; İstanbul en istanbul",
            "d2": "\u212aIM kim KIM en Kim in de straße",
            "d3": "plain ascii kim and Istanbul",
        }
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for doc_id, text in texts.items():
            (corpus / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        rules = tmp_path / "rules.csv"
        rules.write_text(
            "pattern,case_sensitive,target\n"
            "straße,false,u:street\nstrasse,false,\nistanbul,false,u:ist\n"
            "İstanbul,false,u:ist\nkim,false,u:kim\n\u212aim,false,\nKIM,true,u:kim\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run_cli("score", "--corpus", str(corpus), "--rules", str(rules), "--out", str(out)) == 0
        loaded = load_rules(rules)
        expected = [["doc_id", "entity_id", "count"]]
        for doc_id, text in texts.items():
            counts = aggregate_mentions(oracles.match_rules(TextDocument(doc_id, text), loaded))
            expected += [[doc_id, key, str(counts[key])] for key in sorted(counts)]
        with open(out / "entity_counts.csv", newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == expected
        assert len(expected) > 8

    @pytest.mark.parametrize(
        "type_party, ideology",
        [
            (f"{RDF_TYPE},{DBO}PoliticalParty", f"{DBO}ideology"),
            (f"{WDT}P31,{WD}Q7278", f"{WDT}P1142"),
        ],
        ids=["dbpedia", "wikidata"],
    )
    def test_iri_triples_score_as_the_bare_names(
        self, tmp_path, fixture_dir, type_party, ideology
    ):
        bare = (fixture_dir / "triples.csv").read_text(encoding="utf-8")
        iri = bare.replace(",type,party\n", f",{type_party}\n")
        iri = iri.replace(",ideology,", f",{ideology},")
        assert ",type," not in iri and ",ideology," not in iri
        (tmp_path / "triples.csv").write_text(iri, encoding="utf-8")
        outputs = {}
        for name, triples in (("bare", fixture_dir), ("iri", tmp_path)):
            argv = ["score", "--corpus", str(fixture_dir / "corpus")]
            argv += ["--rules", str(fixture_dir / "rules.csv")]
            argv += ["--triples", str(triples / "triples.csv"), "--out", str(tmp_path / name)]
            assert run_cli(*argv) == 0
            outputs[name] = [
                (tmp_path / name / csv).read_bytes()
                for csv in ("scores.csv", "entity_counts.csv")
            ]
        assert outputs["iri"] == outputs["bare"]
        assert b"doc1,2,0.5\n" in outputs["iri"][0]

    def test_each_id_enriched_once(self, tmp_path, fixture_dir, monkeypatch):
        import kgdiv.pipeline

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, text in (
            ("doc1", "N-VA en CD&V"),
            ("doc2", "N-VA wint"),
            ("doc3", "N-VA, N-VA en cd&v"),
        ):
            (corpus / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        argv = [
            "score",
            "--corpus",
            str(corpus),
            "--rules",
            str(fixture_dir / "rules.csv"),
            "--triples",
            str(fixture_dir / "triples.csv"),
        ]
        assert run_cli(*argv, "--out", str(tmp_path / "plain")) == 0

        calls: list[str] = []
        real_enrich = kgdiv.pipeline.enrich_entity

        def counting_enrich(root_id, triples, ontology):
            calls.append(root_id)
            return real_enrich(root_id, triples, ontology)

        # cmd_score imports enrich_entity from kgdiv.pipeline on each run
        monkeypatch.setattr(kgdiv.pipeline, "enrich_entity", counting_enrich)
        assert run_cli(*argv, "--out", str(tmp_path / "counted")) == 0
        res = "http://dbpedia.org/resource/"
        assert sorted(calls) == [
            f"{res}Christen-Democratisch_en_Vlaams",
            f"{res}New_Flemish_Alliance",
        ]
        for name in ("scores.csv", "entity_counts.csv"):
            assert (tmp_path / "counted" / name).read_bytes() == (
                tmp_path / "plain" / name
            ).read_bytes()
        lines = (tmp_path / "counted" / "scores.csv").read_text().splitlines()
        by_doc = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        # disjoint features: 1:1 -> 0.5, a single actor -> 0, 2:1 -> 4/9
        assert float(by_doc["doc1"][2]) == pytest.approx(0.5, abs=1e-12)
        assert float(by_doc["doc2"][2]) == 0.0
        assert float(by_doc["doc3"][2]) == pytest.approx(4 / 9, abs=1e-12)

    def test_annotator_mentions_filtered_by_actor_type(self, tmp_path):
        self.check_actor_type_filter(tmp_path, "type", "person", "building")

    @pytest.mark.parametrize(
        "type_, person, building",
        [
            (RDF_TYPE, f"{DBO}Politician", f"{DBO}Building"),
            (f"{WDT}P31", f"{WD}Q5", f"{WD}Q41176"),
        ],
        ids=["dbpedia", "wikidata"],
    )
    def test_annotator_mentions_typed_by_iri_filtered_alike(
        self, tmp_path, type_, person, building
    ):
        self.check_actor_type_filter(tmp_path, type_, person, building)

    @staticmethod
    def check_actor_type_filter(tmp_path, type_, person, building):
        """Score two annotator mentions, one of a resource of class `person`
        and one of class `building`, both typed through `type_`."""
        import json
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        text = "Jan bezoekt het Atomium"
        (corpus / "doc1.txt").write_text(text + "\n", encoding="utf-8")
        triples = tmp_path / "triples.csv"
        triples.write_text(
            "subject,predicate,object\n"
            f"http://x/jan,{type_},{person}\n"
            f"http://x/landmark,{type_},{building}\n",
            encoding="utf-8",
        )
        payload = json.dumps(
            {
                "Resources": [
                    {"@URI": "http://x/jan", "@surfaceForm": "Jan", "@offset": "0"},
                    {
                        "@URI": "http://x/landmark",
                        "@surfaceForm": "Atomium",
                        "@offset": str(text.index("Atomium")),
                    },
                ]
            }
        ).encode()

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        out = tmp_path / "score"
        try:
            code = run_cli(
                "score",
                "--corpus",
                str(corpus),
                "--triples",
                str(triples),
                "--nel-endpoint",
                f"http://127.0.0.1:{server.server_address[1]}/rest/annotate",
                "--out",
                str(out),
            )
        finally:
            server.shutdown()
            server.server_close()
        assert code == 0
        counts = (out / "entity_counts.csv").read_text(encoding="utf-8")
        # the person survives the actor-type filter, the building does not
        assert "http://x/jan" in counts
        assert "http://x/landmark" not in counts

    def test_nel_degrades_without_require_flag(self, tmp_path, fixture_dir):
        out = tmp_path / "score"
        code = run_cli(
            "score",
            "--corpus",
            str(fixture_dir / "corpus"),
            "--rules",
            str(fixture_dir / "rules.csv"),
            "--nel-endpoint",
            "http://127.0.0.1:1/rest/annotate",
            "--out",
            str(out),
        )
        assert code == 0
        assert (out / "scores.csv").exists()

    def test_require_nel_fails_hard(self, tmp_path, fixture_dir):
        code = run_cli(
            "score",
            "--corpus",
            str(fixture_dir / "corpus"),
            "--rules",
            str(fixture_dir / "rules.csv"),
            "--nel-endpoint",
            "http://127.0.0.1:1/rest/annotate",
            "--require-nel",
            "--out",
            str(tmp_path / "score"),
        )
        assert code == 1

    def test_alpha_beta_flags(self, tmp_path, fixture_dir):
        out = tmp_path / "score"
        code = run_cli(
            "score",
            "--corpus",
            str(fixture_dir / "corpus"),
            "--rules",
            str(fixture_dir / "rules.csv"),
            "--triples",
            str(fixture_dir / "triples.csv"),
            "--alpha",
            "0",
            "--beta",
            "1",
            "--out",
            str(out),
        )
        assert code == 0
        lines = (out / "scores.csv").read_text(encoding="utf-8").strip().splitlines()
        by_doc = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        # alpha=0 with positive disparity reduces to 1 - sum of squares
        assert float(by_doc["doc1"][2]) == pytest.approx(0.5, abs=1e-12)
        assert float(by_doc["doc3"][2]) == pytest.approx(1 - (4 / 9 + 1 / 9), abs=1e-12)

    @pytest.mark.parametrize(
        "flag, header, missing",
        [
            ("--rules", "case_sensitive,match_layer,target\n", "['pattern']"),
            ("--triples", "subject,object\n", "['predicate']"),
        ],
        ids=["rules", "triples"],
    )
    def test_input_without_expected_column_fails_cleanly(
        self, tmp_path, fixture_dir, capsys, flag, header, missing
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text(header, encoding="utf-8")
        argv = [
            "score",
            "--corpus",
            str(fixture_dir / "corpus"),
            "--rules",
            str(fixture_dir / "rules.csv"),
            "--triples",
            str(fixture_dir / "triples.csv"),
            "--out",
            str(tmp_path / "score"),
        ]
        argv[argv.index(flag) + 1] = str(bad)
        assert run_cli(*argv) == 1
        assert f"{bad} lacks expected columns {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            (",true,surface,y", "rule pattern must be nonempty"),
            ("Groen,maybe,surface,y", "cannot parse boolean 'maybe'"),
            ("Groen,true,token,y", "match_layer must be surface or lemma, got 'token'"),
        ],
        ids=["empty-pattern", "case-sensitive", "match-layer"],
    )
    def test_bad_rule_row_names_file_and_line(
        self, tmp_path, fixture_dir, capsys, row, message
    ):
        # the blank third line is skipped but still counted
        bad = tmp_path / "rules.csv"
        bad.write_text(
            f"pattern,case_sensitive,match_layer,target\nN-VA,true,surface,x\n\n{row}\n",
            encoding="utf-8",
        )
        argv = score_args(tmp_path / "score", fixture_dir, "--rules", str(bad))
        assert run_cli(*argv) == 1
        assert f"error: {bad} line 4: {message}" in capsys.readouterr().err

    def test_bom_prefixed_csv_inputs_load(self, tmp_path, fixture_dir):
        """Spreadsheet exports start with a UTF-8 byte-order mark; the rules,
        triples and corpus CSVs score as their BOM-free copies do."""
        corpus_rows = [
            [path.stem, path.read_text(encoding="utf-8")]
            for path in sorted((fixture_dir / "corpus").glob("*.txt"))
        ]
        runs = {}
        for encoding in ("utf-8", "utf-8-sig"):
            inputs = tmp_path / encoding
            inputs.mkdir()
            with open(inputs / "corpus.csv", "w", newline="", encoding=encoding) as fh:
                csv.writer(fh).writerows([["doc_id", "text"], *corpus_rows])
            for name in ("rules.csv", "triples.csv"):
                text = (fixture_dir / name).read_text(encoding="utf-8")
                (inputs / name).write_text(text, encoding=encoding)
            assert (inputs / "rules.csv").read_bytes().startswith(b"\xef\xbb\xbf") == (
                encoding == "utf-8-sig"
            )
            out = inputs / "out"
            argv = ["score", "--corpus", str(inputs / "corpus.csv")]
            argv += ["--rules", str(inputs / "rules.csv"), "--triples", str(inputs / "triples.csv")]
            assert run_cli(*argv, "--out", str(out)) == 0
            runs[encoding] = [(out / n).read_bytes() for n in ("scores.csv", "entity_counts.csv")]
        assert runs["utf-8-sig"] == runs["utf-8"]
        assert b"doc1,2," in runs["utf-8"][0]

    def test_csv_corpus_without_rows_is_config_error(self, tmp_path, fixture_dir, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("doc_id,text\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli("score", "--corpus", str(corpus), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"config error: corpus CSV {corpus} has no documents\n"
        assert not out.exists()

    def test_csv_corpus_repeating_a_doc_id_fails(self, tmp_path, fixture_dir, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("doc_id,text\nd1,N-VA\nd2,CD&V\nd1,Groen\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli(
            "score", "--corpus", str(corpus), "--rules", str(fixture_dir / "rules.csv"),
            "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: corpus CSV {corpus} repeats doc_id 'd1'\n"
        assert not out.exists()

    @pytest.mark.parametrize("failure", ["not-utf8", "repeated-doc-id", "short-row", "require-nel"])
    def test_a_failure_at_the_last_document_leaves_no_output(
        self, tmp_path, fixture_dir, capsys, monkeypatch, failure
    ):
        # 60 documents of two actors each: the counts of the first ones are
        # written to entity_counts.csv.tmp before the last one fails
        import kgdiv.csvformat
        import kgdiv.pipeline

        texts = [f"N-VA en CD&V deel {k}." for k in range(60)]
        argv = ["--rules", str(fixture_dir / "rules.csv"), "--triples", str(fixture_dir / "triples.csv")]
        if failure == "not-utf8":
            corpus = tmp_path / "corpus"
            corpus.mkdir()
            for k, text in enumerate(texts):
                (corpus / f"doc{k:02d}.txt").write_text(text, encoding="utf-8")
            (corpus / "doc59.txt").write_bytes("Caf\u00e9 N-VA".encode("latin-1"))
            message = f"error: {corpus / 'doc59.txt'} is not UTF-8 text: "
        else:
            corpus = tmp_path / "corpus.csv"
            rows = [f"doc{k:02d},{text}\n" for k, text in enumerate(texts)]
            rows[-1] = {"repeated-doc-id": "doc00,N-VA\n", "short-row": "doc59\n"}.get(failure, rows[-1])
            corpus.write_text("doc_id,text\n" + "".join(rows), encoding="utf-8")
            message = {
                "repeated-doc-id": f"error: corpus CSV {corpus} repeats doc_id 'doc00'\n",
                "short-row": f"error: {corpus} line 61: 1 fields where the header has 2\n",
                "require-nel": "error: annotation endpoint returned HTTP 503\n",
            }[failure]
        if failure == "require-nel":
            real = kgdiv.pipeline.annotate

            def failing_last(doc, client):
                if doc.doc_id == "doc59":
                    raise kgdiv.pipeline.AnnotationTransportError(
                        "annotation endpoint returned HTTP 503"
                    )
                return real(doc, client)

            monkeypatch.setattr(kgdiv.pipeline, "annotate", failing_last)
            monkeypatch.setattr(
                kgdiv.pipeline.AnnotationClient, "fetch", lambda self, text: b'{"Resources": []}'
            )
            argv += ["--nel-endpoint", "http://annotator.invalid/rest/annotate", "--require-nel"]
        out = tmp_path / "out"
        out.mkdir()
        written = []
        real_write_csv = kgdiv.csvformat.write_csv

        def recording_write_csv(path, header, rows):
            written.append(path.name)
            return real_write_csv(path, header, rows)

        monkeypatch.setattr(kgdiv.csvformat, "write_csv", recording_write_csv)
        code = run_cli("score", "--corpus", str(corpus), *argv, "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith(message)
        assert written == ["entity_counts.csv.tmp"]
        assert list(out.iterdir()) == []

    def test_peak_follows_a_few_documents_not_the_corpus(self, tmp_path, fixture_dir, capsys):
        # documents of about 40 kB each, read 16 at a time: 120 of them peak
        # no higher than 20 do, less than a document's size apart; holding
        # the corpus put every document's text in the peak
        text = "N-VA wint. CD&V verliest. Het weer blijft grijs. " * 800

        def peak(documents):
            corpus = tmp_path / f"corpus{documents}"
            corpus.mkdir()
            for k in range(documents):
                (corpus / f"doc{k:03d}.txt").write_text(f"{k} {text}", encoding="utf-8")
            argv = score_args(tmp_path / f"out{documents}", fixture_dir)
            argv[argv.index(str(fixture_dir / "corpus"))] = str(corpus)
            argv += ["--rules", str(fixture_dir / "rules.csv"), "--triples", str(fixture_dir / "triples.csv")]
            tracemalloc.start()
            try:
                assert run_cli(*argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(20), peak(120)
        assert capsys.readouterr().out.endswith("scored 120 documents into " f"{tmp_path / 'out120'}\n")
        assert many - few < len(text)


@pytest.mark.parametrize(
    "command, target, text",
    [
        ("audit", "--map", "alias,canonical\nVolksunie,N-VA\n"),
        ("audit", "--baseline", "body,election_date,canonical_acronym,seats\nKVV,2019-05-26,N-VA,25\n"),
        ("audit", "--overrides", "politician_id\np1\n"),
        ("score", "--triples", "subject,predicate,object\ns,p\n"),
        ("score", "--triples", "subject,predicate,object\ns,p,o,extra\n"),
        ("score", "--corpus", "doc_id,text\nd1\n"),
        # a snapshot file gets its row appended
        ("audit", "parties.csv", "en-dbpedia,x\n"),
        ("validate", "politicians.csv", "en-dbpedia\n"),
        ("audit", "politicians.csv", "en-dbpedia\n"),
    ],
    ids=[
        "map-without-column",
        "baseline-without-column",
        "overrides-without-column",
        "short-triples-row",
        "long-triples-row",
        "short-corpus-row",
        "short-parties-row",
        "validate-short-politicians-row",
        "audit-short-politicians-row",
    ],
)
def test_malformed_input_csv_fails_cleanly(tmp_path, fixture_dir, capsys, command, target, text):
    """A CSV that lacks a column or has a row of the wrong width exits 1
    with a message naming the file, and leaves --out empty."""
    snapshot = tmp_path / "snap"
    shutil.copytree(GOLDEN / "snapshot_en", snapshot)
    if target.endswith(".csv"):
        bad = snapshot / target
        text = bad.read_text(encoding="utf-8") + text
    else:
        bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    if command == "audit":
        argv = audit_args(snapshot, out, fixture_dir)
    elif command == "score":
        argv = score_args(out, fixture_dir, "--rules", str(fixture_dir / "rules.csv"))
    else:
        argv = ["validate", "--snapshot", str(snapshot)]
    if target in argv:
        argv[argv.index(target) + 1] = str(bad)
    elif target.startswith("--"):
        argv += [target, str(bad)]
    assert run_cli(*argv) == 1
    assert str(bad) in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command, flag",
    [
        ("audit", "--baseline"),
        ("audit", "--map"),
        ("audit", "--parties"),
        ("audit", "--overrides"),
        ("score", "--rules"),
        ("score", "--triples"),
        ("score", "--config"),
        ("validate", "--map"),
        ("validate", "--parties"),
    ],
)
def test_a_directory_given_as_an_input_file_is_a_config_error(
    tmp_path, fixture_dir, capsys, command, flag
):
    given = tmp_path / "given"
    given.mkdir()
    out = tmp_path / "out"
    nmap = ["--map", str(fixture_dir / "map.csv"), "--parties", str(fixture_dir / "parties.csv")]
    argv = {
        "audit": audit_args(GOLDEN / "snapshot_en", out, fixture_dir),
        "score": score_args(
            out,
            fixture_dir,
            "--rules",
            str(fixture_dir / "rules.csv"),
            "--triples",
            str(fixture_dir / "triples.csv"),
        ),
        "validate": ["validate", "--snapshot", str(GOLDEN / "snapshot_en"), *nmap, "--out", str(out)],
    }[command]
    if flag in argv:
        argv[argv.index(flag) + 1] = str(given)
    else:
        argv += [flag, str(given)]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == (
        f"config error: {flag.lstrip('-')} file {given} is a directory\n"
    )
    assert not out.exists()


#: cell values that real input files hold by mistake: empty and blank
#: cells, NUL, bytes that are not UTF-8, a byte order mark, stray and
#: unclosed quotes, a separator or a line end inside the cell, words that
#: the readers parse, and a long run of a two-byte character
HOSTILE_CELLS = [
    b"", b" ", b"\x00", b"\xff\xfe", b"\xef\xbb\xbf", b'"', b'"unclosed', b'a"b', b'"x"y',
    b"a,b", b"\n", b"\r\n", b"\r", b"lemma", b"surface ", b"maybe", b"FALSE", b"0", b"-1",
    b"nan", b"type", b"party", b"N-VA", b"\xc3\xa9" * 300, b"\\",
]


def csv_cells(path: Path) -> list[list[bytes]]:
    """A CSV file's rows of cells as bytes, its header row first."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [[cell.encode() for cell in row] for row in csv.reader(fh)]


def write_cells(path: Path, rows: list[list[bytes]]) -> None:
    """Write rows of cells that hold no comma, quote or line end of their own."""
    path.write_bytes(b"".join(b",".join(cells) + b"\n" for cells in rows))


def score_input_rows(fixture_dir: Path) -> dict[str, list[list[bytes]]]:
    """The fixture rules, triples and corpus (as a CSV), each a header row
    and data rows of cells; no cell holds a comma, quote or line end."""
    tables = {name: csv_cells(fixture_dir / f"{name}.csv") for name in ("rules", "triples")}
    tables["corpus"] = [[b"doc_id", b"text"]] + [
        [path.stem.encode(), path.read_bytes().strip()]
        for path in sorted((fixture_dir / "corpus").glob("*.txt"))
    ]
    return tables


@given(
    st.sampled_from(["rules", "triples", "corpus"]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(HOSTILE_CELLS),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_score_with_one_hostile_cell_exits_cleanly_naming_the_file(
    tmp_path_factory, fixture_dir, capsys, changed, row, column, value
):
    """score over inputs with one cell changed (any row, the header too)
    exits 0, 1 or 2 with no traceback, and a failure names the file."""
    tables = score_input_rows(fixture_dir)
    cells = tables[changed][row % len(tables[changed])]
    cells[column % len(cells)] = value
    directory = tmp_path_factory.mktemp("hostile")
    paths = {name: directory / f"{name}.csv" for name in tables}
    for name, rows in tables.items():
        write_cells(paths[name], rows)
    code = run_cli(
        "score", "--corpus", str(paths["corpus"]), "--rules", str(paths["rules"]),
        "--triples", str(paths["triples"]), "--out", str(directory / "out"),
    )
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert str(paths[changed]) in err


#: the inputs of validate and audit, and report's audit CSV, each by its
#: name in the directory the hostile-cell property writes
AUDIT_INPUTS = {
    "snapshot/politicians.csv": GOLDEN / "snapshot_en" / "politicians.csv",
    "snapshot/parties.csv": GOLDEN / "snapshot_en" / "parties.csv",
    "map.csv": FIXTURES / "map.csv",
    "parties.csv": FIXTURES / "parties.csv",
    "baselines.csv": FIXTURES / "baselines.csv",
    "audit_kvv.csv": GOLDEN / "audit_en" / "audit_kvv.csv",
}


@given(
    st.sampled_from(sorted(AUDIT_INPUTS)),
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=0, max_value=10),
    st.sampled_from(HOSTILE_CELLS),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_audit_and_report_with_one_hostile_cell_exit_cleanly_naming_the_file(
    tmp_path_factory, capsys, changed, row, column, value
):
    """validate and audit, or report for an audit CSV, over inputs with one
    cell changed (any row, the header too) exit 0, 1 or 2 with no
    traceback. A failure names the changed file, or the file that a
    downstream finding points to: unmapped refs over --max-unmapped name
    unmapped_refs.csv, and an alias that a parties.csv edit orphans names
    its map.csv line."""
    directory = tmp_path_factory.mktemp("hostile")
    (directory / "snapshot").mkdir()
    for name, source in AUDIT_INPUTS.items():
        rows = csv_cells(source)
        if name == changed:
            cells = rows[row % len(rows)]
            cells[column % len(cells)] = value
        write_cells(directory / name, rows)
    out = directory / "out"
    if changed == "audit_kvv.csv":
        runs = [["report", "--audit", str(directory / changed), "--out", str(out)]]
    else:
        nmap = ["--map", str(directory / "map.csv"), "--parties", str(directory / "parties.csv")]
        runs = [
            ["validate", "--snapshot", str(directory / "snapshot"), *nmap],
            audit_args(directory / "snapshot", out, directory),
        ]
    for argv in runs:
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code:
            assert (
                str(directory / changed) in err
                or str(out / "unmapped_refs.csv") in err
                or changed == "parties.csv" and f"{directory / 'map.csv'} line " in err
            ), err


@pytest.mark.parametrize("reader", ["rules", "snapshot", "audit-csv", "corpus-txt"])
def test_input_that_is_not_utf8_names_the_file(tmp_path, fixture_dir, capsys, reader):
    """A Latin-1 input file exits 1 with an error that names it."""
    out = tmp_path / "out"
    if reader == "rules":
        bad = tmp_path / "rules.csv"
        bad.write_bytes("pattern,target\nJos\u00e9,http://x/jose\n".encode("latin-1"))
        argv = score_args(out, fixture_dir, "--rules", str(bad))
    elif reader == "snapshot":
        shutil.copytree(GOLDEN / "snapshot_en", tmp_path / "snap")
        bad = tmp_path / "snap" / "politicians.csv"
        bad.write_bytes(bad.read_text(encoding="utf-8").replace("An Peeters", "Ann\u00e9e").encode("latin-1"))
        argv = ["validate", "--snapshot", str(bad.parent)]
    elif reader == "audit-csv":
        bad = tmp_path / "audit_kvv.csv"
        text = (GOLDEN / "audit_en" / "audit_kvv.csv").read_text(encoding="utf-8")
        bad.write_bytes(text.replace("en-dbpedia", "en-dbp\u00e9dia").encode("latin-1"))
        argv = ["report", "--audit", str(bad), "--out", str(out)]
    else:
        bad = tmp_path / "corpus" / "doc.txt"
        bad.parent.mkdir()
        bad.write_bytes("Caf\u00e9 N-VA".encode("latin-1"))
        argv = ["score", "--corpus", str(bad.parent), "--out", str(out)]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not UTF-8 text: ")
    assert "Traceback" not in err
    assert not out.exists()


class TestReport:
    def test_style_choices_are_the_render_styles(self):
        # the parser spells the styles out so that it need not import report
        from kgdiv.cli import build_parser
        from kgdiv.report import RENDER_STYLES

        report_parser = build_parser()._subparsers._group_actions[0].choices["report"]
        (style,) = [a for a in report_parser._actions if a.dest == "style"]
        assert tuple(style.choices) == RENDER_STYLES

    def test_matches_golden_svg(self, tmp_path):
        out = tmp_path / "fig"
        code = run_cli(
            "report",
            "--audit",
            str(GOLDEN / "audit_en" / "audit_kvv.csv"),
            "--baseline-label",
            "KVV",
            "--out",
            str(out),
        )
        assert code == 0
        assert (out / "figure_en-dbpedia.svg").read_bytes() == (
            GOLDEN / "fig_en" / "figure_en-dbpedia.svg"
        ).read_bytes()

    def test_bom_prefixed_audit_csv_matches_golden_svg(self, tmp_path):
        audit_csv = tmp_path / "audit_kvv.csv"
        audit_csv.write_bytes(b"\xef\xbb\xbf" + (GOLDEN / "audit_en" / "audit_kvv.csv").read_bytes())
        out = tmp_path / "fig"
        code = run_cli("report", "--audit", str(audit_csv), "--baseline-label", "KVV", "--out", str(out))
        assert code == 0
        assert (out / "figure_en-dbpedia.svg").read_bytes() == (
            GOLDEN / "fig_en" / "figure_en-dbpedia.svg"
        ).read_bytes()

    @pytest.mark.parametrize("figure", ["stacked", "placeholder"])
    def test_stacked_and_placeholder_figures_match_golden_svg(self, tmp_path, figure):
        audit_csv = GOLDEN / "audit_en" / "audit_kvv.csv"
        argv = ["--style", "stacked", "--baseline-label", "KVV"]
        name, golden = "figure_en-dbpedia.svg", "figure_en-dbpedia_stacked.svg"
        if figure == "placeholder":
            header = audit_csv.read_bytes().splitlines(keepends=True)[0]
            audit_csv = tmp_path / "audit.csv"
            audit_csv.write_bytes(header)
            argv, name, golden = [], "figure_empty.svg", "figure_empty.svg"
        out = tmp_path / "fig"
        assert run_cli("report", "--audit", str(audit_csv), *argv, "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == [name]
        assert (out / name).read_bytes() == (GOLDEN / "fig_en" / golden).read_bytes()

    def test_stacked_style_selected(self, tmp_path):
        out = tmp_path / "fig"
        code = run_cli(
            "report",
            "--audit",
            str(GOLDEN / "audit_en" / "audit_kvv.csv"),
            "--style",
            "stacked",
            "--out",
            str(out),
        )
        assert code == 0
        data = (out / "figure_en-dbpedia.svg").read_text(encoding="utf-8")
        assert 'data-style="stacked"' in data
        assert "stack-line" in data

    def test_empty_audit_csv_gives_no_data_svg(self, tmp_path):
        audit_csv = tmp_path / "audit.csv"
        audit_csv.write_text(
            "source,time_point,canonical_acronym,alignment,lower_count,"
            "upper_count,lower_share,upper_share,baseline_share,verdict,"
            "active_total\n",
            encoding="utf-8",
        )
        out = tmp_path / "fig"
        code = run_cli("report", "--audit", str(audit_csv), "--out", str(out))
        assert code == 0
        assert "no data" in (out / "figure_empty.svg").read_text(encoding="utf-8")

    def test_malformed_audit_csv_fails_with_diagnostics(self, tmp_path, capsys):
        audit_csv = tmp_path / "audit.csv"
        audit_csv.write_text(
            "source,time_point,canonical_acronym,alignment,lower_count,"
            "upper_count,lower_share,upper_share,baseline_share,verdict,"
            "active_total\n"
            "s,not-a-date,A,left,1,2,0.1,0.2,0.1,over,10\n",
            encoding="utf-8",
        )
        code = run_cli("report", "--audit", str(audit_csv), "--out", str(tmp_path / "f"))
        assert code == 1
        err = capsys.readouterr().err
        assert "row 2" in err

    def test_unknown_alignment_is_a_malformed_row(self, tmp_path, capsys):
        audit_csv = tmp_path / "audit.csv"
        audit_csv.write_text(
            "source,time_point,canonical_acronym,alignment,lower_count,"
            "upper_count,lower_share,upper_share,baseline_share,verdict,"
            "active_total\n"
            "s,2020-01-01,A,left,1,2,0.1,0.2,0.1,indeterminate,10\n"
            "s,2020-01-01,B,sideways,1,2,0.1,0.2,0.1,indeterminate,10\n",
            encoding="utf-8",
        )
        out = tmp_path / "f"
        assert run_cli("report", "--audit", str(audit_csv), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: malformed audit CSV {audit_csv}:\n  row 3: alignment 'sideways' "
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "shares, bad",
        [
            ("0.1,1.500000,0.1", "upper_share '1.500000'"),
            ("-0.1,0.2,0.1", "lower_share '-0.1'"),
            ("0.1,0.2,nan", "baseline_share 'nan'"),
        ],
    )
    def test_share_outside_unit_interval_names_file_and_row(
        self, tmp_path, capsys, shares, bad
    ):
        audit_csv = tmp_path / "audit.csv"
        audit_csv.write_text(
            "source,time_point,canonical_acronym,alignment,lower_count,"
            "upper_count,lower_share,upper_share,baseline_share,verdict,"
            "active_total\n"
            "s,2020-01-01,A,left,1,2,0.1,0.2,0.1,indeterminate,10\n"
            f"s,2020-01-01,PVDA,left,1,2,{shares},indeterminate,10\n",
            encoding="utf-8",
        )
        out = tmp_path / "f"
        assert run_cli("report", "--audit", str(audit_csv), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: malformed audit CSV {audit_csv}:\n  row 3: {bad} outside [0, 1]\n"
        )
        assert not out.exists()

    def test_lower_share_above_upper_share_names_file_and_row(self, tmp_path, capsys):
        audit_csv = tmp_path / "audit.csv"
        audit_csv.write_text(
            "source,time_point,canonical_acronym,alignment,lower_count,"
            "upper_count,lower_share,upper_share,baseline_share,verdict,"
            "active_total\n"
            "s,2020-01-01,PVDA,left,1,2,0.3,0.2,0.1,indeterminate,10\n",
            encoding="utf-8",
        )
        out = tmp_path / "f"
        assert run_cli("report", "--audit", str(audit_csv), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: malformed audit CSV {audit_csv}:\n"
            "  row 2: lower_share '0.3' above upper_share '0.2'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "counts_and_shares, bad",
        [
            ("1,2, ,0.2,0.1", "lower_share ' ' is not a number"),
            ("left,2,0.1,0.2,0.1", "lower_count 'left' is not an integer"),
            ("1,2.5,0.1,0.2,0.1", "upper_count '2.5' is not an integer"),
        ],
    )
    def test_value_that_does_not_parse_names_its_column(
        self, tmp_path, capsys, counts_and_shares, bad
    ):
        audit_csv = tmp_path / "audit.csv"
        audit_csv.write_text(
            "source,time_point,canonical_acronym,alignment,lower_count,"
            "upper_count,lower_share,upper_share,baseline_share,verdict,"
            "active_total\n"
            f"s,2020-01-01,PVDA,left,{counts_and_shares},indeterminate,10\n",
            encoding="utf-8",
        )
        out = tmp_path / "f"
        assert run_cli("report", "--audit", str(audit_csv), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: malformed audit CSV {audit_csv}:\n  row 2: {bad}\n"
        )
        assert not out.exists()

    def test_directory_as_audit_csv_is_a_config_error(self, tmp_path, capsys):
        audit_dir = tmp_path / "audit"
        audit_dir.mkdir()
        out = tmp_path / "f"
        assert run_cli("report", "--audit", str(audit_dir), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"config error: audit file {audit_dir} is a directory\n"
        assert not out.exists()

    def test_bad_source_writes_no_figure(self, tmp_path, capsys, monkeypatch):
        # sources draw in sorted order: "a-src" draws, then drawing "b-bad"
        # fails, after the first figure is made
        import kgdiv.report

        drawn = []
        real = kgdiv.report.emit_figure_svg

        def failing_second(spec):
            drawn.append(spec.source_label)
            if len(drawn) == 2:
                raise ValueError(f"cannot draw {spec.source_label}")
            return real(spec)

        monkeypatch.setattr(kgdiv.report, "emit_figure_svg", failing_second)
        audit_csv = tmp_path / "audit.csv"
        audit_csv.write_text(
            "source,time_point,canonical_acronym,alignment,lower_count,"
            "upper_count,lower_share,upper_share,baseline_share,verdict,"
            "active_total\n"
            "a-src,2020-01-01,A,left,1,2,0.1,0.2,0.1,indeterminate,10\n"
            "b-bad,2020-01-01,A,left,1,2,0.1,0.2,0.1,indeterminate,10\n",
            encoding="utf-8",
        )
        out = tmp_path / "fig"
        out.mkdir()
        (out / "earlier.txt").write_text("kept", encoding="utf-8")
        assert run_cli("report", "--audit", str(audit_csv), "--out", str(out)) == 1
        assert "cannot draw b-bad" in capsys.readouterr().err
        assert len(drawn) == 2
        assert sorted(p.name for p in out.iterdir()) == ["earlier.txt"]

    def test_colliding_figure_names_write_nothing(self, tmp_path, capsys):
        # "a b" and "a-b" both map to figure_a-b.svg
        audit_csv = tmp_path / "audit.csv"
        audit_csv.write_text(
            "source,time_point,canonical_acronym,alignment,lower_count,"
            "upper_count,lower_share,upper_share,baseline_share,verdict,"
            "active_total\n"
            "a b,2020-01-01,A,left,1,2,0.1,0.2,0.1,indeterminate,10\n"
            "a-b,2020-01-01,B,right,1,2,0.1,0.2,0.1,indeterminate,10\n",
            encoding="utf-8",
        )
        out = tmp_path / "fig"
        out.mkdir()
        (out / "earlier.txt").write_text("kept", encoding="utf-8")
        assert run_cli("report", "--audit", str(audit_csv), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "'a b'" in err and "'a-b'" in err and "figure_a-b.svg" in err
        assert sorted(p.name for p in out.iterdir()) == ["earlier.txt"]
        assert run_cli(
            "report", "--audit", str(audit_csv), "--out", str(tmp_path / "new")
        ) == 1
        assert not (tmp_path / "new").exists()


class TestValidate:
    def test_prints_findings(self, capsys):
        code = run_cli(
            "validate",
            "--snapshot",
            str(GOLDEN / "snapshot_en"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "inverted-interval" in out
        # the miscategorized party listed as a politician in the source
        assert "type-conflict" in out
        assert "Women%27s_Equality_Party" in out

    def test_clean_snapshot_reports_none(self, tmp_path, capsys):
        snapshot = tmp_path / "snap"
        snapshot.mkdir()
        (snapshot / "politicians.csv").write_text(
            "source,politician_id,label,party_id,aff_start,aff_end,death_date,"
            "position,retrieved_at\n"
            "test,p1,P One,N-VA,2010-01-01,2014-01-01,,,2022-01-01\n",
            encoding="utf-8",
        )
        code = run_cli("validate", "--snapshot", str(snapshot))
        assert code == 0
        assert "no findings" in capsys.readouterr().out


    def test_malformed_stamp_fails(self, tmp_path, capsys):
        snapshot = tmp_path / "snap"
        snapshot.mkdir()
        (snapshot / "politicians.csv").write_text(
            "source,politician_id,label,party_id,aff_start,aff_end,death_date,"
            "position,retrieved_at\n"
            "test,p1,P One,N-VA,2010-01-01,2014-01-01,,,2022-13-01\n",
            encoding="utf-8",
        )
        assert run_cli("validate", "--snapshot", str(snapshot)) == 1
        assert "retrieved_at '2022-13-01' is not an ISO date" in capsys.readouterr().err

    def test_streams_the_snapshot(self, tmp_path, fixture_dir, capsys):
        # the rows are read into careers as they stream: the careers peak
        # at about 1.3 times the file's size, one parsed tuple per row at
        # about three times, and a list of the raw rows beside them at
        # about five and a half times
        with open(fixture_dir / "map.csv", newline="", encoding="utf-8") as fh:
            aliases = [row["alias"] for row in csv.DictReader(fh)]
        snapshot = tmp_path / "snap"
        snapshot.mkdir()
        politicians = snapshot / "politicians.csv"
        with open(politicians, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(POLITICIANS_CSV_HEADER)
            for n in range(20_000):
                start = f"{1950 + n % 60}-0{1 + n % 9}-1{n % 10}"
                writer.writerow(
                    [
                        "en-dbpedia",
                        f"http://dbpedia.org/resource/Politician_{n // 2:05d}",
                        f"Politician {n // 2}",
                        aliases[n % len(aliases)],
                        start,
                        "" if n % 3 else f"{1960 + n % 60}-12-31",
                        "",
                        "",
                        "2022-05-27",
                    ]
                )
        tracemalloc.start()
        try:
            code = run_cli(
                "validate", "--snapshot", str(snapshot),
                "--map", str(fixture_dir / "map.csv"),
                "--parties", str(fixture_dir / "parties.csv"),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * politicians.stat().st_size

    def test_out_writes_the_golden_findings(self, tmp_path, fixture_dir):
        out = tmp_path / "out"
        code = run_cli(
            "validate", "--snapshot", str(GOLDEN / "snapshot_en"),
            "--map", str(fixture_dir / "map.csv"),
            "--parties", str(fixture_dir / "parties.csv"),
            "--out", str(out),
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["findings.csv"]
        assert (out / "findings.csv").read_bytes() == (
            GOLDEN / "audit_en" / "findings.csv"
        ).read_bytes()

    @pytest.mark.parametrize("given, missing", [("--map", "--parties"), ("--parties", "--map")])
    def test_map_without_parties_is_config_error(self, tmp_path, capsys, given, missing):
        code = run_cli(
            "validate", "--snapshot", str(GOLDEN / "snapshot_en"),
            given, str(tmp_path / "nonexistent.csv"),
        )
        assert code == 2
        assert capsys.readouterr().err == f"config error: {given} needs {missing}\n"


@pytest.mark.parametrize(
    "case",
    [
        "fixture-dir", "fixture-dataset", "fixture-dataset-nested-out", "corpus",
        "corpus-no-txt", "corpus-kind", "audit",
    ],
)
def test_missing_input_is_a_config_error_naming_it(tmp_path, kg_fixture_dir, capsys, case):
    out = tmp_path / "out"
    if case == "fixture-dir":
        path = tmp_path / "no-such-fixture"
        argv = fetch_args(out, path)
    elif case.startswith("fixture-dataset"):
        if case == "fixture-dataset-nested-out":
            # every directory made for --out goes, the deepest first
            out = tmp_path / "nest" / "a" / "b"
        shutil.copytree(kg_fixture_dir, tmp_path / "kg")
        path = tmp_path / "kg" / "en-dbpedia" / "politicians.json"
        path.unlink()
        argv = fetch_args(out, tmp_path / "kg")
    elif case == "audit":
        path = tmp_path / "no-such-audit.csv"
        argv = ["report", "--audit", str(path), "--out", str(out)]
    else:
        path = tmp_path / "no-such-corpus"
        if case == "corpus-no-txt":
            path = tmp_path / "corpus"
            path.mkdir()
            (path / "notes.md").write_text("N-VA", encoding="utf-8")
        elif case == "corpus-kind":
            path = tmp_path / "corpus.txt"
            path.write_text("N-VA", encoding="utf-8")
        argv = ["score", "--corpus", str(path), "--out", str(out)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not (tmp_path / "nest").exists()


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path, fixture_dir, kg_fixture_dir):
        outputs = []
        for label in ("one", "two"):
            base = tmp_path / label
            assert run_cli(*fetch_args(base / "snap", kg_fixture_dir)) == 0
            assert (
                run_cli(*audit_args(base / "snap", base / "audit", fixture_dir)) == 0
            )
            assert (
                run_cli(
                    "report",
                    "--audit",
                    str(base / "audit" / "audit_kvv.csv"),
                    "--baseline-label",
                    "KVV",
                    "--out",
                    str(base / "fig"),
                )
                == 0
            )
            digest = {}
            for path in sorted((base).rglob("*")):
                if path.is_file():
                    digest[str(path.relative_to(base))] = hashlib.sha256(
                        path.read_bytes()
                    ).hexdigest()
            outputs.append(digest)
        assert outputs[0] == outputs[1]


def score_args(out: Path, fixture_dir: Path, *flags: str) -> list[str]:
    return ["score", "--corpus", str(fixture_dir / "corpus"), *flags, "--out", str(out)]


def test_config_file_round_trip(tmp_path, fixture_dir, kg_fixture_dir):
    config = write_config(
        tmp_path,
        f"""
rules: {fixture_dir / 'rules.csv'}
triples: {fixture_dir / 'triples.csv'}
diversity:
  alpha: 1.0
  beta: 1.0
endpoints:
  en-dbpedia:
    url: http://example.invalid/sparql
    page_size: 77
""",
    )
    out = tmp_path / "score"
    assert run_cli(*score_args(out, fixture_dir, "--config", str(config))) == 0
    assert (out / "scores.csv").exists()
    snap = tmp_path / "snap"
    assert run_cli(*fetch_args(snap, kg_fixture_dir), "--config", str(config)) == 0
    assert (snap / "politicians.csv").read_bytes() == (
        GOLDEN / "snapshot_en" / "politicians.csv"
    ).read_bytes()


_REJECTED_CONFIGS = {
    # keys no command reads: file paths that exist, and valid values
    "map": ("map: {fixtures}/map.csv\n", "map"),
    "parties": ("parties: {fixtures}/parties.csv\n", "parties"),
    "baselines": ("baselines: {fixtures}/baselines.csv\n", "baselines"),
    "overrides": ("overrides: {fixtures}/map.csv\n", "overrides"),
    "templates": ("templates: {fixtures}/rules.csv\n", "templates"),
    "schedule": ("schedule: [2011, 2015]\n", "schedule"),
    "baseline_policy": ("baseline_policy: closest-in-time\n", "baseline_policy"),
    "output_dir": ("output_dir: elsewhere\n", "output_dir"),
    "diversity.metric": ("diversity:\n  metric: jaccard\n", "metric"),
    # typos and malformed sections
    "diversity.alpah": ("diversity:\n  alpah: 2\n", "alpah"),
    "endpoint.pagesize": ("endpoints:\n  en-dbpedia:\n    pagesize: 5\n", "pagesize"),
    "endpoint.mars": ("endpoints:\n  mars:\n", "mars"),
    "diversity-scalar": ("diversity: 3\n", "diversity must be a mapping"),
    "endpoints-list": ("endpoints: [1, 2]\n", "endpoints must be a mapping"),
    "endpoint-scalar": ("endpoints:\n  wikidata: 5\n", "endpoint wikidata must be a mapping"),
    "rules-list": ("rules: [a, b]\n", "rules must be a file path"),
    # values of the wrong type, which a cast would read as something else
    "endpoint.page_size-float": ("endpoints:\n  wikidata:\n    page_size: 7.9\n", "page_size"),
    "endpoint.retry_limit-bool": ("endpoints:\n  wikidata:\n    retry_limit: true\n", "retry_limit"),
    "diversity.alpha-bool": ("diversity:\n  alpha: true\n", "alpha: expected a number"),
    "diversity.nel_endpoint-list": ("diversity:\n  nel_endpoint: [a, b]\n", "nel_endpoint"),
}


@pytest.mark.parametrize("case", sorted(_REJECTED_CONFIGS))
def test_config_rejects_what_no_command_reads(tmp_path, fixture_dir, capsys, case):
    text, named = _REJECTED_CONFIGS[case]
    config = write_config(tmp_path, text.format(fixtures=fixture_dir))
    code = run_cli(*score_args(tmp_path / "out", fixture_dir, "--config", str(config)))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert named in err


def test_config_null_values_read_as_unset(tmp_path, fixture_dir, kg_fixture_dir):
    """A null alpha or endpoint url leaves the default, as if the key were absent."""
    config = write_config(
        tmp_path, "diversity:\n  alpha:\nendpoints:\n  en-dbpedia:\n    url:\n"
    )
    files = [
        "--rules", str(fixture_dir / "rules.csv"), "--triples", str(fixture_dir / "triples.csv")
    ]
    assert run_cli(*score_args(tmp_path / "plain", fixture_dir, *files)) == 0
    null = score_args(tmp_path / "null", fixture_dir, *files, "--config", str(config))
    assert run_cli(*null) == 0
    assert (tmp_path / "null" / "scores.csv").read_bytes() == (
        tmp_path / "plain" / "scores.csv"
    ).read_bytes()
    snap = tmp_path / "snap"
    assert run_cli(*fetch_args(snap, kg_fixture_dir), "--config", str(config)) == 0
    assert (snap / "politicians.csv").read_bytes() == (
        GOLDEN / "snapshot_en" / "politicians.csv"
    ).read_bytes()


_BAD_EXPONENTS = {"nan": ".nan", "inf": ".inf", "-1": "-1"}


@pytest.mark.parametrize("name", ["alpha", "beta"])
@pytest.mark.parametrize("value", sorted(_BAD_EXPONENTS))
def test_bad_exponent_flag_is_usage_error(tmp_path, fixture_dir, capsys, name, value):
    argv = score_args(tmp_path / "out", fixture_dir, "--rules", str(fixture_dir / "rules.csv"))
    assert run_cli(*argv, f"--{name}={value}") == 2
    assert f"argument --{name}: '{value}' is not a finite, non-negative number" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "out" / "scores.csv").exists()


@pytest.mark.parametrize("name", ["alpha", "beta"])
@pytest.mark.parametrize("value", sorted(_BAD_EXPONENTS))
def test_bad_exponent_in_config_is_config_error(tmp_path, fixture_dir, capsys, name, value):
    config = write_config(tmp_path, f"diversity:\n  {name}: {_BAD_EXPONENTS[value]}\n")
    assert run_cli(*score_args(tmp_path / "out", fixture_dir, "--config", str(config))) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad diversity params")
    assert "finite and non-negative" in err


def test_removed_flags_are_usage_errors(tmp_path, fixture_dir, capsys):
    config = write_config(tmp_path, "")
    audit = audit_args(GOLDEN / "snapshot_en", tmp_path / "audit", fixture_dir)
    assert run_cli(*audit, "--config", str(config)) == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert run_cli(*score_args(tmp_path / "score", fixture_dir, "--metric", "jaccard")) == 2
    assert "unrecognized arguments: --metric" in capsys.readouterr().err


def shared_country_triples(directory: Path, fixture_dir: Path) -> Path:
    """The fixture triples plus a country both parties share, which puts
    them at Jaccard distance 2/3, so alpha changes their scores too."""
    triples = directory / "triples.csv"
    triples.write_text(
        (fixture_dir / "triples.csv").read_text(encoding="utf-8")
        + "http://dbpedia.org/resource/New_Flemish_Alliance,country,Belgium\n"
        + "http://dbpedia.org/resource/Christen-Democratisch_en_Vlaams,country,Belgium\n",
        encoding="utf-8",
    )
    return triples


BOTH_FILES = ["--rules", "{rules}", "--triples", "{triples}"]


@pytest.mark.parametrize(
    "config_text, flags, common",
    [
        ("rules: {rules}\n", ["--rules", "{rules}"], []),
        ("triples: {triples}\n", ["--triples", "{triples}"], ["--rules", "{rules}"]),
        ("diversity:\n  alpha: 0.5\n", ["--alpha", "0.5"], BOTH_FILES),
        ("diversity:\n  beta: 2\n", ["--beta", "2"], BOTH_FILES),
    ],
    ids=["rules", "triples", "alpha", "beta"],
)
def test_config_value_scores_as_its_flag(tmp_path, fixture_dir, config_text, flags, common):
    paths = {
        "rules": fixture_dir / "rules.csv",
        "triples": shared_country_triples(tmp_path, fixture_dir),
    }
    common = [arg.format(**paths) for arg in common]
    config = write_config(tmp_path, config_text.format(**paths))
    scores = {}
    for run, extra in [
        ("config", ["--config", str(config)]),
        ("flag", [arg.format(**paths) for arg in flags]),
        ("neither", []),
    ]:
        out = tmp_path / run
        assert run_cli(*score_args(out, fixture_dir, *common, *extra)) == 0
        scores[run] = (out / "scores.csv").read_bytes()
    assert scores["config"] == scores["flag"]
    # the setting changes the scores, so the equality above says it was read
    assert scores["config"] != scores["neither"]


def test_flags_win_over_config(tmp_path, fixture_dir):
    (tmp_path / "no_rules.csv").write_text("pattern,case_sensitive,match_layer,target\n")
    (tmp_path / "no_triples.csv").write_text("subject,predicate,object\n")
    config = write_config(
        tmp_path,
        "rules: no_rules.csv\ntriples: no_triples.csv\ndiversity:\n  alpha: 0\n  beta: 2\n",
    )
    flags = [
        "--rules", str(fixture_dir / "rules.csv"),
        "--triples", str(shared_country_triples(tmp_path, fixture_dir)),
        "--alpha", "0.5",
        "--beta", "1",
    ]
    with_config = [*flags, "--config", str(config)]
    assert run_cli(*score_args(tmp_path / "both", fixture_dir, *with_config)) == 0
    assert run_cli(*score_args(tmp_path / "flags", fixture_dir, *flags)) == 0
    assert (tmp_path / "both" / "scores.csv").read_bytes() == (
        tmp_path / "flags" / "scores.csv"
    ).read_bytes()


def test_config_nel_endpoint_is_used(tmp_path, fixture_dir, capsys):
    config = write_config(
        tmp_path, "diversity:\n  nel_endpoint: http://127.0.0.1:1/rest/annotate\n"
    )
    rules = ["--rules", str(fixture_dir / "rules.csv"), "--require-nel"]
    assert run_cli(*score_args(tmp_path / "plain", fixture_dir, *rules)) == 0
    code = run_cli(*score_args(tmp_path / "nel", fixture_dir, *rules, "--config", str(config)))
    assert code == 1
    assert "127.0.0.1:1/rest/annotate" in capsys.readouterr().err


def test_empty_nel_endpoint_flag_defers_to_config(tmp_path, fixture_dir, capsys):
    config = write_config(
        tmp_path, "diversity:\n  nel_endpoint: http://127.0.0.1:1/rest/annotate\n"
    )
    rules = ["--rules", str(fixture_dir / "rules.csv"), "--require-nel"]
    with_config = [*rules, "--nel-endpoint", "", "--config", str(config)]
    assert run_cli(*score_args(tmp_path / "nel", fixture_dir, *with_config)) == 1
    assert "127.0.0.1:1/rest/annotate" in capsys.readouterr().err


def test_fetch_uses_configured_endpoint_settings(tmp_path, kg_fixture_dir, monkeypatch):
    import kgdiv.catalog

    seen = []
    real = kgdiv.catalog.execute_query

    def recording(endpoint, template, transport=None):
        seen.append(endpoint)
        return real(endpoint, template, transport=transport)

    monkeypatch.setattr(kgdiv.catalog, "execute_query", recording)
    config = write_config(
        tmp_path, "endpoints:\n  en-dbpedia:\n    page_size: 7\n    timeout: 3\n"
    )
    out = tmp_path / "snap"
    assert run_cli(*fetch_args(out, kg_fixture_dir), "--config", str(config)) == 0
    assert seen and {(e.page_size, e.timeout) for e in seen} == {(7, 3.0)}
    # paging in 7-row pages gives the same snapshot
    assert (out / "politicians.csv").read_bytes() == (
        GOLDEN / "snapshot_en" / "politicians.csv"
    ).read_bytes()


def test_config_with_invalid_yaml_is_rejected(tmp_path, capsys):
    config = tmp_path / "kgdiv.yaml"
    config.write_text("map: [unclosed\n", encoding="utf-8")
    code = run_cli(
        "score", "--corpus", str(tmp_path), "--config", str(config), "--out", str(tmp_path)
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "is not valid YAML" in err


def test_offline_commands_import_neither_requests_nor_yaml(tmp_path, fixture_dir, kg_fixture_dir):
    """Each command, run alone in a fresh interpreter without warnings,
    loads only the kgdiv modules it runs, and neither logging, requests,
    yaml, dataclasses nor inspect; only live fetch, score --nel-endpoint and
    --config load requests or yaml, and only a warning loads logging. Run
    without site hooks (-S), which may import typing first, no offline
    command loads typing either."""
    nmap = ["--map", str(fixture_dir / "map.csv"), "--parties", str(fixture_dir / "parties.csv")]
    # 20 politicians active in 2011 are enough for the audit not to warn
    busy = tmp_path / "busy"
    busy.mkdir()
    (busy / "politicians.csv").write_text(
        ",".join(POLITICIANS_CSV_HEADER) + "\n" + "".join(
            f"en-dbpedia,http://x/p{i},P{i},http://dbpedia.org/resource/Volksunie,"
            "2000-01-01,,,,2022-05-27\n"
            for i in range(20)
        ),
        encoding="utf-8",
    )
    # the fixture rules without their lemma rule, which warns
    rules = tmp_path / "rules.csv"
    rules.write_text(
        "".join(
            line
            for line in (fixture_dir / "rules.csv").read_text(encoding="utf-8").splitlines(True)
            if ",lemma," not in line
        ),
        encoding="utf-8",
    )
    config = write_config(tmp_path, f"rules: {rules}\ntriples: {fixture_dir / 'triples.csv'}\n")
    score = ["score", "--corpus", str(fixture_dir / "corpus"), "--out", str(tmp_path / "score")]
    cases = {
        "score": (
            [*score, "--rules", str(rules), "--triples", str(fixture_dir / "triples.csv")],
            "csvformat diversity pipeline",
        ),
        # the config file's settings are what yaml, config and sparql load for
        "score --config": (
            [*score, "--config", str(config)],
            "config csvformat diversity pipeline sparql yaml",
        ),
        "fetch": (
            fetch_args(tmp_path / "snap", kg_fixture_dir),
            "catalog config csvformat fixtures sparql",
        ),
        "validate": (
            ["validate", "--snapshot", str(GOLDEN / "snapshot_en"), *nmap],
            "audit csvformat",
        ),
        "audit": (
            [
                "audit", "--snapshot", str(busy),
                "--baseline", str(fixture_dir / "baselines.csv"), *nmap,
                "--schedule", "2011", "--out", str(tmp_path / "audit"),
            ],
            "audit csvformat",
        ),
        "report": (
            ["report", "--audit", str(GOLDEN / "audit_en" / "audit_kvv.csv"), "--out", str(tmp_path / "fig")],
            "csvformat report",
        ),
    }
    script = """
import sys
import kgdiv.cli
print(*sorted(m for m in sys.modules if m.split(".")[0] == "kgdiv"))
code = kgdiv.cli.main(sys.argv[1:])
watched = ("kgdiv", "logging", "requests", "yaml", "dataclasses", "inspect", "typing")
print(code, *sorted(m for m in sys.modules if m.split(".")[0] in watched))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for command, (argv, runs) in cases.items():
        # yaml lives in site-packages, so --config runs only with site hooks
        for flags in ([], ["-S"]) if "yaml" not in runs.split() else ([],):
            done = subprocess.run(
                [sys.executable, *flags, "-c", script, *argv],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            case = (command, *flags)
            assert done.returncode == 0, (case, done.stderr)
            assert done.stderr == "", case
            at_import = done.stdout.splitlines()[0].split()
            code, *loaded = done.stdout.splitlines()[-1].split()
            assert at_import == ["kgdiv", "kgdiv.cli"]
            assert code == "0", case
            expected = {"kgdiv", "kgdiv.cli"} | {
                f"kgdiv.{m}" for m in runs.split() if m != "yaml"
            }
            assert {m for m in loaded if m.startswith("kgdiv")} == expected, case
            others = {m.split(".")[0] for m in loaded if not m.startswith("kgdiv")}
            if not flags:
                others.discard("typing")
            assert others == ({"yaml"} if "yaml" in runs.split() else set()), case


def test_warnings_keep_their_stderr_format_in_a_fresh_interpreter(tmp_path, fixture_dir):
    """logging loads only when a warning fires; the warning lines stay
    `WARNING <message>` on stderr."""
    done = subprocess.run(
        [
            sys.executable, "-c", "import sys; from kgdiv.cli import main; sys.exit(main())",
            *audit_args(GOLDEN / "snapshot_en", tmp_path / "audit", fixture_dir),
        ],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0
    assert done.stderr == b"".join(
        b"WARNING only %d active politicians for source en-dbpedia at %d-01-01; "
        b"bound shares are hard to interpret\n" % (count, year)
        for count, year in (
            (3, 1990), (6, 1996), (7, 2000), (8, 2005), (8, 2011), (7, 2015), (7, 2020)
        )
    )


def test_config_with_missing_file_is_rejected(tmp_path):
    config = tmp_path / "kgdiv.yaml"
    config.write_text("rules: /does/not/exist.csv\n", encoding="utf-8")
    code = run_cli(
        "score", "--corpus", str(tmp_path), "--config", str(config), "--out", str(tmp_path)
    )
    assert code == 2


@pytest.mark.parametrize("caller_collects", [True, False], ids=["caller-gc-on", "caller-gc-off"])
@pytest.mark.parametrize(
    "outcome, code", [("return", 0), ("error", 1), ("config-error", 2)],
    ids=["return", "error", "config-error"],
)
def test_command_runs_with_cyclic_gc_off(monkeypatch, outcome, code, caller_collects):
    """The collector is off while a command runs, and afterwards it is as
    the caller left it, however the command ends."""
    import gc

    import kgdiv.cli
    from kgdiv.config import ConfigError

    during = []

    def command(args):
        during.append(gc.isenabled())
        if outcome == "error":
            raise ValueError("bad row")
        if outcome == "config-error":
            raise ConfigError("bad key")
        return 0

    monkeypatch.setattr(kgdiv.cli, "cmd_validate", command)
    collecting = gc.isenabled()
    (gc.enable if caller_collects else gc.disable)()
    try:
        assert run_cli("validate", "--snapshot", "unused") == code
        after = gc.isenabled()
    finally:
        (gc.enable if collecting else gc.disable)()
    assert during == [False]
    assert after is caller_collects
