"""Smoke test of the benchmark at its smallest size.

It asserts that every metric BENCHMARK.json names is reported and that the
output checks pass, and that the checks catch a wrong output. It asserts no
timings. Run from the checkout root:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from check import check_audit, check_score  # noqa: E402
from gen import AuditSizes, ScoreSizes, generate_audit, generate_score  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smallest_run_reports_every_metric_and_passes_checks(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--scale", "0.02")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}


def test_refuses_to_run_outside_a_kgdiv_checkout(tmp_path):
    proc = _bench("--workload", "audit-kg", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _kgdiv(*argv: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "kgdiv.cli", *argv], env=env, check=True, capture_output=True)


def _rewrite(path: Path, column: str, change) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[0][column] = change(rows[0][column])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_checks_catch_a_wrong_audit_count(tmp_path):
    truth = generate_audit(tmp_path / "in", 3, AuditSizes(politicians=200))
    snap, out = tmp_path / "snap", tmp_path / "audit"
    _kgdiv("fetch", "--source", "en-dbpedia", "--from-fixture", str(tmp_path / "in" / "kg"), "--out", str(snap))
    _kgdiv(
        "audit", "--snapshot", str(snap), "--baseline", str(tmp_path / "in" / "baselines.csv"),
        "--map", str(tmp_path / "in" / "map.csv"), "--parties", str(tmp_path / "in" / "parties.csv"),
        "--baseline-policy", "closest", "--max-unmapped", str(truth.unmapped_distinct), "--out", str(out),
    )
    assert check_audit(out, truth) == []
    _rewrite(out / "audit_vp.csv", "upper_count", lambda v: str(int(v) + 1))
    assert check_audit(out, truth)


def test_checks_catch_a_wrong_delta(tmp_path):
    sizes = ScoreSizes(
        documents=3, actors_per_doc=8, pool_actors=30, gap_words=4, zipf_s=1.1,
        triples=200, same_features_share=0.2, featureless_share=0.1,
    )
    truth = generate_score(tmp_path / "in", 5, sizes)
    out = tmp_path / "score"
    _kgdiv(
        "score", "--corpus", str(tmp_path / "in" / "corpus"), "--rules", str(tmp_path / "in" / "rules.csv"),
        "--triples", str(tmp_path / "in" / "triples.csv"), "--out", str(out),
    )
    assert check_score(out, truth) == []
    _rewrite(out / "scores.csv", "delta", lambda v: repr(float(v) * (1 + 1e-6)))
    assert check_score(out, truth)
