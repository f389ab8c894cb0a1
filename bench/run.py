"""kgdiv benchmark: seeded batch workloads timed end to end and per layer.

Run from the root of a kgdiv checkout (the directory holding src/kgdiv):

    python3 bench/run.py --workload audit-kg --seed 1 --seconds 25 --trace 0

Workloads (all single-process, sequential and closed-loop: each kgdiv
command starts when the previous one has exited):

    audit-kg     fetch (offline fixture) -> validate -> audit -> report
    score-news   one score over many short documents, a large gazetteer
    score-dense  one score over two long documents of many distinct actors

Each run generates its inputs from --seed, runs the command sequence once
to check every output against the generator's ground truth, times set-up
probes, and then measures for --seconds. With --trace 0 it times the CLI
commands as subprocesses and prints the end-to-end metrics; with --trace 1
it also runs the sequence in-process under the layer tracer and prints the
per-layer metrics. The end-to-end times are scaled by a calibration job
timed between the probes and sequences of the same run (see calibrate());
the raw medians are printed too. The last line of standard output is one
JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Scratch files live under .bench_work/ in the checkout; the full result,
with the traced spans, is left there as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from check import (  # noqa: E402
    check_audit,
    check_fetch,
    check_report,
    check_score,
    check_validate,
    digest,
)
from gen import AuditSizes, ScoreSizes, generate_audit, generate_score  # noqa: E402

#: set-up probes per run; setup_s is their median
SETUP_REPS = 7
#: median time of calibrate() on the machine the benchmark was built on
CALIBRATION_REF_S = 0.30
#: a run stops starting new work after this many seconds, to exit within 180
BUDGET_S = 150.0
CLI = "import sys; from kgdiv.cli import main; sys.exit(main())"
COMMANDS = ("fetch", "validate", "audit", "report", "score")


@dataclass
class Command:
    name: str
    argv: list[str]
    #: the directory the command writes, emptied before each run of it
    out: Path | None
    check: Callable[[bytes], list[str]]


@dataclass
class Workload:
    commands: list[Command]
    probe: list[str]
    sizes: dict
    politicians: int = 0


def audit_kg(inputs: Path, outputs: Path, seed: int, scale: float) -> Workload:
    sizes = AuditSizes(politicians=max(100, round(5_000 * scale)))
    truth = generate_audit(inputs, seed, sizes)
    snap, aud, fig = outputs / "snapshot", outputs / "audit", outputs / "figures"
    nmap = ["--map", str(inputs / "map.csv"), "--parties", str(inputs / "parties.csv")]
    commands = [
        Command(
            "fetch",
            ["fetch", "--source", "en-dbpedia", "--from-fixture", str(inputs / "kg"), "--out", str(snap)],
            snap,
            lambda _: check_fetch(snap, truth),
        ),
        Command(
            "validate",
            ["validate", "--snapshot", str(snap), *nmap],
            None,
            lambda stdout: check_validate(stdout, truth),
        ),
        # closest: under the default policy the 1990 time point precedes
        # VP's first election and the audit over all bodies exits 1
        Command(
            "audit",
            [
                "audit", "--snapshot", str(snap), "--baseline", str(inputs / "baselines.csv"), *nmap,
                "--baseline-policy", "closest", "--max-unmapped", str(truth.unmapped_distinct),
                "--out", str(aud),
            ],
            aud,
            lambda _: check_audit(aud, truth),
        ),
        Command(
            "report",
            ["report", "--audit", str(aud / "audit_kvv.csv"), "--baseline-label", "KVV", "--out", str(fig)],
            fig,
            lambda _: check_report(fig, truth),
        ),
    ]
    recorded = dataclasses.asdict(sizes) | {
        "rows": len(truth.bindings),
        "unmapped_rows": truth.unmapped_rows,
        "undated_politicians": next(iter(truth.coverage.values()))[1],
    }
    probe = ["audit", str(snap), *nmap[1::2], str(inputs / "baselines.csv")]
    return Workload(commands, probe, recorded, truth.politicians)


def _score(inputs: Path, outputs: Path, seed: int, sizes: ScoreSizes) -> Workload:
    truth = generate_score(inputs, seed, sizes)
    out = outputs / "score"
    files = [str(inputs / "corpus"), str(inputs / "rules.csv"), str(inputs / "triples.csv")]
    command = Command(
        "score",
        ["score", "--corpus", files[0], "--rules", files[1], "--triples", files[2], "--out", str(out)],
        out,
        lambda _: check_score(out, truth),
    )
    recorded = dataclasses.asdict(sizes) | {
        "rules": truth.rules,
        "triple_rows": truth.triples,
        "words": truth.words,
        "distinct_actors": truth.distinct_actors,
    }
    return Workload([command], ["score", *files], recorded)


def score_news(inputs: Path, outputs: Path, seed: int, scale: float) -> Workload:
    sizes = ScoreSizes(
        documents=max(2, round(30 * scale)),
        actors_per_doc=10,
        pool_actors=max(20, round(500 * scale)),
        gap_words=10,
        zipf_s=1.1,
        triples=round(10_000 * scale),
        same_features_share=0.1,
        featureless_share=0.05,
    )
    return _score(inputs, outputs, seed, sizes)


def score_dense(inputs: Path, outputs: Path, seed: int, scale: float) -> Workload:
    per_doc = max(10, round(420 * scale))
    sizes = ScoreSizes(
        documents=2,
        actors_per_doc=per_doc,
        pool_actors=2 * per_doc,
        gap_words=3,
        zipf_s=0.0,
        triples=0,
        same_features_share=0.3,
        featureless_share=0.1,
    )
    return _score(inputs, outputs, seed, sizes)


WORKLOADS = {"audit-kg": audit_kg, "score-news": score_news, "score-dense": score_dense}


class Runner:
    """Spawns kgdiv commands and set-up probes, one at a time, through the
    spawner helper (see spawner.py for why)."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("KGDIV_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.deadline = deadline
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str | None] = {}
        self.helper = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.helper.stdin.close()
        self.helper.wait()

    def spawn(self, argv: list[str], name: str) -> tuple[float, int, bytes, int]:
        """Run one subprocess; return its wall time, exit code, stdout and
        peak resident set size in KiB."""
        stdout_path = self.logs / f"{name}.out"
        request = {
            "argv": argv,
            "env": self.env,
            "stdout": str(stdout_path),
            "stderr": str(self.logs / "stderr.log"),
            "timeout": max(self.deadline + 25 - monotonic(), 1.0),
        }
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        reply = json.loads(self.helper.stdout.readline())
        return reply["seconds"], reply["code"], stdout_path.read_bytes(), reply["maxrss_kb"]

    def sequence(self, commands: list[Command], check: bool = False) -> dict[str, float]:
        """Run the commands in order; return each one's wall time.

        With check=True the outputs are checked against the ground truth
        and the digests of those that pass become the reference; otherwise
        each output must be byte-identical to its reference.
        """
        times = {}
        for cmd in commands:
            if cmd.out is not None:
                shutil.rmtree(cmd.out, ignore_errors=True)
            elapsed, code, stdout, rss_kb = self.spawn([sys.executable, "-c", CLI, *cmd.argv], cmd.name)
            times[cmd.name] = elapsed
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
            problems = [f"{cmd.name}: exit code {code}"] if code != 0 else []
            outcome = digest(stdout, cmd.out)
            if check:
                problems += cmd.check(stdout)
                self.reference[cmd.name] = None if problems else outcome
            elif outcome != self.reference.get(cmd.name):
                problems.append(f"{cmd.name}: output does not match the checked first run's")
            self.record(problems)
        return times

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for line in problems:
                print(f"FAILED {line}", file=sys.stderr)

    def probe(self, args: list[str]) -> tuple[float, float]:
        """One set-up probe: its wall time and its import time of kgdiv.cli."""
        elapsed, code, stdout, _ = self.spawn([sys.executable, str(BENCH / "probe.py"), *args], "probe")
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}; see {self.logs / 'stderr.log'}")
        return elapsed, json.loads(stdout)["import_s"]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def calibrate() -> float:
    """Time a fixed pure-Python job (building, sorting and joining strings,
    what kgdiv's own time goes to) in this process.

    The shared host's CPU speed drifts by up to 30% over minutes; scaling a
    run's timings by CALIBRATION_REF_S / its median calibration cancels it.
    """
    start = perf_counter()
    for _ in range(2):
        table = {f"k{i}": (i * 7919) % 10007 for i in range(150_000)}
        keys = sorted(table, key=table.__getitem__)
        if sum(len(part) for part in ",".join(keys).split(",")) <= 0:
            raise AssertionError("calibration job computed nothing")
    return perf_counter() - start


def timed_sequences(
    runner: Runner, wl: Workload, seconds: float, calibrations: list[float]
) -> list[dict[str, float]]:
    """Run the sequence until `seconds` have passed (at least twice),
    calibrating before each run of it."""
    runs = []
    start = monotonic()
    while len(runs) < 2 or (monotonic() - start < seconds and monotonic() < runner.deadline):
        calibrations.append(calibrate())
        runs.append(runner.sequence(wl.commands))
    return runs


def traced_layers(runner: Runner, wl: Workload, seconds: float, work: Path) -> tuple[dict, dict]:
    """In-process passes under the tracer; returns layer metrics and the raw result."""
    spec = work / "inproc-spec.json"
    spec.write_text(
        json.dumps(
            {
                "seconds": seconds,
                "commands": [
                    {"name": c.name, "argv": c.argv, "out": str(c.out) if c.out else None}
                    for c in wl.commands
                ],
            }
        )
    )
    result_path = work / "inproc-result.json"
    _, code, _, _ = runner.spawn([sys.executable, str(BENCH / "inproc.py"), str(spec), str(result_path)], "inproc")
    if code != 0:
        raise RuntimeError(f"in-process run exited {code}; see {runner.logs / 'stderr.log'}")
    raw = json.loads(result_path.read_text())
    for one_pass in raw["untraced"] + raw["traced"]:
        for name, code in one_pass["codes"].items():
            problems = [f"{name} (in-process): exit code {code}"] if code != 0 else []
            if one_pass["digests"][name] != runner.reference.get(name):
                problems.append(f"{name} (in-process): output does not match the checked first run's")
            runner.record(problems)
    layers = {
        key: _median([m[key] for m in raw["layers"]]) for key in raw["layers"][0]
    }
    layers["trace.overhead_s"] = _median([p["wall_s"] for p in raw["traced"]]) - _median(
        [p["wall_s"] for p in raw["untraced"]]
    )
    return layers, raw


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "per_politician")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def measure(args, root: Path, work: Path) -> dict:
    with Runner(root, work, monotonic() + BUDGET_S) as runner:
        wl = WORKLOADS[args.workload](work / "in", work / "out", args.seed, args.scale)
        return _measure(args, work, runner, wl)


def _measure(args, work: Path, runner: Runner, wl: Workload) -> dict:
    runner.sequence(wl.commands, check=True)

    calibrations: list[float] = []
    probes = []
    for _ in range(SETUP_REPS):
        calibrations.append(calibrate())
        probes.append(runner.probe(wl.probe))
    runs = timed_sequences(runner, wl, args.seconds / 2 if args.trace else args.seconds, calibrations)
    speed = CALIBRATION_REF_S / _median(calibrations)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "sizes": wl.sizes,
        "probes": probes,
        "sequences": runs,
        "calibrations": calibrations,
        "raw_setup_s": _median([p[0] for p in probes]),
        "raw_wall_s": _median([sum(r.values()) for r in runs]),
    }
    if not args.trace:
        metrics = {
            "setup_s": result["raw_setup_s"] * speed,
            "wall_s": result["raw_wall_s"] * speed,
            "peak_rss_mb": runner.peak_rss_kb / 1024,
        }
    else:
        metrics = {
            name + "_s": _median([r[name] for r in runs if name in r]) for name in COMMANDS
        }
        metrics["cli.import_s"] = _median([p[1] for p in probes])
        layers, raw = traced_layers(runner, wl, args.seconds / 2, work)
        metrics |= layers
        calls = metrics["audit.activity_period_calls"]
        metrics["audit.periods_per_politician"] = calls / wl.politicians if wl.politicians else 0.0
        result["traced_passes"] = len(raw["traced"])
        result["spans"] = raw["spans"]
    result["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    result["attempted"], result["failed"] = runner.attempted, runner.failed
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="multiplier on the input sizes")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kgdiv" / "cli.py").is_file():
        print("bench: no src/kgdiv here; run from the root of a kgdiv checkout", file=sys.stderr)
        return 2
    scratch = root / ".bench_work"
    work = scratch / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (scratch / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1)
    )

    print(f"{args.workload} seed {args.seed}: {json.dumps(result['sizes'])}")
    print(
        f"  medians of {len(result['sequences'])} sequences and {len(result['probes'])} set-up probes;"
        f" raw setup_s {result['raw_setup_s']:.6f} s, raw wall_s {result['raw_wall_s']:.6f} s,"
        f" calibration {_median(result['calibrations']):.6f} s (reference {CALIBRATION_REF_S} s)"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6f} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':34s} {share:>14.6f} ratio ({result['attempted']} commands)")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
