"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --workload audit-kg --seeds 1-10 --out runs.json
    python3 bench/repeat.py --workload audit-kg --seeds 11-20 --against runs.json

For every metric it prints the median, the quartiles and the spread
(q3 - q1) / median over the seeds, next to the bound BENCHMARK.json sets.
With --against it also prints how far each median moved from an earlier
summary, as a share of the earlier median. Run from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the values and summary here")
    parser.add_argument("--against", type=Path, help="an earlier --out file to compare with")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [
                sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        print(f"{workload} ({len(args.seeds)} seeds, trace {args.trace})")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            line = f"  {name:34s} median {median:12.6f}  q1 {q1:12.6f}  q3 {q3:12.6f}  spread {spread:7.4f}"
            if bounds.get(name) is not None:
                line += f"  bound {bounds[name]}"
            before = earlier.get(workload, {}).get(name)
            if before and before["median"]:
                change = (median - before["median"]) / before["median"]
                worse = change if better[name] == "lower" else -change
                line += f"  vs earlier {change:+.4f}" + (" WORSE" if bounds.get(name) and worse > bounds[name] else "")
            print(line)
            summary[workload][name] = {"values": vals, "median": median, "q1": q1, "q3": q3, "spread": spread}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1))
    print("all outputs correct" if ok else "SOME OUTPUTS FAILED THEIR CHECKS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
