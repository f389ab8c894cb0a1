"""Run a workload's command sequence inside one process via kgdiv.cli.main.

After one unrecorded warm-up pass, passes alternate: one untraced, then
one with the tracer installed, until the time is up (at least one of each). Writes the pass times, the traced
per-layer metrics, the spans of the last traced pass and a digest of every
command's output per pass as JSON.

Usage: python3 bench/inproc.py SPEC.json RESULT.json
SPEC holds {"seconds": float, "commands": [{"name", "argv", "out"}, ...]}.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

from check import digest
from tracing import Tracer


def run_pass(cli, commands: list[dict], tracer: Tracer | None = None) -> dict:
    wall = 0.0
    codes, digests = {}, {}
    for cmd in commands:
        out = Path(cmd["out"]) if cmd["out"] else None
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            start = perf_counter()
            try:
                if tracer is None:
                    code = cli.main(cmd["argv"])
                else:
                    code = tracer.call("cli." + cmd["name"], cli.main, (cmd["argv"],))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash in kgdiv counts as a failed command
                traceback.print_exc()
                code = -1
            wall += perf_counter() - start
        codes[cmd["name"]] = code
        digests[cmd["name"]] = digest(stdout.getvalue().encode("utf-8"), out)
    return {"wall_s": wall, "codes": codes, "digests": digests}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import kgdiv.cli as cli

    run_pass(cli, spec["commands"])  # warm-up, not recorded
    untraced, traced, layers, spans = [], [], [], []
    begin = perf_counter()
    while not traced or perf_counter() - begin < spec["seconds"]:
        untraced.append(run_pass(cli, spec["commands"]))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(run_pass(cli, spec["commands"], tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics())
        spans = tracer.spans
    Path(result_path).write_text(
        json.dumps({"untraced": untraced, "traced": traced, "layers": layers, "spans": spans})
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
