"""Spawn processes on request; report each one's wall time, exit code and
peak resident set size.

A child's ru_maxrss includes the memory of the process that forked it (at
exec the kernel keeps the forking image's high-water mark), so the
benchmark, which holds generated inputs and their ground truth, starts its
children through this small helper instead of forking them itself.

Protocol: one JSON request per line on stdin,
{"argv", "env", "stdout", "stderr", "timeout"}; one JSON reply per line on
stdout, {"seconds", "code", "maxrss_kb"}. The helper exits at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "ab") as err:
            start = perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, env=request["env"])
            killer = threading.Timer(request["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
