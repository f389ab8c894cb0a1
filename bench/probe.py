"""Set-up probe: import kgdiv.cli, load a workload's inputs through the
public loaders, print the import time as JSON and exit.

Usage: python3 bench/probe.py audit SNAPSHOT_DIR MAP PARTIES BASELINES
       python3 bench/probe.py score CORPUS_DIR RULES TRIPLES
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
import kgdiv.cli  # noqa: E402,F401

import_s = perf_counter() - start

from kgdiv import audit, catalog, pipeline  # noqa: E402


def main(kind: str, *paths: str) -> int:
    if kind == "audit":
        snapshot, map_file, parties, baselines = paths
        catalog.read_politicians_csv(Path(snapshot) / "politicians.csv")
        audit.load_normalization_map(map_file, parties)
        audit.load_baselines(baselines)
    else:
        corpus, rules, triples = paths
        pipeline.load_rules(rules)
        pipeline.CsvTripleSource.from_file(triples)
        pipeline.builtin_ontology()
        for path in sorted(Path(corpus).glob("*.txt")):
            path.read_text(encoding="utf-8")
    print(json.dumps({"import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
