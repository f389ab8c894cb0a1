"""Per-layer tracing of kgdiv from outside: wrappers around public calls.

`Tracer.install()` replaces every binding of each target function across
the loaded `kgdiv.*` module namespaces (so both `from .pipeline import
enrich_entity` in the CLI and the global calls inside `run_audit` are
caught) and patches target methods on their class. `uninstall()` puts the
originals back. A target that no longer exists is skipped and reads as 0.

Coarse calls record a span (name, start, end, parent). Hot per-item calls
only add to a count and a total. Every wrapped call, span or not, charges
its duration to the wrapped call it runs inside, so a name's self time is
its total minus the wrapped calls beneath it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN, HOT = True, False


def _rows(result) -> int:
    return len(result.rows)


def _length(result) -> int:
    return len(result)


#: module, attribute (Class.method for methods), SPAN or HOT, and the
#: (counter, function of the result) the call adds to, if any
TARGETS = (
    ("kgdiv.sparql", "execute_query", SPAN, ("sparql.rows_out", _rows)),
    ("kgdiv.sparql", "parse_results", HOT, ("sparql.rows_in", _rows)),
    ("kgdiv.fixtures", "FixtureTransport.__call__", HOT, None),
    ("kgdiv.fixtures", "FixtureStore.respond", HOT, None),
    ("kgdiv.fixtures", "FixtureStore.dataset", HOT, None),
    ("kgdiv.catalog", "fetch_politicians", SPAN, None),
    ("kgdiv.catalog", "fetch_parties", SPAN, None),
    ("kgdiv.catalog", "write_politicians_csv", SPAN, None),
    ("kgdiv.catalog", "write_parties_csv", SPAN, None),
    ("kgdiv.catalog", "read_politicians_csv", SPAN, ("catalog.rows_read", _length)),
    ("kgdiv.catalog", "read_parties_csv", SPAN, ("catalog.rows_read", _length)),
    ("kgdiv.audit", "load_normalization_map", SPAN, None),
    ("kgdiv.audit", "load_baselines", SPAN, None),
    ("kgdiv.audit", "load_career_end_overrides", SPAN, None),
    ("kgdiv.audit", "validate_snapshot", SPAN, None),
    ("kgdiv.audit", "run_audit", SPAN, None),
    ("kgdiv.audit", "normalize_affiliations", SPAN, None),
    ("kgdiv.audit", "select_active", SPAN, None),
    ("kgdiv.audit", "compute_bounds", SPAN, None),
    ("kgdiv.audit", "activity_period", HOT, None),
    ("kgdiv.audit", "baseline_share", HOT, None),
    ("kgdiv.audit", "classify", HOT, None),
    ("kgdiv.report", "emit_series_csv", SPAN, ("report.bytes_out", _length)),
    ("kgdiv.report", "build_figure_spec", SPAN, None),
    ("kgdiv.report", "emit_figure_svg", SPAN, ("report.bytes_out", _length)),
    ("kgdiv.pipeline", "load_rules", SPAN, None),
    ("kgdiv.pipeline", "CsvTripleSource.from_file", SPAN, None),
    ("kgdiv.pipeline", "builtin_ontology", SPAN, None),
    ("kgdiv.pipeline", "match_rules", SPAN, ("pipeline.mentions", _length)),
    ("kgdiv.pipeline", "enrich_entity", HOT, None),
    ("kgdiv.pipeline", "CsvTripleSource.predicates", HOT, None),
    ("kgdiv.pipeline", "CsvTripleSource.types", HOT, None),
    ("kgdiv.diversity", "compute_balance", SPAN, None),
    ("kgdiv.diversity", "compute_disparity", SPAN, None),
    ("kgdiv.diversity", "stirling_delta", SPAN, None),
)


class Tracer:
    """Counts, totals and self times per wrapped name, plus coarse spans."""

    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self.distinct_ids: set = set()
        self.disparity_sizes: list[int] = []
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [child seconds, span index or None]
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args=(), kwargs=None, span: bool = True):
        """Run fn(*args, **kwargs) as one wrapped call named `name`."""
        parent = self._stack[-1] if self._stack else None
        frame = [0.0, None]
        start = perf_counter()
        if span:
            frame[1] = len(self.spans)
            self.spans.append(
                {"name": name, "parent": parent[1] if parent else None, "start": start - self.t0, "end": None}
            )
        self._stack.append(frame)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self._stack.pop()
            elapsed = end - start
            self.calls[name] += 1
            self.total[name] += elapsed
            self.self_time[name] += elapsed - frame[0]
            if parent is not None:
                parent[0] += elapsed
            if span:
                self.spans[frame[1]]["end"] = end - self.t0

    def _wrap(self, name: str, fn, span: bool, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs, span)
            try:
                if counter is not None:
                    tracer.counters[counter[0]] += counter[1](result)
                if name == "enrich_entity":
                    tracer.distinct_ids.add(args[0] if args else kwargs["root_id"])
                elif name == "compute_disparity":
                    tracer.disparity_sizes.append(len(args[0] if args else kwargs["entities"]))
            except (AttributeError, KeyError, TypeError):
                pass  # a changed signature or result type leaves the counter short
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attribute, span, counter in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, attr = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(attr) if isinstance(owner, type) else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(attribute, raw.__func__, span, counter))
                else:
                    new = self._wrap(attribute, raw, span, counter)
                self._patch(owner, attr, new)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(attribute, fn, span, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "kgdiv" or mod_name.startswith("kgdiv.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced so far."""
        t, n, own, c = self.total, self.calls, self.self_time, self.counters
        pages = n["parse_results"]
        transport = n["FixtureTransport.__call__"]
        lookups = ("CsvTripleSource.predicates", "CsvTripleSource.types")
        sizes = self.disparity_sizes
        return {
            "cli.glue_s": sum(v for k, v in own.items() if k.startswith("cli.")),
            "sparql.execute_query_self_s": own["execute_query"],
            "sparql.parse_results_s": t["parse_results"],
            "sparql.pages": pages,
            "sparql.rows_in": c["sparql.rows_in"],
            "sparql.rows_out": c["sparql.rows_out"],
            "sparql.dedup_ratio": c["sparql.rows_out"] / c["sparql.rows_in"] if c["sparql.rows_in"] else 0.0,
            "sparql.retries": max(transport - pages, 0),
            "fixtures.respond_s": t["FixtureStore.respond"],
            "fixtures.dataset_s": t["FixtureStore.dataset"],
            "catalog.fetch_politicians_s": t["fetch_politicians"],
            "catalog.write_csv_s": t["write_politicians_csv"] + t["write_parties_csv"],
            "catalog.read_csv_s": t["read_politicians_csv"] + t["read_parties_csv"],
            "catalog.rows_read": c["catalog.rows_read"],
            "audit.run_audit_calls": n["run_audit"],
            "audit.run_audit_self_s": own["run_audit"],
            "audit.normalize_calls": n["normalize_affiliations"],
            "audit.normalize_s": t["normalize_affiliations"],
            "audit.activity_period_calls": n["activity_period"],
            "audit.activity_period_s": t["activity_period"],
            "audit.select_active_s": t["select_active"],
            "audit.compute_bounds_s": t["compute_bounds"],
            "audit.baseline_share_calls": n["baseline_share"],
            "audit.validate_snapshot_s": t["validate_snapshot"],
            "audit.load_s": t["load_normalization_map"] + t["load_baselines"] + t["load_career_end_overrides"],
            "report.emit_series_csv_s": t["emit_series_csv"],
            "report.build_figure_spec_s": t["build_figure_spec"],
            "report.emit_figure_svg_s": t["emit_figure_svg"],
            "report.bytes_out": c["report.bytes_out"],
            "pipeline.match_rules_calls": n["match_rules"],
            "pipeline.match_rules_s": t["match_rules"],
            "pipeline.mentions": c["pipeline.mentions"],
            "pipeline.enrich_calls": n["enrich_entity"],
            "pipeline.enrich_s": t["enrich_entity"],
            "pipeline.enrich_distinct_ratio": len(self.distinct_ids) / n["enrich_entity"] if n["enrich_entity"] else 0.0,
            "pipeline.triple_lookups": sum(n[k] for k in lookups),
            "pipeline.triple_lookup_s": sum(t[k] for k in lookups),
            "pipeline.load_triples_s": t["CsvTripleSource.from_file"],
            "pipeline.load_rules_s": t["load_rules"],
            "diversity.entities": sum(sizes),
            "diversity.pairs": sum(k * (k - 1) // 2 for k in sizes),
            "diversity.compute_disparity_s": t["compute_disparity"],
            "diversity.stirling_delta_s": t["stirling_delta"],
            "diversity.compute_balance_s": t["compute_balance"],
        }
