"""Run configuration: endpoints, file paths, schedules, diversity params.

Configuration is one YAML file with explicit paths; endpoint URLs may
additionally be overridden through KGDIV_ENDPOINT_<DIALECT> environment
variables (dialect uppercased, dashes as underscores). Referenced files
must exist at load time; a missing file is a configuration error, not a
runtime one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .audit import BASELINE_POLICIES, DEFAULT_SCHEDULE
from .sparql import DIALECTS, EndpointConfig


class ConfigError(Exception):
    """Unusable configuration: unknown keys, missing files, bad values."""


DEFAULT_ENDPOINTS: dict[str, EndpointConfig] = {
    "en-dbpedia": EndpointConfig(
        url="https://dbpedia.org/sparql",
        dialect="en-dbpedia",
        page_size=1000,
        max_requests_per_second=2.0,
        retry_limit=2,
    ),
    "nl-dbpedia": EndpointConfig(
        url="https://nl.dbpedia.org/sparql",
        dialect="nl-dbpedia",
        page_size=1000,
        max_requests_per_second=2.0,
        retry_limit=2,
    ),
    "wikidata": EndpointConfig(
        url="https://query.wikidata.org/sparql",
        dialect="wikidata",
        page_size=500,
        max_requests_per_second=1.0,
        retry_limit=2,
    ),
}


def env_endpoint_url(dialect: str) -> str | None:
    return os.environ.get("KGDIV_ENDPOINT_" + dialect.upper().replace("-", "_"))


@dataclass
class RunConfig:
    endpoints: dict[str, EndpointConfig] = field(
        default_factory=lambda: dict(DEFAULT_ENDPOINTS)
    )
    template_catalog: Path | None = None
    map_path: Path | None = None
    parties_path: Path | None = None
    baseline_path: Path | None = None
    overrides_path: Path | None = None
    rules_path: Path | None = None
    triples_path: Path | None = None
    schedule: tuple[date, ...] = DEFAULT_SCHEDULE
    baseline_policy: str = "most-recent-preceding"
    alpha: float = 1.0
    beta: float = 1.0
    metric: str = "jaccard"
    nel_endpoint: str | None = None
    output_dir: Path = Path("out")

    def endpoint(self, dialect: str) -> EndpointConfig:
        try:
            base = self.endpoints[dialect]
        except KeyError:
            raise ConfigError(f"no endpoint configured for dialect {dialect!r}") from None
        override = env_endpoint_url(dialect)
        if override:
            base = EndpointConfig(
                url=override,
                dialect=base.dialect,
                page_size=base.page_size,
                max_requests_per_second=base.max_requests_per_second,
                retry_limit=base.retry_limit,
                timeout=base.timeout,
            )
        return base


def parse_schedule(raw: str) -> tuple[date, ...]:
    """Parse a comma-separated schedule of years or ISO dates (1 January
    is assumed for bare years)."""
    points = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            if len(item) == 4:
                points.append(date(int(item), 1, 1))
            else:
                points.append(date.fromisoformat(item))
        except ValueError as exc:
            raise ConfigError(f"bad schedule entry {item!r}: {exc}") from exc
    if not points:
        raise ConfigError("schedule is empty")
    return tuple(sorted(points))


_PATH_KEYS = {
    "map": "map_path",
    "parties": "parties_path",
    "baselines": "baseline_path",
    "overrides": "overrides_path",
    "rules": "rules_path",
    "triples": "triples_path",
    "templates": "template_catalog",
}


def load_run_config(path: str | Path) -> RunConfig:
    import yaml  # only --config pays its import

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    config = RunConfig()
    known = {"endpoints", "schedule", "baseline_policy", "diversity", "output_dir"} | set(
        _PATH_KEYS
    )
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")

    for key, attr in _PATH_KEYS.items():
        if key in raw and raw[key] is not None:
            file_path = (path.parent / raw[key]).resolve()
            if not file_path.exists():
                raise ConfigError(f"configured {key} file {file_path} does not exist")
            setattr(config, attr, file_path)

    for dialect, spec in (raw.get("endpoints") or {}).items():
        if dialect not in DIALECTS:
            raise ConfigError(f"unknown endpoint dialect {dialect!r}")
        base = DEFAULT_ENDPOINTS[dialect]
        try:
            config.endpoints[dialect] = EndpointConfig(
                url=spec.get("url", base.url),
                dialect=dialect,
                page_size=int(spec.get("page_size", base.page_size)),
                max_requests_per_second=float(
                    spec.get("max_requests_per_second", base.max_requests_per_second)
                ),
                retry_limit=int(spec.get("retry_limit", base.retry_limit)),
                timeout=float(spec.get("timeout", base.timeout)),
            )
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"bad endpoint config for {dialect!r}: {exc}") from exc

    if "schedule" in raw and raw["schedule"]:
        entries = raw["schedule"]
        if isinstance(entries, str):
            config.schedule = parse_schedule(entries)
        else:
            config.schedule = parse_schedule(",".join(str(e) for e in entries))

    if "baseline_policy" in raw and raw["baseline_policy"]:
        policy = str(raw["baseline_policy"])
        if policy not in BASELINE_POLICIES:
            raise ConfigError(f"unknown baseline policy {policy!r}")
        config.baseline_policy = policy

    diversity = raw.get("diversity") or {}
    try:
        config.alpha = float(diversity.get("alpha", config.alpha))
        config.beta = float(diversity.get("beta", config.beta))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad diversity params: {exc}") from exc
    config.metric = str(diversity.get("metric", config.metric))
    if diversity.get("nel_endpoint"):
        config.nel_endpoint = str(diversity["nel_endpoint"])

    if "output_dir" in raw and raw["output_dir"]:
        config.output_dir = Path(raw["output_dir"])
    return config
