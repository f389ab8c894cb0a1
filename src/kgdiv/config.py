"""Run configuration for fetch and score: endpoints, file paths, diversity params.

Configuration is one YAML file with explicit paths; endpoint URLs may
additionally be overridden through KGDIV_ENDPOINT_<DIALECT> environment
variables (dialect uppercased, dashes as underscores). Referenced files
must exist at load time; a missing file is a configuration error, not a
runtime one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path

from .diversity import DiversityParams
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
    """The settings `fetch` and `score` read from a config file."""

    endpoints: dict[str, EndpointConfig] = field(
        default_factory=lambda: dict(DEFAULT_ENDPOINTS)
    )
    rules_path: Path | None = None
    triples_path: Path | None = None
    alpha: float = 1.0
    beta: float = 1.0
    nel_endpoint: str | None = None

    def endpoint(self, dialect: str) -> EndpointConfig:
        try:
            base = self.endpoints[dialect]
        except KeyError:
            raise ConfigError(f"no endpoint configured for dialect {dialect!r}") from None
        override = env_endpoint_url(dialect)
        return replace(base, url=override) if override else base


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


_PATH_KEYS = {"rules": "rules_path", "triples": "triples_path"}

def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


_ENDPOINT_KEYS = {
    "url": _text,
    "page_size": int,
    "max_requests_per_second": float,
    "retry_limit": int,
    "timeout": float,
}

_DIVERSITY_KEYS = ("alpha", "beta", "nel_endpoint")


def _mapping(raw, what: str, known) -> dict:
    """`raw` as a mapping whose keys are all in `known`; None reads as empty."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} keys {sorted(unknown, key=str)}")
    return raw


def load_run_config(path: str | Path) -> RunConfig:
    import yaml  # only --config pays its import

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    raw = _mapping(raw, "config", {"endpoints", "diversity", *_PATH_KEYS})

    config = RunConfig()
    for key, attr in _PATH_KEYS.items():
        if raw.get(key) is None:
            continue
        if not isinstance(raw[key], str):
            raise ConfigError(f"configured {key} must be a file path")
        file_path = path.parent / raw[key]
        if not file_path.is_file():
            raise ConfigError(f"configured {key} file {file_path} does not exist")
        setattr(config, attr, file_path.resolve())

    for dialect, spec in _mapping(raw.get("endpoints"), "endpoints", DIALECTS).items():
        spec = _mapping(spec, f"endpoint {dialect}", _ENDPOINT_KEYS)
        try:
            config.endpoints[dialect] = replace(
                DEFAULT_ENDPOINTS[dialect],
                **{key: _ENDPOINT_KEYS[key](value) for key, value in spec.items()},
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad endpoint config for {dialect!r}: {exc}") from exc

    diversity = _mapping(raw.get("diversity"), "diversity", _DIVERSITY_KEYS)
    try:
        params = DiversityParams(
            alpha=float(diversity.get("alpha", config.alpha)),
            beta=float(diversity.get("beta", config.beta)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad diversity params: {exc}") from exc
    config.alpha, config.beta = params.alpha, params.beta
    if diversity.get("nel_endpoint"):
        config.nel_endpoint = str(diversity["nel_endpoint"])
    return config
