"""The config file of fetch and score: endpoints, file paths, diversity params.

A config file is one YAML file with explicit paths; each value it sets is
the default of the option it names, so flags win. A null value reads as
unset, like an absent key. KGDIV_ENDPOINT_<DIALECT> environment variables
(dialect uppercased, dashes as underscores) win over a configured endpoint
url. Referenced files must exist at load time; a missing file, an unknown
key or a value of the wrong type is a configuration error, not a runtime
one.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from pathlib import Path

from . import DIALECTS, ConfigError
from .sparql import EndpointConfig

#: one per dialect; EndpointConfig rejects a dialect not in DIALECTS
DEFAULT_ENDPOINTS: dict[str, EndpointConfig] = {
    dialect: EndpointConfig(f"https://{host}/sparql", dialect, page_size, rate, retry_limit=2)
    for dialect, host, page_size, rate in (
        ("en-dbpedia", "dbpedia.org", 1000, 2.0),
        ("nl-dbpedia", "nl.dbpedia.org", 1000, 2.0),
        ("wikidata", "query.wikidata.org", 500, 1.0),
    )
}


def endpoint(dialect: str, configured: Mapping[str, EndpointConfig] | None) -> EndpointConfig:
    """The endpoint `fetch` queries: the configured one for `dialect`, else
    its default, with KGDIV_ENDPOINT_<DIALECT> winning over the url."""
    base = (configured or {}).get(dialect) or DEFAULT_ENDPOINTS[dialect]
    override = os.environ.get("KGDIV_ENDPOINT_" + dialect.upper().replace("-", "_"))
    # rebuilt through the constructor, which checks every field
    return EndpointConfig(**{**base._asdict(), "url": override}) if override else base


_PATH_KEYS = ("rules", "triples")


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


# a number of the wrong type is rejected, not cast: a cast would read 7.9
# as 7 and true as 1; a string is parsed, as PyYAML reads 1e3 as one
def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return int(value)


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


_ENDPOINT_KEYS = {
    "url": _text,
    "page_size": _integer,
    "max_requests_per_second": _number,
    "retry_limit": _integer,
    "timeout": _number,
}

_DIVERSITY_KEYS = {"alpha": _number, "beta": _number, "nel_endpoint": _text}


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


def _converted(raw: dict, converters: dict, what: str) -> dict:
    """Each value of `raw` but a null one through its key's converter; a
    failure names the key."""
    converted = {}
    for key, value in raw.items():
        if value is None:
            continue
        try:
            converted[key] = converters[key](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{what}: {key}: {exc}") from exc
    return converted


def load_run_config(path: str | Path) -> dict:
    """The settings a config file sets, and only those, keyed by the dest of
    the option each is the default for: `rules` and `triples` (resolved
    paths), `alpha`, `beta` and `nel_endpoint`; plus `endpoints`, which maps
    a dialect to its EndpointConfig."""
    import yaml  # only --config pays its import

    from .diversity import DiversityParams

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    raw = _mapping(raw, "config", {"endpoints", "diversity", *_PATH_KEYS})

    settings: dict = {}
    for key in _PATH_KEYS:
        if raw.get(key) is None:
            continue
        if not isinstance(raw[key], str):
            raise ConfigError(f"configured {key} must be a file path")
        file_path = path.parent / raw[key]
        if not file_path.is_file():
            raise ConfigError(f"configured {key} file {file_path} does not exist")
        settings[key] = file_path.resolve()

    endpoints = {}
    for dialect, spec in _mapping(raw.get("endpoints"), "endpoints", DIALECTS).items():
        what = f"bad endpoint config for {dialect!r}"
        spec = _mapping(spec, f"endpoint {dialect}", _ENDPOINT_KEYS)
        spec = _converted(spec, _ENDPOINT_KEYS, what)
        try:
            endpoints[dialect] = EndpointConfig(**{**DEFAULT_ENDPOINTS[dialect]._asdict(), **spec})
        except ValueError as exc:
            raise ConfigError(f"{what}: {exc}") from exc
    if endpoints:
        settings["endpoints"] = endpoints

    diversity = _mapping(raw.get("diversity"), "diversity", _DIVERSITY_KEYS)
    diversity = _converted(diversity, _DIVERSITY_KEYS, "bad diversity params")
    nel_endpoint = diversity.pop("nel_endpoint", None)
    try:
        DiversityParams(**diversity)
    except ValueError as exc:
        raise ConfigError(f"bad diversity params: {exc}") from exc
    settings.update(diversity)
    if nel_endpoint:
        settings["nel_endpoint"] = nel_endpoint
    return settings
