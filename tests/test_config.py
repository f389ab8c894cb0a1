"""Config loading: the accepted keys, what they set, and what is rejected."""

from __future__ import annotations

import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdiv.config import ConfigError, RunConfig, load_run_config
from kgdiv.sparql import DIALECTS
from tests.conftest import write_config

ENDPOINT_KEYS = ("url", "page_size", "max_requests_per_second", "retry_limit", "timeout")


def test_run_config_holds_only_what_commands_read():
    assert [f.name for f in fields(RunConfig)] == [
        "endpoints",
        "rules_path",
        "triples_path",
        "alpha",
        "beta",
        "nel_endpoint",
    ]


@pytest.mark.parametrize(
    "key, value",
    [
        ("url", "http://example.invalid/sparql"),
        ("page_size", 77),
        ("max_requests_per_second", 3.5),
        ("retry_limit", 5),
        ("timeout", 9.0),
    ],
    ids=ENDPOINT_KEYS,
)
def test_endpoint_setting_reaches_endpoint(tmp_path, key, value):
    config = load_run_config(
        write_config(tmp_path, f"endpoints:\n  wikidata:\n    {key}: {value}\n")
    )
    endpoint = config.endpoint("wikidata")
    assert getattr(endpoint, key) == value
    assert endpoint.dialect == "wikidata"
    # the other dialects keep their defaults
    assert config.endpoint("en-dbpedia") == RunConfig().endpoint("en-dbpedia")


@pytest.mark.parametrize("key", ["max_requests_per_second", "timeout"])
@pytest.mark.parametrize("value", [".nan", ".inf", "0", "-1"])
def test_endpoint_rate_and_timeout_must_be_positive_and_finite(tmp_path, key, value):
    path = write_config(tmp_path, f"endpoints:\n  wikidata:\n    {key}: {value}\n")
    with pytest.raises(ConfigError, match=f"{key} must be positive and finite"):
        load_run_config(path)


def test_env_url_override_keeps_configured_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("KGDIV_ENDPOINT_NL_DBPEDIA", "http://localhost:9/sparql")
    config = load_run_config(
        write_config(tmp_path, "endpoints:\n  nl-dbpedia:\n    page_size: 77\n    timeout: 4\n")
    )
    endpoint = config.endpoint("nl-dbpedia")
    assert endpoint.url == "http://localhost:9/sparql"
    assert (endpoint.page_size, endpoint.timeout) == (77, 4.0)


def test_paths_resolve_against_the_config_directory(tmp_path, fixture_dir):
    (tmp_path / "rules.csv").write_bytes((fixture_dir / "rules.csv").read_bytes())
    config = load_run_config(
        write_config(tmp_path, f"rules: rules.csv\ntriples: {fixture_dir / 'triples.csv'}\n")
    )
    assert config.rules_path == (tmp_path / "rules.csv").resolve()
    assert config.triples_path == (fixture_dir / "triples.csv").resolve()


def test_empty_file_gives_defaults(tmp_path):
    assert load_run_config(write_config(tmp_path, "")) == RunConfig()


# --- any mapping either loads or is a ConfigError ----------------------------

_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _keyed(keys, values):
    """Mappings over the given keys plus arbitrary ones."""
    return st.dictionaries(st.sampled_from(keys) | st.text(max_size=6), values, max_size=4)


# mostly accepted keys, so that loading gets past the first bad one
_configs = st.fixed_dictionaries(
    {},
    optional={
        "rules": st.just("rules.csv") | _values,
        "triples": st.just("rules.csv") | _values,
        "endpoints": _keyed([*DIALECTS, "mars"], _keyed([*ENDPOINT_KEYS, "pagesize"], _scalars))
        | _values,
        "diversity": _keyed(["alpha", "beta", "nel_endpoint", "metric"], _scalars) | _values,
    },
) | _keyed(["endpoints", "diversity", "map", "schedule", "output_dir"], _values)


@given(_configs)
@settings(max_examples=300, deadline=None)
def test_property_any_mapping_loads_or_is_a_config_error(raw):
    with tempfile.TemporaryDirectory() as directory:
        (Path(directory) / "rules.csv").write_text("pattern\n", encoding="utf-8")
        path = write_config(Path(directory), yaml.safe_dump(raw))
        try:
            config = load_run_config(path)
        except ConfigError:
            return
    assert isinstance(config, RunConfig)
    assert set(raw) <= {"endpoints", "diversity", "rules", "triples"}
