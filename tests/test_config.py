"""Config loading: the accepted keys, what they set, and what is rejected."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdiv.config import DEFAULT_ENDPOINTS, ConfigError, endpoint, load_run_config
from kgdiv.sparql import DIALECTS
from tests.conftest import write_config

ENDPOINT_KEYS = ("url", "page_size", "max_requests_per_second", "retry_limit", "timeout")


#: every key load_run_config can return: the option dests it fills, and endpoints
SETTINGS = {"endpoints", "rules", "triples", "alpha", "beta", "nel_endpoint"}


def test_a_file_setting_every_key_gives_only_what_commands_read(tmp_path):
    (tmp_path / "rules.csv").write_text("pattern\n", encoding="utf-8")
    config = load_run_config(
        write_config(
            tmp_path,
            "endpoints:\n  wikidata:\n    page_size: 7\n"
            "rules: rules.csv\ntriples: rules.csv\n"
            "diversity:\n  alpha: 0.5\n  beta: 2\n  nel_endpoint: http://localhost:9/\n",
        )
    )
    assert set(config) == SETTINGS


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
    configured = endpoint("wikidata", config["endpoints"])
    assert getattr(configured, key) == value
    assert configured.dialect == "wikidata"
    # the other dialects keep their defaults
    assert endpoint("en-dbpedia", config["endpoints"]) == DEFAULT_ENDPOINTS["en-dbpedia"]


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
    configured = endpoint("nl-dbpedia", config["endpoints"])
    assert configured.url == "http://localhost:9/sparql"
    assert (configured.page_size, configured.timeout) == (77, 4.0)


def test_paths_resolve_against_the_config_directory(tmp_path, fixture_dir):
    (tmp_path / "rules.csv").write_bytes((fixture_dir / "rules.csv").read_bytes())
    config = load_run_config(
        write_config(tmp_path, f"rules: rules.csv\ntriples: {fixture_dir / 'triples.csv'}\n")
    )
    assert config == {
        "rules": (tmp_path / "rules.csv").resolve(),
        "triples": (fixture_dir / "triples.csv").resolve(),
    }


def test_empty_file_sets_nothing(tmp_path):
    assert load_run_config(write_config(tmp_path, "")) == {}


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
    assert set(config) <= SETTINGS
    assert set(raw) <= {"endpoints", "diversity", "rules", "triples"}
