"""Config loading: the accepted keys, what they set, and what is rejected."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdiv import DIALECTS
from kgdiv.config import DEFAULT_ENDPOINTS, ConfigError, endpoint, load_run_config
from kgdiv.sparql import EndpointConfig
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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("page_size", "0", "page_size must be >= 1"),
        ("retry_limit", "-1", "retry_limit must be >= 0"),
    ],
)
def test_endpoint_page_size_and_retry_limit_are_checked(tmp_path, key, value, message):
    path = write_config(tmp_path, f"endpoints:\n  wikidata:\n    {key}: {value}\n")
    with pytest.raises(ConfigError, match=message):
        load_run_config(path)


_UNSET = {}
_DEFAULT_WIKIDATA = {"endpoints": {"wikidata": DEFAULT_ENDPOINTS["wikidata"]}}

#: key -> (a config setting it to null, what the file then sets)
_NULLS = {
    "rules": ("rules:\n", _UNSET),
    "triples": ("triples:\n", _UNSET),
    "endpoints": ("endpoints:\n", _UNSET),
    "diversity": ("diversity:\n", _UNSET),
    **{
        f"diversity.{key}": (f"diversity:\n  {key}:\n", _UNSET)
        for key in ("alpha", "beta", "nel_endpoint")
    },
    "endpoints.wikidata": ("endpoints:\n  wikidata:\n", _DEFAULT_WIKIDATA),
    **{
        f"endpoints.wikidata.{key}": (
            f"endpoints:\n  wikidata:\n    {key}:\n", _DEFAULT_WIKIDATA
        )
        for key in ENDPOINT_KEYS
    },
}


@pytest.mark.parametrize("key", list(_NULLS))
def test_null_value_reads_as_unset(tmp_path, key):
    text, sets = _NULLS[key]
    assert load_run_config(write_config(tmp_path, text)) == sets


def test_every_dialect_has_one_default_endpoint():
    assert set(DEFAULT_ENDPOINTS) == set(DIALECTS)
    assert all(config.dialect == dialect for dialect, config in DEFAULT_ENDPOINTS.items())


def test_env_url_override_rebuilds_a_checked_endpoint(monkeypatch):
    """The override goes through the constructor, so a record that skipped
    its checks through `_replace` is rejected."""
    monkeypatch.setenv("KGDIV_ENDPOINT_WIKIDATA", "http://localhost:9/sparql")
    unchecked = DEFAULT_ENDPOINTS["wikidata"]._replace(page_size=0)
    with pytest.raises(ValueError, match="page_size must be >= 1"):
        endpoint("wikidata", {"wikidata": unchecked})


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


# --- a config file builds the same endpoint as the constructor -----------------

_endpoint_values = {
    "url": st.none() | st.text(max_size=8),
    "page_size": st.none() | st.integers(-2, 2_000),
    "retry_limit": st.none() | st.integers(-2, 5),
    "max_requests_per_second": st.none() | st.integers(-1, 3) | st.floats(allow_nan=True),
    "timeout": st.none() | st.integers(-1, 3) | st.floats(allow_nan=True),
}


@given(st.fixed_dictionaries({}, optional=_endpoint_values))
@settings(max_examples=300, deadline=None)
def test_property_config_endpoint_equals_the_constructor_or_is_a_config_error(spec):
    """Values of the types a config file accepts as they are: the endpoint
    it loads equals the constructor's on the default with those values set
    (a null one left out), and what the constructor rejects is a ConfigError."""
    values = DEFAULT_ENDPOINTS["wikidata"]._asdict()
    values.update((key, value) for key, value in spec.items() if value is not None)
    try:
        direct = EndpointConfig(**values)
    except ValueError:
        direct = None
    with tempfile.TemporaryDirectory() as directory:
        path = write_config(Path(directory), yaml.safe_dump({"endpoints": {"wikidata": spec}}))
        try:
            loaded = load_run_config(path)["endpoints"]["wikidata"]
        except ConfigError:
            assert direct is None
            return
    assert loaded == direct
