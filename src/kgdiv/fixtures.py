"""Offline query backends serving recorded result sets.

A fixture directory contains one JSON dataset per (dialect, template) and
an optional manifest with the snapshot stamp:

    manifest.json                 {"retrieved_at": "2022-05-27"}
    en-dbpedia/politicians.json   {"variables": [...], "bindings": [...]}
    wikidata/belgian_chamber_members.json
        {"variables": ["member"],
         "synthetic": {"count": 2996,
                       "binding": {"member": {"type": "uri",
                                              "value": "http://x/m{n}"}}}}

Bindings use the SPARQL JSON results encoding. The synthetic form expands
{n} over 0..count-1, which keeps large recorded row counts out of the
repository while still exercising paging and parsing. A file that does
not have this shape is rejected with a ValueError that names it.

The store answers each LIMIT/OFFSET page with the decoded results
document, and the in-process transport (no sockets) hands that document
straight to sparql.parse_results: nothing is encoded only to be decoded
again. Its bindings are the store's cached objects, which the parser only
reads. The tests serve the same store over HTTP with a local server
speaking the SPARQL protocol (tests/fixture_server.py), which encodes each
document for the wire.
"""

from __future__ import annotations

import json
import re
import threading
from datetime import date
from pathlib import Path
from urllib.parse import urlparse

from .sparql import DIALECTS, QueryTransportError

TEMPLATE_MARK = re.compile(r"#template=(\S+)")
PAGE_MARK = re.compile(r"\bLIMIT (\d+) OFFSET (\d+)\s*$")


class FixtureStore:
    """Loads fixture datasets and answers paged queries against them."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        if not self.root.is_dir():
            raise FileNotFoundError(f"fixture directory {self.root} does not exist")
        self._cache: dict[tuple[str, str], tuple[list[str], list[dict]]] = {}
        self._lock = threading.Lock()

    @property
    def retrieved_at(self) -> str:
        """The manifest's YYYY-MM-DD snapshot stamp, or "" (unstamped) without one."""
        path = self.root / "manifest.json"
        if not path.exists():
            return ""
        manifest = _read_json(path)
        if not isinstance(manifest, dict):
            raise ValueError(f"fixture manifest {path} is not a JSON object")
        stamp = manifest.get("retrieved_at")
        try:
            if stamp is None or stamp == "" or date.fromisoformat(stamp).isoformat() == stamp:
                return stamp or ""
        except (TypeError, ValueError):
            pass
        raise ValueError(
            f"fixture manifest {path}: retrieved_at {stamp!r} is not a YYYY-MM-DD date"
        )

    def dataset(self, dialect: str, template_id: str) -> tuple[list[str], list[dict]]:
        key = (dialect, template_id)
        with self._lock:
            if key in self._cache:
                return self._cache[key]
        path = self.root / dialect / f"{template_id}.json"
        if not path.exists():
            raise FileNotFoundError(f"no fixture dataset {dialect}/{template_id}")
        doc = _read_json(path)
        variables = doc.get("variables") if isinstance(doc, dict) else None
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise ValueError(
                f"fixture dataset {path} is not an object with a list of string variables"
            )
        if "synthetic" in doc:
            spec = doc["synthetic"]
            if not isinstance(spec, dict):
                raise ValueError(f"fixture dataset {path}: synthetic is not an object")
            count, proto = spec.get("count"), spec.get("binding")
            if type(count) is not int or count < 0:
                raise ValueError(
                    f"fixture dataset {path}: synthetic count {count!r} is not a "
                    "non-negative integer"
                )
            if not isinstance(proto, dict) or not all(isinstance(t, dict) for t in proto.values()):
                raise ValueError(
                    f"fixture dataset {path}: synthetic binding is not an object of term objects"
                )
            bindings = [
                {
                    var: {
                        k: v.replace("{n}", str(n)) if isinstance(v, str) else v
                        for k, v in term.items()
                    }
                    for var, term in proto.items()
                }
                for n in range(count)
            ]
        else:
            bindings = doc.get("bindings")
            if not isinstance(bindings, list):
                raise ValueError(f"fixture dataset {path} has no list of bindings")
        with self._lock:
            self._cache[key] = (variables, bindings)
        return variables, bindings

    def respond(self, dialect: str, query: str) -> dict:
        """Answer one paged SPARQL query with a decoded JSON results document."""
        mark = TEMPLATE_MARK.search(query)
        if not mark:
            raise QueryTransportError("fixture backend needs a #template= marker")
        template_id = mark.group(1)
        page = PAGE_MARK.search(query)
        if page:
            limit, offset = int(page.group(1)), int(page.group(2))
        else:
            limit, offset = None, 0
        variables, bindings = self.dataset(dialect, template_id)
        sliced = bindings[offset:] if limit is None else bindings[offset : offset + limit]
        return {
            "head": {"vars": variables},
            "results": {"bindings": sliced},
        }


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"fixture file {path} is not JSON: {exc}") from None


def _dialect_from_url(url: str) -> str:
    path = urlparse(url).path
    segments = [s for s in path.split("/") if s]
    for segment in segments:
        if segment in DIALECTS:
            return segment
    raise QueryTransportError(f"cannot infer dialect from fixture url {url!r}")


class FixtureTransport:
    """In-process transport; plugs into execute_query without sockets."""

    def __init__(self, store: FixtureStore):
        self.store = store

    def __call__(self, url: str, query: str, accept: str, timeout: float) -> dict:
        return self.store.respond(_dialect_from_url(url), query)
