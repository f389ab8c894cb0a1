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
repository while still exercising paging and parsing. A dataset names
each of "variables", "bindings" and "synthetic" at most once, and has
bindings or synthetic, not both. A file that does not have this shape is
rejected with a ValueError that names it.

The store decodes a dataset a page at a time. It keeps the file's text
and decodes only the elements of the bindings array that a LIMIT/OFFSET
page asks for, element by element with json's C scanner, remembering
where each element starts; a synthetic dataset makes only the page's
slice. A page asked for again is decoded again. So the bindings array is
checked as the pages reach it: bad JSON in a later element, or after the
array, is found by the request for the page that gets there, and
execute_query, which pages to the end, finds it before it returns.

The in-process transport (no sockets) hands each decoded page straight to
sparql.parse_results: nothing is encoded only to be decoded again. The
tests serve the same store over HTTP with a local server speaking the
SPARQL protocol (tests/fixture_server.py), which encodes each document for
the wire.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from urllib.parse import urlparse

from .csvformat import iso_date
from .sparql import DIALECTS, QueryTransportError

TEMPLATE_MARK = re.compile(r"#template=(\S+)")
PAGE_MARK = re.compile(r"\bLIMIT (\d+) OFFSET (\d+)\s*$")

_SCAN = json.JSONDecoder().scan_once
_WS = re.compile(r"[ \t\n\r]*")
#: the whitespace, delimiter and whitespace that follow an array element
_AFTER_ELEMENT = re.compile(r"[ \t\n\r]*([,\]]?)[ \t\n\r]*")
#: the dataset keys that must not repeat, as json's last-one-wins would
#: change pages already served
_KEYS = ("variables", "bindings", "synthetic")


class Dataset:
    """One fixture dataset: its variables, and its bindings a page at a time."""

    def __init__(self, path: Path):
        self.path = path
        self.variables: list[str] | None = None
        self._synthetic: tuple[int, dict] | None = None
        #: the text offset of each bindings element found so far
        self._starts: list[int] = []
        #: the number of bindings, once the end of the document is checked
        self._count: int | None = None
        #: the dataset keys named before the bindings array
        self._keys_before: frozenset = frozenset()
        self._lock = threading.Lock()
        try:
            self._text = path.read_text(encoding="utf-8")
        except ValueError as exc:
            raise ValueError(f"fixture file {path} is not JSON: {exc}") from None
        pos = _WS.match(self._text).end()
        if not self._text.startswith("{", pos):
            # a JSON document of another type, or none: say which
            _read_json(path)
            raise self._shape("is not an object with a list of string variables")
        self._members(pos + 1, after_value=False, seen=set())

    def page(self, offset: int, limit: int | None) -> list:
        """The bindings offset .. offset + limit - 1 (to the end without a
        limit), decoded afresh."""
        stop = None if limit is None else offset + limit
        if self._synthetic is not None:
            count, proto = self._synthetic
            return [
                {
                    var: {
                        k: v.replace("{n}", str(n)) if isinstance(v, str) else v
                        for k, v in term.items()
                    }
                    for var, term in proto.items()
                }
                for n in range(offset, count if stop is None else min(stop, count))
            ]
        with self._lock:
            known = len(self._starts)
            count = self._count
        if count is not None and offset >= count:
            return []
        # from the nearest element whose start is known
        return self._decode(min(offset, known - 1), offset, stop)

    def _decode(self, index: int, offset: int, stop: int | None) -> list:
        """Decode the elements from `index`, whose start is known, up to
        `stop` (or the array's end), and give those from `offset` on."""
        text, first = self._text, index
        pos = self._starts[index]
        # the starts of the elements after the first, found on the way
        found: list[int] = []
        kept = []
        try:
            while stop is None or index < stop:
                element, end = _SCAN(text, pos)
                if index >= offset:
                    kept.append(element)
                index += 1
                after = _AFTER_ELEMENT.match(text, end)
                delimiter = after.group(1)
                if delimiter == ",":
                    pos = after.end()
                    found.append(pos)
                    continue
                if delimiter != "]":
                    raise self._syntax("Expecting ',' delimiter", after.start(1))
                self._members(after.start(1) + 1, after_value=True, seen=set(self._keys_before))
                with self._lock:
                    self._count = index
                break
        except StopIteration as exc:
            raise self._syntax("Expecting value", exc.value) from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"fixture file {self.path} is not JSON: {exc}") from None
        finally:
            with self._lock:
                self._starts.extend(found[len(self._starts) - first - 1 :])
        return kept

    def _members(self, pos: int, after_value: bool, seen: set) -> None:
        """Read the dataset object's members from `pos`, just after its
        "{" or after a member's value, to the end of the document. A
        bindings array after the variables is left to the pages."""
        text = self._text
        pos = _WS.match(text, pos).end()
        if not after_value and text.startswith("}", pos):
            return self._end(pos + 1)
        while True:
            if after_value:
                if text.startswith("}", pos):
                    return self._end(pos + 1)
                if not text.startswith(",", pos):
                    raise self._syntax("Expecting ',' delimiter", pos)
                pos = _WS.match(text, pos + 1).end()
            after_value = True
            if not text.startswith('"', pos):
                raise self._syntax("Expecting property name enclosed in double quotes", pos)
            key, pos = self._scan(pos)
            pos = _WS.match(text, pos).end()
            if not text.startswith(":", pos):
                raise self._syntax("Expecting ':' delimiter", pos)
            pos = _WS.match(text, pos + 1).end()
            if key in _KEYS:
                if key in seen:
                    raise self._shape(f"names {key!r} twice")
                seen.add(key)
                if {"bindings", "synthetic"} <= seen:
                    raise self._shape("has both bindings and synthetic")
            if key == "bindings" and text.startswith("[", pos):
                first = _WS.match(text, pos + 1).end()
                if text.startswith("]", first):
                    self._count = 0
                    pos = _WS.match(text, first + 1).end()
                    continue
                self._starts.append(first)
                self._keys_before = frozenset(seen)
                if self.variables is not None:
                    return
                # the variables come later: decode to the array's end, and
                # drop every element (no file has more than it has characters)
                self._decode(0, len(text), None)
                return
            value, pos = self._scan(pos)
            pos = _WS.match(text, pos).end()
            if key == "variables":
                if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                    raise self._shape("is not an object with a list of string variables")
                self.variables = value
            elif key == "synthetic":
                self._synthetic = self._checked_synthetic(value)
            elif key == "bindings":
                raise self._shape("has no list of bindings")

    def _end(self, pos: int) -> None:
        if _WS.match(self._text, pos).end() != len(self._text):
            raise self._syntax("Extra data", pos)
        if self.variables is None:
            raise self._shape("is not an object with a list of string variables")
        if self._synthetic is None and not self._starts and self._count is None:
            raise self._shape("has no list of bindings")

    def _checked_synthetic(self, spec) -> tuple[int, dict]:
        if not isinstance(spec, dict):
            raise self._shape("synthetic is not an object", ":")
        count, proto = spec.get("count"), spec.get("binding")
        if type(count) is not int or count < 0:
            raise self._shape(f"synthetic count {count!r} is not a non-negative integer", ":")
        if not isinstance(proto, dict) or not all(isinstance(t, dict) for t in proto.values()):
            raise self._shape("synthetic binding is not an object of term objects", ":")
        return count, proto

    def _scan(self, pos: int) -> tuple[object, int]:
        try:
            return _SCAN(self._text, pos)
        except StopIteration as stop:
            raise self._syntax("Expecting value", stop.value) from None
        except ValueError as exc:
            raise ValueError(f"fixture file {self.path} is not JSON: {exc}") from None

    def _syntax(self, message: str, pos: int) -> ValueError:
        exc = json.JSONDecodeError(message, self._text, pos)
        return ValueError(f"fixture file {self.path} is not JSON: {exc}")

    def _shape(self, message: str, sep: str = "") -> ValueError:
        return ValueError(f"fixture dataset {self.path}{sep} {message}")


class FixtureStore:
    """Opens fixture datasets and answers paged queries against them."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        if not self.root.is_dir():
            raise FileNotFoundError(f"fixture directory {self.root} does not exist")
        self._datasets: dict[tuple[str, str], Dataset] = {}
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
        if stamp is None or stamp == "":
            return ""
        try:
            if isinstance(stamp, str):
                iso_date(stamp)
                return stamp
        except ValueError:
            pass
        raise ValueError(
            f"fixture manifest {path}: retrieved_at {stamp!r} is not a YYYY-MM-DD date"
        )

    def dataset(self, dialect: str, template_id: str) -> Dataset:
        """The dataset of one template, opened on first use."""
        key = (dialect, template_id)
        with self._lock:
            if key in self._datasets:
                return self._datasets[key]
        path = self.root / dialect / f"{template_id}.json"
        if not path.exists():
            raise FileNotFoundError(f"no fixture dataset {dialect}/{template_id}")
        opened = Dataset(path)
        with self._lock:
            return self._datasets.setdefault(key, opened)

    def respond(self, dialect: str, query: str) -> dict:
        """Answer one paged SPARQL query with a decoded JSON results document."""
        mark = TEMPLATE_MARK.search(query)
        if not mark:
            raise QueryTransportError("fixture backend needs a #template= marker")
        page = PAGE_MARK.search(query)
        if page:
            limit, offset = int(page.group(1)), int(page.group(2))
        else:
            limit, offset = None, 0
        dataset = self.dataset(dialect, mark.group(1))
        return {
            "head": {"vars": dataset.variables},
            "results": {"bindings": dataset.page(offset, limit)},
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
