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

The store keeps no dataset in memory, neither its text nor its bindings.
Opening a dataset reads the members before its bindings array. A page
opens the file, seeks to the byte offset of the nearest element whose
start is known, and reads on in CHUNK-byte chunks through an incremental
UTF-8 decoder, decoding the elements with json's C scanner and noting
where each one starts. It yields each binding it is asked for as soon as
the delimiter after it is checked, and closes the file when it ends or
is abandoned; a synthetic dataset makes only the page's bindings. Keys,
member values and elements are read by one step: a value, and the
delimiter after it. A value or delimiter cut off by the end of a chunk
is scanned again once the next chunk is read, so a fault counts only
where the file has no more bytes. The store only finds a fault: its
message is json's own, worded and placed as in the whole file, which is
then decoded once with each object let go. A page asked for again is
decoded again. So the file is checked as the pages reach it: bad JSON
or a byte that is not UTF-8 in a later element, or after the array, is
found by the request for the page that gets there, and execute_query's
rows, read to the end, find it before they end.

The in-process transport (no sockets) hands each page straight to
sparql.parse_results, whose rows are parsed as the bindings are decoded
and reach the snapshot CSV one at a time: nothing is encoded only to be
decoded again, and no page is held whole. At 100k politicians (a 76 MB
dataset) one `fetch` peaks at about 57 MB, most of it the one key per
distinct row that execute_query keeps to drop repeats.
The tests serve the same store over HTTP with a local server speaking the
SPARQL protocol (tests/fixture_server.py), which decodes each page and
encodes the document for the wire.
"""

from __future__ import annotations

import codecs
import json
import re
import sys
import threading
from array import array
from collections.abc import Iterator
from pathlib import Path
from urllib.parse import urlparse

from .csvformat import iso_date
from .sparql import DIALECTS, QueryTransportError

TEMPLATE_MARK = re.compile(r"#template=(\S+)")
PAGE_MARK = re.compile(r"\bLIMIT (\d+) OFFSET (\d+)\s*$")

#: the bytes a dataset file is read in at a time
CHUNK = 64 * 1024

_SCAN = json.JSONDecoder().scan_once
_WS = re.compile(r"[ \t\n\r]*")
#: the whitespace, delimiter and whitespace that follow a value
_AFTER = re.compile(r"[ \t\n\r]*([,:\]}]?)[ \t\n\r]*")
#: the dataset keys that must not repeat, as json's last-one-wins would
#: change pages already served
_KEYS = ("variables", "bindings", "synthetic")


class _Text:
    """A fixture file's text from a byte offset on, decoded as it is read.

    Positions count characters from that offset. `text` holds those from
    position `first` on: `more` lets go of the text before a position and
    reads on. A value cut off where the text read so far ends is scanned
    again once more is read, so a fault counts only at the end of the file.
    """

    def __init__(self, path: Path, start: int):
        self.path = path
        self.text = ""
        self.first = 0
        self.eof = False
        self._file = open(path, "rb")
        self._file.seek(start)
        self._decode = codecs.getincrementaldecoder("utf-8")().decode
        self._ascii = True
        #: a position, and the byte offset of its character
        self._mark, self._byte = 0, start

    def __enter__(self) -> _Text:
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def more(self, pos: int) -> None:
        """Let go of the text before `pos` and read a chunk, or as many
        chunks as the text kept is long: a value scanned again as it grows
        is then read in time linear in its length."""
        self.offset(pos)
        kept = self.text[pos - self.first :]
        pieces = [kept]
        read = 0
        try:
            while read <= len(kept) and not self.eof:
                data = self._file.read(CHUNK)
                self.eof = not data
                pieces.append(self._decode(data, self.eof))
                read += len(data)
        except UnicodeDecodeError:
            raise _not_json(self.path) from None
        self.text = "".join(pieces)
        self.first = pos
        self._ascii = self.text.isascii()

    def offset(self, pos: int) -> int:
        """The byte offset of the character at `pos`, at or after the
        position last asked for and counted on from there."""
        if self._ascii:
            self._byte += pos - self._mark
        else:
            first = self.first
            self._byte += len(self.text[self._mark - first : pos - first].encode())
        self._mark = pos
        return self._byte

    def ws(self, pos: int) -> int:
        """The position of the first character from `pos` on that is not
        whitespace, or of the end of the file if there is none."""
        start = pos
        while True:
            pos = _WS.match(self.text, pos - self.first).end() + self.first
            if pos < self.first + len(self.text) or self.eof:
                return pos
            self.more(start)

    def peek(self, pos: int) -> str:
        """The character at `pos`, read already, or "" at the end of the file."""
        i = pos - self.first
        return self.text[i : i + 1]

    def value(self, pos: int) -> tuple[object, str, int]:
        """The JSON value at `pos`; the ",", ":", "]" or "}" after it (""
        for none); and the position after that delimiter and the
        whitespace that follows it. It reads on until the character after
        that whitespace is read and, where that is not a delimiter, three
        characters past the value; or to the end of the file. Either shows
        that a number is whole, and a missing delimiter is found without
        reading on to the end."""
        while True:
            try:
                value, end = _SCAN(self.text, pos - self.first)
            except (StopIteration, ValueError):
                if self.eof:
                    raise _not_json(self.path) from None
            else:
                after = _AFTER.match(self.text, end)
                delimiter, read = after.group(1), len(self.text)
                if after.end() < read and (delimiter or end + 2 < read) or self.eof:
                    return value, delimiter, after.end() + self.first
            self.more(pos)


class Dataset:
    """One fixture dataset: its variables, and its bindings a page at a time."""

    def __init__(self, path: Path):
        self.path = path
        self.variables: list[str] | None = None
        self._synthetic: tuple[int, dict] | None = None
        #: the byte offset of each bindings element found so far
        self._starts = array("q")
        #: the number of bindings, once the end of the document is checked
        self._count: int | None = None
        #: the dataset keys named before the bindings array
        self._keys_before: frozenset = frozenset()
        self._lock = threading.Lock()
        with _Text(path, 0) as text:
            pos = text.ws(0)
            if text.peek(pos) != "{":
                # a JSON document of another type, or none: say which
                _read_json(path)
                raise self._shape("is not an object with a list of string variables")
            self._members(text, "{", text.ws(pos + 1), set())

    def page(self, offset: int, limit: int | None) -> Iterator[dict]:
        """The bindings offset .. offset + limit - 1 (to the end without a
        limit), each decoded afresh as it is asked for."""
        stop = None if limit is None else offset + limit
        if self._synthetic is not None:
            count, proto = self._synthetic
            return (
                {
                    var: {
                        k: v.replace("{n}", str(n)) if isinstance(v, str) else v
                        for k, v in term.items()
                    }
                    for var, term in proto.items()
                }
                for n in range(offset, count if stop is None else min(stop, count))
            )
        with self._lock:
            if self._count is not None and offset >= self._count:
                return iter(())
            # from the nearest element whose start is known
            index = min(offset, len(self._starts) - 1)
            start = self._starts[index]
        return self._page(index, start, offset, stop)

    def _page(self, index: int, start: int, offset: int, stop: int | None) -> Iterator[dict]:
        # the file is open while the page is: until it ends or is closed
        with _Text(self.path, start) as text:
            yield from self._decode(text, 0, index, offset, stop)

    def _decode(
        self, text: _Text, pos: int, index: int, offset: int, stop: int | None
    ) -> Iterator[dict]:
        """Decode the elements from `index`, at `pos` of `text`, up to
        `stop` (or the array's end), and give those from `offset` on, each
        once the delimiter after it is checked."""
        first = index
        # the starts of the elements after the first, found on the way
        found = array("q")
        try:
            while stop is None or index < stop:
                element, delimiter, pos = text.value(pos)
                if delimiter == ",":
                    found.append(text.offset(pos))
                elif delimiter == "]":
                    self._members(text, text.peek(pos), text.ws(pos + 1), set(self._keys_before))
                    with self._lock:
                        self._count = index + 1
                else:
                    raise _not_json(self.path)
                if index >= offset:
                    yield element
                if delimiter == "]":
                    return
                index += 1
        finally:
            with self._lock:
                self._starts.extend(found[len(self._starts) - first - 1 :])

    def _members(self, text: _Text, delimiter: str, pos: int, seen: set) -> None:
        """Read the dataset object's members to the end of the document,
        from `delimiter` ("{" at the object's start, else the one after a
        member's value) and `pos`, after it and its whitespace. A bindings
        array after the variables is left to the pages."""
        if delimiter == "{" and text.peek(pos) == "}":
            delimiter, pos = "}", text.ws(pos + 1)
        while delimiter in ("{", ","):
            key, delimiter, pos = text.value(pos)
            if not isinstance(key, str) or delimiter != ":":
                raise _not_json(self.path)
            if key in _KEYS:
                if key in seen:
                    raise self._shape(f"names {key!r} twice")
                seen.add(key)
                if {"bindings", "synthetic"} <= seen:
                    raise self._shape("has both bindings and synthetic")
            if key == "bindings" and text.peek(pos) == "[":
                first = text.ws(pos + 1)
                if text.peek(first) == "]":
                    self._count = 0
                    pos = text.ws(first + 1)
                    delimiter, pos = text.peek(pos), text.ws(pos + 1)
                    continue
                self._starts.append(text.offset(first))
                self._keys_before = frozenset(seen)
                if self.variables is None:
                    # the variables come later: decode to the array's end,
                    # and keep no element
                    for _ in self._decode(text, first, 0, sys.maxsize, None):
                        pass
                return
            value, delimiter, pos = text.value(pos)
            if key == "variables":
                if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                    raise self._shape("is not an object with a list of string variables")
                self.variables = value
            elif key == "synthetic":
                self._synthetic = self._checked_synthetic(value)
            elif key == "bindings":
                raise self._shape("has no list of bindings")
        if delimiter != "}" or text.peek(pos):
            raise _not_json(self.path)
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
            raise FileNotFoundError(f"no fixture dataset {path}")
        opened = Dataset(path)
        with self._lock:
            return self._datasets.setdefault(key, opened)

    def respond(self, dialect: str, query: str) -> dict:
        """Answer one paged SPARQL query with a JSON results document whose
        bindings are decoded one at a time, as they are iterated."""
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


def _read_json(path: Path, object_pairs_hook=None):
    try:
        return json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=object_pairs_hook)
    except ValueError as exc:
        raise ValueError(f"fixture file {path} is not JSON: {exc}") from None


def _not_json(path: Path) -> ValueError:
    """The error of a fixture file found not to be JSON: json's own, worded
    and placed as in the whole file read as _read_json reads it. Each
    object decodes to None, so no more than the text is held."""
    try:
        _read_json(path, lambda pairs: None)
    except ValueError as exc:
        return exc
    return ValueError(f"fixture file {path} changed while it was read")


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
