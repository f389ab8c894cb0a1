"""Local HTTP server speaking the SPARQL protocol over a fixture store,
and a store that logs the requests it answers.

The tests use them to run the HTTP transport, paging and rate limiting
against real sockets, and a store that orders each answer as an endpoint
may, to page through tied rows. The server decodes each page the store
answers with and encodes the results document as JSON for the wire; the
CLI reads fixtures in-process through kgdiv.fixtures.FixtureTransport,
which skips that encoding.
"""

from __future__ import annotations

import json
import random
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple
from urllib.parse import parse_qs, urlparse

from kgdiv.fixtures import PAGE_MARK, FixtureStore, _dialect_from_url
from kgdiv.sparql import QueryTransportError


class Request(NamedTuple):
    monotonic: float
    limit: int  # -1 for an unpaged query
    offset: int


class RecordingStore(FixtureStore):
    """A fixture store that logs each request's arrival time and page."""

    def __init__(self, root):
        super().__init__(root)
        self.requests: list[Request] = []

    def respond(self, dialect: str, query: str) -> dict:
        page = PAGE_MARK.search(query)
        limit, offset = (int(page.group(1)), int(page.group(2))) if page else (-1, 0)
        self.requests.append(Request(time.monotonic(), limit, offset))
        return super().respond(dialect, query)


class TieShufflingStore(FixtureStore):
    """A fixture store that answers each request as an endpoint may: it
    sorts the whole dataset by the query's ORDER BY keys, unbound first,
    gives tied rows a new order drawn from `seed` each time, and then cuts
    the requested page. (The plain store ignores ORDER BY.)"""

    ORDER_BY = re.compile(r"^ORDER BY((?: \?\w+)+)$", re.MULTILINE)

    def __init__(self, root, seed: int):
        super().__init__(root)
        self.random = random.Random(seed)

    def respond(self, dialect: str, query: str) -> dict:
        page = PAGE_MARK.search(query)
        doc = super().respond(dialect, query[: page.start()] if page else query)
        rows = list(doc["results"]["bindings"])
        self.random.shuffle(rows)
        keys = [key[1:] for key in self.ORDER_BY.search(query).group(1).split()]
        rows.sort(key=lambda row: [row[key]["value"] if key in row else "" for key in keys])
        if page:
            limit, offset = int(page.group(1)), int(page.group(2))
            rows = rows[offset : offset + limit]
        doc["results"]["bindings"] = rows
        return doc


class FixtureServer:
    """Local HTTP server speaking the SPARQL protocol over the store.

    Endpoint URLs look like http://127.0.0.1:PORT/<dialect>/sparql. Serve a
    RecordingStore to log request arrival times for rate assertions.
    """

    def __init__(self, store: FixtureStore):
        self.store = store
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                parsed = urlparse(self.path)
                query = parse_qs(parsed.query).get("query", [""])[0]
                self._answer(parsed.path, query)

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                body = self.rfile.read(length).decode("utf-8")
                query = parse_qs(body).get("query", [""])[0]
                self._answer(urlparse(self.path).path, query)

            def _answer(self, path: str, query: str):
                try:
                    dialect = _dialect_from_url(path)
                    doc = outer.store.respond(dialect, query)
                    # the store decodes a page as it is iterated
                    doc["results"]["bindings"] = list(doc["results"]["bindings"])
                except (QueryTransportError, OSError, ValueError) as exc:
                    message = str(exc).encode("utf-8")
                    self.send_response(400)
                    self.send_header("Content-Length", str(len(message)))
                    self.end_headers()
                    self.wfile.write(message)
                    return
                payload = json.dumps(doc).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/sparql-results+json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def url_for(self, dialect: str) -> str:
        return f"{self.base_url}/{dialect}/sparql"

    def __enter__(self) -> "FixtureServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
