"""SPARQL endpoint client: templated queries, paging, rate limiting, parsing.

Queries are issued with LIMIT/OFFSET pages until a short page comes back.
Each JSON binding is parsed once into a hashable tuple of its terms, and
that tuple is the key that deduplicates rows, a second safety net against
unstable OFFSET paging. A full page that adds no new row stops the query
with an error rather than paging forever. Per-endpoint request rates are
capped process-wide.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from urllib.parse import urlencode

from . import QueryError

DIALECTS = ("en-dbpedia", "nl-dbpedia", "wikidata")

RESULTS_JSON = "application/sparql-results+json"

DEFAULT_TIMEOUT = 30.0
RETRY_BACKOFF_BASE = 0.2


class QueryTransportError(QueryError):
    """The endpoint could not be reached or returned an HTTP error."""


class MalformedResultError(QueryError):
    """The endpoint's response body is not a valid result document."""


#: one bound variable: (variable, kind, value, datatype, language tag), where
#: kind is "uri", "bnode" or "literal" and an absent datatype or tag is ""
Term = tuple[str, str, str, str, str]

_KINDS = {"uri": "uri", "bnode": "bnode", "literal": "literal", "typed-literal": "literal"}


@dataclass(frozen=True)
class EndpointConfig:
    url: str
    dialect: str
    page_size: int = 1000
    max_requests_per_second: float = 2.0
    retry_limit: int = 2
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self) -> None:
        if self.dialect not in DIALECTS:
            raise ValueError(f"unknown dialect {self.dialect!r}")
        if self.page_size < 1:
            raise ValueError("page_size must be >= 1")
        # written so that nan fails too
        if not 0 < self.max_requests_per_second < math.inf:
            raise ValueError("max_requests_per_second must be positive and finite")
        if not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be positive and finite")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")


@dataclass(frozen=True)
class QueryTemplate:
    template_id: str
    dialect: str
    query_text: str


#: transport signature: (url, query, accept header, timeout) -> response body,
#: as bytes or as an in-process store's decoded results document
Transport = Callable[[str, str, str, float], bytes | Mapping]


def http_transport(url: str, query: str, accept: str, timeout: float) -> bytes:
    """Default SPARQL-protocol transport: GET, falling back to POST for
    long query strings."""
    import requests  # only live queries pay its import

    headers = {"Accept": accept}
    try:
        if len(query) < 1800:
            resp = requests.get(
                url, params={"query": query}, headers=headers, timeout=timeout
            )
        else:
            resp = requests.post(
                url,
                data=urlencode({"query": query}),
                headers={
                    **headers,
                    "Content-Type": "application/x-www-form-urlencoded",
                },
                timeout=timeout,
            )
    except requests.RequestException as exc:
        raise QueryTransportError(f"request to {url} failed: {exc}") from exc
    if resp.status_code != 200:
        raise QueryTransportError(
            f"endpoint {url} returned HTTP {resp.status_code}"
        )
    return resp.content


class RateLimiter:
    """Spaces request starts at least 1/rate seconds apart, across threads."""

    def __init__(self, max_per_second: float):
        self._interval = 1.0 / max_per_second
        self._lock = threading.Lock()
        self._next_slot = 0.0

    def wait(self) -> None:
        # a sleep may end late, so the next slot counts from the start
        # actually granted, never from the slot that was waited for
        while True:
            with self._lock:
                now = time.monotonic()
                if now >= self._next_slot:
                    self._next_slot = now + self._interval
                    return
                delay = self._next_slot - now
            time.sleep(delay)


_limiters: dict[tuple[str, float], RateLimiter] = {}
_limiters_lock = threading.Lock()


def _limiter_for(endpoint: EndpointConfig) -> RateLimiter:
    key = (endpoint.url, endpoint.max_requests_per_second)
    with _limiters_lock:
        limiter = _limiters.get(key)
        if limiter is None:
            limiter = RateLimiter(endpoint.max_requests_per_second)
            _limiters[key] = limiter
        return limiter


def execute_query(
    endpoint: EndpointConfig,
    template: QueryTemplate,
    transport: Transport | None = None,
) -> list[dict[str, str]]:
    """Run a query template with paging, dedup, rate limiting and retries.

    Returns one variable -> value mapping per distinct binding, in first-seen
    order. Bindings that differ only in a datatype or language tag are
    distinct, so they give two rows with the same values.
    """
    if template.dialect != endpoint.dialect:
        raise ValueError(
            f"template dialect {template.dialect!r} does not match endpoint "
            f"dialect {endpoint.dialect!r}"
        )
    send = transport or http_transport
    limiter = _limiter_for(endpoint)

    rows: dict[tuple[Term, ...], None] = {}
    offset = 0
    while True:
        paged = f"{template.query_text}\nLIMIT {endpoint.page_size} OFFSET {offset}"
        body = _send_with_retry(send, endpoint, paged, limiter)
        page = parse_results(body)
        before = len(rows)
        rows.update(dict.fromkeys(page))
        if len(page) < endpoint.page_size:
            break
        if len(rows) == before:
            raise MalformedResultError(
                f"endpoint {endpoint.url} returned a full page at offset {offset} "
                "with no new rows; it may ignore OFFSET"
            )
        offset += endpoint.page_size
    return [{var: value for var, _, value, _, _ in row} for row in rows]


def _send_with_retry(
    send: Transport, endpoint: EndpointConfig, query: str, limiter: RateLimiter
) -> bytes | Mapping:
    last_error: QueryTransportError | None = None
    for attempt in range(endpoint.retry_limit + 1):
        limiter.wait()
        try:
            return send(endpoint.url, query, RESULTS_JSON, endpoint.timeout)
        except QueryTransportError as exc:
            last_error = exc
            if attempt < endpoint.retry_limit:
                time.sleep(RETRY_BACKOFF_BASE * 2**attempt)
    raise last_error  # type: ignore[misc]


def parse_results(body: bytes | Mapping) -> list[tuple[Term, ...]]:
    """Parse a SPARQL JSON results document, as bytes or decoded (and then
    only read), into one variable-sorted tuple of terms per binding. Datatypes
    and language tags are kept; the hashable tuple is the binding's dedup key."""
    try:
        doc = body if isinstance(body, Mapping) else json.loads(body)
        declared = set(doc["head"]["vars"])
        bindings = doc["results"]["bindings"]
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedResultError(f"not a SPARQL JSON results document: {exc}") from exc
    rows = []
    try:
        for binding in bindings:
            row = []
            for var, term in binding.items():
                kind = _KINDS.get(term.get("type"))
                value = term.get("value")
                datatype = lang = ""
                if kind == "literal":
                    datatype = term.get("datatype") or ""
                    lang = term.get("xml:lang") or ""
                    if datatype and lang:
                        raise MalformedResultError(
                            f"literal {value!r} carries both a datatype and a language tag"
                        )
                    if type(datatype) is not str or type(lang) is not str:
                        raise MalformedResultError(
                            f"literal {value!r} with a non-string datatype or language tag"
                        )
                elif kind is None:
                    raise MalformedResultError(f"unknown binding kind {term.get('type')!r}")
                if type(value) is not str:
                    raise MalformedResultError(f"binding of {var!r} without a string value")
                row.append((var, kind, value, datatype, lang))
            if not declared.issuperset(binding):
                raise MalformedResultError(
                    f"binding of undeclared variables {sorted(set(binding) - declared)}"
                )
            row.sort()
            rows.append(tuple(row))
    except (AttributeError, TypeError) as exc:
        raise MalformedResultError(f"malformed binding: {exc}") from exc
    return rows
