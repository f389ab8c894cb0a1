"""SPARQL endpoint client: templated queries, paging, rate limiting, parsing.

Queries are issued with LIMIT/OFFSET pages until a short page comes back.
The rows stream: a page is requested when the rows before it have been
read, and each JSON binding is parsed, as it is read, into one compact
row: its values in the variable order, and the kind, datatype and
language tag of each term, as one tuple shared by every binding of the
same shape. Rows are deduplicated, a second safety net against unstable
OFFSET paging, on that pair; the query keeps, per tuple of term shapes,
only each distinct row's values joined on NUL, and gives the values. A
full page that adds no new row stops the query with an error rather than
paging forever. Per-endpoint request rates are capped process-wide.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping
from urllib.parse import urlencode

from . import DIALECTS, QueryError

RESULTS_JSON = "application/sparql-results+json"

DEFAULT_TIMEOUT = 30.0
RETRY_BACKOFF_BASE = 0.2


class QueryTransportError(QueryError):
    """The endpoint could not be reached or returned an HTTP error."""


class MalformedResultError(QueryError):
    """The endpoint's response body is not a valid result document."""


#: one parsed binding: its values in the variable order ("" where unbound),
#: and per variable the (kind, datatype, language tag) of its term, or None
#: where unbound; kind is "uri", "bnode" or "literal", and an absent
#: datatype or tag is "". The pair is the binding's dedup key.
Row = tuple[tuple[str, ...], tuple[tuple[str, str, str] | None, ...]]

_KINDS = {"uri": "uri", "bnode": "bnode", "literal": "literal", "typed-literal": "literal"}

#: the variables a SELECT names; SELECT * and expressions do not match.
#: re compiles it on the first query, so an import compiles no regex
_SELECT = r"(?im)^\s*SELECT\s+(?:(?:DISTINCT|REDUCED)\s+)?((?:\?\w+\s+)+)WHERE\b"


class EndpointConfig(
    namedtuple(
        "EndpointConfig",
        "url dialect page_size max_requests_per_second retry_limit timeout",
        defaults=(1000, 2.0, 2, DEFAULT_TIMEOUT),
    )
):
    """A checked endpoint: rebuild one through the constructor, as
    `_replace` skips the checks."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self


QueryTemplate = namedtuple("QueryTemplate", "template_id dialect query_text")


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
) -> Iterator[tuple[str, ...]]:
    """Run a query template with paging, dedup, rate limiting and retries.

    The arguments are checked at the call; the pages are requested as the
    returned iterator is read. It gives each distinct binding's values, in
    first-seen order, as a tuple in the template's variable order (""
    where unbound): the variables its SELECT names, or the endpoint's for
    SELECT *. Bindings that differ only in a datatype or language tag are
    distinct, so they give two rows with the same values. A malformed
    page's error names the template and the page's offset.
    """
    if template.dialect != endpoint.dialect:
        raise ValueError(
            f"template dialect {template.dialect!r} does not match endpoint "
            f"dialect {endpoint.dialect!r}"
        )
    selected = re.search(_SELECT, template.query_text)
    order = tuple(selected.group(1).replace("?", "").split()) if selected else None
    return _distinct_rows(endpoint, template, transport or http_transport, order)


def _distinct_rows(
    endpoint: EndpointConfig,
    template: QueryTemplate,
    send: Transport,
    order: tuple[str, ...] | None,
) -> Iterator[tuple[str, ...]]:
    limiter = _limiter_for(endpoint)
    # per tuple of term shapes, each distinct row's values joined on NUL,
    # or the values themselves where one of them holds a NUL
    seen: dict[tuple, set] = {}
    offset = 0
    while True:
        paged = f"{template.query_text}\nLIMIT {endpoint.page_size} OFFSET {offset}"
        body = _send_with_retry(send, endpoint, paged, limiter)
        read = new = 0
        # a page's rows share one tuple per distinct term shapes, held until
        # the page is read, so each is hashed and compared once per page and
        # then found by its id
        by_id: dict[int, set] = {}
        try:
            # a SELECT * keeps the order the first page declares
            order, page = parse_results(body, order)
            joins = len(order) - 1
            for read, (values, terms) in enumerate(page, 1):
                key = "\0".join(values)
                if key.count("\0") != joins:
                    key = values
                keys = by_id.get(id(terms))
                if keys is None:
                    keys = by_id[id(terms)] = seen.setdefault(terms, set())
                if key not in keys:
                    keys.add(key)
                    new += 1
                    yield values
        except MalformedResultError as exc:
            # the same words over every transport
            raise MalformedResultError(
                f"template {template.template_id}, page at offset {offset}: {exc}"
            ) from exc
        if read < endpoint.page_size:
            return
        if not new:
            raise MalformedResultError(
                f"endpoint {endpoint.url} returned a full page at offset {offset} "
                "with no new rows; it may ignore OFFSET"
            )
        offset += endpoint.page_size


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


def parse_results(
    body: bytes | Mapping, order: tuple[str, ...] | None = None
) -> tuple[tuple[str, ...], Iterator[Row]]:
    """Parse a SPARQL JSON results document, as bytes or decoded (and then
    only read): its head is checked at the call, and the order of the
    values (by default the one the document declares) comes with an
    iterator that parses one Row per binding as it is read. Datatypes and
    language tags are kept; each distinct term shape, and each distinct
    tuple of them, is one shared object."""
    try:
        doc = body if isinstance(body, Mapping) else json.loads(body)
        declared = tuple(doc["head"]["vars"])
        bindings = doc["results"]["bindings"]
        if order is None:
            order = declared
        where = {var: i for i, var in enumerate(order) if var in declared}
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedResultError(f"not a SPARQL JSON results document: {exc}") from exc
    return order, _rows(bindings, order, declared, where)


def _rows(
    bindings: Iterable, order: tuple[str, ...], declared: tuple[str, ...], where: dict[str, int]
) -> Iterator[Row]:
    unbound_values = [""] * len(order)
    unbound_terms = [None] * len(order)
    # (type, datatype, xml:lang) as sent -> the checked term shape
    shapes: dict[tuple, tuple[str, str, str]] = {}
    shared: dict[tuple, tuple] = {}
    try:
        for binding in bindings:
            values = unbound_values[:]
            terms = unbound_terms[:]
            for var, term in binding.items():
                sent = term.get("type"), term.get("datatype"), term.get("xml:lang")
                try:
                    shape = shapes[sent]
                except KeyError:
                    shape = shapes[sent] = _term_shape(term)
                except TypeError:  # an unhashable type, datatype or tag
                    shape = _term_shape(term)
                value = term.get("value")
                if type(value) is not str:
                    raise MalformedResultError(f"binding of {var!r} without a string value")
                i = where.get(var)
                if i is None:
                    undeclared = sorted(set(binding).difference(declared))
                    if undeclared:
                        raise MalformedResultError(f"binding of undeclared variables {undeclared}")
                    unselected = sorted(set(binding).difference(order))
                    raise MalformedResultError(f"binding of unselected variables {unselected}")
                values[i] = value
                terms[i] = shape
            terms = tuple(terms)
            yield tuple(values), shared.setdefault(terms, terms)
    except (AttributeError, TypeError) as exc:
        raise MalformedResultError(f"malformed binding: {exc}") from exc


def _term_shape(term: Mapping) -> tuple[str, str, str]:
    """A term's checked (kind, datatype, language tag)."""
    kind = _KINDS.get(term.get("type"))
    if kind == "literal":
        value = term.get("value")
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
        return kind, datatype, lang
    if kind is None:
        raise MalformedResultError(f"unknown binding kind {term.get('type')!r}")
    return kind, "", ""
