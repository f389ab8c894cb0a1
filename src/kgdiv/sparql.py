"""SPARQL endpoint client: templated queries, paging, rate limiting, parsing.

Queries are issued with LIMIT/OFFSET pages until a short page comes back;
rows are deduplicated afterwards as a second safety net against unstable
OFFSET paging, and a full page that adds no new row stops the query with an
error rather than paging forever. Per-endpoint request rates are capped
process-wide.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from urllib.parse import urlencode

DIALECTS = ("en-dbpedia", "nl-dbpedia", "wikidata")

RESULTS_JSON = "application/sparql-results+json"

DEFAULT_TIMEOUT = 30.0
RETRY_BACKOFF_BASE = 0.2


class QueryError(RuntimeError):
    """Base class for query execution failures."""


class QueryTransportError(QueryError):
    """The endpoint could not be reached or returned an HTTP error."""


class MalformedResultError(QueryError):
    """The endpoint's response body is not a valid result document."""


@dataclass(frozen=True)
class RdfTerm:
    kind: str
    value: str
    datatype: str | None = None
    language_tag: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("iri", "literal", "blank"):
            raise ValueError(f"unknown term kind {self.kind!r}")
        if self.kind != "literal" and (self.datatype or self.language_tag):
            raise ValueError("datatype/language tag only allowed on literals")
        if self.datatype and self.language_tag:
            raise ValueError("a literal cannot carry both datatype and language tag")


@dataclass(frozen=True)
class ResultTable:
    variables: tuple[str, ...]
    rows: tuple[Mapping[str, RdfTerm], ...]

    def __post_init__(self) -> None:
        declared = set(self.variables)
        for row in self.rows:
            extra = set(row) - declared
            if extra:
                raise ValueError(f"row binds undeclared variables {sorted(extra)}")

    def __len__(self) -> int:
        return len(self.rows)

    def values(self, variable: str) -> list[str]:
        """Convenience accessor: the bound values of one variable, row order."""
        return [row[variable].value for row in self.rows if variable in row]


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
        if self.max_requests_per_second <= 0:
            raise ValueError("max_requests_per_second must be positive")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")


@dataclass(frozen=True)
class QueryTemplate:
    template_id: str
    dialect: str
    query_text: str
    result_schema: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.result_schema:
            raise ValueError("result_schema must declare at least one variable")


#: transport signature: (url, query, accept header, timeout) -> response body
Transport = Callable[[str, str, str, float], bytes]


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


def _row_key(row: Mapping[str, RdfTerm]) -> tuple:
    return tuple(
        sorted(
            (var, term.kind, term.value, term.datatype or "", term.language_tag or "")
            for var, term in row.items()
        )
    )


def execute_query(
    endpoint: EndpointConfig,
    template: QueryTemplate,
    transport: Transport | None = None,
) -> ResultTable:
    """Run a query template with paging, dedup, rate limiting and retries."""
    if template.dialect != endpoint.dialect:
        raise ValueError(
            f"template dialect {template.dialect!r} does not match endpoint "
            f"dialect {endpoint.dialect!r}"
        )
    send = transport or http_transport
    limiter = _limiter_for(endpoint)

    variables: tuple[str, ...] | None = None
    rows: list[Mapping[str, RdfTerm]] = []
    seen: set[tuple] = set()
    offset = 0
    while True:
        paged = f"{template.query_text}\nLIMIT {endpoint.page_size} OFFSET {offset}"
        body = _send_with_retry(send, endpoint, paged, limiter)
        page = parse_results(body)
        if variables is None:
            variables = page.variables
        before = len(rows)
        for row in page.rows:
            key = _row_key(row)
            if key not in seen:
                seen.add(key)
                rows.append(row)
        if len(page.rows) < endpoint.page_size:
            break
        if len(rows) == before:
            raise MalformedResultError(
                f"endpoint {endpoint.url} returned a full page at offset {offset} "
                "with no new rows; it may ignore OFFSET"
            )
        offset += endpoint.page_size
    return ResultTable(variables=variables or (), rows=tuple(rows))


def _send_with_retry(
    send: Transport, endpoint: EndpointConfig, query: str, limiter: RateLimiter
) -> bytes:
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


def _term_from_json(binding: Mapping) -> RdfTerm:
    kind = binding.get("type")
    value = binding.get("value")
    if value is None:
        raise MalformedResultError("binding without a value")
    if kind == "uri":
        return RdfTerm("iri", value)
    if kind == "bnode":
        return RdfTerm("blank", value)
    if kind in ("literal", "typed-literal"):
        return RdfTerm(
            "literal",
            value,
            datatype=binding.get("datatype"),
            language_tag=binding.get("xml:lang"),
        )
    raise MalformedResultError(f"unknown binding kind {kind!r}")


def parse_results(body: bytes) -> ResultTable:
    """Parse a SPARQL JSON results document, preserving datatypes and
    language tags."""
    try:
        doc = json.loads(body)
        variables = tuple(doc["head"]["vars"])
        bindings = doc["results"]["bindings"]
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedResultError(f"not a SPARQL JSON results document: {exc}") from exc
    rows = []
    for binding in bindings:
        try:
            rows.append(
                {var: _term_from_json(term) for var, term in binding.items()}
            )
        except (AttributeError, TypeError) as exc:
            raise MalformedResultError(f"malformed binding: {exc}") from exc
    return ResultTable(variables=variables, rows=tuple(rows))
