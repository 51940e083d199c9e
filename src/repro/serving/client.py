"""Clients and load generators for the recognition serving APIs.

:class:`RecognitionClient` is a small keep-alive JSON client on
``http.client`` (stdlib only); one instance wraps one connection and is
*not* thread-safe — concurrent load uses one client per thread, which is
exactly what :func:`run_load` does.  Besides the buffered calls it can
consume the server's streaming mode: :meth:`RecognitionClient.recognise_stream`
posts ``"stream": true`` and yields each NDJSON line (per-row result or
error object, then the ``done`` summary) as the chunked response arrives.

:class:`BinaryRecognitionClient` speaks the native binary endpoint of
the asyncio front end (:mod:`repro.serving.aio`) over the
:mod:`repro.backends.wire` framing: one HELLO handshake per connection,
then RECOGNISE request frames carrying raw little-endian code/seed
arrays and ROWS/DONE answers carrying raw result arrays — no JSON, no
base-10 digits, no per-row text cost on either side of the wire.

:func:`run_load` drives an offered-load experiment against a running
server: ``concurrency`` threads each post ``images_per_request`` code
vectors per request (an edge node aggregating its users) until the shared
request budget is spent, and the aggregated wall-clock throughput and
client-observed latency percentiles come back as a :class:`LoadReport`.
Threads can be striped across ``priorities`` to offer mixed-priority
load, with the report segmenting latencies per priority level;
``stream=True`` drives the chunked streaming path instead of buffered
responses, and ``binary=True`` drives the binary endpoint instead of
HTTP (one loop; only the per-request call differs).  :func:`run_connection_load` is the
connection-scaling variant: one asyncio task per keep-alive connection
(thousands of connections where thread-per-client stops scaling), with
every request body pre-encoded so the client measures the server, not
itself.  They back ``python -m repro loadtest`` and
``benchmarks/test_serving.py``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.backends import wire
from repro.core.inputs import integral_array
from repro.serving.metrics import latency_summary
from repro.utils.validation import check_integer


def _code_rows(codes) -> list:
    """JSON-ready code rows; plain lists pass through untouched.

    Loops that post the same pool of vectors repeatedly (retry loops,
    load generators) convert to lists **once** and hand the lists in —
    ``np.asarray(...).tolist()`` on every request was a measurable slice
    of client CPU in the ``encode_cost`` benchmark.
    """
    if isinstance(codes, list):
        return codes
    return np.asarray(codes).tolist()


class ServerError(RuntimeError):
    """The server answered with a non-success status."""

    def __init__(self, status: int, message: str, reason: Optional[str] = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        #: The server's error taxonomy tag (``"quota"``, ``"backpressure"``,
        #: ``"deadline"``, ...), when it sent one.
        self.reason = reason


class RecognitionClient:
    """Keep-alive JSON client for one server; one instance per thread.

    Parameters
    ----------
    host, port:
        Server address.
    timeout:
        Socket timeout (s) for connect and each request.
    client_id:
        When set, sent as the ``X-Client-Id`` header on every request so
        the server's per-client quotas and stats see one stable tenant.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        client_id: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.client_id = client_id
        self._connection: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _send(self, method: str, path: str, payload: Optional[dict] = None):
        """Issue one request and return the (unread) response object."""
        body = None
        headers = {}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        if payload is not None:
            # Compact separators: the default ", "/": " padding is pure
            # wire and encode cost at serving rates.
            body = json.dumps(payload, separators=(",", ":"))
            headers["Content-Type"] = "application/json"
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        try:
            self._connection.request(method, path, body=body, headers=headers)
            return self._connection.getresponse()
        except (http.client.HTTPException, OSError):
            # Drop the (possibly half-closed) connection; the caller may retry.
            self.close()
            raise

    def _request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        response = self._send(method, path, payload)
        try:
            raw = response.read()
        except (http.client.HTTPException, OSError):
            self.close()
            raise
        decoded = json.loads(raw) if raw else {}
        if response.status >= 400:
            raise ServerError(
                response.status,
                decoded.get("error", raw.decode("utf-8", "replace")),
                reason=decoded.get("reason"),
            )
        return decoded

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "RecognitionClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # API
    # ------------------------------------------------------------------ #
    def _decorate(
        self,
        payload: Dict[str, object],
        timeout_ms: Optional[float],
        priority: Optional[int],
        client_id: Optional[str],
    ) -> Dict[str, object]:
        if timeout_ms is not None:
            payload["timeout_ms"] = float(timeout_ms)
        if priority is not None:
            payload["priority"] = int(priority)
        if client_id is not None:
            payload["client_id"] = client_id
        return payload

    def recognise(
        self,
        codes: np.ndarray,
        seed: int = 0,
        timeout_ms: Optional[float] = None,
        priority: Optional[int] = None,
        client_id: Optional[str] = None,
    ) -> dict:
        """Recall one ``(features,)`` code vector; returns the result dict.

        ``timeout_ms`` is the server-side dispatch deadline: a request
        still queued when it expires is dropped and answered HTTP 504.
        ``priority`` (higher first) and ``client_id`` feed the server's
        admission control; both default to the server's defaults.
        """
        payload: Dict[str, object] = {
            "codes": _code_rows(codes),
            "seed": int(seed),
        }
        self._decorate(payload, timeout_ms, priority, client_id)
        return self._request("POST", "/recognise", payload)["result"]

    def recognise_many(
        self,
        codes_batch: np.ndarray,
        seeds: Optional[Sequence[int]] = None,
        timeout_ms: Optional[float] = None,
        priority: Optional[int] = None,
        client_id: Optional[str] = None,
    ) -> List[dict]:
        """Recall a ``(B, features)`` batch, queued server-side as one
        submission whose rows coalesce with concurrent traffic."""
        payload: Dict[str, object] = {"codes": _code_rows(codes_batch)}
        if seeds is not None:
            payload["seeds"] = [int(seed) for seed in seeds]
        self._decorate(payload, timeout_ms, priority, client_id)
        return self._request("POST", "/recognise", payload)["results"]

    def recognise_stream(
        self,
        codes_batch: np.ndarray,
        seeds: Optional[Sequence[int]] = None,
        timeout_ms: Optional[float] = None,
        priority: Optional[int] = None,
        client_id: Optional[str] = None,
    ) -> Iterator[dict]:
        """Stream a ``(B, features)`` batch; yields one dict per NDJSON line.

        Rows arrive in index order as the server resolves them, each
        ``{"index": i, "result": {...}}`` or — partial failure —
        ``{"index": i, "error": {"status": ..., "reason": ..., ...}}``;
        the final line is the ``{"done": true, "count": ..., "ok": ...,
        "failed": ...}`` summary.  An admission-level rejection (the
        server refused the whole stream) raises :class:`ServerError`
        before the first line, exactly like the buffered call.  Breaking
        out of the iteration early drops the connection, which makes the
        server cancel the request's still-queued rows.
        """
        payload: Dict[str, object] = {
            "codes": _code_rows(codes_batch),
            "stream": True,
        }
        if seeds is not None:
            payload["seeds"] = [int(seed) for seed in seeds]
        self._decorate(payload, timeout_ms, priority, client_id)
        response = self._send("POST", "/recognise", payload)
        if response.status >= 400:
            try:
                decoded = json.loads(response.read() or b"{}")
            except json.JSONDecodeError:
                decoded = {}
            raise ServerError(
                response.status,
                decoded.get("error", f"status {response.status}"),
                reason=decoded.get("reason"),
            )
        finished = False
        try:
            for raw_line in response:
                line = raw_line.strip()
                if not line:
                    continue
                event = json.loads(line)
                yield event
                if event.get("done"):
                    # Drain the chunked terminator so the keep-alive
                    # connection is reusable for the next request.
                    response.read()
                    finished = True
                    break
        finally:
            if not finished:
                # Mid-stream abandonment: the connection is no longer in
                # a reusable state (undrained chunks), drop it.
                self.close()

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")


@dataclass
class BinaryBatchResult:
    """One RECOGNISE answer, reassembled from its ROWS/DONE frames.

    Result arrays are full-length and row-indexed (row ``i`` of the
    request is entry ``i``); rows that failed carry the fill value in
    the arrays and their taxonomy error object (``{"status", "reason",
    "type", "message"}``) in ``errors``.
    """

    count: int
    ok: int
    failed: int
    winner: np.ndarray
    winner_column: np.ndarray
    dom_code: np.ndarray
    accepted: np.ndarray
    tie: np.ndarray
    static_power_w: np.ndarray
    errors: Dict[int, dict]

    def row(self, index: int) -> dict:
        """Row ``index`` in the JSON API's result shape (parity checks)."""
        if index in self.errors:
            raise ServerError(
                self.errors[index]["status"],
                self.errors[index]["message"],
                reason=self.errors[index]["reason"],
            )
        return {
            "winner": int(self.winner[index]),
            "winner_column": int(self.winner_column[index]),
            "dom_code": int(self.dom_code[index]),
            "accepted": bool(self.accepted[index]),
            "tie": bool(self.tie[index]),
            "static_power_w": float(self.static_power_w[index]),
        }

    def rows(self) -> List[Optional[dict]]:
        """All rows in JSON shape; failed rows are ``None``."""
        return [
            None if index in self.errors else self.row(index)
            for index in range(self.count)
        ]


class BinaryRecognitionClient:
    """Client for the asyncio front end's native binary endpoint.

    One instance wraps one connection (HELLO handshake on construction)
    and is not thread-safe — concurrent load uses one client per thread,
    like the JSON client.  ``client_id`` rides in the HELLO so every
    request on the connection shares one quota bucket unless a request
    overrides it.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        client_id: Optional[str] = None,
    ) -> None:
        self.client_id = client_id
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = {"protocol": wire.PROTOCOL_VERSION}
        if client_id is not None:
            hello["client_id"] = client_id
        try:
            wire.send_frame(self._sock, wire.HELLO, header=hello)
            kind, _version, header, _arrays = wire.recv_frame(self._sock)
        except BaseException:
            self._sock.close()
            raise
        if kind == wire.ERROR:
            self._sock.close()
            raise ServerError(
                header.get("status", 500),
                header.get("message", "handshake rejected"),
                reason=header.get("reason"),
            )
        if kind != wire.HELLO or header.get("protocol") != wire.PROTOCOL_VERSION:
            self._sock.close()
            raise wire.ProtocolVersionError(
                f"server answered frame kind {kind}, "
                f"protocol {header.get('protocol')!r}"
            )

    def close(self) -> None:
        try:
            wire.send_frame(self._sock, wire.BYE)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "BinaryRecognitionClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def ping(self) -> None:
        """Round-trip liveness probe."""
        wire.send_frame(self._sock, wire.PING, header={})
        kind, _version, header, _arrays = wire.recv_frame(self._sock)
        if kind != wire.PONG:
            raise wire.WireProtocolError(f"expected PONG, got frame kind {kind}")

    def recognise_batch(
        self,
        codes_batch: np.ndarray,
        seeds: Optional[Sequence[int]] = None,
        timeout_ms: Optional[float] = None,
        priority: Optional[int] = None,
        client_id: Optional[str] = None,
        request_id: Optional[int] = None,
    ) -> BinaryBatchResult:
        """Recall a ``(B, features)`` batch over the binary protocol.

        Sends one RECOGNISE frame (codes and seeds as raw little-endian
        buffers) and consumes ROWS frames until the DONE summary.  An
        admission-level rejection (quota, backpressure, closed service)
        arrives as an ERROR frame and raises :class:`ServerError` with
        the same status/reason the JSON API would have answered; per-row
        failures land in :attr:`BinaryBatchResult.errors` (partial
        failure is per-row, exactly like the NDJSON stream).  Non-integral
        codes or seeds raise ``ValueError`` before anything is sent.
        """
        codes_batch = np.ascontiguousarray(integral_array("codes_batch", codes_batch))
        if codes_batch.ndim != 2:
            raise ValueError(
                f"codes_batch must be 2-D, got shape {codes_batch.shape}"
            )
        wire_codes = codes_batch
        if wire_codes.size and 0 <= wire_codes.min() and wire_codes.max() <= 255:
            # Dominant codes are 5-bit values; the server accepts any
            # integer dtype, so ship one byte per code instead of eight.
            wire_codes = wire_codes.astype(np.uint8)
        header: Dict[str, object] = {}
        arrays: Dict[str, np.ndarray] = {"codes": wire_codes}
        if seeds is not None:
            arrays["seeds"] = np.ascontiguousarray(integral_array("seeds", seeds))
        if timeout_ms is not None:
            header["timeout_ms"] = float(timeout_ms)
        if priority is not None:
            header["priority"] = int(priority)
        if client_id is not None:
            header["client_id"] = client_id
        if request_id is not None:
            header["id"] = request_id
        wire.send_frame(self._sock, wire.RECOGNISE, header=header, arrays=arrays)
        count = codes_batch.shape[0]
        winner = np.full(count, -1, dtype=np.int64)
        winner_column = np.full(count, -1, dtype=np.int64)
        dom_code = np.full(count, -1, dtype=np.int64)
        accepted = np.zeros(count, dtype=bool)
        tie = np.zeros(count, dtype=bool)
        static_power_w = np.full(count, np.nan, dtype=np.float64)
        errors: Dict[int, dict] = {}
        while True:
            kind, _version, frame_header, frame_arrays = wire.recv_frame(self._sock)
            if kind == wire.ERROR:
                raise ServerError(
                    frame_header.get("status", 500),
                    frame_header.get("message", "request rejected"),
                    reason=frame_header.get("reason"),
                )
            if kind == wire.ROWS:
                indices = frame_arrays["index"]
                winner[indices] = frame_arrays["winner"]
                winner_column[indices] = frame_arrays["winner_column"]
                dom_code[indices] = frame_arrays["dom_code"]
                accepted[indices] = frame_arrays["accepted"].astype(bool)
                tie[indices] = frame_arrays["tie"].astype(bool)
                static_power_w[indices] = frame_arrays["static_power_w"]
                for entry in frame_header.get("errors", []):
                    errors[int(entry["index"])] = entry["error"]
                continue
            if kind == wire.DONE:
                return BinaryBatchResult(
                    count=int(frame_header.get("count", count)),
                    ok=int(frame_header.get("ok", 0)),
                    failed=int(frame_header.get("failed", 0)),
                    winner=winner,
                    winner_column=winner_column,
                    dom_code=dom_code,
                    accepted=accepted,
                    tie=tie,
                    static_power_w=static_power_w,
                    errors=errors,
                )
            raise wire.WireProtocolError(
                f"unexpected frame kind {kind} while awaiting ROWS/DONE"
            )


@dataclass
class LoadReport:
    """Aggregate outcome of one offered-load run.

    ``latencies`` are client-observed per-HTTP-request round-trip times
    (seconds); ``images`` counts individual code vectors recalled, the
    unit of the throughput figure.  ``latencies_by_priority`` segments
    the same round-trip times by the request's priority level (only
    populated for mixed-priority runs); ``row_errors`` counts per-row
    error objects inside otherwise-successful streaming responses.
    """

    concurrency: int
    images_per_request: int
    requests: int
    images: int
    elapsed_seconds: float
    errors: int
    rejected: int
    quota_rejected: int = 0
    row_errors: int = 0
    stream: bool = False
    latencies: List[float] = field(repr=False, default_factory=list)
    latencies_by_priority: Dict[int, List[float]] = field(
        repr=False, default_factory=dict
    )

    @property
    def images_per_second(self) -> float:
        return self.images / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p90/p99/max of the round-trip latencies, in milliseconds."""
        return latency_summary(self.latencies)

    def priority_latency_percentiles(self) -> Dict[int, Dict[str, float]]:
        """Per-priority p50/p90/p99/max (ms) for mixed-priority runs."""
        return {
            priority: latency_summary(samples)
            for priority, samples in sorted(self.latencies_by_priority.items())
        }

    def as_dict(self) -> dict:
        """JSON-serialisable summary (for BENCH_serving.json)."""
        summary = {
            "concurrency": self.concurrency,
            "images_per_request": self.images_per_request,
            "requests": self.requests,
            "images": self.images,
            "elapsed_seconds": self.elapsed_seconds,
            "images_per_second": self.images_per_second,
            "errors": self.errors,
            "rejected": self.rejected,
            "quota_rejected": self.quota_rejected,
            "row_errors": self.row_errors,
            "stream": self.stream,
            "latency": self.latency_percentiles(),
        }
        if self.latencies_by_priority:
            summary["latency_by_priority"] = {
                str(priority): latency_summary(samples)
                for priority, samples in sorted(self.latencies_by_priority.items())
            }
        return summary


def run_load(
    host: str,
    port: int,
    codes_pool: np.ndarray,
    requests: int,
    concurrency: int = 4,
    images_per_request: int = 16,
    base_seed: int = 0,
    timeout: float = 30.0,
    priorities: Optional[Sequence[int]] = None,
    stream: bool = False,
    binary: bool = False,
) -> LoadReport:
    """Drive ``requests`` recalls from ``concurrency`` client threads.

    Each request draws its ``images_per_request`` code vectors round-robin
    from ``codes_pool`` and tags every image with a deterministic seed
    derived from ``base_seed`` and the image's global index, so repeated
    runs offer identical work.  ``priorities`` are striped across the
    client threads (thread ``i`` uses entry ``i % len``) to offer
    mixed-priority load; ``stream=True`` posts each request in streaming
    mode and consumes the chunked NDJSON response; ``binary=True`` drives
    the asyncio front end's binary endpoint (``port`` is then the
    *binary* port) with raw-array requests.  Rejections (HTTP 429 /
    ERROR frames with the same taxonomy) are counted, not retried — the
    report shows how much load the server actually absorbed — with quota
    denials (``"reason": "quota"``) tallied separately from shared-queue
    backpressure.  A transport failure (or a stream whose summary marks
    it abnormal) counts as an error and the thread reconnects.
    """
    check_integer("requests", requests, minimum=1)
    check_integer("concurrency", concurrency, minimum=1)
    check_integer("images_per_request", images_per_request, minimum=1)
    if stream and binary:
        raise ValueError("binary mode already streams; pick one of stream/binary")
    codes_pool = integral_array("codes_pool", codes_pool)
    if codes_pool.ndim != 2 or codes_pool.shape[0] == 0:
        raise ValueError("codes_pool must be a non-empty 2-D code batch")
    if priorities is not None and len(priorities) == 0:
        raise ValueError("priorities must be a non-empty sequence or None")
    # One conversion for the whole run: request payloads index into this
    # pre-encoded pool instead of re-running asarray().tolist() per
    # request (the hot loop measures the server, not client encode).
    pool_rows: List[list] = codes_pool.tolist()

    # One call per transport: send one request's rows and return
    # ``(served, bad_rows)``.
    if binary:
        transport_errors: tuple = (OSError, wire.WireProtocolError)

        def connect():
            return BinaryRecognitionClient(host, port, timeout=timeout)

        def call(client, indices, seeds, priority):
            result = client.recognise_batch(
                codes_pool[indices], seeds=seeds, priority=priority
            )
            return result.ok, result.failed

    else:
        transport_errors = (OSError, http.client.HTTPException)

        def connect():
            return RecognitionClient(host, port, timeout=timeout)

        def call(client, indices, seeds, priority):
            rows = [pool_rows[index] for index in indices]
            if not stream:
                return len(client.recognise_many(rows, seeds=seeds, priority=priority)), 0
            served = bad_rows = 0
            truncated = True  # until the clean summary arrives
            for event in client.recognise_stream(rows, seeds=seeds, priority=priority):
                if event.get("done"):
                    # An "error" on the summary line marks an
                    # abnormally-terminated stream, not a row.
                    truncated = "error" in event
                elif "result" in event:
                    served += 1
                elif "error" in event:
                    bad_rows += 1
            if truncated:
                raise ConnectionError("stream ended without a clean summary")
            return served, bad_rows

    counter = {"next": 0}
    counter_lock = threading.Lock()
    latencies: List[float] = []
    latencies_by_priority: Dict[int, List[float]] = {}
    outcomes = {"images": 0, "errors": 0, "rejected": 0, "quota_rejected": 0,
                "row_errors": 0}
    results_lock = threading.Lock()

    def next_request_index() -> Optional[int]:
        with counter_lock:
            if counter["next"] >= requests:
                return None
            index = counter["next"]
            counter["next"] += 1
            return index

    def drive(thread_index: int) -> None:
        priority = (
            None
            if priorities is None
            else int(priorities[thread_index % len(priorities)])
        )
        client = None
        try:
            while (request_index := next_request_index()) is not None:
                first_image = request_index * images_per_request
                indices = [
                    (first_image + offset) % codes_pool.shape[0]
                    for offset in range(images_per_request)
                ]
                seeds = [
                    base_seed + first_image + offset
                    for offset in range(images_per_request)
                ]
                begin = time.perf_counter()
                try:
                    if client is None:
                        client = connect()
                    served, bad_rows = call(client, indices, seeds, priority)
                except ServerError as error:
                    with results_lock:
                        if error.status == 429 and error.reason == "quota":
                            outcomes["quota_rejected"] += 1
                        elif error.status == 429:
                            outcomes["rejected"] += 1
                        else:
                            outcomes["errors"] += 1
                    continue
                except transport_errors:
                    # A framed stream is not recoverable mid-frame:
                    # reconnect for the next request.
                    with results_lock:
                        outcomes["errors"] += 1
                    if client is not None:
                        client.close()
                        client = None
                    continue
                elapsed = time.perf_counter() - begin
                with results_lock:
                    outcomes["images"] += served
                    outcomes["row_errors"] += bad_rows
                    latencies.append(elapsed)
                    if priority is not None:
                        latencies_by_priority.setdefault(priority, []).append(elapsed)
        finally:
            if client is not None:
                client.close()

    threads = [
        threading.Thread(target=drive, args=(index,), name=f"load-{index}")
        for index in range(concurrency)
    ]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begin
    return LoadReport(
        concurrency=concurrency,
        images_per_request=images_per_request,
        requests=requests,
        images=outcomes["images"],
        elapsed_seconds=elapsed,
        errors=outcomes["errors"],
        rejected=outcomes["rejected"],
        quota_rejected=outcomes["quota_rejected"],
        row_errors=outcomes["row_errors"],
        stream=stream,
        latencies=latencies,
        latencies_by_priority=latencies_by_priority,
    )


def run_connection_load(
    host: str,
    port: int,
    codes_pool: np.ndarray,
    requests: int,
    connections: int = 256,
    images_per_request: int = 8,
    base_seed: int = 0,
    timeout: float = 30.0,
) -> LoadReport:
    """Connection-scaling load: one asyncio task per keep-alive connection.

    Thread-per-client load generation stops scaling long before the
    connection counts the event-loop front end is built for, so this driver
    opens ``connections`` keep-alive HTTP connections from one event
    loop and round-robins ``requests`` buffered recalls across them.
    Every request body is pre-encoded before the clock starts and the
    responses are only framed (status + ``Content-Length``), never
    JSON-decoded — the measurement is the server's connection scaling,
    not the client's encode cost — the driver of the ``connection_sweep``
    benchmark.
    """
    check_integer("requests", requests, minimum=1)
    check_integer("connections", connections, minimum=1)
    check_integer("images_per_request", images_per_request, minimum=1)
    codes_pool = integral_array("codes_pool", codes_pool)
    if codes_pool.ndim != 2 or codes_pool.shape[0] == 0:
        raise ValueError("codes_pool must be a non-empty 2-D code batch")
    pool_rows = codes_pool.tolist()

    def encode_request(request_index: int) -> bytes:
        first_image = request_index * images_per_request
        payload = {
            "codes": [
                pool_rows[(first_image + offset) % len(pool_rows)]
                for offset in range(images_per_request)
            ],
            "seeds": [
                base_seed + first_image + offset
                for offset in range(images_per_request)
            ],
        }
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        return (
            b"POST /recognise HTTP/1.1\r\n"
            + f"Host: {host}:{port}\r\n".encode("ascii")
            + b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n".encode("ascii")
            + b"\r\n"
            + body
        )

    # Distinct seeds per request index keep the offered work identical to
    # run_load's; encoding happens entirely before the clock starts.
    bodies = [encode_request(index) for index in range(min(requests, 512))]

    counter = {"next": 0}
    outcomes = {"images": 0, "errors": 0, "rejected": 0, "quota_rejected": 0}
    latencies: List[float] = []

    async def exchange(reader, writer, body: bytes) -> int:
        """One request/response on an open connection; returns the status."""
        writer.write(body)
        await writer.drain()
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout
        )
        status = int(head.split(b" ", 2)[1])
        content_length = 0
        for line in head.lower().split(b"\r\n"):
            if line.startswith(b"content-length:"):
                content_length = int(line.split(b":", 1)[1])
                break
        if content_length:
            await asyncio.wait_for(reader.readexactly(content_length), timeout)
        return status

    async def worker() -> None:
        reader = writer = None
        loop = asyncio.get_running_loop()
        try:
            while True:
                request_index = counter["next"]
                if request_index >= requests:
                    return
                counter["next"] = request_index + 1
                body = bodies[request_index % len(bodies)]
                begin = loop.time()
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection(host, port)
                        sock = writer.get_extra_info("socket")
                        if sock is not None:
                            sock.setsockopt(
                                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                            )
                    status = await exchange(reader, writer, body)
                except (
                    OSError,
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    TimeoutError,
                ):
                    outcomes["errors"] += 1
                    if writer is not None:
                        writer.close()
                        writer = None
                    continue
                latency = loop.time() - begin
                if status == 200:
                    outcomes["images"] += images_per_request
                    latencies.append(latency)
                elif status == 429:
                    outcomes["rejected"] += 1
                else:
                    outcomes["errors"] += 1
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except Exception:
                    pass

    async def main() -> float:
        begin = time.perf_counter()
        await asyncio.gather(*(worker() for _ in range(connections)))
        return time.perf_counter() - begin

    elapsed = asyncio.run(main())
    return LoadReport(
        concurrency=connections,
        images_per_request=images_per_request,
        requests=requests,
        images=outcomes["images"],
        elapsed_seconds=elapsed,
        errors=outcomes["errors"],
        rejected=outcomes["rejected"],
        quota_rejected=outcomes["quota_rejected"],
        row_errors=0,
        stream=False,
        latencies=latencies,
        latencies_by_priority={},
    )
