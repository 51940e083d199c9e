"""The serving front end: HTTP and binary endpoints on one event loop.

A thread per connection spends, at hundreds of keep-alive connections,
the throughput the batched engine worked for on scheduler churn and
per-connection stacks.  This module serves every connection from a
single asyncio event loop (3 server threads however many clients are
connected), with a JSON HTTP API and a **native binary endpoint** on a
second port, on by default, that reuses the :mod:`repro.backends.wire`
framing so bulk clients never pay JSON per row:

* **HTTP** — ``POST /recognise`` for one request (``{"codes": [...],
  "seed": 0}``) or several (``{"codes": [[...], ...], "seeds": [...]}``),
  each submitted to the service as one batch-granular submission whose
  rows coalesce with concurrent traffic.  Optional fields: ``"timeout_ms"`` (dispatch
  deadline — a row still queued when it expires is dropped unsolved and
  answered 504), ``"priority"`` (0–9, higher dispatches first and
  survives shedding), ``"client_id"`` (also the ``X-Client-Id`` header;
  quota admission and per-client stats) and ``"stream"``: a
  ``Transfer-Encoding: chunked`` ``application/x-ndjson`` response with
  one line per row, written as the row's segment resolves (``{"index": i, "result": {...}}`` or
  ``{"index": i, "error": {...}}``) and a ``{"done": true, "count": n,
  "ok": k, "failed": m}`` summary (close-delimited instead of chunked
  for an HTTP/1.0 request).  ``GET /healthz`` is liveness and
  ``GET /stats`` the :class:`~repro.serving.metrics.ServiceMetrics`
  snapshot plus a ``"frontend"`` section (live and total connection
  counts per endpoint).  Connections persist under HTTP/1.1 unless the
  client sends ``Connection: close``; HTTP/1.0 requests close after
  their response unless they send ``Connection: keep-alive``.  Body
  size, 411 and 408 enforcement and the error taxonomy live in
  :mod:`repro.serving.protocol`.
* **Binary** — a :data:`~repro.backends.wire.HELLO` handshake (version
  mismatch answered with a typed ``ERROR`` frame, never a hang), then
  any number of :data:`~repro.backends.wire.RECOGNISE` request frames
  per connection.  A request carries raw little-endian ``codes`` /
  ``seeds`` arrays plus a JSON header (``timeout_ms`` / ``priority`` /
  ``client_id``); the server answers :data:`~repro.backends.wire.ROWS`
  frames (resolved rows in arrival order, with explicit row indices,
  results as raw arrays, per-row errors in the header) terminated by one
  :data:`~repro.backends.wire.DONE` summary.  Admission failures become
  an ``ERROR`` frame carrying the HTTP-taxonomy ``status``/``reason``
  and leave the connection usable.

Thread-bridge rule
------------------

The service resolves one outcome per *segment* — a contiguous row range
of a submission that rode one micro-batch — on its worker threads.
Every outcome crosses into the loop via ``loop.call_soon_threadsafe``
from the submissions' ``deliver`` callbacks (:class:`_OutcomeBridge`,
which coalesces every segment a micro-batch settles into one loop
wakeup)
— **no thread-per-request, no per-row future, no blocking ``.result()``
anywhere on the async path**.  Response bodies, NDJSON lines and
``ROWS`` frames are built straight from the segments' result arrays.
Every answer — a JSON body, an NDJSON stream, binary ``ROWS`` frames —
runs through one request driver (:meth:`AsyncRecognitionServer._drive`):
it submits the rows in windows, waits, retries admission and, when the
request is given up (client gone, wait budget spent, an earlier row
failed), calls :meth:`~repro.serving.workers.Submission.cancel`, which
never touches the loop: the submission's undispatched rows are skipped
by the service and their quota slots released at once.  The handlers
only encode what it yields.
asyncio cancellation keeps meaning "this handler task is being torn
down" only.

:func:`start_async_server` runs the loop on a dedicated daemon thread
(the rest of the process stays synchronous); :func:`stop_async_server`
tears it down cleanly; ``python -m repro serve`` and ``loadtest`` boot
it that way.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import socket
import threading
from http.client import responses as _HTTP_REASONS
from typing import AsyncIterator, Dict, List, Optional, Tuple

import numpy as np

from repro.backends import wire
from repro.core.amm import BatchRecognitionResult
from repro.serving import protocol
from repro.serving.errors import (
    BackpressureError,
    QuotaExceededError,
)
from repro.serving.protocol import (
    BODY_READ_TIMEOUT,
    DEFAULT_REQUEST_TIMEOUT,
    IDLE_CONNECTION_TIMEOUT,
    MAX_REQUEST_TIMEOUT,
    ParsedRecognise,
    SlowBodyError,
    StreamLineEncoder,
    classify_error,
    error_payload,
    result_rows,
)
from repro.serving.quotas import validate_client_id
from repro.serving.service import RecognitionService
from repro.serving.workers import Submission

__all__ = [
    "AsyncRecognitionServer",
    "start_async_server",
    "stop_async_server",
]


# ---------------------------------------------------------------------- #
# Thread-world -> loop-world outcome bridge
# ---------------------------------------------------------------------- #
class _OutcomeBridge:
    """The server's one crossing from worker threads into the loop.

    A per-row awaitable bridge costs one loop wakeup plus a
    ``shield``/``wait_for`` allocation per row — ~60 us/row of pure
    event-loop machinery, which at engine rates is the difference
    between the front end tracking the crossbar and trailing it.  Here a
    submission's ``deliver`` callback (:meth:`sink`) appends
    ``(drain, start, stop, outcome)`` to one plain list under a lock and
    returns the deferred :meth:`_wake` only when no wakeup is pending:
    the worker pool runs it once after settling a whole micro-batch, so
    every segment of every request in that batch crosses in one
    ``call_soon_threadsafe``.  On the loop, :meth:`_hand_out` passes
    each outcome to its request's :class:`_SegmentDrain`.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._lock = threading.Lock()
        self._resolved: List[Tuple["_SegmentDrain", int, int, object]] = []
        self._wake_scheduled = False

    def sink(self, drain: "_SegmentDrain", offset: int):
        def deliver(start: int, stop: int, outcome: object):
            with self._lock:
                self._resolved.append((drain, offset + start, offset + stop, outcome))
                if self._wake_scheduled:
                    return None
                self._wake_scheduled = True
            return self._wake

        return deliver

    def _wake(self) -> None:
        try:
            self._loop.call_soon_threadsafe(self._hand_out)
        except RuntimeError:  # pragma: no cover - shutdown race
            pass

    def _hand_out(self) -> None:
        with self._lock:
            resolved = self._resolved
            self._resolved = []
            self._wake_scheduled = False
        for drain, start, stop, outcome in resolved:
            drain.resolved.append((start, stop, outcome))
            drain.event.set()


class _SegmentDrain:
    """The segment outcomes of one request, on the loop side.

    ``sink(offset)`` is the ``deliver`` callback of a submission holding
    the request's rows from ``offset`` on; outcomes arrive with row
    indices of the whole request.  ``drained`` may return an empty batch
    (timed out); callers keep their own deadline clock and simply loop.
    """

    def __init__(self, bridge: _OutcomeBridge) -> None:
        self._bridge = bridge
        self.resolved: List[Tuple[int, int, object]] = []
        self.event = asyncio.Event()

    def sink(self, offset: int):
        return self._bridge.sink(self, offset)

    async def drained(self, timeout: float) -> List[Tuple[int, int, object]]:
        """Segments resolved since the last drain; waits up to ``timeout``
        for at least one (empty list = timed out)."""
        if not self.resolved:
            try:
                await asyncio.wait_for(self.event.wait(), max(timeout, 0.0))
            except (asyncio.TimeoutError, TimeoutError):
                pass
        batch = self.resolved
        self.resolved = []
        self.event.clear()
        return batch


# ---------------------------------------------------------------------- #
# HTTP plumbing
# ---------------------------------------------------------------------- #
def _parse_head(head: bytes) -> Tuple[str, str, str, Dict[str, str]]:
    """Parse one request head; returns ``(method, path, version, headers)``.

    Header names are lower-cased; a malformed request line raises
    ``ValueError`` (answered 400 and the connection dropped — the byte
    stream is not trustworthy once framing is in doubt).
    """
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, path, version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, path, version, headers


def _closes_after(version: str, headers: Dict[str, str]) -> bool:
    """Whether the connection closes once this request is answered.

    HTTP/1.1 persists unless the client sends ``Connection: close``;
    HTTP/1.0 closes unless it sends ``Connection: keep-alive`` (a plain
    1.0 client reads its response to EOF and would otherwise wait out
    the idle timeout).
    """
    tokens = {
        token.strip() for token in headers.get("connection", "").lower().split(",")
    }
    if version == "HTTP/1.0":
        return "keep-alive" not in tokens
    return "close" in tokens


def _chunk(data: bytes) -> bytes:
    return f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n"


_CHUNKED_END = b"0\r\n\r\n"


class AsyncRecognitionServer:
    """Single-event-loop HTTP + binary front end for one service.

    Construct via :func:`start_async_server`.  The loop runs on its own
    daemon thread; every public attribute is safe to read from other
    threads once :meth:`start` returned (ports are bound and fixed).
    """

    def __init__(
        self,
        service: RecognitionService,
        host: str = "127.0.0.1",
        port: int = 0,
        binary_port: Optional[int] = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: ``None`` disables the binary endpoint entirely.
        self.binary_port = binary_port
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._bridge: Optional[_OutcomeBridge] = None
        self.serve_thread: Optional[threading.Thread] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._binary_server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        # Mutated only on the loop thread; /stats is served by that same
        # thread, so the counters need no lock.
        self._http_live = 0
        self._http_total = 0
        self._binary_live = 0
        self._binary_total = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "AsyncRecognitionServer":
        self.loop = asyncio.new_event_loop()
        self._bridge = _OutcomeBridge(self.loop)
        self.serve_thread = threading.Thread(
            target=self._run_loop, name="recognition-aio", daemon=True
        )
        self.serve_thread.start()
        asyncio.run_coroutine_threadsafe(self._bind(), self.loop).result(30.0)
        return self

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_forever()
        finally:
            self.loop.close()

    async def _bind(self) -> None:
        # Deep listen backlog (the stdlib default of 5 drops SYNs under a
        # connect burst; the kernel clamps it to net.core.somaxconn).
        self._http_server = await asyncio.start_server(
            self._handle_http, self.host, self.port, backlog=1024
        )
        self.port = self._http_server.sockets[0].getsockname()[1]
        if self.binary_port is not None:
            self._binary_server = await asyncio.start_server(
                self._handle_binary, self.host, self.binary_port, backlog=1024
            )
            self.binary_port = self._binary_server.sockets[0].getsockname()[1]

    def stop(self, close_service: bool = True) -> None:
        if self.loop is not None and self.loop.is_running():
            asyncio.run_coroutine_threadsafe(self._shutdown(), self.loop).result(30.0)
            self.loop.call_soon_threadsafe(self.loop.stop)
        if self.serve_thread is not None:
            self.serve_thread.join(10.0)
        if close_service:
            self.service.close()

    async def _shutdown(self) -> None:
        for server in (self._http_server, self._binary_server):
            if server is not None:
                server.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        for server in (self._http_server, self._binary_server):
            if server is not None:
                await server.wait_closed()

    def frontend_stats(self) -> dict:
        return {
            "kind": "async",
            "connections": self._http_live,
            "connections_total": self._http_total,
            "binary_connections": self._binary_live,
            "binary_connections_total": self._binary_total,
        }

    # ------------------------------------------------------------------ #
    # HTTP front end
    # ------------------------------------------------------------------ #
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._http_live += 1
        self._http_total += 1
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while True:
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), IDLE_CONNECTION_TIMEOUT
                    )
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    TimeoutError,
                    ConnectionResetError,
                ):
                    return  # clean close, silent client, or reset
                except asyncio.LimitOverrunError:
                    await self._respond(
                        writer,
                        431,
                        {"error": "request head too large", "reason": "invalid"},
                        close=True,
                    )
                    return
                try:
                    method, path, version, headers = _parse_head(head)
                except ValueError as error:
                    await self._respond(
                        writer,
                        400,
                        {"error": str(error), "reason": "invalid"},
                        close=True,
                    )
                    return
                close_after = _closes_after(version, headers)
                if await self._dispatch(
                    method, path, version, headers, reader, writer, close_after
                ):
                    return
        except (ConnectionResetError, BrokenPipeError, OSError):
            return  # peer went away mid-exchange
        finally:
            self._http_live -= 1
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        headers: Tuple = (),
        close: bool = False,
    ) -> None:
        body = protocol.encode_json(payload)
        head = [
            f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, '')}".encode("latin-1"),
            b"Content-Type: application/json",
            f"Content-Length: {len(body)}".encode("ascii"),
        ]
        for name, value in headers:
            head.append(f"{name}: {value}".encode("latin-1"))
        if close:
            head.append(b"Connection: close")
        writer.write(b"\r\n".join(head) + b"\r\n\r\n" + body)
        await writer.drain()

    async def _respond_error(
        self, writer: asyncio.StreamWriter, error: BaseException, close: bool = False
    ) -> None:
        status, payload, headers = error_payload(error)
        await self._respond(writer, status, payload, headers=headers, close=close)

    async def _dispatch(
        self,
        method: str,
        path: str,
        version: str,
        headers: Dict[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        close_after: bool,
    ) -> bool:
        """Serve one request; returns True when the connection must close."""
        if method == "GET":
            if path == "/healthz":
                await self._respond(
                    writer, 200, self.service.health(), close=close_after
                )
            elif path == "/stats":
                stats = self.service.stats()
                stats["frontend"] = self.frontend_stats()
                await self._respond(writer, 200, stats, close=close_after)
            else:
                await self._respond(
                    writer,
                    404,
                    {"error": f"unknown path {path}"},
                    close=close_after,
                )
            return close_after
        if method != "POST":
            await self._respond(
                writer,
                501,
                {"error": f"unsupported method {method}"},
                close=True,
            )
            return True
        if path != "/recognise":
            # The declared body (if any) is unread; keep-alive would
            # desynchronise, so close — same rule as body rejections.
            await self._respond(
                writer, 404, {"error": f"unknown path {path}"}, close=True
            )
            return True
        return await self._post_recognise(
            version, headers, reader, writer, close_after
        )

    async def _post_recognise(
        self,
        version: str,
        headers: Dict[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        close_after: bool,
    ) -> bool:
        try:
            length = protocol.validate_body_length(
                headers.get("content-length"), headers.get("transfer-encoding")
            )
        except ValueError as error:
            # Body bytes may be in flight that will never be read.
            await self._respond_error(writer, error, close=True)
            return True
        try:
            raw = await asyncio.wait_for(
                reader.readexactly(length), BODY_READ_TIMEOUT
            )
        except (asyncio.TimeoutError, TimeoutError):
            error = SlowBodyError(
                f"request body ({length} bytes) not received within "
                f"{BODY_READ_TIMEOUT} s"
            )
            await self._respond_error(writer, error, close=True)
            return True
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return True  # client gave up mid-upload
        try:
            parsed = protocol.parse_recognise(
                protocol.decode_json_body(raw), headers.get("x-client-id")
            )
        except Exception as error:  # noqa: BLE001 — taxonomy in one place
            await self._respond_error(writer, error, close=close_after)
            return close_after
        if parsed.stream:
            return await self._stream_recognise(
                parsed, writer, close_after, chunked=version != "HTTP/1.0"
            )
        return await self._buffered_recognise(parsed, writer, close_after)

    async def _drive(
        self, parsed: ParsedRecognise, budget: float, window: int, in_order: bool
    ) -> AsyncIterator[Tuple[List[Tuple[int, int, object]], bool]]:
        """The one submit/wait/retry/cancel loop behind every recognise answer.

        Submits the request's rows in windows of at most ``window`` rows
        and yields ``(segments, idle)`` as their outcomes arrive:
        ``(start, stop, outcome)`` row ranges, in row order when
        ``in_order`` (rows resolved behind an unresolved one wait for it)
        or else in arrival order, and whether no admitted row is still
        owed.  A row's window slot frees when it is yielded.  The first
        yield is empty and comes once the first window is admitted.

        Everything raised before that first yield is a whole-request
        answer: a request spanning several windows is checked whole
        (:meth:`RecognitionService.check_request`) before anything is
        queued, and a refused first window is never retried.  Later,
        backpressure or quota denial is absorbed by draining the rows in
        flight and retrying (after ``retry_after`` when nothing is in
        flight); any other refusal, such as a closed service, fails the
        unsubmitted rows as one segment.  When ``budget`` seconds pass,
        the queued rows are cancelled and every row not yet yielded fails
        with one ``TimeoutError``.  Iterate under
        :func:`contextlib.aclosing`: a consumer that stops early (a failed
        row, a vanished client, a cancelled task) cancels the in-flight
        submissions on the way out.
        """
        service = self.service
        loop = self.loop
        codes, seeds = parsed.codes, parsed.seeds
        total = codes.shape[0]
        if total > window:
            # A one-window request is checked whole by its submit_batch.
            codes, seeds = service.check_request(
                codes, seeds, parsed.timeout_ms, parsed.priority, parsed.client_id
            )
        deadline = loop.time() + budget
        drain = _SegmentDrain(self._bridge)
        inflight: List[Submission] = []
        owed = np.ones(total, dtype=bool)  # rows not yet yielded
        early: Dict[int, Tuple[int, object]] = {}  # start -> (stop, outcome)
        settled = 0  # rows yielded

        def submit(start: int, stop: int) -> None:
            inflight.append(
                service.submit_batch(
                    codes[start:stop],
                    seeds[start:stop],
                    drain.sink(start),
                    timeout_ms=parsed.timeout_ms,
                    priority=parsed.priority,
                    client_id=parsed.client_id,
                )
            )

        try:
            next_row = min(window, total)  # rows submitted so far
            if next_row:
                submit(0, next_row)
            yield [], not next_row
            refused: Optional[BaseException] = None
            while True:
                while refused is None and next_row < min(settled + window, total):
                    end = min(settled + window, total)
                    try:
                        submit(next_row, end)
                    except (BackpressureError, QuotaExceededError) as error:
                        if next_row > settled:
                            break  # drain our own rows, then retry
                        remaining = deadline - loop.time()
                        if remaining <= 0:
                            refused = error
                            break
                        delay = getattr(error, "retry_after", None) or 0.02
                        await asyncio.sleep(max(min(delay, 0.25, remaining), 1e-4))
                        continue
                    except Exception as error:  # noqa: BLE001 — permanent
                        refused = error
                        break
                    next_row = end
                if settled >= next_row:
                    break  # done, or admission gave out with nothing owed
                remaining = deadline - loop.time()
                batch = await drain.drained(remaining)
                if not batch and remaining <= 0:
                    for submission in inflight:
                        submission.cancel()
                    timeout = concurrent.futures.TimeoutError(
                        f"request not served within {budget} s"
                    )
                    rows = np.flatnonzero(owed).tolist()
                    yield [(row, row + 1, timeout) for row in rows], True
                    return
                if in_order:
                    for start, stop, outcome in batch:
                        early[start] = (stop, outcome)
                    batch = []
                    while settled in early:
                        stop, outcome = early.pop(settled)
                        batch.append((settled, stop, outcome))
                        settled = stop
                else:
                    settled += sum(stop - start for start, stop, _ in batch)
                for start, stop, _ in batch:
                    owed[start:stop] = False
                if batch:
                    yield batch, settled >= next_row
            if refused is not None:
                yield [(next_row, total, refused)], True
        finally:
            for submission in inflight:
                submission.cancel()

    async def _buffered_recognise(
        self,
        parsed: ParsedRecognise,
        writer: asyncio.StreamWriter,
        close_after: bool,
    ) -> bool:
        """One JSON body: a one-window submission whose rows are assembled
        in row order; the first failed row (the lowest, as in
        ``RecognitionService.recognise_many``) answers the whole request
        and abandons the rest, and a spent wait budget is a 504."""
        budget = protocol.wait_budget(
            parsed.timeout_ms, default=DEFAULT_REQUEST_TIMEOUT
        )
        results: List[dict] = []
        failure: Optional[BaseException] = None
        try:
            async with contextlib.aclosing(
                self._drive(parsed, budget, parsed.codes.shape[0], in_order=True)
            ) as answers:
                async for segments, _idle in answers:
                    for _start, _stop, outcome in segments:
                        if isinstance(outcome, BaseException):
                            failure = outcome
                            break
                        results.extend(result_rows(outcome))
                    if failure is not None:
                        break
        except Exception as error:  # noqa: BLE001 — admission/validation
            failure = error
        if failure is not None:
            await self._respond_error(writer, failure, close=close_after)
            return close_after
        body = {"count": len(results), "results": results}
        if parsed.single:
            body["result"] = results[0]
        await self._respond(writer, 200, body, close=close_after)
        return close_after

    async def _stream_recognise(
        self,
        parsed: ParsedRecognise,
        writer: asyncio.StreamWriter,
        close_after: bool,
        chunked: bool = True,
    ) -> bool:
        """Chunked-NDJSON streaming: one line per row, in row order, under
        the whole-stream budget ``MAX_REQUEST_TIMEOUT`` (see :meth:`_drive`).

        The ``200`` head goes out once the first window is admitted, so a
        request refused before that gets a clean whole-request status;
        rows failing later (deadline, shed, closed service, spent budget)
        are per-row error lines under a well-formed summary.  HTTP/1.0
        has no chunked coding: a 1.0 request (``chunked=False``) gets the
        same lines close-delimited, ended by EOF.
        """
        close_after = close_after or not chunked
        frame = _chunk if chunked else bytes
        body_end = _CHUNKED_END if chunked else b""
        head = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
        if chunked:
            head += b"Transfer-Encoding: chunked\r\n"
        if close_after:
            head += b"Connection: close\r\n"
        head += b"\r\n"
        encoder = StreamLineEncoder(parsed.codes.shape[0])
        committed = False
        try:
            async with contextlib.aclosing(
                self._drive(
                    parsed,
                    MAX_REQUEST_TIMEOUT,
                    self.service.stream_window(),
                    in_order=True,
                )
            ) as answers:
                async for segments, _idle in answers:
                    if not committed:
                        committed = True
                        writer.write(head)
                    writer.write(
                        b"".join(
                            frame(line)
                            for segment in segments
                            for line in encoder.segment(*segment)
                        )
                    )
                    await writer.drain()
            writer.write(frame(encoder.summary()) + body_end)
            await writer.drain()
            return close_after
        except (ConnectionResetError, BrokenPipeError, OSError):
            return True  # client went away; its queued rows are cancelled
        except Exception as error:  # noqa: BLE001
            if not committed:
                # Refused before the 200 was on the wire: the caller
                # still gets its clean status.
                await self._respond_error(writer, error, close=close_after)
                return close_after
            try:
                writer.write(frame(encoder.abnormal_summary(error)) + body_end)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            return True

    # ------------------------------------------------------------------ #
    # Binary front end
    # ------------------------------------------------------------------ #
    async def _handle_binary(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._binary_live += 1
        self._binary_total += 1
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            hello_client = await self._binary_handshake(reader, writer)
            if hello_client is _REJECTED:
                return
            while True:
                try:
                    kind, version, header, arrays = await asyncio.wait_for(
                        _read_frame(reader), IDLE_CONNECTION_TIMEOUT
                    )
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    TimeoutError,
                    ConnectionResetError,
                ):
                    return
                except wire.WireProtocolError as error:
                    await _write_error(writer, error)
                    return
                if kind == wire.BYE:
                    return
                if kind == wire.PING:
                    await _write_frame(writer, wire.PONG, header={})
                    continue
                if kind != wire.RECOGNISE:
                    await _write_error(
                        writer,
                        wire.WireProtocolError(
                            f"unexpected frame kind {kind} after handshake"
                        ),
                    )
                    return
                if not await self._binary_recognise(
                    header, arrays, hello_client, writer
                ):
                    return
        except (ConnectionResetError, BrokenPipeError, OSError):
            return
        finally:
            self._binary_live -= 1
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass

    async def _binary_handshake(self, reader, writer):
        """HELLO/HELLO exchange; returns the client id or ``_REJECTED``.

        Every rejection is a *typed* ``ERROR`` frame before close — a
        mismatched or confused peer must get a diagnosable answer, never
        a hang or a bare reset.
        """
        try:
            kind, version, header, _arrays = await asyncio.wait_for(
                _read_frame(reader), IDLE_CONNECTION_TIMEOUT
            )
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            TimeoutError,
            ConnectionResetError,
        ):
            return _REJECTED
        except wire.WireProtocolError as error:
            await _write_error(writer, error)
            return _REJECTED
        if kind != wire.HELLO:
            await _write_error(
                writer,
                wire.WireProtocolError(
                    f"expected HELLO as the first frame, got kind {kind}"
                ),
            )
            return _REJECTED
        if version != wire.PROTOCOL_VERSION or (
            header.get("protocol") != wire.PROTOCOL_VERSION
        ):
            await _write_error(
                writer,
                wire.ProtocolVersionError(
                    f"peer speaks protocol {header.get('protocol', version)!r}, "
                    f"server speaks {wire.PROTOCOL_VERSION}"
                ),
            )
            return _REJECTED
        await _write_frame(
            writer,
            wire.HELLO,
            header={"protocol": wire.PROTOCOL_VERSION, "role": "serving"},
        )
        return header.get("client_id")

    async def _binary_recognise(
        self,
        header: dict,
        arrays: Dict[str, np.ndarray],
        hello_client: Optional[str],
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Serve one RECOGNISE frame; returns False when the connection
        is no longer usable (transport failure mid-answer).

        ``ROWS`` frames carry explicit row indices, so rows ship in
        arrival order and a window slot frees the moment its row
        resolves; ``timeout_ms`` is a per-row dispatch deadline, exactly
        as on the HTTP stream, and the whole answer gets the hard ceiling
        ``MAX_REQUEST_TIMEOUT``.  A request refused before its first
        window is admitted gets a typed ``ERROR`` frame instead.
        """
        request_id = header.get("id")
        chunk = _RowsFrame(request_id)
        try:
            parsed = _parse_binary_recognise(header, arrays, hello_client)
            async with contextlib.aclosing(
                self._drive(
                    parsed,
                    MAX_REQUEST_TIMEOUT,
                    self.service.stream_window(),
                    in_order=False,
                )
            ) as answers:
                async for segments, idle in answers:
                    for segment in segments:
                        chunk.add(*segment)
                        # Flush greedily: resolved rows go out in amortised
                        # ROWS frames — live progress without per-row frames.
                        if chunk.rows >= _ROWS_FLUSH:
                            await _write_frame(writer, wire.ROWS, *chunk.flush())
                    if chunk.rows and idle:  # the last yield is idle
                        await _write_frame(writer, wire.ROWS, *chunk.flush())
            await _write_frame(
                writer,
                wire.DONE,
                header={
                    "id": request_id,
                    "count": parsed.codes.shape[0],
                    "ok": chunk.ok,
                    "failed": chunk.failed,
                },
            )
        except (ConnectionResetError, BrokenPipeError, OSError):
            return False
        except Exception as error:  # noqa: BLE001 — malformed or refused request
            await _write_error(writer, error, request_id=request_id)
        return True  # answer complete; connection stays usable


#: Sentinel for a failed binary handshake (``None`` is a valid client id).
_REJECTED = object()

#: Resolved rows buffered per ROWS frame before a flush.
_ROWS_FLUSH = 256


class _RowsFrame:
    """Accumulates resolved segments into one ROWS frame's header + arrays,
    and counts the request's ok/failed rows across frames."""

    def __init__(self, request_id) -> None:
        self.request_id = request_id
        self.ok = 0
        self.failed = 0
        self.reset()

    def reset(self) -> None:
        self.indices: List[np.ndarray] = []
        self.results: List[BatchRecognitionResult] = []
        self.errors: List[dict] = []
        self.rows = 0

    def add(self, start: int, stop: int, outcome: object) -> None:
        """Rows ``[start, stop)`` resolved with one outcome."""
        if isinstance(outcome, BaseException):
            self.errors.extend(
                protocol.row_error_to_json(index, outcome)
                for index in range(start, stop)
            )
            self.failed += stop - start
        else:
            self.indices.append(np.arange(start, stop, dtype=np.int32))
            self.results.append(outcome)
            self.ok += stop - start
        self.rows += stop - start

    def column(self, name: str, dtype: type) -> np.ndarray:
        parts = [getattr(result, name) for result in self.results]
        return np.concatenate(parts).astype(dtype) if parts else np.zeros(0, dtype)

    def flush(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        # int32 on the wire: row indices, class winners, crossbar columns
        # and 5-bit dominant codes all fit with room to spare, and the
        # wire exists to be smaller than JSON — int64 would double the
        # result payload for no information.
        header = {"id": self.request_id, "errors": self.errors}
        arrays = {
            "index": (
                np.concatenate(self.indices)
                if self.indices
                else np.zeros(0, dtype=np.int32)
            ),
            "winner": self.column("winner", np.int32),
            "winner_column": self.column("winner_column", np.int32),
            "dom_code": self.column("dom_code", np.int32),
            "accepted": self.column("accepted", np.uint8),
            "tie": self.column("tie", np.uint8),
            "static_power_w": self.column("static_power", np.float64),
        }
        self.reset()
        return header, arrays


def _parse_binary_recognise(
    header: dict, arrays: Dict[str, np.ndarray], hello_client: Optional[str]
) -> ParsedRecognise:
    """Validate one RECOGNISE frame into the shared request shape.

    The JSON path's field semantics apply verbatim: the frame header's
    ``client_id`` is authoritative with the HELLO's as fallback,
    ``seeds`` (an int64 array) must match the batch, and a scalar
    ``seed`` broadcasts.
    """
    codes = arrays.get("codes")
    if codes is None:
        raise ValueError("RECOGNISE frame requires a codes array")
    if codes.ndim != 2:
        raise ValueError(f"codes must be a 2-D batch, got shape {codes.shape}")
    codes = protocol.integral_payload("codes", codes)
    seeds_array = arrays.get("seeds")
    if seeds_array is not None:
        seeds = protocol.integral_payload("seeds", seeds_array)
        if seeds.shape != (codes.shape[0],):
            raise ValueError(
                f"seeds must have length {codes.shape[0]}, got {seeds.size}"
            )
    else:
        seed = protocol.integral_scalar("seed", header.get("seed", 0))
        seeds = np.full(codes.shape[0], seed, dtype=np.int64)
    timeout_ms = header.get("timeout_ms")
    if timeout_ms is not None:
        timeout_ms = float(timeout_ms)
    priority = header.get("priority")
    priority = 0 if priority is None else protocol.integral_scalar(
        "priority", priority
    )
    client_id = header.get("client_id")
    if client_id is None:
        client_id = hello_client
    client_id = validate_client_id(client_id)
    return ParsedRecognise(
        codes=codes,
        seeds=seeds,
        single=False,
        stream=True,
        timeout_ms=timeout_ms,
        priority=priority,
        client_id=client_id,
    )


# ---------------------------------------------------------------------- #
# Async wire-frame I/O (same codec as the socket path)
# ---------------------------------------------------------------------- #
async def _read_frame(reader: asyncio.StreamReader):
    prefix = await reader.readexactly(wire.PREFIX_SIZE)
    kind, version, header_len, arrays_len = wire.unpack_prefix(prefix)
    header = wire.decode_header(await reader.readexactly(header_len))
    arrays = wire.decode_arrays(header, await reader.readexactly(arrays_len))
    return kind, version, header, arrays


async def _write_frame(
    writer: asyncio.StreamWriter,
    kind: int,
    header: Optional[dict] = None,
    arrays: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    for part in wire.encode_frame(kind, header, arrays):
        writer.write(part if isinstance(part, bytes) else memoryview(part).cast("B"))
    await writer.drain()


async def _write_error(
    writer: asyncio.StreamWriter, error: BaseException, request_id=None
) -> None:
    """Transport an exception as a typed ERROR frame (HTTP taxonomy added)."""
    status, reason = classify_error(error)
    header = {
        "type": type(error).__name__,
        "message": str(error),
        "status": status,
        "reason": reason,
    }
    if request_id is not None:
        header["id"] = request_id
    await _write_frame(writer, wire.ERROR, header=header)


# ---------------------------------------------------------------------- #
# Lifecycle helpers
# ---------------------------------------------------------------------- #
def start_async_server(
    service: RecognitionService,
    host: str = "127.0.0.1",
    port: int = 0,
    binary_port: Optional[int] = 0,
) -> AsyncRecognitionServer:
    """Boot the asyncio front end on a background thread; returns it.

    ``port=0`` / ``binary_port=0`` bind ephemeral free ports (read them
    back from ``server.port`` / ``server.binary_port``);
    ``binary_port=None`` disables the binary endpoint.  The loop thread
    is a daemon; call :func:`stop_async_server` for a clean shutdown.
    """
    return AsyncRecognitionServer(
        service, host=host, port=port, binary_port=binary_port
    ).start()


def stop_async_server(
    server: AsyncRecognitionServer, close_service: bool = True
) -> None:
    """Stop both listeners, cancel live connections, join the loop thread."""
    server.stop(close_service=close_service)
