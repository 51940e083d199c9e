"""Protocol-agnostic request logic shared by every serving endpoint.

The JSON HTTP endpoint and the binary wire endpoint of the front end
(:mod:`repro.serving.aio`) serve the *same* request contract: the same
body validation, the same error taxonomy, the same quota/priority/
deadline plumbing and the same stream-windowing policy.  This module is
that contract in one place, so an endpoint can only differ in transport
— never in semantics:

* **Result / error projection** — :func:`result_to_json` (one row) and
  :func:`result_rows` (every row of a batch result, from whole columns),
  :func:`classify_error`, :func:`row_error_to_json` and
  :func:`error_payload` define the one mapping from engine results and
  exceptions to the JSON the client sees (whole-request statuses and
  per-row stream errors share it, so the taxonomy cannot drift between
  the buffered, streaming and binary paths).
* **Body validation** — :func:`integral_payload` / :func:`integral_scalar`
  reject non-integral payloads instead of silently truncating them, and
  :func:`parse_recognise` turns a decoded ``POST /recognise`` body into
  one validated :class:`ParsedRecognise` (codes, seeds, deadline,
  priority, client id, stream flag).
* **Wait budgets** — :func:`wait_budget` computes how long a front end
  lets the service work on a request before answering 504, tracking the
  request's own ``timeout_ms`` deadline between the default and the hard
  ceiling.
* **Encoding** — :func:`encode_json` is the single JSON byte encoder
  (compact separators: at thousands of rows per second the pretty-print
  spaces of ``json.dumps``'s defaults are measurable wire and CPU cost —
  see the ``encode_cost`` section of ``BENCH_serving.json``).

Transport-level constants (body-size bound, read deadlines, keep-alive
idle timeout) live here too, next to the limits they enforce.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.backends.base import WorkerCrashedError
from repro.core.amm import BatchRecognitionResult, RecognitionResult
from repro.core.inputs import integral_array
from repro.serving.errors import (
    BackpressureError,
    DeadlineExceededError,
    QuotaExceededError,
    ServiceClosedError,
)
from repro.serving.quotas import validate_client_id

#: Largest accepted request body (bytes); 128-feature code vectors are a
#: few hundred bytes each, so this admits ~1000-image requests.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Seconds a front end waits for the service to resolve a request.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Grace added on top of a request's own ``timeout_ms`` deadline: the
#: expired-in-queue drop happens at dispatch time, so the front end allows
#: the queue this long to reach the request before giving up generically.
DEADLINE_WAIT_SLACK = 2.0

#: Hard ceiling on any front-end wait, however large the client's deadline.
MAX_REQUEST_TIMEOUT = 300.0

#: Seconds a front end allows for one declared request body to arrive in
#: full.  A client that trickles its upload a byte at a time must not pin
#: an event-loop task beyond this budget: the read is abandoned and the
#: request answered 408.
BODY_READ_TIMEOUT = 30.0

#: Seconds an idle keep-alive connection may sit between requests before
#: the front end closes it (a silent client must not hold resources
#: forever).
IDLE_CONNECTION_TIMEOUT = 60.0


def encode_json(payload: dict) -> bytes:
    """The one JSON byte encoder of the serving path (compact separators)."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def result_to_json(result: RecognitionResult) -> dict:
    """The JSON-facing projection of one recognition result."""
    return {
        "winner": result.winner,
        "winner_column": result.winner_column,
        "dom_code": result.dom_code,
        "accepted": result.accepted,
        "tie": result.tie,
        "static_power_w": result.static_power,
    }


def result_rows(results: BatchRecognitionResult) -> List[Dict[str, Any]]:
    """:func:`result_to_json` of every row of a batch result, in order.

    Built from whole columns (one ``tolist()`` each) instead of a scalar
    :class:`~repro.core.amm.RecognitionResult` per row; the dictionaries
    and their JSON bytes are identical to the row-by-row projection.
    """
    return [
        {
            "winner": winner,
            "winner_column": winner_column,
            "dom_code": dom_code,
            "accepted": accepted,
            "tie": tie,
            "static_power_w": static_power,
        }
        for winner, winner_column, dom_code, accepted, tie, static_power in zip(
            results.winner.tolist(),
            results.winner_column.tolist(),
            results.dom_code.tolist(),
            results.accepted.tolist(),
            results.tie.tolist(),
            results.static_power.tolist(),
        )
    ]


def classify_error(error: BaseException) -> Tuple[int, str]:
    """Map an exception to its ``(HTTP status, reason)`` pair.

    One mapping for whole-request statuses and per-row stream errors, so
    the error taxonomy cannot drift between the buffered, streaming and
    binary paths.
    """
    if isinstance(error, QuotaExceededError):
        return 429, "quota"
    if isinstance(error, BackpressureError):
        return 429, "backpressure"
    if isinstance(error, (ServiceClosedError, WorkerCrashedError)):
        return 503, "unavailable"
    if isinstance(error, (DeadlineExceededError, concurrent.futures.TimeoutError)):
        return 504, "deadline"
    if isinstance(error, concurrent.futures.CancelledError):
        return 503, "cancelled"
    if isinstance(error, LengthRequiredError):
        return 411, "length_required"
    if isinstance(error, SlowBodyError):
        return 408, "slow_body"
    if isinstance(error, (ValueError, TypeError, OverflowError, json.JSONDecodeError)):
        return 400, "invalid"
    return 500, "internal"


def retry_after_seconds(error: BaseException) -> int:
    """``Retry-After`` hint (whole seconds) for retryable rejections."""
    retry_after = getattr(error, "retry_after", None)
    return 1 if retry_after is None else max(1, int(math.ceil(retry_after)))


def error_payload(error: BaseException) -> Tuple[int, dict, Tuple[Tuple[str, str], ...]]:
    """One exception's whole-request response: status, body and headers.

    Returns ``(status, payload, extra_headers)``; retryable rejections
    (429/503) carry a ``Retry-After`` header.  Internal errors expose the
    exception type — everything else only its message.
    """
    status, reason = classify_error(error)
    headers: Tuple[Tuple[str, str], ...] = ()
    if status in (429, 503):
        headers = (("Retry-After", str(retry_after_seconds(error))),)
    payload = {"error": str(error), "reason": reason}
    if status == 500:
        payload["error"] = f"{type(error).__name__}: {error}"
    return status, payload, headers


def row_error_to_json(index: int, error: BaseException) -> dict:
    """The per-row error object of the streaming partial-failure contract."""
    status, reason = classify_error(error)
    return {
        "index": index,
        "error": {
            "status": status,
            "reason": reason,
            "type": type(error).__name__,
            "message": str(error),
        },
    }


def integral_payload(name: str, values: object) -> np.ndarray:
    """A request's number array as int64, refusing non-integral input.

    JSON and the binary wire carry booleans and strings as well as
    numbers; those are refused here, and the numbers go through the
    module's own :func:`repro.core.inputs.integral_array`, which refuses
    ``1.7`` (and NaN, infinities, values beyond int64) rather than
    truncating it, and accepts integral floats (``2.0``) — JSON clients
    cannot always control number formatting.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be integers, got non-numeric values")
    return integral_array(name, array)


def integral_scalar(name: str, value: object) -> int:
    """Parse one JSON number as an integer, rejecting non-integral input."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value) or value != math.floor(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class ParsedRecognise:
    """One validated ``POST /recognise`` request, transport-independent.

    ``codes`` is always a 2-D ``(B, features)`` batch and ``seeds`` its
    ``(B,)`` int64 seeds; ``single`` records
    whether the client posted the 1-D single-image form (its response
    carries a ``"result"`` convenience field).
    """

    codes: np.ndarray
    seeds: np.ndarray
    single: bool
    stream: bool
    timeout_ms: Optional[float]
    priority: int
    client_id: Optional[str]


def wait_budget(
    timeout_ms: Optional[float], default: Optional[float] = None
) -> float:
    """How long a front end waits on the service for one request.

    The wait tracks the request's own deadline: shorter deadlines stop
    the client waiting long after its budget is spent, longer ones are
    honoured past the default wait (up to a hard ceiling) instead of
    being abandoned at :data:`DEFAULT_REQUEST_TIMEOUT`.  ``default``
    lets a front end substitute its own (possibly monkeypatched)
    deadline-free wait.
    """
    if timeout_ms is not None and timeout_ms > 0:
        return min(timeout_ms * 1e-3 + DEADLINE_WAIT_SLACK, MAX_REQUEST_TIMEOUT)
    return DEFAULT_REQUEST_TIMEOUT if default is None else default


def parse_seeds(
    payload: dict, count: int, single: bool
) -> np.ndarray:
    """The seed-selection rule shared by every request form.

    Single requests read ``"seed"``; batch requests read ``"seeds"``
    (one per row) or broadcast ``"seed"`` (default 0) across the batch.
    Returns the ``(count,)`` int64 seeds.
    """
    seeds = payload.get("seeds")
    if single or seeds is None:
        seed = integral_scalar("seed", payload.get("seed", 0))
        return np.full(1 if single else count, seed, dtype=np.int64)
    array = integral_payload("seeds", seeds)
    if array.shape != (count,):
        raise ValueError(f"seeds must have length {count}, got {array.size}")
    return array


def parse_recognise(
    payload: dict, header_client_id: Optional[str] = None
) -> ParsedRecognise:
    """Validate one decoded ``POST /recognise`` body.

    ``header_client_id`` is the transport-level fallback (the
    ``X-Client-Id`` HTTP header, or the binary HELLO's ``client_id``):
    the body field is authoritative, but an explicit JSON ``null`` body
    field counts as absent — it must not suppress the header fallback,
    or a tenant whose gateway stamps ``X-Client-Id`` could opt out of
    its own quota bucket.  Raises ``ValueError`` (HTTP 400) on any
    malformed field.
    """
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    codes = integral_payload("codes", payload.get("codes"))
    timeout_ms = payload.get("timeout_ms")
    if timeout_ms is not None:
        timeout_ms = float(timeout_ms)
    priority = payload.get("priority")
    priority = 0 if priority is None else integral_scalar("priority", priority)
    client_id = payload.get("client_id")
    if client_id is None:
        client_id = header_client_id
    client_id = validate_client_id(client_id)
    stream = payload.get("stream", False)
    if not isinstance(stream, bool):
        raise ValueError("stream must be a boolean")
    single = codes.ndim == 1
    if stream and single:
        raise ValueError("stream mode requires a 2-D codes batch")
    if single:
        codes = codes[None, :]
    elif codes.ndim != 2:
        raise ValueError("codes must be a 1-D vector or a 2-D batch")
    seeds = parse_seeds(payload, codes.shape[0], single)
    return ParsedRecognise(
        codes=codes,
        seeds=seeds,
        single=single,
        stream=stream,
        timeout_ms=timeout_ms,
        priority=priority,
        client_id=client_id,
    )


def validate_body_length(
    content_length: Optional[str], transfer_encoding: Optional[str]
) -> int:
    """Enforce the body-size contract *before* any body byte is read.

    Returns the declared length.  Chunked (or otherwise
    transfer-encoded) and absent bodies are rejected up front — the
    server never commits a reader thread or task to an upload whose size
    it cannot bound — with :class:`LengthRequiredError` (HTTP 411);
    oversized declarations raise ``ValueError`` (HTTP 400) with the body
    still unread.
    """
    if transfer_encoding is not None and transfer_encoding.strip():
        raise LengthRequiredError(
            "transfer-encoded request bodies are not accepted; send a "
            "Content-Length"
        )
    try:
        length = int(content_length) if content_length is not None else 0
    except ValueError:
        raise ValueError(f"malformed Content-Length {content_length!r}") from None
    if length <= 0:
        raise LengthRequiredError(
            "request body with a Content-Length is required"
        )
    if length > MAX_BODY_BYTES:
        raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
    return length


def decode_json_body(raw: bytes) -> dict:
    """Decode a request body, requiring a JSON object at top level."""
    payload = json.loads(raw)
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    return payload


class LengthRequiredError(ValueError):
    """The request body's length is absent or undeclarable (HTTP 411)."""


class SlowBodyError(RuntimeError):
    """The declared body did not arrive within the read budget (HTTP 408)."""


class StreamLineEncoder:
    """NDJSON line encoder for one streamed request, counting outcomes.

    The chunked-response writer feeds each resolved segment through one
    of these: :meth:`segment` renders its row lines, :meth:`summary` the
    clean terminal line and :meth:`abnormal_summary` the terminal line
    of a stream whose event source blew up mid-way (the remaining rows
    are counted as failed, so the client's tallies always add up to
    ``count``).
    """

    def __init__(self, total: int) -> None:
        self.total = total
        self.ok = 0
        self.failed = 0

    def segment(
        self,
        start: int,
        stop: int,
        outcome: Union[BatchRecognitionResult, BaseException],
    ) -> List[bytes]:
        """The lines of rows ``[start, stop)``, resolved with one outcome
        (their batch-result slice, or the error that failed them all)."""
        if isinstance(outcome, BaseException):
            self.failed += stop - start
            return [
                encode_json(row_error_to_json(index, outcome)) + b"\n"
                for index in range(start, stop)
            ]
        rows = result_rows(outcome)
        self.ok += len(rows)
        return [
            encode_json({"index": index, "result": row}) + b"\n"
            for index, row in enumerate(rows, start)
        ]

    def summary(self) -> bytes:
        return (
            encode_json(
                {
                    "done": True,
                    "count": self.total,
                    "ok": self.ok,
                    "failed": self.failed,
                }
            )
            + b"\n"
        )

    def abnormal_summary(self, error: BaseException) -> bytes:
        status, reason = classify_error(error)
        return (
            encode_json(
                {
                    "done": True,
                    "count": self.total,
                    "ok": self.ok,
                    "failed": self.failed + (self.total - self.ok - self.failed),
                    "error": {
                        "status": status,
                        "reason": reason,
                        "type": type(error).__name__,
                        "message": str(error),
                    },
                }
            )
            + b"\n"
        )
