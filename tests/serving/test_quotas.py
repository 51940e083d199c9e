"""Per-client quota tests: token bucket, in-flight cap, HTTP 429 mapping.

Quota denials are a *per-client* verdict, distinct from shared-queue
backpressure: they map to HTTP 429 with ``"reason": "quota"`` and a
``Retry-After`` hint, count under ``requests.quota_rejected`` (never
``requests.rejected``), and show up in the per-client ``/stats``
section, so a noisy tenant is visible without throttling anyone else.
"""

from __future__ import annotations

import json

import pytest

from repro.serving import (
    BackpressureError,
    ClientQuotas,
    QuotaConfig,
    QuotaExceededError,
    RecognitionClient,
    RecognitionService,
    ServerError,
    start_async_server,
    stop_async_server,
)
from tests.serving.test_regressions import wait_for


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def make(self, rate=10.0, burst=5, max_inflight=None):
        clock = FakeClock()
        quotas = ClientQuotas(
            QuotaConfig(rate=rate, burst=burst, max_inflight=max_inflight),
            clock=clock,
        )
        return quotas, clock

    def test_burst_then_deny_with_retry_hint(self):
        quotas, clock = self.make()
        quotas.admit("a", 5)
        with pytest.raises(QuotaExceededError) as excinfo:
            quotas.admit("a", 1)
        assert excinfo.value.retry_after == pytest.approx(0.1)

    def test_refill_at_rate(self):
        quotas, clock = self.make()
        quotas.admit("a", 5)
        clock.advance(0.25)  # 2.5 tokens back at 10/s
        quotas.admit("a", 2)
        with pytest.raises(QuotaExceededError):
            quotas.admit("a", 1)
        clock.advance(10.0)  # refill caps at burst
        quotas.admit("a", 5)
        with pytest.raises(QuotaExceededError):
            quotas.admit("a", 1)

    def test_clients_are_independent(self):
        quotas, _ = self.make()
        quotas.admit("a", 5)
        quotas.admit("b", 5)  # b's bucket is untouched by a's spend

    def test_oversized_burst_is_permanent_error(self):
        quotas, _ = self.make()
        with pytest.raises(ValueError, match="stream"):
            quotas.admit("a", 6)

    def test_inflight_cap_and_release(self):
        quotas, clock = self.make(rate=1000.0, burst=1000, max_inflight=2)
        quotas.admit("a", 2)
        with pytest.raises(QuotaExceededError) as excinfo:
            quotas.admit("a", 1)
        assert excinfo.value.retry_after is None
        quotas.release("a", 1)
        quotas.admit("a", 1)
        assert quotas.inflight("a") == 2

    def test_cancel_admission_restores_everything(self):
        quotas, _ = self.make(max_inflight=5)
        quotas.admit("a", 4)
        quotas.cancel_admission("a", 4)
        assert quotas.inflight("a") == 0
        quotas.admit("a", 5)  # tokens are back too

    def test_refund_tokens_leaves_inflight(self):
        quotas, _ = self.make(max_inflight=5)
        quotas.admit("a", 3)
        quotas.refund_tokens("a", 3)
        assert quotas.inflight("a") == 3
        quotas.admit("a", 2)  # 5 - 3 + 3 = 5 tokens were available

    def test_anonymous_bucket_is_shared(self):
        quotas, _ = self.make()
        quotas.admit(None, 5)
        with pytest.raises(QuotaExceededError):
            quotas.admit(None, 1)

    def test_bucket_table_is_pruned(self, monkeypatch):
        """Spraying unique client ids must not grow the table forever:
        idle, fully-refilled buckets (indistinguishable from fresh ones)
        are swept once the table exceeds the prune threshold."""
        import repro.serving.quotas as quotas_module

        monkeypatch.setattr(quotas_module, "PRUNE_TABLE_SIZE", 4)
        quotas, clock = self.make(rate=10.0, burst=5)
        for index in range(10):
            quotas.admit(f"spray-{index}", 1)
            quotas.release(f"spray-{index}", 1)
        clock.advance(10.0)  # every bucket refills to burst
        quotas.admit("fresh", 1)
        assert len(quotas._buckets) <= 5  # swept table + the new client
        # A bucket with rows in flight is never swept.
        quotas.admit("busy", 2)
        clock.advance(10.0)
        for index in range(10):
            quotas.admit(f"again-{index}", 1)
            quotas.release(f"again-{index}", 1)
        clock.advance(10.0)
        quotas.admit("fresh-2", 1)
        assert quotas.inflight("busy") == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuotaConfig(rate=0.0, burst=4)
        with pytest.raises(ValueError):
            QuotaConfig(rate=1.0, burst=0)
        with pytest.raises(ValueError):
            QuotaConfig(rate=1.0, burst=4, max_inflight=0)


class TestServiceQuota:
    def test_inflight_cap_denies_and_recovers(
        self, serving_amm, request_codes, recall_gate
    ):
        gate, _ = recall_gate
        clock_quotas = ClientQuotas(
            QuotaConfig(rate=1e9, burst=1000, max_inflight=2)
        )
        service = RecognitionService(
            serving_amm,
            max_batch_size=1,
            max_wait=0.0,
            workers=1,
            quota=clock_quotas,
        )
        try:
            first = service.submit(request_codes[0], seed=1, client_id="a")
            second = service.submit(request_codes[1], seed=2, client_id="a")
            with pytest.raises(QuotaExceededError):
                service.submit(request_codes[2], seed=3, client_id="a")
            # Another tenant is unaffected.
            other = service.submit(request_codes[3], seed=4, client_id="b")
            assert service.metrics.quota_rejected == 1
            gate.set()
            for future in (first, second, other):
                assert future.result(timeout=20.0) is not None
            # The resolved futures released their in-flight slots.
            assert wait_for(lambda: clock_quotas.inflight("a") == 0)
            third = service.submit(request_codes[2], seed=3, client_id="a")
            assert third.result(timeout=20.0) is not None
            stats = service.stats()
            assert stats["requests"]["quota_rejected"] == 1
            assert stats["clients"]["a"]["quota_rejected"] == 1
            assert stats["clients"]["a"]["submitted"] == 3
            assert stats["clients"]["b"]["completed"] == 1
        finally:
            gate.set()
            service.close()

    def test_token_exhaustion_is_quota_not_backpressure(
        self, serving_amm, request_codes
    ):
        service = RecognitionService(
            serving_amm,
            max_batch_size=8,
            max_wait=0.0,
            quota=QuotaConfig(rate=1e-3, burst=2),
        )
        try:
            service.recognise_many(
                request_codes[:2], seeds=[1, 2], client_id="a", timeout=20.0
            )
            with pytest.raises(QuotaExceededError) as excinfo:
                service.submit(request_codes[2], seed=3, client_id="a")
            assert excinfo.value.retry_after is not None
            assert service.metrics.quota_rejected == 1
            assert service.metrics.rejected == 0
        finally:
            service.close()

    def test_backpressure_rejection_refunds_quota(
        self, serving_amm, request_codes, recall_gate
    ):
        """A quota-admitted batch the shared queue rejects must give the
        client its tokens and in-flight slots back."""
        gate, _ = recall_gate
        quotas = ClientQuotas(QuotaConfig(rate=1e9, burst=100, max_inflight=100))
        service = RecognitionService(
            serving_amm,
            max_batch_size=1,
            max_wait=0.0,
            max_queue_depth=2,
            workers=1,
            quota=quotas,
        )
        try:
            # Fill the gated pipeline and the bounded queue until the
            # service starts pushing back.
            admitted = []
            saw_backpressure = False
            for index in range(32):
                try:
                    admitted.append(
                        service.submit(
                            request_codes[index % 8], seed=index, client_id="a"
                        )
                    )
                except BackpressureError:
                    saw_backpressure = True
                    break
            assert saw_backpressure, "bounded queue never pushed back"
            inflight_before = quotas.inflight("a")
            assert inflight_before == len(admitted)
            with pytest.raises(BackpressureError):
                service.submit_many(
                    request_codes[6:8], seeds=[108, 109], client_id="a"
                )
            # The rejected rows (single and batch) charged nothing.
            assert quotas.inflight("a") == inflight_before
            gate.set()
            for future in admitted:
                future.result(timeout=20.0)
            assert wait_for(lambda: quotas.inflight("a") == 0)
        finally:
            gate.set()
            service.close()


class TestHttpQuota:
    @pytest.fixture()
    def quota_server(self, serving_amm):
        service = RecognitionService(
            serving_amm,
            max_batch_size=8,
            max_wait=1e-3,
            quota=QuotaConfig(rate=1e-3, burst=2),
        )
        server = start_async_server(service, port=0)
        yield server
        stop_async_server(server)

    def test_quota_429_reason_and_retry_after(self, quota_server, request_codes):
        import http.client

        with RecognitionClient(
            "127.0.0.1", quota_server.port, client_id="tenant-1"
        ) as client:
            client.recognise(request_codes[0], seed=1)
            client.recognise(request_codes[1], seed=2)
            connection = http.client.HTTPConnection(
                "127.0.0.1", quota_server.port, timeout=10.0
            )
            try:
                connection.request(
                    "POST",
                    "/recognise",
                    body=json.dumps(
                        {"codes": request_codes[2].tolist(), "client_id": "tenant-1"}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 429
                assert payload["reason"] == "quota"
                assert int(response.getheader("Retry-After")) >= 1
            finally:
                connection.close()
            stats = client.stats()
            assert stats["requests"]["quota_rejected"] == 1
            assert stats["requests"]["rejected"] == 0
            assert stats["clients"]["tenant-1"]["quota_rejected"] == 1

    def test_header_client_id_is_used(self, quota_server, request_codes):
        with RecognitionClient(
            "127.0.0.1", quota_server.port, client_id="header-tenant"
        ) as client:
            client.recognise(request_codes[0], seed=1)
            stats = client.stats()
        assert stats["clients"]["header-tenant"]["submitted"] == 1

    def test_null_body_client_id_falls_back_to_header(
        self, quota_server, request_codes
    ):
        """An explicit JSON null must not let a tenant shed its gateway's
        X-Client-Id and slip into the anonymous bucket."""
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", quota_server.port, timeout=10.0
        )
        try:
            connection.request(
                "POST",
                "/recognise",
                body=json.dumps(
                    {"codes": request_codes[0].tolist(), "client_id": None}
                ).encode(),
                headers={
                    "Content-Type": "application/json",
                    "X-Client-Id": "gateway-tenant",
                },
            )
            response = connection.getresponse()
            assert response.status == 200
            response.read()
        finally:
            connection.close()
        with RecognitionClient("127.0.0.1", quota_server.port) as client:
            stats = client.stats()
        assert stats["clients"]["gateway-tenant"]["submitted"] == 1

    def test_body_client_id_overrides_header(self, quota_server, request_codes):
        with RecognitionClient(
            "127.0.0.1", quota_server.port, client_id="header-tenant"
        ) as client:
            client.recognise(request_codes[0], seed=1, client_id="body-tenant")
            stats = client.stats()
        assert stats["clients"]["body-tenant"]["submitted"] == 1

    def test_other_tenant_unaffected(self, quota_server, request_codes):
        with RecognitionClient(
            "127.0.0.1", quota_server.port, client_id="greedy"
        ) as client:
            client.recognise(request_codes[0], seed=1)
            client.recognise(request_codes[1], seed=2)
            with pytest.raises(ServerError) as excinfo:
                client.recognise(request_codes[2], seed=3)
            assert excinfo.value.status == 429
            assert excinfo.value.reason == "quota"
        with RecognitionClient(
            "127.0.0.1", quota_server.port, client_id="quiet"
        ) as client:
            assert "winner" in client.recognise(request_codes[3], seed=4)


class TestRetryAfterContract:
    """The ``Retry-After`` hint must be honest: a non-negative integer
    number of seconds after which the same request really is admitted."""

    def test_header_is_a_nonnegative_integer(self, serving_amm, request_codes):
        import http.client

        service = RecognitionService(
            serving_amm,
            max_batch_size=8,
            max_wait=1e-3,
            quota=QuotaConfig(rate=0.5, burst=1),
        )
        server = start_async_server(service, port=0)
        try:
            with RecognitionClient(
                "127.0.0.1", server.port, client_id="hinted"
            ) as client:
                client.recognise(request_codes[0], seed=1)  # spend the burst
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10.0
            )
            try:
                connection.request(
                    "POST",
                    "/recognise",
                    body=json.dumps(
                        {"codes": request_codes[1].tolist(), "client_id": "hinted"}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 429
                header = response.getheader("Retry-After")
                assert header is not None
                # RFC 9110: delay-seconds is a non-negative decimal
                # integer — no floats, no negatives.
                assert header == str(int(header))
                assert int(header) >= 0
                # The hint must cover the actual refill time (1 token at
                # 0.5/s = 2 s), rounded up, never down.
                assert int(header) >= 2
            finally:
                connection.close()
        finally:
            stop_async_server(server)

    def test_waiting_retry_after_actually_admits(self, serving_amm, request_codes):
        """Advance an injected clock by exactly the hinted (integer)
        seconds: the retried request is admitted — the hint never
        under-promises."""
        import math

        clock = FakeClock()
        quotas = ClientQuotas(QuotaConfig(rate=3.0, burst=2), clock=clock)
        service = RecognitionService(
            serving_amm, max_batch_size=8, max_wait=1e-3, quota=quotas
        )
        try:
            service.recognise(request_codes[0], seed=1, client_id="patient")
            service.recognise(request_codes[1], seed=2, client_id="patient")
            with pytest.raises(QuotaExceededError) as excinfo:
                service.submit(request_codes[2], seed=3, client_id="patient")
            retry_after = excinfo.value.retry_after
            assert retry_after is not None and retry_after >= 0
            hinted_header = max(1, int(math.ceil(retry_after)))  # the 429 header
            # One tick short of the hint may still be denied...
            clock.advance(max(0.0, retry_after - 0.05))
            with pytest.raises(QuotaExceededError):
                service.submit(request_codes[2], seed=3, client_id="patient")
            # ...but the full hinted wait always admits.
            clock.advance((hinted_header - retry_after) + 0.05)
            result = service.recognise(
                request_codes[2], seed=3, client_id="patient", timeout=20.0
            )
            assert result.winner_column >= 0
        finally:
            service.close()

    def test_inflight_denial_hints_one_second_and_clears(
        self, serving_amm, request_codes, recall_gate
    ):
        """An inflight-cap denial has no refill time (retry_after None);
        the HTTP layer still emits an integer hint of 1, and once the
        in-flight rows resolve the retry is admitted."""
        from repro.serving.protocol import error_payload

        gate, _ = recall_gate
        clock = FakeClock()
        quotas = ClientQuotas(
            QuotaConfig(rate=1e9, burst=64, max_inflight=2), clock=clock
        )
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, workers=1, quota=quotas
        )
        try:
            futures = [
                service.submit(request_codes[index], seed=index, client_id="capped")
                for index in range(2)
            ]
            with pytest.raises(QuotaExceededError) as excinfo:
                service.submit(request_codes[2], seed=9, client_id="capped")
            assert excinfo.value.retry_after is None
            _, _, headers = error_payload(excinfo.value)
            ((name, value),) = headers
            assert name == "Retry-After"
            assert value == str(int(value)) and int(value) >= 0
            gate.set()
            for future in futures:
                future.result(timeout=20.0)
            assert wait_for(lambda: quotas.inflight("capped") == 0)
            result = service.recognise(
                request_codes[2], seed=9, client_id="capped", timeout=20.0
            )
            assert result.winner_column >= 0
        finally:
            gate.set()
            service.close()
