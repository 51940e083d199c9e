"""Each request is validated once, whole, and never truncated.

A streamed request is submitted in windows, but its codes and seeds are
checked over every row before the first window is queued: a bad row
anywhere is a whole-request 400 (or a typed ``ERROR`` frame on the
binary endpoint), never a stream that serves the first windows and
fails the rest.  Non-integral codes and seeds are refused at every entry
point of the service, the binary client and the load drivers, never
truncated.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    BinaryRecognitionClient,
    RecognitionClient,
    RecognitionService,
    ServerError,
    run_connection_load,
    run_load,
    start_async_server,
    stop_async_server,
)

ROWS = 100
BAD_ROW = 90  # past the first window (32 rows at max_batch_size=8)


@pytest.fixture()
def gated_server(serving_amm, recall_gate):
    service = RecognitionService(serving_amm, max_batch_size=8, max_wait=1e-3)
    assert service.stream_window() < BAD_ROW
    server = start_async_server(service, port=0, binary_port=0)
    yield server, recall_gate
    recall_gate[0].set()
    stop_async_server(server)


def long_request(request_codes):
    codes = np.tile(request_codes, (5, 1))[:ROWS].copy()
    return codes, list(range(1000, 1000 + ROWS))


class TestWholeRequestValidation:
    def test_bad_row_after_first_window_reaches_no_engine(
        self, gated_server, request_codes
    ):
        server, (gate, recalled) = gated_server
        codes, seeds = long_request(request_codes)
        codes[BAD_ROW, 5] = 99  # out of range for 5-bit codes
        negative_seeds = list(seeds)
        negative_seeds[BAD_ROW] = -1
        with RecognitionClient("127.0.0.1", server.port) as client:
            for bad_codes, bad_seeds in ((codes, seeds), (codes * 0 + 1, negative_seeds)):
                with pytest.raises(ServerError) as excinfo:
                    list(client.recognise_stream(bad_codes, seeds=bad_seeds))
                assert excinfo.value.status == 400
            with pytest.raises(ServerError) as excinfo:
                client.recognise_many(codes, seeds=seeds)
            assert excinfo.value.status == 400
        with BinaryRecognitionClient("127.0.0.1", server.binary_port) as binary:
            with pytest.raises(ServerError) as excinfo:
                binary.recognise_batch(codes, seeds=seeds)
            assert excinfo.value.status == 400
            assert excinfo.value.reason == "invalid"
            assert server.service.metrics.submitted == 0
            # Nothing was queued, and the connection is still usable.
            gate.set()
            result = binary.recognise_batch(request_codes[:4], seeds=[7, 8, 9, 10])
        assert result.ok == 4
        assert sorted(recalled) == [7, 8, 9, 10]


class TestNonIntegralInputs:
    def test_service_refuses_fractional_codes_and_seeds(
        self, serving_amm, request_codes
    ):
        with RecognitionService(serving_amm, max_batch_size=8) as service:
            with pytest.raises(ValueError, match="integers"):
                service.recognise_many(request_codes[:2] + 0.7, seeds=[1, 2])
            with pytest.raises(ValueError, match="integers"):
                service.submit_many(request_codes[:2], seeds=[3.9, 4.2])
            with pytest.raises(ValueError, match="integers"):
                service.submit(request_codes[0], seed=2.5)
            assert service.metrics.submitted == 0
            # Integral floats are integers.
            as_floats = service.recognise(request_codes[0].astype(float), seed=3)
            as_ints = service.recognise(request_codes[0], seed=3)
            assert (as_floats.winner, as_floats.dom_code) == (as_ints.winner, as_ints.dom_code)
            assert as_floats.static_power == as_ints.static_power

    def test_binary_client_refuses_fractional_codes_and_seeds(
        self, serving_amm, request_codes
    ):
        service = RecognitionService(serving_amm, max_batch_size=8, max_wait=1e-3)
        server = start_async_server(service, port=0, binary_port=0)
        try:
            with BinaryRecognitionClient("127.0.0.1", server.binary_port) as binary:
                with pytest.raises(ValueError, match="integers"):
                    binary.recognise_batch(request_codes[:2] + 0.7, seeds=[1, 2])
                with pytest.raises(ValueError, match="integers"):
                    binary.recognise_batch(request_codes[:2], seeds=[3.9, 4.2])
                # Nothing was sent: the connection serves the next request.
                result = binary.recognise_batch(request_codes[:2], seeds=[1, 2])
            assert result.ok == 2
            assert service.metrics.submitted == 2
        finally:
            stop_async_server(server)

    @pytest.mark.parametrize("driver", [run_load, run_connection_load])
    def test_load_drivers_refuse_fractional_pools(self, driver, request_codes):
        # Refused before any connection is opened (nothing listens on port 1).
        with pytest.raises(ValueError, match="integers"):
            driver("127.0.0.1", 1, request_codes[:4] + 0.5, requests=1)
