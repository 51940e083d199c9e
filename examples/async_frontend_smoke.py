"""Mixed-protocol smoke test: JSON and binary traffic on one event loop.

Builds the reduced pipeline from ``quickstart.py``, serves it from a
``fleet`` of two spawned local worker agents, and drives a JSON load
while a background client pushes batches through the native binary
endpoint of the same server.  Every binary answer is checked bit-for-bit against
the engine; the script exits non-zero on any JSON error or rejection,
any failed or divergent binary row, or a binary client that completes
no batch.

CI runs this after the unit suite as a serving smoke check::

    python examples/async_frontend_smoke.py

Options: ``--requests N`` (default 48), ``--concurrency C`` (default 8),
``--images-per-request I`` (default 16).
"""

from __future__ import annotations

import argparse
import threading

from repro import load_default_dataset
from repro.core.config import DesignParameters
from repro.core.pipeline import build_pipeline
from repro.serving import (
    BinaryRecognitionClient,
    RecognitionService,
    run_load,
    start_async_server,
    stop_async_server,
)


def _make_service(amm):
    return RecognitionService(
        amm,
        max_batch_size=32,
        max_wait=1e-3,
        max_queue_depth=4096,
        workers=2,
        backend="fleet",
    )


def _drive_json(host, port, codes, arguments):
    report = run_load(
        host,
        port,
        codes,
        requests=arguments.requests,
        concurrency=arguments.concurrency,
        images_per_request=arguments.images_per_request,
        timeout=60.0,
    )
    if report.errors or report.rejected:
        raise RuntimeError(
            f"load run saw {report.errors} errors, {report.rejected} rejected"
        )


def _mixed_smoke(amm, codes, arguments):
    """Serve JSON and binary concurrently from one event loop: a
    background thread pushes binary batches (checked bit-for-bit against
    the engine) while the JSON load runs.  Correctness smoke only — the
    two protocols share the engine, so throughput is not compared here."""
    server = start_async_server(_make_service(amm), port=0, binary_port=0)
    stop = threading.Event()
    binary_batches = [0]
    failure: list = []
    seeds = [int(seed) for seed in range(codes.shape[0])]
    reference = amm.recognise_batch_seeded(codes, seeds)

    def binary_mixer():
        try:
            with BinaryRecognitionClient(
                "127.0.0.1", server.binary_port, client_id="smoke-binary"
            ) as client:
                while not stop.is_set():
                    result = client.recognise_batch(codes, seeds=seeds)
                    if result.ok != codes.shape[0]:
                        raise RuntimeError(
                            f"binary batch failed {result.failed} rows"
                        )
                    for index, row in enumerate(reference):
                        if result.winner[index] != row.winner:
                            raise RuntimeError(
                                f"binary winner diverges at row {index}"
                            )
                    binary_batches[0] += 1
        except Exception as error:  # surfaced to the main thread below
            failure.append(error)

    mixer = threading.Thread(target=binary_mixer, daemon=True)
    try:
        mixer.start()
        _drive_json("127.0.0.1", server.port, codes, arguments)
        stop.set()
        mixer.join(timeout=60.0)
        if failure:
            raise failure[0]
        if mixer.is_alive():
            raise RuntimeError("binary mixer thread did not finish")
        if binary_batches[0] == 0:
            raise RuntimeError("binary mixer completed no batches")
        return binary_batches[0]
    finally:
        stop.set()
        stop_async_server(server)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--images-per-request", type=int, default=16)
    arguments = parser.parse_args(argv)

    parameters = DesignParameters(template_shape=(8, 4), num_templates=10)
    dataset = load_default_dataset(
        subjects=10, images_per_subject=6, image_shape=(64, 48), seed=7
    )
    pipeline = build_pipeline(dataset, parameters=parameters, seed=7)
    codes = pipeline.extractor.extract_many(dataset.test_images)
    print(
        f"Serving a {pipeline.amm.crossbar.rows}x"
        f"{pipeline.amm.crossbar.columns} crossbar on a fleet of 2 "
        f"spawned agents: {arguments.requests} requests x "
        f"{arguments.images_per_request} images, "
        f"concurrency={arguments.concurrency}"
    )

    binary_batches = _mixed_smoke(pipeline.amm, codes, arguments)
    print(
        f"  mixed phase: JSON load served with {binary_batches} concurrent "
        "binary batches, all bit-identical to the engine"
    )
    print("mixed-protocol smoke check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
