"""Serving process of the ``serve_mixed`` workload.

Builds the reference pipeline and serves it with ``RecognitionService``
and ``start_async_server`` at library defaults, binary endpoint on.
Prints one JSON line with the two ports once both listen, then serves
until its standard input closes, and shuts down cleanly.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/server.py
"""

from __future__ import annotations

import json
import sys

from repro import build_pipeline, load_default_dataset
from repro.serving import RecognitionService, start_async_server, stop_async_server

#: Dataset and construction seed of the reference design.
REFERENCE_SEED = 2013


def main() -> int:
    pipeline = build_pipeline(load_default_dataset(seed=REFERENCE_SEED), seed=REFERENCE_SEED)
    server = start_async_server(RecognitionService(pipeline.amm))
    try:
        print(json.dumps({"port": server.port, "binary_port": server.binary_port}), flush=True)
        sys.stdin.read()
    finally:
        stop_async_server(server)
    return 0


if __name__ == "__main__":
    sys.exit(main())
