"""Seeded workload inputs.

Every workload input comes from the workload seed through
:func:`request_stream`: which reference code each row uses and the
row's own request seed.  The program only ever receives the resulting
codes and seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Stream tags, so the workloads and request classes draw independent streams.
BULK, SERVE_JSON, SERVE_BINARY = 1, 2, 3

#: Request seeds are drawn from ``[0, SEED_LIMIT)``.
SEED_LIMIT = 2**31


@dataclass(frozen=True)
class RequestStream:
    """``requests`` fixed-size requests: code row indices and row seeds."""

    rows: np.ndarray  # (requests, rows_per_request) indices into the code table
    seeds: np.ndarray  # (requests, rows_per_request) request seeds

    def __len__(self) -> int:
        return self.rows.shape[0]

    def rows_of(self, index: int) -> np.ndarray:
        """Code-table rows of request ``index`` (the stream repeats cyclically)."""
        return self.rows[index % len(self)]

    def request(self, index: int, codes: np.ndarray):
        """Codes and seeds of request ``index``."""
        return codes[self.rows_of(index)], self.seeds[index % len(self)]


def request_stream(
    seed: int, tag: int, requests: int, rows_per_request: int, table_size: int
) -> RequestStream:
    """Draw rows with replacement from a ``table_size`` code table."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    shape = (requests, rows_per_request)
    return RequestStream(
        rows=rng.integers(0, table_size, size=shape),
        seeds=rng.integers(0, SEED_LIMIT, size=shape, dtype=np.int64),
    )


def evaluation_inputs(
    template_codes: np.ndarray, count: int, max_code: int, seed: int
) -> tuple:
    """Noisy copies of randomly chosen templates and their true columns.

    The recipe of the Fig. 9 sweeps' evaluation inputs, for the traced
    replay of one sweep point.
    """
    rng = np.random.default_rng(seed)
    features, columns = template_codes.shape
    chosen = rng.choice(columns, size=count, replace=count > columns)
    noise = rng.integers(-2, 3, size=(count, features))
    inputs = np.clip(template_codes[:, chosen].T + noise, 0, max_code)
    return inputs.astype(np.int64), chosen.astype(np.int64)
