"""The one batch-result format: every field through every reassembly path.

:class:`~repro.core.amm.BatchRecognitionResult` is sliced per caller,
stacked from scalar rows, concatenated from shards and shipped through
the worker wire's ``RESULT`` frame.  Each field of the dataclass must
survive all four unchanged, and a reply that answers the wrong number of
rows must be refused before it is stitched into a larger batch.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.backends import wire
from repro.core import EVENT_KEYS
from repro.core.amm import BatchRecognitionResult, concatenate_batch_results

ROWS = 5
COLUMNS = 3
FIELDS = [field.name for field in dataclasses.fields(BatchRecognitionResult)]


def distinct_result() -> BatchRecognitionResult:
    """A batch result in which no two fields, rows or columns coincide."""
    rng = np.random.default_rng(30)
    return BatchRecognitionResult(
        winner_column=np.array([2, 0, 1, 1, 0], dtype=np.int64),
        winner=np.arange(ROWS, dtype=np.int64) + 100,
        dom_code=np.arange(ROWS, dtype=np.int64) + 200,
        accepted=np.array([True, False, True, True, False]),
        tie=np.array([False, True, True, False, False]),
        codes=np.arange(ROWS * COLUMNS, dtype=np.int64).reshape(ROWS, COLUMNS) + 300,
        column_currents=rng.uniform(1e-6, 3e-5, size=(ROWS, COLUMNS)),
        static_power=rng.uniform(1e-6, 1e-5, size=ROWS),
        events=np.arange(ROWS * len(EVENT_KEYS), dtype=np.int64).reshape(ROWS, -1) + 1000,
    )


def assert_fields_equal(got, want) -> None:
    for name in FIELDS:
        np.testing.assert_array_equal(
            getattr(got, name), getattr(want, name), err_msg=name, strict=True
        )


class TestEveryFieldSurvives:
    def test_slicing(self):
        result = distinct_result()
        part = result[1:4]
        assert isinstance(part, BatchRecognitionResult)
        for name in FIELDS:
            np.testing.assert_array_equal(
                getattr(part, name), getattr(result, name)[1:4], err_msg=name, strict=True
            )

    def test_scalar_rows(self):
        result = distinct_result()
        for index, row in enumerate(result):
            for name in FIELDS:
                np.testing.assert_array_equal(
                    getattr(row, name), getattr(result, name)[index], err_msg=name
                )

    def test_stack_of_scalar_rows(self):
        result = distinct_result()
        assert_fields_equal(BatchRecognitionResult.stack(list(result)), result)

    def test_concatenate_two_slices(self):
        result = distinct_result()
        assert_fields_equal(concatenate_batch_results([result[:2], result[2:]]), result)

    def test_wire_round_trip(self):
        result = distinct_result()
        arrays = wire.result_to_wire(result)
        assert list(arrays) == FIELDS
        assert_fields_equal(wire.result_from_wire(arrays, ROWS), result)

    def test_stack_of_nothing_is_refused(self):
        with pytest.raises(ValueError, match="must not be empty"):
            BatchRecognitionResult.stack([])


class TestReplyChecks:
    def test_result_missing_an_array(self):
        for name in FIELDS:
            arrays = wire.result_to_wire(distinct_result())
            del arrays[name]
            with pytest.raises(wire.WireProtocolError, match=name):
                wire.result_from_wire(arrays, ROWS)

    def test_result_with_the_wrong_row_count(self):
        arrays = wire.result_to_wire(distinct_result())
        with pytest.raises(wire.WireProtocolError, match="expected 6 rows"):
            wire.result_from_wire(arrays, ROWS + 1)
        for name in FIELDS:
            short = dict(arrays, **{name: arrays[name][:-1]})
            with pytest.raises(wire.WireProtocolError, match=name):
                wire.result_from_wire(short, ROWS)

    def test_result_events_must_hold_every_counter(self):
        arrays = wire.result_to_wire(distinct_result())
        for events in (arrays["events"][:, :-1], arrays["events"][:, 0]):
            with pytest.raises(wire.WireProtocolError, match="events"):
                wire.result_from_wire(dict(arrays, events=events), ROWS)
