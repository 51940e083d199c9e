"""The process-pool backend: engine replicas on separate interpreters.

In one interpreter only the BLAS calls run in parallel; everything
else — DAC conversion, per-request substream derivation, the vectorised
WTA — competes for one GIL.  :class:`ProcessPoolBackend` forks
``workers`` OS processes, each of
which rebuilds its **own** pre-factorised
:class:`~repro.crossbar.batched.BatchedCrossbarEngine` from a picklable
:class:`~repro.backends.base.EngineSpec` (module configuration +
programmed conductances; the factorisation never crosses the process
boundary) and then recalls shards end to end on its private interpreter.

Per-request traffic avoids pickle entirely: each worker owns two
shared-memory blocks — an input block the parent writes code/seed (or
DAC-conductance) batches into, and an output block the worker writes the
full recognition result arrays into — with only a tiny ``("recall", n)``
command crossing the control pipe.  Because every recall goes through the
seeded path, results are a pure function of ``(module, codes, seed)`` and
identical to the serial backend.

Fault handling: a worker that dies mid-batch is detected by the control
pipe, its in-flight shard fails with the retryable
:class:`~repro.backends.base.WorkerCrashedError`, and a replacement
worker is spawned onto the same shared-memory blocks before the error is
raised — so the pool never hangs and the next request finds a healthy
pool.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import (
    EVENT_KEYS,
    BackendCapabilities,
    EngineSpec,
    RecallBackend,
    WorkerCrashedError,
    check_batch_shape,
    contiguous_shards,
)
from repro.core.amm import AssociativeMemoryModule, BatchRecognitionResult
from repro.crossbar.batched import BatchCrossbarSolution
from repro.utils.validation import check_integer

#: Exception types a worker may transport back by name; anything else
#: resurfaces as a RuntimeError tagged with the original type.
_TRANSPORTABLE = {
    "ValueError": ValueError,
    "TypeError": TypeError,
    "OverflowError": OverflowError,
    "KeyError": KeyError,
    "RuntimeError": RuntimeError,
    "LinAlgError": np.linalg.LinAlgError,
}

#: Seconds between liveness checks while waiting on a worker reply.
_POLL_INTERVAL = 0.05


def _shm_layout(
    max_batch: int, rows: int, columns: int
) -> Tuple[int, int, Dict[str, Tuple[int, np.dtype, tuple]]]:
    """Byte sizes and array offsets of the input and output blocks.

    Computed identically on both sides of the process boundary, so the
    parent and the worker always agree on where each array lives.  The
    input block is a single ``(max_batch, rows)`` 8-byte region viewed as
    ``int64`` codes for recalls and as ``float64`` DAC conductances for
    raw solves, followed by the ``int64`` seed vector.
    """
    in_size = max_batch * rows * 8 + max_batch * 8
    fields = {
        "winner_column": (np.dtype(np.int64), (max_batch,)),
        "winner": (np.dtype(np.int64), (max_batch,)),
        "dom_code": (np.dtype(np.int64), (max_batch,)),
        "accepted": (np.dtype(np.uint8), (max_batch,)),
        "tie": (np.dtype(np.uint8), (max_batch,)),
        "static_power": (np.dtype(np.float64), (max_batch,)),
        "supply": (np.dtype(np.float64), (max_batch,)),
        "codes": (np.dtype(np.int64), (max_batch, columns)),
        "currents": (np.dtype(np.float64), (max_batch, columns)),
        "events": (np.dtype(np.int64), (max_batch, len(EVENT_KEYS))),
    }
    layout: Dict[str, Tuple[int, np.dtype, tuple]] = {}
    offset = 0
    for name, (dtype, shape) in fields.items():
        layout[name] = (offset, dtype, shape)
        offset += int(np.prod(shape)) * dtype.itemsize
    return in_size, offset, layout


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned block without claiming its lifetime.

    The parent owns (and eventually unlinks) every block.  Python 3.13+
    exposes ``track=False`` so the attachment is never registered; on
    older versions a plain attach re-registers the name with the resource
    tracker, which is harmless here because workers are children of the
    pool's parent and therefore share its tracker process — the set-based
    cache deduplicates, and the parent's ``unlink`` clears the entry.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _views(
    buffer, layout: Dict[str, Tuple[int, np.dtype, tuple]]
) -> Dict[str, np.ndarray]:
    """Numpy views of every output array inside one shared-memory buffer."""
    return {
        name: np.ndarray(shape, dtype=dtype, buffer=buffer, offset=offset)
        for name, (offset, dtype, shape) in layout.items()
    }


def _worker_main(spec: EngineSpec, in_name: str, out_name: str, max_batch: int, conn):
    """Entry point of one pool worker (its own interpreter under spawn).

    Rebuilds the module replica delivered through ``spec`` (the pickled
    spec carries configuration and programmed state only), factorises a
    private engine, attaches the two shared-memory blocks and then serves
    ``recall`` / ``solve`` commands from the control pipe until told to
    close (or the pipe drops).
    """
    in_shm = out_shm = None
    try:
        module = spec.module
        engine = spec.build_engine(prepare=True)
        rows, columns = module.crossbar.rows, module.crossbar.columns
        _, _, layout = _shm_layout(max_batch, rows, columns)
        in_shm = _attach_shm(in_name)
        out_shm = _attach_shm(out_name)
        in_codes = np.ndarray((max_batch, rows), dtype=np.int64, buffer=in_shm.buf)
        in_dac = np.ndarray((max_batch, rows), dtype=np.float64, buffer=in_shm.buf)
        in_seeds = np.ndarray(
            (max_batch,), dtype=np.int64, buffer=in_shm.buf,
            offset=max_batch * rows * 8,
        )
        out = _views(out_shm.buf, layout)
        conn.send(("ready",))
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            command = message[0]
            if command == "close":
                break
            try:
                if command == "recall":
                    count = message[1]
                    result = module.recognise_batch_seeded(
                        in_codes[:count].copy(), in_seeds[:count].copy(), engine=engine
                    )
                    out["winner_column"][:count] = result.winner_column
                    out["winner"][:count] = result.winner
                    out["dom_code"][:count] = result.dom_code
                    out["accepted"][:count] = result.accepted
                    out["tie"][:count] = result.tie
                    out["static_power"][:count] = result.static_power
                    out["codes"][:count] = result.codes
                    out["currents"][:count] = result.column_currents
                    out["events"][:count] = [
                        [sample.get(key, 0) for key in EVENT_KEYS]
                        for sample in result.events
                    ]
                elif command == "solve":
                    count, include_parasitics = message[1], message[2]
                    solution = engine.solve_batch(
                        in_dac[:count].copy(), include_parasitics=include_parasitics
                    )
                    out["currents"][:count] = solution.column_currents
                    out["supply"][:count] = solution.supply_current
                else:
                    raise RuntimeError(f"unknown worker command {command!r}")
            except Exception as error:  # transport, never crash the loop
                conn.send(("error", type(error).__name__, str(error)))
            else:
                conn.send(("ok",))
    finally:
        for shm in (in_shm, out_shm):
            if shm is not None:
                shm.close()
        conn.close()


class _WorkerHandle:
    """Parent-side handle of one pool worker and its shared-memory blocks."""

    def __init__(self, context, spec, max_batch, rows, columns, index, in_shm, out_shm):
        self.index = index
        self.in_shm = in_shm
        self.out_shm = out_shm
        _, _, layout = _shm_layout(max_batch, rows, columns)
        self.in_codes = np.ndarray((max_batch, rows), dtype=np.int64, buffer=in_shm.buf)
        self.in_dac = np.ndarray((max_batch, rows), dtype=np.float64, buffer=in_shm.buf)
        self.in_seeds = np.ndarray(
            (max_batch,), dtype=np.int64, buffer=in_shm.buf,
            offset=max_batch * rows * 8,
        )
        self.out = _views(out_shm.buf, layout)
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main,
            args=(spec, in_shm.name, out_shm.name, max_batch, child_conn),
            name=f"recall-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def wait_ready(self) -> None:
        reply = self._recv()
        if reply[0] != "ready":  # pragma: no cover - defensive
            raise RuntimeError(f"worker {self.index} failed to start: {reply!r}")

    def _recv(self):
        """Receive one reply, watching worker liveness while waiting."""
        try:
            while not self.conn.poll(_POLL_INTERVAL):
                if not self.process.is_alive() and not self.conn.poll(0):
                    raise WorkerCrashedError(
                        f"recall worker {self.index} (pid {self.process.pid}) died "
                        "with requests in flight; the shard was not completed and "
                        "is safe to retry"
                    )
            return self.conn.recv()
        except (EOFError, OSError):
            # A reset/closed pipe is the same condition as a dead process.
            raise WorkerCrashedError(
                f"recall worker {self.index} closed its control pipe mid-request; "
                "the shard was not completed and is safe to retry"
            ) from None

    def finish(self):
        """Collect one command reply, re-raising transported errors."""
        reply = self._recv()
        if reply[0] == "error":
            raise _TRANSPORTABLE.get(reply[1], RuntimeError)(
                reply[2] if reply[1] in _TRANSPORTABLE else f"{reply[1]}: {reply[2]}"
            )
        return reply

    def close(self, timeout: float = 5.0) -> None:
        try:
            self.conn.send(("close",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        self.conn.close()

    def release_shm(self, unlink: bool) -> None:
        for shm in (self.in_shm, self.out_shm):
            shm.close()
            if unlink:
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass


class ProcessPoolBackend(RecallBackend):
    """Multi-process execution over per-worker engine replicas.

    Parameters
    ----------
    module:
        The served module; its picklable :class:`EngineSpec` is shipped to
        every worker, which rebuilds and factorises privately.
    workers:
        Worker processes (engine replicas).
    min_shard_size:
        A batch is split across workers only when every shard would hold
        at least this many samples.
    max_batch_size:
        Capacity (samples) of each worker's shared-memory buffers; larger
        batches are processed in rounds.
    start_method:
        ``multiprocessing`` start method.  The default ``spawn`` gives
        every worker a clean interpreter and exercises the EngineSpec
        pickling contract; ``fork`` starts faster where safe.
    """

    name = "processes"

    def __init__(
        self,
        module: AssociativeMemoryModule,
        workers: int = 1,
        min_shard_size: int = 16,
        max_batch_size: int = 512,
        start_method: str = "spawn",
        **_ignored,
    ) -> None:
        check_integer("workers", workers, minimum=1)
        check_integer("min_shard_size", min_shard_size, minimum=1)
        check_integer("max_batch_size", max_batch_size, minimum=1)
        self.module = module
        self.workers = workers
        self.min_shard_size = min_shard_size
        self.max_batch_size = max_batch_size
        self.spec = EngineSpec.from_module(module)
        self._context = multiprocessing.get_context(start_method)
        self._handles: List[_WorkerHandle] = []
        self._free: Optional[queue.Queue] = None
        # Serialises multi-handle checkout: a caller takes all the
        # workers its round needs atomically, so two concurrent callers
        # can never hold one worker each while waiting for the other's
        # (the classic hold-and-wait deadlock).
        self._checkout_lock = threading.Lock()
        # Serialises first-use preparation: concurrent first recalls on a
        # shared backend must not both spawn worker sets (leaked
        # processes and shared-memory blocks).
        self._prepare_lock = threading.Lock()
        self._closed = False
        #: Workers respawned after a crash (observability + fault tests).
        self.respawns = 0

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self, index: int, in_shm=None, out_shm=None) -> _WorkerHandle:
        rows, columns = self.module.crossbar.rows, self.module.crossbar.columns
        in_size, out_size, _ = _shm_layout(self.max_batch_size, rows, columns)
        if in_shm is None:
            in_shm = shared_memory.SharedMemory(create=True, size=in_size)
        if out_shm is None:
            out_shm = shared_memory.SharedMemory(create=True, size=out_size)
        return _WorkerHandle(
            self._context, self.spec, self.max_batch_size, rows, columns,
            index, in_shm, out_shm,
        )

    def prepare(self) -> "ProcessPoolBackend":
        with self._prepare_lock:
            return self._prepare_locked()

    def _prepare_locked(self) -> "ProcessPoolBackend":
        if self._closed:
            raise RuntimeError("backend is closed")
        if not self._handles:
            free: queue.Queue = queue.Queue()
            handles = [self._spawn(index) for index in range(self.workers)]
            for handle in handles:
                handle.wait_ready()
            self._handles = handles
            for handle in self._handles:
                free.put(handle)
            self._free = free
        return self

    def _replace(self, handle: _WorkerHandle) -> _WorkerHandle:
        """Respawn a crashed worker onto its existing shared-memory blocks.

        Returns the replacement, or the (dead) original when the respawn
        itself fails — keeping the pool's handle count constant so the
        free queue never shrinks; the dead handle self-heals on its next
        checkout (the staging send fails fast and retries the respawn).
        """
        handle.close(timeout=1.0)
        try:
            replacement = self._spawn(handle.index, handle.in_shm, handle.out_shm)
            replacement.wait_ready()
        except Exception:
            return handle
        self._handles[self._handles.index(handle)] = replacement
        self.respawns += 1
        return replacement

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _round_shards(self, count: int) -> List[Tuple[int, int]]:
        """Contiguous shard bounds for one round (every shard fits in shm)."""
        return contiguous_shards(
            count, self.workers, self.min_shard_size,
            max_shard_size=self.max_batch_size,
        )

    def _dispatch_round(self, bounds, write_fn, read_fn) -> list:
        """Run one round of shards, one checked-out worker per shard.

        ``write_fn(handle, begin, end)`` stages a shard's inputs and sends
        its command; ``read_fn(handle, begin, end)`` copies its outputs
        back out.  Every reply is collected (and every crashed worker
        replaced) before the first failure is re-raised, so no shard is
        left dangling and the free queue is always refilled.
        """
        # Atomic multi-handle checkout (see _checkout_lock): blocks until
        # this round's full worker set is free, but never while holding a
        # subset another caller is waiting on.
        with self._checkout_lock:
            checked_out = [self._free.get() for _ in bounds]
        chunks: list = []
        first_error: Optional[BaseException] = None
        in_flight = [False] * len(checked_out)
        for index, (handle, (begin, end)) in enumerate(zip(checked_out, bounds)):
            try:
                write_fn(handle, begin, end)
                in_flight[index] = True
            except (BrokenPipeError, OSError):
                # The worker died before the command reached it.
                checked_out[index] = self._replace(handle)
                first_error = first_error or WorkerCrashedError(
                    f"recall worker {handle.index} died before dispatch; "
                    "the shard was not started and is safe to retry"
                )
            except BaseException as error:  # staging failed: nothing in flight
                first_error = first_error or error
        for index, (handle, (begin, end)) in enumerate(zip(checked_out, bounds)):
            if not in_flight[index]:
                continue
            try:
                handle.finish()
                chunks.append(read_fn(handle, begin, end))
            except WorkerCrashedError as error:
                checked_out[index] = self._replace(handle)
                first_error = first_error or error
            except BaseException as error:
                first_error = first_error or error
        for handle in checked_out:
            self._free.put(handle)
        if first_error is not None:
            raise first_error
        return chunks

    def recall_batch_seeded(
        self, codes_batch: np.ndarray, request_seeds: Sequence[int]
    ) -> BatchRecognitionResult:
        self.prepare()
        codes = np.asarray(codes_batch, dtype=np.int64)
        seeds = np.asarray(request_seeds, dtype=np.int64)
        check_batch_shape("codes_batch", codes, self.module.crossbar.rows, seeds)

        # Whole-batch result buffers, allocated once per dispatch: shard
        # reads copy each shared-memory view straight into its [begin:end)
        # slice, so there is no per-shard intermediate result and no final
        # concatenate pass — one copy per output field total, wherever the
        # shard boundaries fall.
        total = codes.shape[0]
        columns = self.module.crossbar.columns
        winner_column = np.empty(total, dtype=np.int64)
        winner = np.empty(total, dtype=np.int64)
        dom_code = np.empty(total, dtype=np.int64)
        accepted = np.empty(total, dtype=bool)
        tie = np.empty(total, dtype=bool)
        static_power = np.empty(total, dtype=np.float64)
        out_codes = np.empty((total, columns), dtype=np.int64)
        currents = np.empty((total, columns), dtype=np.float64)
        event_rows = np.empty((total, len(EVENT_KEYS)), dtype=np.int64)

        def write(handle, begin, end):
            count = end - begin
            handle.in_codes[:count] = codes[begin:end]
            handle.in_seeds[:count] = seeds[begin:end]
            handle.conn.send(("recall", count))

        def read(handle, begin, end):
            count = end - begin
            out = handle.out
            winner_column[begin:end] = out["winner_column"][:count]
            winner[begin:end] = out["winner"][:count]
            dom_code[begin:end] = out["dom_code"][:count]
            accepted[begin:end] = out["accepted"][:count]
            tie[begin:end] = out["tie"][:count]
            static_power[begin:end] = out["static_power"][:count]
            out_codes[begin:end] = out["codes"][:count]
            currents[begin:end] = out["currents"][:count]
            event_rows[begin:end] = out["events"][:count]

        round_size = self.workers * self.max_batch_size
        for start in range(0, total, round_size):
            count = min(round_size, total - start)
            bounds = [
                (start + begin, start + end)
                for begin, end in self._round_shards(count)
            ]
            self._dispatch_round(bounds, write, read)
        return BatchRecognitionResult(
            winner_column=winner_column,
            winner=winner,
            dom_code=dom_code,
            accepted=accepted,
            tie=tie,
            codes=out_codes,
            column_currents=currents,
            static_power=static_power,
            events=[
                dict(zip(EVENT_KEYS, (int(value) for value in row)))
                for row in event_rows
            ],
        )

    def solve_batch(
        self, dac_conductances: np.ndarray, include_parasitics: bool = True
    ) -> BatchCrossbarSolution:
        self.prepare()
        dac = np.asarray(dac_conductances, dtype=float)
        check_batch_shape("dac_conductances", dac, self.module.crossbar.rows)

        total = dac.shape[0]
        currents = np.empty((total, self.module.crossbar.columns), dtype=np.float64)
        supply = np.empty(total, dtype=np.float64)

        def write(handle, begin, end):
            count = end - begin
            handle.in_dac[:count] = dac[begin:end]
            handle.conn.send(("solve", count, include_parasitics))

        def read(handle, begin, end):
            count = end - begin
            currents[begin:end] = handle.out["currents"][:count]
            supply[begin:end] = handle.out["supply"][:count]

        round_size = self.workers * self.max_batch_size
        for start in range(0, total, round_size):
            count = min(round_size, total - start)
            bounds = [
                (start + begin, start + end)
                for begin, end in self._round_shards(count)
            ]
            self._dispatch_round(bounds, write, read)
        return BatchCrossbarSolution(
            column_currents=currents,
            supply_current=supply,
            delta_v=self.module.solver.delta_v,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.close()
        for handle in self._handles:
            handle.release_shm(unlink=True)
        self._handles = []
        self._free = None

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            workers=self.workers,
            shards_batches=True,
            escapes_gil=True,
        )

    def __del__(self):  # pragma: no cover - last-resort cleanup
        try:
            self.close()
        except Exception:
            pass
