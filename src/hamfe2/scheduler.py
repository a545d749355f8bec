"""Master-worker evaluation of batched meso increments.

Within one macro Newton iteration every integration point needs an
independent transient cell increment, so the point set is partitioned
over a pool of workers once per run. Each worker owns its registry
slice (cell problem and committed meso state per point) for the whole
run; a round sends only the per-point loadings down and returns the
averaged responses, and a commit promotes the states of the most
recently evaluated round to the resident committed set. A committed
state keeps its Crank-Nicolson old data, computed once (see
homogenization), through every round and retry of a macro step.
Merging sorts by point id, so the merged result is independent of
worker count and completion order.

The pool is in-process (fork), but the protocol is pure message
passing: loadings down, homogenized data up, no shared mutable state.
"""

from __future__ import annotations

import logging
import time
import traceback
import warnings
from dataclasses import dataclass

import numpy as np

from .homogenization import solve_rve_increment
from .solver import SolverError

log = logging.getLogger(__name__)


class SchedulerError(RuntimeError):
    def __init__(self, message, failures=None):
        super().__init__(message)
        self.failures = list(failures) if failures is not None else []


@dataclass(frozen=True)
class Partition:
    """Assignment of macro point ids to workers (exact cover)."""

    assignments: tuple


def partition_points(point_ids, n_workers=1):
    """Split macro point ids over n_workers.

    The one rule: the sorted ids are cut into n_workers contiguous runs
    whose lengths differ by at most one. The result is an exact cover;
    merges sort by point id, so results do not depend on it.
    """
    pids = [int(p) for p in point_ids]
    if len(set(pids)) != len(pids):
        raise SchedulerError("point ids must be unique")
    if not isinstance(n_workers, (int, np.integer)) or n_workers < 1:
        raise SchedulerError("n_workers must be a positive integer")
    if n_workers > len(pids):
        warnings.warn(
            f"{n_workers - len(pids)} of {n_workers} workers receive "
            "no points", RuntimeWarning, stacklevel=2)
    chunks = np.array_split(np.sort(np.asarray(pids, dtype=int)), n_workers)
    return Partition(tuple(tuple(int(p) for p in c) for c in chunks))


def slice_registry(partition: Partition, registry):
    """Per-worker dicts point id -> (cell problem, meso state)."""
    slices = []
    for assignment in partition.assignments:
        missing = [pid for pid in assignment if pid not in registry]
        if missing:
            raise SchedulerError(f"registry lacks points {missing}")
        slices.append({pid: registry[pid] for pid in assignment})
    return slices


def evaluate_batch(batch, registry_slice, want_tangents=True):
    """Run one meso increment per (point id, loading) pair.

    Returns (results, failures): results are (pid, response, new state)
    triples sorted by point id; failures are (pid, message) pairs for
    increments the meso solver refused. An input state changes only by
    caching its Crank-Nicolson old data on its first increment, so
    re-running a batch reproduces it bitwise.
    """
    results, failures = [], []
    for pid, loading in sorted(batch, key=lambda it: it[0]):
        if pid not in registry_slice:
            raise SchedulerError(f"registry slice lacks point {pid}")
        cell, state = registry_slice[pid]
        try:
            new_state, response = solve_rve_increment(
                cell, state, loading, want_tangents=want_tangents)
        except SolverError as exc:
            failures.append((pid, str(exc)))
            continue
        results.append((pid, response, new_state))
    return results, failures


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    worker: int
    points: int
    seconds: float


class _Resident:
    """One worker's registry slice; commit promotes the last round's states."""

    def __init__(self, registry_slice):
        self.committed = dict(registry_slice)
        self.pending = {}

    def run(self, batch, want_tangents):
        results, failures = evaluate_batch(batch, self.committed,
                                           want_tangents)
        self.pending = {pid: st for pid, _, st in results}
        return [(pid, resp) for pid, resp, _ in results], failures

    def commit(self):
        for pid, st in self.pending.items():
            cell, _ = self.committed[pid]
            self.committed[pid] = (cell, st)


class _PoolBase:
    """Shared round bookkeeping and merge logic for both pools."""

    def __init__(self, slices):
        self._round = 0
        self._assignments = [tuple(s) for s in slices]
        self.timings = []

    def _record(self, worker, points, seconds):
        rec = RoundRecord(self._round, worker, points, seconds)
        self.timings.append(rec)
        log.info("round=%d worker=%d points=%d seconds=%.4f",
                 rec.round_index, rec.worker, rec.points, rec.seconds)

    @staticmethod
    def _merge(pairs, failures):
        if failures:
            pids = sorted(pid for pid, _ in failures)
            detail = "; ".join(f"{pid}: {msg}" for pid, msg in
                               sorted(failures))
            raise SchedulerError(
                f"meso increments failed at points {pids} ({detail})",
                failures)
        return {pid: resp for pid, resp in sorted(pairs)}

    def _batches(self, loadings):
        """Per worker, its (point id, loading) pairs sorted by id."""
        batches = []
        for assignment in self._assignments:
            missing = [pid for pid in assignment if pid not in loadings]
            if missing:
                raise SchedulerError(
                    f"round loadings lack points {missing}")
            batches.append([(pid, loadings[pid])
                            for pid in sorted(assignment)])
        extra = set(loadings) - {p for a in self._assignments for p in a}
        if extra:
            raise SchedulerError(
                f"round loadings name unknown points {sorted(extra)}")
        return batches

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
        return False


class SerialPool(_PoolBase):
    """Single-process pool with the exact round/commit contract of
    WorkerPool; the reference for determinism comparisons."""

    def __init__(self, slices):
        super().__init__(slices)
        self._residents = [_Resident(s) for s in slices]

    def run_round(self, loadings, want_tangents=True):
        self._round += 1
        pairs, failures = [], []
        for w, batch in enumerate(self._batches(loadings)):
            t0 = time.perf_counter()
            results, failed = self._residents[w].run(batch, want_tangents)
            pairs.extend(results)
            failures.extend(failed)
            self._record(w, len(batch), time.perf_counter() - t0)
        return self._merge(pairs, failures)

    def commit(self):
        for resident in self._residents:
            resident.commit()

    def stop(self):
        pass


def _worker_main(conn, registry_slice):
    resident = _Resident(registry_slice)
    while True:
        msg = conn.recv()
        kind = msg[0]
        if kind == "round":
            _, batch, want_tangents = msg
            t0 = time.perf_counter()
            try:
                results, failures = resident.run(batch, want_tangents)
            except Exception:
                conn.send(("error", traceback.format_exc()))
                continue
            conn.send(("done", results, failures, time.perf_counter() - t0))
        elif kind == "commit":
            resident.commit()
            conn.send(("ok",))
        elif kind == "stop":
            conn.send(("ok",))
            conn.close()
            return


class WorkerPool(_PoolBase):
    """Fork-based pool; one resident process per registry slice.

    The slices are inherited at fork time, so cell meshes and their
    constraint structures are never serialized; rounds only move
    loadings and responses over the pipes. A dead worker fails them
    with SchedulerError.
    """

    def __init__(self, slices):
        super().__init__(slices)
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        self._conns, self._procs = [], []
        for s in slices:
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child, s),
                               daemon=True)
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

    @property
    def n_workers(self):
        return len(self._procs)

    def run_round(self, loadings, want_tangents=True):
        self._round += 1
        batches = self._batches(loadings)
        for w, batch in enumerate(batches):
            self._send(w, ("round", batch, want_tangents))
        pairs, failures = [], []
        for w, batch in enumerate(batches):
            reply = self._receive(w)
            if reply[0] == "error":
                raise SchedulerError(f"worker {w} crashed:\n{reply[1]}")
            _, results, failed, seconds = reply
            pairs.extend(results)
            failures.extend(failed)
            self._record(w, len(batch), seconds)
        return self._merge(pairs, failures)

    def commit(self):
        for w in range(self.n_workers):
            self._send(w, ("commit",))
        for w in range(self.n_workers):
            self._receive(w)

    def stop(self):
        for conn, proc in zip(self._conns, self._procs):
            if proc.is_alive():
                try:
                    conn.send(("stop",))
                    conn.recv()
                except (OSError, EOFError):
                    pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10.0)
        self._conns, self._procs = [], []

    def _send(self, worker, msg):
        try:
            self._conns[worker].send(msg)
        except OSError as exc:
            raise SchedulerError(f"worker {worker} died") from exc

    def _receive(self, worker):
        try:
            return self._conns[worker].recv()
        except (OSError, EOFError) as exc:
            raise SchedulerError(f"worker {worker} died") from exc


def make_pool(slices):
    """SerialPool for a single non-empty slice, forked WorkerPool
    otherwise; an empty slice gets no process."""
    slices = [s for s in slices if s]
    if len(slices) <= 1:
        return SerialPool(slices)
    return WorkerPool(slices)
