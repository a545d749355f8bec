"""Master-worker evaluation of batched meso increments.

Within one macro Newton iteration every integration point needs an
independent transient cell increment, so the point set is dealt over a
pool of workers once per run, cyclically by sorted id: neighbouring
points, whose cells cost alike, land on different workers. Each worker
owns its registry slice (cell problem and committed meso state per
point) for the whole run; a round sends only the per-point loadings
down and returns the averaged responses, and a commit promotes the
states of the most recently evaluated round to the resident committed
set. A committed state keeps its Crank-Nicolson old data, computed once
(see homogenization), through every round and retry of a macro step.
Merging sorts by point id, so the merged result is independent of
worker count and completion order.

Every round advances each cell from its committed state. A round that
asks for tangents starts each cell's Newton from the committed
fluctuation; that is the first round of every macro step attempt, so a
retried step repeats a fresh one bit for bit. A round without tangents
starts each point from the state it converged to in the previous round,
kept per point in its worker, moved to first order along the change of
its loading by the sensitivity dz/dp of the attempt's tangent round
(see homogenization). A commit drops those states, so no start crosses
a macro step, and the starts do not depend on the worker count either.

The protocol is pure message passing: loadings down, homogenized data
up, no shared mutable state. Each worker's resident answers every
message; SerialPool hands the messages to residents in this process,
WorkerPool sends them over pipes to forked processes, and both run the
one round and commit body. Both fail alike:

- a round the meso solver refuses at some points raises SchedulerError
  whose `failures` lists (point id, message) pairs;
- a round that raises anything else in a worker raises SchedulerError
  naming the worker ("worker <w> crashed"), once every reply is read;
- a worker process that is gone raises SchedulerError("worker <w> died").
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

    The one rule: the sorted ids are dealt round-robin, worker w takes
    ids[w::n_workers], so the counts differ by at most one. Nearby
    macro points carry nearby ids (a structured mesh numbers its quads
    row by row, two triangles each) and cost alike: same cell, same
    distance from a climate face. Dealing spreads every such run of ids
    over all workers. The result is an exact cover; merges sort by
    point id, so results do not depend on it.
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
    ids = sorted(pids)
    return Partition(tuple(tuple(ids[w::n_workers])
                           for w in range(n_workers)))


def slice_registry(partition: Partition, registry):
    """Per-worker dicts point id -> (cell problem, meso state)."""
    slices = []
    for assignment in partition.assignments:
        missing = [pid for pid in assignment if pid not in registry]
        if missing:
            raise SchedulerError(f"registry lacks points {missing}")
        slices.append({pid: registry[pid] for pid in assignment})
    return slices


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    worker: int
    points: int
    seconds: float


class _Resident:
    """One worker's registry slice; the one place that answers the pool.

    pending holds the states the last round of the current step attempt
    reached: a round without tangents starts each point's Newton from
    its pending state, predicted along the sensitivity it carries, and
    a round with tangents from its committed one. A commit promotes the
    pending states without their sensitivities and empties pending.
    """

    def __init__(self, registry_slice):
        self.committed = dict(registry_slice)
        self.pending = {}

    def run(self, batch, want_tangents):
        """Run one meso increment per (point id, loading) pair.

        Each increment runs from the point's committed state. Returns
        (results, failures): results are (pid, response) pairs sorted by
        point id; failures are (pid, message) pairs for increments the
        meso solver refused. An input state changes only by caching its
        Crank-Nicolson old data on its first increment, so re-running a
        batch from the same starts reproduces it bitwise.
        """
        starts = {} if want_tangents else self.pending
        results, failures, pending = [], [], {}
        for pid, loading in sorted(batch, key=lambda it: it[0]):
            if pid not in self.committed:
                raise SchedulerError(f"registry slice lacks point {pid}")
            cell, state = self.committed[pid]
            try:
                pending[pid], response = solve_rve_increment(
                    cell, state, loading, want_tangents=want_tangents,
                    start=starts.get(pid))
            except SolverError as exc:
                failures.append((pid, str(exc)))
                continue
            results.append((pid, response))
        self.pending = pending
        return results, failures

    def answer(self, msg):
        """The reply to one pool message.

        ("round", batch, want_tangents) gets ("done", results, failures,
        seconds), or ("error", traceback) if the round raised;
        ("commit",) and ("stop",) get ("ok",).
        """
        if msg[0] == "round":
            t0 = time.perf_counter()
            try:
                results, failures = self.run(msg[1], msg[2])
            except Exception:
                return ("error", traceback.format_exc())
            return ("done", results, failures, time.perf_counter() - t0)
        if msg[0] == "commit":
            for pid, st in self.pending.items():
                cell, _ = self.committed[pid]
                st.sensitivity = None
                self.committed[pid] = (cell, st)
            self.pending = {}
        return ("ok",)


class _PoolBase:
    """The round and commit protocol; a pool adds only how its messages
    reach the residents (_exchange), and how it starts and stops."""

    def __init__(self, slices):
        self._round = 0
        self._assignments = [tuple(s) for s in slices]
        self.timings = []
        self.n_workers = len(self._assignments)

    def run_round(self, loadings, want_tangents=True):
        """Merged responses by point id of one increment per point."""
        self._round += 1
        batches = self._batches(loadings)
        replies = self._exchange([("round", batch, want_tangents)
                                  for batch in batches])
        crashed = [(w, r[1]) for w, r in enumerate(replies) if r[0] == "error"]
        if crashed:
            raise SchedulerError("".join(
                f"worker {w} crashed:\n{tb}" for w, tb in crashed))
        pairs, failures = [], []
        for w, (batch, reply) in enumerate(zip(batches, replies)):
            _, results, failed, seconds = reply
            pairs.extend(results)
            failures.extend(failed)
            self.timings.append(RoundRecord(self._round, w, len(batch),
                                            seconds))
            log.info("round=%d worker=%d points=%d seconds=%.4f",
                     self._round, w, len(batch), seconds)
        if failures:
            pids = sorted(pid for pid, _ in failures)
            detail = "; ".join(f"{pid}: {msg}" for pid, msg in
                               sorted(failures))
            raise SchedulerError(
                f"meso increments failed at points {pids} ({detail})",
                failures)
        return {pid: resp for pid, resp in sorted(pairs)}

    def commit(self):
        self._exchange([("commit",)] * self.n_workers)

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
    """The in-process transport: residents in this process answer the
    messages of _PoolBase's one protocol. Not a second implementation;
    the reference for determinism comparisons."""

    # perfbench's tracer wraps these from each pool class's own __dict__
    run_round = _PoolBase.run_round
    commit = _PoolBase.commit

    def __init__(self, slices):
        super().__init__(slices)
        self._residents = [_Resident(s) for s in slices]

    def _exchange(self, msgs):
        return [r.answer(m) for r, m in zip(self._residents, msgs)]

    def stop(self):
        pass


def _worker_main(conn, registry_slice):
    resident = _Resident(registry_slice)
    while True:
        msg = conn.recv()
        conn.send(resident.answer(msg))
        if msg[0] == "stop":
            conn.close()
            return


class WorkerPool(_PoolBase):
    """Fork-based transport; one resident process per registry slice.

    The slices are inherited at fork time, so cell meshes and their
    constraint structures are never serialized; rounds only move
    loadings and responses over the pipes.
    """

    # perfbench's tracer wraps these from each pool class's own __dict__
    run_round = _PoolBase.run_round
    commit = _PoolBase.commit

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

    def _exchange(self, msgs):
        for w, msg in enumerate(msgs):
            try:
                self._conns[w].send(msg)
            except OSError as exc:
                raise SchedulerError(f"worker {w} died") from exc
        # read every reply before any is acted on, so that no stale
        # reply is left in a pipe for the next round to read
        replies = []
        for w, conn in enumerate(self._conns):
            try:
                replies.append(conn.recv())
            except (OSError, EOFError) as exc:
                raise SchedulerError(f"worker {w} died") from exc
        return replies

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


def make_pool(slices):
    """SerialPool for a single non-empty slice, forked WorkerPool
    otherwise; an empty slice gets no process."""
    slices = [s for s in slices if s]
    if len(slices) <= 1:
        return SerialPool(slices)
    return WorkerPool(slices)
