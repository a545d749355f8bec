"""Scheduler tests: partitioning, batch evaluation, pool determinism."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamfe2.constitutive as cst
import hamfe2.homogenization as hom
import hamfe2.scheduler as sched
import hamfe2.solver as solver
from hamfe2.constitutive import LinearMaterial
from hamfe2.mesh import generate_masonry_cell, generate_rectangle_mesh


# ---------------------------------------------------------------- fixtures

def linear_cell(config=None):
    mesh = generate_rectangle_mesh(0.3, 0.3, 3, 3)
    mats = {"solid": LinearMaterial("solid", k_tt=0.5, k_ff=2e-7,
                                    c_tt=2e6, c_ff=40.0)}
    return hom.CellProblem(mesh, mats, config)


def masonry_cell(config=None):
    mesh = generate_masonry_cell(0.27, 0.27, 0.03, resolution=2)
    return hom.CellProblem(mesh, cst.default_materials(), config)


def rest_loading(dt=600.0):
    return hom.MacroLoading(20.0, 0.5, [0, 0], [0, 0], dt=dt)


def varied_loading(i, dt=600.0):
    """Distinct admissible loading per point id."""
    return hom.MacroLoading(20.0 + 0.5 * (i % 5),
                            0.5 + 0.01 * (i % 4),
                            [10.0 * ((i % 3) - 1), 5.0],
                            [0.05 * ((i % 2) - 0.5), -0.02],
                            dt=dt)


def make_registry(cell, pids):
    state, _ = hom.initial_response(cell, rest_loading())
    return {pid: (cell, state) for pid in pids}


def covered_ids(part):
    """Sorted union of the point ids over all workers."""
    return tuple(sorted(p for a in part for p in a))


def dealt(registry, n_workers):
    """Per-worker registry slices as make_pool deals them, for the tests
    that build one pool class directly."""
    return [{p: registry[p] for p in ids}
            for ids in sched.partition_points(registry, n_workers)]


def assert_same_response(a, b):
    for name in ("q_heat", "q_moist"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.s_t == b.s_t and a.s_f == b.s_f
    assert (a.tangent is None) == (b.tangent is None)
    if a.tangent is not None:
        for name in ("kg", "c"):
            x, y = getattr(a.tangent, name), getattr(b.tangent, name)
            assert np.array_equal(x, y), name


# ------------------------------------------------------------- partitioning

def test_partition_deals_ids_cyclically():
    part = sched.partition_points(range(10), n_workers=3)
    assert part == ((0, 3, 6, 9), (1, 4, 7), (2, 5, 8))
    # unsorted ids are dealt in sorted order
    part = sched.partition_points([7, 2, 5, 0], n_workers=2)
    assert part == ((0, 5), (2, 7))


def test_partition_single_worker_takes_all():
    part = sched.partition_points([3, 1, 2], n_workers=1)
    assert part == ((1, 2, 3),)


def test_partition_more_workers_than_points_warns():
    with pytest.warns(RuntimeWarning):
        part = sched.partition_points([1, 2, 3], n_workers=5)
    assert covered_ids(part) == (1, 2, 3)
    assert [len(a) for a in part].count(0) == 2


def test_partition_rejects_bad_input():
    with pytest.raises(sched.SchedulerError):
        sched.partition_points([1, 2], n_workers=0)
    with pytest.raises(sched.SchedulerError):
        sched.partition_points([1, 1], n_workers=1)


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       n_workers=st.integers(min_value=1, max_value=12))
def test_partition_exact_cover_property(data, n_workers):
    """Every point lands on exactly one worker for any id set."""
    pids = sorted(data.draw(st.sets(
        st.integers(min_value=0, max_value=10_000),
        min_size=1, max_size=60)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        part = sched.partition_points(pids, n_workers)
    assert len(part) == n_workers
    assert covered_ids(part) == tuple(pids)
    seen = [p for a in part for p in a]
    assert len(seen) == len(set(seen))
    # dealt round-robin: loads differ by at most one, the earlier
    # workers take the extra points, and each worker's ids ascend
    loads = [len(a) for a in part]
    assert loads == sorted(loads, reverse=True)
    assert loads[0] - loads[-1] <= 1
    assert all(list(a) == sorted(a) for a in part)


# ---------------------------------------------------------- batch evaluation

def test_evaluate_batch_empty():
    assert sched._Resident({}).run([], True) == ([], [])


def test_evaluate_batch_sorts_and_is_pure():
    cell = linear_cell()
    registry = make_registry(cell, [4, 7, 2])
    fluct_before = {p: cell.fluctuation(registry[p][1]).copy()
                    for p in registry}
    lo = hom.MacroLoading(26.0, 0.55, [10, 0], [0.1, 0], dt=600.0)
    items = [(7, lo), (2, lo), (4, lo)]  # deliberately unsorted
    results, failures = sched._Resident(registry).run(items, True)
    assert failures == []
    assert [pid for pid, _ in results] == [2, 4, 7]
    # identical loadings and states give bitwise identical responses
    assert_same_response(results[0][1], results[1][1])
    assert_same_response(results[0][1], results[2][1])
    # inputs are untouched
    for p in registry:
        assert np.array_equal(cell.fluctuation(registry[p][1]),
                              fluct_before[p])


def test_evaluate_batch_collects_failures_and_continues():
    good = linear_cell()
    # a nonlinear cell needs more than one iteration on a real loading
    strangled = masonry_cell(solver.SolverConfig(max_iterations=1))
    state, _ = hom.initial_response(good, rest_loading())
    state_s, _ = hom.initial_response(strangled, rest_loading())
    registry = {1: (good, state), 2: (strangled, state_s),
                3: (good, state)}
    lo = hom.MacroLoading(27.0, 0.6, [20, 0], [0.1, 0], dt=600.0)
    results, failures = sched._Resident(registry).run(
        [(1, lo), (2, lo), (3, lo)], True)
    assert [pid for pid, _ in results] == [1, 3]
    assert len(failures) == 1 and failures[0][0] == 2


# ------------------------------------------------------------------- pools

def two_round_loadings(pids):
    round1 = {p: varied_loading(p) for p in pids}
    round2 = {p: varied_loading(p + 1) for p in pids}
    return round1, round2


def run_two_rounds(pool, round1, round2):
    r1 = pool.run_round(round1, want_tangents=True)
    pool.commit()
    r2 = pool.run_round(round2, want_tangents=True)
    pool.commit()
    return r1, r2


def test_worker_pool_matches_serial_bitwise():
    cell = masonry_cell()
    pids = list(range(8))
    registry = make_registry(cell, pids)
    round1, round2 = two_round_loadings(pids)

    serial = sched.make_pool(registry, 1)
    assert isinstance(serial, sched.SerialPool)
    ref1, ref2 = run_two_rounds(serial, round1, round2)
    assert list(ref1) == pids  # merged map is ordered by point id

    for n in (2, 4):
        with sched.make_pool(registry, n) as pool:
            assert isinstance(pool, sched.WorkerPool)
            got1, got2 = run_two_rounds(pool, round1, round2)
        for pid in pids:
            assert_same_response(ref1[pid], got1[pid])
            assert_same_response(ref2[pid], got2[pid])


POOLS = pytest.mark.parametrize("pool_class",
                                [sched.SerialPool, sched.WorkerPool],
                                ids=lambda cls: cls.__name__)


def test_rounds_without_tangents_start_from_the_previous_round():
    # a round without tangents starts each cell's Newton from the state
    # the point reached one round earlier, predicted along the
    # sensitivity that state carries from the tangent round; a round
    # with tangents starts from the committed state; both for any worker
    # count
    cell = masonry_cell()
    pids = list(range(4))
    registry = make_registry(cell, pids)
    committed = registry[0][1]
    round1, round2 = two_round_loadings(pids)
    warm, cold = {}, {}
    for p in pids:
        previous, _ = hom.solve_rve_increment(cell, committed, round1[p],
                                              want_tangents=True)
        _, warm[p] = hom.solve_rve_increment(cell, committed, round2[p],
                                             start=previous)
        _, cold[p] = hom.solve_rve_increment(cell, committed, round2[p],
                                             want_tangents=True)
    # the start moves the converged answer in its last digits
    assert any(not np.array_equal(warm[p].q_heat, cold[p].q_heat)
               for p in pids)
    for n in (1, 2, 4):
        with sched.make_pool(registry, n) as pool:
            pool.run_round(round1, want_tangents=True)
            got_warm = pool.run_round(round2, want_tangents=False)
            got_cold = pool.run_round(round2, want_tangents=True)
        for p in pids:
            assert_same_response(warm[p], got_warm[p])
            assert_same_response(cold[p], got_cold[p])


@POOLS
def test_round_after_a_commit_starts_cold(pool_class):
    # a commit ends the step: the round after it, even without tangents,
    # starts from the newly committed states alone, neither from a
    # round of the step before nor predicted along its sensitivities
    cell = masonry_cell()
    pids = list(range(4))
    registry = make_registry(cell, pids)
    round1, round2 = two_round_loadings(pids)
    cold = {}
    for p in pids:
        committed, _ = hom.solve_rve_increment(cell, registry[p][1],
                                               round1[p], want_tangents=True)
        _, cold[p] = hom.solve_rve_increment(cell, committed, round2[p])
    with pool_class(dealt(registry, 2)) as pool:
        pool.run_round(round1, want_tangents=True)
        pool.commit()
        got = pool.run_round(round2, want_tangents=False)
    for p in pids:
        assert_same_response(cold[p], got[p])


@POOLS
def test_crashed_worker_leaves_the_pool_in_step(monkeypatch, pool_class):
    # a crash ends the round with one SchedulerError after every worker
    # has answered; the next round reads that round's replies, not the
    # other workers' replies to the crashed round
    cell = linear_cell()
    pids = list(range(4))
    registry = make_registry(cell, pids)
    round1, round2 = two_round_loadings(pids)
    real_increment = sched.solve_rve_increment

    def increment(cell, state, loading, **kwargs):
        if loading.theta == round1[0].theta:
            raise RuntimeError("injected crash")
        return real_increment(cell, state, loading, **kwargs)

    assert all(lo.theta != round1[0].theta
               for lo in (*round1.values(), *round2.values())
               if lo is not round1[0])
    monkeypatch.setattr(sched, "solve_rve_increment", increment)
    slices = dealt(registry, 2)
    with pool_class(slices) as pool:
        with pytest.raises(sched.SchedulerError, match="worker 0 crashed"):
            pool.run_round(round1)
        got = pool.run_round(round2)
    ref = sched.SerialPool(slices).run_round(round2)
    for p in pids:
        assert_same_response(ref[p], got[p])


def test_rounds_only_advance_state_after_commit():
    cell = linear_cell()
    pids = [0, 1]
    registry = make_registry(cell, pids)
    pool = sched.make_pool(registry, 1)
    lo = {p: varied_loading(3) for p in pids}
    first = pool.run_round(lo)
    again = pool.run_round(lo)
    for p in pids:
        assert_same_response(first[p], again[p])
    pool.commit()
    # the committed state has absorbed the jump, so rerunning the same
    # loading leaves a much smaller storage rate
    moved = pool.run_round(lo)
    assert moved[0].s_t != first[0].s_t


@POOLS
def test_round_failure_names_the_point(pool_class):
    good = linear_cell()
    strangled = masonry_cell(solver.SolverConfig(max_iterations=1))
    state, _ = hom.initial_response(good, rest_loading())
    state_s, _ = hom.initial_response(strangled, rest_loading())
    registry = {0: (good, state), 1: (good, state),
                7: (strangled, state_s), 8: (good, state)}
    lo = {p: varied_loading(2) for p in registry}
    with pool_class(dealt(registry, 2)) as pool:
        with pytest.raises(sched.SchedulerError, match="7"):
            pool.run_round(lo)
        # pool survives a failed round; resident states are untouched
        calm = {p: rest_loading() for p in registry}
        merged = pool.run_round(calm)
        assert sorted(merged) == [0, 1, 7, 8]


def test_round_rejects_loading_mismatch():
    cell = linear_cell()
    registry = make_registry(cell, [0, 1])
    pool = sched.make_pool(registry, 1)
    with pytest.raises(sched.SchedulerError):
        pool.run_round({0: rest_loading()})
    with pytest.raises(sched.SchedulerError):
        pool.run_round({0: rest_loading(), 1: rest_loading(),
                        9: rest_loading()})


def test_timing_records_cover_every_worker_and_round():
    cell = linear_cell()
    pids = list(range(6))
    registry = make_registry(cell, pids)
    with sched.make_pool(registry, 2) as pool:
        lo = {p: rest_loading() for p in pids}
        pool.run_round(lo)
        pool.run_round(lo)
    rounds = [(r.round_index, r.worker) for r in pool.timings]
    assert rounds == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert sum(r.points for r in pool.timings) == 12
    assert all(r.seconds >= 0.0 for r in pool.timings)


def test_failed_worker_start_stops_the_started_workers(monkeypatch):
    # the second of three workers fails to fork: the first is stopped
    # by its stop message and joined, every pipe end the pool opened is
    # closed, and the error names the worker, chained to the cause
    import multiprocessing as mp
    import multiprocessing.connection as mpc

    registry = make_registry(linear_cell(), range(3))
    real_start, real_pipe = mp.context.ForkProcess.start, mpc.Pipe
    started, ends = [], []

    def start(proc):
        if started:
            raise OSError("injected fork failure")
        real_start(proc)
        started.append(proc)

    def pipe(duplex=True):
        pair = real_pipe(duplex)
        ends.extend(pair)
        return pair

    monkeypatch.setattr(mp.context.ForkProcess, "start", start)
    monkeypatch.setattr(mpc, "Pipe", pipe)
    with pytest.raises(sched.SchedulerError,
                       match="worker 1 failed to start") as info:
        sched.WorkerPool(dealt(registry, 3))
    assert isinstance(info.value.__cause__, OSError)
    assert len(started) == 1 and len(ends) == 4
    assert started[0].exitcode == 0
    assert started[0] not in mp.active_children()
    assert all(end.closed for end in ends)


def test_make_pool_picks_serial_for_one_slice():
    cell = linear_cell()
    registry = make_registry(cell, [0])
    pool = sched.make_pool(registry, 1)
    assert isinstance(pool, sched.SerialPool)
    assert pool.assignments == ((0,),)


def test_make_pool_deals_the_registry_without_empty_workers():
    cell = linear_cell()
    registry = make_registry(cell, [9, 2, 5])
    for n in (1, 2, 5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            dealt_ids = sched.partition_points(registry, n)
            with sched.make_pool(registry, n) as pool:
                assigned = pool.assignments
        assert assigned == tuple(a for a in dealt_ids if a)
        assert pool.n_workers == len(assigned)


def test_make_pool_with_one_non_empty_slice_is_serial():
    # three workers, one point: the two empty slices get no process
    cell = linear_cell()
    registry = make_registry(cell, [4])
    with pytest.warns(RuntimeWarning, match="receive no points"):
        pool = sched.make_pool(registry, 3)
    assert isinstance(pool, sched.SerialPool)
    assert pool.assignments == ((4,),)


def test_make_pool_residents_hold_the_registry_objects():
    # the pool holds the registry's own cell problems and states, so
    # points that share a start share one state object
    cell = linear_cell()
    registry = make_registry(cell, [0, 1, 2])
    pool = sched.make_pool(registry, 1)
    held = pool._residents[0].committed
    assert sorted(held) == [0, 1, 2]
    for pid, (c, state) in registry.items():
        assert held[pid][0] is c and held[pid][1] is state
