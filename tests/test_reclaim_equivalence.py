"""Reclaim without rescanning against the rescanning reference.

``shrink_mmap`` visits only page-cache frames and pays the frames in
between as one charge per gap, ``_swap_out_task_one`` walks lazily from
the task's hand, and ``resident_count`` is a kept count.  The property
here: replaying a random history of page-cache fills, buffered reads,
kiobuf maps, ODP fault services, mlocks, forks, munmaps, exits and
explicit pressure through production and through
:func:`tests.reference_audits.reference_reclaim` leaves the two machines
indistinguishable — the same clock and category totals, the same
timestamped trace and hub streams, the same frame table, free list,
page tables and swap slots, the same reclaim state (clock hand, victim
counters, per-task hands), and daemons that fired at the same simulated
times.

Daemons run at 1–3 µs cadences, so their deadlines fall inside a
``shrink_mmap`` sweep (150 ns a frame) and inside a ``swap_out`` walk.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProcessKilled, ReproError
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.flags import PG_PAGECACHE, PG_REFERENCED
from repro.kernel.rawio import BlockDevice, buffered_read
from repro.sim.clock import CalendarHook
from repro.sim.faults import FaultPlan, install
from repro.via import tpt
from repro.via.machine import Machine
from tests.reference_audits import reference_reclaim

FRAMES = 48
REGION_PAGES = 16

_task = st.integers(0, 3)
_page = st.integers(0, REGION_PAGES - 1)
OPS = st.lists(st.one_of(
    st.tuples(st.just("cache"), st.integers(1, 6), st.integers(0, 63)),
    st.tuples(st.just("buffered"), _task, _page, st.integers(1, 3)),
    st.tuples(st.just("map"), _task, _page, st.integers(1, REGION_PAGES),
              st.booleans()),
    st.tuples(st.just("unmap"), st.integers(0, 10**6)),
    st.tuples(st.just("odp"), st.lists(_page, min_size=1, max_size=6)),
    st.tuples(st.just("touch"), _task, _page, st.integers(1, 8)),
    st.tuples(st.just("pressure"), st.integers(0, 8)),
    st.tuples(st.just("swap"), st.integers(1, 16)),
    st.tuples(st.just("mlock"), _task, _page, st.integers(1, 6)),
    st.tuples(st.just("munmap"), _task, _page, st.integers(1, 6)),
    st.tuples(st.just("fork"), _task),
    st.tuples(st.just("exit"), _task),
    st.tuples(st.just("advance"), st.integers(1, 5000)),
), min_size=1, max_size=24)


class _Firings(CalendarHook):
    """Records when each calendar callback ran and where the
    ``shrink_mmap`` clock hand stood."""

    def __init__(self, kernel, log: list) -> None:
        self.kernel = kernel
        self.log = log

    def fire_begin(self, event) -> None:
        self.log.append(("fire", self.kernel.clock.now_ns, event.name,
                         self.kernel._clock_hand))


def _snapshot(m, tasks, log, outcomes, watchdog, reaper) -> dict:
    kernel = m.kernel
    clock = kernel.clock
    table = kernel.pagemap.table
    # The index both sides share must name exactly the flagged frames.
    assert list(kernel.page_cache) == [
        f for f in range(FRAMES) if table.flags[f] & PG_PAGECACHE]
    page_tables = []
    for task, _ in tasks:
        pt = task.page_table
        page_tables.append([
            (vpn, pte.present, pte.frame, pte.writable, pte.dirty,
             pte.accessed, pte.cow, pte.swap_slot)
            for vpn, pte in ((v, pt.lookup(v)) for v in pt.vpns())])
    return {
        "outcomes": outcomes,
        "now_ns": clock.now_ns,
        "categories": clock.categories(),
        "trace": [(e.ts_ns, e.kind, e.detail) for e in kernel.trace],
        "log": log,
        "columns": [list(table.counts), list(table.flags),
                    list(table.pin_counts), list(table.ages),
                    list(table.cow_shares), list(table.mappings),
                    list(table.tags)],
        "pinned": sorted(table.pinned),
        "free": list(kernel.pagemap._free),
        "page_tables": page_tables,
        "rss": [task.resident_pages() for task, _ in tasks],
        "swap": (list(kernel.swap._free), sorted(kernel.swap._in_use),
                 sorted(kernel.swap._data.items()),
                 kernel.swap.writes, kernel.swap.reads),
        "reclaim": (kernel._clock_hand, sorted(kernel._swap_cnt.items()),
                    sorted(kernel._task_swap_hand.items())),
        "kiobufs": sorted((k.kiobuf_id, k.pid, tuple(k.frames))
                          for k in kernel.kiobufs.values()),
        "daemons": (watchdog and watchdog.checks_run,
                    reaper and reaper.scans),
    }


def _replay(ops, arm: set[str], intervals: tuple[int, int]) -> dict:
    """Run :func:`_run` with registration handles numbered from 1, so
    the traces of two replays name the same handles."""
    saved = tpt._handles
    tpt._handles = itertools.count(1)
    try:
        return _run(ops, arm, intervals)
    finally:
        tpt._handles = saved


def _run(ops, arm: set[str], intervals: tuple[int, int]) -> dict:
    """Build a small ODP machine under pressure, run ``ops`` on it and
    snapshot everything the two reclaim implementations could disagree
    on."""
    m = Machine(num_frames=FRAMES, swap_slots=256, min_free_pages=4,
                backend="odp")
    kernel = m.kernel
    clock = kernel.clock
    log: list = []
    clock.add_calendar_hook(_Firings(kernel, log))
    dev = BlockDevice(kernel, num_blocks=8)
    tasks = []
    for i in range(3):
        task = m.spawn(f"t{i}")
        va = task.mmap(REGION_PAGES)
        task.touch_pages(va, REGION_PAGES // 2 + 2 * i)
        tasks.append((task, va))
    for i in range(6):
        pd = kernel.add_page_cache_page()
        if i % 2:
            pd.set_flag(PG_REFERENCED)
    odp_task, odp_va = tasks[0]
    odp_reg = m.user_agent(odp_task).register_mem(
        odp_va, REGION_PAGES * PAGE_SIZE)
    if "hub" in arm:
        kernel.events.subscribe(lambda ev: log.append(
            ("hub", clock.now_ns, ev.kind, sorted(ev.fields.items()))))
    watchdog = reaper = None
    if "daemons" in arm:
        # Pin samples stay off: the ODP fault service pins each page
        # before its TPT entry records it, so a sample landing in between
        # reports a leak on both sides.
        watchdog = m.arm_watchdog(interval_ns=intervals[0],
                                  check_pins=False)
        reaper = m.start_reaper(interval_ns=intervals[1])
    if "crash" in arm:
        install(FaultPlan(crash_point="kiobuf.pin",
                          crash_pid=tasks[-1][0].pid), m)

    kiobufs = []
    outcomes: list = []
    for op in ops:
        kind, args = op[0], op[1:]
        log.append(("op", clock.now_ns, kind))
        try:
            if kind in ("buffered", "map", "touch", "mlock", "munmap",
                        "fork", "exit"):
                # The ODP owner never forks: a COW break behind its
                # registration leaves the TPT entry stale (the fork
                # hazard), which the watchdog reports on both sides.
                skip = 1 if kind == "fork" else 0
                task, va = tasks[skip + args[0] % (len(tasks) - skip)]
                if not task.alive:
                    outcomes.append("dead")
                    continue
            if kind == "cache":
                count, referenced = args
                for i in range(count):
                    pd = kernel.add_page_cache_page()
                    if referenced >> i & 1:
                        pd.set_flag(PG_REFERENCED)
            elif kind == "buffered":
                _, first, nblocks = args
                nblocks = min(nblocks, REGION_PAGES - first)
                buffered_read(kernel, task, dev, 0, va + first * PAGE_SIZE,
                              nblocks * PAGE_SIZE)
            elif kind == "map":
                _, first, npages, write = args
                npages = min(npages, REGION_PAGES - first)
                kio = kernel.map_user_kiobuf(task, va + first * PAGE_SIZE,
                                             npages * PAGE_SIZE, write=write)
                kiobufs.append(kio)
                outcomes.append(("mapped", kio.frames))
            elif kind == "unmap":
                live = [k for k in kiobufs if k.mapped]
                if live:
                    kernel.unmap_kiobuf(live[args[0] % len(live)])
            elif kind == "odp":
                patched = m.agent.service_translation_fault(
                    odp_reg.handle, tuple(sorted(set(args[0]))))
                outcomes.append(("odp", sorted(patched.items())))
            elif kind == "touch":
                _, first, npages = args
                task.touch_pages(va + first * PAGE_SIZE,
                                 min(npages, REGION_PAGES - first))
            elif kind == "pressure":
                outcomes.append(("freed", kernel.apply_pressure(args[0])))
            elif kind == "swap":
                outcomes.append(("freed", paging.swap_out(kernel, args[0])))
            elif kind == "mlock":
                _, first, npages = args
                npages = min(npages, REGION_PAGES - first)
                kernel.do_mlock(task, va + first * PAGE_SIZE,
                                npages * PAGE_SIZE)
            elif kind == "munmap":
                _, first, npages = args
                npages = min(npages, REGION_PAGES - first)
                task.munmap(va + first * PAGE_SIZE, npages)
            elif kind == "exit":
                task.exit()
            elif kind == "fork":
                if len(tasks) < 5:
                    tasks.append((kernel.fork_task(task, name="child"), va))
            elif kind == "advance":
                clock.charge(args[0], "scenario")
        except ProcessKilled as exc:
            outcomes.append(("killed", exc.pid))
        except ReproError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return _snapshot(m, tasks, log, outcomes, watchdog, reaper)


ARMS = {
    "plain": set(),
    "daemons": {"daemons"},
    "hub": {"hub"},
    "crash": {"crash"},
    "all": {"daemons", "hub", "crash"},
}


@pytest.mark.parametrize("arm", sorted(ARMS))
@settings(max_examples=40, deadline=None)
@given(ops=OPS, watchdog_ns=st.integers(1000, 3000),
       reaper_ns=st.integers(1000, 3000))
def test_reclaim_matches_rescanning_reference(arm, ops, watchdog_ns,
                                              reaper_ns):
    intervals = (watchdog_ns, reaper_ns)
    got = _replay(ops, ARMS[arm], intervals)
    with reference_reclaim():
        want = _replay(ops, ARMS[arm], intervals)
    for key in want:
        assert got[key] == want[key], key
