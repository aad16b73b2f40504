"""The single-pass kiobuf map/unmap against the per-page reference.

``map_user_kiobuf`` and ``unmap_kiobuf`` fold their per-page clock
charges into one, settling early only where a per-page charge would
have reached a calendar deadline or before something reads the clock.
The property here: replaying a random history of maps, unmaps,
touches, swap pressure, mlock splits, munmaps, forks and exits through
the production loops and through
:func:`tests.reference_audits.reference_kiobuf` leaves the two machines
indistinguishable — the same clock and category totals, the
same timestamped trace and hub streams, the same frame table and free
list, and daemons that fired at the same simulated times.

Daemons run at 1–3 µs cadences, so their deadlines fall inside maps of
a few pages (a page costs 180 ns of walk and lock).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProcessKilled, ReproError
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.sim.clock import CalendarHook
from repro.sim.faults import FaultPlan, install
from repro.via.machine import Machine
from tests.reference_audits import reference_kiobuf

REGION_PAGES = 24
RO_PAGES = 4

_task = st.integers(0, 3)
OPS = st.lists(st.one_of(
    st.tuples(st.just("map"), _task, st.integers(0, REGION_PAGES - 1),
              st.integers(1, REGION_PAGES), st.booleans()),
    st.tuples(st.just("map_ro"), _task, st.booleans()),
    st.tuples(st.just("unmap"), st.integers(0, 10**6)),
    st.tuples(st.just("touch"), _task, st.integers(0, REGION_PAGES - 1)),
    st.tuples(st.just("swap"), st.integers(1, 24)),
    st.tuples(st.just("mlock"), _task, st.integers(0, REGION_PAGES - 1),
              st.integers(1, 6)),
    st.tuples(st.just("munmap"), _task, st.integers(0, REGION_PAGES - 1),
              st.integers(1, 6)),
    st.tuples(st.just("fork"), _task),
    st.tuples(st.just("exit"), _task),
    st.tuples(st.just("advance"), st.integers(1, 5000)),
), min_size=1, max_size=24)


class _Firings(CalendarHook):
    """Records when each calendar callback ran."""

    def __init__(self, clock, log: list) -> None:
        self.clock = clock
        self.log = log

    def fire_begin(self, event) -> None:
        self.log.append(("fire", self.clock.now_ns, event.name))


def _replay(ops, arm: set[str], intervals: tuple[int, int]) -> dict:
    """Build a small machine, run ``ops`` on it and snapshot everything
    the two kiobuf implementations could disagree on."""
    m = Machine(num_frames=80, swap_slots=512, min_free_pages=4)
    kernel = m.kernel
    clock = kernel.clock
    log: list = []
    clock.add_calendar_hook(_Firings(clock, log))
    tasks = []
    for i in range(2):
        task = m.spawn(f"t{i}")
        va = task.mmap(REGION_PAGES)
        ro = task.mmap(RO_PAGES, writable=False)
        task.touch_pages(va, REGION_PAGES // 2)
        task.read(ro, 1)
        tasks.append((task, va, ro))
    if "hub" in arm:
        kernel.events.subscribe(lambda ev: log.append(
            ("hub", clock.now_ns, ev.kind, sorted(ev.fields.items()))))
    watchdog = reaper = None
    if "daemons" in arm:
        watchdog = m.arm_watchdog(interval_ns=intervals[0])
        reaper = m.start_reaper(interval_ns=intervals[1])
    if "crash" in arm:
        install(FaultPlan(crash_point="kiobuf.pin",
                          crash_pid=tasks[-1][0].pid), m)

    kiobufs = []
    outcomes = []
    for op in ops:
        kind, args = op[0], op[1:]
        log.append(("op", clock.now_ns, kind))
        try:
            if kind in ("map", "map_ro", "touch", "mlock", "munmap",
                        "fork", "exit"):
                index = args[0] % len(tasks)
                task, va, ro = tasks[index]
                if not task.alive:
                    outcomes.append("dead")
                    continue
            if kind == "map":
                _, first, npages, write = args
                kio = kernel.map_user_kiobuf(task, va + first * PAGE_SIZE,
                                             npages * PAGE_SIZE, write=write)
                kiobufs.append(kio)
                outcomes.append(("mapped", kio.frames))
            elif kind == "map_ro":
                kio = kernel.map_user_kiobuf(task, ro, RO_PAGES * PAGE_SIZE,
                                             write=args[1])
                kiobufs.append(kio)
                outcomes.append(("mapped", kio.frames))
            elif kind == "unmap":
                live = [k for k in kiobufs if k.mapped]
                if live:
                    kernel.unmap_kiobuf(live[args[0] % len(live)])
            elif kind == "touch":
                task.write(va + args[1] * PAGE_SIZE, b"t")
            elif kind == "swap":
                paging.swap_out(kernel, args[0])
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
                if len(tasks) < 4:
                    child = kernel.fork_task(task, name="child")
                    tasks.append((child, va, ro))
            elif kind == "advance":
                clock.charge(args[0], "scenario")
        except ProcessKilled as exc:
            outcomes.append(("killed", exc.pid))
        except ReproError as exc:
            outcomes.append((type(exc).__name__, str(exc)))

    table = kernel.pagemap.table
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
        "kiobufs": sorted((k.kiobuf_id, k.pid, tuple(k.frames))
                          for k in kernel.kiobufs.values()),
        "daemons": (watchdog and watchdog.checks_run,
                    reaper and reaper.scans),
    }


ARMS = {
    "plain": set(),
    "daemons": {"daemons"},
    "hub": {"hub"},
    "crash": {"crash"},
    "all": {"daemons", "hub", "crash"},
}


@pytest.mark.parametrize("arm", sorted(ARMS))
@settings(max_examples=60, deadline=None)
@given(ops=OPS, watchdog_ns=st.integers(1000, 3000),
       reaper_ns=st.integers(1000, 3000))
def test_single_pass_kiobuf_matches_per_page_reference(arm, ops,
                                                       watchdog_ns,
                                                       reaper_ns):
    intervals = (watchdog_ns, reaper_ns)
    got = _replay(ops, ARMS[arm], intervals)
    with reference_kiobuf():
        want = _replay(ops, ARMS[arm], intervals)
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("ops", [
    [("map", 0, 0, REGION_PAGES, True), ("unmap", 0)],
    [("map", 0, 0, REGION_PAGES, True),
     ("munmap", 0, 0, REGION_PAGES), ("unmap", 0)],
], ids=["unmap-keeps-frames", "unmap-frees-frames"])
def test_daemon_deadlines_land_inside_map_and_unmap(ops):
    """At the property's cadences, calendar callbacks do fire between the
    first and the last page of a map and of an unmap — one that leaves
    the task's mapping holding the frames, and one that frees them.  Half
    the region is not resident, so the map also takes demand-zero faults
    while earlier pages are already pinned."""
    got = _replay(ops, {"daemons"}, (1000, 1100))
    assert [o for o in got["outcomes"] if o[0] != "mapped"] == []
    starts = {kind: ns for tag, ns, kind in
              (entry[:3] for entry in got["log"]) if tag == "op"}
    ends = {kind: ts for ts, kind, _ in got["trace"]
            if kind in ("kiobuf_map", "kiobuf_unmap")}
    for op, traced in (("map", "kiobuf_map"), ("unmap", "kiobuf_unmap")):
        assert any(tag == "fire" and starts[op] < ns < ends[traced]
                   for tag, ns, *_ in got["log"]), op
    with reference_kiobuf():
        want = _replay(ops, {"daemons"}, (1000, 1100))
    assert got == want


@pytest.mark.parametrize("phase", ["map", "unmap"])
@pytest.mark.parametrize("page", [0, 1, 5])
def test_deadline_exactly_on_a_page_charge(phase, page):
    """A deadline equal to ``now_ns`` after one page's charge fires at
    that charge, seeing that page's pin state, not at a later one."""

    def run():
        m = Machine(num_frames=80)
        kernel = m.kernel
        clock, costs = kernel.clock, kernel.costs
        task = m.spawn("t")
        va = task.mmap(8)
        task.touch_pages(va, 8)
        frames = task.physical_pages(va, 8)
        seen = []

        def probe(now_ns):
            seen.append((now_ns, [kernel.pagemap.page(f).pin_count
                                  for f in frames]))

        walk, lock = costs.pagetable_walk_ns, costs.page_lock_ns
        if phase == "map":
            # On ``page``'s walk charge, and on its lock charge.
            at = (clock.now_ns + costs.kiobuf_setup_ns
                  + page * (walk + lock) + walk)
            clock.schedule_at(at, probe)
            clock.schedule_at(at + lock, probe)
            kernel.map_user_kiobuf(task, va, 8 * PAGE_SIZE)
        else:
            kio = kernel.map_user_kiobuf(task, va, 8 * PAGE_SIZE)
            clock.schedule_at(clock.now_ns + (page + 1) * lock, probe)
            kernel.unmap_kiobuf(kio)
        return seen, clock.now_ns, clock.categories()

    got = run()
    with reference_kiobuf():
        want = run()
    assert got == want
    assert len(got[0]) == (2 if phase == "map" else 1)
