"""The counters reclaim reads instead of rescanning.

* ``PageTable.resident_count`` is a kept count of present entries; it
  must equal a recount after every page-table mutator.
* ``FrameTable.pagecache`` indexes the frames with ``PG_PAGECACHE`` set;
  it must equal a flag scan after every flag write, and
  ``Kernel.page_cache`` is a read-only view of it.
* ``_swap_out_task_one`` resumes at the first vpn at or after the task's
  hand and wraps to the lowest.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.flags import PG_LOCKED, PG_PAGECACHE, PG_REFERENCED
from repro.kernel.page import FrameTable, PageDescriptor
from repro.kernel.pagetable import PageTable
from repro.kernel.rawio import BlockDevice, buffered_read


def _recount(pt: PageTable) -> int:
    return sum(1 for vpn in pt.vpns() if pt.lookup(vpn).present)


class TestResidentCount:
    def test_remapping_a_present_entry_counts_once(self):
        pt = PageTable()
        pt.set_mapping(3, frame=7, writable=True)
        pt.set_mapping(3, frame=9, writable=False)
        assert pt.resident_count() == 1 == _recount(pt)

    def test_set_swapped_on_a_never_present_entry(self):
        pt = PageTable()
        pt.set_swapped(4, slot=2)
        assert pt.resident_count() == 0 == _recount(pt)
        pt.ensure(5)
        pt.set_swapped(5, slot=3)
        assert pt.resident_count() == 0 == _recount(pt)

    def test_clear_swapped_versus_present(self):
        pt = PageTable()
        pt.set_mapping(1, frame=2, writable=True)
        pt.set_mapping(2, frame=3, writable=True)
        pt.set_swapped(2, slot=0)
        assert pt.resident_count() == 1
        pt.clear(2)                      # swapped: RSS unchanged
        assert pt.resident_count() == 1 == _recount(pt)
        pt.clear(1)                      # present: RSS drops
        assert pt.resident_count() == 0 == _recount(pt)
        pt.clear(1)                      # absent: no-op
        assert pt.resident_count() == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["map", "swap", "clear", "ensure"]),
        st.integers(0, 7)), max_size=40))
    def test_matches_a_recount_after_every_mutator(self, ops):
        pt = PageTable()
        for kind, vpn in ops:
            if kind == "map":
                pt.set_mapping(vpn, frame=vpn + 10, writable=True)
            elif kind == "swap":
                pt.set_swapped(vpn, slot=vpn)
            elif kind == "clear":
                pt.clear(vpn)
            else:
                pt.ensure(vpn)
            assert pt.resident_count() == _recount(pt)


def _flag_scan(table: FrameTable) -> list[int]:
    return [f for f in range(table.num_frames)
            if table.flags[f] & PG_PAGECACHE]


_BITS = st.sampled_from([PG_PAGECACHE, PG_REFERENCED, PG_LOCKED,
                         PG_PAGECACHE | PG_REFERENCED])


class TestPageCacheIndex:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["set_flags", "set_bits", "clear_bits", "reset",
                         "scrub", "view_flags", "view_set", "view_clear"]),
        st.integers(0, 11), _BITS), max_size=40))
    def test_matches_a_flag_scan_after_every_write(self, ops):
        table = FrameTable(12)
        for kind, frame, bits in ops:
            pd = PageDescriptor.bound(table, frame)
            if kind == "set_flags":
                table.set_flags(frame, bits)
            elif kind == "set_bits":
                table.set_flag_bits(frame, bits)
            elif kind == "clear_bits":
                table.clear_flag_bits(frame, bits)
            elif kind == "reset":
                table.reset_frame(frame)
            elif kind == "scrub":
                table.scrub_identity(frame)
            elif kind == "view_flags":
                pd.flags = bits
            elif kind == "view_set":
                pd.set_flag(bits)
            else:
                pd.clear_flag(bits)
            assert table.pagecache == _flag_scan(table)

    def test_standalone_descriptor_indexes_its_flags(self):
        pd = PageDescriptor(frame=5, count=1, flags=PG_PAGECACHE)
        assert pd._table.pagecache == [0]
        pd.flags = 0
        assert pd._table.pagecache == []

    def test_kernel_page_cache_is_a_read_only_view(self, kernel):
        pd = kernel.add_page_cache_page()
        assert kernel.page_cache == {pd.frame}
        assert pd.frame in kernel.page_cache
        assert pd.frame + 1 not in kernel.page_cache
        assert len(kernel.page_cache) == 1
        assert not hasattr(kernel.page_cache, "add")
        assert not hasattr(kernel.page_cache, "discard")
        kernel.pagemap.put_page(pd.frame)       # freeing scrubs the flag
        assert kernel.page_cache == set()

    def test_buffered_read_leaves_no_page_cache(self, kernel):
        t = kernel.create_task()
        va = t.mmap(2)
        buffered_read(kernel, t, BlockDevice(kernel), 0, va, 2 * PAGE_SIZE)
        assert kernel.page_cache == set()
        assert kernel.pagemap.table.pagecache == []


class TestShrinkMmapSweep:
    def test_hand_and_charge_follow_the_whole_budget(self, kernel):
        """No page-cache frame: the hand still moves by the budget and
        every frame swept is charged."""
        n = kernel.pagemap.num_frames
        kernel._clock_hand = n - 3
        before = kernel.clock.category_ns("reclaim")
        assert paging.shrink_mmap(kernel, 10) == 0
        assert kernel._clock_hand == 7
        assert (kernel.clock.category_ns("reclaim") - before
                == 10 * kernel.costs.reclaim_scan_page_ns)

    def test_deadline_inside_a_gap_fires_at_its_frame(self, kernel):
        """A callback due mid-sweep runs at the charge of the frame that
        reaches it, with the hand just past that frame, and a page-cache
        frame it adds ahead of the hand is reclaimed in the same sweep."""
        cost = kernel.costs.reclaim_scan_page_ns
        t = kernel.create_task()
        t.touch_pages(t.mmap(16), 16)   # the next free frame is past 5
        kernel._clock_hand = 0
        seen = []

        def add_cache(now_ns):
            seen.append((now_ns, kernel._clock_hand))
            kernel.add_page_cache_page()

        start = kernel.clock.now_ns
        kernel.clock.schedule_at(start + 5 * cost - 1, add_cache)
        budget = kernel.pagemap.num_frames
        assert paging.shrink_mmap(kernel, budget) == 1
        assert seen == [(start + 5 * cost, 5)]
        assert kernel.page_cache == set()

    def test_zero_cost_model(self):
        from repro.kernel.kernel import Kernel
        from repro.sim.costs import FREE
        kernel = Kernel(num_frames=64, costs=FREE)
        pd = kernel.add_page_cache_page()
        kernel.clock.schedule_at(0, lambda now: None)
        assert paging.shrink_mmap(kernel, 64) == 1
        assert pd.frame not in kernel.page_cache
        assert kernel.clock.now_ns == 0


def _stolen_vpn(kernel, task) -> int:
    assert paging._swap_out_task_one(kernel, task) is True
    return kernel.trace.of_kind("swap_out")[-1]["vpn"]


class TestHandResume:
    @pytest.fixture
    def holey(self, kernel):
        """Resident vpns at offsets 0-2 and 5-7 of an 8-page area."""
        t = kernel.create_task()
        va = t.mmap(8)
        t.touch_pages(va, 8)
        base = t.vpn_of(va)
        t.munmap(va + 3 * PAGE_SIZE, 2)
        return t, base

    def test_hand_at_zero_starts_at_the_lowest_vpn(self, kernel, holey):
        t, base = holey
        kernel._task_swap_hand[t.pid] = 0
        assert _stolen_vpn(kernel, t) == base
        assert kernel._task_swap_hand[t.pid] == base + 1

    def test_hand_in_a_hole_resumes_after_it(self, kernel, holey):
        t, base = holey
        kernel._task_swap_hand[t.pid] = base + 3
        assert _stolen_vpn(kernel, t) == base + 5

    def test_hand_past_the_highest_vpn_wraps(self, kernel, holey):
        t, base = holey
        kernel._task_swap_hand[t.pid] = base + 100
        assert _stolen_vpn(kernel, t) == base

    def test_walk_wraps_to_pages_before_the_hand(self, kernel, holey):
        """Only pages below the hand are stealable: the walk wraps and
        pays for every entry it passed."""
        t, base = holey
        kernel.do_mlock(t, (base + 5) * PAGE_SIZE, 3 * PAGE_SIZE)
        kernel._task_swap_hand[t.pid] = base + 5
        before = kernel.clock.category_ns("reclaim")
        assert _stolen_vpn(kernel, t) == base
        assert (kernel.clock.category_ns("reclaim") - before
                == 4 * kernel.costs.reclaim_scan_page_ns)

    def test_page_swapped_ahead_of_the_walk_is_passed(self, kernel, holey):
        """A calendar callback that swaps out the page the walk is about
        to reach: the walk reads the entry when it gets there, passes it
        (it is no longer present) and steals the next one.  A walk over
        a snapshot taken at the start would read its frame as -1."""
        t, base = holey
        kernel.do_mlock(t, base * PAGE_SIZE, 3 * PAGE_SIZE)
        kernel._task_swap_hand[t.pid] = 0
        cost = kernel.costs.reclaim_scan_page_ns
        kernel.clock.schedule_at(
            kernel.clock.now_ns + 2 * cost,
            lambda now: paging._swap_out_task_one(kernel, t))
        assert _stolen_vpn(kernel, t) == base + 6
        swapped = [kernel.trace.of_kind("swap_out")[i]["vpn"]
                   for i in (-2, -1)]
        assert swapped == [base + 5, base + 6]
        assert t.resident_pages() == 4
