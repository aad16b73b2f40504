"""Tests for the kiobuf subsystem (map_user_kiobuf / unmap_kiobuf)."""

import pytest

from repro.errors import KiobufError, SegmentationFault
from repro.hw.physmem import PAGE_SIZE


class TestMapUserKiobuf:
    def test_map_faults_pages_in(self, kernel):
        t = kernel.create_task()
        va = t.mmap(4)
        assert t.resident_pages() == 0
        kio = kernel.map_user_kiobuf(t, va, 4 * PAGE_SIZE)
        assert t.resident_pages() == 4
        assert kio.npages == 4
        assert kio.frames == t.physical_pages(va, 4)

    def test_map_takes_ref_and_pin(self, kernel):
        t = kernel.create_task()
        va = t.mmap(2)
        t.touch_pages(va, 2)
        kio = kernel.map_user_kiobuf(t, va, 2 * PAGE_SIZE)
        for frame in kio.frames:
            pd = kernel.pagemap.page(frame)
            assert pd.count == 2       # mapping + kiobuf
            assert pd.pin_count == 1

    def test_unmap_releases_everything(self, kernel):
        t = kernel.create_task()
        va = t.mmap(2)
        kio = kernel.map_user_kiobuf(t, va, 2 * PAGE_SIZE)
        kernel.unmap_kiobuf(kio)
        for frame in kio.frames:
            pd = kernel.pagemap.page(frame)
            assert pd.count == 1 and pd.pin_count == 0
        assert not kio.mapped
        assert kio.kiobuf_id not in kernel.kiobufs

    def test_double_unmap_rejected(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        kio = kernel.map_user_kiobuf(t, va, PAGE_SIZE)
        kernel.unmap_kiobuf(kio)
        with pytest.raises(KiobufError):
            kernel.unmap_kiobuf(kio)

    def test_two_kiobufs_nest(self, kernel):
        """The property mlock lacks: independent mappings stack."""
        t = kernel.create_task()
        va = t.mmap(2)
        k1 = kernel.map_user_kiobuf(t, va, 2 * PAGE_SIZE)
        k2 = kernel.map_user_kiobuf(t, va, 2 * PAGE_SIZE)
        pd = kernel.pagemap.page(k1.frames[0])
        assert pd.pin_count == 2
        kernel.unmap_kiobuf(k1)
        assert pd.pin_count == 1       # still pinned by k2
        kernel.unmap_kiobuf(k2)
        assert pd.pin_count == 0

    def test_partial_page_range(self, kernel):
        t = kernel.create_task()
        va = t.mmap(3)
        # 100 bytes starting mid-page: still pins the whole page.
        kio = kernel.map_user_kiobuf(t, va + 50, 100)
        assert kio.npages == 1
        # spanning a boundary pins both pages
        kio2 = kernel.map_user_kiobuf(t, va + PAGE_SIZE - 10, 20)
        assert kio2.npages == 2

    def test_physical_segments(self, kernel):
        t = kernel.create_task()
        va = t.mmap(2)
        kio = kernel.map_user_kiobuf(t, va + 100, PAGE_SIZE)
        segs = kio.physical_segments()
        assert len(segs) == 2
        assert segs[0][1] == PAGE_SIZE - 100
        assert segs[1][1] == 100
        assert segs[0][0] % PAGE_SIZE == 100
        assert segs[1][0] % PAGE_SIZE == 0
        assert sum(n for _, n in segs) == PAGE_SIZE

    def test_unmapped_range_rejected_and_unwound(self, kernel):
        t = kernel.create_task()
        va = t.mmap(2)
        with pytest.raises(SegmentationFault):
            kernel.map_user_kiobuf(t, va, 4 * PAGE_SIZE)  # runs off the VMA
        # The two good pages were unwound: no stray pins/refs.
        for frame in t.physical_pages(va, 2):
            if frame is not None:
                pd = kernel.pagemap.page(frame)
                assert pd.pin_count == 0 and pd.count == 1

    def test_readonly_vma_rejected_for_write_map(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1, writable=False)
        with pytest.raises(SegmentationFault):
            kernel.map_user_kiobuf(t, va, PAGE_SIZE, write=True)
        # read-only mapping is fine
        kio = kernel.map_user_kiobuf(t, va, PAGE_SIZE, write=False)
        assert kio.npages == 1

    def test_zero_bytes_rejected(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        with pytest.raises(KiobufError):
            kernel.map_user_kiobuf(t, va, 0)

    def test_map_swapped_page_faults_it_back(self, kernel):
        from repro.kernel import paging
        t = kernel.create_task()
        va = t.mmap(1)
        t.write(va, b"data")
        paging.swap_out(kernel, 1)
        assert t.resident_pages() == 0
        kio = kernel.map_user_kiobuf(t, va, PAGE_SIZE)
        assert t.resident_pages() == 1
        assert t.read(va, 4) == b"data"
        assert t.major_faults == 1
        kernel.unmap_kiobuf(kio)


class TestPinsInFlight:
    """Pins taken before their owner records them — by a running map
    before its kiobuf exists, by an ODP fault service before its TPT
    patch — are explained to the pin audits and the reaper."""

    def test_watchdog_sample_inside_a_faulting_map(self):
        """A pin-checking watchdog at a 1 µs cadence fires between the
        demand-zero faults of one map (2 µs each) and finds no leak."""
        from repro.via.machine import Machine
        m = Machine(num_frames=128)
        t = m.spawn("app")
        va = t.mmap(8)
        watchdog = m.arm_watchdog(interval_ns=1_000, check_pins=True)
        checks = watchdog.checks_run
        kio = m.kernel.map_user_kiobuf(t, va, 8 * PAGE_SIZE)
        assert watchdog.checks_run > checks + 8
        assert watchdog.violations == 0
        assert m.kernel.pins_in_flight == {}
        m.kernel.unmap_kiobuf(kio)
        watchdog.disarm()

    def test_reaper_drafted_by_reclaim_during_a_map(self):
        """Reclaim that falls short inside a map's faults drafts the
        reaper again and again; it must not count the map's own pins as
        unexplained and strip them, or the unmap underflows."""
        from repro.via.machine import Machine
        m = Machine(num_frames=64, min_free_pages=8)
        kernel = m.kernel
        hog = m.spawn("hog")
        hog_va = hog.mmap(50)
        hog.touch_pages(hog_va, 50)
        kernel.do_mlock(hog, hog_va, 50 * PAGE_SIZE)  # nothing stealable
        reaper = m.start_reaper(interval_ns=10**12, backoff_base_ns=1)
        t = m.spawn("app")
        va = t.mmap(6)
        kio = kernel.map_user_kiobuf(t, va, 6 * PAGE_SIZE)
        assert reaper.scans >= reaper.max_attempts
        assert all(kernel.pagemap.page(f).pin_count == 1
                   for f in kio.frames)
        kernel.unmap_kiobuf(kio)
        assert kernel.pagemap.pinned_frames() == []
        assert kernel.trace.count("reaper_pin_released") == 0

    def test_reaper_drafted_during_an_odp_fault_service(self):
        """The same for the ODP fault service: its pins are explained
        from the first pin until the TPT patch names them."""
        from repro.via.machine import Machine
        m = Machine(num_frames=64, min_free_pages=8, backend="odp")
        kernel = m.kernel
        hog = m.spawn("hog")
        hog_va = hog.mmap(50)
        hog.touch_pages(hog_va, 50)
        kernel.do_mlock(hog, hog_va, 50 * PAGE_SIZE)
        reaper = m.start_reaper(interval_ns=10**12, backoff_base_ns=1)
        t = m.spawn("app")
        va = t.mmap(6)
        reg = m.user_agent(t).register_mem(va, 6 * PAGE_SIZE)
        patched = m.agent.service_translation_fault(reg.handle,
                                                    tuple(range(6)))
        assert reaper.scans >= reaper.max_attempts
        assert all(kernel.pagemap.page(f).pin_count == 1
                   for f in patched.values())
        assert kernel.pins_in_flight == {}
        assert kernel.trace.count("reaper_pin_released") == 0
