"""Test-only reference implementations the optimised paths are checked
against.

The production audits lean on incremental index sets (the frame table's
pinned set, the page map's parallel free set) and the TPT serves spans
from coalesced extents through a translation cache.  The equivalence
tests need an oracle that shares none of that machinery: the whole-table
walks and the page-by-page translation below read only the raw per-frame
state and the recorded frames, so a bug in an index set or an extent map
cannot hide by being present on both sides.

The kiobuf map and unmap below are the per-page loops: one clock charge
per page-table walk and per page lock, a VMA lookup per page, and the
reference and pin taken through the page map one call at a time.  The
production loops fold those charges into one under the deferred-charge
rule; :func:`reference_kiobuf` swaps these in so a whole history can be
replayed against them.

The reclaim pieces are the rescanning originals: ``shrink_mmap``
charging and checking every frame the clock hand sweeps,
``_swap_out_task_one`` snapshotting every present entry and rotating
the copy to the task's hand, and a ``resident_count`` that recounts the
page table.  :func:`reference_reclaim` swaps them in.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterator

import repro.kernel.kernel as kernel_module
from repro.analysis.events import PIN, SWAP_OUT, UNPIN
from repro.core.audit import LeakedPin, expected_pins
from repro.errors import (
    KiobufError, PageAccountingError, ProcessKilled, SwapFull,
)
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.fault import handle_fault
from repro.kernel.flags import PG_PAGECACHE, PG_REFERENCED, VM_WRITE
from repro.kernel.kiobuf import Kiobuf
from repro.kernel.pagetable import PageTable
from repro.kernel.reaper import OrphanReaper
from repro.sim.faults import crash_if_due


def full_check_free_list(pagemap) -> None:
    """Walk the free list object by object: no frame twice, every free
    frame at refcount zero."""
    seen: set[int] = set()
    for frame in pagemap._free:
        if frame in seen:
            raise PageAccountingError(
                f"frame {frame} on the free list twice")
        seen.add(frame)
        if pagemap.pages[frame].count != 0:
            raise PageAccountingError(
                f"frame {frame} free with refcount "
                f"{pagemap.pages[frame].count}")


def full_kernel_invariants(kernel) -> None:
    """The kernel accounting invariants of
    :func:`~repro.core.audit.audit_kernel_invariants`, checked by
    visiting every page descriptor instead of the pinned set."""
    full_check_free_list(kernel.pagemap)
    slot_owner: dict[int, tuple[int, int]] = {}
    for task in kernel.tasks:
        page_table = task.page_table
        for vpn in page_table.vpns():
            pte = page_table.lookup(vpn)
            if pte.present:
                pd = kernel.pagemap.page(pte.frame)
                if pd.count < 1:
                    raise PageAccountingError(
                        f"pid {task.pid} vpn {vpn} maps free frame "
                        f"{pte.frame}")
                if pd.tag == "kernel-image":
                    raise PageAccountingError(
                        f"pid {task.pid} vpn {vpn} maps kernel frame "
                        f"{pte.frame}")
            elif pte.swapped:
                if pte.swap_slot in slot_owner:
                    raise PageAccountingError(
                        f"swap slot {pte.swap_slot} referenced twice")
                slot_owner[pte.swap_slot] = (task.pid, vpn)
    for pd in kernel.pagemap:
        if pd.pin_count > 0 and pd.count == 0:
            raise PageAccountingError(
                f"frame {pd.frame} pinned ({pd.pin_count}) but free")
        if pd.pin_count < 0 or pd.count < 0:
            raise PageAccountingError(
                f"frame {pd.frame} has negative counters")


def full_pin_leaks(kernel, *agents, count_kiobufs: bool = False
                   ) -> list[LeakedPin]:
    """:func:`~repro.core.audit.audit_pin_leaks` as a walk over every
    page descriptor instead of the pinned set."""
    expected: Counter[int] = expected_pins(kernel, agents,
                                           count_kiobufs=count_kiobufs)
    return [LeakedPin(frame=pd.frame, pin_count=pd.pin_count,
                      expected=expected.get(pd.frame, 0))
            for pd in kernel.pagemap
            if pd.pin_count > expected.get(pd.frame, 0)]


def translate_pages(region, va: int, length: int
                    ) -> list[tuple[int, int]]:
    """Translate ``[va, va+length)`` page by page from the region's
    recorded frames: one ``(addr, len)`` segment per page touched."""
    segments: list[tuple[int, int]] = []
    remaining = length
    cursor = va
    aligned_base = region.first_vpn * PAGE_SIZE
    while remaining > 0:
        page_index = (cursor - aligned_base) // PAGE_SIZE
        offset = cursor % PAGE_SIZE
        n = min(remaining, PAGE_SIZE - offset)
        segments.append((region.frames[page_index] * PAGE_SIZE + offset, n))
        cursor += n
        remaining -= n
    return segments


class UnstampedReaper(OrphanReaper):
    """Reference reaper: forgets its idle stamp before every scan
    (drafted ones included), so it always walks every phase."""

    def scan(self):
        self._idle_stamp = None
        return super().scan()


def ref_map_user_kiobuf(kernel, task, va: int, nbytes: int,
                        write: bool = True) -> Kiobuf:
    """``map_user_kiobuf`` page by page, charging as it goes."""
    if nbytes <= 0:
        raise KiobufError(f"cannot map {nbytes} bytes")
    kernel.clock.charge(kernel.costs.kiobuf_setup_ns, "kiobuf")
    start_vpn = va // PAGE_SIZE
    end_vpn = (va + nbytes - 1) // PAGE_SIZE + 1

    pinned: list[int] = []
    kernel.pins_in_flight[id(pinned)] = pinned
    try:
        for vpn in range(start_vpn, end_vpn):
            kernel.clock.charge(kernel.costs.pagetable_walk_ns, "kiobuf")
            pte = task.page_table.lookup(vpn)
            if pte is None or not pte.present or (
                    write and not pte.writable and pte.cow):
                handle_fault(kernel, task, vpn, write=write)
                pte = task.page_table.lookup(vpn)
            else:
                vma = task.vmas.find_or_fault(vpn)
                if write and not (vma.flags & VM_WRITE):
                    handle_fault(kernel, task, vpn, write=True)
            assert pte is not None and pte.present
            pd = kernel.pagemap.get_page(pte.frame)
            pd.pin()
            pinned.append(pte.frame)
            kernel.clock.charge(kernel.costs.page_lock_ns, "kiobuf")
            if kernel.events.active:
                kernel.events.emit(PIN, frames=(pte.frame,), pid=task.pid)
            crash_if_due(kernel.fault_plan, kernel, task, "kiobuf.pin")
    except ProcessKilled:
        _ref_unwind_pins(kernel, pinned, task.pid)
        del kernel.pins_in_flight[id(pinned)]
        raise
    except Exception:
        _ref_unwind_pins(kernel, pinned, task.pid)
        del kernel.pins_in_flight[id(pinned)]
        raise

    kio = Kiobuf(kiobuf_id=kernel._next_kiobuf_id, pid=task.pid,
                 va=va, nbytes=nbytes, frames=pinned)
    kernel._next_kiobuf_id += 1
    kernel.kiobufs[kio.kiobuf_id] = kio
    del kernel.pins_in_flight[id(pinned)]
    kernel.state_seq.bump()
    kernel.trace.emit("kiobuf_map", kiobuf=kio.kiobuf_id, pid=task.pid,
                      va=va, npages=len(pinned))
    return kio


def _ref_unwind_pins(kernel, pinned: list[int], pid: int) -> None:
    for frame in pinned:
        pd = kernel.pagemap.page(frame)
        pd.unpin()
        kernel.pagemap.put_page(frame)
    if pinned and kernel.events.active:
        kernel.events.emit(UNPIN, frames=tuple(pinned), pid=pid)


def ref_unmap_kiobuf(kernel, kio: Kiobuf) -> None:
    """``unmap_kiobuf`` page by page, charging as it goes."""
    if not kio.mapped:
        raise KiobufError(f"kiobuf {kio.kiobuf_id} already unmapped")
    for frame in kio.frames:
        pd = kernel.pagemap.page(frame)
        pd.unpin()
        kernel.clock.charge(kernel.costs.page_lock_ns, "kiobuf")
        kernel.pagemap.put_page(frame)
    kio.mapped = False
    kernel.kiobufs.pop(kio.kiobuf_id, None)
    kernel.state_seq.bump()
    if kernel.events.active:
        kernel.events.emit(UNPIN, frames=tuple(kio.frames), pid=kio.pid)
    kernel.trace.emit("kiobuf_unmap", kiobuf=kio.kiobuf_id, pid=kio.pid,
                      npages=kio.npages)


@contextmanager
def reference_kiobuf() -> Iterator[None]:
    """Route every kernel kiobuf map and unmap — the ``Kernel`` methods,
    the exit path and the reaper's — through the per-page reference
    loops for the duration of the block."""
    saved = (kernel_module.map_user_kiobuf, kernel_module.unmap_kiobuf)
    kernel_module.map_user_kiobuf = ref_map_user_kiobuf
    kernel_module.unmap_kiobuf = ref_unmap_kiobuf
    try:
        yield
    finally:
        kernel_module.map_user_kiobuf, kernel_module.unmap_kiobuf = saved


def ref_shrink_mmap(kernel, scan_budget: int) -> int:
    """``shrink_mmap`` frame by frame: one charge and one check per frame
    the clock hand sweeps."""
    pagemap = kernel.pagemap
    freed = 0
    scanned = 0
    n = pagemap.num_frames
    while scanned < scan_budget:
        frame = kernel._clock_hand
        kernel._clock_hand = (kernel._clock_hand + 1) % n
        scanned += 1
        kernel.clock.charge(kernel.costs.reclaim_scan_page_ns, "reclaim")
        pd = pagemap.page(frame)
        if pd.free or pd.locked or pd.reserved:
            continue
        if pd.count != 1:
            continue
        if not pd.in_page_cache:
            continue
        if pd.referenced:
            pd.clear_flag(PG_REFERENCED)
            continue
        pd.clear_flag(PG_PAGECACHE)
        pagemap.put_page(frame)
        kernel.obs.inc("kernel.paging.cache_reclaims")
        kernel.trace.emit("cache_reclaim", frame=frame)
        freed += 1
    return freed


def ref_swap_out_task_one(kernel, task):
    """``_swap_out_task_one`` over a snapshot of every present entry,
    rotated to the task's hand."""
    hand = kernel._task_swap_hand.get(task.pid, 0)
    entries = [(vpn, pte) for vpn, pte in task.page_table.present_entries()]
    if not entries:
        return None
    order = [e for e in entries if e[0] >= hand] + \
            [e for e in entries if e[0] < hand]
    for vpn, pte in order:
        kernel.clock.charge(kernel.costs.reclaim_scan_page_ns, "reclaim")
        vma = task.vmas.find(vpn)
        if vma is None:
            continue
        if vma.locked:
            kernel.obs.inc("kernel.paging.swap_skips.VM_LOCKED")
            kernel.trace.emit("swap_skip", reason="VM_LOCKED",
                              pid=task.pid, vpn=vpn)
            continue
        pd = kernel.pagemap.page(pte.frame)
        if pd.locked:
            kernel.obs.inc("kernel.paging.swap_skips.PG_locked")
            kernel.trace.emit("swap_skip", reason="PG_locked",
                              pid=task.pid, vpn=vpn, frame=pd.frame)
            continue
        if pd.reserved:
            kernel.obs.inc("kernel.paging.swap_skips.PG_reserved")
            kernel.trace.emit("swap_skip", reason="PG_reserved",
                              pid=task.pid, vpn=vpn, frame=pd.frame)
            continue
        if pd.pinned:
            if not any(hook(pd.frame)
                       for hook in list(kernel.pin_eviction_hooks)):
                kernel.obs.inc("kernel.paging.swap_skips.pinned")
                kernel.trace.emit("swap_skip", reason="pinned",
                                  pid=task.pid, vpn=vpn, frame=pd.frame)
                continue
            kernel.obs.inc("kernel.paging.swap_evictions.odp")
        if pd.cow_shares > 0:
            kernel.obs.inc("kernel.paging.swap_skips.cow_shared")
            kernel.trace.emit("swap_skip", reason="cow_shared",
                              pid=task.pid, vpn=vpn, frame=pd.frame)
            continue
        try:
            slot = kernel.swap.alloc_slot()
        except SwapFull:
            return None
        kernel.swap.write_page(slot, kernel.phys.read_frame(pd.frame))
        task.page_table.set_swapped(vpn, slot)
        pd.mapping = None
        refs_before = pd.count
        was_freed = kernel.pagemap.put_page(pd.frame)
        if not was_freed:
            pd.tag = "orphan"
        kernel._task_swap_hand[task.pid] = vpn + 1
        obs = kernel.obs
        if obs.enabled:
            obs.metrics.counter("kernel.paging.swap_outs").inc()
            if not was_freed:
                obs.metrics.counter("kernel.paging.orphaned_frames").inc()
        if kernel.events.active:
            kernel.events.emit(SWAP_OUT, pid=task.pid, vpn=vpn,
                               frame=pd.frame, freed=was_freed,
                               actor="reclaim")
        kernel.trace.emit("swap_out", pid=task.pid, vpn=vpn,
                          frame=pd.frame, slot=slot,
                          refs_before=refs_before, freed=was_freed)
        return was_freed
    return None


def ref_resident_count(page_table) -> int:
    """``PageTable.resident_count`` as a recount of the entries."""
    return sum(1 for _ in page_table.present_entries())


@contextmanager
def reference_reclaim() -> Iterator[None]:
    """Route reclaim — ``shrink_mmap``, each ``swap_out`` steal and every
    RSS read — through the rescanning reference for the duration of the
    block."""
    saved = (paging.shrink_mmap, paging._swap_out_task_one,
             PageTable.resident_count)
    paging.shrink_mmap = ref_shrink_mmap
    paging._swap_out_task_one = ref_swap_out_task_one
    PageTable.resident_count = ref_resident_count  # type: ignore
    try:
        yield
    finally:
        (paging.shrink_mmap, paging._swap_out_task_one,
         PageTable.resident_count) = saved
