"""Test-only reference implementations the optimised paths are checked
against.

The production audits lean on incremental index sets (the frame table's
pinned set, the page map's parallel free set) and the TPT serves spans
from coalesced extents through a translation cache.  The equivalence
tests need an oracle that shares none of that machinery: the whole-table
walks and the page-by-page translation below read only the raw per-frame
state and the recorded frames, so a bug in an index set or an extent map
cannot hide by being present on both sides.
"""

from __future__ import annotations

from collections import Counter

from repro.core.audit import LeakedPin, expected_pins
from repro.errors import PageAccountingError
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.reaper import OrphanReaper


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
