"""Kernel I/O buffers (kiobufs) — the mechanism the paper's proposal
builds on.

Section 4.2: "The RAW I/O mechanism was introduced to the Linux kernel by
Stephen C. Tweedie of RedHat in order to accelerate SCSI disk accesses."
A kiobuf maps a user-space range for kernel/device I/O:
``map_user_kiobuf`` faults every page in, takes a page reference, records
the physical pages, and **pins them against reclaim**; ``unmap_kiobuf``
reverses all of it.

Reconstruction note (the paper's text is truncated here — see DESIGN.md):
we model the pin as a per-page counter (``PageDescriptor.pin_count``)
rather than the single ``PG_locked`` bit, because that is the minimal
semantics under which the paper's two requirements both hold:

* **reliability** — ``swap_out`` skips pinned pages, and
* **multiple registrations** — two kiobufs over the same page take two
  pins; unmapping one leaves the page pinned.

A single lock bit cannot express the second property (that is exactly the
Giganet hazard benchmark E6 quantifies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.events import PIN, UNPIN
from repro.errors import KiobufError
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.fault import handle_fault
from repro.kernel.flags import VM_WRITE
from repro.sim.faults import crash_if_due

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task

#: the horizon of a calendar with nothing scheduled
_NO_DEADLINE = 1 << 63


@dataclass
class Kiobuf:
    """One mapped kernel I/O buffer."""

    kiobuf_id: int
    pid: int
    va: int                      #: user virtual base address
    nbytes: int
    frames: list[int] = field(default_factory=list)
    mapped: bool = True

    @property
    def npages(self) -> int:
        return len(self.frames)

    def physical_segments(self) -> list[tuple[int, int]]:
        """Flat ``(phys_addr, length)`` segments covering the buffer, for
        scatter/gather DMA."""
        segs: list[tuple[int, int]] = []
        offset = self.va % PAGE_SIZE
        remaining = self.nbytes
        for i, frame in enumerate(self.frames):
            start = offset if i == 0 else 0
            n = min(remaining, PAGE_SIZE - start)
            segs.append((frame * PAGE_SIZE + start, n))
            remaining -= n
        return segs


def _horizon(clock) -> int:
    """Simulated ns a loop may owe before paying would reach the next
    calendar deadline (unbounded when the calendar is empty)."""
    deadline = clock.next_deadline_ns
    return _NO_DEADLINE if deadline is None else deadline - clock.now_ns


def map_user_kiobuf(kernel: "Kernel", task: "Task", va: int,
                    nbytes: int, write: bool = True) -> Kiobuf:
    """Map ``[va, va+nbytes)`` of ``task`` into a kiobuf.

    For every page of the range: fault it in if necessary (charging the
    corresponding minor/major fault costs), take a page reference, take a
    pin, and record the frame.  The page-table walk happens *here, inside
    the kernel* — which is why the mechanism satisfies the mainline rule
    that drivers must not walk page tables themselves (Sec. 4.1).

    The per-page walk and lock costs are owed in a local total and paid
    as one charge under the deferred-charge rule (DESIGN.md §5.2): the
    debt is settled exactly where a per-page charge would have reached a
    calendar deadline, and before anything that reads the clock — the
    fault handler, a crash point, a PIN emit — so every observer sees
    the same simulated time as with one charge per page.

    Raises :class:`~repro.errors.SegmentationFault` (propagated from the
    fault handler) if the range is not fully mapped by VMAs or lacks
    write permission when ``write`` is requested.
    """
    if nbytes <= 0:
        raise KiobufError(f"cannot map {nbytes} bytes")
    clock = kernel.clock
    costs = kernel.costs
    clock.charge(costs.kiobuf_setup_ns, "kiobuf")
    start_vpn = va // PAGE_SIZE
    end_vpn = (va + nbytes - 1) // PAGE_SIZE + 1
    walk_ns = costs.pagetable_walk_ns
    lock_ns = costs.page_lock_ns
    plan = kernel.fault_plan
    events = kernel.events if kernel.events.active else None
    get_and_pin = kernel.pagemap.table.get_and_pin
    lookup = task.page_table.lookup
    frames: list[int] = []
    # Recorded before the first pin, so the pin audits and the reaper
    # count pins that do not have a kiobuf record yet.
    in_flight = kernel.pins_in_flight
    in_flight[id(frames)] = frames
    owed = 0
    horizon = _horizon(clock)
    # The previous page's VMA, dropped whenever other code ran (calendar
    # callbacks, the fault handler) and could have changed the VMA list.
    vma = None

    def settle() -> None:
        nonlocal owed
        pay, owed = owed, 0
        clock.charge(pay, "kiobuf")

    try:
        for vpn in range(start_vpn, end_vpn):
            owed += walk_ns
            if owed >= horizon:
                settle()
                horizon = _horizon(clock)
                vma = None
            pte = lookup(vpn)
            if pte is None or not pte.present or (
                    write and not pte.writable and pte.cow):
                fault = True    # demand-zero, swap-in, or COW break
            else:
                if vma is None or not vma.contains(vpn):
                    vma = task.vmas.find_or_fault(vpn)
                # Permission check identical to the fault path.
                fault = write and not (vma.flags & VM_WRITE)
            if fault:
                settle()
                handle_fault(kernel, task, vpn, write=write)
                horizon = _horizon(clock)
                vma = None
                pte = lookup(vpn)
            assert pte is not None and pte.present
            frame = pte.frame
            get_and_pin(frame)
            frames.append(frame)
            owed += lock_ns
            if owed >= horizon or events is not None or plan is not None:
                settle()
                if events is not None:
                    events.emit(PIN, frames=(frame,), pid=task.pid)
                # Crash point after each page pin: a death here leaves
                # pins that predate the kiobuf record, so the exit-path
                # sweep cannot see them — the unwind below must release
                # them.
                crash_if_due(plan, kernel, task, "kiobuf.pin")
                horizon = _horizon(clock)
                vma = None
    except Exception:
        # Unwind partial pins so a failed map leaves no residue — also
        # when the mapper itself died at a crash point: the kill already
        # ran the exit path, but these pins are invisible to it (no
        # kiobuf record exists yet).
        settle()
        _unwind_pins(kernel, frames, task.pid)
        del in_flight[id(frames)]
        raise
    settle()

    kio = Kiobuf(kiobuf_id=kernel._next_kiobuf_id, pid=task.pid,
                 va=va, nbytes=nbytes, frames=frames)
    kernel._next_kiobuf_id += 1
    kernel.kiobufs[kio.kiobuf_id] = kio
    del in_flight[id(frames)]
    kernel.state_seq.bump()
    kernel.trace.emit("kiobuf_map", kiobuf=kio.kiobuf_id, pid=task.pid,
                      va=va, npages=len(frames))
    return kio


def _unwind_pins(kernel: "Kernel", pinned: list[int], pid: int) -> None:
    """Release partial pins of a failed ``map_user_kiobuf``."""
    for frame in pinned:
        pd = kernel.pagemap.page(frame)
        pd.unpin()
        kernel.pagemap.put_page(frame)
    if pinned and kernel.events.active:
        kernel.events.emit(UNPIN, frames=tuple(pinned), pid=pid)


def unmap_kiobuf(kernel: "Kernel", kio: Kiobuf) -> None:
    """Release a kiobuf: drop one pin and one reference per page.

    The per-page lock costs are owed and paid as one charge under the
    same deferred-charge rule as :func:`map_user_kiobuf`; a page whose
    release frees its frame (traced with a timestamp) settles first.

    Unmapping the same kiobuf twice is an error (the kernel would corrupt
    counters; we raise instead).
    """
    if not kio.mapped:
        raise KiobufError(f"kiobuf {kio.kiobuf_id} already unmapped")
    clock = kernel.clock
    lock_ns = kernel.costs.page_lock_ns
    pagemap = kernel.pagemap
    table = pagemap.table
    counts = table.counts
    owed = 0
    horizon = _horizon(clock)
    try:
        for frame in kio.frames:
            if owed + lock_ns < horizon and counts[frame] > 1:
                table.unpin_and_put(frame)
                owed += lock_ns
                continue
            # This page's charge reaches a deadline, or its put_page may
            # free the frame: pay between the unpin and the put, as the
            # per-page charge did.
            table.decr_pin(frame)
            pay, owed = owed + lock_ns, 0
            clock.charge(pay, "kiobuf")
            pagemap.put_page(frame)
            horizon = _horizon(clock)
    finally:
        clock.charge(owed, "kiobuf")
    kio.mapped = False
    kernel.kiobufs.pop(kio.kiobuf_id, None)
    kernel.state_seq.bump()
    if kernel.events.active:
        kernel.events.emit(UNPIN, frames=tuple(kio.frames), pid=kio.pid)
    kernel.trace.emit("kiobuf_unmap", kiobuf=kio.kiobuf_id, pid=kio.pid,
                      npages=kio.npages)
