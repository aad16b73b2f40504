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
from repro.errors import KiobufError, ProcessKilled
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.fault import handle_fault
from repro.kernel.flags import VM_WRITE
from repro.sim.faults import crash_if_due

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


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


def map_user_kiobuf(kernel: "Kernel", task: "Task", va: int,
                    nbytes: int, write: bool = True) -> Kiobuf:
    """Map ``[va, va+nbytes)`` of ``task`` into a kiobuf.

    For every page of the range: fault it in if necessary (charging the
    corresponding minor/major fault costs), take a page reference, take a
    pin, and record the frame.  The page-table walk happens *here, inside
    the kernel* — which is why the mechanism satisfies the mainline rule
    that drivers must not walk page tables themselves (Sec. 4.1).

    Raises :class:`~repro.errors.SegmentationFault` (propagated from the
    fault handler) if the range is not fully mapped by VMAs or lacks
    write permission when ``write`` is requested.
    """
    if nbytes <= 0:
        raise KiobufError(f"cannot map {nbytes} bytes")
    kernel.clock.charge(kernel.costs.kiobuf_setup_ns, "kiobuf")
    start_vpn = va // PAGE_SIZE
    end_vpn = (va + nbytes - 1) // PAGE_SIZE + 1

    frames: list[int] = []
    pinned: list[int] = []
    try:
        for vpn in range(start_vpn, end_vpn):
            kernel.clock.charge(kernel.costs.pagetable_walk_ns, "kiobuf")
            pte = task.page_table.lookup(vpn)
            if pte is None or not pte.present or (
                    write and not pte.writable and pte.cow):
                # Fault the page in (demand-zero, swap-in, or COW break).
                handle_fault(kernel, task, vpn, write=write)
                pte = task.page_table.lookup(vpn)
            else:
                vma = task.vmas.find_or_fault(vpn)
                if write and not (vma.flags & VM_WRITE):
                    # Permission check identical to the fault path.
                    handle_fault(kernel, task, vpn, write=True)
            assert pte is not None and pte.present
            pd = kernel.pagemap.get_page(pte.frame)
            pd.pin()
            kernel.clock.charge(kernel.costs.page_lock_ns, "kiobuf")
            frames.append(pte.frame)
            pinned.append(pte.frame)
            if kernel.events.active:
                kernel.events.emit(PIN, frames=(pte.frame,), pid=task.pid)
            # Crash point after each page pin: a death here leaves pins
            # that predate the kiobuf record, so the exit-path sweep
            # cannot see them — the unwind below must release them.
            crash_if_due(kernel.fault_plan, kernel, task, "kiobuf.pin")
    except ProcessKilled:
        # The mapper itself died at a crash point.  The kill already ran
        # the exit path, but these partial pins are invisible to it (no
        # kiobuf record exists yet): unwind them here, then let the
        # control-flow exception keep propagating.
        _unwind_pins(kernel, pinned, task.pid)
        raise
    except Exception:
        # Unwind partial pins so a failed map leaves no residue.
        _unwind_pins(kernel, pinned, task.pid)
        raise

    kio = Kiobuf(kiobuf_id=kernel._next_kiobuf_id, pid=task.pid,
                 va=va, nbytes=nbytes, frames=frames)
    kernel._next_kiobuf_id += 1
    kernel.kiobufs[kio.kiobuf_id] = kio
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

    Unmapping the same kiobuf twice is an error (the kernel would corrupt
    counters; we raise instead).
    """
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
