"""The per-machine audited-state sequence number.

The continuous checkers — :class:`~repro.core.audit.InvariantWatchdog`
and :class:`~repro.kernel.reaper.OrphanReaper` — re-derive their verdict
from the frame table, the free list, the page tables, the kiobufs, the
driver's registrations, the TPT and the NIC's VIs.  In steady state
none of that changes between two samples, so re-walking it only
re-proves the last verdict.

The idiom is a sequence counter bumped around each mutation: every
mutator of state those checkers read bumps one counter per machine, so
a checker that remembers the number it last saw clean can tell that
nothing it reads has changed since.  State no checker reads (clock ages,
PTE accessed/dirty bits, DMA payload bytes) does not bump.

What the number cannot see is a write that bypasses the mutators — a
raw store into a :class:`~repro.kernel.page.FrameTable` column or a
field poked on a PTE.  The standalone ``audit_*`` functions stay full
passes for exactly that case, and repro-lint's ``kernel-mutation`` rule
keeps such writes out of ``src/``.
"""

from __future__ import annotations


class StateSeq:
    """A monotonically increasing mutation counter shared by one
    machine's kernel, page tables, driver, TPT and NIC."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        """Record one mutation of audited state."""
        self.value += 1
