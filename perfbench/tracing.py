"""Span tracing from outside the program.

:func:`instrument` wraps the public entry point of each layer (see
:data:`BOUNDARIES`) so every call records a span: its name, the op it
belongs to, its parent span, and host start/end times.  Calendar
firings are recorded as spans too, through ``SimClock.add_calendar_hook``,
so daemon work fired inside e.g. ``post_send_many`` is charged to the
firing, not to the caller.  Everything is restored on exit; no code
under ``src/`` changes.

Self time, a span's duration minus the time its direct children
cover, is accumulated per span name while recording.  The spans
themselves stay in memory until :meth:`SpanRecorder.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Iterator

from repro.sim.clock import CalendarHook

#: (module, class or None for a module function, attribute, span name)
BOUNDARIES: list[tuple[str, str | None, str, str]] = [
    ("repro.msg.protocols", "Protocol", "transfer", "msg.transfer"),
    ("repro.core.regcache", "RegistrationCache", "acquire", "core.regcache"),
    ("repro.core.regcache", "RegistrationCache", "release", "core.regcache"),
    ("repro.via.kernel_agent", "KernelAgent", "register_memory",
     "via.register"),
    ("repro.via.kernel_agent", "KernelAgent", "deregister_memory",
     "via.deregister"),
    ("repro.kernel.kernel", "Kernel", "map_user_kiobuf", "kernel.kiobuf"),
    ("repro.kernel.kernel", "Kernel", "unmap_kiobuf", "kernel.kiobuf"),
    ("repro.kernel.kernel", "Kernel", "user_write", "kernel.user_access"),
    ("repro.kernel.kernel", "Kernel", "user_read", "kernel.user_access"),
    ("repro.kernel.paging", None, "try_to_free_pages", "kernel.reclaim"),
    ("repro.kernel.paging", None, "swap_out", "kernel.swap_out"),
    ("repro.via.nic", "VIANic", "post_send", "via.post"),
    ("repro.via.nic", "VIANic", "post_recv", "via.post"),
    ("repro.via.nic", "VIANic", "post_send_many", "via.post"),
    ("repro.via.nic", "VIANic", "post_recv_many", "via.post"),
    ("repro.via.nic", "VIANic", "deliver", "via.deliver"),
    ("repro.via.cq", "CompletionQueue", "drain_batch", "via.cq"),
    ("repro.via.tpt", "TranslationProtectionTable", "translate", "via.tpt"),
    ("repro.via.fabric", "Fabric", "transmit", "via.fabric"),
    ("repro.via.fabric", "Fabric", "attempt_delivery", "via.fabric"),
    ("repro.hw.dma", "DMAEngine", "read", "hw.dma"),
    ("repro.hw.dma", "DMAEngine", "write", "hw.dma"),
    ("repro.hw.dma", "DMAEngine", "read_gather", "hw.dma"),
    ("repro.hw.dma", "DMAEngine", "write_scatter", "hw.dma"),
    ("repro.sim.trace", "Trace", "emit", "sim.trace"),
    ("repro.core.audit", "InvariantWatchdog", "check", "core.watchdog"),
    ("repro.kernel.reaper", "OrphanReaper", "scan", "kernel.reaper"),
]

#: span name of one calendar firing
FIRING = "sim.calendar"

#: span names whose time counts as daemon time rather than their module
DAEMONS = ("core.watchdog", "kernel.reaper")


def layer_of(span: str) -> str:
    """The layer a span's self time is charged to."""
    return "daemons" if span in DAEMONS else span.split(".", 1)[0]


class SpanRecorder:
    """In-memory span log with running per-name self time and calls."""

    def __init__(self) -> None:
        #: finished spans: (op, span_id, parent_id, name, start_ns, end_ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        #: payload bytes handed to the fabric (counted at its boundary)
        self.fabric_bytes = 0
        #: the op the next spans belong to
        self.op = 0
        #: open spans: [span_id, name, start_ns, child_ns]
        self._stack: list[list] = []
        self._next_id = 1

    def push(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter_ns(), 0])
        self._next_id += 1

    def pop(self) -> None:
        end = perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        stack = self._stack
        parent = 0
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][0]
        self.spans.append((self.op, span_id, parent, name, start, end))

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("op", "id", "parent", "name", "start_ns", "end_ns")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))))
                fh.write("\n")


class _FiringHook(CalendarHook):
    """Record each calendar firing as a span."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder

    def fire_begin(self, event) -> None:
        self.recorder.push(FIRING)

    def fire_end(self, event) -> None:
        self.recorder.pop()


def _wrap(fn, name: str, recorder: SpanRecorder):
    push, pop = recorder.push, recorder.pop

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            pop()
    return traced


def _count_payload(fn, recorder: SpanRecorder):
    """``Fabric.attempt_delivery(src, packet, reliability)``: tally the
    packet's payload bytes before the wrapped call."""

    @functools.wraps(fn)
    def counted(self, src, packet, *args, **kwargs):
        recorder.fabric_bytes += len(packet.payload)
        return fn(self, src, packet, *args, **kwargs)
    return counted


@contextmanager
def instrument(recorder: SpanRecorder, clocks) -> Iterator[SpanRecorder]:
    """Wrap every boundary in :data:`BOUNDARIES` and hook each clock's
    calendar for the duration of the block; restore everything after."""
    originals = []
    removers = []
    try:
        for module_name, cls_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = module if cls_name is None else getattr(module,
                                                            cls_name)
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            traced = _wrap(original, name, recorder)
            if attr == "attempt_delivery":
                traced = _count_payload(traced, recorder)
            setattr(owner, attr, traced)
        hook = _FiringHook(recorder)
        removers.extend(clock.add_calendar_hook(hook) for clock in clocks)
        yield recorder
    finally:
        for remove in removers:
            remove()
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
