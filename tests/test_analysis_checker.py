"""The lifecycle the pin sanitizer and the race detector share.

Both checkers arm on a Cluster, a Machine, a bare Kernel or a
``(kernel, agents)`` pair through one resolver, subscribe once to each
kernel's event hub, let every hub go quiet on ``disarm()``, and can be
re-armed without carrying a stale subscription or a stale pin baseline
into the new run.  These tests arm their own checkers, so suite-level
arming is skipped.
"""

from __future__ import annotations

import pytest

from repro.analysis.races import RaceDetector
from repro.analysis.sanitizer import PinSanitizer
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.kernel import Kernel
from repro.via.machine import Cluster, Machine, kernel_pairs

pytestmark = [pytest.mark.san_suppress, pytest.mark.race_suppress]

TARGETS = ("cluster", "machine", "kernel", "pair")


def build(kind: str):
    """A target of ``kind`` and the kernels arming it must reach."""
    if kind == "cluster":
        cluster = Cluster(2, num_frames=64, swap_slots=64)
        return cluster, [m.kernel for m in cluster.machines]
    if kind == "kernel":
        kernel = Kernel(num_frames=64, swap_slots=64)
        return kernel, [kernel]
    machine = Machine(num_frames=64, swap_slots=64)
    if kind == "machine":
        return machine, [machine.kernel]
    return (machine.kernel, [machine.agent]), [machine.kernel]


@pytest.mark.parametrize("kind", TARGETS)
def test_resolver_reaches_every_kernel(kind):
    target, kernels = build(kind)
    pairs = kernel_pairs(target)
    assert [kernel for kernel, _agents in pairs] == kernels
    if kind != "kernel":
        assert all(len(agents) == 1 for _kernel, agents in pairs)


@pytest.mark.parametrize("cls", [PinSanitizer, RaceDetector])
@pytest.mark.parametrize("kind", TARGETS)
def test_arm_disarm_rearm(cls, kind):
    target, kernels = build(kind)
    hubs = [kernel.events for kernel in kernels]
    tasks = [kernel.create_task(name="pinner") for kernel in kernels]
    vpns = []
    for task in tasks:
        va = task.mmap(1)
        task.touch_pages(va, 1)
        vpns.append(va // PAGE_SIZE)

    checker = cls()
    assert checker.arm(target) is checker and checker.armed
    assert [len(hub._subs) for hub in hubs] == [1] * len(hubs)
    frames = [kernel.pin_user_page(task, vpn)
              for kernel, task, vpn in zip(kernels, tasks, vpns)]
    assert checker.events_seen == len(hubs)

    checker.disarm()
    assert not checker.armed
    assert not any(hub.active for hub in hubs)

    # Re-arming subscribes each hub once more, under a fresh baseline:
    # the pins taken before it are known, so their release is clean.
    checker.arm(target)
    assert [len(hub._subs) for hub in hubs] == [1] * len(hubs)
    for kernel, task, frame in zip(kernels, tasks, frames):
        kernel.unpin_user_page(frame, task.pid)
    assert checker.events_seen == 2 * len(hubs)
    assert sum(checker.counts.values()) == 0
    checker.disarm()
    assert not any(hub.active for hub in hubs)
