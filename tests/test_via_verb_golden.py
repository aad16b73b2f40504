"""Golden equivalence of every VIA verb's data path.

A seeded matrix — reliability level × verb × single/batched posting ×
fault plan — drives a small two-machine cluster through a fixed
workload and digests everything observable about the run: the ordered
trace ``(ts_ns, kind, detail)``, the clock's category totals, the NIC
and fabric counters, the fault plan's draw statistics, VI sequence
state, each descriptor's completion, and the bytes in the buffers.
Observability stays disabled, so only the always-on trace is pinned.

The digests in ``via_verb_golden.json`` were recorded before the NIC's
post, retransmission and error paths were folded into one path per
verb; any refactor of those paths must reproduce them bit for bit.
Regenerate them (``python tests/test_via_verb_golden.py``) only for a
change that is *meant* to alter simulated behaviour, and say so.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import pathlib
from dataclasses import asdict

import pytest

from repro.errors import ReproError
from repro.hw.physmem import PAGE_SIZE
from repro.sim.faults import FaultPlan
from repro.via import descriptor, kernel_agent, tpt
from repro.via.constants import ReliabilityLevel
from repro.via.descriptor import DataSegment, Descriptor
from repro.via.machine import connected_pair

GOLDEN_PATH = pathlib.Path(__file__).with_name("via_verb_golden.json")

RELIABILITIES = {
    "unreliable": ReliabilityLevel.UNRELIABLE,
    "delivery": ReliabilityLevel.RELIABLE_DELIVERY,
    "reception": ReliabilityLevel.RELIABLE_RECEPTION,
}
VERBS = ("send", "write", "write_imm", "read", "cmpswap", "fetchadd")
POSTINGS = ("single", "batched")
PLANS: dict[str, dict | None] = {
    "none": None,
    "loss": dict(seed=5, loss_rate=0.3),
    "corrupt": dict(seed=6, corrupt_rate=0.4),
    "duplicate": dict(seed=7, duplicate_rate=0.5),
    "delay": dict(seed=8, delay_rate=0.5, delay_ns=3_000),
    "dma_fail": dict(seed=9, dma_fail_rate=0.1),
    "mixed": dict(seed=10, loss_rate=0.15, corrupt_rate=0.1,
                  duplicate_rate=0.15, delay_rate=0.2, dma_fail_rate=0.03),
    # heavy enough to exhaust the retransmit budget now and then
    "blackout": dict(seed=11, loss_rate=0.75),
}

#: operations per case; each moves ``OP_BYTES`` (atomics: one word).
#: The last one is refused by protection: its receive buffer (send) or
#: remote region (RDMA, atomics) lacks the registration it needs.
OPS = 6
OP_BYTES = 96
#: a memory handle no registration ever issues
BAD_HANDLE = 0xBAD

NIC_COUNTERS = (
    "sends_completed", "recvs_completed", "rdma_writes_completed",
    "rdma_reads_completed", "atomics_completed", "atomics_served",
    "atomic_replays", "atomic_rejects", "recv_drops", "protection_faults",
    "retransmits", "duplicates_dropped", "dma_faults", "resets",
    "dma_suspensions",
)
FABRIC_COUNTERS = ("packets_sent", "packets_dropped", "acks_sent",
                   "acks_dropped", "packets_nacked")

CASES = [f"{rel}-{verb}-{posting}-{plan}"
         for rel in RELIABILITIES for verb in VERBS
         for posting in POSTINGS for plan in PLANS]


def _pattern(seed: int, n: int) -> bytes:
    return bytes((seed * 31 + i * 7) & 0xFF for i in range(n))


def _post(ua, vi, descs, posting, many, single, errors, tag):
    """Post ``descs`` one at a time or as one batch, recording (not
    raising) what the data path rejects."""
    batches = [descs] if posting == "batched" else [[d] for d in descs]
    for i, batch in enumerate(batches):
        try:
            if posting == "batched":
                getattr(ua, many)(vi, batch)
            else:
                getattr(ua, single)(vi, batch[0])
        except ReproError as exc:
            errors.append((tag, i, type(exc).__name__, str(exc)))


@contextlib.contextmanager
def _fresh_ids():
    """Number handles, protection tags and descriptor ids from their
    starting points for one case (they are process-wide counters), so a
    digest does not depend on what ran before it in the process."""
    saved = (tpt._handles, kernel_agent._tags, descriptor._desc_ids)
    tpt._handles = itertools.count(1)
    kernel_agent._tags = itertools.count(0x100)
    descriptor._desc_ids = itertools.count(1)
    try:
        yield
    finally:
        tpt._handles, kernel_agent._tags, descriptor._desc_ids = saved


def run_case(case: str) -> str:
    """Run one matrix case and return the sha256 of its observables."""
    with _fresh_ids():
        return _digest_case(case)


def _digest_case(case: str) -> str:
    rel, verb, posting, plan_name = case.split("-")
    cluster, ua_s, ua_r, vi_s, vi_r = connected_pair(
        "kiobuf", reliability=RELIABILITIES[rel], num_frames=128, seed=3)
    s_task, r_task = ua_s.task, ua_r.task

    # Remote side: one RDMA/atomic target region, one page of receive
    # buffers per operation (which grants no remote access).
    tva = r_task.mmap(1)
    r_task.touch_pages(tva, 1)
    r_task.write(tva, _pattern(1, PAGE_SIZE))
    treg = ua_r.register_mem(tva, PAGE_SIZE, rdma_write=True,
                             rdma_read=True, rdma_atomic=True)
    rva = r_task.mmap(OPS)
    rreg = ua_r.register_mem(rva, OPS * PAGE_SIZE)
    # Local side: one page of source/landing buffer per operation.
    lva = s_task.mmap(OPS)
    s_task.write(lva, _pattern(2, OPS * PAGE_SIZE))
    lreg = ua_s.register_mem(lva, OPS * PAGE_SIZE)

    plan_kwargs = PLANS[plan_name]
    plan = (cluster.inject_faults(FaultPlan(**plan_kwargs))
            if plan_kwargs is not None else None)
    errors: list[tuple] = []

    recvs: list[Descriptor] = []
    if verb in ("send", "write_imm"):
        recvs = [Descriptor.recv([DataSegment(
            rreg.handle if i < OPS - 1 else BAD_HANDLE,
            rva + i * PAGE_SIZE, PAGE_SIZE)])
            for i in range(OPS)]
        _post(ua_r, vi_r, recvs, posting, "post_recv_many", "post_recv",
              errors, "recv")

    sends: list[Descriptor] = []
    for i in range(OPS):
        local = lva + i * PAGE_SIZE
        # the last operation aims at the receive buffers: no RDMA access
        handle, base = (treg.handle, tva) if i < OPS - 1 else (rreg.handle,
                                                                rva)
        if verb in ("cmpswap", "fetchadd"):
            seg = [DataSegment(lreg.handle, local, 8)]
            target = base + 8 * (i % 3)
            if verb == "cmpswap":
                word = int.from_bytes(_pattern(1, PAGE_SIZE)[
                    8 * (i % 3):8 * (i % 3) + 8], "little")
                compare = word if i % 2 == 0 else word ^ 1
                sends.append(Descriptor.atomic_cmpswap(
                    seg, handle, target, compare, i + 100))
            else:
                sends.append(Descriptor.atomic_fetchadd(
                    seg, handle, target, i + 1))
            continue
        seg = [DataSegment(lreg.handle, local, OP_BYTES + i)]
        remote = base + 128 * i
        if verb == "send":
            sends.append(Descriptor.send(
                seg, immediate=b"IM%02d" % i if i % 2 else None))
        elif verb == "write":
            sends.append(Descriptor.rdma_write(seg, handle, remote))
        elif verb == "write_imm":
            sends.append(Descriptor.rdma_write(
                seg, handle, remote, immediate=b"WI%02d" % i))
        else:
            sends.append(Descriptor.rdma_read(seg, handle, remote))
    _post(ua_s, vi_s, sends, posting, "post_send_many", "post_send",
          errors, "send")

    h = hashlib.sha256()

    def feed(*parts) -> None:
        h.update(repr(parts).encode())
        h.update(b"\n")

    for ev in cluster.trace:
        feed(ev.ts_ns, ev.kind, sorted(ev.detail.items()))
    feed("clock", cluster.clock.now_ns, sorted(cluster.clock.categories()
                                               .items()))
    for m in cluster.machines:
        feed("nic", m.nic.name, [getattr(m.nic, c) for c in NIC_COUNTERS])
    feed("fabric", [getattr(cluster.fabric, c) for c in FABRIC_COUNTERS])
    feed("plan", None if plan is None else sorted(asdict(plan.stats)
                                                  .items()))
    for vi in (vi_s, vi_r):
        feed("vi", vi.state.value, vi.tx_seq, vi.rx_seq)
    for desc in recvs + sends:
        feed("desc", desc.done, desc.status, desc.length_transferred,
             desc.received_immediate, desc.atomic_original_value)
    feed("errors", errors)
    # Bytes last: reading through the page tables may charge the clock.
    feed("target", r_task.read(tva, PAGE_SIZE))
    feed("rbufs", r_task.read(rva, OPS * PAGE_SIZE))
    feed("lbufs", s_task.read(lva, OPS * PAGE_SIZE))
    return h.hexdigest()


@functools.cache
def _golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_whole_matrix():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_verb_path_matches_golden(case):
    assert run_case(case) == _golden()[case]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    GOLDEN_PATH.write_text(json.dumps(
        {case: run_case(case) for case in CASES}, indent=1,
        sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} digests to {GOLDEN_PATH}")
