"""The benchmark's three workloads, driven through the public API only.

Each workload builds its system and warms it (``build``), then runs
numbered ops from an op plan that was drawn from the seed before
timing (``op``).  One op is one closed-loop request: the next op starts
only after the previous one returned.  Ops report correctness as a
bool; :meth:`Workload.finish` quiesces the system and runs the
post-run audits.  ``counters`` snapshots the public per-layer counters
the traced run turns into per-op rates.

The workloads avoid every knob ROADMAP item 4 retires
(``tpt.coalesce_extents``, ``translation_cache_entries=0``,
``dma.coalesce=False``, ``full_scan=True``, ``use_events=False``,
``SimClock.subscribe``), so deleting them cannot break the benchmark.
"""

from __future__ import annotations

import random

from repro.core.audit import (
    audit_kernel_invariants, audit_pin_leaks, audit_tpt_consistency,
)
from repro.errors import ReproError
from repro.hw.physmem import PAGE_SIZE
from repro.msg.endpoint import make_pair
from repro.msg.protocols import RendezvousZeroCopyProtocol
from repro.via.constants import VIP_SUCCESS
from repro.via.descriptor import DataSegment, Descriptor
from repro.via.machine import Cluster, Machine

KIB = 1024
MIB = 1024 * KIB


def deck(rng: random.Random, values, n: int) -> list:
    """``n`` draws using every value equally often: shuffled copies of
    ``values``, dealt one after another.  Keeps the input mix the same
    for every seed, so seeds differ in order, not in load."""
    out: list = []
    while len(out) < n:
        cards = list(values)
        rng.shuffle(cards)
        out.extend(cards)
    return out[:n]


class Workload:
    """Common shape; subclasses fill in the system and the op."""

    name = "abstract"
    #: ops whose simulated time feeds ``sim_us_*`` and the digest; the
    #: untraced timed phase always runs at least this many, and at least
    #: 200 so that p95 has 10 samples beyond it
    sim_window = 200
    #: ops drawn into the plan (the plan repeats past its end)
    plan_len = 4096
    #: ops of the warm phase (drawn before the plan, run by ``build``)
    warm_ops = 0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        if tiny:
            self.sim_window = 8
            self.plan_len = 64
            self.warm_ops = min(self.warm_ops, 8)
        rng = random.Random(f"{self.name}/{seed}")
        self.warm_plan = self.make_plan(rng, self.warm_ops)
        self.plan = self.make_plan(rng, self.plan_len)

    # -- subclass interface ----------------------------------------------------

    def make_plan(self, rng: random.Random, n: int) -> list[tuple]:
        """Draw ``n`` ops."""
        raise NotImplementedError

    def build(self) -> None:
        """Build the system and run the warm phase."""
        raise NotImplementedError

    def run_op(self, op: tuple) -> bool:
        raise NotImplementedError

    @property
    def machines(self) -> list[Machine]:
        raise NotImplementedError

    def totals(self) -> dict:
        """Message/transfer totals folded into the simulated digest."""
        raise NotImplementedError

    def quiesce(self) -> None:
        """Stop daemons and release cached state before the audits."""

    def teardown(self) -> None:
        """Exit every task the workload spawned."""

    # -- shared ------------------------------------------------------------------

    @property
    def clock(self):
        return self.machines[0].kernel.clock

    def op(self, i: int) -> bool:
        return self.run_op(self.plan[i % self.plan_len])

    def audit(self, when: str) -> list[str]:
        """Run the three audits on every machine; returns the problems."""
        problems = []
        for m in self.machines:
            leaks = audit_pin_leaks(m.kernel, m.agent)
            if leaks:
                problems.append(f"{when} {m.name}: {len(leaks)} leaked "
                                f"pins, first {leaks[0]}")
            stale = audit_tpt_consistency(m.agent)
            if stale:
                problems.append(f"{when} {m.name}: {len(stale)} stale TPT "
                                f"entries, first {stale[0]}")
            try:
                audit_kernel_invariants(m.kernel)
            except ReproError as exc:
                problems.append(f"{when} {m.name}: {exc}")
        return problems

    def finish(self) -> list[str]:
        """Quiesce, audit, tear down, audit again."""
        self.quiesce()
        problems = self.audit("quiesced")
        self.teardown()
        return problems + self.audit("torn down")

    def counters(self) -> dict[str, int]:
        """Public per-layer counters summed over the machines."""
        out = {"tpt.cache_hits": 0, "tpt.cache_misses": 0,
               "dma.bytes": 0, "dma.bursts": 0,
               "swap.writes": 0, "swap.reads": 0,
               "nic.retransmits": 0}
        for m in self.machines:
            tpt = m.nic.tpt
            out["tpt.cache_hits"] += tpt.cache_hits
            out["tpt.cache_misses"] += tpt.cache_misses
            for dma in (m.nic.dma, m.kernel.dma):
                out["dma.bytes"] += dma.bytes_read + dma.bytes_written
                out["dma.bursts"] += dma.bursts_issued
            out["swap.writes"] += m.kernel.swap.writes
            out["swap.reads"] += m.kernel.swap.reads
            out["nic.retransmits"] += m.nic.retransmits
        out["fabric.packets"] = self.machines[0].fabric.packets_sent
        return out


class ZerocopyStream(Workload):
    """Rendezvous zero-copy transfers through an undersized regcache.

    Two kiobuf machines, one endpoint pair, 8 x 1 MiB buffer slots per
    side and a 1024-page registration budget per side (half the pool),
    so cache hits mix with miss -> evict -> re-register.  Each op picks
    a seeded source and destination slot and a size from {4K, 16K,
    64K, 256K, 1M} (every size once per five ops, in seeded order); the
    size is trimmed by a seeded 0-255 byte tail so each seed's
    simulated-time distribution is its own.  A fresh stamp at the head
    and tail of the source span makes a stale delivery visible to the
    protocol's payload compare.
    """

    name = "zerocopy_stream"
    sim_window = 4000
    plan_len = 32768
    SIZES = (4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, MIB)
    SLOTS = 8
    SLOT_BYTES = MIB
    CACHE_PAGES = 1024
    warm_ops = 64

    def make_plan(self, rng: random.Random, n: int) -> list[tuple]:
        return [(rng.randrange(self.SLOTS), rng.randrange(self.SLOTS),
                 size - rng.randrange(256),
                 rng.getrandbits(64).to_bytes(8, "little"))
                for size in deck(rng, self.SIZES, n)]

    def build(self) -> None:
        pool_pages = self.SLOTS * self.SLOT_BYTES // PAGE_SIZE
        self.cluster = Cluster(2, num_frames=pool_pages + 512,
                               backend="kiobuf", seed=self.seed)
        self.sender, self.receiver = make_pair(
            self.cluster, cache_max_pages=self.CACHE_PAGES)
        self.src = self.sender.task.mmap(pool_pages, name="pool")
        self.sender.task.touch_pages(self.src, pool_pages)
        self.dst = self.receiver.task.mmap(pool_pages, name="pool")
        self.receiver.task.touch_pages(self.dst, pool_pages)
        self.protocol = RendezvousZeroCopyProtocol(use_cache=True)
        self.transfers = self.control_messages = self.copy_bytes = 0
        self.degraded = 0
        for op in self.warm_plan:
            if not self.run_op(op):
                raise RuntimeError("zerocopy_stream warm-up transfer failed")

    @property
    def machines(self) -> list[Machine]:
        return self.cluster.machines

    def run_op(self, op: tuple) -> bool:
        src_slot, dst_slot, size, stamp = op
        src_va = self.src + src_slot * self.SLOT_BYTES
        dst_va = self.dst + dst_slot * self.SLOT_BYTES
        task = self.sender.task
        task.write(src_va, stamp)
        task.write(src_va + size - len(stamp), stamp)
        result = self.protocol.transfer(self.sender, self.receiver,
                                        src_va, dst_va, size)
        self.transfers += 1
        self.control_messages += result.control_messages
        self.copy_bytes += result.copies_bytes
        self.degraded += result.degraded
        return result.ok

    def caches(self):
        return (self.sender.cache, self.receiver.cache)

    def totals(self) -> dict:
        return {"transfers": self.transfers,
                "control_messages": self.control_messages,
                "copy_bytes": self.copy_bytes, "degraded": self.degraded,
                "cache_hits": sum(c.stats.hits for c in self.caches()),
                "cache_misses": sum(c.stats.misses for c in self.caches()),
                "packets": self.cluster.fabric.packets_sent}

    def counters(self) -> dict[str, int]:
        out = super().counters()
        out["msg.transfers"] = self.transfers
        out["msg.control_messages"] = self.control_messages
        out["msg.copy_bytes"] = self.copy_bytes
        out["msg.degraded"] = self.degraded
        out["regcache.hits"] = sum(c.stats.hits for c in self.caches())
        out["regcache.misses"] = sum(c.stats.misses for c in self.caches())
        out["regcache.evictions"] = sum(c.stats.evictions
                                        for c in self.caches())
        return out

    def quiesce(self) -> None:
        for cache in self.caches():
            cache.flush()

    def teardown(self) -> None:
        self.sender.task.exit()
        self.receiver.task.exit()


class _Tenant:
    """One soak tenant: a task per machine, a connected VI pair with a
    CQ on each side, and ``batch`` one-page buffers registered per side
    and reused every op (the E18 shape)."""

    def __init__(self, cluster: Cluster, index: int, batch: int) -> None:
        sender = cluster[0].spawn(f"tenant{index}.s")
        receiver = cluster[1].spawn(f"tenant{index}.r")
        self.ua_s = cluster[0].user_agent(sender)
        self.ua_r = cluster[1].user_agent(receiver)
        self.send_cq = self.ua_s.create_cq()
        self.recv_cq = self.ua_r.create_cq()
        self.vi_s = self.ua_s.create_vi(send_cq=self.send_cq)
        self.vi_r = self.ua_r.create_vi(recv_cq=self.recv_cq)
        cluster.connect(self.vi_s, cluster[0], self.vi_r, cluster[1])
        self.recv_regs = []
        self.send_bufs = []
        for i in range(batch):
            va = self.ua_r.task.mmap(1)
            self.recv_regs.append(self.ua_r.register_mem(va, PAGE_SIZE))
            va = self.ua_s.task.mmap(1)
            reg = self.ua_s.register_mem(va, PAGE_SIZE)
            self.ua_s.task.write(va, bytes([(index + i) % 251]) * PAGE_SIZE)
            self.send_bufs.append((reg, va))

    def batch(self, lengths: tuple[int, ...]) -> bool:
        """Post one receive and one send batch, drain both CQs; True iff
        every descriptor completed successfully with its full length."""
        rdescs = [Descriptor.recv([self.ua_r.segment(reg)])
                  for reg in self.recv_regs]
        sdescs = [Descriptor.send([DataSegment(reg.handle, va, n)])
                  for (reg, va), n in zip(self.send_bufs, lengths)]
        self.ua_r.post_recv_many(self.vi_r, rdescs)
        self.ua_s.post_send_many(self.vi_s, sdescs)
        recvd = self.recv_cq.drain_batch()
        sent = self.send_cq.drain_batch()
        if len(recvd) != len(rdescs) or len(sent) != len(sdescs):
            return False
        for comp, n in zip(recvd, lengths):
            desc = comp.descriptor
            if desc.status != VIP_SUCCESS or desc.length_transferred != n:
                return False
        return all(c.descriptor.status == VIP_SUCCESS for c in sent)

    def exit(self) -> None:
        self.ua_s.task.exit()
        self.ua_r.task.exit()


class ClusterSoak(Workload):
    """The E18 "events" soak: 2 machines, 8 tenants, 16-send batches,
    an orphan reaper per machine every 50 us and a cluster invariant
    watchdog every 20 us of simulated time.

    One op is one tenant batch; each round of 8 ops visits the tenants
    in a seeded order.  Message lengths are seeded in 192-320 bytes
    (mean 256, the E18 payload) so each seed's simulated-time
    distribution is its own.
    """

    name = "cluster_soak"
    sim_window = 400
    plan_len = 4096
    TENANTS = 8
    BATCH = 16
    FRAMES = 8192
    REAPER_NS = 50_000
    WATCHDOG_NS = 20_000
    WARM_ROUNDS = 2

    def make_plan(self, rng: random.Random, n: int) -> list[tuple]:
        return [(tenant, tuple(rng.randint(192, 320)
                               for _ in range(self.BATCH)))
                for tenant in deck(rng, range(self.TENANTS), n)]

    def build(self) -> None:
        self.cluster = Cluster(2, num_frames=self.FRAMES, backend="kiobuf",
                               seed=self.seed)
        self.reapers = self.cluster.start_reapers(interval_ns=self.REAPER_NS)
        self.watchdog = self.cluster.arm_watchdog(
            interval_ns=self.WATCHDOG_NS)
        self.tenants = [_Tenant(self.cluster, i, self.BATCH)
                        for i in range(self.TENANTS)]
        self.messages = 0
        warm = [256] * self.BATCH
        for _ in range(self.WARM_ROUNDS):
            for tenant in self.tenants:
                if not tenant.batch(tuple(warm)):
                    raise RuntimeError("cluster_soak warm-up batch failed")

    @property
    def machines(self) -> list[Machine]:
        return self.cluster.machines

    def run_op(self, op: tuple) -> bool:
        tenant, lengths = op
        ok = self.tenants[tenant].batch(lengths)
        self.messages += len(lengths)
        return ok

    def totals(self) -> dict:
        return {"messages": self.messages,
                "packets": self.cluster.fabric.packets_sent,
                "watchdog_checks": self.watchdog.checks_run,
                "reaper_scans": sum(r.scans for r in self.reapers)}

    def counters(self) -> dict[str, int]:
        out = super().counters()
        out["watchdog.checks"] = self.watchdog.checks_run
        out["reaper.scans"] = sum(r.scans for r in self.reapers)
        return out

    def quiesce(self) -> None:
        self.watchdog.disarm()
        for reaper in self.reapers:
            reaper.stop()

    def teardown(self) -> None:
        for tenant in self.tenants:
            tenant.exit()


class SwapPressure(Workload):
    """The paper's Sec. 3.1 setting as a steady loop.

    One 1024-frame kiobuf machine; an app task holds a 256-page working
    set, a hog task maps twice the RAM.  Each op registers a seeded
    8-64 page slice of the working set (every length once per 57 ops), lets the hog stream its next 64
    pages (forcing reclaim and swap while the slice is registered), DMAs
    a stamp through the NIC's translation of one registered page, reads
    it back through the app's page table, checks the registration's
    frames against the app's current mapping, and deregisters.
    """

    name = "swap_pressure"
    sim_window = 300
    plan_len = 4096
    FRAMES = 1024
    WORKING_SET = 256
    HOG_STREAM = 64

    def make_plan(self, rng: random.Random, n: int) -> list[tuple]:
        return [(rng.randrange(self.WORKING_SET - npages + 1), npages,
                 rng.randrange(npages), rng.randrange(PAGE_SIZE - 64),
                 rng.getrandbits(256).to_bytes(32, "little"))
                for npages in deck(rng, range(8, 65), n)]

    def build(self) -> None:
        self.machine = Machine(num_frames=self.FRAMES, backend="kiobuf",
                               seed=self.seed)
        app = self.machine.spawn("app")
        self.app = self.machine.user_agent(app)
        self.ws = app.mmap(self.WORKING_SET, name="working-set")
        app.touch_pages(self.ws, self.WORKING_SET)
        self.hog = self.machine.spawn("hog")
        self.hog_pages = 2 * self.FRAMES
        self.hog_va = self.hog.mmap(self.hog_pages, name="hog")
        self.hog_cursor = 0
        self.cycles = 0
        # Warm: stream the hog through more than all of RAM, so reclaim
        # and swap are in steady state before timing starts.
        for _ in range(self.FRAMES // self.HOG_STREAM + 2):
            self._stream_hog()

    def _stream_hog(self) -> None:
        for _ in range(self.HOG_STREAM):
            self.hog.write(self.hog_va + self.hog_cursor * PAGE_SIZE,
                           self.hog_cursor.to_bytes(4, "little"))
            self.hog_cursor = (self.hog_cursor + 1) % self.hog_pages

    @property
    def machines(self) -> list[Machine]:
        return [self.machine]

    def run_op(self, op: tuple) -> bool:
        first, npages, stamp_page, offset, stamp = op
        ua = self.app
        va = self.ws + first * PAGE_SIZE
        reg = ua.register_mem(va, npages * PAGE_SIZE)
        try:
            self._stream_hog()
            target = va + stamp_page * PAGE_SIZE + offset
            nic = self.machine.nic
            segs = nic.tpt.translate(reg.handle, target, len(stamp),
                                     reg.region.prot_tag)
            nic.dma.write_scatter(segs, stamp)
            seen = ua.task.read(target, len(stamp))
            frames = ua.task.physical_pages(va, npages)
            ok = seen == stamp and frames == list(reg.region.frames)
        finally:
            ua.deregister_mem(reg)
        self.cycles += 1
        return ok

    def totals(self) -> dict:
        kernel = self.machine.kernel
        return {"cycles": self.cycles, "swap_writes": kernel.swap.writes,
                "swap_reads": kernel.swap.reads,
                "major_faults": self.app.task.major_faults
                + self.hog.major_faults}

    def teardown(self) -> None:
        self.hog.exit()
        self.app.task.exit()


WORKLOADS = {cls.name: cls for cls in (ZerocopyStream, ClusterSoak,
                                       SwapPressure)}
