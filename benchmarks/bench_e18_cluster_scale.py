"""E18 — simulator core scale-out.

PR 7 rebuilt the simulator core around three mechanisms: the SimClock
event calendar (daemons ride a lazy min-heap instead of fanning out on
every charge), the vectorized frame table (columnar counters plus
incremental pinned/orphan index sets, so audits stop walking the whole
table), and the batched NIC fast path (``post_*_many`` amortizes the
doorbell/fetch charges; ``drain_batch`` empties a CQ in one call).

This experiment measures what they buy on a soak-shaped cluster: two
machines, ``TENANTS`` tenants each running a connected VI pair, with an
orphan reaper per machine and one cluster watchdog sampling invariants
on a short cadence.

Asserted gates, absolute since the per-charge / full-scan /
one-at-a-time legacy arm was retired (its figures are in
EXPERIMENTS.md):

1. whole-cluster throughput (messages/sec of host time) of at least
   :data:`OPS_PER_SEC_FLOOR`, 3x the retired arm;
2. host seconds burned per simulated second of at most
   :data:`HOST_S_PER_SIM_S_CEILING`, the retired arm's figure;
3. the run is honest — the watchdog and the reapers sample at (nearly)
   their full cadence, so the throughput comes from mechanism, not
   from skipped work.
"""

import os
import time

import pytest

from repro.bench.harness import print_table, record
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.reaper import OrphanReaper
from repro.via.descriptor import DataSegment, Descriptor
from repro.via.machine import Cluster

TENANTS = int(os.environ.get("REPRO_E18_TENANTS", "8"))
ROUNDS = int(os.environ.get("REPRO_E18_ROUNDS", "30"))
BATCH = int(os.environ.get("REPRO_E18_BATCH", "16"))
FRAMES = int(os.environ.get("REPRO_E18_FRAMES", "8192"))
TIMING_ROUNDS = int(os.environ.get("REPRO_E18_TIMING_ROUNDS", "3"))
PAYLOAD = 256                 #: bytes per message
REAPER_NS = 50_000            #: reaper cadence (short: soak-shaped)
WATCHDOG_NS = 20_000          #: invariant sampling cadence

#: The retired legacy arm (per-charge watchdog wiring, full-scan audits,
#: one-at-a-time posting) on a 2-vCPU shared Xeon VM at 2.1 GHz read
#: 166-199 msgs/s and 271-324 host s / sim s at the CI scale
#: (REPRO_E18_TENANTS=4, ROUNDS=10, BATCH=8, FRAMES=4096), and 71-91
#: msgs/s and 593-761 host s / sim s at full scale.  The gates take the
#: strictest of those figures and apply them at every scale.
LEGACY_OPS_PER_SEC = 198.6
LEGACY_HOST_S_PER_SIM_S = 271.1
OPS_PER_SEC_FLOOR = 3 * LEGACY_OPS_PER_SEC
HOST_S_PER_SIM_S_CEILING = LEGACY_HOST_S_PER_SIM_S
#: least share of the nominal cadence the daemons must sample at
CADENCE_SHARE = 0.9


class Tenant:
    """One tenant: a task per machine and a connected VI pair, with
    ``BATCH`` registered buffers on each side reused every round."""

    def __init__(self, cluster: Cluster, index: int):
        sender = cluster[0].spawn(f"tenant{index}.s")
        receiver = cluster[1].spawn(f"tenant{index}.r")
        self.ua_s = cluster[0].user_agent(sender)
        self.ua_r = cluster[1].user_agent(receiver)
        self.cq = self.ua_r.create_cq()
        self.vi_s = self.ua_s.create_vi()
        self.vi_r = self.ua_r.create_vi(recv_cq=self.cq)
        cluster.connect(self.vi_s, cluster[0], self.vi_r, cluster[1])
        self.recv_regs = []
        for _ in range(BATCH):
            va = self.ua_r.task.mmap(1)
            self.recv_regs.append(self.ua_r.register_mem(va, PAGE_SIZE))
        self.send_bufs = []
        for i in range(BATCH):
            va = self.ua_s.task.mmap(1)
            reg = self.ua_s.register_mem(va, PAGE_SIZE)
            self.ua_s.task.write(va, bytes([index % 251]) * PAYLOAD)
            self.send_bufs.append((reg, va))

    def _descriptors(self):
        rdescs = [Descriptor.recv([self.ua_r.segment(reg)])
                  for reg in self.recv_regs]
        sdescs = [Descriptor.send([DataSegment(reg.handle, va, PAYLOAD)])
                  for reg, va in self.send_bufs]
        return rdescs, sdescs

    def round_batched(self) -> int:
        """One round: batch-post, batch-drain."""
        rdescs, sdescs = self._descriptors()
        self.ua_r.post_recv_many(self.vi_r, rdescs)
        self.ua_s.post_send_many(self.vi_s, sdescs)
        comps = self.cq.drain_batch()
        assert len(comps) == BATCH
        return BATCH


def run_soak() -> dict:
    """Build the cluster, run the soak, return its metrics."""
    cluster = Cluster(2, num_frames=FRAMES, backend="kiobuf")
    reapers = [OrphanReaper(m.kernel, agents=[m.agent],
                            interval_ns=REAPER_NS)
               for m in cluster.machines]
    for reaper in reapers:
        reaper.start()
    watchdog = cluster.arm_watchdog(interval_ns=WATCHDOG_NS)
    tenants = [Tenant(cluster, i) for i in range(TENANTS)]

    def soak() -> int:
        ops = 0
        for _ in range(ROUNDS):
            for tenant in tenants:
                ops += tenant.round_batched()
        return ops

    soak()                                   # warm caches and code paths
    sim0 = cluster.clock.now_ns
    checks0, scans0 = watchdog.checks_run, sum(r.scans for r in reapers)
    best = float("inf")
    ops = 0
    for _ in range(TIMING_ROUNDS):
        t0 = time.perf_counter()
        ops = soak()
        best = min(best, time.perf_counter() - t0)
    sim_s = (cluster.clock.now_ns - sim0) / 1e9 / TIMING_ROUNDS
    result = {
        "machines": len(cluster.machines),
        "ops_per_sec": ops / best,
        "host_s_per_sim_s": best / sim_s,
        "sim_s": sim_s,
        "watchdog_checks": (watchdog.checks_run - checks0) / TIMING_ROUNDS,
        "reaper_scans": (sum(r.scans for r in reapers) - scans0)
        / TIMING_ROUNDS,
    }
    watchdog.disarm()
    for reaper in reapers:
        reaper.stop()
    return result


@pytest.fixture(scope="module")
def soak():
    return run_soak()


def test_e18_cluster_ops_floor(soak, report):
    """The headline gate: whole-cluster messages/sec of host time."""
    if report("E18: simulator core scale-out"):
        print_table(
            f"E18a — {TENANTS}-tenant soak, {ROUNDS}x{BATCH} msgs/tenant, "
            f"{FRAMES} frames",
            ["msgs/s (host)", "floor", "host s / sim s", "ceiling",
             "watchdog checks", "reaper scans"],
            [[soak["ops_per_sec"], OPS_PER_SEC_FLOOR,
              soak["host_s_per_sim_s"], HOST_S_PER_SIM_S_CEILING,
              soak["watchdog_checks"], soak["reaper_scans"]]])
    record("metrics", "E18 cluster scale-out",
           tenants=TENANTS, rounds=ROUNDS, batch=BATCH, frames=FRAMES,
           ops_per_sec=soak["ops_per_sec"],
           ops_per_sec_floor=OPS_PER_SEC_FLOOR,
           host_s_per_sim_s=soak["host_s_per_sim_s"],
           host_s_per_sim_s_ceiling=HOST_S_PER_SIM_S_CEILING)
    assert soak["ops_per_sec"] >= OPS_PER_SEC_FLOOR, (
        f"calendar + vectorized + batched core must deliver >= "
        f"{OPS_PER_SEC_FLOOR:.0f} cluster msgs/s "
        f"(got {soak['ops_per_sec']:.1f})")


def test_e18_host_time_per_sim_second(soak):
    """The simulator must burn no more host seconds per simulated
    second than the retired legacy arm did."""
    assert soak["host_s_per_sim_s"] <= HOST_S_PER_SIM_S_CEILING


def test_e18_daemons_sample_at_full_cadence(soak):
    """Honesty check: the throughput must not come from skipped
    samples.  The cluster watchdog checks every machine once per
    interval and each machine's reaper scans once per interval, so over
    ``sim_s`` they owe ``machines * sim_s / interval`` samples each;
    fire-once catch-up may drop a few."""
    sim_ns = soak["sim_s"] * 1e9
    for key, interval_ns in (("watchdog_checks", WATCHDOG_NS),
                             ("reaper_scans", REAPER_NS)):
        nominal = soak["machines"] * sim_ns / interval_ns
        assert soak[key] >= CADENCE_SHARE * nominal, (
            f"{key}: {soak[key]:.0f} samples, nominal {nominal:.0f}")


def test_e18_batched_soak_round(benchmark):
    """Host time of one tenant round on the new batched path."""
    cluster = Cluster(2, num_frames=FRAMES, backend="kiobuf")
    cluster.start_reapers(interval_ns=REAPER_NS)
    cluster.arm_watchdog(interval_ns=WATCHDOG_NS)
    tenant = Tenant(cluster, 0)
    tenant.round_batched()           # warm
    benchmark(tenant.round_batched)
