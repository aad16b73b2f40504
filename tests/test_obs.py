"""Tests for the observability layer (repro.obs).

Covers the metric primitives, the span recorder's nesting and exports,
the facade's enabled/disabled gating, and end-to-end snapshots of an
instrumented workload (including determinism under a fixed seed).
"""

import json

import pytest

from repro.msg.endpoint import make_pair
from repro.msg.protocols import RendezvousZeroCopyProtocol
from repro.obs import Observability
from repro.obs.metrics import (
    Counter, Gauge, Histogram, MetricsRegistry, NS_BUCKETS, SIZE_BUCKETS,
)
from repro.obs.spans import SpanRecorder
from repro.sim.clock import SimClock
from repro.via.machine import Cluster


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.snapshot() == 5

    def test_negative_increment_rejected(self):
        c = Counter("x")
        with pytest.raises(ValueError, match="negative"):
            c.inc(-1)

    def test_reset(self):
        c = Counter("x")
        c.inc(3)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_tracks_extremes(self):
        g = Gauge("depth")
        g.set(5)
        g.set(2)
        g.set(9)
        assert g.snapshot() == {"value": 9, "max": 9, "min": 2}

    def test_inc_dec(self):
        g = Gauge("depth")
        g.inc(3)
        g.dec(1)
        assert g.value == 2
        assert g.max_value == 3

    def test_reset(self):
        g = Gauge("depth")
        g.set(7)
        g.reset()
        assert g.snapshot() == {"value": 0, "max": None, "min": None}


class TestHistogram:
    def test_observe_buckets_by_upper_bound(self):
        h = Histogram("lat", buckets=(10, 100, 1000))
        for v in (5, 10, 11, 5000):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"] == {"le_10": 2, "le_100": 1,
                                   "le_1000": 0, "inf": 1}
        assert snap["min"] == 5 and snap["max"] == 5000
        assert snap["mean"] == pytest.approx((5 + 10 + 11 + 5000) / 4)

    def test_quantile(self):
        h = Histogram("lat", buckets=(10, 100, 1000))
        for v in (1, 2, 3, 50, 5000):
            h.observe(v)
        assert h.quantile(0.5) == 10       # 3rd of 5 lands in le_10
        assert h.quantile(1.0) == float("inf")
        assert Histogram("e").quantile(0.5) is None
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_non_ascending_buckets_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("bad", buckets=(10, 5))

    def test_default_bucket_tables_are_ascending(self):
        assert list(NS_BUCKETS) == sorted(NS_BUCKETS)
        assert list(SIZE_BUCKETS) == sorted(SIZE_BUCKETS)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already exists as counter"):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_snapshot_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc()
        reg.counter("a.first").inc(2)
        assert list(reg.snapshot()) == ["a.first", "z.last"]

    def test_contains_len_get(self):
        reg = MetricsRegistry()
        reg.gauge("g")
        assert "g" in reg and "h" not in reg
        assert len(reg) == 1
        assert reg.get("g").kind == "gauge"
        assert reg.get("h") is None

    def test_reset_keeps_names(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(9)
        reg.reset()
        assert reg.counter("c").value == 0
        assert "c" in reg


class TestSpanRecorder:
    def make(self):
        clock = SimClock()
        return clock, SpanRecorder(clock)

    def test_span_records_sim_elapsed(self):
        clock, rec = self.make()
        with rec.span("work"):
            clock.charge(500)
        (s,) = rec.of_name("work")
        assert s.duration_ns == 500
        assert s.depth == 0 and s.parent is None

    def test_nesting_depth_and_parent(self):
        clock, rec = self.make()
        with rec.span("outer"):
            clock.charge(10)
            with rec.span("inner"):
                clock.charge(5)
        (inner,) = rec.of_name("inner")
        (outer,) = rec.of_name("outer")
        assert inner.depth == 1
        assert inner.parent == outer.index
        assert outer.duration_ns == 15
        assert rec.open_depth == 0

    def test_mismatched_exit_unwinds_children(self):
        clock, rec = self.make()
        outer = rec.enter("outer")
        rec.enter("inner")
        rec.exit(outer)            # closes inner too
        assert rec.open_depth == 0
        assert len(rec.of_name("inner")) == 1
        with pytest.raises(ValueError, match="not open"):
            rec.exit(outer)

    def test_ring_eviction_counts_dropped(self):
        clock = SimClock()
        rec = SpanRecorder(clock, maxlen=4)
        for _ in range(6):
            with rec.span("s"):
                clock.charge(1)
        assert len(rec) == 4
        assert rec.dropped == 2
        assert rec.summary()["dropped"] == 2

    def test_summary_aggregates_per_name(self):
        clock, rec = self.make()
        for ns in (100, 300):
            with rec.span("a"):
                clock.charge(ns)
        with rec.span("b"):
            clock.charge(50)
        summary = rec.summary()
        assert summary["by_name"]["a"] == {
            "count": 2, "total_ns": 400, "mean_ns": 200.0}
        assert list(summary["by_name"]) == ["a", "b"]

    def test_chrome_export_round_trips(self):
        clock, rec = self.make()
        with rec.span("xfer", nbytes=4096):
            clock.charge(2000)
        doc = json.loads(json.dumps(rec.to_chrome()))
        (ev,) = doc["traceEvents"]
        assert ev["name"] == "xfer" and ev["ph"] == "X"
        assert ev["ts"] == 0.0 and ev["dur"] == 2.0   # µs
        assert ev["args"] == {"nbytes": 4096, "depth": 0}

    def test_jsonl_export_one_object_per_line(self):
        clock, rec = self.make()
        with rec.span("a"):
            clock.charge(1)
        with rec.span("b"):
            clock.charge(2)
        lines = rec.to_jsonl().splitlines()
        assert [json.loads(li)["name"] for li in lines] == ["a", "b"]


class TestObservabilityFacade:
    def make(self):
        clock = SimClock()
        return clock, Observability(clock)

    def test_disabled_by_default_and_emits_nothing(self):
        _, obs = self.make()
        assert not obs.enabled
        obs.inc("c")
        obs.set_gauge("g", 1)
        obs.observe("h", 5)
        with obs.span("s"):
            pass
        assert len(obs.metrics) == 0
        assert len(obs.spans) == 0

    def test_disabled_span_is_shared_noop(self):
        from repro.obs import _NULL_SPAN
        _, obs = self.make()
        assert obs.span("a") is obs.span("b") is _NULL_SPAN

    def test_enable_disable_chain(self):
        _, obs = self.make()
        assert obs.enable() is obs
        obs.inc("c", 2)
        assert obs.disable() is obs
        obs.inc("c", 100)                       # ignored
        assert obs.counter("c").value == 2      # accumulations survive

    def test_reset_drops_everything(self):
        clock, obs = self.make()
        obs.enable()
        obs.inc("c")
        with obs.span("s"):
            clock.charge(1)
        obs.reset()
        assert obs.counter("c").value == 0
        assert len(obs.spans) == 0

    def test_snapshot_shape(self):
        clock, obs = self.make()
        obs.enable()
        obs.inc("a.count", 3)
        obs.set_gauge("a.depth", 2)
        obs.observe("a.lat", 150)
        with obs.span("a.work"):
            clock.charge(42)
        snap = obs.snapshot()
        assert snap["enabled"] is True
        assert snap["now_ns"] == clock.now_ns
        assert snap["metrics"]["a.count"] == 3
        assert snap["metrics"]["a.depth"]["value"] == 2
        assert snap["metrics"]["a.lat"]["count"] == 1
        assert snap["spans"]["by_name"]["a.work"]["total_ns"] == 42
        json.dumps(snap)                        # JSON-safe throughout


def run_workload(seed: int) -> dict:
    """One seeded two-machine transfer workload, observability on."""
    cluster = Cluster(2, num_frames=1024, backend="kiobuf", seed=seed)
    cluster.obs.enable()
    s, r = make_pair(cluster)
    src = s.task.mmap(8)
    s.task.touch_pages(src, 8)
    dst = r.task.mmap(8)
    r.task.touch_pages(dst, 8)
    s.task.write(src, b"\x5a" * 8192)
    proto = RendezvousZeroCopyProtocol(use_cache=True)
    for _ in range(4):
        assert proto.transfer(s, r, src, dst, 8192).ok
    return cluster.obs.snapshot()


class TestRegcacheMetrics:
    def test_cluster_metrics_sum_over_every_cache(self):
        # Two endpoints' caches share the cluster's registry; their
        # counters must add up, not overwrite each other.
        cluster = Cluster(2, num_frames=1024, backend="kiobuf", seed=0)
        cluster.obs.enable()
        s, r = make_pair(cluster)
        src_a = s.task.mmap(2)
        s.task.touch_pages(src_a, 2)
        src_b = s.task.mmap(2)
        s.task.touch_pages(src_b, 2)
        dst = r.task.mmap(2)
        r.task.touch_pages(dst, 2)
        proto = RendezvousZeroCopyProtocol(use_cache=True)
        for src in (src_a, src_a, src_b, src_b, src_b):
            assert proto.transfer(s, r, src, dst, 8192).ok
        caches = (s.cache, r.cache)
        assert s.cache.stats.hits != r.cache.stats.hits

        metrics = cluster.obs.snapshot()["metrics"]
        hits = sum(c.stats.hits for c in caches)
        misses = sum(c.stats.misses for c in caches)
        assert metrics["core.regcache.hits"] == hits
        assert metrics["core.regcache.misses"] == misses
        assert metrics["core.regcache.hit_rate"]["value"] == \
            hits / (hits + misses)
        assert metrics["core.regcache.cached_pages"]["value"] == sum(
            c.cached_pages for c in caches)


class TestEndToEnd:
    def test_instrumented_workload_populates_metrics(self):
        snap = run_workload(seed=0)
        metrics = snap["metrics"]
        assert metrics["via.nic.completions.send"] > 0
        assert metrics["via.nic.doorbell_to_completion_ns"]["count"] > 0
        assert metrics["hw.dma.bursts"] > 0
        assert metrics["msg.transfers.rendezvous-zerocopy+cache"] == 4
        assert metrics["core.regcache.hit_rate"]["value"] > 0
        assert snap["spans"]["by_name"][
            "msg.transfer.rendezvous-zerocopy+cache"]["count"] == 4

    @pytest.mark.san_suppress   # suite gauges differ between the runs
    def test_snapshot_deterministic_under_fixed_seed(self):
        a = run_workload(seed=7)
        b = run_workload(seed=7)
        assert json.dumps(a, sort_keys=True) == \
            json.dumps(b, sort_keys=True)

    def test_cluster_shares_one_observability(self):
        cluster = Cluster(2)
        assert cluster[0].obs is cluster[1].obs is cluster.obs

    def test_watchdog_violation_carries_metrics_snapshot(self):
        """core.audit attaches the full observability snapshot to every
        InvariantViolation."""
        from repro.core.audit import InvariantWatchdog
        from repro.errors import InvariantViolation
        from repro.via.machine import Machine
        m = Machine()
        m.obs.enable()
        m.kernel.obs.inc("test.marker", 9)
        watchdog = InvariantWatchdog().arm(m)
        t = m.spawn("victim")
        va = t.mmap(1)
        t.touch_pages(va, 1)
        # Corrupt accounting on purpose: pin a frame, then free it.
        pte = t.page_table.lookup(va // 4096)
        m.kernel.pagemap.page(pte.frame).pin_count += 1
        with pytest.raises(InvariantViolation) as exc_info:
            watchdog.check()
        snap = exc_info.value.snapshot["metrics"]
        assert snap["metrics"]["test.marker"] == 9
        watchdog.disarm()
