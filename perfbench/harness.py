"""One benchmark run: set up, time a closed loop of ops, check, report.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs the same plan untraced for half the time and traced
for the other half, and reports the per-layer metrics of the traced
half plus the tracing overhead.  Both modes compute the same simulated
digest over the first ``sim_window`` ops, so it also proves that the
tracing did not perturb the simulation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter_ns

from perfbench.tracing import (
    BOUNDARIES, FIRING, SpanRecorder, instrument, layer_of,
)
from perfbench.workloads import Workload

#: end-to-end metric -> unit (BENCHMARK.json lists the same)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "host_us_p50": "us",
    "host_us_p95": "us",
    "host_s_per_sim_s": "s/s",
    "sim_us_p50": "us",
    "sim_us_p95": "us",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: every SimClock category charged under src/ -> the layer it folds into
CATEGORY_LAYER = {
    "dma": "hw", "disk_io": "hw",
    "syscall": "kernel", "mm": "kernel", "fault": "kernel",
    "cpu_copy": "kernel", "kiobuf": "kernel", "mlock": "kernel",
    "reclaim": "kernel", "fork": "kernel", "rawio": "kernel",
    "via_cpu": "via", "via_nic": "via", "via_setup": "via",
    "register": "via", "wire": "via", "retransmit": "via",
    "atomic_wait": "via", "admission_wait": "via", "odp": "via",
    "pio": "msg",
    "reaper": "daemons",
    "dlm_step": "workloads", "dlm_hold": "workloads",
    "dlm_backoff": "workloads", "dlm_quiesce": "workloads",
    "soak_idle": "workloads", "soak_quiesce": "workloads",
    "scenario": "analysis",
}
SIM_LAYERS = sorted(set(CATEGORY_LAYER.values()))

#: host-time layers of the traced run (``share.<layer>``)
HOST_LAYERS = sorted({layer_of(name) for *_, name in BOUNDARIES}
                     | {layer_of(FIRING)})

#: per-layer metric -> unit (BENCHMARK.json lists the same)
PER_LAYER = {
    "msg.transfer.self_us_per_op": "us",
    "msg.control_messages_per_op": "count",
    "msg.copy_bytes_per_op": "B",
    "msg.degraded_per_op": "count",
    "core.regcache.hit_ratio": "ratio",
    "core.regcache.evictions_per_op": "count",
    "core.regcache.self_us_per_op": "us",
    "via.register.calls_per_op": "count",
    "via.register.self_us_per_op": "us",
    "via.deregister.self_us_per_op": "us",
    "kernel.kiobuf.self_us_per_op": "us",
    "via.post.self_us_per_op": "us",
    "via.cq.self_us_per_op": "us",
    "via.deliver.self_us_per_op": "us",
    "via.tpt.translate_self_us_per_op": "us",
    "via.tpt.cache_hit_ratio": "ratio",
    "via.fabric.packets_per_op": "count",
    "via.fabric.payload_bytes_per_op": "B",
    "via.fabric.self_us_per_op": "us",
    "via.fabric.retransmits_per_op": "count",
    "hw.dma.bytes_per_op": "B",
    "hw.dma.bursts_per_op": "count",
    "hw.dma.self_us_per_op": "us",
    "hw.swap.writes_per_op": "count",
    "hw.swap.reads_per_op": "count",
    "kernel.reclaim.calls_per_op": "count",
    "kernel.reclaim.self_us_per_op": "us",
    "kernel.swap_out.self_us_per_op": "us",
    "kernel.user_access.self_us_per_op": "us",
    "core.watchdog.checks_per_op": "count",
    "core.watchdog.self_us_per_op": "us",
    "kernel.reaper.scans_per_op": "count",
    "kernel.reaper.self_us_per_op": "us",
    "sim.calendar.firings_per_op": "count",
    "sim.calendar.self_us_per_op": "us",
    "sim.trace.emits_per_op": "count",
    "sim.trace.self_us_per_op": "us",
    "trace.spans_per_op": "count",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER.update({f"sim_ns.{c}_per_op": "ns" for c in sorted(CATEGORY_LAYER)})
PER_LAYER.update({f"sim_ns.{layer}_per_op": "ns" for layer in SIM_LAYERS})
PER_LAYER.update({f"share.{layer}": "ratio"
                  for layer in HOST_LAYERS + ["unattributed"]})

#: fewest ops in each half of a traced run
TRACE_MIN_OPS = 20
#: environment switches that arm the sanitizer or the race detector
ARMING_ENV = ("REPRO_SANITIZE", "REPRO_RACE")


class Refused(Exception):
    """The run cannot produce honest timings (something is armed)."""


def check_disarmed(workload: Workload) -> dict:
    """Refuse to time with the sanitizer, race detector or observability
    armed; returns the recorded state."""
    state: dict = {key: os.environ.get(key, "") for key in ARMING_ENV}
    state["obs_enabled"] = any(m.obs.enabled for m in workload.machines)
    state["events_active"] = any(m.kernel.events.active
                                 for m in workload.machines)
    armed = [key for key, value in state.items() if value]
    if armed:
        raise Refused(f"refusing to time with {', '.join(armed)} armed")
    return state


def fold_categories(categories: dict[str, int]) -> dict[str, int]:
    """Fold SimClock categories into layers; an unmapped category is an
    error, never silently dropped."""
    unmapped = sorted(set(categories) - set(CATEGORY_LAYER))
    if unmapped:
        raise KeyError(f"SimClock categories with no layer: {unmapped}")
    out = dict.fromkeys(SIM_LAYERS, 0)
    for category, ns in categories.items():
        out[CATEGORY_LAYER[category]] += ns
    return out


def percentile(values: list[int], q: int) -> float:
    """The ``q``-th percentile (1..99), interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Phase:
    """The ops of one timed loop."""

    host_ns: list[int] = field(default_factory=list)
    sim_ns: list[int] = field(default_factory=list)
    failed: int = 0
    #: (categories, totals) when the sim window completed
    window_state: tuple | None = None

    @property
    def ops(self) -> int:
        return len(self.host_ns)

    @property
    def ops_per_s(self) -> float:
        return self.ops / (sum(self.host_ns) / 1e9)


def timed_ops(workload: Workload, first: int, seconds: float,
              min_ops: int, recorder: SpanRecorder | None = None) -> Phase:
    """Run ops ``first, first+1, ...`` until ``seconds`` have passed and
    at least ``min_ops`` ran; time each op on the host and the sim clock.

    A failed check or an exception out of the program counts the op as
    failed and the loop goes on (the first traceback goes to stderr).
    """
    clock = workload.clock
    phase = Phase()
    host, sim = phase.host_ns, phase.sim_ns
    deadline = perf_counter_ns() + int(seconds * 1e9)
    i = first
    while True:
        if recorder is not None:
            recorder.op = i
        s0 = clock.now_ns
        t0 = perf_counter_ns()
        try:
            ok = workload.op(i)
        except Exception:
            if not phase.failed:
                traceback.print_exc(file=sys.stderr)
            ok = False
        t1 = perf_counter_ns()
        host.append(t1 - t0)
        sim.append(clock.now_ns - s0)
        phase.failed += not ok
        i += 1
        if i == workload.sim_window:
            phase.window_state = (clock.categories(), workload.totals())
        if t1 >= deadline and len(host) >= min_ops:
            return phase


def sim_digest(phase: Phase, window: int) -> str | None:
    """Hash of the first ``window`` ops' simulated ns, the clock's
    categories and the workload's totals at that point (None when the
    phase ran fewer ops)."""
    if phase.window_state is None:
        return None
    categories, totals = phase.window_state
    blob = json.dumps({"sim_ns": phase.sim_ns[:window],
                       "categories": categories, "totals": totals},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    info: dict

    def line(self) -> str:
        """The contract's result line."""
        units = END_TO_END if "setup_s" in self.metrics else PER_LAYER
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in self.metrics.items()}})


def build(cls: type[Workload], seed: int, tiny: bool, reps: int
          ) -> tuple[Workload, list[float]]:
    """Build (and warm) the workload ``reps`` times; keep the last."""
    times = []
    for _ in range(reps):
        workload = None     # free the previous build before the next
        gc.collect()
        t0 = perf_counter_ns()
        workload = cls(seed, tiny)
        workload.build()
        times.append((perf_counter_ns() - t0) / 1e9)
    return workload, times


def _checks(workload: Workload) -> list[str]:
    """Post-run audits plus the category fold check."""
    problems = workload.finish()
    try:
        fold_categories(workload.clock.categories())
    except KeyError as exc:
        problems.append(str(exc))
    return problems


def run(cls: type[Workload], seed: int, seconds: float, trace: bool,
        tiny: bool = False, setup_reps: int = 5,
        spans_path: str | None = None) -> Result:
    """One benchmark run of workload ``cls``."""
    workload, setup_times = build(cls, seed, tiny,
                                  1 if trace else setup_reps)
    armed = check_disarmed(workload)
    window = workload.sim_window
    gc.collect()
    gc.freeze()
    try:
        if trace:
            min_ops = min(window, TRACE_MIN_OPS)
            phase = timed_ops(workload, 0, seconds / 2, min_ops)
            recorder = SpanRecorder()
            before = _snapshot(workload)
            with instrument(recorder, [workload.clock]):
                traced = timed_ops(workload, phase.ops, seconds / 2,
                                   min_ops, recorder)
            after = _snapshot(workload)
        else:
            phase = timed_ops(workload, 0, seconds, window)
    finally:
        gc.unfreeze()
    problems = _checks(workload)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    info = {"workload": cls.name, "seed": seed, "trace": int(trace),
            "sim_digest": sim_digest(phase, window),
            "sim_window_ops": window, "armed": armed}
    if trace:
        metrics = per_layer(phase, traced, recorder, before, after)
        info.update(traced_ops=traced.ops, untraced_ops=phase.ops)
        if spans_path:
            recorder.write(spans_path)
            info["spans"] = spans_path
        phases = (phase, traced)
    else:
        metrics = end_to_end(phase, setup_times, window)
        info.update(timed_ops=phase.ops, p95_samples_beyond=int(
            phase.ops * 0.05), setup_s_samples=setup_times)
        phases = (phase,)
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    return Result(correct=not failed and not problems, attempted=attempted,
                  failed=failed, metrics=metrics, info=info)


def end_to_end(phase: Phase, setup_times: list[float], window: int
               ) -> dict[str, float]:
    host, sim_window = phase.host_ns, phase.sim_ns[:window]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": phase.ops_per_s,
        "host_us_p50": statistics.median(host) / 1e3,
        "host_us_p95": percentile(host, 95) / 1e3,
        "host_s_per_sim_s": sum(host) / sum(phase.sim_ns),
        "sim_us_p50": statistics.median(sim_window) / 1e3,
        "sim_us_p95": percentile(sim_window, 95) / 1e3,
        "ok_ratio": (phase.ops - phase.failed) / phase.ops,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _snapshot(workload: Workload) -> tuple[dict, dict]:
    return workload.counters(), workload.clock.categories()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(untraced: Phase, traced: Phase, recorder: SpanRecorder,
              before: tuple[dict, dict], after: tuple[dict, dict]
              ) -> dict[str, float]:
    n = traced.ops
    counts0, cats0 = before
    counts1, cats1 = after

    def delta(key: str) -> int:
        return counts1.get(key, 0) - counts0.get(key, 0)

    def self_us(span: str) -> float:
        return recorder.self_ns[span] / 1e3 / n

    def calls(span: str) -> float:
        return recorder.calls[span] / n

    out = {
        "msg.transfer.self_us_per_op": self_us("msg.transfer"),
        "msg.control_messages_per_op": delta("msg.control_messages") / n,
        "msg.copy_bytes_per_op": delta("msg.copy_bytes") / n,
        "msg.degraded_per_op": delta("msg.degraded") / n,
        "core.regcache.hit_ratio": _ratio(
            delta("regcache.hits"),
            delta("regcache.hits") + delta("regcache.misses")),
        "core.regcache.evictions_per_op": delta("regcache.evictions") / n,
        "core.regcache.self_us_per_op": self_us("core.regcache"),
        "via.register.calls_per_op": calls("via.register"),
        "via.register.self_us_per_op": self_us("via.register"),
        "via.deregister.self_us_per_op": self_us("via.deregister"),
        "kernel.kiobuf.self_us_per_op": self_us("kernel.kiobuf"),
        "via.post.self_us_per_op": self_us("via.post"),
        "via.cq.self_us_per_op": self_us("via.cq"),
        "via.deliver.self_us_per_op": self_us("via.deliver"),
        "via.tpt.translate_self_us_per_op": self_us("via.tpt"),
        "via.tpt.cache_hit_ratio": _ratio(
            delta("tpt.cache_hits"),
            delta("tpt.cache_hits") + delta("tpt.cache_misses")),
        "via.fabric.packets_per_op": delta("fabric.packets") / n,
        "via.fabric.payload_bytes_per_op": recorder.fabric_bytes / n,
        "via.fabric.self_us_per_op": self_us("via.fabric"),
        "via.fabric.retransmits_per_op": delta("nic.retransmits") / n,
        "hw.dma.bytes_per_op": delta("dma.bytes") / n,
        "hw.dma.bursts_per_op": delta("dma.bursts") / n,
        "hw.dma.self_us_per_op": self_us("hw.dma"),
        "hw.swap.writes_per_op": delta("swap.writes") / n,
        "hw.swap.reads_per_op": delta("swap.reads") / n,
        "kernel.reclaim.calls_per_op": calls("kernel.reclaim"),
        "kernel.reclaim.self_us_per_op": self_us("kernel.reclaim"),
        "kernel.swap_out.self_us_per_op": self_us("kernel.swap_out"),
        "kernel.user_access.self_us_per_op": self_us("kernel.user_access"),
        "core.watchdog.checks_per_op": delta("watchdog.checks") / n,
        "core.watchdog.self_us_per_op": self_us("core.watchdog"),
        "kernel.reaper.scans_per_op": delta("reaper.scans") / n,
        "kernel.reaper.self_us_per_op": self_us("kernel.reaper"),
        "sim.calendar.firings_per_op": calls(FIRING),
        "sim.calendar.self_us_per_op": self_us(FIRING),
        "sim.trace.emits_per_op": calls("sim.trace"),
        "sim.trace.self_us_per_op": self_us("sim.trace"),
        "trace.spans_per_op": len(recorder.spans) / n,
        "trace.overhead_ratio": untraced.ops_per_s / traced.ops_per_s,
    }
    cats = {c: cats1.get(c, 0) - cats0.get(c, 0) for c in cats1}
    for category in CATEGORY_LAYER:
        out[f"sim_ns.{category}_per_op"] = cats.get(category, 0) / n
    for layer, ns in fold_categories(cats).items():
        out[f"sim_ns.{layer}_per_op"] = ns / n
    total = sum(traced.host_ns)
    shares = dict.fromkeys(HOST_LAYERS, 0)
    for span, ns in recorder.self_ns.items():
        shares[layer_of(span)] += ns
    for layer, ns in shares.items():
        out[f"share.{layer}"] = ns / total
    out["share.unattributed"] = 1 - sum(shares.values()) / total
    assert set(out) == set(PER_LAYER), set(out) ^ set(PER_LAYER)
    return out

