"""E19 — crash-tolerant distributed lock manager on remote atomics.

PR 8 added remote atomic verbs (CMPSWAP / FETCHADD with responder-side
retransmit dedup) and ``repro.workloads.dlm``: three lock designs behind
one client API — the server-centric message queue, the client-bypass
spin CAS with bounded backoff, and the DecLock-style FETCH_ADD ticket
lock — each lease-based and crash-recoverable.

This experiment runs every design twice: a clean pass (no chaos) for
the acquisition-throughput and fairness numbers, and a crash pass that
kills one client inside its critical section at every instrumented
protocol step, measuring how long the survivors take to reacquire the
dead holder's lock (the lease-recovery SLO, p50/p99 in simulated ns).

Asserted gates:

1. every run is *clean*: the invariant oracle recorded no violations,
   no pins leaked, and the post-chaos reaper found nothing left over;
2. the protected data words equal the oracle's increment counts — a
   crash never costs a committed increment and never double-applies one;
3. every recovery lands within one lease period plus slack.
"""

import os

import pytest

from repro.bench.harness import fmt_ns, percentile, print_table, record
from repro.sim.faults import DLM_CRASH_POINTS
from repro.workloads.dlm import DESIGNS, DLMConfig, run_dlm

N_CLIENTS = int(os.environ.get("REPRO_E19_CLIENTS", "6"))
CS_EACH = int(os.environ.get("REPRO_E19_CS", "6"))
N_LOCKS = int(os.environ.get("REPRO_E19_LOCKS", "2"))
SEEDS = [int(s) for s in
         os.environ.get("REPRO_E19_SEEDS", "0,1").split(",")]
BACKEND = os.environ.get("REPRO_E19_BACKEND", "kiobuf")


def _assert_clean(report):
    assert report.violations == [], report.violations
    assert report.sanitizer_violations == 0
    assert report.leaked_pins == 0
    assert report.reaper_post_reclaimed == 0
    assert report.data_final == report.data_expected


def _clean_pass(design):
    config = DLMConfig(design=design, n_clients=N_CLIENTS,
                       cs_per_client=CS_EACH, n_locks=N_LOCKS,
                       backend=BACKEND)
    rep = run_dlm(config)
    _assert_clean(rep)
    assert rep.acquisitions == N_CLIENTS * CS_EACH
    return {
        "design": design,
        "acquisitions": rep.acquisitions,
        "sim_ns": rep.sim_ns,
        "ns_per_cs": rep.sim_ns // max(1, rep.acquisitions),
        "max_bypass": rep.max_bypass,
    }


def _crash_pass(design):
    recovery, reclaims_by = [], {}
    runs = 0
    for seed in SEEDS:
        for point in DLM_CRASH_POINTS:
            config = DLMConfig(design=design, n_clients=N_CLIENTS,
                               cs_per_client=CS_EACH, n_locks=1,
                               backend=BACKEND, seed=seed,
                               crash_point=point)
            rep = run_dlm(config)
            _assert_clean(rep)
            assert rep.crashes == 1
            assert rep.reclaims >= 1
            bound = config.lease_ns + config.recovery_slack_ns
            assert all(ns <= bound for ns in rep.recovery_ns), (
                f"{design}/{point}/seed {seed}: recovery "
                f"{max(rep.recovery_ns)} ns exceeds {bound} ns")
            recovery.extend(rep.recovery_ns)
            for by, count in rep.reclaims_by.items():
                reclaims_by[by] = reclaims_by.get(by, 0) + count
            runs += 1
    return {
        "design": design,
        "runs": runs,
        "recovery_p50_ns": percentile(recovery, 0.50),
        "recovery_p99_ns": percentile(recovery, 0.99),
        "recovery_samples": len(recovery),
        "reclaims_by": reclaims_by,
    }


@pytest.fixture(scope="module")
def passes():
    return {
        "clean": [_clean_pass(d) for d in DESIGNS],
        "crash": [_crash_pass(d) for d in DESIGNS],
    }


def test_e19_clean_throughput(passes, report):
    rows = passes["clean"]
    if report("E19: distributed lock manager on remote atomics"):
        print_table(
            f"E19a — clean pass, {N_CLIENTS} clients x {CS_EACH} CS, "
            f"{N_LOCKS} locks, backend={BACKEND}",
            ["design", "acquisitions", "sim time", "ns/CS",
             "max bypass"],
            [[r["design"], r["acquisitions"], fmt_ns(r["sim_ns"]),
              r["ns_per_cs"], r["max_bypass"]] for r in rows])
    for r in rows:
        if r["design"] in ("server", "declock"):
            assert r["max_bypass"] == 0, (
                f"{r['design']} must grant FIFO, saw bypass "
                f"{r['max_bypass']}")


def test_e19_lease_recovery_slo(passes, report):
    rows = passes["crash"]
    report("E19: distributed lock manager on remote atomics")
    print_table(
        f"E19b — kill-at-every-step sweep, {len(SEEDS)} seed(s) x "
        f"{len(DLM_CRASH_POINTS)} crash points",
        ["design", "runs", "recovery p50", "recovery p99", "samples",
         "reclaimed by"],
        [[r["design"], r["runs"], fmt_ns(r["recovery_p50_ns"]),
          fmt_ns(r["recovery_p99_ns"]), r["recovery_samples"],
          ",".join(f"{k}:{v}" for k, v in sorted(r["reclaims_by"].items()))]
         for r in rows])
    record("metrics", "E19 DLM lease recovery",
           clients=N_CLIENTS, cs_per_client=CS_EACH, seeds=SEEDS,
           backend=BACKEND,
           **{f"{r['design']}_recovery_p50_ns": r["recovery_p50_ns"]
              for r in rows},
           **{f"{r['design']}_recovery_p99_ns": r["recovery_p99_ns"]
              for r in rows},
           **{f"{r['design']}_recovery_samples": r["recovery_samples"]
              for r in rows})
    for r in rows:
        assert r["recovery_samples"] >= len(SEEDS), (
            f"{r['design']}: survivors never reacquired after crashes")


def test_e19_host_time(benchmark):
    """Host-time anchor: one clean spin-design run."""
    config = DLMConfig(design="spin", n_clients=4, cs_per_client=4,
                       n_locks=1, backend=BACKEND)

    def run():
        rep = run_dlm(config)
        _assert_clean(rep)
        return rep

    benchmark(run)
