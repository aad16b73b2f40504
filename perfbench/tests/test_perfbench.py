"""The benchmark's own tests: tiny runs of every workload.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT
from perfbench import tracing
from perfbench.harness import (
    END_TO_END, PER_LAYER, Refused, fold_categories, run,
)
from perfbench.workloads import WORKLOADS

RUN = os.path.join(ROOT, "perfbench", "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def tiny(name: str, seed: int = 1, trace: bool = False, spans=None):
    return run(WORKLOADS[name], seed, 0.05, trace, tiny=True, setup_reps=1,
               spans_path=spans)


def test_benchmark_json_names_the_harness_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_are_emitted_with_units(name):
    result = tiny(name)
    assert result.correct and result.failed == 0 and result.attempted >= 8
    line = json.loads(result.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer_metrics_are_emitted_with_units(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = tiny(name, trace=True, spans=str(spans))
    assert result.correct
    line = json.loads(result.line())
    assert {k: v["unit"] for k, v in line["metrics"].items()} == PER_LAYER
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"op", "id", "parent", "name", "start_ns",
                          "end_ns"}
    shares = [v["value"] for k, v in line["metrics"].items()
              if k.startswith("share.")]
    assert min(shares) >= 0 and sum(shares) == pytest.approx(1.0)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_sim_digest_repeats_per_seed_and_ignores_tracing(name):
    a, b = tiny(name), tiny(name)
    assert a.info["sim_digest"] == b.info["sim_digest"]
    for key in ("sim_us_p50", "sim_us_p95"):
        assert a.metrics[key] == b.metrics[key]
    assert tiny(name, trace=True).info["sim_digest"] == a.info["sim_digest"]
    assert tiny(name, seed=2).info["sim_digest"] != a.info["sim_digest"]


def test_unmapped_category_fails_loudly():
    with pytest.raises(KeyError, match="no layer"):
        fold_categories({"dma": 1, "brand_new_category": 2})


def test_refuses_to_time_with_the_sanitizer_armed(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "strict")
    with pytest.raises(Refused, match="REPRO_SANITIZE"):
        tiny("swap_pressure")


def test_instrument_restores_every_boundary():
    import importlib
    owners = []
    for module, cls, attr, _ in tracing.BOUNDARIES:
        owner = importlib.import_module(module)
        owner = owner if cls is None else getattr(owner, cls)
        owners.append((owner, attr, owner.__dict__[attr]))
    with tracing.instrument(tracing.SpanRecorder(), []):
        assert all(owner.__dict__[attr] is not fn
                   for owner, attr, fn in owners)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in owners)


def test_cli_prints_the_result_last_and_exits_zero():
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "swap_pressure", "--seed", "3",
         "--seconds", "0.05", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line)
                    for line in proc.stdout.splitlines()[-2:])
    assert info["workload"] == "swap_pressure" and info["sim_digest"]
    assert result["correct"] is True


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "swap_pressure",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
