"""Golden equivalence of the ``make race`` exploration report.

``tools/race_explore.py`` runs every registered scenario through the
schedule explorer (8 schedules, DPOR on) with the race detector and the
pin sanitizer armed on each run, and writes one JSON report.  That
report — schedules run and pruned, tie groups, every run's outcome,
race verdicts and sanitizer findings — is compared here with the
committed ``race_report_golden.json``, so a refactor of the checkers or
of the explorer must reproduce it exactly.

Memory handles, protection tags and descriptor ids come from
process-wide counters, so the report is generated with them restarted
(as in a fresh ``make race`` process) and does not depend on what ran
earlier in the test session.

Regenerate the golden (``PYTHONPATH=src python -m
tests.test_race_report_golden``) only for a change that is *meant* to
alter what the checkers report, and say so.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from tests.test_via_verb_golden import _fresh_ids

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = pathlib.Path(__file__).with_name("race_report_golden.json")
SCHEDULES = 8

# The explorer arms its own detector and sanitizer per run.
pytestmark = [pytest.mark.san_suppress, pytest.mark.race_suppress]


def _race_explore():
    spec = importlib.util.spec_from_file_location(
        "race_explore", REPO_ROOT / "tools" / "race_explore.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generate(path: pathlib.Path) -> int:
    """Run the ``make race`` exploration, writing its report to
    ``path``; returns the tool's exit status."""
    with _fresh_ids():
        return _race_explore().main(
            ["--schedules", str(SCHEDULES), "--report", str(path)])


def test_race_report_matches_golden(tmp_path, capsys):
    report = tmp_path / "RACE_REPORT.json"
    assert generate(report) == 0, capsys.readouterr().out
    assert json.loads(report.read_text()) == json.loads(
        GOLDEN_PATH.read_text())


if __name__ == "__main__":
    generate(GOLDEN_PATH)
    print(f"wrote {GOLDEN_PATH}")
