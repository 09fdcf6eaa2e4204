"""Deterministic work counts of the bench workloads, pinned exactly.

For each workload named in ``work_counts.json``, at the file's seed: the
``calls`` of every span that one ``perfbench/spans.py`` tracer records around
``simulate``, the length of the event log, and ``mapping_evaluations``.
Timings drift between runs and hosts; these counts do not, so a change that
alters the work fails here.  A change meant to alter it rewrites the file
with ``PYTHONPATH=src python tests/test_work_counts.py`` and gives the old
and new counts, with the reason, in CHANGES.md.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
for p in (ROOT / "src", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import spans  # noqa: E402
from nocmap import simulate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = Path(__file__).with_name("work_counts.json")
SEED = 1


def work_counts(name: str, seed: int) -> dict:
    scenario = WORKLOADS[name].setup(seed)
    with spans.Tracer() as tracer:
        report = simulate(scenario)
    return {
        "span_calls": {label: agg["calls"] for label, agg in sorted(tracer.summary().items())},
        "event_log_rows": len(report.event_log),
        "mapping_evaluations": report.mapping_evaluations,
    }


def recorded() -> dict:
    return json.loads(COUNTS.read_text(encoding="utf-8"))


def pytest_generate_tests(metafunc):
    # Read at collection, so the script below can write a missing file.
    metafunc.parametrize("name", sorted(recorded()["workloads"]))


def test_work_counts_match_the_record(name):
    record = recorded()
    assert work_counts(name, record["seed"]) == record["workloads"][name]


if __name__ == "__main__":
    counts = {name: work_counts(name, SEED) for name in WORKLOADS}
    text = json.dumps({"seed": SEED, "workloads": counts}, indent=2, sort_keys=True)
    COUNTS.write_text(text + "\n", encoding="utf-8")
