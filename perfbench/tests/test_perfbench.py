"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""
from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (ROOT / "src", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from nocmap import TileKind, simulate, sim, workload  # noqa: E402
from nocmap.model import DEFAULT_RA_TILES  # noqa: E402
from workloads import PLATFORMS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = replace(WORKLOADS["ff-8x8-long"], app_count=6)


def write_outputs(tmp_path: Path, scenario, tracer=None) -> tuple[str, str]:
    report = simulate(scenario) if tracer is None else tracer.call("sim.simulate", simulate, scenario)
    report_path, events_path = str(tmp_path / "report.csv"), str(tmp_path / "events.csv")
    workload.write_report([report], report_path)
    sim.write_event_log(report.event_log, events_path)
    return report_path, events_path


def app_ids(scenario) -> list[str]:
    return [g.app_id for g in scenario.apps]


def test_check_accepts_simulator_output(tmp_path):
    scenario = TINY.setup(2)
    problems, stats = check.check_outputs(*write_outputs(tmp_path, scenario), app_ids(scenario))
    assert problems == []
    assert stats.kinds["app_done"] == 6 and stats.rows > 0


def edit_first(kind: str, edit):
    """Corruption that applies ``edit`` to the first event-log row of ``kind``."""

    def corrupt(rows: list[str]) -> list[str]:
        i = next(i for i, r in enumerate(rows) if r.split(",")[1] == kind)
        return rows[:i] + [edit(rows[i])] + rows[i + 1 :]

    return corrupt


def bump_energy(row: str) -> str:
    return re.sub(r"energy=(\d+)", lambda m: f"energy={int(m[1]) + 1}", row)


@pytest.mark.parametrize(
    "corrupt",
    [
        edit_first("compute_end", bump_energy),
        edit_first("comm_end", bump_energy),
        edit_first("app_done", lambda r: r.replace("app_done", "release")),
        edit_first("comm_start", lambda r: re.sub(r"wait=\d+", "wait=-1", r)),
        lambda rows: rows + ["0,compute_end,app0,t0,1,1,instructions=100"],
    ],
    ids=["compute-energy", "comm-energy", "missing-app-done", "negative-wait", "malformed-row"],
)
def test_check_rejects_corrupted_event_log(tmp_path, corrupt):
    scenario = TINY.setup(2)
    report_path, events_path = write_outputs(tmp_path, scenario)
    rows = Path(events_path).read_text(encoding="utf-8").splitlines()
    corrupted = corrupt(rows)
    assert corrupted != rows
    Path(events_path).write_text("\n".join(corrupted) + "\n", encoding="utf-8")
    problems, _ = check.check_outputs(report_path, events_path, app_ids(scenario))
    assert problems


def test_golden_digests_apply_to_default_seed_only(tmp_path):
    outputs = write_outputs(tmp_path, TINY.setup(check.DEFAULT_SEED))
    assert len(check.check_golden("ff-8x8-long", check.DEFAULT_SEED, *outputs)) == 2
    assert check.check_golden("ff-8x8-long", check.DEFAULT_SEED + 1, *outputs) == []
    assert set(check.GOLDEN) == set(WORKLOADS)


def test_16x16_layout_tiles_the_default_ra_pattern():
    arch = PLATFORMS["16x16-ra"]()
    assert (arch.width, arch.height, arch.manager) == (16, 16, (0, 0))
    assert arch.count_kind(TileKind.RA) == 56
    tiled = {(x + 8 * i, y + 8 * j) for i in range(2) for j in range(2) for x, y in DEFAULT_RA_TILES}
    assert {c for c in arch.coords() if arch.kind(c) is TileKind.RA} == tiled


def test_benchmark_json_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert (m["unit"] == "ref-s") == m["name"].endswith(run.TIME_SUFFIXES), m["name"]
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]


def test_predictions_cite_declared_names():
    predictions = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))["predictions"]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for p in predictions:
        assert set(p["layer_metrics"]) <= per_layer, p["name"]
        assert set(p["moves"]) <= end_to_end, p["name"]
        for key in ("most", "next", "least", "unchanged"):
            assert set(p.get(key, ())) <= set(WORKLOADS), p["name"]


def test_tracing_keeps_output_and_restores_functions(tmp_path):
    scenario = replace(TINY, heuristic="mmc", app_count=3).setup(2)
    plain = check.sha256_file(write_outputs(tmp_path, scenario)[1])
    with pytest.raises(ZeroDivisionError), spans.Tracer():
        1 / 0
    spans.assert_restored()
    with spans.Tracer() as tr:
        traced = check.sha256_file(write_outputs(tmp_path, scenario, tr)[1])
    spans.assert_restored()
    assert traced == plain
    summary = tr.summary()
    assert summary["sim.simulate"]["calls"] == 1
    assert summary["heuristics.place"]["calls"] > 0
    assert summary["routing.xy_route.tentative"]["calls"] > 0
    assert summary["routing.xy_route.pinned"]["calls"] > 0


def test_span_summary_self_time_and_same_name_nesting():
    tr = spans.Tracer()

    def inner():
        return tr.call("b", lambda: None)

    def outer():
        tr.call("a", inner)  # "a" nested in "a": one call of "a"
        return tr.call("b", lambda: None)

    tr.call("a", outer)
    s = tr.summary()
    assert s["a"]["calls"] == 1 and s["b"]["calls"] == 2
    assert s["a"]["self_s"] == pytest.approx(s["a"]["s"] - s["b"]["s"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric(tmp_path, monkeypatch, capsys, trace):
    monkeypatch.setitem(WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(run, "HERE", tmp_path)
    argv = ["--workload", TINY.name, "--seed", "2", "--seconds", "0", "--trace", trace]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_CALLS
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
