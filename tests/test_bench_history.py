"""Smoke test of ``tools/bench_history.py`` over the committed records."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_history", ROOT / "tools" / "bench_history.py"
)
bench_history = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_history)


def test_prints_both_medians_of_every_committed_record(capsys):
    files = sorted(ROOT.glob("BENCH_*.json"))
    metrics = bench_history.end_to_end_metrics()
    assert files and "sim_ref_s" in metrics
    assert bench_history.main([]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split("\t")[-3:] == ["parent", "head", "head/parent"]
    rows = [line.split("\t") for line in lines]
    assert {r[0] for r in rows} == {f.name for f in files}
    for f in files:
        mine = [r for r in rows if r[0] == f.name]
        assert len(mine) == len({r[2] for r in mine}) * len(metrics)
    assert all("-" not in r[4:] for r in rows)


def test_reads_both_layouts(tmp_path, capsys):
    metric = {"sim_ref_s": {"parent": {"median": 2.0}, "head": {"median": 1.5}}}
    for layout in bench_history.LAYOUTS:
        path = tmp_path / f"BENCH_{layout}.json"
        record = {"parent": "abc1234", layout: {"w": {"metrics": metric}}}
        path.write_text(json.dumps(record), encoding="utf-8")
        assert bench_history.main([str(path)]) == 0
        _, *lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t") == [path.name, "abc1234", "w", "sim_ref_s", "2", "1.5", "0.75"]
        assert all(line.split("\t")[4:] == ["-", "-", "-"] for line in lines[1:])
