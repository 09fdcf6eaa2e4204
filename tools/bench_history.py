"""Print the parent and head medians of each committed benchmark record.

    python3 tools/bench_history.py                  # every BENCH_*.json at the root
    python3 tools/bench_history.py BENCH_ledger.json ...

Each ``BENCH_*.json`` records before/after runs of ``perfbench/run.py`` for
one change, under ``pairs`` (older records) or ``alternating`` (newer
ones); both map a workload to its ``metrics``, and each metric to its
``parent`` and ``head`` quartiles.  This prints one line per file, workload
and end-to-end metric of ``BENCHMARK.json``: the parent median, the head
median and their ratio.  Files are read in the order given, by name when
none is.  A metric a record lacks prints as ``-``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUTS = ("pairs", "alternating")


def end_to_end_metrics(root: Path = ROOT) -> list[str]:
    """The end-to-end metric names of ``BENCHMARK.json``, in its order."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["end_to_end"]]


def medians(record: dict, metrics: list[str]) -> list[tuple[str, str, float | None, float | None]]:
    """(workload, metric, parent median, head median) for each workload of
    the record's layout and each of ``metrics``; ``None`` where missing."""
    rows = []
    for layout in LAYOUTS:
        for workload, run in record.get(layout, {}).items():
            for name in metrics:
                m = run.get("metrics", {}).get(name, {})
                side = [m.get(s, {}).get("median") for s in ("parent", "head")]
                rows.append((workload, name, *side))
    return rows


def _fmt(x: float | None) -> str:
    return "-" if x is None else f"{x:.6g}"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("files", nargs="*", type=Path)
    args = p.parse_args(argv)
    files = args.files or sorted(ROOT.glob("BENCH_*.json"))
    metrics = end_to_end_metrics()
    print("file\tparent_commit\tworkload\tmetric\tparent\thead\thead/parent")
    for path in files:
        record = json.loads(path.read_text(encoding="utf-8"))
        for workload, name, parent, head in medians(record, metrics):
            ratio = head / parent if parent and head is not None else None
            print("\t".join((
                path.name, str(record.get("parent", "-")), workload, name,
                _fmt(parent), _fmt(head), _fmt(ratio),
            )))
    return 0


if __name__ == "__main__":
    sys.exit(main())
