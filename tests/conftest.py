import csv

import pytest

from nocmap.model import (
    DEFAULT_RA_TILES,
    ArchGraph,
    Edge,
    Task,
    TaskGraph,
    TaskKind,
    ValidationError,
)
from nocmap.workload import REPORT_HEADER


@pytest.fixture
def arch8():
    return ArchGraph.default_8x8()


def small_arch(width, height, ra=(), manager=(0, 0)):
    return ArchGraph.uniform(width, height, manager=manager, ra=ra)


def arch_16x16_ra():
    """The default 8x8 RA pattern tiled 2x2: 56 RA tiles."""
    return ArchGraph.uniform(
        16,
        16,
        manager=(0, 0),
        ra=[(x + dx, y + dy) for dx in (0, 8) for dy in (0, 8) for x, y in DEFAULT_RA_TILES],
    )


def chain_app(app_id="app0", kinds=(TaskKind.INITIAL, TaskKind.SOFTWARE), instructions=100,
              vms=100, vsm=100):
    """Linear pipeline t0 -> t1 -> ... with uniform volumes."""
    tasks = [Task(f"t{i}", k, instructions) for i, k in enumerate(kinds)]
    edges = [Edge(f"t{i}", f"t{i+1}", vms, vsm) for i in range(len(kinds) - 1)]
    return TaskGraph(app_id, tasks, edges)


def read_report(path):
    """Parse a report CSV (``workload.write_report``) back into typed
    dictionaries; a wrong header or a non-numeric cell is a ``ValidationError``."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != REPORT_HEADER:
            raise ValidationError(f"unexpected report header in {path}")
        for raw in reader:
            row = dict(raw)
            for field in REPORT_HEADER[1:]:
                parse = float if field == "avg_link_load" else int
                try:
                    row[field] = parse(row[field])
                except (TypeError, ValueError):
                    raise ValidationError(
                        f"{path} line {reader.line_num}: column {field}: "
                        f"{row[field]!r} is not a number"
                    ) from None
            rows.append(row)
    return rows
