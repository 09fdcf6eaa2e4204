import pytest

from nocmap.model import DEFAULT_RA_TILES, ArchGraph, Edge, Task, TaskGraph, TaskKind


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
