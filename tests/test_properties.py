"""Property tests of ``simulate`` on random small platforms and DAG workloads.

Each drawn scenario must either finish or raise ``DeadlockError``, and the
latter only without the admission guard.  A finished run must account for
every task and every transfer exactly once, report the energies its event
log sums to, and leave the mapping state empty.
"""
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from nocmap.heuristics import HEURISTIC_NAMES
from nocmap.model import ArchGraph, Edge, Task, TaskGraph, TaskKind, TileKind
from nocmap.sim import DeadlockError, PlatformParams, Scenario, _Engine

# (vms, vsm): either direction may be silent, but not both.
VOLUMES = st.one_of(
    st.tuples(st.integers(1, 50), st.just(0)),
    st.tuples(st.just(0), st.integers(1, 50)),
    st.tuples(st.integers(1, 50), st.integers(1, 50)),
)


@st.composite
def platforms(draw):
    """Meshes up to 5x5 with a random manager and random RA tiles, keeping at
    least one instruction-set tile."""
    width, height = draw(st.integers(2, 5)), draw(st.integers(1, 5))
    coords = [(x, y) for y in range(height) for x in range(width)]
    manager = draw(st.sampled_from(coords))
    others = [c for c in coords if c != manager]
    ra = draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others) - 1))
    return ArchGraph.uniform(width, height, manager=manager, ra=ra)


@st.composite
def dag_apps(draw, app_id, isp_tiles, ra_tiles):
    """A DAG of 1-6 tasks that fits the platform; every task after t0 has one
    to three masters among the tasks before it."""
    tasks = [Task("t0", TaskKind.INITIAL, draw(st.integers(1, 100)))]
    edges = []
    used = {TaskKind.SOFTWARE: 1, TaskKind.HARDWARE: 0}
    room = {TaskKind.SOFTWARE: isp_tiles, TaskKind.HARDWARE: ra_tiles}
    for i in range(1, draw(st.integers(1, 6))):
        kinds = [k for k in used if used[k] < room[k]]
        if not kinds:
            break
        kind = draw(st.sampled_from(kinds))
        used[kind] += 1
        tasks.append(Task(f"t{i}", kind, draw(st.integers(1, 100))))
        masters = draw(st.lists(st.integers(0, i - 1), min_size=1, max_size=min(i, 3), unique=True))
        for m in sorted(masters):
            vms, vsm = draw(VOLUMES)
            edges.append(Edge(f"t{m}", f"t{i}", vms, vsm))
    return TaskGraph(app_id, tasks, edges)


@st.composite
def scenarios(draw):
    arch = draw(platforms())
    isp, ra = arch.count_kind(TileKind.ISP), arch.count_kind(TileKind.RA)
    n = draw(st.integers(1, 3))
    apps = [draw(dag_apps(f"app{i}", isp, ra)) for i in range(n)]
    arrivals = draw(st.none() | st.lists(st.integers(0, 3000), min_size=n, max_size=n))
    return Scenario(
        apps=apps,
        heuristic=draw(st.sampled_from(HEURISTIC_NAMES)),
        params=PlatformParams(manager_overhead=draw(st.sampled_from((0, 5)))),
        arrivals=arrivals,
        arch=arch,
        admission_guard=draw(st.booleans()),
    )


def _energy(events, kind):
    return sum(int(e.fields()["energy"]) for e in events if e.kind == kind)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(scenarios())
def test_simulate_finishes_and_accounts_for_everything(scenario):
    engine = _Engine(scenario)
    try:
        report = engine.run()
    except DeadlockError:
        assert not scenario.admission_guard
        return
    events = report.event_log
    per = Counter((e.kind, e.app) for e in events)
    tasks = Counter((e.kind, e.app, e.task) for e in events)
    for g in scenario.apps:
        assert per["app_done", g.app_id] == 1
        for t in g.tasks:
            assert tasks["compute_start", g.app_id, t.id] == 1
            assert tasks["compute_end", g.app_id, t.id] == 1
    kinds = Counter(e.kind for e in events)
    directions = sum((e.vms > 0) + (e.vsm > 0) for g in scenario.apps for e in g.edges)
    assert kinds["comm_start"] == kinds["comm_end"] == directions
    assert kinds["compute_start"] == sum(len(g.tasks) for g in scenario.apps)
    assert report.energy_compute == _energy(events, "compute_end")
    assert report.energy_comm == _energy(events, "comm_end")
    assert report.total_energy == report.energy_compute + report.energy_comm
    assert engine.state.ledger.total_load() == 0
    assert not engine.state.placement
    assert not engine.state.tile_owner
    assert not engine.state.routes
    assert not engine.held
