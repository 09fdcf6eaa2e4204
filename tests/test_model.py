import random
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocmap.model import (
    ArchGraph,
    ChannelLoadLedger,
    Edge,
    MappingState,
    StateError,
    Task,
    TaskGraph,
    TaskKind,
    TileKind,
    ValidationError,
    compatible,
    manhattan,
)
from nocmap.oracles import free_candidates, random_ledger
from nocmap.sim import comm_latency
from nocmap.workload import GenConfig, generate_workload, parse_workload

from conftest import chain_app, small_arch


class TestHopDistance:
    """Hop distance between tiles is ``manhattan``; tiles must be in the mesh."""

    def test_identity(self):
        assert manhattan((0, 0), (0, 0)) == 0

    def test_simple(self):
        assert manhattan((1, 1), (3, 2)) == 3

    def test_corner_to_corner(self):
        assert manhattan((0, 0), (7, 7)) == 14

    def test_out_of_mesh_rejected(self, arch8):
        with pytest.raises(ValidationError):
            arch8.require_in_mesh((8, 0))
        with pytest.raises(ValidationError):
            arch8.require_in_mesh((-1, 0))

    @pytest.mark.parametrize("width,height", [(2, 2), (3, 5), (8, 8)])
    def test_is_a_metric(self, width, height):
        coords = list(small_arch(width, height).coords())
        for a in coords:
            assert manhattan(a, a) == 0
            for b in coords:
                assert manhattan(a, b) == manhattan(b, a) >= 0
        for a in coords:
            for b in coords:
                d_ab = manhattan(a, b)
                for c in coords:
                    assert d_ab <= manhattan(a, c) + manhattan(c, b)


class TestCompatible:
    @pytest.mark.parametrize(
        "task_kind,tile_kind,expected",
        [
            (TaskKind.SOFTWARE, TileKind.ISP, True),
            (TaskKind.INITIAL, TileKind.ISP, True),
            (TaskKind.HARDWARE, TileKind.RA, True),
            (TaskKind.SOFTWARE, TileKind.RA, False),
            (TaskKind.INITIAL, TileKind.RA, False),
            (TaskKind.HARDWARE, TileKind.ISP, False),
            (TaskKind.SOFTWARE, TileKind.MANAGER, False),
            (TaskKind.INITIAL, TileKind.MANAGER, False),
            (TaskKind.HARDWARE, TileKind.MANAGER, False),
        ],
    )
    def test_truth_table(self, task_kind, tile_kind, expected):
        assert compatible(task_kind, tile_kind) is expected


class TestArchGraph:
    def test_default_platform_counts(self, arch8):
        assert arch8.count_kind(TileKind.ISP) == 49
        assert arch8.count_kind(TileKind.RA) == 14
        assert arch8.count_kind(TileKind.MANAGER) == 1
        assert arch8.manager == (0, 0)

    @pytest.mark.parametrize("width,height", [(1, 1), (2, 2), (3, 4), (8, 8)])
    def test_link_count(self, width, height):
        arch = small_arch(width, height)
        expected = 2 * (width * (height - 1) + height * (width - 1))
        assert len(arch.links()) == expected

    def test_linear_index_roundtrip(self, arch8):
        for c in arch8.coords():
            assert arch8.coord_at(arch8.linear_index(c)) == c
        assert arch8.linear_index((3, 2)) == 2 * 8 + 3

    @pytest.mark.parametrize("width,height", [(1, 1), (1, 4), (4, 1), (3, 5)])
    def test_link_tables_name_links_by_position(self, width, height):
        """A link id is the link's position in ``links()``, each tile's
        ``out_links`` pairs name its links in neighbour-index order, and each
        table entry is the id of the link between the tiles it stands for."""
        arch = small_arch(width, height)
        links = arch.links()
        assert [arch.link_ids[link] for link in links] == list(range(len(links)))
        for c in arch.coords():
            pairs = arch.out_links[arch.linear_index(c)]
            assert [links[k] for _, k in pairs] == [(c, arch.coord_at(j)) for j, _ in pairs]
            assert [j for j, _ in pairs] == sorted(j for j, _ in pairs)
            assert [arch.coord_at(j) for j, _ in pairs] == list(arch.neighbors(c))
            assert {arch.linear_index(n) for n in arch.coords() if manhattan(c, n) == 1} == {
                j for j, _ in pairs
            }
        assert [links[k] for k in arch.opposite] == [(b, a) for a, b in links]
        for x, y in arch.coords():
            if x + 1 < width:
                assert links[arch.east[x][y]] == ((x, y), (x + 1, y))
                assert links[arch.west[x][y]] == ((x + 1, y), (x, y))
            if y + 1 < height:
                assert links[arch.south[y][x]] == ((x, y), (x, y + 1))
                assert links[arch.north[y][x]] == ((x, y + 1), (x, y))

    @pytest.mark.parametrize(
        "c", [(0.5, 0), (1.0, 0), (True, 0), (1, 1, 5), (4, 0), (0, -1), [1, 1], None]
    )
    def test_only_mesh_tiles_are_in_the_mesh(self, c):
        """A coordinate is in the mesh iff it is one of its tiles, with ``int``
        parts, and every query that takes a tile rejects anything else at
        once."""
        from nocmap.routing import min_load_route, xy_route

        arch = small_arch(4, 4)
        state = MappingState(arch)
        assert not arch.in_mesh(c)
        for call in (
            lambda: arch.require_in_mesh(c),
            lambda: arch.kind(c),
            lambda: arch.neighbors(c),
            lambda: state.tile_free(c),
            lambda: state.place("a", Task("t0", TaskKind.SOFTWARE, 1), c),
            lambda: xy_route(c, (2, 0), arch),
            lambda: xy_route((2, 0), c, arch),
            lambda: min_load_route(c, (2, 0), ChannelLoadLedger(arch), arch),
            lambda: min_load_route((2, 0), c, ChannelLoadLedger(arch), arch),
        ):
            with pytest.raises(ValidationError, match="outside the 4x4 mesh"):
                call()

    def test_two_managers_rejected(self):
        kinds = {(x, y): TileKind.ISP for x in range(2) for y in range(2)}
        kinds[(0, 0)] = TileKind.MANAGER
        kinds[(1, 1)] = TileKind.MANAGER
        with pytest.raises(ValidationError):
            ArchGraph(2, 2, kinds)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ArchGraph.uniform(4, 4, manager=(True, 0)),
            lambda: ArchGraph.uniform(4, 4, manager=(0, 1.0)),
            lambda: ArchGraph.uniform(4, 4, ra=[(1, 1), (1.0, 2)]),
            lambda: ArchGraph(2, 1, {(0, 0): TileKind.MANAGER, (1.0, 0): TileKind.ISP}),
            lambda: ArchGraph(2, 1, {(False, 0): TileKind.MANAGER, (1, 0): TileKind.ISP}),
        ],
        ids=["bool-manager", "float-manager", "float-ra", "float-key", "bool-key"],
    )
    def test_non_int_tile_coordinates_rejected(self, build):
        """A tile given as ``(1.0, 0)`` or ``(True, 0)`` equals a mesh tile
        but is not one (see ``in_mesh``); a mesh built from one would hold a
        tile other than the one named, or keys that are not tiles."""
        with pytest.raises(ValidationError):
            build()

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: ArchGraph.uniform(4, 4, ra=[[1, 2]]), "RA tile [1, 2] outside the 4x4 mesh"),
            (lambda: ArchGraph.uniform(4, 4, manager=[0, 0]), "manager tile [0, 0] outside the mesh"),
        ],
        ids=["list-ra", "list-manager"],
    )
    def test_unhashable_tile_rejected(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("kind", ["software", None, TileKind.ISP, ["software"]], ids=repr)
    def test_non_task_kind_rejected(self, arch8, kind):
        """``tiles_for`` takes a ``TaskKind``; anything else, its value
        string or an unhashable list included, is refused."""
        message = _exactly(f"task kind must be a TaskKind, got {kind!r}")
        with pytest.raises(ValidationError, match=message):
            arch8.tiles_for(kind)


def _exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


def _tasks(spec):
    """Tasks from ``(id, kind value)`` pairs."""
    return [Task(tid, TaskKind(kind), 100) for tid, kind in spec]


class TestTaskGraphValidation:
    def test_zero_instructions_rejected(self):
        with pytest.raises(ValidationError):
            Task("t0", TaskKind.INITIAL, 0)

    @pytest.mark.parametrize("kind", ["hardware", None, 1, TileKind.RA], ids=repr)
    def test_kind_not_a_task_kind_rejected(self, kind):
        with pytest.raises(ValidationError, match="kind must be a TaskKind"):
            Task("s", kind, 1)

    def test_edge_without_traffic_rejected(self):
        with pytest.raises(ValidationError):
            Edge("t0", "t1", 0, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Edge("t0", "t0", 100, 100)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValidationError):
            Edge("t0", "t1", -1, 100)

    def test_cycle_rejected(self):
        tasks = [
            Task("t0", TaskKind.INITIAL, 100),
            Task("t1", TaskKind.SOFTWARE, 100),
            Task("t2", TaskKind.SOFTWARE, 100),
        ]
        edges = [Edge("t0", "t1", 100, 100), Edge("t1", "t2", 100, 100), Edge("t2", "t1", 100, 100)]
        with pytest.raises(ValidationError, match=_exactly("application 'app0': cyclic graph (t1->t2, t2->t1)")):
            TaskGraph("app0", tasks, edges)

    def test_cycle_lists_every_edge_between_stuck_tasks(self):
        """The message names, in edge order, every edge whose two ends Kahn's
        sort never frees: both cycles, the edge joining them and the edge
        into a task that only a cycle feeds."""
        tasks = [Task("t0", TaskKind.INITIAL, 100)] + [
            Task(f"t{i}", TaskKind.SOFTWARE, 100) for i in range(1, 7)
        ]
        pairs = [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 4), (0, 6), (5, 6)]
        edges = [Edge(f"t{m}", f"t{s}", 100, 100) for m, s in pairs]
        cycle = "t1->t2, t2->t3, t3->t1, t3->t4, t4->t5, t5->t4, t5->t6"
        with pytest.raises(ValidationError, match=_exactly(f"application 'app0': cyclic graph ({cycle})")):
            TaskGraph("app0", tasks, edges)

    def test_multiple_roots_rejected(self):
        tasks = [Task("t0", TaskKind.INITIAL, 100), Task("t1", TaskKind.INITIAL, 100)]
        with pytest.raises(ValidationError, match=_exactly("application 'app0': multiple roots (t0, t1)")):
            TaskGraph("app0", tasks, [Edge("t0", "t1", 100, 100)])

    def test_second_zero_indegree_task_rejected(self):
        tasks = [Task("t0", TaskKind.INITIAL, 100), Task("t1", TaskKind.SOFTWARE, 100)]
        with pytest.raises(ValidationError, match=_exactly("application 'app0': unreachable task 't1'")):
            TaskGraph("app0", tasks, [])

    def test_unknown_edge_reference_rejected(self):
        tasks = [Task("t0", TaskKind.INITIAL, 100)]
        with pytest.raises(ValidationError, match=_exactly("application 'app0': unknown task 'tX' in edge")):
            TaskGraph("app0", tasks, [Edge("t0", "tX", 100, 100)])

    def test_edge_into_initial_rejected(self):
        tasks = [Task("t0", TaskKind.INITIAL, 100), Task("t1", TaskKind.SOFTWARE, 100)]
        edges = [Edge("t0", "t1", 100, 100), Edge("t1", "t0", 100, 100)]
        with pytest.raises(ValidationError, match=_exactly("application 'app0': initial task 't0' has a master")):
            TaskGraph("app0", tasks, edges)

    @pytest.mark.parametrize(
        "tasks,edges,message",
        [
            ([], [], "no tasks"),
            ([("t0", "initial"), ("t0", "software")], [], "duplicate task ids"),
            ([("t0", "software")], [], "missing initial task"),
            ([("t0", "initial"), ("t1", "software")], [("t0", "t1"), ("t0", "t1")], "duplicate edge 't0'->'t1'"),
        ],
        ids=["no-tasks", "duplicate-task", "no-initial", "duplicate-edge"],
    )
    def test_message(self, tasks, edges, message):
        with pytest.raises(ValidationError, match=_exactly(f"application 'app0': {message}")):
            TaskGraph("app0", _tasks(tasks), [Edge(m, s, 100, 100) for m, s in edges])

    @pytest.mark.parametrize(
        "tasks,edges,message",
        [
            # A task id repeats and no task is initial: ids are checked first.
            ([("t0", "software"), ("t0", "software")], [], "duplicate task ids"),
            # Several roots and no root are told apart before any edge.
            ([("t0", "initial"), ("t1", "initial")], [("t0", "tX")], "multiple roots (t0, t1)"),
            ([("t0", "software")], [("t0", "tX")], "missing initial task"),
            # Edges are checked in order, each for unknown ends (master
            # first), repetition and a master for the initial task.
            ([("t0", "initial"), ("t1", "software")], [("t0", "t1"), ("t0", "t1"), ("t1", "tX")],
             "duplicate edge 't0'->'t1'"),
            ([("t0", "initial"), ("t1", "software")], [("t1", "t0"), ("t0", "t1"), ("t0", "t1")],
             "initial task 't0' has a master"),
            ([("t0", "initial")], [("tY", "tX")], "unknown task 'tY' in edge"),
            # Every edge is checked before the cycle search, and a cycle
            # wins over a task no path from the initial task reaches.
            ([("t0", "initial"), ("t1", "software"), ("t2", "software")],
             [("t1", "t2"), ("t2", "t1"), ("t2", "t0")], "initial task 't0' has a master"),
            ([("t0", "initial"), ("t1", "software"), ("t2", "software"), ("t3", "software")],
             [("t1", "t2"), ("t2", "t1")], "cyclic graph (t1->t2, t2->t1)"),
            # The first unreachable task in task order is named, not the
            # first task without a master.
            ([("t0", "initial"), ("t2", "software"), ("t1", "software")], [("t1", "t2")],
             "unreachable task 't2'"),
        ],
        ids=["ids-before-roots", "roots-before-edges", "no-root-before-edges", "edge-order-duplicate",
             "edge-order-master", "master-end-first", "edges-before-cycle", "cycle-before-reach",
             "first-unreachable-in-task-order"],
    )
    def test_first_fault_wins(self, tasks, edges, message):
        with pytest.raises(ValidationError, match=_exactly(f"application 'app0': {message}")):
            TaskGraph("app0", _tasks(tasks), [Edge(m, s, 100, 100) for m, s in edges])

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: Task(5, TaskKind.INITIAL, 100), "task id must be a str, got 5"),
            (lambda: Task(b"t0", TaskKind.INITIAL, 100), "task id must be a str, got b't0'"),
            (lambda: Edge(0, "t1", 100, 100), "edge master id must be a str, got 0"),
            (lambda: Edge("t0", None, 100, 100), "edge slave id must be a str, got None"),
            (lambda: TaskGraph(5, [Task("t0", TaskKind.INITIAL, 100)], []),
             "application id must be a str, got 5"),
            # A value's other faults are reported first, naming the id as given.
            (lambda: Task(5, TaskKind.INITIAL, 0), "task 5: instructions must be >= 1, got 0"),
            (lambda: Edge(1, 1, 100, 100), "edge 1->1: self loop"),
            (lambda: TaskGraph(5, [], []), "application 5: no tasks"),
        ],
        ids=["task-int", "task-bytes", "edge-master", "edge-slave", "app", "task-other-fault",
             "edge-other-fault", "app-other-fault"],
    )
    def test_non_str_id_rejected(self, build, message):
        with pytest.raises(ValidationError, match=_exactly(message)):
            build()

    @pytest.mark.parametrize("instructions", [2.5, "5", True, None])
    def test_non_integer_instructions_rejected(self, instructions):
        with pytest.raises(ValidationError, match="instructions must be an integer"):
            Task("t1", TaskKind.SOFTWARE, instructions)

    @pytest.mark.parametrize("vms,vsm", [(1.5, 1), (1, "1"), (True, 0), (100, None)])
    def test_non_integer_volume_rejected(self, vms, vsm):
        with pytest.raises(ValidationError, match="volumes must be integers"):
            Edge("t0", "t1", vms, vsm)

    def test_general_dag_accepted(self):
        # diamond: two masters feed t3
        tasks = [
            Task("t0", TaskKind.INITIAL, 100),
            Task("t1", TaskKind.SOFTWARE, 100),
            Task("t2", TaskKind.HARDWARE, 100),
            Task("t3", TaskKind.SOFTWARE, 100),
        ]
        edges = [
            Edge("t0", "t1", 100, 100),
            Edge("t0", "t2", 100, 100),
            Edge("t1", "t3", 100, 0),
            Edge("t2", "t3", 100, 0),
        ]
        g = TaskGraph("app0", tasks, edges)
        assert g.initial.id == "t0"
        assert [e.stid for e in g.outgoing("t0")] == ["t1", "t2"]
        assert [e.mtid for e in g.incoming("t3")] == ["t1", "t2"]

    def test_edges_listed_in_id_order(self):
        """``outgoing``/``incoming`` sort by the far end's id as strings,
        whatever order the edges were given in."""
        ids = ["t0", "t10", "t2", "t1", "t9"]
        tasks = _tasks([("t0", "initial")] + [(t, "software") for t in ids[1:]] + [("sink", "software")])
        pairs = [("t0", t) for t in reversed(ids[1:])] + [(t, "sink") for t in ids[1:]]
        g = TaskGraph("app0", tasks, [Edge(m, s, 100, 100) for m, s in pairs])
        assert [e.stid for e in g.outgoing("t0")] == ["t1", "t10", "t2", "t9"]
        assert [e.mtid for e in g.incoming("sink")] == ["t1", "t10", "t2", "t9"]
        assert g.outgoing("sink") == g.incoming("t0") == ()
        assert [e.mtid for e in g.incoming("t10")] == ["t0"]


def _place_chain(state, app, tiles):
    g = chain_app(app_id=app, kinds=[TaskKind.INITIAL] + [TaskKind.SOFTWARE] * (len(tiles) - 1))
    for task, tile in zip(g.tasks, tiles):
        state.place(app, task, tile)
    return g


_T0 = Task("t0", TaskKind.INITIAL, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: parse_workload(None),
        lambda: parse_workload(5),
        lambda: TaskGraph("a", None, []),
        lambda: TaskGraph("a", [None], []),
        lambda: TaskGraph("a", [_T0], [None]),
        lambda: generate_workload(GenConfig(app_count=1, hw_task_probability="x")),
        lambda: generate_workload(GenConfig(app_count=1, hw_task_probability=None)),
        lambda: generate_workload(GenConfig(app_count=1, hw_task_probability=True)),
        lambda: comm_latency(1.5, 2),
        lambda: comm_latency("a", 1),
    ],
    ids=[
        "parse-None", "parse-int", "graph-tasks-None", "graph-task-None", "graph-edge-None",
        "gen-probability-str", "gen-probability-None", "gen-probability-bool", "latency-float",
        "latency-str",
    ],
)
def test_entry_point_rejects_wrong_type(call):
    """Library entry points turn an input of the wrong type into a
    ValidationError where it enters, not a raw error further in."""
    with pytest.raises(ValidationError):
        call()


class TestMappingState:
    def test_apply_route_loads_every_link(self):
        arch = small_arch(4, 4)
        state = MappingState(arch)
        _place_chain(state, "a", [(1, 0), (1, 3)])
        path = ((1, 0), (1, 1), (1, 2), (1, 3))
        state.apply_route("a", "t0", "t1", "ms", path, 100)
        for link in zip(path, path[1:]):
            assert state.ledger.load(link) == 100
        assert state.ledger.peak_load() == 100

    def test_pinned_route_keeps_its_link_ids(self):
        arch = small_arch(4, 4)
        state = MappingState(arch)
        _place_chain(state, "a", [(2, 1), (1, 2)])
        path = ((2, 1), (1, 1), (1, 2))
        state.apply_route("a", "t0", "t1", "ms", path, 30)
        ids = (arch.link_ids[(2, 1), (1, 1)], arch.link_ids[(1, 1), (1, 2)])
        assert state.routes == {("a", "t0", "t1", "ms"): (path, 30, ids)}

    def test_zero_volume_leaves_ledger_unchanged(self):
        arch = small_arch(4, 4)
        state = MappingState(arch)
        _place_chain(state, "a", [(1, 0), (1, 1)])
        state.apply_route("a", "t0", "t1", "ms", ((1, 0), (1, 1)), 0)
        assert state.ledger.total_load() == 0

    def test_shared_link_loads_add(self):
        arch = small_arch(4, 4)
        state = MappingState(arch)
        _place_chain(state, "a", [(0, 1), (2, 1)])
        state.apply_route("a", "t0", "t1", "ms", ((0, 1), (1, 1), (2, 1)), 100)
        state.apply_route("a", "t0", "t1", "sm", ((2, 1), (1, 1), (0, 1)), 100)
        g = chain_app(app_id="b")
        state.place("b", g.tasks[0], (1, 0))
        state.place("b", g.tasks[1], (2, 2))
        state.apply_route("b", "t0", "t1", "ms", ((1, 0), (1, 1), (2, 1), (2, 2)), 100)
        assert state.ledger.load(((1, 1), (2, 1))) == 200

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: s.remove_route(["a", "t0", "t1", "ms"]),
            lambda s: s.apply_route(["a"], "t0", "t1", "ms", ((1, 0), (1, 1)), 1),
            lambda s: s.task_tile(["a"], "t0"),
            lambda s: s.tile_free([1, 0]),
            lambda s: s.place(["a"], Task("t2", TaskKind.SOFTWARE, 1), (2, 0)),
        ],
        ids=["remove_route", "apply_route", "task_tile", "tile_free", "place"],
    )
    def test_list_key_or_tile_rejected(self, call):
        """A list where a key or a tile belongs is invalid input, not a raw
        ``TypeError``, and changes nothing."""
        state = MappingState(small_arch(4, 4))
        _place_chain(state, "a", [(1, 0), (1, 1)])
        state.apply_route("a", "t0", "t1", "ms", ((1, 0), (1, 1)), 10)
        before = (dict(state.placement), dict(state.routes), state.ledger.copy())
        with pytest.raises(ValidationError):
            call(state)
        assert (state.placement, state.routes, state.ledger) == before

    def test_duplicate_comm_key_rejected(self):
        arch = small_arch(4, 4)
        state = MappingState(arch)
        _place_chain(state, "a", [(1, 0), (1, 1)])
        state.apply_route("a", "t0", "t1", "ms", ((1, 0), (1, 1)), 10)
        with pytest.raises(StateError):
            state.apply_route("a", "t0", "t1", "ms", ((1, 0), (1, 1)), 10)

    def test_unmapped_endpoint_rejected(self):
        arch = small_arch(4, 4)
        state = MappingState(arch)
        g = chain_app(app_id="a")
        state.place("a", g.tasks[0], (1, 0))
        with pytest.raises(StateError):
            state.apply_route("a", "t0", "t1", "ms", ((1, 0), (1, 1)), 10)

    def test_route_must_match_endpoints(self):
        arch = small_arch(4, 4)
        state = MappingState(arch)
        _place_chain(state, "a", [(1, 0), (1, 1)])
        with pytest.raises(ValidationError):
            state.apply_route("a", "t0", "t1", "ms", ((1, 1), (1, 0)), 10)

    @pytest.mark.parametrize(
        "tiles,path",
        [
            ([(1, 0), (1, 1)], ()),
            ([(1, 0), (1, 1)], ((1, 0), (1, 1), (1, 0), (1, 1))),  # revisits
            ([(3, 0), (3, 2)], ((3, 0), (3, 1), (4, 1), (3, 2))),  # off the mesh
            ([(1, 0), (1, 2)], ((1, 0), (1, 1), (2, 2), (1, 2))),  # not adjacent
            ([(1, 0), (1, 2)], ((1, 0), [1, 1], (1, 2))),  # unhashable
        ],
    )
    def test_rejected_path_changes_nothing(self, tiles, path):
        arch = small_arch(4, 4)
        state = MappingState(arch)
        _place_chain(state, "b", [(0, 1), (0, 3)])
        state.apply_route("b", "t0", "t1", "ms", ((0, 1), (0, 2), (0, 3)), 40)
        _place_chain(state, "a", tiles)
        ledger, routes = state.ledger.copy(), dict(state.routes)
        with pytest.raises(ValidationError):
            state.apply_route("a", "t0", "t1", "ms", path, 10)
        assert state.ledger == ledger
        assert state.ledger.total_load() == ledger.total_load() == 80
        assert state.routes == routes

    def test_negative_volume_changes_nothing(self):
        arch = small_arch(4, 4)
        state = MappingState(arch)
        _place_chain(state, "a", [(0, 1), (0, 3)])
        state.apply_route("a", "t0", "t1", "ms", ((0, 1), (0, 2), (0, 3)), 40)
        ledger, routes = state.ledger.copy(), dict(state.routes)
        with pytest.raises(ValidationError, match="volume"):
            state.apply_route("a", "t0", "t1", "sm", ((0, 3), (0, 2), (0, 1)), -1)
        assert state.ledger == ledger
        assert state.ledger.total_load() == 80
        assert state.routes == routes

    def test_non_adjacent_path_rejected(self):
        arch = small_arch(4, 4)
        state = MappingState(arch)
        _place_chain(state, "a", [(1, 0), (1, 2)])
        with pytest.raises(ValidationError):
            state.apply_route("a", "t0", "t1", "ms", ((1, 0), (1, 2)), 10)

    def test_mono_task_per_tile(self):
        arch = small_arch(4, 4)
        state = MappingState(arch)
        g = chain_app(app_id="a")
        state.place("a", g.tasks[0], (1, 0))
        with pytest.raises(StateError):
            state.place("b", g.tasks[0], (1, 0))

    def test_incompatible_tile_rejected(self):
        arch = small_arch(4, 4, ra=((2, 2),))
        state = MappingState(arch)
        g = chain_app(app_id="a")
        with pytest.raises(StateError):
            state.place("a", g.tasks[0], (2, 2))
        with pytest.raises(StateError):
            state.place("a", g.tasks[0], (0, 0))  # manager

    def test_release_is_inverse_of_apply(self):
        arch = small_arch(4, 4)
        state = MappingState(arch)
        _place_chain(state, "a", [(1, 0), (1, 1)])
        state.apply_route("a", "t0", "t1", "ms", ((1, 0), (1, 1)), 100)
        state.remove_route(("a", "t0", "t1", "ms"))
        state.release_app("a")
        assert state.ledger.total_load() == 0
        assert not state.placement
        for kind in TaskKind:
            assert state.free_tiles(kind) == set(arch.tiles_for(kind)), kind

    def test_release_keeps_other_apps(self):
        arch = small_arch(4, 4)
        state = MappingState(arch)
        _place_chain(state, "a", [(1, 0), (1, 1)])
        _place_chain(state, "b", [(2, 0), (2, 1)])
        state.apply_route("a", "t0", "t1", "ms", ((1, 0), (1, 1)), 100)
        state.apply_route("b", "t0", "t1", "ms", ((2, 0), (2, 1)), 70)
        state.remove_route(("a", "t0", "t1", "ms"))
        state.release_app("a")
        assert state.ledger == state.rebuild_ledger()
        assert state.ledger.load(((2, 0), (2, 1))) == 70
        assert {app for app, _ in state.placement} == {"b"}

    def test_release_unknown_app_rejected(self):
        state = MappingState(small_arch(4, 4))
        with pytest.raises(ValidationError):
            state.release_app("ghost")

    def test_release_refuses_an_app_holding_a_route(self):
        """Only ``remove_route`` releases a route: ``release_app`` on an
        application that still holds one raises ``StateError`` naming it,
        and changes no placement, free set, route or load."""
        state = MappingState(small_arch(4, 4, ra=((2, 2),)))
        _place_chain(state, "a", [(1, 0), (3, 0), (3, 2)])
        state.place("a", Task("h", TaskKind.HARDWARE, 1), (2, 2))
        _place_chain(state, "b", [(0, 1), (0, 3)])
        state.apply_route("a", "t0", "t1", "ms", ((1, 0), (2, 0), (3, 0)), 10)
        state.apply_route("a", "t0", "t2", "ms", ((1, 0), (2, 0), (3, 0), (3, 1), (3, 2)), 5)
        state.apply_route("b", "t0", "t1", "ms", ((0, 1), (0, 2), (0, 3)), 7)
        state.remove_route(("a", "t0", "t1", "ms"))

        def snapshot():
            return (dict(state.placement), {k: set(state.free_tiles(k)) for k in TaskKind},
                    dict(state.routes), state.ledger.copy(), state.ledger.total_load())

        before = snapshot()
        held = re.escape("application 'a' still holds route ('a', 't0', 't2', 'ms')")
        with pytest.raises(StateError, match=held):
            state.release_app("a")
        assert snapshot() == before
        state.remove_route(("a", "t0", "t2", "ms"))
        state.release_app("a")
        assert {app for app, _ in state.placement} == {"b"}
        assert state.free_tiles(TaskKind.HARDWARE) == {(2, 2)}
        assert state.ledger.total_load() == 14

    def test_remove_and_release_match_rebuild(self, monkeypatch):
        """A route's path is resolved to link ids once, when it is pinned;
        ``remove_route`` releases it by the stored ids.  After every step of
        a mixed pin/remove/release sequence the ledger equals a rebuild from
        the surviving routes' paths."""
        resolved = []
        real_on_path = ChannelLoadLedger._on_path

        def counting_on_path(ledger, path):
            resolved.append(tuple(path))
            return real_on_path(ledger, path)

        monkeypatch.setattr(ChannelLoadLedger, "_on_path", counting_on_path)
        arch = small_arch(4, 4)
        state = MappingState(arch)
        _place_chain(state, "a", [(1, 0), (3, 1)])
        _place_chain(state, "b", [(0, 2), (2, 2)])
        _place_chain(state, "c", [(3, 3), (1, 3)])

        def step(call, *args):
            before = len(resolved)
            call(*args)
            assert len(resolved) - before == (call == state.apply_route)
            rebuilt = state.rebuild_ledger()
            assert state.ledger == rebuilt
            assert state.ledger.total_load() == rebuilt.total_load()

        step(state.apply_route, "a", "t0", "t1", "ms", ((1, 0), (2, 0), (3, 0), (3, 1)), 60)
        step(state.apply_route, "a", "t0", "t1", "sm", ((3, 1), (2, 1), (1, 1), (1, 0)), 25)
        step(state.apply_route, "b", "t0", "t1", "ms", ((0, 2), (1, 2), (2, 2)), 9)
        step(state.apply_route, "b", "t0", "t1", "sm", ((2, 2), (2, 1), (1, 1), (0, 1), (0, 2)), 4)
        step(state.remove_route, ("a", "t0", "t1", "sm"))
        assert state.ledger.total_load() == 180 + 18 + 16
        c_there = ((3, 3), (2, 3), (2, 2), (2, 1), (1, 1), (1, 2), (1, 3))
        step(state.apply_route, "c", "t0", "t1", "ms", c_there, 3)
        step(state.remove_route, ("b", "t0", "t1", "ms"))
        step(state.remove_route, ("b", "t0", "t1", "sm"))
        step(state.release_app, "b")
        assert state.ledger.total_load() == 180 + 18
        step(state.apply_route, "c", "t0", "t1", "sm", c_there[::-1], 2)
        step(state.remove_route, ("c", "t0", "t1", "ms"))
        assert list(state.routes) == [("a", "t0", "t1", "ms"), ("c", "t0", "t1", "sm")]
        step(state.remove_route, ("c", "t0", "t1", "sm"))
        step(state.release_app, "c")
        assert state.ledger.total_load() == 180
        assert list(state.routes) == [("a", "t0", "t1", "ms")]

    def test_free_tiles_follow_place_and_release(self):
        """``free_tiles`` gives, for each task kind, the free tiles it may
        run on, after ``place`` and ``release_app`` and after each of them
        fails; it refuses a kind that is not a ``TaskKind``."""
        arch = small_arch(4, 4, ra=((1, 1), (2, 2)))
        state = MappingState(arch)

        def consistent():
            for kind in TaskKind:
                assert state.free_tiles(kind) == set(free_candidates(state, kind)), kind

        consistent()
        _place_chain(state, "a", [(1, 0), (3, 0)])
        state.place("a", Task("h", TaskKind.HARDWARE, 1), (1, 1))
        consistent()
        assert len(state.free_tiles(TaskKind.SOFTWARE)) == 13 - 2
        assert state.free_tiles(TaskKind.HARDWARE) == {(2, 2)}
        hw = Task("h2", TaskKind.HARDWARE, 1)
        for tile, task, error in [
            ((1, 0), Task("t9", TaskKind.SOFTWARE, 1), StateError),  # occupied
            ((2, 0), hw, StateError),  # incompatible
            ((0, 0), Task("t9", TaskKind.SOFTWARE, 1), StateError),  # manager
            ((2, 2), Task("h", TaskKind.HARDWARE, 1), StateError),  # task placed
            ((4, 0), hw, ValidationError),  # off the mesh
            ((2, 2), None, ValidationError),  # not a task
        ]:
            with pytest.raises(error):
                state.place("a", task, tile)
            consistent()
        _place_chain(state, "b", [(0, 1), (0, 3)])
        state.apply_route("b", "t0", "t1", "ms", ((0, 1), (0, 2), (0, 3)), 7)
        with pytest.raises(StateError, match="still holds route"):
            state.release_app("b")
        consistent()
        with pytest.raises(ValidationError):
            state.release_app("ghost")
        consistent()
        state.release_app("a")
        consistent()
        assert state.free_tiles(TaskKind.HARDWARE) == {(1, 1), (2, 2)}
        state.remove_route(("b", "t0", "t1", "ms"))
        state.release_app("b")
        consistent()
        assert len(state.free_tiles(TaskKind.INITIAL)) == 13
        for kind in ("software", None, TileKind.ISP, ["software"]):
            with pytest.raises(ValidationError, match="task kind must be a TaskKind"):
                state.free_tiles(kind)

    def test_tile_free_follows_place_and_release(self):
        """``tile_free`` is False exactly on the tiles placed tasks hold.
        The manager tile holds no task, so it reads as free throughout."""
        arch = small_arch(3, 2, ra=((2, 1),))
        state = MappingState(arch)

        def free():
            return [c for c in arch.coords() if state.tile_free(c)]

        assert free() == list(arch.coords())
        _place_chain(state, "a", [(1, 0), (0, 1)])
        state.place("a", Task("h", TaskKind.HARDWARE, 1), (2, 1))
        assert free() == [(0, 0), (2, 0), (1, 1)]
        state.release_app("a")
        assert free() == list(arch.coords())

    def test_remove_route_roundtrip(self):
        arch = small_arch(4, 4)
        state = MappingState(arch)
        _place_chain(state, "a", [(1, 0), (1, 1)])
        state.apply_route("a", "t0", "t1", "ms", ((1, 0), (1, 1)), 100)
        state.remove_route(("a", "t0", "t1", "ms"))
        assert state.ledger.total_load() == 0
        with pytest.raises(StateError):
            state.remove_route(("a", "t0", "t1", "ms"))


class TestLedgerReconstruction:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_op_sequences(self, seed):
        """Ledger always equals a rebuild from the surviving routes."""
        from nocmap.routing import RoutePolicy, route as route_fn

        rng = random.Random(seed)
        arch = small_arch(4, 4, ra=((2, 2),))
        state = MappingState(arch)
        live: dict[str, list[tuple[str, tuple]]] = {}
        next_app = 0
        for _ in range(rng.randint(5, 30)):
            op = rng.random()
            if op < 0.5 or not live:
                app = f"app{next_app}"
                next_app += 1
                tiles = free_candidates(state, TaskKind.SOFTWARE)
                if len(tiles) < 2:
                    continue
                rng.shuffle(tiles)
                g = chain_app(app_id=app)
                state.place(app, g.tasks[0], tiles[0])
                state.place(app, g.tasks[1], tiles[1])
                path = route_fn(RoutePolicy.XY, tiles[0], tiles[1], state.ledger, arch)
                volume = rng.randint(0, 200)
                state.apply_route(app, "t0", "t1", "ms", path, volume)
                live[app] = [("t0", path)]
            else:
                app = rng.choice(sorted(live))
                state.remove_route((app, "t0", "t1", "ms"))
                state.release_app(app)
                del live[app]
            rebuilt = state.rebuild_ledger()
            assert state.ledger == rebuilt
            assert state.ledger.peak_load() >= 0

    def test_kept_peak_matches_loads(self):
        """A peak the ledger keeps equals ``max`` of its loads through random
        ``add_path``, ``remove_path`` and ``set_load`` calls, zero volumes,
        ``copy`` and removals that fail; a random walk lists some links
        twice.  ``peak_load`` is called at random, so shifts meet both a
        kept and a forgotten peak."""
        seen = set()
        for seed in range(40):
            rng = random.Random(seed)
            arch = small_arch(4, 3)
            ledgers = [ChannelLoadLedger(arch)]
            links = arch.links()
            for _ in range(80):
                ledger = rng.choice(ledgers)
                if rng.random() < 0.5:
                    assert ledger.peak_load() == max(ledger.by_link_id())
                path = [rng.choice(list(arch.coords()))]
                for _ in range(rng.randint(0, 6)):
                    path.append(rng.choice(arch.neighbors(path[-1])))
                steps = list(zip(path, path[1:]))
                volume = rng.choice((0, rng.randint(1, 50)))
                kept = ledger._peak
                op = rng.randrange(4)
                try:
                    if op == 0:
                        ledger.add_path(path, volume)
                    elif op == 1:
                        ledger.remove_path(path, volume)
                    elif op == 2:
                        ledger.set_load(rng.choice(links), rng.randint(0, 80))
                    elif len(ledgers) < 4:
                        ledgers.append(ledger.copy())
                        assert ledgers[-1]._peak == kept
                except StateError:
                    seen.add("failed removal")
                if kept is not None and op < 2 and volume:
                    seen.add(("raised" if ledger._peak > kept else "kept") if ledger._peak
                              is not None else "forgotten")
                    if len(set(steps)) < len(steps):
                        seen.add("link listed twice")
                for each in ledgers:
                    assert each._peak in (None, max(each.by_link_id()))
            for each in ledgers:
                assert each.peak_load() == max(each.by_link_id())
        assert seen == {"failed removal", "raised", "kept", "forgotten", "link listed twice"}

    def test_mesh_without_links_reads_zero(self):
        """A 1x1 mesh has no links: its peak and total are 0 and its
        average 0.0."""
        ledger = ChannelLoadLedger(ArchGraph.uniform(1, 1))
        assert (ledger.peak_load(), ledger.total_load(), ledger.avg_load()) == (0, 0, 0.0)
        assert ledger.copy().peak_load() == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_running_total_matches_loads(self, seed):
        """``total_load`` is kept up to date through random ``add_path``,
        ``remove_path``, ``set_load`` and ``copy`` calls, failed ones
        included, and ``path_peak`` equals the highest load on the path."""
        rng = random.Random(seed)
        arch = small_arch(4, 3)
        ledgers = [ChannelLoadLedger(arch)]
        links = arch.links()
        for _ in range(80):
            ledger = rng.choice(ledgers)
            path = [rng.choice(list(arch.coords()))]
            for _ in range(rng.randint(0, 6)):
                path.append(rng.choice(arch.neighbors(path[-1])))
            if rng.random() < 0.1:
                path.append((arch.width, 0))  # off the mesh: an unknown link
            op = rng.randrange(4)
            try:
                if op == 0:
                    ledger.add_path(path, rng.randint(0, 50))
                elif op == 1:
                    ledger.remove_path(path, rng.randint(0, 50))
                elif op == 2:
                    ledger.set_load(rng.choice(links), rng.randint(0, 80))
                elif len(ledgers) < 4:
                    ledgers.append(ledger.copy())
            except (StateError, ValidationError):
                pass
            for each in ledgers:
                loads = each.loads()
                assert each.total_load() == sum(loads.values())
                assert each.avg_load() == sum(loads.values()) / len(loads)
            on_mesh = path[:-1] if path[-1] == (arch.width, 0) else path
            assert ledger.path_peak(on_mesh) == max(
                (ledger.load(link) for link in zip(on_mesh, on_mesh[1:])), default=0
            )

    def test_failed_path_update_keeps_total(self):
        """A failed ``add_path`` or ``remove_path`` changes no load and not
        the total, also where the links before the failing one are known."""
        ledger = ChannelLoadLedger(small_arch(3, 3))
        loop = ((0, 0), (1, 0), (0, 0), (1, 0))  # repeats the link (0, 0) -> (1, 0)
        ledger.add_path(loop, 4)
        ledger.set_load(((1, 0), (0, 0)), 20)
        ledger.add_path(((1, 0), (1, 1)), 3)
        before = ledger.loads()
        assert ledger.total_load() == 8 + 20 + 3
        down = ((1, 0), (1, 1), (2, 1))
        failures = [
            (ValidationError, "unknown link", lambda: ledger.add_path(loop + ((1, 5),), 10)),
            (ValidationError, "unknown link", lambda: ledger.add_path(down[:2] + ((5, 1),), 1)),
            (ValidationError, "unknown link", lambda: ledger.remove_path(loop + ((2, 1),), 1)),
            # The first link of ``down`` holds 3 and may lose 3; the next holds 0.
            (StateError, "would go negative", lambda: ledger.remove_path(down, 3)),
            # Each visit of the repeated link alone would fit: 8 - 5 >= 0.
            (StateError, "would go negative", lambda: ledger.remove_path(loop, 5)),
            (ValidationError, "unknown link", lambda: ledger.path_peak(((0, 0), (5, 0)))),
        ]
        for error, message, call in failures:
            with pytest.raises(error, match=message):
                call()
            assert ledger.loads() == before
            assert ledger.total_load() == sum(before.values()) == 31
        ledger.remove_path(loop, 4)
        assert ledger.load(((0, 0), (1, 0))) == 0
        assert ledger.total_load() == 31 - 12

    @pytest.mark.parametrize("volume", [-3, 2.5, 1.0, True, "1", None])
    def test_volume_must_be_a_non_negative_integer(self, volume):
        arch = small_arch(3, 3)
        ledger = ChannelLoadLedger(arch)
        path = ((0, 0), (1, 0), (1, 1))
        ledger.add_path(path, 5)
        for call in (
            lambda: ledger.add_path(path, volume),
            lambda: ledger.remove_path(path, volume),
            lambda: ledger.set_load(((0, 0), (1, 0)), volume),
        ):
            with pytest.raises(ValidationError, match="must be a non-negative integer"):
                call()
        assert ledger.loads() == ChannelLoadLedger(arch).loads() | {
            ((0, 0), (1, 0)): 5,
            ((1, 0), (1, 1)): 5,
        }
        assert ledger.total_load() == 10

    def test_unknown_link_rejected_by_every_accessor(self):
        arch = small_arch(3, 3)
        ledger = ChannelLoadLedger(arch)
        off_mesh = ((2, 0), (3, 0))
        not_adjacent = ((0, 0), (1, 1))
        unhashable = [((1, 0), [1, 1]), ([1, 0], (1, 1))]
        for link in (off_mesh, not_adjacent, *unhashable):
            for call in (
                lambda: ledger.load(link),
                lambda: ledger.set_load(link, 1),
                lambda: ledger.path_loads(link),
                lambda: ledger.path_peak(link),
                lambda: ledger.add_path(link, 1),
                lambda: ledger.remove_path(link, 0),
            ):
                with pytest.raises(ValidationError, match="unknown link"):
                    call()
        assert ledger == ChannelLoadLedger(arch)

    def test_loads_follow_link_order(self):
        arch = small_arch(4, 3)
        ledger = random_ledger(arch, 3)
        loads = ledger.loads()
        assert list(loads) == list(arch.links())
        assert list(loads.values()) == [ledger.load(link) for link in arch.links()]

    def test_copy_is_independent(self):
        arch = small_arch(3, 3)
        ledger = random_ledger(arch, 4)
        snapshot = (ledger.loads(), ledger.total_load())
        dup = ledger.copy()
        assert dup == ledger
        dup.add_path(((0, 0), (1, 0), (1, 1)), 9)
        dup.set_load(((2, 2), (2, 1)), 0)
        assert (ledger.loads(), ledger.total_load()) == snapshot
        assert dup != ledger
        ledger.add_path(((0, 0), (0, 1)), 5)
        assert dup.load(((0, 0), (0, 1))) == snapshot[0][((0, 0), (0, 1))]

    def test_ledgers_of_different_meshes_differ(self):
        """2x3 and 3x2 meshes have the same number of links, but not the same links."""
        a, b = ChannelLoadLedger(small_arch(2, 3)), ChannelLoadLedger(small_arch(3, 2))
        assert len(a.loads()) == len(b.loads())
        assert a != b

    def test_add_path_returns_link_ids_in_path_order(self):
        arch = small_arch(3, 3)
        ledger = ChannelLoadLedger(arch)
        path = ((1, 1), (0, 1), (0, 0), (1, 0), (2, 0))
        got = ledger.add_path(path, 7)
        assert got == [arch.link_ids[link] for link in zip(path, path[1:])]
        assert [arch.links()[i] for i in got] == list(zip(path, path[1:]))
        assert ledger.add_path(((2, 2),), 7) == []
        assert ledger.total_load() == 28

    def test_over_release_rejected(self):
        """A release that would take a load below zero raises ``StateError``
        and changes nothing, whether it comes through the ledger or through
        ``remove_route``, which releases by the link ids stored at the pin."""
        arch = small_arch(3, 3)
        ledger = ChannelLoadLedger(arch)
        ledger.add_path(((0, 1), (1, 1)), 50)
        with pytest.raises(StateError):
            ledger.remove_path(((0, 1), (1, 1)), 60)
        assert (ledger.load(((0, 1), (1, 1))), ledger.total_load()) == (50, 50)

        state = MappingState(small_arch(4, 4))
        _place_chain(state, "a", [(1, 0), (3, 0), (3, 2)])
        _place_chain(state, "b", [(0, 1), (0, 3)])
        state.apply_route("a", "t0", "t1", "ms", ((1, 0), (2, 0), (3, 0)), 10)
        state.apply_route("a", "t0", "t2", "ms", ((1, 0), (2, 0), (3, 0), (3, 1), (3, 2)), 5)
        state.apply_route("b", "t0", "t1", "ms", ((0, 1), (0, 2), (0, 3)), 7)

        def rejected(call, *args):
            snapshot = (
                state.ledger.loads(), state.ledger.total_load(), dict(state.routes),
                dict(state.placement), {k: set(state.free_tiles(k)) for k in TaskKind},
            )
            with pytest.raises(StateError, match="would go negative"):
                call(*args)
            assert snapshot == (
                state.ledger.loads(), state.ledger.total_load(), state.routes,
                state.placement, {k: state.free_tiles(k) for k in TaskKind},
            )

        # A link of a's second route only.
        state.ledger.set_load(((3, 1), (3, 2)), 4)
        rejected(state.remove_route, ("a", "t0", "t2", "ms"))
        state.ledger.set_load(((3, 1), (3, 2)), 5)
        assert state.ledger == state.rebuild_ledger()
        state.remove_route(("a", "t0", "t1", "ms"))
        state.remove_route(("a", "t0", "t2", "ms"))
        state.release_app("a")
        assert state.ledger == state.rebuild_ledger()
        assert state.ledger.total_load() == 14
        assert list(state.routes) == [("b", "t0", "t1", "ms")]


@settings(max_examples=200, deadline=None)
@given(
    ax=st.integers(0, 7), ay=st.integers(0, 7),
    bx=st.integers(0, 7), by=st.integers(0, 7),
)
def test_hop_distance_matches_manhattan(ax, ay, bx, by):
    """The fewest hops between two tiles along ``neighbors`` is ``manhattan``."""
    arch = ArchGraph.default_8x8()
    hops = {(ax, ay): 0}
    queue = deque([(ax, ay)])
    while queue:
        u = queue.popleft()
        for v in arch.neighbors(u):
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    assert hops[(bx, by)] == manhattan((ax, ay), (bx, by))
