"""Cold library entry points reject an argument of the wrong type, or a tile
off the mesh, with ``ValidationError``, not with the raw error Python raises
or a result.  The engine passes them only valid data, so the check sits off
its normal path: in an ``except`` clause, or after a test the engine's calls
pass."""
import pytest

from nocmap import path_cost
from nocmap.heuristics import MapRequest, map_channel_load
from nocmap.model import (
    ArchGraph,
    Edge,
    MappingState,
    Task,
    TaskGraph,
    TaskKind,
    TileKind,
    ValidationError,
)
from nocmap.routing import RoutePolicy
from nocmap.sim import PlatformParams, compute_energy, compute_time
from nocmap.workload import generate_workload, serialize_workload

TASK = Task("t", TaskKind.SOFTWARE, 5)
PARAMS = PlatformParams()


def _state():
    return MappingState(ArchGraph.default_8x8())


def _pinnable():
    """A state holding a master on (1, 1) and its slave on (3, 0)."""
    state = _state()
    state.place("a", Task("m", TaskKind.INITIAL, 5), (1, 1))
    state.place("a", Task("s", TaskKind.SOFTWARE, 5), (3, 0))
    return state


GRAPH = TaskGraph("g", [Task("m", TaskKind.INITIAL, 5), TASK], [Edge("m", "t", 1, 1)])


CASES = [
    (lambda: compute_time(None, TileKind.ISP, PARAMS), "^expected a Task"),
    (lambda: compute_time(TASK, "isp", PARAMS), "^expected a TileKind"),
    (lambda: compute_time(TASK, TaskKind.SOFTWARE, PARAMS), "^expected a TileKind"),
    (lambda: compute_time(TASK, TileKind.ISP, None), "^expected a PlatformParams"),
    (lambda: compute_energy("t", TileKind.ISP, PARAMS), "^expected a Task"),
    (lambda: compute_energy(TASK, "isp", PARAMS), "^expected a TileKind"),
    (lambda: compute_energy(TASK, TileKind.ISP, {}), "^expected a PlatformParams"),
    (
        lambda: compute_time(TASK, TileKind.ISP, PlatformParams(cycles_per_instruction={})),
        r"^cycles_per_instruction\[isp\] must be a non-negative integer",
    ),
    (lambda: _state().place("app0", None, (1, 1)), "^task must be a Task"),
    (lambda: _state().place("app0", "t", (1, 1)), "^task must be a Task"),
    (lambda: _state().ledger.add_path(5, 1), "^a path must be a sequence of tiles"),
    (lambda: _state().ledger.remove_path(5, 1), "^a path must be a sequence of tiles"),
    (lambda: _state().ledger.path_peak(5), "^a path must be a sequence of tiles"),
    (lambda: _state().ledger.path_peak(None), "^a path must be a sequence of tiles"),
    (lambda: path_cost(5, _state().ledger), "^a path must be a sequence of tiles"),
    (lambda: _pinnable().apply_route("a", "m", "s", "ms", None, 1), "a path must be a sequence"),
    (lambda: _pinnable().apply_route("a", "m", "s", "ms", 1.5, 1), "a path must be a sequence"),
    (lambda: GRAPH.outgoing("x"), "unknown task 'x'$"),
    (lambda: GRAPH.incoming("x"), "unknown task 'x'$"),
    (lambda: GRAPH.task([1, 0]), r"unknown task \[1, 0\]$"),
    (lambda: ArchGraph.uniform(4, 4, ra=5), "^RA tiles must be an iterable of tiles"),
    (lambda: ArchGraph.default_8x8().count_kind([1, 0]), "^tile kind must be a TileKind"),
    (lambda: ArchGraph.default_8x8().count_kind("isp"), "^tile kind must be a TileKind"),
    (lambda: generate_workload(None), "^expected a GenConfig"),
    (lambda: serialize_workload(None), "^apps must be a sequence of TaskGraph"),
    (lambda: serialize_workload([1]), "^apps must be a sequence of TaskGraph"),
    (
        lambda: map_channel_load(
            MapRequest("a", TASK, (99, 99), 0, 0), _state(), RoutePolicy.XY, False
        ),
        r"^coordinate \(99, 99\) outside the 8x8 mesh",
    ),
]
IDS = [
    "compute_time-task", "compute_time-str-kind", "compute_time-task-kind",
    "compute_time-params", "compute_energy-task", "compute_energy-str-kind",
    "compute_energy-params", "compute_time-empty-table", "place-none-task", "place-str-task", "add_path-int",
    "remove_path-int", "path_peak-int", "path_peak-none", "path_cost-int",
    "apply_route-none-path", "apply_route-float-path", "outgoing-unknown", "incoming-unknown",
    "task-list-id", "uniform-int-ra", "count_kind-list", "count_kind-str",
    "generate_workload-none", "serialize_workload-none", "serialize_workload-int-app",
    "map_channel_load-off-mesh-volume-0",
]


@pytest.mark.parametrize("call, match", CASES, ids=IDS)
def test_wrong_type_is_a_validation_error(call, match):
    with pytest.raises(ValidationError, match=match):
        call()
