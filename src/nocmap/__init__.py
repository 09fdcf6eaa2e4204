"""Runtime task mapping and congestion-aware routing on mesh NoC platforms."""

from .model import (
    ArchGraph,
    ChannelLoadLedger,
    Coord,
    Edge,
    MappingState,
    NocError,
    StateError,
    Task,
    TaskGraph,
    TaskKind,
    TileKind,
    ValidationError,
    compatible,
)
from .routing import RoutePolicy, min_load_route, path_cost, route, xy_route
from .heuristics import ClusterGrid, HeuristicEngine, HeuristicKind, MapRequest
from .oracles import route_oracle
from .sim import (
    DeadlockError,
    PlatformParams,
    Scenario,
    SimReport,
    comm_latency,
    compute_energy,
    compute_time,
    simulate,
)
from .workload import GenConfig, generate_workload, parse_workload, serialize_workload

__version__ = "0.1.0"

__all__ = [
    "ArchGraph",
    "ChannelLoadLedger",
    "ClusterGrid",
    "Coord",
    "DeadlockError",
    "Edge",
    "GenConfig",
    "HeuristicEngine",
    "HeuristicKind",
    "MapRequest",
    "MappingState",
    "NocError",
    "PlatformParams",
    "RoutePolicy",
    "Scenario",
    "SimReport",
    "StateError",
    "Task",
    "TaskGraph",
    "TaskKind",
    "TileKind",
    "ValidationError",
    "comm_latency",
    "compatible",
    "compute_energy",
    "compute_time",
    "generate_workload",
    "min_load_route",
    "parse_workload",
    "path_cost",
    "route",
    "route_oracle",
    "serialize_workload",
    "simulate",
    "xy_route",
]
