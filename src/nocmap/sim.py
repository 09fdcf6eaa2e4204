"""Deterministic discrete-event execution of mapped applications.

The manager admits applications, places their initial tasks, and maps every
other task on the first communication demand to it.  A task waits for all
inbound master->slave transfers, computes, then issues its outbound
communications; slave->master volumes are sent once the slave itself has
computed.  Transfers atomically reserve every directed link of their pinned
route for their whole duration and start at the earliest cycle all links are
free, which makes contention deterministic without flit-level simulation.

A route is pinned when its edge first demands communication and holds its
ledger load until the transfer is delivered (each direction transfers once);
tiles and cluster slots are freed when their application completes, and
queued admissions plus deferred mapping requests are retried at that point.
Identical scenarios produce identical reports and event logs, byte for byte.
"""
from __future__ import annotations

import csv
import heapq
from bisect import insort
from collections import deque
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .heuristics import (
    ClusterGrid,
    HeuristicEngine,
    HeuristicKind,
    MapRequest,
    place_initial,
)
from .model import (
    ArchGraph,
    Coord,
    DIR_MS,
    DIR_SM,
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
    is_int,
)
from .oracles import check_engine
from .routing import RoutePolicy, route


class DeadlockError(NocError):
    """No event can fire but applications are still incomplete."""


@dataclass
class PlatformParams:
    """Timing and energy constants of the platform.

    Defaults: software tiles take 40 cycles and 10 energy units per
    instruction, hardware tiles 20 cycles and 20 units; moving one packet
    across one link costs one energy unit; mapping decisions are free.
    """

    cycles_per_instruction: dict[TileKind, int] = field(
        default_factory=lambda: {TileKind.ISP: 40, TileKind.RA: 20}
    )
    energy_per_instruction: dict[TileKind, int] = field(
        default_factory=lambda: {TileKind.ISP: 10, TileKind.RA: 20}
    )
    energy_per_packet_hop: int = 1
    manager_overhead: int = 0

    def validate(self) -> None:
        values = [("energy_per_packet_hop", self.energy_per_packet_hop),
                  ("manager_overhead", self.manager_overhead)]
        for table in ("cycles_per_instruction", "energy_per_instruction"):
            per_kind = getattr(self, table)
            if not isinstance(per_kind, Mapping):
                raise ValidationError(
                    f"{table} must map tile kinds to integers, got {per_kind!r}"
                )
            values += [(f"{table}[{k.value}]", per_kind.get(k))
                       for k in (TileKind.ISP, TileKind.RA)]
        for name, value in values:
            if not is_int(value) or value < 0:
                raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass
class Scenario:
    """One simulation: a workload, a heuristic and the platform it runs on.

    With ``admission_guard`` (the default) the manager admits an application
    only while the remaining per-kind tile capacity covers the whole task set
    of every running application plus the new one, which guarantees that all
    mapping requests eventually succeed.  Without the guard, admission is
    gated only by the heuristic's own rule (cluster slots, or a free tile
    for the initial task) and oversubscribed platforms can deadlock.
    """

    apps: Sequence[TaskGraph]
    heuristic: HeuristicKind | str
    route_policy: RoutePolicy | str | None = None  # None: the heuristic's default
    params: PlatformParams = field(default_factory=PlatformParams)
    seed: int = 0
    arrivals: Sequence[int] | None = None  # None: all at cycle 0
    arch: ArchGraph | None = None  # None: the default 8x8 platform
    admission_guard: bool = True


class EventRecord(NamedTuple):
    """One event-log row; the fields are the CSV columns, in order."""

    cycle: int
    kind: str
    app: str
    task: str
    location: str
    detail: str

    def fields(self) -> dict[str, str]:
        """``detail`` as a mapping: ``"volume=4;hops=2"`` gives
        ``{"volume": "4", "hops": "2"}``; an empty detail gives ``{}``."""
        return dict(kv.split("=") for kv in self.detail.split(";") if kv)


_EVENT_KIND_ORDER = {
    k: i
    for i, k in enumerate(
        (
            "arrival",
            "admit",
            "map",
            "map_deferred",
            "compute_start",
            "compute_end",
            "comm_start",
            "comm_end",
            "app_done",
            "release",
        )
    )
}

EVENT_LOG_HEADER = ("cycle", "kind", "app", "task", "location", "detail")


@dataclass
class SimReport:
    heuristic: str
    seed: int
    app_count: int
    makespan: int
    total_energy: int
    energy_compute: int
    energy_comm: int
    peak_link_load: int
    avg_link_load: float
    mapping_evaluations: int
    per_app_finish: dict[str, int]
    queue_wait: dict[str, int]
    max_held_clusters: int
    event_log: list[EventRecord]

    @property
    def max_queue_wait(self) -> int:
        return max(self.queue_wait.values(), default=0)


def compute_time(task: Task, tile_kind: TileKind, params: PlatformParams) -> int:
    """Cycles to run the task on a tile of the given kind."""
    return _per_instruction(task, tile_kind, params, "cycles_per_instruction")


def compute_energy(task: Task, tile_kind: TileKind, params: PlatformParams) -> int:
    """Energy units consumed by running the task on the given tile kind."""
    return _per_instruction(task, tile_kind, params, "energy_per_instruction")


def _per_instruction(task: Task, tile_kind: TileKind, params: PlatformParams, table: str) -> int:
    """``task.instructions`` times ``tile_kind``'s entry in the ``params``
    table named ``table``.  Raises ``ValidationError`` for a wrong-typed
    argument or a bad table, else ``StateError``: the tile cannot run it."""
    try:
        if compatible(task.kind, tile_kind):
            return task.instructions * getattr(params, table)[tile_kind]
    except (AttributeError, KeyError, TypeError):
        pass
    for value, cls in zip((task, tile_kind, params), (Task, TileKind, PlatformParams)):
        if not isinstance(value, cls):
            raise ValidationError(f"expected a {cls.__name__}, got {value!r}")
    params.validate()
    raise StateError(f"task kind {task.kind.value} cannot run on {tile_kind.value}")


def comm_latency(volume: int, hops: int) -> int:
    """Cycles to deliver a pipelined packet stream over a fixed route.

    The head packet needs one cycle per hop and the remaining volume - 1
    packets stream behind it, so the latency is hops + volume - 1.  A wait
    for the links is not part of it: it delays the transfer's start cycle.
    """
    if not (is_int(volume) and is_int(hops)):
        raise ValidationError(f"volume and hops must be integers, got {volume!r} and {hops!r}")
    if volume < 1:
        raise ValidationError(f"volume must be >= 1, got {volume}")
    if hops < 1:
        raise StateError(f"a transfer of {volume} packets needs at least one hop")
    return hops + volume - 1


class LinkSchedule:
    """Whole-route atomic link reservations.

    Each transfer holds every directed link on its path for its entire
    duration.  ``earliest_start`` finds the first cycle at or after the ready
    time where all links are simultaneously free for the duration, so gaps
    between existing reservations are used.  Links are only dictionary
    keys: the engine names them by link id (``ArchGraph.link_ids``), as its
    pinned routes store them, but any hashable key works.

    ``ready`` must not decrease from one ``earliest_start`` call to the next
    (the engine passes its clock); a call that breaks this raises
    ``StateError``.  A reservation that ends at or before ``ready`` can then
    never conflict again, so each call drops those on the links it reads.
    The reservations of one link never overlap, so kept sorted by start they
    are sorted by end too: the dropped ones are a prefix, and a scan stops at
    the first reservation that starts at or after the window's end.  Each
    call therefore reads only what lies ahead of the clock, not the whole
    history.
    """

    def __init__(self) -> None:
        self._busy: dict[Hashable, list[tuple[int, int]]] = {}
        self._clock = 0

    def earliest_start(self, links: Iterable[Hashable], ready: int, duration: int) -> int:
        if ready < self._clock:
            raise StateError(f"ready cycle {ready} is before an earlier call's {self._clock}")
        self._clock = ready
        held = []
        for link in links:
            spans = self._busy.get(link)
            if spans:
                passed = 0
                while passed < len(spans) and spans[passed][1] <= ready:
                    passed += 1
                del spans[:passed]
                held.append(spans)
        t = ready
        while True:
            bumped = t
            for spans in held:
                for s, e in spans:
                    if s >= bumped + duration:
                        break
                    if e > bumped:
                        bumped = e
            if bumped == t:
                return t
            t = bumped

    def reserve(self, links: Iterable[Hashable], start: int, duration: int) -> None:
        span = (start, start + duration)
        for link in links:
            insort(self._busy.setdefault(link, []), span)

    def spans(self) -> Mapping[Hashable, Sequence[tuple[int, int]]]:
        """Each link's (start, end) reservations not yet dropped, by start."""
        return self._busy


class _AppRun:
    """Bookkeeping for one application instance inside the engine.

    ``demand`` counts the tiles of each kind the application will occupy.
    ``waiting[tid]`` counts the inbound edges task ``tid`` still needs; it
    computes when that reaches 0.  ``outstanding`` counts the compute ends
    and transfers still to come; the application is done when it reaches 0.
    """

    def __init__(self, index: int, graph: TaskGraph, arrival: int):
        self.index = index
        self.graph = graph
        self.arrival = arrival
        self.demand = {TileKind.ISP: 0, TileKind.RA: 0}
        for t in graph.tasks:
            self.demand[TileKind.RA if t.kind is TaskKind.HARDWARE else TileKind.ISP] += 1
        self.admitted_at: int | None = None
        self.finished_at: int | None = None
        self.cluster: int | None = None
        self.waiting = {t.id: len(graph.incoming(t.id)) for t in graph.tasks}
        self.outstanding = len(graph.tasks) + sum((e.vms >= 1) + (e.vsm >= 1) for e in graph.edges)


# Same-cycle events fire in rank order; ``run`` dispatches on the rank as an
# index into its handler tuple.
_RANK_COMM_END = 0
_RANK_COMPUTE_END = 1
_RANK_COMM_READY = 2
_RANK_ARRIVAL = 3


def _check_types(s: Scenario) -> None:
    """Raise ``ValidationError`` if ``s`` is not a ``Scenario``, or naming
    its first field of the wrong type."""
    if not isinstance(s, Scenario):
        raise ValidationError(f"a scenario must be a Scenario, got {s!r}")
    apps_ok = isinstance(s.apps, Sequence) and all(isinstance(g, TaskGraph) for g in s.apps)
    for name, ok, want in (
        ("apps", apps_ok, "a sequence of TaskGraph"),
        ("arrivals", s.arrivals is None or isinstance(s.arrivals, Sequence), "None or a sequence"),
        ("params", isinstance(s.params, PlatformParams), "a PlatformParams"),
        ("arch", s.arch is None or isinstance(s.arch, ArchGraph), "None or an ArchGraph"),
        ("admission_guard", isinstance(s.admission_guard, bool), "a bool"),
        ("seed", is_int(s.seed), "an integer"),
    ):
        if not ok:
            raise ValidationError(f"{name} must be {want}, got {getattr(s, name)!r}")


class _Engine:
    def __init__(self, scenario: Scenario):
        _check_types(scenario)
        self.scenario = scenario
        self.arch = scenario.arch or ArchGraph.default_8x8()
        self.params = scenario.params
        self.params.validate()
        apps = list(scenario.apps)
        if not apps:
            raise ValidationError("scenario needs at least one application")
        if len({g.app_id for g in apps}) != len(apps):
            raise ValidationError("application ids must be unique within a scenario")
        arrivals = [0] * len(apps) if scenario.arrivals is None else list(scenario.arrivals)
        if len(arrivals) != len(apps):
            raise ValidationError("arrivals must match the application count")
        if not all(is_int(a) and a >= 0 for a in arrivals):
            raise ValidationError(f"arrival cycles must be non-negative integers, got {arrivals}")
        self.apps = [_AppRun(i, g, arrivals[i]) for i, g in enumerate(apps)]
        self.free = self._check_platform_coverage()
        self.h = HeuristicEngine(scenario.heuristic, scenario.route_policy)
        self.grid = ClusterGrid.for_mesh(self.arch) if self.h.kind is HeuristicKind.SPIRAL else None
        self.by_id = {r.graph.app_id: r for r in self.apps}
        self.state = MappingState(self.arch)
        self.links_sched = LinkSchedule()
        self.heap: list[tuple[int, int, tuple]] = []
        self.queue: deque[int] = deque()
        self.deferred: dict[tuple[str, str, str], tuple[_AppRun, Edge]] = {}
        self.held: set[int] = set()
        self.max_held = 0
        self.released = False
        self.pump = False
        self.energy_compute = 0
        self.energy_comm = 0
        self.peak_seen = 0
        self.avg_seen = 0.0
        # Rows as ``_log`` appends them; ``_report`` turns them into records.
        self.events: list = []
        self.tile_text = {c: f"{c[0]},{c[1]}" for c in self.arch.coords()}
        # Each transfer's task and location text, by route key, from its
        # ``comm_start`` row to its ``comm_end`` row.
        self.comm_text: dict[tuple[str, str, str, str], tuple[str, str]] = {}

    def _check_platform_coverage(self) -> dict[TileKind, int]:
        """Free tiles of each kind; raise if some application can never fit."""
        kinds = {t.kind for r in self.apps for t in r.graph.tasks}
        for task_kind in sorted(kinds, key=lambda k: k.value):
            if not self.arch.tiles_for(task_kind):
                raise ValidationError(
                    f"platform has no compatible tiles for {task_kind.value} tasks"
                )
        free = {k: self.arch.count_kind(k) for k in (TileKind.ISP, TileKind.RA)}
        for r in self.apps:
            for kind, need in r.demand.items():
                if need > free[kind]:
                    raise ValidationError(
                        f"application {r.graph.app_id!r} needs {need} {kind.value} tiles "
                        f"but the platform has {free[kind]}"
                    )
        return free

    def _log(self, cycle: int, kind: str, app: str, task: str, location: str, detail: str) -> None:
        """Append one row: the sort fields of ``_report``, the row's
        position in logging order, then the rest of its record."""
        events = self.events
        events.append(
            (cycle, _EVENT_KIND_ORDER[kind], app, task, location, len(events), kind, detail)
        )

    # -- event handlers -------------------------------------------------

    def run(self, check: bool = False) -> SimReport:
        """Fire every event; with ``check``, run ``check_engine`` after each
        batch of same-cycle events."""
        handlers = (self._on_comm_end, self._on_compute_end, self._on_comm_ready, self._on_arrival)
        for r in self.apps:
            heapq.heappush(self.heap, (r.arrival, _RANK_ARRIVAL, (r.index,)))
        while self.heap:
            t = self.heap[0][0]
            while self.heap and self.heap[0][0] == t:
                _, rank, key = heapq.heappop(self.heap)
                handlers[rank](t, *key)
            self._housekeeping(t)
            if check:
                check_engine(self)
        unfinished = [r.graph.app_id for r in self.apps if r.finished_at is None]
        if unfinished:
            raise DeadlockError(
                "simulation stalled: "
                f"unfinished apps {unfinished}, queued {list(self.queue)}, "
                f"deferred {sorted(self.deferred)}"
            )
        return self._report()

    def _on_arrival(self, t: int, index: int) -> None:
        self._log(t, "arrival", self.apps[index].graph.app_id, "", "", "")
        self.queue.append(index)
        self.pump = True

    def _on_compute_end(self, t: int, app_id: str, tid: str) -> None:
        run = self.by_id[app_id]
        tile = self.state.task_tile(app_id, tid)
        task = run.graph.task(tid)
        energy = compute_energy(task, self.arch.kind(tile), self.params)
        self.energy_compute += energy
        self._log(
            t, "compute_end", app_id, tid, self.tile_text[tile],
            f"instructions={task.instructions};energy={energy}",
        )
        for edge in run.graph.incoming(tid):
            if edge.vsm >= 1:
                self._pin_route(t, app_id, edge, DIR_SM)
        for edge in run.graph.outgoing(tid):
            self._activate_edge(run, edge, t)
        self._count_down(run, t)

    def _on_comm_ready(self, t: int, app_id: str, mtid: str, stid: str, direction: str) -> None:
        key = (app_id, mtid, stid, direction)
        path, volume, links = self.state.routes[key]
        hops = len(links)
        duration = comm_latency(volume, hops)
        start = self.links_sched.earliest_start(links, t, duration)
        self.links_sched.reserve(links, start, duration)
        tile_text = self.tile_text
        label, span = self.comm_text[key] = (
            f"{mtid}->{stid}:{direction}", f"{tile_text[path[0]]}->{tile_text[path[-1]]}"
        )
        self._log(
            start, "comm_start", app_id, label, span,
            f"volume={volume};hops={hops};wait={start - t}",
        )
        heapq.heappush(self.heap, (start + duration, _RANK_COMM_END, key))

    def _on_comm_end(self, t: int, app_id: str, mtid: str, stid: str, direction: str) -> None:
        run = self.by_id[app_id]
        key = (app_id, mtid, stid, direction)
        _, volume, links = self.state.routes[key]
        hops = len(links)
        energy = volume * hops * self.params.energy_per_packet_hop
        self.energy_comm += energy
        label, span = self.comm_text.pop(key)
        self._log(
            t, "comm_end", app_id, label, span, f"volume={volume};hops={hops};energy={energy}"
        )
        # One transfer per direction: the delivered route releases its links.
        self.state.remove_route(key)
        if direction == DIR_MS:
            self._edge_delivered(run, stid, t)
        self._count_down(run, t)

    # -- mapping and admission -------------------------------------------

    def _activate_edge(self, run: _AppRun, edge: Edge, t: int) -> None:
        """Map the slave of ``edge`` if it has no tile yet, then start its
        master->slave transfer; defer the edge while no tile is free."""
        app_id = run.graph.app_id
        key = (app_id, edge.mtid, edge.stid)
        if self.state.task_tile(app_id, edge.stid) is None:
            master_tile = self.state.task_tile(app_id, edge.mtid)
            req = MapRequest(app_id, run.graph.task(edge.stid), master_tile, edge.vms, edge.vsm)
            slave_tile, examined = self._place(req)
            if slave_tile is None:
                if key not in self.deferred:
                    self.deferred[key] = (run, edge)
                    self._log(t, "map_deferred", app_id, edge.stid, "", f"examined={examined}")
                return
            self.state.place(app_id, req.task, slave_tile)
            self._log(
                t, "map", app_id, edge.stid, self.tile_text[slave_tile], f"examined={examined}"
            )
            t += self.params.manager_overhead
        self.deferred.pop(key, None)
        # The slave->master route is pinned later, when the slave has computed
        # and actually issues that transfer.
        if edge.vms >= 1:
            self._pin_route(t, app_id, edge, DIR_MS)
        else:
            self._edge_delivered(run, edge.stid, t)

    def _place(self, req: MapRequest) -> tuple[Coord | None, int]:
        """The heuristic's tile for ``req`` and the candidates it examined."""
        before = self.h.evaluations
        tile = self.h.place(req, self.state)
        return tile, self.h.evaluations - before

    def _pin_route(self, t: int, app_id: str, edge: Edge, direction: str) -> None:
        """Route one direction of ``edge`` on the current ledger, pin it and
        queue its transfer as ready at cycle ``t``.

        Placement writes nothing: pins and deliveries are the ledger's
        only writers, and only pins raise loads, so the running
        peak and average are sampled here.  The running peak is exact from
        the pinned path alone: a link's load is at its highest right after
        the pin that last raised it, and that pin sampled it.  It is read
        through the link ids stored with the route, in O(path), and the
        average is O(1) from the ledger's running total."""
        m_tile = self.state.task_tile(app_id, edge.mtid)
        s_tile = self.state.task_tile(app_id, edge.stid)
        if direction == DIR_MS:
            src, dst, volume = m_tile, s_tile, edge.vms
        else:
            src, dst, volume = s_tile, m_tile, edge.vsm
        ledger = self.state.ledger
        path = route(self.h.route_policy, src, dst, ledger, self.arch)
        key = (app_id, edge.mtid, edge.stid, direction)
        self.state.apply_route(*key, path, volume)
        load = ledger.by_link_id()
        links = self.state.routes[key][2]
        self.peak_seen = max(self.peak_seen, max(map(load.__getitem__, links), default=0))
        self.avg_seen = max(self.avg_seen, ledger.avg_load())
        heapq.heappush(self.heap, (t, _RANK_COMM_READY, key))

    def _edge_delivered(self, run: _AppRun, tid: str, t: int) -> None:
        run.waiting[tid] -= 1
        if not run.waiting[tid]:
            self._start_compute(run, tid, t)

    def _start_compute(self, run: _AppRun, tid: str, t: int) -> None:
        app_id = run.graph.app_id
        tile = self.state.task_tile(app_id, tid)
        task = run.graph.task(tid)
        cycles = compute_time(task, self.arch.kind(tile), self.params)
        self._log(t, "compute_start", app_id, tid, self.tile_text[tile], f"cycles={cycles}")
        heapq.heappush(self.heap, (t + cycles, _RANK_COMPUTE_END, (app_id, tid)))

    def _count_down(self, run: _AppRun, t: int) -> None:
        """Count one compute end or transfer of ``run`` as done; after the
        last, the application completes and frees its tiles and cluster."""
        run.outstanding -= 1
        if run.outstanding:
            return
        run.finished_at = t
        app_id = run.graph.app_id
        self._log(t, "app_done", app_id, "", "", f"finish={t}")
        self.state.release_app(app_id)
        if run.cluster is not None:
            self.held.discard(run.cluster)
        for kind, n in run.demand.items():
            self.free[kind] += n
        self._log(t, "release", app_id, "", "", "")
        self.released = self.pump = True

    def _housekeeping(self, t: int) -> None:
        if self.released:
            self._retry_deferred(t)
        if self.pump:
            self._admit_from_queue(t)
        self.released = self.pump = False

    def _retry_deferred(self, t: int) -> None:
        for key in sorted(self.deferred):
            self._activate_edge(*self.deferred[key], t)

    def _admit_from_queue(self, t: int) -> None:
        while self.queue:
            run = self.apps[self.queue[0]]
            graph = run.graph
            initial = graph.initial
            cluster: int | None = None
            if self.scenario.admission_guard and any(
                n > self.free[kind] for kind, n in run.demand.items()
            ):
                break
            if self.grid is not None:
                res = place_initial(self.grid, self.held, self.state)
                if res is None:
                    break
                cluster, tile, examined = res
                self.h.evaluations += examined
            else:
                req = MapRequest(graph.app_id, initial, self.arch.manager, 0, 0)
                tile, examined = self._place(req)
                if tile is None:
                    break
            self.queue.popleft()
            self.state.place(graph.app_id, initial, tile)
            run.admitted_at = t
            run.cluster = cluster
            for kind, n in run.demand.items():
                self.free[kind] -= n
            detail = f"wait={t - run.arrival}"
            if cluster is not None:
                self.held.add(cluster)
                self.max_held = max(self.max_held, len(self.held))
                detail += f";cluster={cluster}"
            self._log(t, "admit", graph.app_id, "", "", detail)
            self._log(
                t, "map", graph.app_id, initial.id, self.tile_text[tile], f"examined={examined}"
            )
            self._start_compute(run, initial.id, t + self.params.manager_overhead)

    # -- reporting --------------------------------------------------------

    def _report(self) -> SimReport:
        """The run's report.  The event log is ordered by cycle, then kind
        in ``_EVENT_KIND_ORDER``, then app, task and location; rows tied on
        all of these keep their logging order.  The rows are sorted and
        made records in place, so no second list of the log is built."""
        events = self.events
        events.sort()
        for i, (cycle, _, app, task, location, _, kind, detail) in enumerate(events):
            events[i] = EventRecord(cycle, kind, app, task, location, detail)
        return SimReport(
            heuristic=self.h.kind.value,
            seed=self.scenario.seed,
            app_count=len(self.apps),
            makespan=max(r.finished_at for r in self.apps),
            total_energy=self.energy_compute + self.energy_comm,
            energy_compute=self.energy_compute,
            energy_comm=self.energy_comm,
            peak_link_load=self.peak_seen,
            avg_link_load=self.avg_seen,
            mapping_evaluations=self.h.evaluations,
            per_app_finish={r.graph.app_id: r.finished_at for r in self.apps},
            queue_wait={r.graph.app_id: r.admitted_at - r.arrival for r in self.apps},
            max_held_clusters=self.max_held,
            event_log=events,
        )


def simulate(scenario: Scenario, check: bool = False) -> SimReport:
    """Run one scenario to completion and return its metrics and event log.

    With ``check``, ``nocmap.oracles.check_engine`` runs after every batch of
    same-cycle events and raises ``InvariantError`` on the first broken
    invariant; the report and event log are the same as without it.
    ``check`` must be a ``bool``.
    """
    if not isinstance(check, bool):
        raise ValidationError(f"check must be a bool, got {check!r}")
    return _Engine(scenario).run(check)


def write_event_log(events: Iterable[EventRecord], path: str) -> None:
    """Write the event log as UTF-8 CSV with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EVENT_LOG_HEADER)
        writer.writerows(events)
