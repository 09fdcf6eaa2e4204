import random
from typing import Iterable

import pytest

from nocmap import sim as sim_module
from nocmap.model import (
    ArchGraph,
    DirectedLink,
    Edge,
    MappingState,
    StateError,
    Task,
    TaskGraph,
    TaskKind,
    TileKind,
    ValidationError,
)
from nocmap.sim import (
    EVENT_LOG_HEADER,
    DeadlockError,
    EventRecord,
    LinkSchedule,
    PlatformParams,
    Scenario,
    _Engine,
    comm_latency,
    compute_energy,
    compute_time,
    simulate,
    write_event_log,
)
from nocmap.routing import RoutePolicy
from nocmap.workload import GenConfig, generate_workload

from conftest import chain_app, small_arch
from test_golden import golden_scenario


def single_task_app(app_id="app0"):
    return TaskGraph(app_id, [Task("t0", TaskKind.INITIAL, 100)], [])


class TestComputeModel:
    def test_software_timing(self):
        p = PlatformParams()
        assert compute_time(Task("t", TaskKind.SOFTWARE, 100), TileKind.ISP, p) == 4000
        assert compute_time(Task("t", TaskKind.INITIAL, 100), TileKind.ISP, p) == 4000

    def test_hardware_timing(self):
        p = PlatformParams()
        assert compute_time(Task("t", TaskKind.HARDWARE, 100), TileKind.RA, p) == 2000

    def test_energy(self):
        p = PlatformParams()
        assert compute_energy(Task("t", TaskKind.SOFTWARE, 100), TileKind.ISP, p) == 1000
        assert compute_energy(Task("t", TaskKind.HARDWARE, 100), TileKind.RA, p) == 2000

    def test_incompatible_rejected(self):
        p = PlatformParams()
        with pytest.raises(StateError):
            compute_time(Task("t", TaskKind.SOFTWARE, 100), TileKind.RA, p)
        with pytest.raises(StateError):
            compute_energy(Task("t", TaskKind.HARDWARE, 100), TileKind.ISP, p)


def pipelined_stream_cycles(volume, hops):
    """Cycle-accurate toy: packets enter one per cycle and advance one link
    per cycle; returns the cycle the last packet leaves the final link."""
    arrivals = []
    for packet in range(volume):
        enter = packet  # one injection per cycle
        arrivals.append(enter + hops)
    return max(arrivals)


class TestCommLatency:
    def test_hundred_packets_three_hops(self):
        assert comm_latency(100, 3) == 102

    def test_single_packet_single_hop(self):
        assert comm_latency(1, 1) == 1

    def test_zero_hops_rejected(self):
        with pytest.raises(StateError):
            comm_latency(5, 0)

    def test_zero_volume_rejected(self):
        with pytest.raises(ValidationError):
            comm_latency(0, 3)

    @pytest.mark.parametrize("volume,hops", [(1, 1), (5, 2), (100, 3), (17, 9)])
    def test_matches_cycle_accurate_toy(self, volume, hops):
        assert comm_latency(volume, hops) == pipelined_stream_cycles(volume, hops)


class FullHistoryLinkSchedule:
    """Link schedule that keeps and rescans every reservation ever made.

    Same interface and answers as ``sim.LinkSchedule``, for any ``ready``
    order: a start is bumped to the end of each reservation that overlaps
    its window until none does.
    """

    def __init__(self) -> None:
        self._busy: dict[DirectedLink, list[tuple[int, int]]] = {}

    def earliest_start(self, links: Iterable[DirectedLink], ready: int, duration: int) -> int:
        links = list(links)
        t = ready
        while True:
            bumped = t
            for link in links:
                for s, e in self._busy.get(link, ()):
                    if s < bumped + duration and e > bumped:
                        bumped = max(bumped, e)
            if bumped == t:
                return t
            t = bumped

    def reserve(self, links: Iterable[DirectedLink], start: int, duration: int) -> None:
        for link in links:
            spans = self._busy.setdefault(link, [])
            spans.append((start, start + duration))
            spans.sort()


class TestLinkSchedule:
    def test_second_stream_waits_for_shared_link(self):
        sched = LinkSchedule()
        shared = (((0, 0), (1, 0)),)
        sched.reserve(shared, 0, 100)
        assert sched.earliest_start(shared, 0, 50) == 100

    def test_disjoint_links_run_in_parallel(self):
        sched = LinkSchedule()
        sched.reserve((((0, 0), (1, 0)),), 0, 100)
        assert sched.earliest_start((((5, 5), (5, 6)),), 0, 100) == 0

    def test_gap_filling(self):
        sched = LinkSchedule()
        link = (((0, 0), (1, 0)),)
        sched.reserve(link, 0, 10)
        sched.reserve(link, 50, 10)
        assert sched.earliest_start(link, 0, 20) == 10
        assert sched.earliest_start(link, 0, 45) == 60

    def test_multi_link_alignment(self):
        sched = LinkSchedule()
        a = ((0, 0), (1, 0))
        b = ((1, 0), (2, 0))
        sched.reserve([a], 0, 30)
        sched.reserve([b], 40, 30)
        # both links must be simultaneously free for 20 cycles
        assert sched.earliest_start([a, b], 0, 20) == 70

    def test_span_ending_at_ready_is_dropped(self):
        sched = LinkSchedule()
        link = ((0, 0), (1, 0))
        sched.reserve([link], 0, 10)
        sched.reserve([link], 30, 10)
        assert sched.earliest_start([link], 10, 5) == 10
        assert sched.spans()[link] == [(30, 40)]

    def test_span_ending_after_ready_still_blocks(self):
        sched = LinkSchedule()
        link = ((0, 0), (1, 0))
        sched.reserve([link], 0, 11)
        assert sched.earliest_start([link], 10, 5) == 11
        assert sched.spans()[link] == [(0, 11)]

    def test_ready_going_backwards_rejected(self):
        sched = LinkSchedule()
        link = ((0, 0), (1, 0))
        assert sched.earliest_start([link], 10, 5) == 10
        with pytest.raises(StateError):
            sched.earliest_start([link], 9, 5)

    @pytest.mark.parametrize("by_id", [False, True], ids=["coords", "ids"])
    def test_matches_full_history_oracle(self, by_id):
        """Seeded random call sequences over the sub-paths of a 4-link route,
        reserving at every answer.  Transfers arrive faster than the links
        drain them, so links hold dozens of reservations ahead of the clock.
        The links are named by coordinates, or by id as the engine names them."""
        links = [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (3, 0)), ((3, 0), (3, 1))]
        if by_id:
            links = [ArchGraph.uniform(4, 2).link_ids[link] for link in links]
        for seed in range(200):
            rng = random.Random(seed)
            sched, oracle = LinkSchedule(), FullHistoryLinkSchedule()
            ready = 0
            for step in range(300):
                ready += rng.choice((0, 0, 1, 2, 5, 20))
                first = rng.randrange(len(links))
                route = links[first:rng.randint(first + 1, len(links))]
                duration = rng.randint(1, 40)
                want = oracle.earliest_start(route, ready, duration)
                got = sched.earliest_start(route, ready, duration)
                assert got == want, f"seed {seed} step {step}: {got} != oracle {want}"
                sched.reserve(route, got, duration)
                oracle.reserve(route, got, duration)


class TestSimulateBasics:
    @pytest.mark.parametrize("heuristic", ["spiral", "nn", "ff"])
    def test_single_initial_task(self, heuristic):
        r = simulate(Scenario(apps=[single_task_app()], heuristic=heuristic))
        assert r.makespan == 4000
        assert r.total_energy == 1000
        assert r.energy_compute == 1000
        assert r.energy_comm == 0
        assert r.max_queue_wait == 0
        assert r.per_app_finish == {"app0": 4000}

    def test_two_task_hardware_app(self):
        g = TaskGraph(
            "app0",
            [Task("t0", TaskKind.INITIAL, 100), Task("t1", TaskKind.HARDWARE, 100)],
            [Edge("t0", "t1", 100, 100)],
        )
        r = simulate(Scenario(apps=[g], heuristic="spiral"))
        assert r.makespan == 6200
        assert r.energy_compute == 3000
        assert r.energy_comm == 200
        assert r.total_energy == 3200
        by_kind = {}
        for e in r.event_log:
            by_kind.setdefault(e.kind, []).append(e)
        slave_compute = [e for e in by_kind["compute_end"] if e.task == "t1"][0]
        d = slave_compute.fields()
        assert int(d["energy"]) == 2000
        starts = [e for e in by_kind["compute_start"] if e.task == "t1"][0]
        assert int(starts.fields()["cycles"]) == 2000

    def test_contention_serializes_shared_link(self):
        arch = ArchGraph.uniform(4, 1, manager=(3, 0))
        g = TaskGraph(
            "app0",
            [
                Task("t0", TaskKind.INITIAL, 100),
                Task("t1", TaskKind.SOFTWARE, 100),
                Task("t2", TaskKind.SOFTWARE, 100),
            ],
            [Edge("t0", "t1", 100, 0), Edge("t0", "t2", 100, 0)],
        )
        r = simulate(Scenario(apps=[g], heuristic="ff", arch=arch))
        comm_starts = {e.task: e for e in r.event_log if e.kind == "comm_start"}
        first = comm_starts["t0->t1:ms"]
        second = comm_starts["t0->t2:ms"]
        assert first.cycle == 4000 and first.fields()["wait"] == "0"
        assert second.cycle == 4100 and second.fields()["wait"] == "100"

    def test_manager_overhead_shifts_start(self):
        params = PlatformParams(manager_overhead=5)
        r = simulate(Scenario(apps=[single_task_app()], heuristic="spiral", params=params))
        assert r.makespan == 4005

    def test_explicit_arrivals(self):
        apps = [single_task_app("app0"), single_task_app("app1")]
        r = simulate(Scenario(apps=apps, heuristic="spiral", arrivals=[0, 100]))
        assert r.per_app_finish == {"app0": 4000, "app1": 4100}

    def test_hardware_task_without_ra_tiles_rejected(self):
        arch = ArchGraph.uniform(3, 3)
        g = TaskGraph(
            "app0",
            [Task("t0", TaskKind.INITIAL, 100), Task("t1", TaskKind.HARDWARE, 100)],
            [Edge("t0", "t1", 100, 100)],
        )
        with pytest.raises(ValidationError, match="no compatible tiles for hardware tasks"):
            simulate(Scenario(apps=[g], heuristic="spiral", arch=arch))

    def test_duplicate_app_ids_rejected(self):
        apps = [single_task_app("app0"), single_task_app("app0")]
        with pytest.raises(ValidationError):
            simulate(Scenario(apps=apps, heuristic="nn"))

    def test_app_larger_than_platform_rejected(self):
        arch = small_arch(2, 2)
        tasks = [Task("t0", TaskKind.INITIAL, 1)] + [
            Task(f"t{i}", TaskKind.SOFTWARE, 1) for i in range(1, 5)
        ]
        edges = [Edge("t0", f"t{i}", 1, 0) for i in range(1, 5)]
        g = TaskGraph("big", tasks, edges)
        with pytest.raises(ValidationError, match="needs 5 isp tiles"):
            simulate(Scenario(apps=[g], heuristic="nn", arch=arch))

    def test_empty_scenario_rejected(self):
        with pytest.raises(ValidationError):
            simulate(Scenario(apps=[], heuristic="nn"))

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValidationError, match="unknown heuristic 'bogus'"):
            simulate(Scenario(apps=[single_task_app()], heuristic="bogus"))

    def test_route_policy_by_name(self):
        apps = generate_workload(GenConfig(app_count=3, seed=2))
        logs = {
            policy: simulate(Scenario(apps=apps, heuristic="nn", route_policy=policy)).event_log
            for policy in ("xy", RoutePolicy.XY, "mdijkstra", RoutePolicy.MIN_LOAD)
        }
        assert logs["xy"] == logs[RoutePolicy.XY]
        assert logs["mdijkstra"] == logs[RoutePolicy.MIN_LOAD]
        assert logs["xy"] != logs["mdijkstra"]

    def test_unknown_route_policy_rejected(self):
        with pytest.raises(ValidationError, match="unknown route policy 'bogus'.*xy, mdijkstra"):
            simulate(Scenario(apps=[single_task_app()], heuristic="nn", route_policy="bogus"))

    @pytest.mark.parametrize("arrival", [1.5, True, "5", -1])
    def test_non_integer_arrival_rejected(self, arrival):
        apps = [single_task_app("app0"), single_task_app("app1")]
        with pytest.raises(ValidationError, match="arrival cycles"):
            simulate(Scenario(apps=apps, heuristic="nn", arrivals=[arrival, 0]))

    @pytest.mark.parametrize(
        "params",
        [
            {"manager_overhead": 2.5},
            {"manager_overhead": True},
            {"energy_per_packet_hop": 1.0},
            {"cycles_per_instruction": {TileKind.ISP: 40.0, TileKind.RA: 20}},
            {"energy_per_instruction": {TileKind.ISP: 10, TileKind.RA: "20"}},
            {"cycles_per_instruction": {TileKind.ISP: 40}},
            {"manager_overhead": -1},
        ],
    )
    def test_non_integer_params_rejected(self, params):
        with pytest.raises(ValidationError, match="must be a non-negative integer"):
            simulate(Scenario(apps=[single_task_app()], heuristic="nn",
                              params=PlatformParams(**params)))

    @pytest.mark.parametrize("table", ["cycles_per_instruction", "energy_per_instruction"])
    @pytest.mark.parametrize("value", [None, 40, [40, 20]])
    def test_non_mapping_params_table_rejected(self, table, value):
        with pytest.raises(ValidationError, match=f"{table} must map tile kinds"):
            simulate(Scenario(apps=[single_task_app()], heuristic="nn",
                              params=PlatformParams(**{table: value})))

    @pytest.mark.parametrize("seed", ["x", 1.0, True, None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            simulate(Scenario(apps=[single_task_app()], heuristic="nn", seed=seed))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("apps", None),
            ("apps", [single_task_app(), "app1"]),
            ("arrivals", 5),
            ("params", None),
            ("arch", "8x8"),
            ("admission_guard", "no"),
        ],
    )
    def test_wrong_field_type_rejected(self, field, value):
        """``simulate`` names a field of the wrong type before reading it."""
        scenario = Scenario(apps=[single_task_app()], heuristic="nn")
        setattr(scenario, field, value)
        with pytest.raises(ValidationError, match=f"^{field} must be"):
            simulate(scenario)

    @pytest.mark.parametrize(
        "scenario", ["x", None, [Scenario(apps=[single_task_app()], heuristic="nn")]],
        ids=["str", "none", "list"],
    )
    def test_non_scenario_rejected(self, scenario):
        with pytest.raises(ValidationError, match="^a scenario must be a Scenario"):
            simulate(scenario)

    @pytest.mark.parametrize("check", ["no", "", 0, 1, None])
    def test_check_must_be_a_bool(self, monkeypatch, check):
        """A non-``bool`` ``check`` is rejected before anything runs, and the
        invariant checker never runs."""
        monkeypatch.setattr(sim_module, "check_engine", lambda engine: pytest.fail("checker ran"))
        with pytest.raises(ValidationError, match="^check must be a bool"):
            simulate(Scenario(apps=[single_task_app()], heuristic="nn"), check=check)


@pytest.mark.parametrize("heuristic", ["ff", "mmc", "mac", "nn", "pl", "bn", "spiral"])
@pytest.mark.parametrize("case", ["8x8/10", "4x4-ra/10", "4x4-ra/5/dag"])
def test_sampled_link_load_matches_full_scan(monkeypatch, heuristic, case):
    """The report's peak and average link load equal the running maxima of
    full-ledger scans taken after every pinned route."""
    peaks, avgs = [0], [0.0]
    real_apply_route = MappingState.apply_route

    def scanning_apply_route(self, *args):
        real_apply_route(self, *args)
        peaks.append(self.ledger.peak_load())
        avgs.append(self.ledger.avg_load())

    monkeypatch.setattr(MappingState, "apply_route", scanning_apply_route)
    report = simulate(golden_scenario(f"{heuristic}/{case}"))
    assert len(peaks) > 1
    assert (report.peak_link_load, report.avg_link_load) == (max(peaks), max(avgs))


def _recompute_energy_from_log(events):
    compute = comm = 0
    for e in events:
        d = e.fields()
        if e.kind == "compute_end":
            compute += int(d["energy"])
        elif e.kind == "comm_end":
            comm += int(d["volume"]) * int(d["hops"])
    return compute, comm


def _check_causality(events):
    compute_start = {}
    compute_end = {}
    comm_start = {}
    comm_end = {}
    for e in events:
        key = (e.app, e.task)
        if e.kind == "compute_start":
            compute_start[key] = e.cycle
        elif e.kind == "compute_end":
            compute_end[key] = e.cycle
        elif e.kind == "comm_start":
            comm_start[key] = e.cycle
        elif e.kind == "comm_end":
            comm_end[key] = e.cycle
    for (app, label), started in comm_start.items():
        edge, direction = label.rsplit(":", 1)
        mtid, stid = edge.split("->")
        if direction == "ms":
            assert started >= compute_end[(app, mtid)]
        else:
            assert started >= compute_end[(app, stid)]
    for (app, label), ended in comm_end.items():
        edge, direction = label.rsplit(":", 1)
        mtid, stid = edge.split("->")
        if direction == "ms":
            assert compute_start[(app, stid)] >= ended


def _critical_path_bound(graph, params):
    """Longest path: fastest-resource compute plus minimum transfer time."""
    fastest = {
        TaskKind.INITIAL: params.cycles_per_instruction[TileKind.ISP],
        TaskKind.SOFTWARE: params.cycles_per_instruction[TileKind.ISP],
        TaskKind.HARDWARE: params.cycles_per_instruction[TileKind.RA],
    }
    memo = {}

    def finish(tid):
        if tid not in memo:
            task = graph.task(tid)
            best = 0
            for e in graph.incoming(tid):
                best = max(best, finish(e.mtid) + (e.vms if e.vms else 0))
            memo[tid] = best + task.instructions * fastest[task.kind]
        return memo[tid]

    return max(finish(t.id) for t in graph.tasks)


class TestConservationAndCausality:
    @pytest.mark.parametrize("heuristic", ["spiral", "nn", "bn", "mmc"])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_energy_matches_event_log(self, heuristic, seed):
        apps = generate_workload(GenConfig(app_count=3, seed=seed))
        r = simulate(Scenario(apps=apps, heuristic=heuristic, seed=seed))
        compute, comm = _recompute_energy_from_log(r.event_log)
        assert compute == r.energy_compute
        assert comm == r.energy_comm
        assert r.total_energy == r.energy_compute + r.energy_comm
        direct = sum(
            t.instructions
            * (10 if t.kind is not TaskKind.HARDWARE else 20)
            for g in apps
            for t in g.tasks
        )
        assert r.energy_compute == direct

    @pytest.mark.parametrize("heuristic", ["spiral", "nn"])
    @pytest.mark.parametrize("seed", [2, 9])
    def test_causality(self, heuristic, seed):
        apps = generate_workload(GenConfig(app_count=4, seed=seed))
        r = simulate(Scenario(apps=apps, heuristic=heuristic, seed=seed))
        _check_causality(r.event_log)

    @pytest.mark.parametrize("seed", [1, 3, 8])
    def test_makespan_lower_bound(self, seed):
        apps = generate_workload(GenConfig(app_count=5, seed=seed))
        scenario = Scenario(apps=apps, heuristic="spiral", seed=seed)
        r = simulate(scenario)
        bound = max(_critical_path_bound(g, scenario.params) for g in apps)
        assert r.makespan >= bound

    @pytest.mark.parametrize("heuristic", ["spiral", "nn", "ff"])
    def test_cleanup_after_run(self, heuristic):
        apps = generate_workload(GenConfig(app_count=4, seed=7))
        engine = _Engine(Scenario(apps=apps, heuristic=heuristic, seed=7))
        engine.run()
        assert engine.state.ledger.total_load() == 0
        assert engine.state.ledger.peak_load() == 0
        assert not engine.state.tile_owner
        assert not engine.state.placement
        assert not engine.state.routes
        assert not engine.held


class TestDeterminism:
    @pytest.mark.parametrize("heuristic", ["spiral", "nn", "bn"])
    def test_repeated_runs_identical(self, heuristic):
        apps = generate_workload(GenConfig(app_count=5, seed=3))
        s = Scenario(apps=apps, heuristic=heuristic, seed=3)
        assert simulate(s) == simulate(s)

    def test_event_logs_identical(self):
        apps = generate_workload(GenConfig(app_count=7, seed=4))
        s = Scenario(apps=apps, heuristic="spiral", seed=4)
        assert simulate(s).event_log == simulate(s).event_log


class TestAdmission:
    def test_ten_apps_queue_under_spiral(self):
        apps = generate_workload(GenConfig(app_count=10, seed=1))
        r = simulate(Scenario(apps=apps, heuristic="spiral", seed=1))
        assert r.max_queue_wait > 0
        assert r.max_held_clusters <= 9
        assert any(w > 0 for w in r.queue_wait.values())

    def test_deadlock_without_guard(self):
        arch = small_arch(2, 2)
        apps = [
            chain_app("app0", kinds=(TaskKind.INITIAL, TaskKind.SOFTWARE, TaskKind.SOFTWARE)),
            chain_app("app1", kinds=(TaskKind.INITIAL, TaskKind.SOFTWARE, TaskKind.SOFTWARE)),
        ]
        with pytest.raises(DeadlockError):
            simulate(Scenario(apps=apps, heuristic="nn", arch=arch, admission_guard=False))

    def test_guard_serializes_instead_of_deadlocking(self):
        arch = small_arch(2, 2)
        apps = [
            chain_app("app0", kinds=(TaskKind.INITIAL, TaskKind.SOFTWARE, TaskKind.SOFTWARE)),
            chain_app("app1", kinds=(TaskKind.INITIAL, TaskKind.SOFTWARE, TaskKind.SOFTWARE)),
        ]
        r = simulate(Scenario(apps=apps, heuristic="nn", arch=arch))
        assert r.queue_wait["app1"] > 0
        assert set(r.per_app_finish) == {"app0", "app1"}

    def test_both_slaves_blocked_deadlocks_without_guard(self):
        arch = small_arch(3, 1, manager=(2, 0))
        apps = [
            chain_app("app0", kinds=(TaskKind.INITIAL, TaskKind.SOFTWARE), vms=10, vsm=0),
            chain_app("app1", kinds=(TaskKind.INITIAL, TaskKind.SOFTWARE), vms=10, vsm=0),
        ]
        with pytest.raises(DeadlockError):
            # both initials admitted (two free tiles) but neither slave fits
            simulate(Scenario(apps=apps, heuristic="nn", arch=arch, admission_guard=False))
        r = simulate(Scenario(apps=apps, heuristic="nn", arch=arch))
        assert r.per_app_finish["app1"] > r.per_app_finish["app0"]

    def test_deferred_request_retried_on_release(self):
        # three tiles, two 2-task apps: app1's slave defers until app0 releases
        arch = small_arch(4, 1, manager=(3, 0))
        apps = [
            chain_app("app0", kinds=(TaskKind.INITIAL, TaskKind.SOFTWARE), vms=10, vsm=10),
            chain_app("app1", kinds=(TaskKind.INITIAL, TaskKind.SOFTWARE), vms=10, vsm=10),
        ]
        r = simulate(Scenario(apps=apps, heuristic="nn", arch=arch, admission_guard=False))
        deferred = [e for e in r.event_log if e.kind == "map_deferred"]
        assert len(deferred) == 1 and deferred[0].app == "app1"
        app0_release = next(e.cycle for e in r.event_log if e.kind == "release" and e.app == "app0")
        retried_map = next(
            e for e in r.event_log if e.kind == "map" and e.app == "app1" and e.task == "t1"
        )
        assert retried_map.cycle >= app0_release
        assert r.per_app_finish["app1"] > r.per_app_finish["app0"]


class TestEventLogFile:
    def test_write_and_reparse(self, tmp_path):
        r = simulate(Scenario(apps=[single_task_app()], heuristic="spiral"))
        out = tmp_path / "events.csv"
        write_event_log(r.event_log, str(out))
        text = out.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "cycle,kind,app,task,location,detail"
        assert len(lines) == len(r.event_log) + 1
        assert "\r" not in text
        cycles = [int(line.split(",")[0]) for line in lines[1:]]
        assert cycles == sorted(cycles)

    def test_records_are_immutable_rows(self):
        """An event record is a hashable, immutable row of the six CSV
        columns, whose ``detail`` parses with ``fields()``."""
        e = EventRecord(120, "comm_end", "app0", "t0->t1:ms", "1,0->1,2", "volume=4;hops=2")
        assert EventRecord._fields == EVENT_LOG_HEADER
        assert tuple(e) == (120, "comm_end", "app0", "t0->t1:ms", "1,0->1,2", "volume=4;hops=2")
        assert e.fields() == {"volume": "4", "hops": "2"}
        assert e._replace(detail="").fields() == {}
        assert hash(e) == hash(EventRecord(*e))
        with pytest.raises(AttributeError):
            e.cycle = 0
        with pytest.raises(TypeError):
            e[0] = 0


class TestEventLogRows:
    def test_tied_rows_keep_logging_order(self):
        """Rows sort by cycle, kind rank, app, task and location; rows tied
        on all five keep the order they were logged in, whatever their
        detail, and the report's log is the engine's own list of records."""
        eng = _Engine(Scenario(apps=[single_task_app()], heuristic="ff"))
        for r in eng.apps:
            r.admitted_at = r.finished_at = 0
        rows = [
            (7, "comm_start", "app0", "t0->t1:ms", "1,0->1,2", "tie=2"),
            (7, "comm_start", "app0", "t0->t1:ms", "1,0->1,2", "tie=1"),
            (7, "compute_end", "app0", "t0", "1,0", ""),
            (3, "release", "app0", "", "", ""),
            (7, "comm_start", "app0", "t0->t1:ms", "1,0->1,2", "tie=3"),
        ]
        for row in rows:
            eng._log(*row)
        log = eng._report().event_log
        assert log == [EventRecord(*rows[i]) for i in (3, 2, 0, 1, 4)]
        assert all(type(e) is EventRecord for e in log)
        assert log is eng.events

    def test_transfer_start_and_end_rows_share_their_text(self):
        """On a golden cell, every transfer logs one ``comm_start`` and one
        ``comm_end``, with the same task and location text, the end
        ``comm_latency`` cycles after the start, and a task text naming
        one direction of an edge of its application."""
        scenario = golden_scenario("mmc/8x8/10")
        edges = {
            (g.app_id, f"{e.mtid}->{e.stid}:{d}")
            for g in scenario.apps
            for e in g.edges
            for d, v in (("ms", e.vms), ("sm", e.vsm))
            if v >= 1
        }
        rows: dict[str, dict] = {"comm_start": {}, "comm_end": {}}
        for e in simulate(scenario).event_log:
            if e.kind in rows:
                assert (e.app, e.task) not in rows[e.kind]
                rows[e.kind][(e.app, e.task)] = e
        starts, ends = rows["comm_start"], rows["comm_end"]
        assert set(starts) == set(ends) == edges
        for key, start in starts.items():
            end = ends[key]
            assert (end.task, end.location) == (start.task, start.location)
            f = start.fields()
            assert end.cycle == start.cycle + comm_latency(int(f["volume"]), int(f["hops"]))
