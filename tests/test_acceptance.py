"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them on success)."""
import time

import pytest

from nocmap.cli import main as cli_main
from nocmap.heuristics import MapRequest, map_ff
from nocmap.model import ArchGraph, MappingState, Task, TaskKind, TileKind
from nocmap.oracles import check_placement, check_routing, check_spiral
from nocmap.sim import PlatformParams, Scenario, _Engine, compute_energy, compute_time
from nocmap.workload import GenConfig, generate_workload

APP_COUNTS = (1, 3, 7, 10)
SWEEP_HEURISTICS = ("spiral", "nn", "bn")
SWEEP_SEEDS = range(1, 21)


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_routing_oracle_equivalence():
    """Router (total-load, hops) equals exhaustive enumeration, exactly."""
    t0 = time.time()
    result = check_routing(100)
    elapsed = time.time() - t0
    assert result == (32400, 0, None), result
    _report(
        "criterion-1 routing oracle equivalence",
        elapsed < 60,
        f"{result.checks} pairs exact on 2x2/3x3/4x4 x 100 ledgers in {elapsed:.1f}s",
    )


def test_criterion_2_placement_oracle_equivalence():
    """MMC/MAC/PL equal brute-force enumeration with recomputed objectives."""
    t0 = time.time()
    result = check_placement(100)
    elapsed = time.time() - t0
    assert result == (300, 0, None), result
    _report(
        "criterion-2 placement oracle equivalence",
        elapsed < 60,
        f"{result.checks} placements exact (incl. tie-breaks) in {elapsed:.1f}s",
    )


def test_criterion_3_spiral_permutation():
    t0 = time.time()
    result = check_spiral()
    elapsed = time.time() - t0
    assert result == (64, 0, None), result
    _report(
        "criterion-3 spiral permutation",
        elapsed < 1,
        f"all {result.checks} centres visit each other tile exactly once in {elapsed:.2f}s",
    )


def test_criterion_4_platform_constants():
    p = PlatformParams()
    sw = Task("t", TaskKind.SOFTWARE, 100)
    hw = Task("t", TaskKind.HARDWARE, 100)
    values = (
        compute_time(sw, TileKind.ISP, p),
        compute_time(hw, TileKind.RA, p),
        compute_energy(sw, TileKind.ISP, p),
        compute_energy(hw, TileKind.RA, p),
    )
    _report(
        "criterion-4 platform constants",
        values == (4000, 2000, 1000, 2000),
        f"compute_time/energy(100 instr) = {values}",
    )


@pytest.fixture(scope="module")
def sweep():
    """All (app_count, heuristic, seed) cells of the comparison sweep, run
    once through the engine so post-run state stays inspectable."""
    t0 = time.time()
    cells = {}
    for app_count in APP_COUNTS:
        for seed in SWEEP_SEEDS:
            apps = generate_workload(GenConfig(app_count=app_count, seed=seed))
            for h in SWEEP_HEURISTICS:
                engine = _Engine(Scenario(apps=apps, heuristic=h, seed=seed))
                report = engine.run()
                cells[(app_count, h, seed)] = (report, engine)
    return cells, time.time() - t0


def test_criterion_5_queue_behavior(sweep):
    cells, _ = sweep
    t0 = time.time()
    waited = 0
    for seed in SWEEP_SEEDS:
        report, engine = cells[(10, "spiral", seed)]
        assert report.max_held_clusters <= 9, f"seed {seed} held {report.max_held_clusters}"
        if report.max_queue_wait > 0:
            waited += 1
    elapsed = time.time() - t0
    _report(
        "criterion-5 queue behavior",
        waited == len(list(SWEEP_SEEDS)) and elapsed < 10,
        f"10-app spiral: queue_wait>0 on {waited}/20 seeds, cluster cap never exceeded",
    )


def test_criterion_6_directional_reproduction(sweep):
    cells, sweep_elapsed = sweep
    lines = []
    ok = True
    for app_count in APP_COUNTS:
        means = {}
        for h in SWEEP_HEURISTICS:
            reports = [cells[(app_count, h, s)][0] for s in SWEEP_SEEDS]
            n = len(reports)
            means[h] = (
                sum(r.makespan for r in reports) / n,
                sum(r.total_energy for r in reports) / n,
            )
        mk_ok = means["spiral"][0] <= means["nn"][0] and means["spiral"][0] <= means["bn"][0]
        en_ok = means["spiral"][1] <= means["nn"][1] and means["spiral"][1] <= means["bn"][1]
        tag = ""
        if app_count >= 3:
            ok = ok and mk_ok and en_ok
            tag = f" makespan<= {mk_ok}, energy<= {en_ok}"
        else:
            tag = " (reported, no directional requirement)"
        lines.append(
            f"apps={app_count}: "
            + " ".join(
                f"{h}=(mk {means[h][0]:.0f}, en {means[h][1]:.0f})" for h in SWEEP_HEURISTICS
            )
            + tag
        )
    for line in lines:
        print("   ", line)
    _report(
        "criterion-6 directional reproduction",
        ok and sweep_elapsed < 300,
        f"spiral mean <= nn/bn means on both metrics for >=3 apps "
        f"(sweep of {len(cells)} runs in {sweep_elapsed:.1f}s)",
    )


def test_criterion_7_conservation_and_cleanup(sweep):
    cells, _ = sweep
    for (app_count, h, seed), (report, engine) in cells.items():
        compute = comm = 0
        for e in report.event_log:
            d = e.fields()
            if e.kind == "compute_end":
                compute += int(d["energy"])
            elif e.kind == "comm_end":
                comm += int(d["volume"]) * int(d["hops"])
        assert compute == report.energy_compute, (app_count, h, seed)
        assert comm == report.energy_comm, (app_count, h, seed)
        assert report.total_energy == compute + comm
        assert engine.state.ledger.total_load() == 0
        assert not engine.state.placement
        for kind in TaskKind:
            assert engine.state.free_tiles(kind) == set(engine.arch.tiles_for(kind))
        assert not engine.state.routes
    _report(
        "criterion-7 conservation and cleanup",
        True,
        f"energy recomputed from {len(cells)} event logs exactly; all runs end clean",
    )


def test_criterion_8_byte_determinism(tmp_path):
    t0 = time.time()
    digests = []
    for invocation in range(3):
        payload = b""
        for app_count in APP_COUNTS:
            out = tmp_path / f"cmp_{invocation}_{app_count}.csv"
            rc = cli_main(
                [
                    "compare",
                    "--apps", str(app_count),
                    "--heuristics", ",".join(SWEEP_HEURISTICS),
                    "--seeds", "20",
                    "--out", str(out),
                ]
            )
            assert rc == 0
            payload += out.read_bytes()
        run_out = tmp_path / f"run_{invocation}.csv"
        w = tmp_path / f"w_{invocation}.xml"
        assert cli_main(["generate", "--apps", "3", "--seed", "5", "--out", str(w)]) == 0
        assert cli_main(
            ["run", "--workload", str(w), "--heuristic", "spiral", "--out", str(run_out)]
        ) == 0
        payload += run_out.read_bytes() + w.read_bytes()
        digests.append(payload)
    elapsed = time.time() - t0
    _report(
        "criterion-8 byte determinism",
        digests[0] == digests[1] == digests[2],
        f"3 invocations of the full sweep byte-identical in {elapsed:.1f}s",
    )


def test_criterion_9_ff_round_robin():
    arch = ArchGraph.default_8x8()
    isp_count = arch.count_kind(TileKind.ISP)

    # release-free stream: every compatible tile exactly once, then failure
    state = MappingState(arch)
    cursor = 0
    assigned = []
    for i in range(isp_count):
        req = MapRequest(f"app{i}", Task("t0", TaskKind.SOFTWARE, 1), None, 0, 0)
        tile, cursor, _ = map_ff(req, state, cursor)
        assert tile is not None
        state.place(f"app{i}", Task("t0", TaskKind.SOFTWARE, 1), tile)
        assigned.append(tile)
    assert len(set(assigned)) == isp_count
    assert {arch.kind(t) for t in assigned} == {TileKind.ISP}
    tile, cursor, _ = map_ff(MapRequest("x", Task("t0", TaskKind.SOFTWARE, 1), None, 0, 0),
                             state, cursor)
    assert tile is None

    # interleaved release: the freed tile is not reused until the wrap
    state = MappingState(arch)
    cursor = 0
    assigned = []
    for i in range(10):
        tile, cursor, _ = map_ff(MapRequest(f"a{i}", Task("t0", TaskKind.SOFTWARE, 1), None, 0, 0),
                                 state, cursor)
        state.place(f"a{i}", Task("t0", TaskKind.SOFTWARE, 1), tile)
        assigned.append(tile)
    freed = assigned[3]
    state.release_app("a3")
    later = []
    for i in range(isp_count - 10):
        tile, cursor, _ = map_ff(MapRequest(f"b{i}", Task("t0", TaskKind.SOFTWARE, 1), None, 0, 0),
                                 state, cursor)
        assert tile is not None
        state.place(f"b{i}", Task("t0", TaskKind.SOFTWARE, 1), tile)
        later.append(tile)
    assert freed not in later  # not reassigned before the sweep completes
    assert len(set(assigned + later)) == isp_count
    # wrap: the freed tile is the only compatible one left
    tile, cursor, _ = map_ff(MapRequest("z", Task("t0", TaskKind.SOFTWARE, 1), None, 0, 0),
                             state, cursor)
    assert tile == freed
    _report(
        "criterion-9 ff round-robin",
        True,
        f"all {isp_count} software tiles used once per sweep; freed tile reused only after wrap",
    )
