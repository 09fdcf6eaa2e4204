"""The shared oracle checks report a broken implementation as a failure."""
from itertools import islice

import pytest

from nocmap import oracles
from nocmap.heuristics import _outward, _pl_key
from nocmap.model import TaskKind, TileKind, compatible
from nocmap.routing import min_load_route
from nocmap.sim import _Engine, simulate

from test_golden import golden_scenario


def hop_first_route(src, dst, ledger, arch):
    """Hops before load: the wrong priority order.  Raising every link by
    more than the total load makes each hop outweigh any load difference."""
    raised = ledger.copy()
    bump = ledger.total_load() + 1
    for link, load in ledger.loads().items():
        raised.set_load(link, load + bump)
    return min_load_route(src, dst, raised, arch)


def test_routing_check_catches_hop_first_router(monkeypatch):
    monkeypatch.setattr(oracles, "min_load_route", hop_first_route)
    checks, failures, counterexample = oracles.check_routing(4)
    assert checks == 1296
    assert failures > 0
    assert "got (load,hops)=" in counterexample


def test_placement_check_catches_worst_candidate(monkeypatch):
    def worst_pl(req, state, policy):
        cands = [c for c in state.arch.coords()
                 if state.tile_free(c) and compatible(req.task.kind, state.arch.kind(c))]
        return max(cands, key=lambda t: _pl_key(req, state, t, policy), default=None), len(cands)

    monkeypatch.setattr(oracles, "map_pl", worst_pl)
    checks, failures, counterexample = oracles.check_placement(10)
    assert checks == 30
    assert failures > 0
    assert counterexample.startswith("heuristic pl seed ")


def test_spiral_check_catches_dropped_tile(monkeypatch):
    monkeypatch.setattr(oracles, "_outward", lambda c, arch: islice(_outward(c, arch), 1, None))
    checks, failures, counterexample = oracles.check_spiral()
    assert checks == 64
    assert failures > 0
    assert "walk is not a permutation in ring order" in counterexample


def test_spiral_check_catches_ring_out_of_order(monkeypatch):
    """A walk that visits every tile, but its first eight last, fails."""
    def near_last(c, arch):
        walk = list(_outward(c, arch))
        return walk[8:] + walk[:8]

    monkeypatch.setattr(oracles, "_outward", near_last)
    checks, failures, _ = oracles.check_spiral()
    assert checks == 64
    assert failures > 0


def _corrupt_ledger(engine):
    if engine.state.routes:
        path, _, _ = next(iter(engine.state.routes.values()))
        link = (path[0], path[1])
        engine.state.ledger.set_load(link, engine.state.ledger.load(link) + 1)
        return True
    return False


def _corrupt_route_link_ids(engine):
    """Overwrite one stored link id; the loads stay consistent."""
    for key, (path, volume, links) in engine.state.routes.items():
        wrong = engine.arch.link_ids[path[1], path[0]]
        engine.state.routes[key] = (path, volume, (wrong, *links[1:]))
        return True
    return False


def _corrupt_link_schedule(engine):
    for link, spans in engine.links_sched.spans().items():
        if spans:
            engine.links_sched.reserve([link], spans[0][0], 1)
            return True
    return False


def _corrupt_tile_owner(engine):
    if engine.state.tile_owner:
        tile = next(iter(engine.state.tile_owner))
        engine.state.tile_owner[tile] = ("intruder", "t0")
        return True
    return False


def _corrupt_free(engine):
    engine.free[TileKind.ISP] -= 1
    return True


def _corrupt_free_tiles(engine):
    """Drop one tile from a free set; ``tile_owner`` and the counts stay."""
    free = engine.state.free_tiles(TaskKind.SOFTWARE)
    if free:
        free.remove(min(free))
        return True
    return False


def _corrupt_kept_peak(engine):
    """Keep the peak, then raise a load in the ledger's list behind it."""
    ledger = engine.state.ledger
    ledger.by_link_id()[0] = ledger.peak_load() + 1
    return True


@pytest.mark.parametrize("corrupt,invariant", [
    (_corrupt_ledger, "ledger"),
    (_corrupt_route_link_ids, "routes"),
    (_corrupt_link_schedule, "link-schedule"),
    (_corrupt_tile_owner, "placement"),
    (_corrupt_free, "free"),
    (_corrupt_free_tiles, "free-tiles"),
    (_corrupt_kept_peak, "peak"),
])
def test_engine_check_catches_corruption(monkeypatch, corrupt, invariant):
    """Corrupting the engine state once, mid-run, fails the next check."""
    real_housekeeping = _Engine._housekeeping
    done = []

    def corrupting_housekeeping(self, t):
        real_housekeeping(self, t)
        if t > 0 and not done and corrupt(self):
            done.append(t)

    monkeypatch.setattr(_Engine, "_housekeeping", corrupting_housekeeping)
    scenario = golden_scenario("ff/8x8/10")
    with pytest.raises(oracles.InvariantError, match=f"^{invariant}: "):
        simulate(scenario, check=True)
    assert done
