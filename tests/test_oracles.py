"""The shared oracle checks report a broken implementation as a failure."""
from nocmap import oracles
from nocmap.heuristics import _pl_key, spiral_ring
from nocmap.model import compatible
from nocmap.routing import min_load_route


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
    monkeypatch.setattr(oracles, "spiral_ring", lambda c, hop, arch: spiral_ring(c, hop, arch)[1:])
    checks, failures, counterexample = oracles.check_spiral()
    assert checks == 64
    assert failures > 0
    assert "rings are not a permutation" in counterexample
