"""The shared oracle checks report a broken implementation as a failure."""
from nocmap import oracles
from nocmap.heuristics import _pl_key, spiral_ring
from nocmap.model import compatible


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
