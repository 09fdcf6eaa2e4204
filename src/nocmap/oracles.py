"""Brute-force oracles for the router and the placement heuristics.

Each oracle recomputes an objective by exhaustive enumeration, independently
of the production code it checks.  The placement objectives are those of
Carvalho, Calazans & Moraes, "Heuristics for Dynamic Task Mapping in
NoC-based Heterogeneous MPSoCs", RSP 2007.

``check_routing``, ``check_placement`` and ``check_spiral`` are the only
loops that compare production code against these oracles; ``nocmap verify``
and acceptance criteria 1-3 both run them.  ``placement_cases`` is the one
per-seed placement comparison, shared by ``check_placement`` and the
per-heuristic unit tests.

``free_candidates`` is the one scan of the tiles a task may be placed on
that the oracles and tests use: it reads ``MappingState.placement``, not
the free sets the heuristics read.

``check_engine`` checks the simulation engine's invariants between event
batches; ``simulate(..., check=True)`` and ``nocmap run --check`` run it.
"""
from __future__ import annotations

import random
from functools import wraps
from typing import Callable, Iterable, Iterator, NamedTuple

from .heuristics import MapRequest, _outward, map_channel_load, map_pl
from .model import (
    ArchGraph,
    ChannelLoadLedger,
    Coord,
    MappingState,
    NocError,
    Task,
    TaskKind,
    ValidationError,
    compatible,
)
from .routing import Path, RoutePolicy, min_load_route, route

# Largest mesh edge the exhaustive route oracle accepts; enumeration of all
# simple paths is intractable beyond this.
ORACLE_MESH_LIMIT = 4


def enumerate_objectives(
    src: Coord, ledger: ChannelLoadLedger, arch: ArchGraph
) -> dict[Coord, tuple[int, int, Path]]:
    """Best (load, hops, path) to every tile by exhaustive simple-path search.

    Among optimal-objective paths the lexicographically smallest sequence of
    linear tile indices is kept, which pins the result.  Refuses meshes
    larger than ORACLE_MESH_LIMIT on either edge.
    """
    if arch.width > ORACLE_MESH_LIMIT or arch.height > ORACLE_MESH_LIMIT:
        raise ValidationError(
            f"oracle refuses meshes larger than "
            f"{ORACLE_MESH_LIMIT}x{ORACLE_MESH_LIMIT}: got {arch.width}x{arch.height}"
        )
    arch.require_in_mesh(src)
    best: dict[Coord, tuple[int, int, tuple[int, ...], Path]] = {}
    path: list[Coord] = [src]
    on_path = {src}

    def visit(u: Coord, load: int) -> None:
        key = (load, len(path) - 1)
        held = best.get(u)
        if held is None or key <= held[:2]:  # else the path cannot win
            key += (tuple(arch.linear_index(c) for c in path),)
            if held is None or key < held[:3]:
                best[u] = (*key, tuple(path))
        for v in arch.neighbors(u):
            if v in on_path:
                continue
            path.append(v)
            on_path.add(v)
            visit(v, load + ledger.load((u, v)))
            path.pop()
            on_path.remove(v)

    visit(src, 0)
    return {c: (load, hops, p) for c, (load, hops, _, p) in best.items()}


def route_oracle(src: Coord, dst: Coord, ledger: ChannelLoadLedger, arch: ArchGraph) -> Path:
    """Optimal path by exhaustive enumeration (small meshes only)."""
    arch.require_in_mesh(dst)
    return enumerate_objectives(src, ledger, arch)[dst][2]


def random_ledger(arch: ArchGraph, seed: int, high: int = 500) -> ChannelLoadLedger:
    """Seeded ledger with every link load drawn from 0..high; seed 0 is all zero."""
    ledger = ChannelLoadLedger(arch)
    if seed == 0:
        return ledger
    rng = random.Random(seed)
    for link in arch.links():
        ledger.set_load(link, rng.randint(0, high))
    return ledger


def arch_4x4() -> ArchGraph:
    """4x4 platform with three RA tiles, on which placements are checked."""
    return ArchGraph.uniform(4, 4, manager=(0, 0), ra=((1, 1), (2, 2), (3, 0)))


def free_candidates(state: MappingState, kind: TaskKind) -> list[Coord]:
    """Mesh tiles a task of ``kind`` may run on that no entry of
    ``state.placement`` holds, in raster order."""
    arch, held = state.arch, set(state.placement.values())
    return [c for c in arch.coords() if c not in held and compatible(kind, arch.kind(c))]


def random_partial_state(
    arch: ArchGraph, seed: int
) -> tuple[MappingState, MapRequest, RoutePolicy]:
    """Seeded partial mapping with routed traffic, plus a pending request.

    Returns (state, request, policy) for placement-oracle comparisons.  Odd
    seeds pair the request with the load-aware router, even seeds with XY.
    """
    rng = random.Random(seed)
    state = MappingState(arch)
    placed: list[tuple[str, str, Coord]] = []
    for a in range(rng.randint(1, 2)):
        app = f"app{a}"
        for i in range(rng.randint(1, 4)):
            kind = TaskKind.INITIAL if i == 0 else (
                TaskKind.HARDWARE if rng.random() < 0.3 else TaskKind.SOFTWARE
            )
            free = free_candidates(state, kind)
            if not free:
                continue
            tile = free[rng.randrange(len(free))]
            task = Task(f"t{i}", kind, 100)
            state.place(app, task, tile)
            placed.append((app, task.id, tile))
    by_app: dict[str, list[tuple[str, Coord]]] = {}
    for app, tid, tile in placed:
        by_app.setdefault(app, []).append((tid, tile))
    for app, tasks in by_app.items():
        for (m, mt), (s, st) in zip(tasks, tasks[1:]):
            if rng.random() < 0.7:
                vol = rng.randint(1, 300)
                state.apply_route(app, m, s, "ms",
                                  route(RoutePolicy.XY, mt, st, state.ledger, arch), vol)
    app, tid, tile = placed[rng.randrange(len(placed))]
    kind = TaskKind.HARDWARE if rng.random() < 0.3 else TaskKind.SOFTWARE
    vms = rng.randint(0, 300)
    vsm = rng.randint(0, 300)
    if vms + vsm == 0:
        vsm = 1
    req = MapRequest(app, Task("pending", kind, 100), tile, vms, vsm)
    policy = RoutePolicy.MIN_LOAD if seed % 2 else RoutePolicy.XY
    return state, req, policy


def oracle_channel_load(
    req: MapRequest, state: MappingState, policy: RoutePolicy, average_first: bool
) -> Coord | None:
    """mmc (peak load first) or mac (total load first) placement, recomputed.

    Every link load is recounted from scratch for each candidate; ties break
    on the other load, then on the smallest linear tile index.
    """
    arch = state.arch
    best = best_key = None
    for tile in free_candidates(state, req.task.kind):
        loads = dict(state.ledger.loads())
        trial = state.ledger.copy()
        for volume, src, dst in ((req.vms, req.requester_tile, tile),
                                 (req.vsm, tile, req.requester_tile)):
            if volume >= 1:
                path = route(policy, src, dst, trial, arch)
                for link in zip(path, path[1:]):
                    loads[link] += volume
                trial.add_path(path, volume)
        peak, total = max(loads.values()), sum(loads.values())
        primary = (total, peak) if average_first else (peak, total)
        key = (*primary, arch.linear_index(tile))
        if best_key is None or key < best_key:
            best, best_key = tile, key
    return best


def oracle_path_load(
    req: MapRequest,
    state: MappingState,
    policy: RoutePolicy,
    shell: Iterable[Coord] | None = None,
) -> Coord | None:
    """pl placement (bn when ``shell`` limits the candidates), recomputed.

    Minimises the summed current load of the routes there and back; ties
    break on combined hop count, then on the smallest linear tile index.
    """
    arch = state.arch
    best = best_key = None
    tiles = free_candidates(state, req.task.kind)
    for tile in tiles if shell is None else set(tiles).intersection(shell):
        there = route(policy, req.requester_tile, tile, state.ledger, arch)
        back = route(policy, tile, req.requester_tile, state.ledger, arch)
        cost = sum(state.ledger.load(l) for l in zip(there, there[1:]))
        cost += sum(state.ledger.load(l) for l in zip(back, back[1:]))
        hops = len(there) + len(back) - 2
        key = (cost, hops, arch.linear_index(tile))
        if best_key is None or key < best_key:
            best, best_key = tile, key
    return best


class CheckResult(NamedTuple):
    """Outcome of one oracle suite: checks run, failures, first counterexample."""

    checks: int
    failures: int
    counterexample: str | None


_Outcome = tuple[bool, Callable[[], str]]


def _tally(suite: Callable[..., Iterator[_Outcome]]) -> Callable[..., CheckResult]:
    """Wrap a generator of (passed, describe) outcomes into a suite that
    counts its checks and failures.  Only the first failure is described,
    before the generator resumes, so it reads the state that failed."""

    @wraps(suite)
    def run(*args: int) -> CheckResult:
        checks = failures = 0
        first = None
        for passed, describe in suite(*args):
            checks += 1
            if not passed:
                failures += 1
                if first is None:
                    first = describe()
        return CheckResult(checks, failures, first)

    return run


@_tally
def check_routing(ledgers: int = 100) -> Iterator[_Outcome]:
    """Router (load, hops) equals exhaustive enumeration on 2x2, 3x3 and 4x4
    meshes, for every src/dst pair under ``random_ledger`` seeds 0..ledgers-1."""
    for size in (2, 3, 4):
        arch = ArchGraph.uniform(size, size)
        for seed in range(ledgers):
            ledger = random_ledger(arch, seed)
            for src in arch.coords():
                best = enumerate_objectives(src, ledger, arch)
                for dst in arch.coords():
                    if src == dst:
                        continue
                    path = min_load_route(src, dst, ledger, arch)
                    got = (sum(ledger.load(l) for l in zip(path, path[1:])), len(path) - 1)
                    want = best[dst][:2]
                    yield got == want, lambda: (
                        f"mesh {size}x{size} seed {seed} {src}->{dst}: "
                        f"got (load,hops)={got}, oracle={want}; nonzero loads "
                        f"{dict((l, v) for l, v in ledger.loads().items() if v)}"
                    )


def placement_cases(
    seed: int,
) -> tuple[RoutePolicy, dict[str, tuple[Coord | None, Coord | None]]]:
    """(heuristic placement, oracle placement) of mmc, mac and pl on
    ``random_partial_state(arch_4x4(), seed)``, with the state's policy."""
    state, req, policy = random_partial_state(arch_4x4(), seed)
    return policy, {
        "mmc": (map_channel_load(req, state, policy, False)[0],
                oracle_channel_load(req, state, policy, False)),
        "mac": (map_channel_load(req, state, policy, True)[0],
                oracle_channel_load(req, state, policy, True)),
        "pl": (map_pl(req, state, policy)[0], oracle_path_load(req, state, policy)),
    }


@_tally
def check_placement(states: int = 100) -> Iterator[_Outcome]:
    """mmc, mac and pl placements equal the brute-force oracles, tie-breaks
    included, on ``placement_cases`` seeds 0..states-1."""
    for seed in range(states):
        policy, cases = placement_cases(seed)
        for name, (got, want) in cases.items():
            yield got == want, lambda: (
                f"heuristic {name} seed {seed} "
                f"policy {policy.value}: got {got}, oracle {want}"
            )


@_tally
def check_spiral() -> Iterator[_Outcome]:
    """For each centre of the default 8x8 mesh, the spiral walk
    (``heuristics._outward``) visits every other tile exactly once, and the
    Chebyshev distance of its tiles from the centre never decreases."""
    arch = ArchGraph.default_8x8()
    for center in arch.coords():
        walk = list(_outward(center, arch))
        dist = [max(abs(x - center[0]), abs(y - center[1])) for x, y in walk]
        expected = sorted(c for c in arch.coords() if c != center)
        good = sorted(walk) == expected and dist == sorted(dist)
        yield good, lambda: f"centre {center} walk is not a permutation in ring order"


class InvariantError(NocError):
    """An invariant of the simulation engine does not hold."""


def check_engine(engine) -> None:
    """Raise ``InvariantError`` naming the first engine invariant broken.

    ``engine`` is a ``sim._Engine`` between two event batches.  Checked:

    * ``routes``: the link ids stored with each pinned route are
      ``arch.link_ids`` of its path's steps;
    * ``peak``: a peak the ledger keeps equals the highest link load;
    * ``ledger``: every link load, and the running total, equal what
      ``MappingState.rebuild_ledger`` recomputes from the pinned routes'
      paths;
    * ``link-schedule``: each link's reservations are sorted and no two
      overlap;
    * ``placement``: no two placed tasks share a tile;
    * ``free``: each kind's free tile count equals the platform's tiles of
      that kind minus the demand of the admitted, unfinished applications;
    * ``free-tiles``: each task kind's free set (``free_tiles``) holds the
      tiles it may run on that no placed task holds.
    """
    state = engine.state
    link_ids, links = engine.arch.link_ids, engine.arch.links()
    for key, (path, _, stored) in state.routes.items():
        resolved = tuple(link_ids.get(step) for step in zip(path, path[1:]))
        if stored != resolved:
            raise InvariantError(
                f"routes: route {key} stores link ids {stored}, its path gives {resolved}"
            )
    kept, high = state.ledger._peak, max(state.ledger.by_link_id(), default=0)
    if kept is not None and kept != high:
        raise InvariantError(f"peak: the ledger keeps {kept}, its highest load is {high}")
    got, want = state.ledger.loads(), state.rebuild_ledger().loads()
    for link, load in want.items():
        if got[link] != load:
            raise InvariantError(
                f"ledger: link {link} holds {got[link]}, the pinned routes give {load}"
            )
    if state.ledger.total_load() != sum(want.values()):
        raise InvariantError(
            f"ledger: running total {state.ledger.total_load()}, "
            f"the pinned routes give {sum(want.values())}"
        )
    for link, spans in engine.links_sched.spans().items():
        for a, b in zip(spans, spans[1:]):
            if a[1] > b[0]:
                raise InvariantError(f"link-schedule: link {links[link]} holds {a} before {b}")
    held = set(state.placement.values())
    if len(held) != len(state.placement):
        raise InvariantError(
            f"placement: {len(state.placement)} placed tasks sit on {len(held)} tiles"
        )
    running = [r for r in engine.apps if r.admitted_at is not None and r.finished_at is None]
    for kind, free in engine.free.items():
        want_free = engine.arch.count_kind(kind) - sum(r.demand[kind] for r in running)
        if free != want_free:
            raise InvariantError(
                f"free: {free} free {kind.value} tiles, "
                f"the platform and the running apps give {want_free}"
            )
    for kind in TaskKind:
        got_tiles = state.free_tiles(kind)
        want_tiles = set(engine.arch.tiles_for(kind)) - held
        if got_tiles != want_tiles:
            raise InvariantError(
                f"free-tiles: {kind.value} tasks may use free tiles {sorted(got_tiles)}, "
                f"placement leaves {sorted(want_tiles)}"
            )
