"""Runtime placement heuristics behind one interface.

Seven policies decide which free tile receives a newly requested task:

* ``ff``     first free: round-robin linear scan with a persistent cursor
* ``mmc``    minimise the resulting peak channel load
* ``mac``    minimise the resulting average (total) channel load
* ``nn``     nearest neighbour: closest free compatible tile, Manhattan shells
* ``pl``     path load: cheapest communication path over all free tiles
* ``bn``     best neighbour: path-load choice among the nearest candidates
* ``spiral`` ring-by-ring clockwise scan around the requesting tile, with
  cluster-centre placement for initial tasks

All but ``spiral`` are the reference heuristics of Carvalho, Calazans &
Moraes, "Heuristics for Dynamic Task Mapping in NoC-based Heterogeneous
MPSoCs", RSP 2007.

Every heuristic, and ``place_initial``, is a pure function of (request,
state) that writes nothing; ``ff`` additionally threads its cursor.  Each
returns the chosen tile (or ``None`` when no free compatible tile exists)
plus the number of candidate tiles it examined, which callers aggregate as
a mapping-effort proxy.

``MappingState.free_tiles`` keeps the free tiles each task kind may run on
as a set, updated as tasks are placed and released, so no heuristic scans
the mesh to find them.  ff, nn, spiral and ``place_initial`` take the first
tile of a fixed tile order that is in that set (``_first_free``) and count
the tiles they look at.  One walk, ``_manhattan_order``, gives the tiles
around the requester by (Manhattan distance, linear index): nn takes its
first free tile, and mmc, mac, pl's nearest shell and bn read its free
tiles nearest first and stop once no tile farther out can win; only pl's
bulk scoring reads the whole set.  mmc, mac and pl count the free
compatible candidates, the size of the set, not the tiles they score; bn
counts its nearest shell.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from math import ceil
from itertools import chain, count, takewhile
from operator import add
from typing import AbstractSet, Callable, Iterable, Iterator

from .model import (
    ArchGraph,
    Coord,
    MappingState,
    StateError,
    Task,
    TaskKind,
    ValidationError,
    is_int,
    manhattan,
)
from .routing import (
    RoutePolicy,
    _xy_cost,
    min_load_tree,
    path_cost,
    path_hops,
    route,
    xy_fold,
    xy_leg_peaks,
)


class HeuristicKind(Enum):
    FF = "ff"
    MMC = "mmc"
    MAC = "mac"
    NN = "nn"
    PL = "pl"
    BN = "bn"
    SPIRAL = "spiral"


HEURISTIC_NAMES = tuple(k.value for k in HeuristicKind)

# Reference heuristics pair with deterministic XY routing; the spiral policy
# pairs with the load-aware router.
DEFAULT_ROUTE_POLICY = {
    HeuristicKind.FF: RoutePolicy.XY,
    HeuristicKind.MMC: RoutePolicy.XY,
    HeuristicKind.MAC: RoutePolicy.XY,
    HeuristicKind.NN: RoutePolicy.XY,
    HeuristicKind.PL: RoutePolicy.XY,
    HeuristicKind.BN: RoutePolicy.XY,
    HeuristicKind.SPIRAL: RoutePolicy.MIN_LOAD,
}


@dataclass(frozen=True)
class MapRequest:
    """Demand to place one task, raised by the tile running its master.

    ``requester_tile`` is the master's tile, or the manager tile for an
    initial task; initial tasks under cluster placement build no request.
    ``vms``/``vsm`` are the packet volumes of the triggering edge (0/0 for
    initial tasks, which have no inbound edge).  A request is checked when
    it is made, except whether the mesh has its requester tile.
    """

    app: str
    task: Task
    requester_tile: Coord | None
    vms: int
    vsm: int

    def __post_init__(self) -> None:
        vms, vsm, r = self.vms, self.vsm, self.requester_tile
        if not isinstance(self.task, Task):
            raise ValidationError(f"map request: task must be a Task, got {self.task!r}")
        if type(vms) is not int or type(vsm) is not int or vms < 0 or vsm < 0:
            raise ValidationError(f"map request: volumes must be ints >= 0, got {vms!r}, {vsm!r}")
        if r is not None and not _is_pair(r):
            raise ValidationError(f"map request: requester must be None or an int pair, got {r!r}")


def _is_pair(c: object) -> bool:
    """True for a tuple of two exact ``int``s: a tile, if the mesh has it."""
    return type(c) is tuple and len(c) == 2 and type(c[0]) is int and type(c[1]) is int


def spiral_ring(center: Coord, hop: int, arch: ArchGraph) -> list[Coord]:
    """Tiles on the Chebyshev ring of radius ``hop``, clockwise from the west.

    Enumeration starts at (cx-hop, cy), climbs the west edge, crosses the
    north edge, descends the east edge, crosses the south edge and climbs
    back towards the start.  Off-mesh positions are skipped; the order of
    the survivors is preserved.
    """
    arch.require_in_mesh(center)
    if not is_int(hop) or hop < 1:
        raise ValidationError(f"ring radius must be an int >= 1, got {hop!r}")
    cx, cy = center
    ring: list[Coord] = []
    ring += [(cx - hop, y) for y in range(cy, cy - hop - 1, -1)]
    ring += [(x, cy - hop) for x in range(cx - hop + 1, cx + hop + 1)]
    ring += [(cx + hop, y) for y in range(cy - hop + 1, cy + hop + 1)]
    ring += [(x, cy + hop) for x in range(cx + hop - 1, cx - hop - 1, -1)]
    ring += [(cx - hop, y) for y in range(cy + hop - 1, cy, -1)]
    # The centre is a mesh tile, so each position is a pair of ints.
    return [c for c in ring if 0 <= c[0] < arch.width and 0 <= c[1] < arch.height]


def _outward(center: Coord, arch: ArchGraph) -> Iterator[Coord]:
    """The tiles of ``spiral_ring(center, 1, arch)``, ``spiral_ring(center,
    2, arch)``, ... up to the first empty ring, so every mesh tile but
    ``center`` once.

    No ring is empty before the farthest tile, since a staircase path to it
    stays on the mesh and each unit step changes the Chebyshev distance by
    at most 1; every later ring is.
    """
    for d in count(1):
        tiles = spiral_ring(center, d, arch)
        if not tiles:
            return
        yield from tiles


def _manhattan_order(r: Coord, arch: ArchGraph) -> Iterator[Coord]:
    """Every mesh tile but ``r`` in (Manhattan distance from ``r``, linear
    index) order.

    Walks the Manhattan rings around ``r``, nearest first, each in raster
    order and clipped to the mesh, out to the farthest mesh tile.  Nothing
    is listed or sorted, so a caller that stops early pays only for the
    rings it reached.
    """
    arch.require_in_mesh(r)
    rx, ry = r
    w, h = arch.width, arch.height
    for d in range(1, max(rx, w - 1 - rx) + max(ry, h - 1 - ry) + 1):
        for y in range(max(0, ry - d), min(h, ry + d + 1)):
            dx = d - abs(y - ry)
            if rx >= dx:
                yield (rx - dx, y)
            if dx and rx + dx < w:
                yield (rx + dx, y)


def _bands(n: int) -> list[tuple[int, int]]:
    # Up to three contiguous bands, larger ones first (8 -> 3,3,2).
    if n >= 3:
        s0 = ceil(n / 3)
        s1 = ceil((n - s0) / 2)
        return [(0, s0 - 1), (s0, s0 + s1 - 1), (s0 + s1, n - 1)]
    return [(i, i) for i in range(n)]


# Admission order for the default 8x8 grid: corners first, then the centre,
# then the edge midpoints, spreading concurrently admitted applications as
# far apart as possible.  Indices refer to clusters in raster order.
_ADMISSION_8X8 = (0, 8, 6, 2, 4, 3, 5, 1, 7)


class ClusterGrid:
    """Cluster centres for initial placement, in the clusters' raster order,
    and the order in which clusters admit applications.  ``for_mesh`` gives
    one cluster to each pair of a row and a column band (``_bands``)."""

    def __init__(self, centers: Iterable[Coord], admission_order: Iterable[int]):
        try:
            self.centers = tuple(centers)
            self.admission_order = order = tuple(admission_order)
        except TypeError:
            raise ValidationError("centres and admission order must be iterables") from None
        if not all(map(_is_pair, self.centers)):
            raise ValidationError(f"cluster centres must be pairs of ints, got {self.centers}")
        if not all(map(is_int, order)) or sorted(order) != list(range(len(self.centers))):
            raise ValidationError("admission order must permute the cluster indices")

    @classmethod
    def for_mesh(cls, arch: ArchGraph) -> "ClusterGrid":
        rows, cols = _bands(arch.height), _bands(arch.width)
        centers = [((x0 + x1) // 2, (y0 + y1) // 2) for y0, y1 in rows for x0, x1 in cols]
        eight = (arch.width, arch.height) == (8, 8)
        return cls(centers, _ADMISSION_8X8 if eight else _greedy_spread(centers, arch))


def _greedy_spread(centers: list[Coord], arch: ArchGraph) -> tuple[int, ...]:
    """Max-min-distance greedy ordering of cluster centres for small meshes.

    Starting from the centre with the smallest linear index, each step takes
    the remaining cluster whose centre is farthest from the chosen ones: the
    largest (min distance, sum of distances, -linear index).  Each remaining
    cluster keeps its running min and sum, updated once per chosen centre,
    so the ordering costs O(k^2) distances for k clusters.
    """
    start = min(range(len(centers)), key=lambda i: arch.linear_index(centers[i]))
    order = [start]
    # remaining cluster -> [min distance, sum of distances, -linear index]
    score: dict[int, list[int]] = {}
    for i, c in enumerate(centers):
        if i != start:
            d = manhattan(c, centers[start])
            score[i] = [d, d, -arch.linear_index(c)]
    while score:
        nxt = max(score, key=score.__getitem__)
        del score[nxt]
        order.append(nxt)
        for i, s in score.items():
            d = manhattan(centers[i], centers[nxt])
            s[0] = min(s[0], d)
            s[1] += d
    return tuple(order)


def _first_free(tiles: Iterable[Coord], free: AbstractSet[Coord]) -> tuple[Coord | None, int]:
    """First tile of ``tiles`` (read lazily) in ``free``, the free tiles a
    task may run on, and the number of tiles examined: all of them when
    none is free."""
    examined = 0
    for tile in tiles:
        examined += 1
        if tile in free:
            return tile, examined
    return None, examined


def _nearest_free(r: Coord, free: AbstractSet[Coord], arch: ArchGraph) -> Iterator[Coord]:
    """The tiles of ``free`` in (Manhattan distance from ``r``, linear
    index) order: ``r`` itself first if it is free, then the free tiles of
    ``_manhattan_order``."""
    tiles = filter(free.__contains__, _manhattan_order(r, arch))
    return chain((r,), tiles) if r in free else tiles


def _nearest_ring(r: Coord, tiles: Iterator[Coord]) -> Iterator[Coord]:
    """The first of ``tiles``, which come nearest ``r`` first, and the
    tiles after it at the same Manhattan distance from ``r``."""
    first = next(tiles, None)
    if first is not None:
        yield first
        d = manhattan(r, first)
        yield from takewhile(lambda t: manhattan(r, t) == d, tiles)


def place_initial(
    grid: ClusterGrid, held: set[int], state: MappingState
) -> tuple[int, Coord, int] | None:
    """Pick the next free cluster and a tile at or near its centre.

    Returns (cluster index, tile, tiles examined), or None when every cluster
    is held or no free compatible tile exists; the caller queues the
    application in that case.  Only the first cluster not held is tried:
    its centre, then the rings around it, which may reach past other
    centres, since a cluster is only its centre.
    """
    ci = next((ci for ci in grid.admission_order if ci not in held), None)
    if ci is None:
        return None
    center = grid.centers[ci]
    order = chain((center,), _outward(center, state.arch))
    tile, examined = _first_free(order, state.free_tiles(TaskKind.INITIAL))
    return None if tile is None else (ci, tile, examined)


def map_spiral(req: MapRequest, state: MappingState) -> tuple[Coord | None, int]:
    """First free compatible tile scanning rings outward from the requester."""
    if req.requester_tile is None:
        raise StateError("spiral placement requires a requester tile")
    tiles = _outward(req.requester_tile, state.arch)
    return _first_free(tiles, state.free_tiles(req.task.kind))


def map_ff(req: MapRequest, state: MappingState, cursor: int) -> tuple[Coord | None, int, int]:
    """Next free compatible tile after a persistent wrapping linear cursor.

    Returns (tile, advanced cursor, tiles examined); the scan starts at
    ``cursor`` modulo the tile count.  The cursor moves past the chosen tile
    so every compatible tile is used once per sweep before any tile is
    considered again.
    """
    arch = state.arch
    n = arch.width * arch.height
    start = cursor % n
    order = map(arch.coord_at, chain(range(start, n), range(start)))
    tile, examined = _first_free(order, state.free_tiles(req.task.kind))
    if tile is None:
        return None, cursor, examined
    return tile, (arch.linear_index(tile) + 1) % n, examined


def map_nn(req: MapRequest, state: MappingState) -> tuple[Coord | None, int]:
    """Nearest free compatible tile: the first free tile of
    ``_manhattan_order`` around the requester, nearest first, ties in
    raster order.  The requester's own tile is not looked at."""
    if req.requester_tile is None:
        raise StateError("nearest-neighbour placement requires a requester tile")
    tiles = _manhattan_order(req.requester_tile, state.arch)
    return _first_free(tiles, state.free_tiles(req.task.kind))


def _channel_load_key(
    req: MapRequest, state: MappingState, policy: RoutePolicy, average_first: bool
) -> Callable[[Coord], tuple[int, int, int]]:
    """Ledger loads after routing both directions to a tile, for any tile.

    The key is (peak, total, linear index), or (total, peak, linear index)
    with ``average_first``.  Each direction with a volume of at least 1 is
    routed; the route there reads the state's ledger.  A tile's peak is the
    highest of the peak before any tentative route and each routed path's
    highest load plus its volume; its total grows by each volume times its
    path's hops.  A load-aware router chooses the route back on a scratch
    copy of the ledger that holds the forward load, so it sees that load.
    XY routes there and back share no directed link and read no loads, so
    under XY nothing is copied and the key writes no ledger.  The
    requester's own tile routes nothing, so its key holds the base peak and
    total.
    """
    arch, ledger, r = state.arch, state.ledger, req.requester_tile
    base_peak = ledger.peak_load()
    base_total = ledger.total_load()
    vms, vsm = req.vms, req.vsm
    copy_forward = policy is not RoutePolicy.XY and vms >= 1 and vsm >= 1

    def key(tile: Coord) -> tuple[int, int, int]:
        peak, total = base_peak, base_total
        if tile != r:
            back_ledger = ledger
            if vms >= 1:
                path = route(policy, r, tile, ledger, arch)
                peak = max(peak, ledger.path_peak(path) + vms)
                total += vms * path_hops(path)
                if copy_forward:
                    back_ledger = ledger.copy()
                    back_ledger.add_path(path, vms)
            if vsm >= 1:
                path = route(policy, tile, r, back_ledger, arch)
                peak = max(peak, back_ledger.path_peak(path) + vsm)
                total += vsm * path_hops(path)
        i = arch.linear_index(tile)
        return (total, peak, i) if average_first else (peak, total, i)

    return key


def map_channel_load(
    req: MapRequest, state: MappingState, policy: RoutePolicy, average_first: bool
) -> tuple[Coord | None, int]:
    """Tile whose tentative routes leave the lowest channel load (mmc, mac).

    mmc minimises the resulting peak load, breaking ties on the total;
    mac (``average_first``) minimises the resulting average load, compared
    through the exact integer total since the link count is constant, and
    breaks ties on the peak.  Remaining ties break on linear tile index.
    The examined count is the number of free compatible candidates.

    Under either route policy the candidates are scored in the order of a
    lower bound on their keys, nearest first, and the walk stops once the
    next bound exceeds the best key scored.  A route is at least as long as
    the Manhattan distance, so a tile ``h >= 1`` hops away adds at least
    ``h x (vms + vsm)`` to the total (exactly that under XY), and its peak
    is at least the floor ``max(base peak, vms, vsm)``; the requester's own
    tile keeps the base peak and total.  So a tile's shell bound is its key
    with the peak lowered to the floor and the total to that sum, and bound
    order is (hops, linear index): the order in which ``_nearest_free``
    yields the free candidates, the requester's own tile first.  The walk
    reads the tiles it reaches, not every candidate.  With no volume every
    key is the base loads and the tile's index, so the free candidate with
    the lowest index wins unscored, and the ledger is not read.

    Under XY a tile's own bound is tighter.  Its route there starts along
    the requester's row (all on its column if the tile shares that column),
    and its route back ends along the requester's column (all on its row if
    the tile shares that row), so its peak is at least each of those legs'
    highest load plus the volume routed over it (see ``xy_leg_peaks``; a
    zero volume adds nothing).  A tile whose own bound exceeds the best key
    is skipped unscored.  The legs are read once per call, and only when a
    scored key misses its bound: mmc stops after the first tile that meets
    the floor, mac at the end of the first non-empty shell at the latest,
    without reading them.  Under the load-aware router a route need not
    start or end along the requester's row or column, and the bound stays
    the shell bound.  Each tile scored costs two routes, plus a copy of the
    link loads under the load-aware router (see ``_channel_load_key``).
    """
    if req.requester_tile is None:
        raise StateError("channel-load placement requires a requester tile")
    free = state.free_tiles(req.task.kind)
    if not free:
        return None, 0
    arch, r = state.arch, req.requester_tile
    vms, vsm = req.vms, req.vsm
    volume = vms + vsm
    if not volume:
        # Every key is the base loads and the tile's index.
        return arch.coord_at(min(map(arch.linear_index, free))), len(free)
    key = _channel_load_key(req, state, policy, average_first)
    base_peak, base_total = state.ledger.peak_load(), state.ledger.total_load()
    floor = max(base_peak, vms, vsm)
    xy = policy is RoutePolicy.XY
    rx, ry = r
    legs = None  # xy_leg_peaks(r), read once a scored key misses its bound

    def order(peak: int, total: int, i: int) -> tuple[int, int, int]:
        return (total, peak, i) if average_first else (peak, total, i)

    best = best_key = None
    for tile in _nearest_free(r, free, arch):
        tx, ty = tile
        hops = abs(tx - rx) + abs(ty - ry)
        peak = floor if hops else base_peak
        total = base_total + hops * volume
        i = arch.linear_index(tile)
        if best_key is not None:
            if order(peak, total, i) > best_key:
                break
            if xy:
                if legs is None:
                    legs = xy_leg_peaks(r, state.ledger, arch)
                row_out, row_in, col_out, col_in = legs
                if vms:
                    peak = max(peak, (col_out[ty] if tx == rx else row_out[tx]) + vms)
                if vsm:
                    peak = max(peak, (row_in[tx] if ty == ry else col_in[ty]) + vsm)
                if order(peak, total, i) > best_key:
                    continue
        k = key(tile)
        if best_key is None or k < best_key:
            best, best_key = tile, k
    return best, len(free)


def _pl_key(
    req: MapRequest, state: MappingState, tile: Coord, policy: RoutePolicy
) -> tuple[int, int, int]:
    arch = state.arch
    there = route(policy, req.requester_tile, tile, state.ledger, arch)
    back = route(policy, tile, req.requester_tile, state.ledger, arch)
    cost = path_cost(there, state.ledger) + path_cost(back, state.ledger)
    hops = path_hops(there) + path_hops(back)
    return (cost, hops, arch.linear_index(tile))


def map_pl(
    req: MapRequest, state: MappingState, policy: RoutePolicy
) -> tuple[Coord | None, int]:
    """Tile with the cheapest current-load communication path, both ways.

    Costs are sums of existing link loads along the routes the policy would
    choose; ties break on combined hop count, then linear index.

    Under XY a tile's hops are twice its Manhattan distance, and no cost is
    below 0.  So the nearest free candidates (see ``_nearest_free``) are
    scored first, in linear-index order, each by summing its two XY routes
    from the link tables (``routing._xy_cost``): the first that costs 0
    wins, since every other candidate is farther, costs more or has a
    higher index.  Otherwise, and always under the load-aware router, every
    candidate is scored in bulk from one pass per call: one ``xy_fold`` from
    the requester under XY (O(tiles)), two ``min_load_tree`` searches under
    the load-aware router (O(links log tiles)), whose hops may exceed twice
    the distance.  The key (cost, hops, linear index) is unique per tile, so
    the order the free set is read in does not matter.
    """
    if req.requester_tile is None:
        raise StateError("path-load placement requires a requester tile")
    free = state.free_tiles(req.task.kind)
    if not free:
        return None, 0
    arch, ledger, r = state.arch, state.ledger, req.requester_tile
    if policy is RoutePolicy.XY:
        for t in _nearest_ring(r, _nearest_free(r, free, arch)):
            if not _xy_cost(r, t, ledger, arch) and not _xy_cost(t, r, ledger, arch):
                return t, len(free)
        there, back = xy_fold(r, ledger, arch)
        idx = list(map(arch.linear_index, free))
        # Half of each XY hop count.
        hops: Iterable[int] = [manhattan(r, arch.coord_at(i)) for i in idx]
    else:
        there, there_hops = min_load_tree(r, ledger, arch)
        back, back_hops = min_load_tree(r, ledger, arch, into=True)
        idx = list(map(arch.linear_index, free))
        hops = map(add, map(there_hops.__getitem__, idx), map(back_hops.__getitem__, idx))
    costs = map(add, map(there.__getitem__, idx), map(back.__getitem__, idx))
    _, _, i = min(zip(costs, hops, idx))
    return arch.coord_at(i), len(free)


def map_bn(
    req: MapRequest, state: MappingState, policy: RoutePolicy
) -> tuple[Coord | None, int]:
    """Path-load choice restricted to the nearest non-empty Manhattan shell:
    the free candidates at the least distance of at least 1, the first
    ring of free tiles in ``_manhattan_order`` (which leaves out the
    requester's own tile).

    Each shell tile costs two routes (see ``_pl_key``).  The shell is often
    a few tiles, and a route to a near tile stops early, so this costs less
    than the two whole-mesh searches ``map_pl`` makes under the load-aware
    router.
    """
    r = req.requester_tile
    if r is None:
        raise StateError("best-neighbour placement requires a requester tile")
    free = state.free_tiles(req.task.kind)
    walk = filter(free.__contains__, _manhattan_order(r, state.arch))
    shell = list(_nearest_ring(r, walk))
    if not shell:
        return None, 0
    return min(shell, key=lambda t: _pl_key(req, state, t, policy)), len(shell)


def _coerce(enum: type[Enum], value: object, what: str):
    """``enum(value)``, or a ValidationError listing the valid values."""
    try:
        return enum(value)
    except ValueError:
        valid = ", ".join(m.value for m in enum)
        raise ValidationError(f"unknown {what} {value!r} (valid: {valid})") from None


class HeuristicEngine:
    """Stateful dispatcher: route policy, first-free cursor, evaluation count."""

    def __init__(self, kind: HeuristicKind | str, route_policy: RoutePolicy | str | None = None):
        self.kind = _coerce(HeuristicKind, kind, "heuristic")
        if route_policy is None:
            route_policy = DEFAULT_ROUTE_POLICY[self.kind]
        self.route_policy = policy = _coerce(RoutePolicy, route_policy, "route policy")
        self.cursor = 0
        self.evaluations = 0
        self._map = {
            HeuristicKind.FF: self._map_ff,
            HeuristicKind.NN: map_nn,
            HeuristicKind.SPIRAL: map_spiral,
            HeuristicKind.MMC: partial(map_channel_load, policy=policy, average_first=False),
            HeuristicKind.MAC: partial(map_channel_load, policy=policy, average_first=True),
            HeuristicKind.PL: partial(map_pl, policy=policy),
            HeuristicKind.BN: partial(map_bn, policy=policy),
        }[self.kind]

    def _map_ff(self, req: MapRequest, state: MappingState) -> tuple[Coord | None, int]:
        tile, self.cursor, examined = map_ff(req, state, self.cursor)
        return tile, examined

    def place(self, req: MapRequest, state: MappingState) -> Coord | None:
        if not isinstance(req, MapRequest):
            raise ValidationError(f"a request must be a MapRequest, got {req!r}")
        tile, examined = self._map(req, state)
        self.evaluations += examined
        return tile
