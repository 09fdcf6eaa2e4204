"""Path computation on the mesh.

Two routers are provided: deterministic dimension-ordered XY routing and a
load-aware Dijkstra search that minimises the accumulated load along the
path (ties broken by hop count).  ``xy_fold`` folds the link loads of every
XY route from one tile, and back to it, in one pass over the mesh.
"""
from __future__ import annotations

import heapq
from enum import Enum
from itertools import accumulate
from typing import Callable, Iterator, Sequence

from .model import ArchGraph, ChannelLoadLedger, Coord

Path = tuple[Coord, ...]


class RoutePolicy(Enum):
    XY = "xy"
    MIN_LOAD = "mdijkstra"


def path_hops(path: Sequence[Coord]) -> int:
    return len(path) - 1


def path_cost(path: Sequence[Coord], ledger: ChannelLoadLedger) -> int:
    """Sum of current ledger loads over the directed links the path uses."""
    return sum(ledger.path_loads(path))


def xy_route(src: Coord, dst: Coord, arch: ArchGraph) -> Path:
    """Dimension-ordered route: full X correction first, then Y."""
    arch.require_in_mesh(src)
    arch.require_in_mesh(dst)
    path = [src]
    x, y = src
    step = 1 if dst[0] > x else -1
    while x != dst[0]:
        x += step
        path.append((x, y))
    step = 1 if dst[1] > y else -1
    while y != dst[1]:
        y += step
        path.append((x, y))
    return tuple(path)


def _prefix_folds(
    path: Path, ledger: ChannelLoadLedger, op: Callable[[int, int], int]
) -> Iterator[tuple[Coord, int]]:
    """(tile, fold of the loads from ``path[0]`` to that tile) along ``path``."""
    return zip(path, accumulate(ledger.path_loads(path), op, initial=0))


def _suffix_folds(
    path: Path, ledger: ChannelLoadLedger, op: Callable[[int, int], int]
) -> Iterator[tuple[Coord, int]]:
    """(tile, fold of the loads from that tile to ``path[-1]``) along ``path``."""
    return zip(reversed(path), accumulate(reversed(ledger.path_loads(path)), op, initial=0))


def xy_fold(
    src: Coord, ledger: ChannelLoadLedger, arch: ArchGraph, op: Callable[[int, int], int]
) -> tuple[list[int], list[int]]:
    """Fold of the link loads on every XY route from ``src`` and back to it.

    Returns ``(there, back)``, lists indexed by linear tile index: for each
    tile ``t``, the ``op``-fold (``operator.add`` or ``max``, starting from
    0) of the loads on ``xy_route(src, t)`` and on ``xy_route(t, src)``.
    The route there is a segment of ``src``'s row, then one of ``t``'s
    column; the route back is a segment of ``t``'s row, then one of
    ``src``'s column.  So running folds along the XY routes from ``src`` to
    both ends of its row, down every column from that row, and likewise
    into ``src``, give every tile's values in O(tiles) ledger reads.
    """
    arch.require_in_mesh(src)
    sx, sy = src
    w, h = arch.width, arch.height
    there = [0] * (w * h)
    back = [0] * (w * h)
    along_row = [0] * w  # fold from src to (x, sy)
    for end in ((0, sy), (w - 1, sy)):
        for (x, _), v in _prefix_folds(xy_route(src, end, arch), ledger, op):
            along_row[x] = v
    for x in range(w):
        for end in ((x, 0), (x, h - 1)):
            for (_, y), v in _prefix_folds(xy_route((x, sy), end, arch), ledger, op):
                there[y * w + x] = op(along_row[x], v)
    down_col = [0] * h  # fold from (sx, y) to src
    for start in ((sx, 0), (sx, h - 1)):
        for (_, y), v in _suffix_folds(xy_route(start, src, arch), ledger, op):
            down_col[y] = v
    for y in range(h):
        for start in ((0, y), (w - 1, y)):
            for (x, _), v in _suffix_folds(xy_route(start, (sx, y), arch), ledger, op):
                back[y * w + x] = op(v, down_col[y])
    return there, back


def min_load_route(src: Coord, dst: Coord, ledger: ChannelLoadLedger, arch: ArchGraph) -> Path:
    """Least-loaded route via Dijkstra over (total load, hops).

    The objective is lexicographic: minimise the sum of current link loads
    along the path, then the hop count.  Load never decreases along an
    extension and every move costs a hop, so optimal paths are simple.
    Determinism: heap ties break on linear tile index and neighbours relax in
    linear-index order, so the first optimal predecessor found wins.
    """
    arch.require_in_mesh(src)
    arch.require_in_mesh(dst)
    if src == dst:
        return (src,)
    dist: dict[Coord, tuple[int, int]] = {src: (0, 0)}
    parent: dict[Coord, Coord] = {}
    heap: list[tuple[int, int, int, Coord]] = [(0, 0, arch.linear_index(src), src)]
    done: set[Coord] = set()
    while heap:
        load, hops, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == dst:
            break
        for v in arch.neighbors(u):
            if v in done:
                continue
            cand = (load + ledger.load((u, v)), hops + 1)
            if v not in dist or cand < dist[v]:
                dist[v] = cand
                parent[v] = u
                heapq.heappush(heap, (cand[0], cand[1], arch.linear_index(v), v))
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(path)


def route(
    policy: RoutePolicy,
    src: Coord,
    dst: Coord,
    ledger: ChannelLoadLedger,
    arch: ArchGraph,
) -> Path:
    if policy is RoutePolicy.XY:
        return xy_route(src, dst, arch)
    return min_load_route(src, dst, ledger, arch)
