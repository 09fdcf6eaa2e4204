"""Path computation on the mesh.

Two routers are provided: deterministic dimension-ordered XY routing and a
load-aware Dijkstra search that minimises the accumulated load along the
path (ties broken by hop count).
"""
from __future__ import annotations

import heapq
from enum import Enum
from typing import Sequence

from .model import ArchGraph, ChannelLoadLedger, Coord

Path = tuple[Coord, ...]


class RoutePolicy(Enum):
    XY = "xy"
    MIN_LOAD = "mdijkstra"


def path_hops(path: Sequence[Coord]) -> int:
    return len(path) - 1


def path_cost(path: Sequence[Coord], ledger: ChannelLoadLedger) -> int:
    """Sum of current ledger loads over the directed links the path uses."""
    return sum(ledger.load(link) for link in zip(path, path[1:]))


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
