"""Path computation on the mesh.

Two routers are provided: deterministic dimension-ordered XY routing and a
load-aware Dijkstra search that minimises the accumulated load along the
path (ties broken by hop count).  Among equal-cost paths the search keeps
the XY route when the destination is on or below the source's row and the
YX route when it is above; when that route carries no load it is optimal,
and ``min_load_route`` returns it without a search.  ``xy_fold`` sums the
link loads of every XY route from one tile, and back to it, in one pass
over the mesh, and ``_xy_cost`` sums those of one XY route from the link
tables; ``xy_leg_peaks`` gives the highest load on each XY route
between a tile and the tiles of its own row and column, reading that row
and column from the mesh's link tables as the fold does; ``min_load_tree``
gives the load and hops of every load-aware route from one tile, or into
it, from one search.  The folds and the search run on linear tile indices
and the integer link ids of ``ArchGraph``, reading the ledger's per-link
list; only a returned path is built from coordinates.
"""
from __future__ import annotations

import heapq
from enum import Enum
from itertools import accumulate
from operator import add
from typing import Callable, Sequence

from .model import ArchGraph, ChannelLoadLedger, Coord, ValidationError

Path = tuple[Coord, ...]


class RoutePolicy(Enum):
    XY = "xy"
    MIN_LOAD = "mdijkstra"


# ``route`` compares its policy with these names, which costs less than
# reading an enum member through its class.
_XY, _MIN_LOAD = RoutePolicy.XY, RoutePolicy.MIN_LOAD


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


def _xy_line(
    pos: int,
    at: int,
    low: Sequence[Sequence[int]],
    high: Sequence[Sequence[int]],
    load: Callable[[int], int],
    op: Callable[[int, int], int],
) -> list[int]:
    """``op``-folds of the link loads on every XY route between one tile and
    the tiles of its own row or column, indexed by position along that line.

    The tile sits at position ``pos`` along the line, and the line at ``at``
    across it.  ``low`` and ``high`` are link tables of ``ArchGraph``
    (``east``, ``west``, ``south`` or ``north``) whose entry ``[k][at]`` is
    a link between positions ``k`` and ``k + 1`` of the line, in the
    direction the routes cross it: ``low`` is read below ``pos`` and
    ``high`` above it, nearest first.  Entry ``pos`` is 0.  O(line length).
    """
    below = [ids[at] for ids in low[:pos]][::-1]
    above = [ids[at] for ids in high[pos:]]
    return (
        list(accumulate(map(load, below), op, initial=0))[::-1]
        + list(accumulate(map(load, above), op, initial=0))[1:]
    )


def xy_fold(src: Coord, ledger: ChannelLoadLedger, arch: ArchGraph) -> tuple[list[int], list[int]]:
    """Summed link loads on every XY route from ``src`` and back to it.

    Returns ``(there, back)``, lists indexed by linear tile index: for each
    tile ``t``, the sum of the loads on ``xy_route(src, t)`` and on
    ``xy_route(t, src)``.  The route there is a segment of ``src``'s row,
    then one of ``t``'s column; the route back is a segment of ``t``'s row,
    then one of ``src``'s column.  So the sums along ``src``'s row (see
    ``_xy_line``), extended one row at a time up and down every column at
    once, give ``there``; the sums along ``src``'s column, extended one
    column at a time, give ``back``.  O(tiles) reads of the ledger's
    per-link list.
    """
    arch.require_in_mesh(src)
    sx, sy = src
    w, h = arch.width, arch.height
    east, west, south, north = arch.east, arch.west, arch.south, arch.north
    load = ledger.by_link_id().__getitem__

    def step(acc: list[int], link_ids: Sequence[int]) -> list[int]:
        """``acc`` with each entry extended by the load of one link."""
        return list(map(add, acc, map(load, link_ids)))

    there = [0] * (w * h)
    back = [0] * (w * h)
    # row[x]: sum from src to (x, sy); col[y]: sum from (sx, y) to src.
    row = _xy_line(sx, sy, west, east, load, add)
    col = _xy_line(sy, sx, south, north, load, add)
    there[sy * w : sy * w + w] = row
    acc = row
    for y in range(sy + 1, h):
        there[y * w : y * w + w] = acc = step(acc, south[y - 1])
    acc = row
    for y in range(sy - 1, -1, -1):
        there[y * w : y * w + w] = acc = step(acc, north[y])
    back[sx::w] = col
    acc = col
    for x in range(sx + 1, w):
        back[x::w] = acc = step(acc, west[x - 1])
    acc = col
    for x in range(sx - 1, -1, -1):
        back[x::w] = acc = step(acc, east[x])
    return there, back


def _xy_cost(src: Coord, dst: Coord, ledger: ChannelLoadLedger, arch: ArchGraph) -> int:
    """``path_cost(xy_route(src, dst, arch), ledger)`` for two mesh tiles,
    summed from the link tables: the leg along ``src``'s row to ``dst``'s
    column, then the leg along that column.  O(hops), with no path built."""
    loads = ledger.by_link_id()
    (x, y), (tx, ty) = src, dst
    row = arch.east[x:tx] if tx > x else arch.west[tx:x]
    col = arch.south[y:ty] if ty > y else arch.north[ty:y]
    return sum([loads[ids[y]] for ids in row]) + sum([loads[ids[tx]] for ids in col])


def xy_leg_peaks(
    src: Coord, ledger: ChannelLoadLedger, arch: ArchGraph
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Highest link load on every XY route between ``src`` and a tile of
    its own row or column.

    Returns ``(row_out, row_in, col_out, col_in)``: ``row_out[x]`` is the
    highest load on ``xy_route(src, (x, sy))`` and ``row_in[x]`` that on
    ``xy_route((x, sy), src)``; ``col_out[y]`` and ``col_in[y]`` are the
    same for the tile ``(sx, y)``.  Each is 0 at ``src`` itself.  An XY
    route from ``src`` to a tile off its column starts along its row, and a
    route into ``src`` from a tile off its row ends along its column, so
    every XY route from or to ``src`` has a peak at least that of the leg
    it shares with ``src``'s row or column.  The row and column are read
    from the link tables as in ``xy_fold`` (see ``_xy_line``):
    O(width + height).
    """
    arch.require_in_mesh(src)
    sx, sy = src
    load = ledger.by_link_id().__getitem__
    return (
        _xy_line(sx, sy, arch.west, arch.east, load, max),
        _xy_line(sx, sy, arch.east, arch.west, load, max),
        _xy_line(sy, sx, arch.north, arch.south, load, max),
        _xy_line(sy, sx, arch.south, arch.north, load, max),
    )


def _dijkstra(
    src: int, dst: int, loads: Sequence[int], arch: ArchGraph
) -> tuple[list[int], list[int], list[int]]:
    """Dijkstra over (load, hops) from tile index ``src`` on ``arch``.

    A step from tile index ``u`` to ``v`` costs ``loads`` at the id of the
    link ``u -> v``: ``ArchGraph.out_links[u]`` pairs each ``v`` with that
    id.  The search stops once ``dst`` is settled; with ``dst = -1`` it
    settles every tile.  Returns the (load, hops) of every settled tile and
    its parent, by tile index.  Heap entries are ``(load, hops, index)``, so
    ties break on linear tile index, and neighbours relax in linear-index
    order (the order of ``out_links``), so the first optimal parent found
    wins.
    """
    out = arch.out_links
    n = len(out)
    best = [0] * n
    hop = [0] * n
    parent = [-1] * n  # -1: not reached yet (``src`` is settled first)
    done = [False] * n
    heap = [(0, 0, src)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        load, hops, u = pop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == dst:
            break
        hops += 1
        for v, link in out[u]:
            if done[v]:
                continue
            cand = load + loads[link]
            if parent[v] < 0 or cand < best[v] or (cand == best[v] and hops < hop[v]):
                best[v] = cand
                hop[v] = hops
                parent[v] = u
                push(heap, (cand, hops, v))
    return best, hop, parent


def min_load_route(src: Coord, dst: Coord, ledger: ChannelLoadLedger, arch: ArchGraph) -> Path:
    """Least-loaded route via Dijkstra over (total load, hops).

    The objective is lexicographic: minimise the sum of current link loads
    along the path, then the hop count.  Load never decreases along an
    extension and every move costs a hop, so optimal paths are simple.
    Determinism: heap ties break on linear tile index and neighbours relax in
    linear-index order, so the first optimal predecessor found wins.

    Among shortest paths that tie rule picks the XY route (the row first,
    then the column) when ``dst`` is on or below ``src``'s row
    (``dst[1] >= src[1]``), and otherwise the YX route (the column first).
    That route is walked first, on the link tables; if every link on it
    carries zero load it is returned without a search, otherwise
    ``_dijkstra`` runs.  The shortcut is exact:

    - (0, Manhattan distance) is the least (load, hops) any route can have,
      so a zero-load shortest path is optimal and every optimal path is a
      zero-load shortest path.
    - A neighbour of ``v`` can give ``v`` that optimum only if it is one hop
      closer to ``src``, since tiles next to each other differ by one in
      Manhattan distance.
    - Heap keys are ``(load, hops, index)`` and a parent is replaced only by
      a strictly better value, so ``_dijkstra``'s parent for ``v`` is the
      closer neighbour with the lowest index among those that reach ``v``
      at the optimum.
    - Below ``src``'s row that is the neighbour a row up (index - width,
      lower than index +- 1 whenever the mesh is at least 2 wide); above
      ``src``'s row it is the one along the row (index +- 1, lower than
      index + width).  On a zero-load tie route each of its tiles reaches
      the next at the optimum, so it is that parent at every step.
    - Following those parents back from ``dst`` traces exactly the XY or
      YX route.
    """
    arch.require_in_mesh(src)
    arch.require_in_mesh(dst)
    if src == dst:
        return (src,)
    loads = ledger.by_link_id()
    (x, y), (tx, ty) = src, dst
    path = [src]
    # Walk to each corner of the tie route in turn; each corner shares a
    # row or a column with the tile before it, so one loop below moves.
    for cx, cy in ((tx, y), dst) if ty >= y else ((x, ty), dst):
        while x < cx and not loads[arch.east[x][y]]:
            x += 1
            path.append((x, y))
        while x > cx and not loads[arch.west[x - 1][y]]:
            x -= 1
            path.append((x, y))
        while y < cy and not loads[arch.south[y][x]]:
            y += 1
            path.append((x, y))
        while y > cy and not loads[arch.north[y - 1][x]]:
            y -= 1
            path.append((x, y))
        if x != cx or y != cy:  # stopped at a loaded link
            break
    else:
        return tuple(path)
    s, d = arch.linear_index(src), arch.linear_index(dst)
    _, _, parent = _dijkstra(s, d, loads, arch)
    path = [d]
    while path[-1] != s:
        path.append(parent[path[-1]])
    return tuple(map(arch.coord_at, reversed(path)))


def min_load_tree(
    src: Coord, ledger: ChannelLoadLedger, arch: ArchGraph, into: bool = False
) -> tuple[list[int], list[int]]:
    """(load, hops) of ``min_load_route`` from ``src`` to every tile.

    Returns two lists indexed by linear tile index.  With ``into``, the
    routes run from every tile to ``src`` instead: the search steps from
    ``u`` to ``v`` at the load of link ``v -> u``, so it reads each link's
    load at the id of the opposite link.  A lexicographic optimum is unique
    as a value, so each entry equals the load and hop count of the path
    ``min_load_route`` returns for that pair, whatever tie it breaks; one
    full search replaces one route per tile.
    """
    arch.require_in_mesh(src)
    loads = ledger.by_link_id()
    if into:
        loads = list(map(loads.__getitem__, arch.opposite))
    best, hop, _ = _dijkstra(arch.linear_index(src), -1, loads, arch)
    return best, hop


def route(
    policy: RoutePolicy,
    src: Coord,
    dst: Coord,
    ledger: ChannelLoadLedger,
    arch: ArchGraph,
) -> Path:
    if policy is _XY:
        return xy_route(src, dst, arch)
    if policy is _MIN_LOAD:
        return min_load_route(src, dst, ledger, arch)
    valid = " or ".join(map(str, RoutePolicy))
    raise ValidationError(f"route policy must be {valid}, got {policy!r}")
