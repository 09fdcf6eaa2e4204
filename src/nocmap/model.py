"""Core domain model: applications, the tile mesh, and mapping state.

Applications are acyclic directed graphs of typed tasks that exchange packet
volumes over master/slave edges.  The platform is a W x H mesh of
heterogeneous tiles joined by directed links (two per physical adjacency).
``MappingState`` records the tile each task occupies (``placement``), the
free tiles of each kind, the link-level route every communication was pinned
to, and the per-link load ledger that the placement heuristics and the router
query.

All volumes, loads and instruction counts are exact non-negative integers,
so ledger bookkeeping is exactly reversible.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

Coord = tuple[int, int]
DirectedLink = tuple[Coord, Coord]

# Communication directions on an edge.
DIR_MS = "ms"  # master -> slave
DIR_SM = "sm"  # slave -> master
DIRECTIONS = (DIR_MS, DIR_SM)


class NocError(Exception):
    """Base class for model errors."""


class ValidationError(NocError):
    """Invalid input: coordinates, graphs, files or parameters."""


class StateError(NocError):
    """Operation conflicts with the current mapping state."""


class TaskKind(Enum):
    INITIAL = "initial"
    SOFTWARE = "software"
    HARDWARE = "hardware"


class TileKind(Enum):
    ISP = "isp"          # instruction-set processor
    RA = "ra"            # reconfigurable area
    MANAGER = "manager"  # admission/mapping controller, runs no app tasks


def compatible(task_kind: TaskKind, tile_kind: TileKind) -> bool:
    """True iff a task of this kind may execute on a tile of this kind.

    Hardware tasks bind to reconfigurable tiles, software and initial tasks
    to instruction-set processors.  The manager tile never runs app tasks.
    """
    if tile_kind is TileKind.RA:
        return task_kind is TaskKind.HARDWARE
    if tile_kind is TileKind.ISP:
        return task_kind in (TaskKind.SOFTWARE, TaskKind.INITIAL)
    return False


def manhattan(a: Coord, b: Coord) -> int:
    """Manhattan distance between mesh coordinates (no bounds check)."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _require_str(what: str, value: object) -> None:
    # Checked after a value's other faults, whose messages name it whatever
    # its type.
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a str, got {value!r}")


@dataclass(frozen=True)
class Task:
    id: str
    kind: TaskKind
    instructions: int

    def __post_init__(self) -> None:
        if not is_int(self.instructions):
            raise ValidationError(
                f"task {self.id!r}: instructions must be an integer, got {self.instructions!r}"
            )
        if self.instructions < 1:
            raise ValidationError(
                f"task {self.id!r}: instructions must be >= 1, got {self.instructions}"
            )
        if not isinstance(self.kind, TaskKind):
            raise ValidationError(f"task {self.id!r}: kind must be a TaskKind, got {self.kind!r}")
        _require_str("task id", self.id)


@dataclass(frozen=True)
class Edge:
    """Communication between a master task and the slave it spawns.

    ``vms``/``vsm`` are the packet volumes carried master->slave and
    slave->master; at least one direction must carry traffic.
    """

    mtid: str
    stid: str
    vms: int
    vsm: int

    def __post_init__(self) -> None:
        if self.mtid == self.stid:
            raise ValidationError(f"edge {self.mtid!r}->{self.stid!r}: self loop")
        if not (is_int(self.vms) and is_int(self.vsm)):
            raise ValidationError(
                f"edge {self.mtid!r}->{self.stid!r}: volumes must be integers, "
                f"got {self.vms!r} and {self.vsm!r}"
            )
        if self.vms < 0 or self.vsm < 0:
            raise ValidationError(
                f"edge {self.mtid!r}->{self.stid!r}: volumes must be non-negative"
            )
        if self.vms + self.vsm < 1:
            raise ValidationError(
                f"edge {self.mtid!r}->{self.stid!r}: at least one direction must carry traffic"
            )
        _require_str("edge master id", self.mtid)
        _require_str("edge slave id", self.stid)


_SLAVE_ID = attrgetter("stid")
_MASTER_ID = attrgetter("mtid")


class TaskGraph:
    """Validated application graph: one initial task, acyclic, connected.

    Validation is O(tasks + edges): the loop that checks each edge also
    files it under its master and its slave, and Kahn's sort and the
    reachability walk run over those lists.
    """

    def __init__(self, app_id: str, tasks: Sequence[Task], edges: Sequence[Edge]):
        self.app_id = app_id
        self.tasks = self._items("tasks", tasks, Task)
        self.edges = self._items("edges", edges, Edge)
        self._by_id = {t.id: t for t in self.tasks}
        self.initial = self._root()
        out, inc = self._file_edges()
        self._check_acyclic(out, inc)
        self._check_reachable(out)
        _require_str("application id", app_id)
        # Each task's edges in the id order of their other ends, which differ.
        self._out = {
            tid: tuple(sorted(es, key=_SLAVE_ID) if len(es) > 1 else es) for tid, es in out.items()
        }
        self._in = {
            tid: tuple(sorted(es, key=_MASTER_ID) if len(es) > 1 else es) for tid, es in inc.items()
        }

    def _fail(self, what: str) -> ValidationError:
        return ValidationError(f"application {self.app_id!r}: {what}")

    def _items(self, what: str, items: object, cls: type) -> tuple:
        """``items`` as a tuple, checked to hold only ``cls`` objects; a
        non-iterable ``items`` is reported as the one wrong item."""
        items = tuple(items) if isinstance(items, Iterable) else (items,)
        for item in items:
            if not isinstance(item, cls):
                raise self._fail(f"{what} must be {cls.__name__} objects, got {item!r}")
        return items

    def _root(self) -> Task:
        if not self.tasks:
            raise self._fail("no tasks")
        if len(self._by_id) != len(self.tasks):
            raise self._fail("duplicate task ids")
        roots = [t for t in self.tasks if t.kind is TaskKind.INITIAL]
        if len(roots) > 1:
            raise self._fail(f"multiple roots ({', '.join(t.id for t in roots)})")
        if not roots:
            raise self._fail("missing initial task")
        return roots[0]

    def _file_edges(self) -> tuple[dict[str, list[Edge]], dict[str, list[Edge]]]:
        """Check each edge and list the edges out of and into every task."""
        out: dict[str, list[Edge]] = {tid: [] for tid in self._by_id}
        inc: dict[str, list[Edge]] = {tid: [] for tid in self._by_id}
        seen: set[tuple[str, str]] = set()
        root = self.initial.id
        for e in self.edges:
            m, s = e.mtid, e.stid
            if m not in out or s not in out:
                raise self._fail(f"unknown task {m if m not in out else s!r} in edge")
            if (m, s) in seen:
                raise self._fail(f"duplicate edge {m!r}->{s!r}")
            seen.add((m, s))
            if s == root:
                raise self._fail(f"initial task {s!r} has a master")
            out[m].append(e)
            inc[s].append(e)
        return out, inc

    def _check_acyclic(self, out: dict[str, list[Edge]], inc: dict[str, list[Edge]]) -> None:
        # Kahn's algorithm; tasks it never reaches expose the cycle edges.
        indeg = {tid: len(es) for tid, es in inc.items()}
        ready = [tid for tid, d in indeg.items() if not d]
        done = 0
        while ready:
            done += 1
            for e in out[ready.pop()]:
                indeg[e.stid] -= 1
                if not indeg[e.stid]:
                    ready.append(e.stid)
        if done != len(self.tasks):
            stuck = {tid for tid, d in indeg.items() if d}
            cyc = [f"{e.mtid}->{e.stid}" for e in self.edges if e.mtid in stuck and e.stid in stuck]
            raise self._fail(f"cyclic graph ({', '.join(cyc)})")

    def _check_reachable(self, out: dict[str, list[Edge]]) -> None:
        """Every non-initial task must descend from the initial task."""
        reach = {self.initial.id}
        frontier = [self.initial.id]
        while frontier:
            for e in out[frontier.pop()]:
                if e.stid not in reach:
                    reach.add(e.stid)
                    frontier.append(e.stid)
        for t in self.tasks:
            if t.id not in reach:
                raise self._fail(f"unreachable task {t.id!r}")

    # An unknown or unhashable task id raises KeyError or TypeError; each
    # lookup turns both into ValidationError off its normal path.
    def task(self, tid: str) -> Task:
        try:
            return self._by_id[tid]
        except (KeyError, TypeError):
            raise self._fail(f"unknown task {tid!r}") from None

    def outgoing(self, tid: str) -> tuple[Edge, ...]:
        """Edges mastered by ``tid``, ordered by slave id."""
        try:
            return self._out[tid]
        except (KeyError, TypeError):
            raise self._fail(f"unknown task {tid!r}") from None

    def incoming(self, tid: str) -> tuple[Edge, ...]:
        """Edges targeting ``tid``, ordered by master id."""
        try:
            return self._in[tid]
        except (KeyError, TypeError):
            raise self._fail(f"unknown task {tid!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return (self.app_id, self.tasks, self.edges) == (other.app_id, other.tasks, other.edges)

    def __hash__(self) -> int:
        return hash((self.app_id, self.tasks, self.edges))

    def __repr__(self) -> str:
        return f"TaskGraph({self.app_id!r}, {len(self.tasks)} tasks, {len(self.edges)} edges)"


# Default 8x8 platform: manager in the corner, 14 reconfigurable tiles spread
# over the mesh, instruction-set processors everywhere else.  The layout is a
# configuration input; this list is the shipped default.
DEFAULT_RA_TILES: tuple[Coord, ...] = (
    (2, 1), (5, 1), (1, 2), (4, 2), (7, 2), (3, 3), (6, 3),
    (1, 4), (4, 4), (7, 4), (2, 5), (5, 5), (3, 6), (6, 6),
)
DEFAULT_MANAGER: Coord = (0, 0)

# Largest accepted mesh edge.  Per-tile tables grow with its square; the
# largest mesh any benchmark uses is 16x16, and tests build meshes up to
# 20x20.
MAX_MESH_EDGE = 64


def is_int(value: object) -> bool:
    """True for an ``int`` that is not a ``bool``: the model counts cycles,
    tiles and energy in exact integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_mesh_size(width: int, height: int) -> None:
    for name, value in (("width", width), ("height", height)):
        if not is_int(value):
            raise ValidationError(f"mesh {name} must be an integer, got {value!r}")
    if not (1 <= width <= MAX_MESH_EDGE and 1 <= height <= MAX_MESH_EDGE):
        raise ValidationError(
            f"mesh dimensions must be between 1 and {MAX_MESH_EDGE}, got {width}x{height}"
        )


def _check_amount(name: str, value: int) -> None:
    if not is_int(value) or value < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")


def _tile_kind(kinds: Mapping[Coord, TileKind], c: Coord) -> TileKind | None:
    """The kind of tile ``c`` in ``kinds``, or None when ``c`` is not one of
    its tiles: not a key, unhashable (such as a list), or with a part not of
    type ``int`` (``(1.0, 0)`` and ``(True, 0)`` equal a tile but are not
    one).  Every query that takes a tile asks this."""
    try:
        k = kinds.get(c)
    except TypeError:  # unhashable
        return None
    if k is not None and type(c[0]) is int and type(c[1]) is int:
        return k
    return None


def _not_task_kind(kind: object) -> ValidationError:
    return ValidationError(f"task kind must be a TaskKind, got {kind!r}")


class ArchGraph:
    """W x H mesh of typed tiles with directed links between 4-neighbours."""

    def __init__(self, width: int, height: int, kinds: Mapping[Coord, TileKind]):
        _check_mesh_size(width, height)
        self.width = width
        self.height = height
        self._kinds = kinds = dict(kinds)
        expected = {(x, y) for x in range(width) for y in range(height)}
        if set(self._kinds) != expected or any(_tile_kind(kinds, c) is None for c in kinds):
            raise ValidationError("tile kind map must cover the mesh exactly, with int coordinates")
        managers = [c for c, k in self._kinds.items() if k is TileKind.MANAGER]
        if len(managers) != 1:
            raise ValidationError(f"exactly one manager tile required, got {len(managers)}")
        self.manager: Coord = managers[0]
        # Integer link ids: a link's position in ``links()``.  This loop is
        # the only code that numbers links.  ``out_links[i]`` lists the
        # ``(neighbour index, link id)`` pair of every link out of tile index
        # ``i``, in linear-index order of the neighbours.  The ledger keeps
        # its loads in a list indexed by link id, and the routers walk these
        # tables instead of hashing coordinate pairs.
        self._cells = cells = tuple(self.coords())
        links: list[DirectedLink] = []
        out_links: list[tuple[tuple[int, int], ...]] = []
        for i, c in enumerate(cells):
            x, y = c
            out: list[tuple[int, int]] = []
            for ok, j in (
                (y > 0, i - width),
                (x > 0, i - 1),
                (x < width - 1, i + 1),
                (y < height - 1, i + width),
            ):
                if ok:
                    out.append((j, len(links)))
                    links.append((c, cells[j]))
            out_links.append(tuple(out))
        self._links = tuple(links)
        ids = {link: k for k, link in enumerate(links)}
        self.link_ids: Mapping[DirectedLink, int] = ids
        self.out_links = tuple(out_links)
        # Links between adjacent columns and rows, as link ids:
        # east[x][y] is (x, y) -> (x+1, y), west[x][y] is (x+1, y) -> (x, y),
        # south[y][x] is (x, y) -> (x, y+1), north[y][x] is (x, y+1) -> (x, y).
        # ``opposite[k]`` is the id of link ``k`` run the other way.
        rows, cols = range(height), range(width)
        self.east = tuple(tuple(ids[(x, y), (x + 1, y)] for y in rows) for x in cols[:-1])
        self.west = tuple(tuple(ids[(x + 1, y), (x, y)] for y in rows) for x in cols[:-1])
        self.south = tuple(tuple(ids[(x, y), (x, y + 1)] for x in cols) for y in rows[:-1])
        self.north = tuple(tuple(ids[(x, y + 1), (x, y)] for x in cols) for y in rows[:-1])
        self.opposite = tuple(ids[b, a] for a, b in links)
        self._kind_count = Counter(self._kinds.values())
        # The tiles each task kind may use, in raster order.
        self._tiles_for = {
            k: tuple(c for c in cells if compatible(k, self._kinds[c])) for k in TaskKind
        }

    @classmethod
    def default_8x8(cls) -> "ArchGraph":
        return cls.uniform(8, 8, DEFAULT_MANAGER, DEFAULT_RA_TILES)

    @classmethod
    def uniform(
        cls,
        width: int,
        height: int,
        manager: Coord = (0, 0),
        ra: Iterable[Coord] = (),
    ) -> "ArchGraph":
        """Mesh with the given manager and RA tiles; ISP everywhere else."""
        _check_mesh_size(width, height)
        if not isinstance(ra, Iterable):
            raise ValidationError(f"RA tiles must be an iterable of tiles, got {ra!r}")
        kinds: dict[Coord, TileKind] = {
            (x, y): TileKind.ISP for x in range(width) for y in range(height)
        }
        for c in ra:
            if _tile_kind(kinds, c) is None:
                raise ValidationError(f"RA tile {c} outside the {width}x{height} mesh")
            kinds[c] = TileKind.RA
        if _tile_kind(kinds, manager) is None:
            raise ValidationError(f"manager tile {manager} outside the mesh")
        if kinds[manager] is TileKind.RA:
            raise ValidationError(f"manager tile {manager} collides with an RA tile")
        kinds[manager] = TileKind.MANAGER
        return cls(width, height, kinds)

    def in_mesh(self, c: Coord) -> bool:
        """True iff ``c`` is a tile of the mesh (see ``_tile_kind``)."""
        return _tile_kind(self._kinds, c) is not None

    def require_in_mesh(self, c: Coord) -> None:
        if _tile_kind(self._kinds, c) is None:
            raise self._outside(c)

    def _outside(self, c: Coord) -> ValidationError:
        return ValidationError(f"coordinate {c} outside the {self.width}x{self.height} mesh")

    def linear_index(self, c: Coord) -> int:
        return c[1] * self.width + c[0]

    def coord_at(self, index: int) -> Coord:
        return (index % self.width, index // self.width)

    def kind(self, c: Coord) -> TileKind:
        k = _tile_kind(self._kinds, c)
        if k is None:
            raise self._outside(c)
        return k

    def tiles_for(self, kind: TaskKind) -> tuple[Coord, ...]:
        """Tiles a task of ``kind`` may run on (see ``compatible``), raster order."""
        try:
            return self._tiles_for[kind]
        except (KeyError, TypeError):  # TypeError: an unhashable kind
            raise _not_task_kind(kind) from None

    def coords(self) -> Iterator[Coord]:
        """All coordinates in raster (row-major) order."""
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def links(self) -> tuple[DirectedLink, ...]:
        return self._links

    def neighbors(self, c: Coord) -> tuple[Coord, ...]:
        """In-mesh 4-neighbours ordered by linear index."""
        self.require_in_mesh(c)
        return tuple(self._cells[j] for j, _ in self.out_links[self.linear_index(c)])

    def count_kind(self, kind: TileKind) -> int:
        if not isinstance(kind, TileKind):
            raise ValidationError(f"tile kind must be a TileKind, got {kind!r}")
        return self._kind_count[kind]

    def __repr__(self) -> str:
        return f"ArchGraph({self.width}x{self.height})"


class ChannelLoadLedger:
    """Accumulated packet volume currently routed over every directed link.

    Loads live in one list indexed by link id (``ArchGraph.link_ids``).  The
    ledger keeps the sum of all link loads as it changes, so ``total_load``
    and ``avg_load`` are O(1) and ``add_path``/``remove_path`` cost O(path):
    one id lookup and one list update per link.  ``path_loads`` and
    ``path_peak`` read only the links of one path.
    Every path method resolves the whole path first and raises
    ``ValidationError`` on a step that is not a mesh link, so a failed update
    changes nothing.

    Every path update goes through ``_shift``, which works on link ids:
    ``add_path`` and ``remove_path`` resolve a path and pass its ids on.
    ``MappingState`` resolves a route once, when it pins it, and keeps the
    ids to release the route by.

    ``peak_load`` scans every link once and keeps the peak it found
    (``_peak``, None while unknown).  ``_shift`` keeps it exact: a positive
    shift raises it to the highest shifted link, a negative one forgets it
    when a link at the peak is lowered, since another link may not hold the
    same load.  ``set_load`` forgets it, and ``copy`` carries it.  So a
    caller that reads the peak between pinned routes scans again only after
    a release of a link at the peak, and one that never reads it pays one
    ``is None`` test per shift.
    """

    def __init__(self, arch: ArchGraph):
        self.arch = arch
        self._ids = arch.link_ids
        self._load: list[int] = [0] * len(arch.links())
        self._total = 0
        self._peak: int | None = None

    def _id(self, link: DirectedLink) -> int:
        try:
            return self._ids[link]
        except (KeyError, TypeError):  # TypeError: an unhashable tile
            raise ValidationError(f"unknown link {link}") from None

    def load(self, link: DirectedLink) -> int:
        return self._load[self._id(link)]

    def _on_path(self, path: Sequence[Coord]) -> list[int]:
        """The id of each link of ``path``, in path order."""
        ids = self._ids
        try:
            return [ids[link] for link in zip(path, path[1:])]
        except (KeyError, TypeError):
            if not isinstance(path, Sequence):
                raise ValidationError(f"a path must be a sequence of tiles, got {path!r}") from None
            return [self._id(link) for link in zip(path, path[1:])]  # raises on the bad link

    def set_load(self, link: DirectedLink, value: int) -> None:
        i = self._id(link)
        _check_amount("load", value)
        self._total += value - self._load[i]
        self._load[i] = value
        self._peak = None

    def add_path(self, path: Sequence[Coord], volume: int) -> list[int]:
        """Add ``volume`` to every link of ``path``; return the links' ids in
        path order (empty for a single tile)."""
        _check_amount("volume", volume)
        ids = self._on_path(path)
        self._shift(ids, volume)
        return ids

    def remove_path(self, path: Sequence[Coord], volume: int) -> None:
        _check_amount("volume", volume)
        self._shift(self._on_path(path), -volume)

    def _shift(self, ids: Sequence[int], delta: int) -> None:
        """Add ``delta`` to the load of every link in ``ids``, once per
        listing.  The ids must be ones the ledger resolved.  A removal that
        takes a load below zero is undone before it raises ``StateError``.
        A link listed twice moves by twice ``delta``, so a removal reads the
        loads before it moves them, to tell whether it lowers a link at the
        kept peak, and an addition reads them after, for the new peak."""
        load = self._load
        peak = self._peak
        if delta >= 0:
            for i in ids:
                load[i] += delta
            if peak is not None and delta:
                top = max(map(load.__getitem__, ids), default=0)
                if top > peak:
                    self._peak = top
        else:
            if peak is not None and peak in map(load.__getitem__, ids):
                self._peak = None
            for i in ids:
                load[i] += delta
            if min(map(load.__getitem__, ids), default=0) < 0:
                bad = next(i for i in ids if load[i] < 0)
                for i in ids:
                    load[i] -= delta
                raise StateError(
                    f"removing {-delta * ids.count(bad)} from link "
                    f"{self.arch.links()[bad]} would go negative"
                )
        self._total += delta * len(ids)

    def path_loads(self, path: Sequence[Coord]) -> list[int]:
        """Load of each link of ``path``, in path order; empty for a single tile."""
        return list(map(self._load.__getitem__, self._on_path(path)))

    def path_peak(self, path: Sequence[Coord]) -> int:
        """Highest load on the links of ``path``; 0 for a single tile."""
        return max(self.path_loads(path), default=0)

    def by_link_id(self) -> Sequence[int]:
        """Every link's load, indexed by link id: the ledger's own list,
        which callers read but must not change."""
        return self._load

    def peak_load(self) -> int:
        """Highest link load: the kept peak, or a scan of every link that
        keeps what it finds; 0 on a mesh with no links."""
        peak = self._peak
        if peak is None:
            self._peak = peak = max(self._load, default=0)
        return peak

    def total_load(self) -> int:
        return self._total

    def avg_load(self) -> float:
        """Mean link load; 0.0 on a mesh with no links."""
        return self._total / len(self._load) if self._load else 0.0

    def copy(self) -> "ChannelLoadLedger":
        dup = ChannelLoadLedger.__new__(ChannelLoadLedger)
        dup.arch = self.arch
        dup._ids = self._ids
        dup._load = self._load.copy()
        dup._total = self._total
        dup._peak = self._peak
        return dup

    def loads(self) -> Mapping[DirectedLink, int]:
        """Every link's load, keyed in ``arch.links()`` order."""
        return dict(zip(self.arch.links(), self._load))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChannelLoadLedger):
            return NotImplemented
        return self.arch.links() == other.arch.links() and self._load == other._load


RouteKey = tuple[str, str, str, str]  # (app, mtid, stid, direction)
# A pinned route: its path, its volume, and the id of each link of the path
# in path order, as the ledger resolved them when the route was pinned.
PinnedRoute = tuple[tuple[Coord, ...], int, tuple[int, ...]]


# Task kinds as module names: ``free_tiles`` tests a kind by identity, which
# costs less than hashing the enum member or reading it through its class.
_INITIAL, _SOFTWARE, _HARDWARE = TaskKind.INITIAL, TaskKind.SOFTWARE, TaskKind.HARDWARE


class MappingState:
    """Mutable placement/route/ledger state for one platform.

    Each fact has one record.  ``placement`` maps each placed task to its
    tile.  The free tiles of each tile kind that runs tasks, ISP and RA, are
    kept as two sets, which ``place`` and ``release_app`` update;
    ``free_tiles`` gives the set a task kind may use, and ``place`` and
    ``tile_free`` read occupancy from them.  The sets are built with the
    state, so they live as long as one ``simulate`` call.

    ``apply_route`` checks a route, resolves its path to link ids once and
    stores them with it (``PinnedRoute``).  ``remove_route`` is the only
    release of a route's load, by those ids, without resolving its path
    again.  A release that would take a load below zero raises
    ``StateError`` and changes nothing.
    """

    def __init__(self, arch: ArchGraph):
        self.arch = arch
        self.placement: dict[tuple[str, str], Coord] = {}
        self.routes: dict[RouteKey, PinnedRoute] = {}
        self.ledger = ChannelLoadLedger(arch)
        self._free_isp = isp = set(arch.tiles_for(_SOFTWARE))
        self._free_ra = ra = set(arch.tiles_for(_HARDWARE))
        # The free set each tile that runs tasks belongs in.
        self._pool = dict.fromkeys(isp, isp) | dict.fromkeys(ra, ra)

    def free_tiles(self, kind: TaskKind) -> AbstractSet[Coord]:
        """Free tiles a task of ``kind`` may run on: the state's own set,
        which callers read but must not change."""
        if kind is _HARDWARE:
            return self._free_ra
        if kind is _SOFTWARE or kind is _INITIAL:
            return self._free_isp
        raise _not_task_kind(kind)

    def tile_free(self, c: Coord) -> bool:
        self.arch.require_in_mesh(c)
        pool = self._pool.get(c)
        return pool is None or c in pool

    def task_tile(self, app: str, tid: str) -> Coord | None:
        try:
            return self.placement.get((app, tid))
        except TypeError:
            raise ValidationError(f"task key {(app, tid)!r} is not hashable") from None

    def place(self, app: str, task: Task, c: Coord) -> None:
        tile_kind = self.arch.kind(c)
        pool = self._pool.get(c)
        try:
            if (app, task.id) in self.placement:
                raise StateError(f"task ({app!r}, {task.id!r}) already placed")
            if pool is not None and c not in pool:
                owner = next(k for k, tile in self.placement.items() if tile == c)
                raise StateError(f"tile {c} already occupied by {owner}")
            if not compatible(task.kind, tile_kind):
                raise StateError(
                    f"task kind {task.kind.value} incompatible with tile {c} ({tile_kind.value})"
                )
        except TypeError:
            raise ValidationError(f"task key {(app, task.id)!r} is not hashable") from None
        except AttributeError:
            raise ValidationError(f"task must be a Task, got {task!r}") from None
        self.placement[(app, task.id)] = c
        pool.remove(c)

    def apply_route(
        self,
        app: str,
        mtid: str,
        stid: str,
        direction: str,
        path: Sequence[Coord],
        volume: int,
    ) -> None:
        """Pin a route for one communication direction and load its links.

        The route is stored with the link ids of its path, resolved here
        once, so its readers and its release need not resolve it again."""
        if direction not in DIRECTIONS:
            raise ValidationError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
        key: RouteKey = (app, mtid, stid, direction)
        try:
            if key in self.routes:
                raise StateError(f"route already stored for {key}")
        except TypeError:
            raise ValidationError(f"route key {key!r} is not hashable") from None
        placement = self.placement
        m_tile = placement.get((app, mtid))
        s_tile = placement.get((app, stid))
        if m_tile is None or s_tile is None:
            raise StateError(f"route {key} has an unmapped endpoint")
        src, dst = (m_tile, s_tile) if direction == DIR_MS else (s_tile, m_tile)
        try:
            if not path or path[0] != src or path[-1] != dst:
                raise ValidationError(f"route {key}: path {list(path)} does not run {src}->{dst}")
        except TypeError:  # no truth value, indexing or iteration: not a sequence
            raise ValidationError(
                f"route {key}: a path must be a sequence of tiles, got {path!r}"
            ) from None
        try:
            revisits = len(set(path)) != len(path)
        except TypeError:
            revisits = False
        if revisits:
            raise ValidationError(f"route {key}: path {list(path)} revisits a tile")
        _check_amount("volume", volume)
        # An off-mesh or unhashable tile or a non-adjacent step is an unknown
        # link, rejected before any load is written.
        ids = self.ledger._on_path(path)
        self.ledger._shift(ids, volume)
        self.routes[key] = (tuple(path), volume, tuple(ids))

    def remove_route(self, key: RouteKey) -> None:
        try:
            pinned = self.routes.get(key)
        except TypeError:
            raise ValidationError(f"route key {key!r} is not hashable") from None
        if pinned is None:
            raise StateError(f"no route stored for {key}")
        self.ledger._shift(pinned[2], -pinned[1])
        del self.routes[key]

    def release_app(self, app: str) -> None:
        """Free every tile held by the application.

        Its routes must be gone already: only ``remove_route`` releases a
        route, so an application that still holds one raises ``StateError``
        naming it, before anything changes."""
        placed = [k for k in self.placement if k[0] == app]
        if not placed:
            raise ValidationError(f"unknown application {app!r}")
        for rkey in self.routes:
            if rkey[0] == app:
                raise StateError(f"application {app!r} still holds route {rkey}")
        pool = self._pool
        for key in placed:
            c = self.placement.pop(key)
            pool[c].add(c)

    def rebuild_ledger(self) -> ChannelLoadLedger:
        """Fresh ledger recomputed from the stored routes' paths, not their
        link ids (consistency oracle)."""
        fresh = ChannelLoadLedger(self.arch)
        for path, volume, _ in self.routes.values():
            fresh.add_path(path, volume)
        return fresh
