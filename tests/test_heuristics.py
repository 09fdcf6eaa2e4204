import random
from dataclasses import replace
from functools import partial
from itertools import chain, groupby, islice

import pytest

from nocmap import heuristics
from nocmap.heuristics import (
    ClusterGrid,
    HeuristicEngine,
    HeuristicKind,
    MapRequest,
    map_bn,
    map_channel_load,
    map_ff,
    map_nn,
    map_pl,
    map_spiral,
    place_initial,
)
from nocmap.model import (
    ArchGraph,
    MappingState,
    Task,
    TaskKind,
    TileKind,
    ValidationError,
    compatible,
    manhattan,
)
from nocmap.oracles import (
    arch_4x4,
    free_candidates,
    oracle_channel_load,
    oracle_path_load,
    placement_cases,
    random_partial_state,
)
from nocmap.routing import RoutePolicy, min_load_tree, route, xy_fold
from nocmap.sim import simulate

from conftest import arch_16x16_ra, small_arch
from test_golden import golden_scenario

# mmc, mac, pl and bn, each called as (request, state, policy)
LOAD_MAPPERS = (
    partial(map_channel_load, average_first=False),
    partial(map_channel_load, average_first=True),
    map_pl,
    map_bn,
)


def sw_task(tid="s"):
    return Task(tid, TaskKind.SOFTWARE, 100)


def hw_task(tid="h"):
    return Task(tid, TaskKind.HARDWARE, 100)


def chebyshev(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def spiral_ring(center, d, arch):
    """Reference: the mesh tiles at Chebyshev distance ``d``, by clockwise
    position on the ring from (cx-d, cy): up the west edge, along the
    north, down the east, back along the south and up the west again."""
    cx, cy = center

    def position(c):
        x, y = c
        if x == cx - d and y <= cy:
            return cy - y
        if y == cy - d:
            return d + x - (cx - d)
        if x == cx + d:
            return 3 * d + y - (cy - d)
        if y == cy + d:
            return 5 * d + (cx + d) - x
        return 7 * d + (cy + d) - y

    return sorted((c for c in arch.coords() if chebyshev(center, c) == d), key=position)


def spiral_rings(center, arch):
    """The ``_outward`` walk around ``center``, split by Chebyshev distance."""
    walk = heuristics._outward(center, arch)
    return [list(ring) for _, ring in groupby(walk, key=partial(chebyshev, center))]


def manhattan_shell(center, n, arch):
    """Reference: the mesh tiles at Manhattan distance ``n``, raster order."""
    return [c for c in arch.coords() if manhattan(center, c) == n]


def farthest(center, arch, dist):
    """Largest distance ``dist`` from ``center`` to a tile of ``arch``."""
    return max(dist(center, c) for c in arch.coords())


def place_master(state, tile, kind=None):
    arch = state.arch
    if kind is None:
        kind = TaskKind.HARDWARE if arch.kind(tile) is TileKind.RA else TaskKind.SOFTWARE
    task = Task("m", kind, 100)
    state.place("app0", task, tile)
    return task


class TestSpiralRing:
    """The rings of ``_outward``, the one walk of the Chebyshev rings."""

    def test_interior_ring_order(self, arch8):
        assert spiral_rings((4, 4), arch8)[0] == [
            (3, 4), (3, 3), (4, 3), (5, 3), (5, 4), (5, 5), (4, 5), (3, 5),
        ]

    def test_corner_ring_clipped_order_preserved(self, arch8):
        assert spiral_rings((0, 0), arch8)[0] == [(1, 0), (1, 1), (0, 1)]

    def test_full_interior_ring_size(self, arch8):
        assert [len(ring) for ring in spiral_rings((4, 4), arch8)] == [8, 16, 24, 15]


class TestManhattanShell:
    """``_manhattan_order``: the one walk of the Manhattan shells."""

    @pytest.mark.parametrize("center", [(0, 0), (4, 4), (7, 3)])
    def test_matches_filter_scan(self, arch8, center):
        others = [c for c in arch8.coords() if c != center]
        want = sorted(others, key=lambda c: manhattan(center, c))
        assert list(heuristics._manhattan_order(center, arch8)) == want

    def test_raster_order(self, arch8):
        walk = heuristics._manhattan_order((4, 4), arch8)
        assert list(islice(walk, 4)) == [(4, 3), (3, 4), (5, 4), (4, 5)]


OUTWARD_ARCHES = {
    "1x1": small_arch(1, 1),
    "1x6": small_arch(1, 6),
    "6x1": small_arch(6, 1),
    "2x2": small_arch(2, 2),
    "5x3": small_arch(5, 3),
    "3x7": small_arch(3, 7),
    "8x8": ArchGraph.default_8x8(),
    "16x16-ra": arch_16x16_ra(),
}


class TestOutwardWalk:
    @pytest.mark.parametrize(
        "walk, ring, dist",
        [
            (heuristics._outward, spiral_ring, chebyshev),
            (heuristics._manhattan_order, manhattan_shell, manhattan),
        ],
        ids=["spiral_ring", "manhattan_shell"],
    )
    @pytest.mark.parametrize("name", OUTWARD_ARCHES)
    def test_equals_rings_up_to_the_farthest_tile(self, name, walk, ring, dist):
        """From every centre, the walk lists the rings out to the farthest
        tile's distance, and so every other tile once: ``_outward`` the
        Chebyshev rings, ``_manhattan_order`` the Manhattan shells of the
        references above.  On 1x1 both are empty."""
        arch = OUTWARD_ARCHES[name]
        for center in arch.coords():
            far = farthest(center, arch, dist)
            want = [c for d in range(1, far + 1) for c in ring(center, d, arch)]
            assert list(walk(center, arch)) == want, center
            assert sorted(want) == sorted(c for c in arch.coords() if c != center)


def greedy_spread_reference(centers, arch):
    """The O(k^3) max-min-distance ordering: each step rescores every
    remaining cluster against all chosen centres."""
    remaining = list(range(len(centers)))
    start = min(remaining, key=lambda i: arch.linear_index(centers[i]))
    order = [start]
    remaining.remove(start)
    while remaining:
        def score(i):
            ds = [manhattan(centers[i], centers[j]) for j in order]
            return (min(ds), sum(ds), -arch.linear_index(centers[i]))

        nxt = max(remaining, key=score)
        order.append(nxt)
        remaining.remove(nxt)
    return tuple(order)


class TestClusterGrid:
    def test_default_8x8_geometry(self, arch8):
        grid = ClusterGrid.for_mesh(arch8)
        assert grid.centers == (
            (1, 1), (4, 1), (6, 1),
            (1, 4), (4, 4), (6, 4),
            (1, 6), (4, 6), (6, 6),
        )
        order_centers = [grid.centers[i] for i in grid.admission_order]
        assert order_centers == [
            (1, 1), (6, 6), (1, 6), (6, 1), (4, 4), (1, 4), (6, 4), (4, 1), (4, 6),
        ]

    @pytest.mark.parametrize("n", range(1, 21))
    def test_bands_cover_the_axis_larger_first(self, n):
        """Up to three contiguous bands cover 0..n-1, none smaller than a
        later one."""
        bands = heuristics._bands(n)
        assert len(bands) == min(n, 3)
        assert bands[0][0] == 0 and bands[-1][1] == n - 1
        assert all(a[1] + 1 == b[0] for a, b in zip(bands, bands[1:]))
        sizes = [hi - lo + 1 for lo, hi in bands]
        assert min(sizes) >= 1 and sizes == sorted(sizes, reverse=True)

    def test_generic_mesh_grid(self):
        arch = small_arch(6, 5)
        grid = ClusterGrid.for_mesh(arch)
        assert len(grid.centers) == 9
        assert all(arch.in_mesh(c) for c in grid.centers)
        assert sorted(grid.admission_order) == list(range(9))

    def test_admission_order_must_permute_the_clusters(self):
        with pytest.raises(ValidationError, match="admission order must permute"):
            ClusterGrid([(0, 0), (1, 1)], [0, 0])

    @pytest.mark.parametrize(
        "centers, order, match",
        [
            ([(1, 1)], [0.0], "^admission order must permute"),
            ([(1, 1)], [False], "^admission order must permute"),
            (None, [], "^centres and admission order must be iterables"),
            ([(1, 1)], None, "^centres and admission order must be iterables"),
            ([(1.0, 1)], [0], "^cluster centres must be pairs of ints"),
            ([[1, 1]], [0], "^cluster centres must be pairs of ints"),
            ([(1, 1, 0)], [0], "^cluster centres must be pairs of ints"),
            ([None], [0], "^cluster centres must be pairs of ints"),
        ],
        ids=["float-index", "bool-index", "no-centres", "no-order", "float-centre",
             "list-centre", "triple-centre", "none-centre"],
    )
    def test_unusable_grid_rejected(self, centers, order, match):
        """A grid that ``place_initial`` could not use is rejected when it
        is built."""
        with pytest.raises(ValidationError, match=match):
            ClusterGrid(centers, order)

    def test_greedy_spread_matches_reference_on_every_mesh(self):
        for width in range(1, 21):
            for height in range(1, 21):
                arch = small_arch(width, height)
                centers = list(ClusterGrid.for_mesh(arch).centers)
                assert heuristics._greedy_spread(centers, arch) == greedy_spread_reference(
                    centers, arch
                ), (width, height)

    def test_greedy_spread_matches_reference_on_many_clusters(self):
        arch = small_arch(20, 20)
        centers = random.Random(0).sample(list(arch.coords()), 150)
        assert heuristics._greedy_spread(centers, arch) == greedy_spread_reference(centers, arch)


class TestPlaceInitial:
    def test_first_app_takes_first_cluster_center(self, arch8):
        state = MappingState(arch8)
        grid = ClusterGrid.for_mesh(arch8)
        res = place_initial(grid, set(), state)
        assert res is not None
        cluster, tile, examined = res
        assert (cluster, tile) == (0, (1, 1))
        assert examined == 1

    def test_nine_admissions_use_distinct_clusters(self, arch8):
        state = MappingState(arch8)
        grid = ClusterGrid.for_mesh(arch8)
        held = set()
        tiles = []
        for i in range(9):
            res = place_initial(grid, held, state)
            assert res is not None
            cluster, tile, _ = res
            assert cluster not in held
            held.add(cluster)
            state.place(f"app{i}", Task("t0", TaskKind.INITIAL, 100), tile)
            tiles.append((cluster, tile))
            # on an empty mesh the fallback stays within one ring of the centre
            center = grid.centers[cluster]
            assert max(abs(tile[0] - center[0]), abs(tile[1] - center[1])) <= 1
            assert arch8.kind(tile) is TileKind.ISP
        assert len({c for c, _ in tiles}) == 9
        assert len({t for _, t in tiles}) == 9

    def test_tenth_app_queues(self, arch8):
        assert place_initial(ClusterGrid.for_mesh(arch8), set(range(9)), MappingState(arch8)) is None

    def test_occupied_center_falls_back_to_ring(self, arch8):
        state = MappingState(arch8)
        state.place("x", Task("t0", TaskKind.INITIAL, 100), (1, 1))
        grid = ClusterGrid.for_mesh(arch8)
        res = place_initial(grid, set(), state)
        assert res is not None
        cluster, tile, _ = res
        assert cluster == 0 and tile != (1, 1)
        assert tile in spiral_ring((1, 1), 1, arch8)


class TestMapSpiral:
    def test_software_slave_takes_west_neighbor(self, arch8):
        state = MappingState(arch8)
        place_master(state, (4, 4))  # hardware master on the RA tile
        tile, examined = map_spiral(MapRequest("app0", sw_task(), (4, 4), 100, 100), state)
        assert tile == (3, 4)
        assert examined == 1

    def test_hardware_slave_first_ra_in_ring_order(self, arch8):
        state = MappingState(arch8)
        place_master(state, (4, 4))
        tile, _ = map_spiral(MapRequest("app0", hw_task(), (4, 4), 100, 100), state)
        # independent recomputation: nearest ring, first RA position within it
        expected = None
        for hop in range(1, farthest((4, 4), arch8, chebyshev) + 1):
            ras = [c for c in spiral_ring((4, 4), hop, arch8)
                   if state.tile_free(c) and arch8.kind(c) is TileKind.RA]
            if ras:
                expected = ras[0]
                break
        assert tile == expected == (3, 3)

    @pytest.mark.parametrize("center", [(-1, 0), (8, 8), "ab", None], ids=repr)
    def test_requester_off_the_mesh_rejected(self, arch8, center):
        """spiral's walk checks its centre once, before the first tile.  A
        requester off the mesh raises ValidationError from ``map_spiral``;
        ``None`` means no requester, a StateError, so for it only the walk
        is asked."""
        with pytest.raises(ValidationError, match="outside the 8x8 mesh"):
            next(heuristics._outward(center, arch8))
        if center is not None:
            with pytest.raises(ValidationError):
                map_spiral(MapRequest("app0", sw_task(), center, 1, 1), MappingState(arch8))

    def test_full_mesh_fails(self):
        arch = small_arch(2, 2)
        state = MappingState(arch)
        place_master(state, (1, 0))
        state.place("x", Task("a", TaskKind.SOFTWARE, 1), (0, 1))
        state.place("y", Task("b", TaskKind.SOFTWARE, 1), (1, 1))
        tile, examined = map_spiral(MapRequest("app0", sw_task(), (1, 0), 1, 1), state)
        assert tile is None
        assert examined == 3


class TestMapFF:
    def test_two_requests_use_increasing_linear_order(self, arch8):
        state = MappingState(arch8)
        t1, cur, _ = map_ff(MapRequest("a", sw_task("s1"), None, 0, 0), state, 0)
        state.place("a", sw_task("s1"), t1)
        t2, cur, _ = map_ff(MapRequest("a", sw_task("s2"), None, 0, 0), state, cur)
        assert arch8.linear_index(t2) > arch8.linear_index(t1)
        assert t1 == (1, 0)  # (0,0) is the manager

    def test_cursor_wraps(self, arch8):
        state = MappingState(arch8)
        tile, cur, _ = map_ff(MapRequest("a", sw_task(), None, 0, 0), state, 63)
        assert tile == (7, 7)
        assert cur == 0

    def test_no_reuse_before_wrap(self, arch8):
        state = MappingState(arch8)
        cur = 0
        used = []
        for i in range(10):
            tile, cur, _ = map_ff(MapRequest("a", sw_task(f"s{i}"), None, 0, 0), state, cur)
            state.place("a", sw_task(f"s{i}"), tile)
            used.append(tile)
        freed = used[2]
        state.release_app("a")
        for i, tile in enumerate(used):
            if tile != freed:
                state.place("b", sw_task(f"k{i}"), tile)
        tile, cur, _ = map_ff(MapRequest("b", sw_task("next"), None, 0, 0), state, cur)
        assert tile != freed
        assert arch8.linear_index(tile) >= cur - 1

    def test_exhaustion_returns_none(self):
        arch = small_arch(2, 2)
        state = MappingState(arch)
        state.place("a", sw_task("a"), (1, 0))
        state.place("a", sw_task("b"), (0, 1))
        state.place("a", sw_task("c"), (1, 1))
        tile, cur, examined = map_ff(MapRequest("a", sw_task(), None, 0, 0), state, 0)
        assert tile is None
        assert cur == 0
        assert examined == 4

    @pytest.mark.parametrize("cursor", [0, 5, 63])
    def test_cursor_taken_modulo_tile_count(self, arch8, cursor):
        """A cursor of ``n + c`` or ``c - n`` scans as the cursor ``c``."""
        state = MappingState(arch8)
        for c in ((1, 0), (6, 0), (7, 7), (0, 1)):
            state.place("x", sw_task(f"b{c}"), c)
        req = MapRequest("a", sw_task(), None, 0, 0)
        want = map_ff(req, state, cursor)
        assert want[0] is not None
        for other in (cursor + 64, cursor - 64):
            assert map_ff(req, state, other) == want


class TestMapNN:
    def test_raster_first_at_distance_one(self, arch8):
        state = MappingState(arch8)
        place_master(state, (4, 4))
        tile, _ = map_nn(MapRequest("app0", sw_task(), (4, 4), 100, 100), state)
        assert tile == (4, 3)

    @pytest.mark.parametrize("center", [(-1, 0), (8, 8), "ab", None], ids=repr)
    def test_requester_off_the_mesh_rejected(self, arch8, center):
        """nn's walk checks its centre.  A requester off the mesh raises
        ValidationError from ``map_nn``, and one that is not an int pair
        already when the request is made; ``None`` means no requester, a
        StateError, so for it only the walk is asked."""
        with pytest.raises(ValidationError, match="outside the 8x8 mesh"):
            next(heuristics._manhattan_order(center, arch8))
        if center is not None:
            with pytest.raises(ValidationError):
                map_nn(MapRequest("app0", sw_task(), center, 1, 1), MappingState(arch8))

    def test_expands_shells_until_found(self, arch8):
        state = MappingState(arch8)
        place_master(state, (4, 4))
        for c in manhattan_shell((4, 4), 1, arch8):
            state.place("x", Task(f"b{c}", TaskKind.SOFTWARE, 1), c)
        tile, _ = map_nn(MapRequest("app0", sw_task(), (4, 4), 100, 100), state)
        shell2 = [c for c in manhattan_shell((4, 4), 2, arch8)
                  if state.tile_free(c) and arch8.kind(c) is TileKind.ISP]
        assert tile == shell2[0]

    def test_full_mesh_fails(self):
        arch = small_arch(2, 2)
        state = MappingState(arch)
        place_master(state, (1, 0))
        state.place("x", Task("a", TaskKind.SOFTWARE, 1), (0, 1))
        state.place("y", Task("b", TaskKind.SOFTWARE, 1), (1, 1))
        tile, examined = map_nn(MapRequest("app0", sw_task(), (1, 0), 1, 1), state)
        assert tile is None
        assert examined == 3


class TestMapMMC:
    def test_empty_ledger_prefers_nearest_then_linear_index(self):
        arch = arch_4x4()
        state = MappingState(arch)
        place_master(state, (1, 2))
        req = MapRequest("app0", sw_task(), (1, 2), 100, 100)
        tile, examined = map_channel_load(req, state, RoutePolicy.XY, False)
        assert tile == (0, 2)  # hop-1 candidate with the smallest linear index
        assert examined == len(free_candidates(state, TaskKind.SOFTWARE))

    def test_avoids_preloaded_link_on_2x2(self):
        arch = small_arch(2, 2)
        state = MappingState(arch)
        place_master(state, (1, 1))
        state.ledger.set_load(((1, 1), (1, 0)), 50)
        req = MapRequest("app0", sw_task(), (1, 1), 100, 0)
        tile, _ = map_channel_load(req, state, RoutePolicy.XY, False)
        assert tile == (0, 1)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_bruteforce(self, seed):
        got, want = placement_cases(seed)[1]["mmc"]
        assert got == want

    @pytest.mark.parametrize("policy", [RoutePolicy.MIN_LOAD])
    def test_back_route_sees_forward_load(self, monkeypatch, policy):
        """The slave->master route is chosen on a scratch copy of the ledger
        that holds the candidate's master->slave load; the state's ledger
        is left as it was.  Under XY the back route reads no loads (see
        ``test_xy_scoring_never_writes_the_ledger``)."""
        arch = small_arch(3, 1)
        state = MappingState(arch)
        place_master(state, (1, 0))
        state.ledger.set_load(((1, 0), (0, 0)), 4)
        before = state.ledger.copy()
        seen = []
        real_route = heuristics.route

        def recording_route(policy, src, dst, ledger, arch):
            seen.append((src, dst, ledger.total_load()))
            return real_route(policy, src, dst, ledger, arch)

        monkeypatch.setattr(heuristics, "route", recording_route)
        req = MapRequest("app0", sw_task(), (1, 0), 7, 3)
        assert map_channel_load(req, state, policy, False) == ((2, 0), 1)
        assert seen == [((1, 0), (2, 0), 4), ((2, 0), (1, 0), 11)]
        assert state.ledger == before
        assert state.ledger.total_load() == before.total_load()

    @pytest.mark.parametrize("average_first", [False, True], ids=["mmc", "mac"])
    @pytest.mark.parametrize("other, vms, vsm, want", [((3, 0), 7, 3, (3, 0)),
                                                       ((2, 0), 5, 7, (2, 0))])
    def test_matches_oracle_where_forward_load_reroutes_back(
        self, other, vms, vsm, want, average_first
    ):
        """4x2 mesh, manager at (3, 1), master at (0, 0); (2, 1) and
        ``other`` are the free tiles.  Load 2 on four links leaves the
        one-way rung (1, 1)->(1, 0) the only load-free way east from the
        master, and the cheapest way back from either candidate; once the
        forward volume is on the rung, every back route takes the link
        (2, 0)->(1, 0) instead.  Routing back on a ledger without the
        forward load would send the back route over the rung too, which
        raises its load to vms + vsm and changes the choice."""
        arch = small_arch(4, 2, manager=(3, 1))
        state = MappingState(arch)
        place_master(state, (0, 0))
        for c in arch.coords():
            if state.tile_free(c) and c not in (arch.manager, (2, 1), other):
                state.place("blk", Task(f"b{c}", TaskKind.SOFTWARE, 1), c)
        for link in (((0, 0), (1, 0)), ((2, 0), (1, 0)), ((1, 1), (0, 1)), ((1, 1), (2, 1))):
            state.ledger.set_load(link, 2)
        policy = RoutePolicy.MIN_LOAD
        req = MapRequest("app0", sw_task(), (0, 0), vms, vsm)
        for tile in ((2, 1), other):
            trial = state.ledger.copy()
            trial.add_path(route(policy, (0, 0), tile, trial, arch), vms)
            assert route(policy, tile, (0, 0), trial, arch) != route(
                policy, tile, (0, 0), state.ledger, arch
            )
        assert oracle_channel_load(req, state, policy, average_first) == want
        assert map_channel_load(req, state, policy, average_first) == (want, 2)

    @pytest.mark.parametrize("seed", range(20))
    def test_xy_scoring_never_writes_the_ledger(self, monkeypatch, seed):
        """Placement writes nothing, under either route policy: every
        heuristic through ``HeuristicEngine.place``, and ``place_initial``.
        The writers are refused on the state's own ledger only, so scratch
        copies stay writable.  Under XY, mmc, mac and pl also match the
        oracles."""
        state, req, _ = random_partial_state(arch_4x4(), seed)
        want = {
            "mmc": oracle_channel_load(req, state, RoutePolicy.XY, False),
            "mac": oracle_channel_load(req, state, RoutePolicy.XY, True),
            "pl": oracle_path_load(req, state, RoutePolicy.XY),
        }
        ledger = state.ledger.copy()
        before = (ledger, dict(state.placement), dict(state.routes),
                  {kind: set(state.free_tiles(kind)) for kind in TaskKind})

        def refuse(*args):
            raise AssertionError("placement wrote the state's ledger")

        for writer in ("add_path", "remove_path", "set_load"):
            monkeypatch.setattr(state.ledger, writer, refuse)
        got = {
            "mmc": map_channel_load(req, state, RoutePolicy.XY, False)[0],
            "mac": map_channel_load(req, state, RoutePolicy.XY, True)[0],
            "pl": map_pl(req, state, RoutePolicy.XY)[0],
        }
        assert got == want
        for policy in RoutePolicy:
            for kind in HeuristicKind:
                HeuristicEngine(kind, policy).place(req, state)
        place_initial(ClusterGrid.for_mesh(state.arch), set(), state)
        assert (state.ledger, state.placement, state.routes,
                {kind: state.free_tiles(kind) for kind in TaskKind}) == before
        assert state.ledger.total_load() == ledger.total_load()


class TestMapMAC:
    def test_empty_ledger_prefers_nearest(self):
        arch = arch_4x4()
        state = MappingState(arch)
        place_master(state, (1, 2))
        req = MapRequest("app0", sw_task(), (1, 2), 100, 100)
        tile, _ = map_channel_load(req, state, RoutePolicy.XY, True)
        assert manhattan((1, 2), tile) == 1

    def test_zero_vms_only_counts_return_direction(self):
        arch = arch_4x4()
        state = MappingState(arch)
        place_master(state, (1, 2))
        req = MapRequest("app0", sw_task(), (1, 2), 0, 1)
        assert map_channel_load(req, state, RoutePolicy.XY, True)[0] == oracle_channel_load(
            req, state, RoutePolicy.XY, True
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_bruteforce(self, seed):
        got, want = placement_cases(seed)[1]["mac"]
        assert got == want


class TestMapPL:
    def test_zero_ledger_ties_resolve_by_hops_then_index(self):
        arch = arch_4x4()
        state = MappingState(arch)
        place_master(state, (1, 2))
        tile, _ = map_pl(MapRequest("app0", sw_task(), (1, 2), 100, 100), state, RoutePolicy.XY)
        assert tile == (0, 2)

    def test_loaded_corridor_loses_to_clear_distant_candidate(self):
        arch = small_arch(3, 3, manager=(2, 2))
        state = MappingState(arch)
        place_master(state, (0, 0))
        for c in ((1, 1), (2, 0), (2, 1), (0, 1), (1, 2)):
            state.place("blk", Task(f"b{c}", TaskKind.SOFTWARE, 1), c)
        # free candidates: (1,0) one hop behind a loaded link, (0,2) two clear hops
        state.ledger.set_load(((0, 0), (1, 0)), 300)
        tile, _ = map_pl(MapRequest("app0", sw_task(), (0, 0), 100, 100), state, RoutePolicy.XY)
        assert tile == (0, 2)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_bruteforce(self, seed):
        got, want = placement_cases(seed)[1]["pl"]
        assert got == want


class TestMapBN:
    def test_stops_at_first_nonempty_shell(self):
        arch = small_arch(3, 3, manager=(2, 2))
        state = MappingState(arch)
        place_master(state, (0, 0))
        state.place("blk", Task("b1", TaskKind.SOFTWARE, 1), (1, 0))
        # (0,1) is the only free tile at distance 1; make it expensive anyway
        state.ledger.set_load(((0, 0), (0, 1)), 400)
        state.ledger.set_load(((0, 1), (0, 0)), 400)
        tile, _ = map_bn(MapRequest("app0", sw_task(), (0, 0), 100, 100), state, RoutePolicy.XY)
        assert tile == (0, 1)

    def test_picks_clear_candidate_within_shell(self):
        arch = small_arch(3, 3, manager=(2, 2))
        state = MappingState(arch)
        place_master(state, (1, 1))
        state.ledger.set_load(((1, 1), (1, 0)), 200)
        tile, _ = map_bn(MapRequest("app0", sw_task(), (1, 1), 100, 100), state, RoutePolicy.XY)
        assert tile in ((0, 1), (2, 1), (1, 2))

    @pytest.mark.parametrize("seed", range(30))
    def test_equals_pl_restricted_to_nearest_shell(self, seed):
        state, req, policy = random_partial_state(arch_4x4(), seed)
        arch = state.arch
        got, _ = map_bn(req, state, policy)
        free = free_candidates(state, req.task.kind)
        expected = None
        for n in range(1, farthest(req.requester_tile, arch, manhattan) + 1):
            shell = manhattan_shell(req.requester_tile, n, arch)
            if any(c in free for c in shell):
                expected = oracle_path_load(req, state, policy, shell=shell)
                break
        assert got == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_examined_counts_the_nearest_shell(self, seed):
        """bn examines the free compatible tiles of the nearest non-empty
        Manhattan shell.  Asked from a free candidate, it still chooses
        from distance 1 or more, never the requester's own tile."""
        state, drawn, policy = random_partial_state(arch_4x4(), seed)
        arch = state.arch
        free = free_candidates(state, drawn.task.kind)
        assert drawn.requester_tile not in free
        for r in (drawn.requester_tile, free[seed % len(free)]):
            req = replace(drawn, requester_tile=r)
            shell = []
            for n in range(1, farthest(r, arch, manhattan) + 1):
                shell = [c for c in manhattan_shell(r, n, arch) if c in free]
                if shell:
                    break
            want = oracle_path_load(req, state, policy, shell=shell) if shell else None
            assert map_bn(req, state, policy) == (want, len(shell)), r


# Non-square meshes with RA tiles: a swap of width and height in the XY fold
# would pass on the square meshes the golden cells and oracles use.
FOLD_ARCHES = {
    "5x3": ArchGraph.uniform(5, 3, manager=(0, 0), ra=((1, 1), (3, 0), (4, 2))),
    "3x7": ArchGraph.uniform(3, 7, manager=(0, 0), ra=((1, 1), (2, 3), (0, 5), (1, 6))),
}


WALK_ARCHES = {
    **FOLD_ARCHES,
    "1x6": small_arch(1, 6),
    "6x1": small_arch(6, 1),
    "8x8": ArchGraph.default_8x8(),
    "16x16-ra": arch_16x16_ra(),
}


class TestXYFoldScoring:
    """mmc and mac against the oracle under both route policies, and the XY
    fold's sums and pl against the per-candidate pl scorer."""

    @pytest.mark.parametrize("name", FOLD_ARCHES)
    def test_matches_per_candidate_scorers(self, name):
        arch = FOLD_ARCHES[name]
        xy = RoutePolicy.XY
        for seed in range(200):
            state, drawn, _ = random_partial_state(arch, seed)
            # One-way requests, and an initial task's volume-0 request from
            # the manager, as the engine makes them.
            initial = MapRequest(drawn.app, Task("i", TaskKind.INITIAL, 100), arch.manager, 0, 0)
            for req in (drawn, replace(drawn, vms=0), replace(drawn, vsm=0), initial):
                case = (seed, req.vms, req.vsm)
                cands = free_candidates(state, req.task.kind)
                for policy in RoutePolicy:
                    for average_first in (False, True):
                        want = oracle_channel_load(req, state, policy, average_first)
                        assert map_channel_load(req, state, policy, average_first) == (
                            want, len(cands)
                        ), (case, policy, average_first)
                # The fold serves XY only.  Its sums are compared with the
                # per-candidate costs on the requester's own tile too, which
                # routes nothing.
                scored = cands + [req.requester_tile]
                want = partial(heuristics._pl_key, req, state, policy=xy)
                there, back = xy_fold(req.requester_tile, state.ledger, arch)
                got = [there[i] + back[i] for i in map(arch.linear_index, scored)]
                assert got == [want(t)[0] for t in scored], case
                assert map_pl(req, state, xy) == (
                    min(cands, key=want, default=None), len(cands)
                ), case


class TestPLNearestShell:
    """pl under XY returns a zero-cost tile of the nearest shell without the
    fold, and otherwise scores every candidate from it."""

    @pytest.mark.parametrize("name", FOLD_ARCHES)
    def test_matches_oracle(self, name):
        """Sparse loads of 0-2 make zero-cost routes and cost ties common.
        Each drawn state is asked from its drawn requester and from a random
        tile, which is often free.  pl matches the oracle under both route
        policies, and under XY each way a call can be settled occurs."""
        arch = FOLD_ARCHES[name]
        rng = random.Random(name)
        seen = set()
        for seed in range(150):
            state, drawn, _ = random_partial_state(arch, seed)
            for link in arch.links():
                state.ledger.set_load(link, rng.choice((0, 0, 0, 1, 2)))
            for r in (drawn.requester_tile, rng.choice(list(arch.coords()))):
                req = replace(drawn, requester_tile=r)
                cands = free_candidates(state, req.task.kind)
                for policy in RoutePolicy:
                    want = oracle_path_load(req, state, policy)
                    assert map_pl(req, state, policy) == (want, len(cands)), (seed, r, policy)
                if not cands:
                    continue
                keys = [heuristics._pl_key(req, state, t, RoutePolicy.XY) for t in cands]
                h0 = min(k[1] for k in keys)
                best = min(keys)
                zeros = [k for k in keys if k[:2] == (0, h0)]
                if h0 == 0:
                    seen.add("free requester")
                if zeros:
                    seen.add("zero in nearest shell")
                    if len(zeros) > 1:
                        seen.add("zeros in nearest shell")
                    continue
                if best[1] > h0:
                    seen.add("farther winner")
                tied = [k for k in keys if k[0] == best[0]]
                if any(k[1] > best[1] for k in tied):
                    seen.add("cost tie on hops")
                if any(k[1] == best[1] and k[2] > best[2] for k in tied):
                    seen.add("cost tie on index")
        assert seen == {
            "free requester",
            "zero in nearest shell",
            "zeros in nearest shell",
            "farther winner",
            "cost tie on hops",
            "cost tie on index",
        }

    def test_golden_pl_run_folds(self, monkeypatch):
        """Of the 81 pl calls in the pl/16x16-ra/10 golden run (XY), 42
        find a zero-cost tile in the nearest shell; the other 39 fold."""
        calls = {"map_pl": 0, "xy_fold": 0}

        def count(name):
            real = getattr(heuristics, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(heuristics, name, counted)

        for name in calls:
            count(name)
        simulate(golden_scenario("pl/16x16-ra/10"))
        assert calls == {"map_pl": 81, "xy_fold": 39}


@pytest.fixture
def routes(monkeypatch):
    """Every (src, dst) routed through ``heuristics.route`` while the test runs."""
    calls = []
    real_route = heuristics.route

    def recording_route(policy, src, dst, ledger, arch):
        calls.append((src, dst))
        return real_route(policy, src, dst, ledger, arch)

    monkeypatch.setattr(heuristics, "route", recording_route)
    return calls


# The walk cases: a 5x5 mesh with the manager at (0, 0) and a request from
# R = (2, 2), with vms 10 and vsm 4.  Under XY a tile off R meets the floor
# of its peak, max(base peak, 10), unless its route there crosses a link
# loaded above 0 or its route back one loaded above 6.  Under XY a tile is
# skipped unscored when the part of its route there or back that runs along
# R's row or column already takes its peak above the best key.  Each case
# gives the route policy, the loads, whether a master holds R, and the tile
# and the number of tiles routed (both ways) for mmc, then for mac.
R = (2, 2)
N, W, E, S = (2, 1), (1, 2), (3, 2), (2, 3)
XY, MIN_LOAD = RoutePolicy.XY, RoutePolicy.MIN_LOAD
WALK_CASES = {
    # Every route leaves R on a loaded link.  N, W and E are scored, each
    # below the last, and S, which leaves over R->S, is skipped.  mmc skips
    # every farther tile too, as each leaves over one of the four links;
    # mac stops at the end of the nearest shell.
    "no-tile-meets-floor": (
        XY, {(R, E): 5, (R, W): 6, (R, N): 7, (R, S): 8}, True, (E, 3), (E, 3)
    ),
    # N comes first in the nearest shell and misses by one; W, next, meets it.
    "later-tile-in-nearest-shell": (XY, {(R, N): 1}, True, (W, 2), (W, 2)),
    # Every nearest tile misses; (3, 1), third in the next shell, leaves on
    # R->E and comes back on N->R.  W and S tie N and E on their legs and
    # lose on the index, and every other tile of the next shell leaves over
    # R->N or R->W or comes back over E->R or S->R: mmc scores N, E and
    # (3, 1).  mac's winner stays in the nearest shell, where it scores N
    # and E.
    "winner-in-farther-shell": (
        XY, {(R, N): 5, (R, W): 5, (E, R): 8, (S, R): 8}, True, ((3, 1), 3), (E, 2)
    ),
    # R itself routes nothing and keeps the base loads.
    "own-tile-free": (XY, {(R, E): 5}, False, (R, 0), (R, 0)),
    # The load-aware route back from N detours round the loaded link N->R
    # over three load-free hops, so N's total, 5 + 10 + 3 x 4, is above its
    # bound 5 + 1 x 14 (under XY, N would win on that bound).  W, next,
    # meets the bound, and E's bound is above W's key only on the linear
    # index.
    "detour-under-mdijkstra": (MIN_LOAD, {(N, R): 5}, True, (W, 2), (W, 2)),
}


class TestXYWalk:
    """mmc/mac score candidates nearest first and stop at the first that the
    rest cannot beat, under either route policy."""

    @pytest.mark.parametrize("average_first", [False, True], ids=["mmc", "mac"])
    @pytest.mark.parametrize("case", WALK_CASES)
    def test_hand_built_walks(self, routes, case, average_first):
        policy, loads, master, *expected = WALK_CASES[case]
        state = MappingState(small_arch(5, 5))
        if master:
            place_master(state, R)
        for link, load in loads.items():
            state.ledger.set_load(link, load)
        req = MapRequest("app0", sw_task(), R, 10, 4)
        want = oracle_channel_load(req, state, policy, average_first)
        tile, routed = expected[average_first]
        assert want == tile
        assert map_channel_load(req, state, policy, average_first)[0] == want
        assert len(routes) == 2 * routed

    @pytest.mark.parametrize("average_first", [False, True], ids=["mmc", "mac"])
    @pytest.mark.parametrize("policy", RoutePolicy, ids=lambda p: p.value)
    def test_empty_ledger_routes_one_candidate(self, routes, policy, average_first):
        """The first tile of the nearest shell meets the floor, and the next
        one's bound is above its key: two routes, there and back."""
        state = MappingState(ArchGraph.default_8x8())
        place_master(state, (3, 3))
        req = MapRequest("app0", sw_task(), (3, 3), 100, 100)
        tile, _ = map_channel_load(req, state, policy, average_first)
        assert routes == [((3, 3), (3, 2)), ((3, 2), (3, 3))]
        assert tile == (3, 2) == oracle_channel_load(req, state, policy, average_first)

    @pytest.mark.parametrize("average_first", [False, True], ids=["mmc", "mac"])
    @pytest.mark.parametrize(
        "other, link, load", [(S, (R, S), 5), (E, (E, R), 9)], ids=["column", "row"]
    )
    def test_skips_tile_on_its_leg_along_the_requester(
        self, routes, other, link, load, average_first
    ):
        """W and one tile of R's column (S) or row (E) are free.  W leaves
        R on R->W at load 2, so its peak is 12, above the floor 10.  The
        other tile's shell bound is below W's key, but its route there runs
        along R's column over R->S (15 with vms 10), or its route back along
        R's row over E->R (13 with vsm 4): it is skipped unrouted."""
        state = MappingState(small_arch(5, 5))
        place_master(state, R)
        for c in state.arch.coords():
            if state.tile_free(c) and c not in (state.arch.manager, W, other):
                state.place("blk", Task(f"b{c}", TaskKind.SOFTWARE, 1), c)
        state.ledger.set_load((R, W), 2)
        state.ledger.set_load(link, load)
        req = MapRequest("app0", sw_task(), R, 10, 4)
        assert oracle_channel_load(req, state, XY, average_first) == W
        assert map_channel_load(req, state, XY, average_first) == (W, 2)
        assert routes == [(R, W), (W, R)]

    @pytest.mark.parametrize("name", FOLD_ARCHES)
    def test_matches_oracle_with_loaded_requester_lines(self, name):
        """Every link of the requester's row and column carries a random
        load, so most calls miss the floor and the walk skips tiles on the
        legs of their routes along that row and column.  mmc and mac still
        match the oracle under both route policies, for two-way and one-way
        requests, and the winners include tiles of the requester's row and
        of its column."""
        arch = FOLD_ARCHES[name]
        rng = random.Random(name)
        seen = {(policy, af): set() for policy in RoutePolicy for af in (False, True)}
        for seed in range(100):
            state, drawn, _ = random_partial_state(arch, seed)
            rx, ry = r = drawn.requester_tile
            for a, b in arch.links():
                if a[1] == b[1] == ry or a[0] == b[0] == rx:
                    state.ledger.set_load((a, b), rng.randint(0, 400))
            for req in (drawn, replace(drawn, vms=0), replace(drawn, vsm=0)):
                cands = free_candidates(state, req.task.kind)
                floor = max(state.ledger.peak_load(), req.vms, req.vsm)
                for (policy, average_first), kinds in seen.items():
                    want = oracle_channel_load(req, state, policy, average_first)
                    got = map_channel_load(req, state, policy, average_first)
                    assert got == (want, len(cands)), (seed, req.vms, req.vsm, policy)
                    if want in (None, r):
                        continue
                    key = heuristics._channel_load_key(req, state, policy, average_first)
                    peak = key(want)[1 if average_first else 0]
                    kinds.add("missed floor" if peak > floor else "met floor")
                    kinds.add("row" if want[1] == ry else "column" if want[0] == rx else "off")
        for kinds in seen.values():
            assert kinds == {"missed floor", "met floor", "row", "column", "off"}

    def test_golden_mmc_run_routes(self, routes):
        """Route count of the mmc/16x16-ra/10 golden run (XY): the walk
        routes 101 tiles both ways over the run's calls.  With the floor as
        the only bound it routed 546, most of them in the few calls where no
        tile meets the floor."""
        simulate(golden_scenario("mmc/16x16-ra/10"))
        assert len(routes) == 2 * 101


class TestCandidateWalk:
    """mmc, mac, pl and bn walk the free tiles nearest the requester first
    (``_nearest_free``) instead of listing and sorting every candidate."""

    @pytest.mark.parametrize("name", FOLD_ARCHES)
    def test_distance_order_is_shell_order(self, name):
        """The walk yields the free tiles in the order the shells around
        the requester list them, its own tile first, for requesters on free
        and occupied tiles."""
        arch = FOLD_ARCHES[name]
        rng = random.Random(name)
        for seed in range(100):
            state, drawn, _ = random_partial_state(arch, seed)
            for r in (drawn.requester_tile, rng.choice(list(arch.coords()))):
                far = farthest(r, arch, manhattan)
                shells = [manhattan_shell(r, n, arch) for n in range(1, far + 1)]
                for kind in TaskKind:
                    free = state.free_tiles(kind)
                    got = list(heuristics._nearest_free(r, free, arch))
                    want = [t for t in chain([r], *shells) if t in free]
                    assert got == want, (seed, r, kind)

    @pytest.mark.parametrize("name", WALK_ARCHES)
    def test_walk_equals_sorted_candidates(self, name):
        """On random occupancies, for every task kind and for requesters on
        a free and on an occupied tile, the walk yields the free candidates
        listed in raster order and stably sorted by their distance from the
        requester."""
        arch = WALK_ARCHES[name]
        rng = random.Random(name)
        requesters = set()
        for _ in range(40):
            state = MappingState(arch)
            share = rng.random()
            for c in arch.coords():
                if c != arch.manager and rng.random() < share:
                    kind = TaskKind.HARDWARE if arch.kind(c) is TileKind.RA else TaskKind.SOFTWARE
                    state.place("app0", Task(f"t{c}", kind, 1), c)
            occupied = list(state.placement.values())
            for kind in TaskKind:
                cands = free_candidates(state, kind)
                for on, tiles in (("free", cands), ("occupied", occupied)):
                    if not tiles:
                        continue
                    r = rng.choice(tiles)
                    requesters.add(on)
                    want = sorted(cands, key=lambda c: manhattan(r, c))
                    got = list(heuristics._nearest_free(r, state.free_tiles(kind), arch))
                    assert got == want, (r, kind)
        assert requesters == {"free", "occupied"}


class TestMinLoadTreeScoring:
    """pl under the load-aware router, scored from one search from the
    requester and one into it, against the per-candidate ``_pl_key``."""

    @pytest.mark.parametrize("name", FOLD_ARCHES)
    def test_matches_per_candidate_scorer(self, name):
        arch = FOLD_ARCHES[name]
        policy = RoutePolicy.MIN_LOAD
        for seed in range(200):
            state, req, _ = random_partial_state(arch, seed)
            r = req.requester_tile
            cands = free_candidates(state, req.task.kind)
            scored = cands + [r]
            want = partial(heuristics._pl_key, req, state, policy=policy)
            there = min_load_tree(r, state.ledger, arch)
            back = min_load_tree(r, state.ledger, arch, into=True)
            got = [(there[0][i] + back[0][i], there[1][i] + back[1][i], i)
                   for i in map(arch.linear_index, scored)]
            assert got == [want(t) for t in scored], seed
            best = min(cands, key=want, default=None)
            assert map_pl(req, state, policy) == (best, len(cands)), seed


class TestHeuristicProperties:
    @pytest.mark.parametrize("seed", range(25))
    def test_results_are_free_and_compatible(self, seed):
        state, req, policy = random_partial_state(arch_4x4(), seed)
        engines = {
            kind: HeuristicEngine(kind, policy)
            for kind in HeuristicKind
        }
        for kind, engine in engines.items():
            tile = engine.place(req, state)
            if tile is not None:
                assert state.tile_free(tile)
                assert compatible(req.task.kind, state.arch.kind(tile))

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("factor", [3, 10])
    def test_objective_argmins_are_scale_invariant(self, seed, factor):
        state, req, policy = random_partial_state(arch_4x4(), seed)
        scaled_state, scaled_req, _ = random_partial_state(arch_4x4(), seed)
        for link, load in state.ledger.loads().items():
            scaled_state.ledger.set_load(link, load * factor)
        scaled_req = MapRequest(
            req.app, req.task, req.requester_tile, req.vms * factor, req.vsm * factor
        )
        for fn in LOAD_MAPPERS:
            assert fn(req, state, policy)[0] == fn(scaled_req, scaled_state, policy)[0]

    @pytest.mark.parametrize("seed", range(25))
    def test_nn_and_spiral_take_their_nearest_shells(self, seed):
        """Each heuristic returns a tile from the nearest shell of its own
        metric (Manhattan for nn, Chebyshev for spiral); the two distances
        are within a factor of two of each other."""
        state, req, policy = random_partial_state(arch_4x4(), seed)
        free = free_candidates(state, req.task.kind)
        if not free:
            return
        r = req.requester_tile
        nn_tile, _ = map_nn(req, state)
        sp_tile, _ = map_spiral(req, state)
        manh_min = min(manhattan(r, c) for c in free)
        cheb_min = min(max(abs(r[0] - c[0]), abs(r[1] - c[1])) for c in free)
        assert manhattan(r, nn_tile) == manh_min
        assert max(abs(r[0] - sp_tile[0]), abs(r[1] - sp_tile[1])) == cheb_min
        assert cheb_min <= manh_min <= 2 * cheb_min

    @pytest.mark.parametrize("seed", range(10))
    def test_determinism(self, seed):
        state, req, policy = random_partial_state(arch_4x4(), seed)
        for fn in (map_nn, map_spiral):
            assert fn(req, state) == fn(req, state)
        for fn in LOAD_MAPPERS:
            assert fn(req, state, policy) == fn(req, state, policy)


class TestHeuristicEngine:
    def test_name_dispatch_and_defaults(self):
        eng = HeuristicEngine("spiral")
        assert eng.kind is HeuristicKind.SPIRAL
        assert eng.route_policy is RoutePolicy.MIN_LOAD
        for name in ("ff", "mmc", "mac", "nn", "pl", "bn"):
            assert HeuristicEngine(name).route_policy is RoutePolicy.XY

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="valid: ff, mmc, mac, nn, pl, bn, spiral"):
            HeuristicEngine("bogus")

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("vms", -5, "volumes must be ints >= 0"),
            ("vms", 1.5, "volumes must be ints >= 0"),
            ("vsm", True, "volumes must be ints >= 0"),
            ("requester_tile", "ab", "requester must be None or an int pair"),
            ("requester_tile", (1.0, 2), "requester must be None or an int pair"),
            ("task", "s", "task must be a Task"),
        ],
        ids=["negative", "float", "bool", "str-tile", "float-tile", "str-task"],
    )
    def test_bad_request_rejected(self, field, value, match):
        """A request is checked when it is made, before any heuristic reads
        it."""
        fields = {"app": "app0", "task": sw_task(), "requester_tile": (1, 2), "vms": 1, "vsm": 1}
        with pytest.raises(ValidationError, match=f"^map request: {match}"):
            MapRequest(**{**fields, field: value})

    @pytest.mark.parametrize("kind", ["ff", "mmc", "bn"])
    def test_non_request_rejected(self, arch8, kind):
        with pytest.raises(ValidationError, match="^a request must be a MapRequest, got None"):
            HeuristicEngine(kind).place(None, MappingState(arch8))

    def test_evaluations_accumulate(self):
        state = MappingState(arch_4x4())
        place_master(state, (1, 2))
        eng = HeuristicEngine("pl")
        req = MapRequest("app0", sw_task(), (1, 2), 100, 100)
        eng.place(req, state)
        first = eng.evaluations
        assert first > 0
        eng.place(req, state)
        assert eng.evaluations == 2 * first
