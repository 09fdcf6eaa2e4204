import hashlib
import random

import pytest

from nocmap.model import ArchGraph, ChannelLoadLedger, ValidationError, manhattan
from nocmap.oracles import enumerate_objectives, random_ledger, route_oracle
from nocmap.routing import (
    RoutePolicy,
    _dijkstra,
    _xy_cost,
    min_load_route,
    min_load_tree,
    path_cost,
    path_hops,
    route,
    xy_fold,
    xy_leg_peaks,
    xy_route,
)

from conftest import arch_16x16_ra, small_arch
from test_heuristics import WALK_ARCHES


class TestXYRoute:
    def test_x_then_y(self, arch8):
        assert xy_route((1, 1), (3, 2), arch8) == ((1, 1), (2, 1), (3, 1), (3, 2))

    def test_zero_hop(self, arch8):
        assert xy_route((5, 5), (5, 5), arch8) == ((5, 5),)

    def test_reverse_still_x_first(self, arch8):
        assert xy_route((3, 2), (1, 1), arch8) == ((3, 2), (2, 2), (1, 2), (1, 1))

    def test_hops_equal_hop_distance(self, arch8):
        rng = random.Random(7)
        for _ in range(200):
            a = (rng.randrange(8), rng.randrange(8))
            b = (rng.randrange(8), rng.randrange(8))
            assert path_hops(xy_route(a, b, arch8)) == manhattan(a, b)

    def test_out_of_mesh_rejected(self, arch8):
        with pytest.raises(ValidationError):
            xy_route((0, 0), (9, 0), arch8)


class TestPathCost:
    def test_zero_ledger(self, arch8):
        ledger = ChannelLoadLedger(arch8)
        assert path_cost(xy_route((0, 0), (5, 5), arch8), ledger) == 0

    def test_additivity(self):
        arch = small_arch(4, 1)
        ledger = ChannelLoadLedger(arch)
        ledger.set_load(((0, 0), (1, 0)), 100)
        ledger.set_load(((1, 0), (2, 0)), 0)
        ledger.set_load(((2, 0), (3, 0)), 50)
        assert path_cost(((0, 0), (1, 0), (2, 0), (3, 0)), ledger) == 150

    def test_matches_bruteforce_on_random_ledgers(self, arch8):
        rng = random.Random(3)
        for seed in range(20):
            ledger = random_ledger(arch8, seed)
            a = (rng.randrange(8), rng.randrange(8))
            b = (rng.randrange(8), rng.randrange(8))
            p = xy_route(a, b, arch8)
            assert path_cost(p, ledger) == sum(
                ledger.load((u, v)) for u, v in zip(p, p[1:])
            )


class TestXYFold:
    @pytest.mark.parametrize(
        "size", [(1, 1), (1, 6), (6, 1), (3, 5), (5, 3), (4, 4)], ids=lambda s: "%dx%d" % s
    )
    def test_matches_per_route_folds(self, size):
        """Every (src, dst) pair on square and non-square meshes: the fold
        equals the sum of the loads on both XY routes."""
        arch = small_arch(*size)
        for seed in range(20):
            ledger = random_ledger(arch, seed)
            for src in arch.coords():
                sums = xy_fold(src, ledger, arch)
                for dst in arch.coords():
                    i = arch.linear_index(dst)
                    there, back = xy_route(src, dst, arch), xy_route(dst, src, arch)
                    assert (sums[0][i], sums[1][i]) == (
                        path_cost(there, ledger), path_cost(back, ledger)
                    ), (size, seed, src, dst)

    def test_out_of_mesh_rejected(self, arch8):
        with pytest.raises(ValidationError):
            xy_fold((8, 0), ChannelLoadLedger(arch8), arch8)


class TestXYCost:
    @pytest.mark.parametrize("name", ["5x3", "3x7", "1x6", "6x1", "8x8"])
    def test_matches_path_cost(self, name):
        """Every (src, dst) pair under random loads: the link-table sum
        equals the summed loads of the XY route."""
        arch = WALK_ARCHES[name]
        for seed in range(6):
            ledger = random_ledger(arch, seed)
            for src in arch.coords():
                for dst in arch.coords():
                    assert _xy_cost(src, dst, ledger, arch) == path_cost(
                        xy_route(src, dst, arch), ledger
                    ), (seed, src, dst)


class TestXYLegPeaks:
    @pytest.mark.parametrize(
        "size", [(1, 1), (1, 6), (6, 1), (3, 5), (5, 3), (4, 4)], ids=lambda s: "%dx%d" % s
    )
    def test_matches_route_peaks(self, size):
        """Every tile and every tile of its row and column: each leg equals
        the highest load on the XY route between them."""
        arch = small_arch(*size)
        for seed in range(20):
            ledger = random_ledger(arch, seed)
            for src in arch.coords():
                sx, sy = src
                row_out, row_in, col_out, col_in = xy_leg_peaks(src, ledger, arch)
                assert (len(row_out), len(row_in)) == (arch.width,) * 2
                assert (len(col_out), len(col_in)) == (arch.height,) * 2
                for x in range(arch.width):
                    t = (x, sy)
                    assert (row_out[x], row_in[x]) == (
                        ledger.path_peak(xy_route(src, t, arch)),
                        ledger.path_peak(xy_route(t, src, arch)),
                    ), (size, seed, src, t)
                for y in range(arch.height):
                    t = (sx, y)
                    assert (col_out[y], col_in[y]) == (
                        ledger.path_peak(xy_route(src, t, arch)),
                        ledger.path_peak(xy_route(t, src, arch)),
                    ), (size, seed, src, t)

    def test_out_of_mesh_rejected(self, arch8):
        with pytest.raises(ValidationError):
            xy_leg_peaks((0, 8), ChannelLoadLedger(arch8), arch8)


class TestMinLoadRoute:
    def test_zero_load_reduces_to_shortest_path(self):
        arch = small_arch(3, 3)
        ledger = ChannelLoadLedger(arch)
        assert min_load_route((0, 0), (2, 0), ledger, arch) == ((0, 0), (1, 0), (2, 0))

    def test_detour_beats_loaded_straight_path(self):
        arch = small_arch(3, 3)
        ledger = ChannelLoadLedger(arch)
        ledger.set_load(((1, 0), (2, 0)), 500)
        path = min_load_route((0, 0), (2, 0), ledger, arch)
        assert path[0] == (0, 0) and path[-1] == (2, 0)
        assert path_cost(path, ledger) == 0
        assert path_hops(path) == 4
        assert len(set(path)) == len(path)

    def test_degenerate_single_tile(self):
        arch = small_arch(3, 3)
        assert min_load_route((1, 1), (1, 1), ChannelLoadLedger(arch), arch) == ((1, 1),)

    def test_deterministic(self, arch8):
        ledger = random_ledger(arch8, 11)
        first = min_load_route((0, 0), (7, 7), ledger, arch8)
        for _ in range(5):
            assert min_load_route((0, 0), (7, 7), ledger, arch8) == first

    def test_monotone_in_link_load(self):
        """Adding load to one link never lowers the optimal path load."""
        arch = small_arch(3, 3)
        rng = random.Random(5)
        for seed in range(50):
            ledger = random_ledger(arch, seed, high=100)
            src = (rng.randrange(3), rng.randrange(3))
            dst = (rng.randrange(3), rng.randrange(3))
            if src == dst:
                continue
            before = path_cost(min_load_route(src, dst, ledger, arch), ledger)
            link = arch.links()[rng.randrange(len(arch.links()))]
            ledger.set_load(link, ledger.load(link) + rng.randint(1, 200))
            after = path_cost(min_load_route(src, dst, ledger, arch), ledger)
            assert after >= before


class TestMinLoadTree:
    @pytest.mark.parametrize(
        "size", [(1, 1), (1, 5), (5, 1), (3, 4), (4, 4)], ids=lambda s: "%dx%d" % s
    )
    def test_matches_routes_to_and_from_every_tile(self, size):
        """The full search from ``src``, and the one over reversed links into
        it, give the load and hops of every pair's ``min_load_route``."""
        arch = small_arch(*size)
        for seed in range(12):
            ledger = random_ledger(arch, seed, high=2 if seed % 2 else 500)
            for src in arch.coords():
                there = min_load_tree(src, ledger, arch)
                back = min_load_tree(src, ledger, arch, into=True)
                for dst in arch.coords():
                    i = arch.linear_index(dst)
                    to = min_load_route(src, dst, ledger, arch)
                    fro = min_load_route(dst, src, ledger, arch)
                    assert (there[0][i], there[1][i]) == (path_cost(to, ledger), path_hops(to))
                    assert (back[0][i], back[1][i]) == (path_cost(fro, ledger), path_hops(fro))

    def test_out_of_mesh_rejected(self, arch8):
        with pytest.raises(ValidationError):
            min_load_tree((0, 8), ChannelLoadLedger(arch8), arch8, into=True)


# "platform/ledger" -> SHA-256 of ``min_load_route`` for every (src, dst)
# pair, recorded before the router moved to integer tile and link indices.
# Loads of 0..2 (``random_ledger(..., high=2)``) and the all-zero ledger make
# most pairs tie on (load, hops), so the digests pin the tie-breaking order.
ROUTER_TIE_DIGESTS = {
    "8x8/zero": "9769980a72c2e925b1f830b3f0d5292ae905263c2def8368a2d0cb35a2ce2cc9",
    "8x8/high2-1": "94ef85fb6edba304344a593bdfd4a6380079de6ad4e2a52333eab1771c7dccb0",
    "8x8/high2-2": "2d8fb83744f46bdee1bc1bb9c1137c724e092c74223f4a47fa5054e1d0207a29",
    "8x8/high2-3": "6d4453029db2d5cbb40ccbde2cd2c722bea90ff40ab50bc48b390f5352488f8c",
    "16x16-ra/zero": "c838c336067cc05ecd009a65bbecbee41636f5784a9497babb6471c865b27db7",
    "16x16-ra/high2-1": "a0e5c4a9564eaf111b99b1d672bb732bffb9c1dc63e1aac460db84d71b3437ad",
}


class TestRouterTieDigests:
    @pytest.mark.parametrize("case", ROUTER_TIE_DIGESTS)
    def test_every_pair_routes_as_recorded(self, case):
        platform, ledger_name = case.split("/")
        arch = ArchGraph.default_8x8() if platform == "8x8" else arch_16x16_ra()
        seed = 0 if ledger_name == "zero" else int(ledger_name.split("-")[1])
        ledger = random_ledger(arch, seed, high=2)
        digest = hashlib.sha256()
        for src in arch.coords():
            for dst in arch.coords():
                path = min_load_route(src, dst, ledger, arch)
                digest.update(",".join(str(arch.linear_index(c)) for c in path).encode() + b";")
        assert digest.hexdigest() == ROUTER_TIE_DIGESTS[case]


def sparse_ledger(arch, seed, share=0.15):
    """Seeded ledger with most links at 0 and about ``share`` of them at 1..3."""
    rng = random.Random(seed)
    ledger = ChannelLoadLedger(arch)
    for link in arch.links():
        if rng.random() < share:
            ledger.set_load(link, rng.randint(1, 3))
    return ledger


def search_routes(src, ledger, arch):
    """The route ``_dijkstra``'s parents give from ``src`` to every tile, by
    linear index: one full search, backtracked from each tile.  The search
    that stops at ``dst`` is a prefix of this one and a settled tile's parent
    never changes, so it backtracks to the same route."""
    s = arch.linear_index(src)
    _, _, parent = _dijkstra(s, -1, ledger.by_link_id(), arch)
    routes = []
    for d in range(len(parent)):
        path = [d]
        while path[-1] != s:
            path.append(parent[path[-1]])
        routes.append(tuple(map(arch.coord_at, reversed(path))))
    return routes


class TestSearchTieRule:
    """``min_load_route`` returns the search's own route, whether or not it
    searches: on the all-zero ledger every pair takes the load-free tie route,
    and on sparse ledgers many tie routes cross a loaded link and the search
    detours round it."""

    MESHES = {
        "1x6": lambda: small_arch(1, 6),
        "6x1": lambda: small_arch(6, 1),
        "2x2": lambda: small_arch(2, 2),
        "8x8": ArchGraph.default_8x8,
        "16x16-ra": arch_16x16_ra,
    }

    @pytest.mark.parametrize("mesh", MESHES)
    def test_matches_search_backtrack(self, mesh):
        arch = self.MESHES[mesh]()
        coords = list(arch.coords())
        rng = random.Random(mesh)
        cases = [(ChannelLoadLedger(arch), coords)]
        cases += [(sparse_ledger(arch, seed), rng.sample(coords, min(len(coords), 8)))
                  for seed in range(1, 5)]
        detours = 0
        for ledger, sources in cases:
            for src in sources:
                for dst, expected in zip(coords, search_routes(src, ledger, arch)):
                    got = min_load_route(src, dst, ledger, arch)
                    assert got == expected, (src, dst)
                    tie = xy_route(src, dst, arch)
                    if dst[1] < src[1]:
                        tie = tuple(reversed(xy_route(dst, src, arch)))
                    detours += got != tie
        assert (detours > 0) == (arch.width > 1 and arch.height > 1)


class TestRouteOracle:
    def test_single_row_mesh_has_unique_path(self):
        arch = small_arch(4, 1)
        ledger = random_ledger(arch, 9)
        assert route_oracle((0, 0), (3, 0), ledger, arch) == (
            (0, 0), (1, 0), (2, 0), (3, 0),
        )

    def test_zero_ledger_is_hop_minimal(self):
        arch = small_arch(4, 4)
        ledger = ChannelLoadLedger(arch)
        for dst in arch.coords():
            if dst == (0, 0):
                continue
            p = route_oracle((0, 0), dst, ledger, arch)
            assert path_hops(p) == manhattan((0, 0), dst)

    def test_refuses_large_mesh(self):
        arch = small_arch(5, 5)
        with pytest.raises(ValidationError):
            enumerate_objectives((0, 0), ChannelLoadLedger(arch), arch)

    def test_oracle_paths_are_simple_and_end_to_end(self):
        arch = small_arch(3, 3)
        ledger = random_ledger(arch, 2)
        for dst in arch.coords():
            p = route_oracle((1, 1), dst, ledger, arch)
            assert p[0] == (1, 1) and p[-1] == dst
            assert len(set(p)) == len(p)


class TestRouteDispatch:
    def test_policy_dispatch(self, arch8):
        ledger = ChannelLoadLedger(arch8)
        assert route(RoutePolicy.XY, (0, 0), (2, 2), ledger, arch8) == xy_route(
            (0, 0), (2, 2), arch8
        )
        assert route(RoutePolicy.MIN_LOAD, (0, 0), (2, 2), ledger, arch8) == min_load_route(
            (0, 0), (2, 2), ledger, arch8
        )

    @pytest.mark.parametrize("policy", ["xy", None, 42], ids=["value", "none", "int"])
    def test_non_member_policy_rejected(self, arch8, policy):
        """Only a ``RoutePolicy`` member routes: its value, or anything
        else, is rejected rather than routed with the load-aware search."""
        with pytest.raises(ValidationError, match="^route policy must be RoutePolicy.XY or"):
            route(policy, (5, 5), (1, 1), random_ledger(arch8, 3), arch8)
