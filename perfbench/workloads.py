"""Benchmark workloads: platforms, inputs and the set-up that builds them.

Each workload fixes a heuristic, a platform and an input size; only the
workload seed varies between runs.  Set-up mirrors ``nocmap generate``
followed by ``nocmap run``: generate the applications, round-trip them
through the workload XML, and build the platform.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from nocmap import ArchGraph, RoutePolicy, Scenario, workload

LAYOUT_16X16_RA = Path(__file__).resolve().parent / "layout-16x16-ra.json"


def layout_platform(path: Path) -> ArchGraph:
    """Platform from a layout file, as ``nocmap run --layout-file`` builds it."""
    layout = json.loads(path.read_text(encoding="utf-8"))
    return ArchGraph.uniform(
        layout["width"], layout["height"], tuple(layout["manager"]), [tuple(c) for c in layout["ra"]]
    )


# "16x16-ra" is the default 8x8 RA pattern tiled 2x2: 56 RA tiles.
PLATFORMS = {
    "8x8": ArchGraph.default_8x8,
    "16x16-ra": lambda: layout_platform(LAYOUT_16X16_RA),
}


@dataclass(frozen=True)
class Workload:
    name: str
    heuristic: str
    route: str  # explicit, so a new default route for the heuristic cannot change the workload
    platform: str
    app_count: int
    arrival_interval: int = 0  # cycles between arrivals; 0: all at cycle 0

    def setup(self, seed: int) -> Scenario:
        """Generate, XML round-trip and platform-build one scenario."""
        apps = workload.generate_workload(workload.GenConfig(app_count=self.app_count, seed=seed))
        xml = workload.serialize_workload(apps).encode("utf-8")
        apps = workload.parse_workload(xml)
        arrivals = [i * self.arrival_interval for i in range(len(apps))] if self.arrival_interval else None
        return Scenario(
            apps=apps,
            heuristic=self.heuristic,
            route_policy=RoutePolicy(self.route),
            seed=seed,
            arrivals=arrivals,
            arch=PLATFORMS[self.platform](),
        )


# Sizes put one ``simulate`` call at roughly 0.6-3 s of host time on a 2-core
# x86 machine with Python 3.11, so a 30-s run holds 8-20 calls.  mmc's
# all-at-once batch needs 60 apps to bring the makespan's seed-to-seed spread
# (IQR over median) from 0.19 at 25 apps down to 0.09-0.14.  BENCHMARK.json
# records why each workload is here.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ff-8x8-long", "ff", "xy", "8x8", 450),
        Workload("mmc-16x16", "mmc", "xy", "16x16-ra", 60),
        Workload("pl-16x16", "pl", "xy", "16x16-ra", 140),
        Workload("spiral-16x16-arrivals", "spiral", "mdijkstra", "16x16-ra", 600, arrival_interval=1500),
    )
}
