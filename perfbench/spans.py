"""Span tracing of nocmap's layers, patched in from outside the package.

A ``Tracer`` replaces the functions in ``TARGETS`` with wrappers that record
one span per call: name, start, end and the span open when it was called.
Spans live in flat in-memory arrays and are written out on request, so the
per-call cost is a few appends.  ``ChannelLoadLedger.load`` and
``ArchGraph.in_mesh`` are deliberately not wrapped: they run millions of times
per call and tracing them would swamp the layers being measured.
"""
from __future__ import annotations

import csv
import time
from array import array

from nocmap import heuristics, model, routing, sim, workload

# (owner, attribute, span name).  A function imported by name into another
# module is patched in the module that calls it, because that caller looks it
# up in its own globals: ``sim`` calls ``place_initial`` and ``heuristics``
# calls ``path_cost`` that way.  ``routing.route`` looks ``xy_route`` and
# ``min_load_route`` up in ``routing`` itself, so patching them there covers
# every caller of ``route``.
TARGETS = (
    (workload, "generate_workload", "workload.generate"),
    (workload, "serialize_workload", "workload.serialize"),
    (workload, "parse_workload", "workload.parse"),
    (workload, "write_report", "workload.write_report"),
    (sim, "write_event_log", "sim.write_event_log"),
    (sim.LinkSchedule, "earliest_start", "sim.link_schedule.earliest_start"),
    (sim.LinkSchedule, "reserve", "sim.link_schedule.reserve"),
    (heuristics.HeuristicEngine, "place", "heuristics.place"),
    (sim, "place_initial", "heuristics.place_initial"),
    (routing, "xy_route", "routing.xy_route"),
    (routing, "min_load_route", "routing.min_load_route"),
    (heuristics, "path_cost", "routing.path_cost"),
    (model.ChannelLoadLedger, "add_path", "model.ledger.add_path"),
    (model.ChannelLoadLedger, "remove_path", "model.ledger.remove_path"),
    (model.ChannelLoadLedger, "peak_load", "model.ledger.scan"),
    (model.ChannelLoadLedger, "total_load", "model.ledger.scan"),
    (model.ChannelLoadLedger, "avg_load", "model.ledger.scan"),
    (model.MappingState, "place", "model.state.place"),
    (model.MappingState, "apply_route", "model.state.apply_route"),
    (model.MappingState, "remove_route", "model.state.remove_route"),
    (model.MappingState, "release_app", "model.state.release_app"),
)

# Spans of these names are split by caller: ``.tentative`` when a
# ``heuristics.place`` span encloses them, ``.pinned`` otherwise.
SPLIT_BY_CALLER = ("routing.xy_route", "routing.min_load_route", "routing.path_cost")
PLACE = "heuristics.place"

# The unpatched functions, taken before any Tracer exists.
ORIGINALS = {(owner, attr): vars(owner)[attr] for owner, attr, _ in TARGETS}


def assert_restored() -> None:
    """Raise if any traced target is not its original function."""
    changed = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), fn in ORIGINALS.items()
        if vars(owner)[attr] is not fn
    ]
    if changed:
        raise RuntimeError(f"traced functions not restored: {', '.join(changed)}")


class Tracer:
    """Records spans while active; used as ``with Tracer() as tr: ...``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.returned_none: set[int] = set()
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns
        track_none = name == PLACE
        returned_none = self.returned_none

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if track_none and result is None:
                returned_none.add(i)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        assert_restored()
        for owner, attr, name in TARGETS:
            setattr(owner, attr, self._wrap(ORIGINALS[(owner, attr)], name))
        return self

    def __exit__(self, *exc) -> None:
        for (owner, attr), fn in ORIGINALS.items():
            setattr(owner, attr, fn)

    def call(self, name: str, fn, *args):
        """Call ``fn`` inside a span named by the benchmark, not by a target."""
        return self._wrap(fn, name)(*args)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``s``, ``self_s`` and ``found``.

        A span directly inside a span of the same name (``avg_load`` calling
        ``total_load``) is part of its parent's call: it is not counted again
        and its children count as the parent's.  Self time is a span's
        duration minus that of its children.  ``found`` counts the calls that
        returned something other than None (tracked for ``heuristics.place``).
        """
        n = len(self.name_id)
        names, name_id, parent = self.names, self.name_id, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        place = self._ids.get(PLACE, -1)
        split = {self._ids[s] for s in SPLIT_BY_CALLER if s in self._ids}
        owner = list(range(n))  # the counted span each span's time belongs to
        under_place = bytearray(n)
        child_ns = [0] * n
        labels: list[str | None] = [None] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                under_place[i] = under_place[p] or name_id[p] == place
                if name_id[p] == name_id[i]:
                    owner[i] = owner[p]
                    continue
                child_ns[owner[p]] += dur[i]
            label = names[name_id[i]]
            if name_id[i] in split:
                label += ".tentative" if under_place[i] else ".pinned"
            labels[i] = label
        out: dict[str, dict[str, float]] = {}
        for i, label in enumerate(labels):
            if label is None:
                continue
            agg = out.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0, "found": 0})
            agg["calls"] += 1
            agg["s"] += dur[i] / 1e9
            agg["self_s"] += (dur[i] - child_ns[i]) / 1e9
            agg["found"] += i not in self.returned_none
        return out

    def write(self, path: str) -> None:
        """Write every span as CSV: index, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("span", "name", "start_ns", "end_ns", "parent"))
            for i in range(len(self.name_id)):
                w.writerow((i, self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]))
