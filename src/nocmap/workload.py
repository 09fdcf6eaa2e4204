"""Workload serialization, random workload generation and report output.

Workloads are stored as a small XML dialect::

    <workload version="1">
      <application id="app0">
        <task id="t0" kind="initial"  instructions="100"/>
        <task id="t1" kind="software" instructions="100"/>
        <edge master="t0" slave="t1" vms="100" vsm="100"/>
      </application>
    </workload>

All files are UTF-8 with LF line endings and serialize byte-identically for
a given model, so workloads and reports can be diffed across runs.
"""
from __future__ import annotations

import csv
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from numbers import Real
from typing import Sequence
from xml.sax.saxutils import quoteattr

from .model import Edge, Task, TaskGraph, TaskKind, ValidationError, is_int
from .sim import SimReport

WORKLOAD_VERSION = "1"

_KINDS = {k.value: k for k in TaskKind}

REPORT_HEADER = (
    "heuristic",
    "seed",
    "app_count",
    "makespan_cycles",
    "total_energy",
    "energy_compute",
    "energy_comm",
    "peak_link_load",
    "avg_link_load",
    "mapping_evaluations",
    "max_queue_wait",
)


@dataclass
class GenConfig:
    """Shape of randomly generated workloads.

    Each application is a uniformly random tree: task 0 is the initial task
    and every later task picks one earlier task as its master, which keeps
    the graph acyclic and connected.  Hardware tasks appear with
    ``hw_task_probability`` (default: the platform's hardware tile share).
    """

    app_count: int
    tasks_min: int = 7
    tasks_max: int = 9
    hw_task_probability: float = 14 / 63
    vms: int = 100
    vsm: int = 100
    instructions: int = 100
    seed: int = 0

    def validate(self) -> None:
        for name in ("app_count", "tasks_min", "tasks_max", "vms", "vsm", "instructions", "seed"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.app_count < 1:
            raise ValidationError(f"app_count must be >= 1, got {self.app_count}")
        if not 1 <= self.tasks_min <= self.tasks_max:
            raise ValidationError(
                f"task count range is empty: {self.tasks_min}..{self.tasks_max}"
            )
        p = self.hw_task_probability
        if not isinstance(p, Real) or not 0.0 <= p <= 1.0:
            raise ValidationError(f"hw_task_probability must be a number within [0, 1], got {p!r}")
        if self.vms < 0 or self.vsm < 0 or self.vms + self.vsm < 1:
            raise ValidationError("edge volumes must be non-negative and carry traffic")
        if self.instructions < 1:
            raise ValidationError("instructions must be >= 1")


def generate_workload(cfg: GenConfig) -> list[TaskGraph]:
    """Seed-deterministic random applications matching the configuration."""
    if not isinstance(cfg, GenConfig):
        raise ValidationError(f"expected a GenConfig, got {cfg!r}")
    cfg.validate()
    rng = random.Random(cfg.seed)
    apps = []
    for a in range(cfg.app_count):
        count = rng.randint(cfg.tasks_min, cfg.tasks_max)
        tasks = [Task("t0", TaskKind.INITIAL, cfg.instructions)]
        edges = []
        for i in range(1, count):
            kind = (
                TaskKind.HARDWARE
                if rng.random() < cfg.hw_task_probability
                else TaskKind.SOFTWARE
            )
            tasks.append(Task(f"t{i}", kind, cfg.instructions))
            edges.append(Edge(f"t{rng.randrange(i)}", f"t{i}", cfg.vms, cfg.vsm))
        apps.append(TaskGraph(f"app{a}", tasks, edges))
    return apps


# Characters that ``quoteattr`` would change or that XML 1.0 cannot hold
# (outside its ``Char`` production); the second class is the latter alone.
_NEEDS_QUOTEATTR = re.compile('[\x00-\x1f&<>"\ud800-\udfff\ufffe\uffff]')
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _quote_id(app_id: str, value: str) -> str:
    """``value`` as a quoted attribute, the same bytes ``quoteattr`` gives."""
    if not _NEEDS_QUOTEATTR.search(value):
        return f'"{value}"'
    if _NOT_XML_CHAR.search(value):
        raise ValidationError(
            f"application {app_id!r}: id {value!r} has a character XML 1.0 cannot represent"
        )
    return quoteattr(value)


def serialize_workload(apps: Sequence[TaskGraph]) -> str:
    """The workload document.  Only ids can hold characters that need
    escaping (see ``_quote_id``); kinds and integers are written as they are."""
    if not isinstance(apps, Sequence) or not all(isinstance(g, TaskGraph) for g in apps):
        raise ValidationError(f"apps must be a sequence of TaskGraph, got {apps!r}")
    lines = [f'<workload version="{WORKLOAD_VERSION}">']
    for g in apps:
        app_id = g.app_id
        lines.append(f"  <application id={_quote_id(app_id, app_id)}>")
        for t in g.tasks:
            lines.append(
                f'    <task id={_quote_id(app_id, t.id)} kind="{t.kind.value}" '
                f'instructions="{t.instructions}"/>'
            )
        for e in g.edges:
            lines.append(
                f"    <edge master={_quote_id(app_id, e.mtid)} slave={_quote_id(app_id, e.stid)} "
                f'vms="{e.vms}" vsm="{e.vsm}"/>'
            )
        lines.append("  </application>")
    lines.append("</workload>")
    return "\n".join(lines) + "\n"


def write_workload(apps: Sequence[TaskGraph], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(serialize_workload(apps))


def _attr(elem: ET.Element, name: str, context: str) -> str:
    value = elem.get(name)
    if value is None:
        raise ValidationError(f"{context}: missing attribute {name!r}")
    return value


def _int_attr(elem: ET.Element, name: str, context: str) -> int:
    """The attribute as an integer written the way ``str(int)`` writes it, so
    that a parsed document serializes back to its own bytes: no ``+``,
    space, underscore, leading zero or non-ASCII digit."""
    raw = _attr(elem, name, context)
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or str(value) != raw:
        raise ValidationError(f"{context}: attribute {name}={raw!r} is not an integer")
    return value


def parse_workload(data: str | bytes) -> list[TaskGraph]:
    """Parse and validate a workload document."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, col = exc.position
        raise ValidationError(f"malformed XML at line {line}, column {col}: {exc.msg}") from None
    except TypeError:  # not a string or bytes-like object
        raise ValidationError(f"workload must be str or bytes, got {type(data).__name__}") from None
    if root.tag != "workload":
        raise ValidationError(f"root element must be <workload>, got <{root.tag}>")
    version = root.get("version")
    if version != WORKLOAD_VERSION:
        raise ValidationError(f"unsupported workload version {version!r}")
    apps = []
    for app_elem in root:
        if app_elem.tag != "application":
            raise ValidationError(f"unexpected element <{app_elem.tag}> under <workload>")
        app_id = _attr(app_elem, "id", "<application>")
        tasks: list[Task] = []
        edges: list[Edge] = []
        ctx = f"application {app_id!r}"
        for child in app_elem:
            if child.tag == "task":
                tid = _attr(child, "id", ctx)
                kind_raw = _attr(child, "kind", ctx)
                kind = _KINDS.get(kind_raw)
                if kind is None:
                    raise ValidationError(f"{ctx}: task {tid!r} has unknown kind {kind_raw!r}")
                tasks.append(Task(tid, kind, _int_attr(child, "instructions", ctx)))
            elif child.tag == "edge":
                edges.append(
                    Edge(
                        _attr(child, "master", ctx),
                        _attr(child, "slave", ctx),
                        _int_attr(child, "vms", ctx),
                        _int_attr(child, "vsm", ctx),
                    )
                )
            else:
                raise ValidationError(f"{ctx}: unexpected element <{child.tag}>")
        apps.append(TaskGraph(app_id, tasks, edges))
    if not apps:
        raise ValidationError("workload contains no applications")
    return apps


def parse_workload_file(path: str) -> list[TaskGraph]:
    with open(path, "rb") as fh:
        return parse_workload(fh.read())


def report_row(report: SimReport) -> list:
    return [
        report.heuristic,
        report.seed,
        report.app_count,
        report.makespan,
        report.total_energy,
        report.energy_compute,
        report.energy_comm,
        report.peak_link_load,
        repr(report.avg_link_load),
        report.mapping_evaluations,
        report.max_queue_wait,
    ]


def write_report(reports: Sequence[SimReport], path: str) -> None:
    """CSV rows, one per (heuristic, seed), sorted for stable diffs."""
    if not reports:
        raise ValidationError("no reports to write")
    ordered = sorted(reports, key=lambda r: (r.heuristic, r.seed))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        for r in ordered:
            writer.writerow(report_row(r))
