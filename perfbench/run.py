"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ff-8x8-long --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; nocmap is imported from ``src/``.
One process is one run.  For about ``--seconds`` seconds it repeats one call:
build the inputs from ``--seed`` (``setup_s``), simulate them
(``sim_ref_s``), write the report CSV and event log under ``perfbench/out/``
(``write_ref_s``) and check them (see ``check.py``).  A call that raises or
fails a check counts as failed.

Host times are medians over a run's calls.  ``setup_s`` is in host seconds.
Simulate and write times are first rescaled to a reference host speed:
other tenants of a shared host slow this process by up to 2x, in stretches
from seconds to minutes, which no run of tens of seconds outlasts.  So each
call is bracketed by ``PROBES`` runs of ``probe``, a few milliseconds of
interpreter work, and its times are multiplied by ``PROBE_REF_S`` over the
probes' median time.  A reference second (``ref-s``) is thus a host second
on a host where one probe takes ``PROBE_REF_S``.  On a 2-core x86 VM with
Python 3.11.7 this cut the spread of 30-s windows of spiral's simulate
times from 0.14-0.22 to 0.05 of their median.  Host seconds are printed
alongside.  A write is repeated for ``WRITE_BLOCK_S`` and timed as the
mean.  Each call runs on the CPU where the probe ran fastest just before it,
since the interference often hits one CPU of the two while sparing the other.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed.
With ``--trace 1`` untraced and traced calls alternate and the per-layer
metrics are printed: span counts and times from ``spans.py``, modelled
counts from the event log, and the tracing overhead.  A traced call must
write the same event log as an untraced one.  The last line of output is
one JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_CALLS = 3
# Writing takes 3-50 ms; repeating it for this long evens out hiccups that
# would dominate a single write of the smallest event logs.
WRITE_BLOCK_S = 0.1
PROBES = 20
# About the median probe time on the VM above in its quietest minutes; it
# defines the unit of every ``ref-s`` metric, so it must not change.
PROBE_REF_S = 0.002
# The CPUs this process may run on, read before it pins itself to one.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _import_nocmap() -> None:
    """Put the checkout's ``src/`` first on the path; fail if it has no nocmap."""
    if not (SRC / "nocmap" / "__init__.py").is_file():
        sys.exit(f"error: no nocmap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nocmap

    if not Path(nocmap.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: nocmap imported from {nocmap.__file__}, not from {SRC}")


_import_nocmap()

from nocmap import simulate, sim, workload  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


@dataclass
class Call:
    """What one simulate call leaves behind once its report is dropped."""

    problems: list[str]
    digest: str = ""
    setup_s: float = 0.0
    wall_s: float = 0.0
    write_s: float = 0.0
    probe_s: float = 0.0
    makespan: int = 0
    total_energy: int = 0
    evaluations: int = 0
    stats: check.EventStats | None = None

    @property
    def to_ref(self) -> float:
        """Factor taking this call's host seconds to reference seconds."""
        return PROBE_REF_S / self.probe_s


def timed(fn, at_least: float = 0.0):
    """Call ``fn`` until ``at_least`` seconds have passed, at least once.

    Returns the last result and the mean time of one call.
    """
    runs = 0
    t0 = time.perf_counter()
    while runs == 0 or time.perf_counter() - t0 < at_least:
        result = fn()
        runs += 1
    return result, (time.perf_counter() - t0) / runs


def probe() -> float:
    """Time a few milliseconds of interpreter work: dict, list and tuple traffic."""
    t0 = time.perf_counter()
    d: dict[int, tuple[int, int]] = {}
    for i in range(20000):
        d[i % 997] = (i, len(d))
    sorted(d.values())
    return time.perf_counter() - t0


def pin_to_quietest_cpu() -> None:
    """Move this process to the allowed CPU on which ``probe`` runs fastest."""
    if len(CPUS) < 2:
        return
    took = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        took[cpu] = min(probe() for _ in range(3))
    os.sched_setaffinity(0, {min(took, key=took.get)})


def host_probe() -> float:
    """Median time of ``PROBES`` probes: this CPU's speed right now."""
    return statistics.median(probe() for _ in range(PROBES))


def simulate_and_check(w: Workload, seed: int, out: Path, tracer: spans.Tracer | None = None) -> Call:
    """Set up, simulate once, write the report and event log, and check them."""
    report_path, events_path = str(out / "report.csv"), str(out / "events.csv")
    call = Call([])
    pin_to_quietest_cpu()
    before = host_probe()
    scenario, call.setup_s = timed(lambda: w.setup(seed))
    if tracer is None:
        report, call.wall_s = timed(lambda: simulate(scenario))
    else:
        report, call.wall_s = timed(lambda: tracer.call("sim.simulate", simulate, scenario))

    def write() -> None:
        workload.write_report([report], report_path)
        sim.write_event_log(report.event_log, events_path)

    _, call.write_s = timed(write, WRITE_BLOCK_S)
    call.probe_s = (before + host_probe()) / 2
    call.problems, call.stats = check.check_outputs(report_path, events_path, [g.app_id for g in scenario.apps])
    call.problems += check.check_golden(w.name, seed, report_path, events_path)
    call.digest = check.sha256_file(events_path)
    call.makespan, call.total_energy = report.makespan, report.total_energy
    call.evaluations = report.mapping_evaluations
    return call


def attempt(fn) -> Call:
    """Run ``fn``; an exception becomes a failed call with its traceback."""
    try:
        return fn()
    except Exception:  # a failing call is counted, and the run goes on
        traceback.print_exc()
        return Call(["raised: " + traceback.format_exc().splitlines()[-1]])


def repeat_for(seconds: float, step) -> None:
    """Call ``step`` at least MIN_CALLS times, stopping before ``seconds`` run out."""
    start = time.perf_counter()
    took: list[float] = []
    while True:
        t0 = time.perf_counter()
        step()
        took.append(time.perf_counter() - t0)
        if len(took) >= MIN_CALLS and time.perf_counter() - start + statistics.median(took) > seconds:
            return


def run_plain(w: Workload, seed: int, seconds: float, out: Path) -> tuple[list[Call], dict[str, float]]:
    calls: list[Call] = []
    repeat_for(seconds, lambda: calls.append(attempt(lambda: simulate_and_check(w, seed, out))))
    ran = [c for c in calls if c.stats is not None]
    if not ran:
        return calls, {}
    sim_ref_s = statistics.median(c.wall_s * c.to_ref for c in ran)
    for what in ("wall_s", "write_s", "probe_s"):
        host = [getattr(c, what) for c in ran]
        print(f"host {what}: median {statistics.median(host)} s, min {min(host)} s over {len(host)} calls")
    return calls, {
        "sim_ref_s": sim_ref_s,
        "events_per_ref_s": ran[0].stats.rows / sim_ref_s,
        "setup_s": statistics.median(c.setup_s for c in ran),
        "write_ref_s": statistics.median(c.write_s * c.to_ref for c in ran),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "makespan_cycles": ran[0].makespan,
        "total_energy": ran[0].total_energy,
    }


# Per-layer metrics in seconds end in one of these; all others are exact.
TIME_SUFFIXES = ("_s", ".s")

# Spans reported as ``<name>.calls`` and ``<name>.s``.
COUNTED_SPANS = (
    "sim.link_schedule.earliest_start",
    "sim.link_schedule.reserve",
    "heuristics.place",
    "heuristics.place_initial",
    "routing.xy_route.tentative",
    "routing.xy_route.pinned",
    "routing.min_load_route.tentative",
    "routing.min_load_route.pinned",
    "routing.path_cost.tentative",
    "model.ledger.add_path",
    "model.ledger.remove_path",
    "model.ledger.scan",
    "model.state.place",
    "model.state.apply_route",
    "model.state.remove_route",
    "model.state.release_app",
)

# Spans reported as their time per call, ``<name>_s``.
TIMED_SPANS = (
    "workload.generate",
    "workload.serialize",
    "workload.parse",
    "workload.write_report",
    "sim.write_event_log",
)


def layer_metrics(summary: dict[str, dict[str, float]], call: Call) -> dict[str, float]:
    """Per-layer metrics of one traced call from its span summary and outputs.

    Span times are in reference seconds, like the end-to-end times.
    """

    def get(name: str, key: str) -> float:
        value = summary.get(name, {}).get(key, 0)
        return value if key == "calls" or key == "found" else value * call.to_ref

    m: dict[str, float] = {}
    for name in COUNTED_SPANS:
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
    for name in TIMED_SPANS:
        m[f"{name}_s"] = get(name, "s") / get(name, "calls")
    place_calls = get("heuristics.place", "calls")
    m["heuristics.place.self_s"] = get("heuristics.place", "self_s")
    m["heuristics.place.found_ratio"] = get("heuristics.place", "found") / place_calls if place_calls else 0.0
    m["heuristics.candidates_examined"] = call.evaluations
    m["sim.engine.self_s"] = get("sim.simulate", "self_s")
    st = call.stats
    m["sim.events"] = st.rows
    m["sim.events.map_deferred"] = st.kinds["map_deferred"]
    m["sim.admission.queue_wait_mean_cycles"] = st.queue_wait_mean_cycles
    m["sim.link.wait_cycles"] = st.link_wait_cycles
    m["sim.link.conflict_ratio"] = st.conflict_ratio
    return m


def run_traced(w: Workload, seed: int, seconds: float, out: Path) -> tuple[list[Call], dict[str, float]]:
    plain: list[Call] = []
    traced: list[tuple[Call, dict]] = []
    last: list[spans.Tracer] = []

    def pair() -> None:
        plain.append(attempt(lambda: simulate_and_check(w, seed, out)))
        with spans.Tracer() as tr:
            call = attempt(lambda: simulate_and_check(w, seed, out, tr))
        traced.append((call, tr.summary()))
        last[:] = [tr]

    repeat_for(seconds, pair)
    spans.assert_restored()
    last[0].write(str(out / "spans.csv"))
    calls = plain + [c for c, _ in traced]
    # Tracing must not change behaviour: every call writes the same event log.
    for c in calls:
        if c.digest != calls[0].digest:
            c.problems.append("event log differs between traced and untraced calls")
    ran = [(c, summary) for c, summary in traced if c.stats is not None]
    ran_plain = [c for c in plain if c.stats is not None]
    if not ran or not ran_plain:
        return calls, {}
    per_call = [layer_metrics(summary, c) for c, summary in ran]
    metrics = {}
    for name in per_call[0]:
        values = [m[name] for m in per_call]
        metrics[name] = statistics.median(values)
        # Times vary from call to call; counts and modelled values may not.
        if not name.endswith(TIME_SUFFIXES) and len(set(values)) > 1:
            ran[0][0].problems.append(f"{name} differs between traced calls: {sorted(set(values))}")
    metrics["trace.overhead_s"] = statistics.median(c.wall_s * c.to_ref for c, _ in ran) - statistics.median(
        c.wall_s * c.to_ref for c in ran_plain
    )
    return calls, metrics


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    w = WORKLOADS[args.workload]
    out = HERE / "out" / w.name
    out.mkdir(parents=True, exist_ok=True)
    run = run_traced if args.trace else run_plain
    calls, metrics = run(w, args.seed, args.seconds, out)
    failed = sum(1 for c in calls if c.problems)
    for c in calls:
        for problem in c.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        print(f"error: no value for {len(missing)} declared metrics, e.g. {missing[:3]}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"failed_ratio = {failed}/{len(calls)} calls ({w.name}, seed {args.seed})")
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
