"""Output checks on the files a run writes: the report CSV and the event log.

The checks hold for any seed.  For ``DEFAULT_SEED`` the files must also
match, byte for byte, the SHA-256 digests in ``GOLDEN``, which were recorded
from the simulator at the commit that introduced this benchmark.  A change
meant only to make the simulator faster must leave them unchanged.
"""
from __future__ import annotations

import csv
import hashlib
from collections import Counter
from dataclasses import dataclass, field

DEFAULT_SEED = 1

# workload -> (report CSV digest, event log digest) for DEFAULT_SEED.  The
# ff and pl pairs equal what ``nocmap generate --seed 1`` followed by
# ``nocmap run --seed 1 --events`` writes for the same heuristic and platform.
GOLDEN = {
    "ff-8x8-long": (
        "52ef4014fc694a6f02188ec330d83b82a158142ef4d134bb9319defe8965db4c",
        "fa72646e295867f85df40a3ac7ba4d633fda233c1184d256c87bf0ce2a1fea57",
    ),
    "mmc-16x16": (
        "a1cfe31ae2efffb6bec08cff5a3f7c4bfbb33133330d9902ae057a7da836f3b6",
        "fb4c996429bcd579ebe0eb5feec380eb8357750aec477d090372e7122805b52d",
    ),
    "pl-16x16": (
        "5bfd0170a63557326ad6530f5dad3f2883806cf3d8876e144556382d3d624481",
        "ca042ffc85c8f22950a9ff766d3d2cc27fa478a7fa963bc18e3ff41284f9739c",
    ),
    "spiral-16x16-arrivals": (
        "c77ea6935106aeea95e2bd4be46ccc13de5e40e821d1454711223ad5303114c9",
        "a7bf86101acfa4ed8f9a84314792bb6a575b37fb121c065ccbfa79cecc6df48e",
    ),
}


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class EventStats:
    """What one pass over an event log yields, for checks and metrics."""

    rows: int = 0
    kinds: Counter = field(default_factory=Counter)
    energy_compute: int = 0
    energy_comm: int = 0
    app_done: Counter = field(default_factory=Counter)
    negative_waits: int = 0
    admit_wait_cycles: int = 0
    link_wait_cycles: int = 0
    comm_starts_waited: int = 0

    @property
    def queue_wait_mean_cycles(self) -> float:
        return self.admit_wait_cycles / self.kinds["admit"] if self.kinds["admit"] else 0.0

    @property
    def conflict_ratio(self) -> float:
        starts = self.kinds["comm_start"]
        return self.comm_starts_waited / starts if starts else 0.0


def scan_event_log(path: str) -> EventStats:
    """Read an event log CSV; raises ValueError or KeyError if malformed."""
    st = EventStats()
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            kind = row["kind"]
            detail = dict(kv.split("=", 1) for kv in (row["detail"] or "").split(";") if kv)
            st.rows += 1
            st.kinds[kind] += 1
            if kind == "compute_end":
                st.energy_compute += int(detail["energy"])
            elif kind == "comm_end":
                st.energy_comm += int(detail["energy"])
            elif kind == "comm_start":
                wait = int(detail["wait"])
                st.negative_waits += wait < 0
                st.link_wait_cycles += wait
                st.comm_starts_waited += wait > 0
            elif kind == "admit":
                st.admit_wait_cycles += int(detail["wait"])
            elif kind == "app_done":
                st.app_done[row["app"]] += 1
    return st


def read_report_row(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"report has {len(rows)} rows, expected 1")
    return rows[0]


def check_outputs(report_path: str, events_path: str, app_ids: list[str]) -> tuple[list[str], EventStats | None]:
    """Problems found in one run's outputs (empty when they are correct)."""
    try:
        row = read_report_row(report_path)
        st = scan_event_log(events_path)
        compute, comm, total = (int(row[k]) for k in ("energy_compute", "energy_comm", "total_energy"))
    except (KeyError, ValueError) as exc:
        return [f"malformed output: {exc!r}"], None
    problems = []
    not_done = [a for a in app_ids if st.app_done[a] != 1]
    if not_done:
        problems.append(f"{len(not_done)} apps without exactly one app_done, e.g. {not_done[0]}")
    if set(st.app_done) - set(app_ids):
        problems.append("app_done for an unknown app")
    if compute != st.energy_compute:
        problems.append(f"energy_compute {compute} != {st.energy_compute} summed from the event log")
    if comm != st.energy_comm:
        problems.append(f"energy_comm {comm} != {st.energy_comm} summed from the event log")
    if total != compute + comm:
        problems.append(f"total_energy {total} != energy_compute + energy_comm")
    if st.negative_waits:
        problems.append(f"{st.negative_waits} comm_start rows with wait < 0")
    return problems, st


def check_golden(workload: str, seed: int, report_path: str, events_path: str) -> list[str]:
    """Digest mismatches against GOLDEN; empty for seeds other than DEFAULT_SEED."""
    if seed != DEFAULT_SEED:
        return []
    want = GOLDEN[workload]
    got = (sha256_file(report_path), sha256_file(events_path))
    return [
        f"{what} digest {g[:12]} != golden {w[:12]}"
        for what, g, w in zip(("report", "event log"), got, want)
        if g != w
    ]
