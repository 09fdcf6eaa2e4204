import re
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocmap.model import Edge, Task, TaskGraph, TaskKind, ValidationError
from nocmap.sim import Scenario, simulate
from nocmap.workload import (
    GenConfig,
    REPORT_HEADER,
    generate_workload,
    parse_workload,
    parse_workload_file,
    serialize_workload,
    write_report,
    write_workload,
)

from conftest import read_report

SAMPLE = """\
<workload version="1">
  <application id="app0">
    <task id="t0" kind="initial" instructions="100"/>
    <task id="t1" kind="software" instructions="100"/>
    <task id="t2" kind="hardware" instructions="100"/>
    <edge master="t0" slave="t1" vms="100" vsm="100"/>
    <edge master="t1" slave="t2" vms="100" vsm="100"/>
  </application>
</workload>
"""


class TestParseWorkload:
    def test_sample_transcription(self):
        apps = parse_workload(SAMPLE)
        assert len(apps) == 1
        g = apps[0]
        assert g.app_id == "app0"
        kinds = [t.kind for t in g.tasks]
        assert kinds == [TaskKind.INITIAL, TaskKind.SOFTWARE, TaskKind.HARDWARE]
        assert len(g.edges) == 2
        assert g.edges[0].vms == g.edges[0].vsm == 100

    def test_cycle_reported(self):
        bad = SAMPLE.replace(
            '<edge master="t1" slave="t2" vms="100" vsm="100"/>',
            '<edge master="t1" slave="t2" vms="100" vsm="100"/>'
            '<edge master="t2" slave="t1" vms="100" vsm="100"/>',
        )
        with pytest.raises(ValidationError, match="cyclic graph"):
            parse_workload(bad)

    def test_multiple_roots_reported(self):
        bad = SAMPLE.replace('kind="software"', 'kind="initial"')
        with pytest.raises(ValidationError, match="multiple roots"):
            parse_workload(bad)

    def test_dangling_reference_reported(self):
        bad = SAMPLE.replace('slave="t2"', 'slave="tX"')
        with pytest.raises(ValidationError, match="unknown task"):
            parse_workload(bad)

    def test_negative_volume_reported(self):
        bad = SAMPLE.replace('vms="100" vsm="100"/>', 'vms="-5" vsm="100"/>', 1)
        with pytest.raises(ValidationError, match="non-negative"):
            parse_workload(bad)

    @pytest.mark.parametrize("attr", ["instructions", "vms", "vsm"])
    @pytest.mark.parametrize(
        "raw",
        [" +1_0", "+10", "1_0", " 10", "10 ", "10\u00a0", "010", "00", "-0", "-010",
         "\u0665", "\uff11\uff10", "10.0", "1e1", "0x10", "", "-", "\u221210"],
    )
    def test_non_canonical_integer_rejected(self, raw, attr):
        """Only the strings ``str(int)`` writes are integers: a spelling
        ``int()`` also reads (sign, space, underscore, leading zero,
        non-ASCII digit) would re-serialize to other bytes."""
        bad = SAMPLE.replace(f'{attr}="100"', f'{attr}="{raw}"', 1)
        with pytest.raises(ValidationError, match=f"attribute {attr}=.* is not an integer"):
            parse_workload(bad)

    @pytest.mark.parametrize(
        "attr, message", [("instructions", ">= 1"), ("vms", "non-negative"), ("vsm", "non-negative")]
    )
    def test_negative_integer_reaches_range_check(self, attr, message):
        with pytest.raises(ValidationError, match=message):
            parse_workload(SAMPLE.replace(f'{attr}="100"', f'{attr}="-5"', 1))

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["instructions", "vms", "vsm"]),
        st.one_of(
            st.integers(-5, 10**20).map(str),
            st.text(alphabet="0123456789-+_ \u0665", max_size=6),
        ),
    )
    def test_accepted_documents_reserialize_to_their_bytes(self, attr, raw):
        """Whatever integer spelling parses, the document it is in
        serializes back to the same bytes."""
        doc = SAMPLE.replace(f'{attr}="100"', f'{attr}="{raw}"', 1)
        try:
            apps = parse_workload(doc)
        except ValidationError:
            return
        assert serialize_workload(apps) == doc

    def test_malformed_xml_reports_line(self):
        with pytest.raises(ValidationError, match="line"):
            parse_workload(SAMPLE.replace("</workload>", ""))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown kind"):
            parse_workload(SAMPLE.replace('kind="software"', 'kind="firmware"'))

    def test_unknown_element_rejected(self):
        bad = SAMPLE.replace("</application>", "<blob/></application>")
        with pytest.raises(ValidationError, match="unexpected element"):
            parse_workload(bad)

    def test_wrong_version_rejected(self):
        with pytest.raises(ValidationError, match="version"):
            parse_workload(SAMPLE.replace('version="1"', 'version="2"'))

    def test_empty_workload_rejected(self):
        with pytest.raises(ValidationError):
            parse_workload('<workload version="1"></workload>')


class TestRoundTrip:
    def test_sample_round_trip(self):
        apps = parse_workload(SAMPLE)
        text = serialize_workload(apps)
        assert parse_workload(text) == apps
        assert serialize_workload(parse_workload(text)) == text

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_round_trip(self, seed):
        apps = generate_workload(GenConfig(app_count=4, seed=seed))
        text = serialize_workload(apps)
        assert parse_workload(text) == apps

    def test_file_round_trip(self, tmp_path):
        apps = generate_workload(GenConfig(app_count=3, seed=5))
        path = tmp_path / "w.xml"
        write_workload(apps, str(path))
        assert parse_workload_file(str(path)) == apps
        assert "\r" not in path.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "special",
        ["&", "<", ">", '"', "'", "\n", "\r", "\t", "\"'", "a'b\"c", "&amp;", "]]>", " x ", "\x7f", "é", "\U0001f600"],
    )
    def test_special_ids_round_trip(self, special):
        """Ids holding characters ``quoteattr`` escapes, or both quote kinds,
        round-trip and give the bytes of a writer that quotes every
        attribute with ``quoteattr``."""
        apps = [_two_task_app(f"app{special}", f"t{special}"), _two_task_app(special, "t1")]
        text = serialize_workload(apps)
        assert text == _quoteattr_everywhere(apps)
        assert parse_workload(text) == apps
        assert parse_workload(text.encode("utf-8")) == apps

    def test_generated_bytes_match_quoteattr_writer(self):
        apps = generate_workload(GenConfig(app_count=20, tasks_min=1, tasks_max=15, seed=9))
        assert serialize_workload(apps) == _quoteattr_everywhere(apps)

    @pytest.mark.parametrize("bad", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"])
    @pytest.mark.parametrize("where", ["app", "task", "edge"])
    def test_id_outside_xml_chars_rejected(self, bad, where):
        """A character outside XML 1.0's ``Char`` production cannot be
        written, escaped or not, so the writer names the application and
        the id instead of writing a document the parser refuses."""
        bad_id = f"a{bad}b"
        if where == "app":
            app = _two_task_app(bad_id, "t1")
        elif where == "task":
            app = TaskGraph("app0", [Task("t0", TaskKind.INITIAL, 1), Task(bad_id, TaskKind.SOFTWARE, 1)],
                            [Edge("t0", bad_id, 1, 1)])
        else:
            app = _two_task_app("app0", bad_id)
        message = f"application {app.app_id!r}: id {bad_id!r} has a character XML 1.0 cannot represent"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            serialize_workload([_two_task_app("ok", "t1"), app])

    @pytest.mark.parametrize("shape", ["chain", "star"])
    def test_large_application_round_trips(self, shape):
        """One 20,000-task application: validation, writing and parsing are
        linear in its size, so this takes well under a second; a validator
        that rescans every edge per task would take minutes."""
        n = 20_000
        tasks = [Task("t0", TaskKind.INITIAL, 1)] + [Task(f"t{i}", TaskKind.SOFTWARE, 1) for i in range(1, n)]
        masters = range(n - 1) if shape == "chain" else [0] * (n - 1)
        edges = [Edge(f"t{m}", f"t{i}", 1, 1) for i, m in enumerate(masters, start=1)]
        apps = [TaskGraph("big", tasks, edges)]
        back = parse_workload(serialize_workload(apps))
        assert back == apps
        g = back[0]
        assert g.initial.id == "t0"
        if shape == "star":
            assert [e.stid for e in g.outgoing("t0")] == sorted(f"t{i}" for i in range(1, n))
        else:
            assert [e.stid for e in g.outgoing("t0")] == ["t1"]
            assert [e.mtid for e in g.incoming(f"t{n - 1}")] == [f"t{n - 2}"]


def _two_task_app(app_id, tid):
    return TaskGraph(app_id, [Task("t0", TaskKind.INITIAL, 7), Task(tid, TaskKind.HARDWARE, 8)],
                     [Edge("t0", tid, 0, 9)])


def _quoteattr_everywhere(apps):
    """Reference writer: every attribute through ``quoteattr``."""
    lines = [f"<workload version={quoteattr('1')}>"]
    for g in apps:
        lines.append(f"  <application id={quoteattr(g.app_id)}>")
        for t in g.tasks:
            lines.append(
                f"    <task id={quoteattr(t.id)} kind={quoteattr(t.kind.value)} "
                f"instructions={quoteattr(str(t.instructions))}/>"
            )
        for e in g.edges:
            lines.append(
                f"    <edge master={quoteattr(e.mtid)} slave={quoteattr(e.stid)} "
                f"vms={quoteattr(str(e.vms))} vsm={quoteattr(str(e.vsm))}/>"
            )
        lines.append("  </application>")
    lines.append("</workload>")
    return "\n".join(lines) + "\n"


class TestGenerateWorkload:
    def test_deterministic(self):
        a = generate_workload(GenConfig(app_count=10, seed=42))
        b = generate_workload(GenConfig(app_count=10, seed=42))
        assert a == b
        assert serialize_workload(a) == serialize_workload(b)

    def test_seed_changes_output(self):
        assert generate_workload(GenConfig(app_count=10, seed=1)) != generate_workload(
            GenConfig(app_count=10, seed=2)
        )

    @pytest.mark.parametrize("seed", range(50))
    def test_respects_bounds(self, seed):
        cfg = GenConfig(app_count=3, seed=seed)
        for g in generate_workload(cfg):
            assert cfg.tasks_min <= len(g.tasks) <= cfg.tasks_max
            assert g.tasks[0].kind is TaskKind.INITIAL
            for t in g.tasks:
                assert t.instructions == cfg.instructions
            for e in g.edges:
                assert (e.vms, e.vsm) == (cfg.vms, cfg.vsm)
            # exactly one master per non-root task: a tree
            assert len(g.edges) == len(g.tasks) - 1

    def test_zero_hw_probability_means_no_hardware(self):
        cfg = GenConfig(app_count=50, seed=9, hw_task_probability=0.0)
        for g in generate_workload(cfg):
            assert all(t.kind is not TaskKind.HARDWARE for t in g.tasks)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            GenConfig(app_count=0).validate()
        with pytest.raises(ValidationError):
            GenConfig(app_count=1, tasks_min=5, tasks_max=4).validate()
        with pytest.raises(ValidationError):
            GenConfig(app_count=1, hw_task_probability=1.5).validate()

    @pytest.mark.parametrize(
        "field,value",
        [("app_count", 2.0), ("tasks_min", 1.5), ("tasks_max", "9"), ("vms", True),
         ("vsm", 0.5), ("instructions", None), ("seed", "x")],
    )
    def test_non_integer_field_rejected(self, field, value):
        cfg = GenConfig(**{"app_count": 2, "tasks_max": 3, field: value})
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            generate_workload(cfg)


class TestReportCsv:
    def _reports(self, heuristics=("spiral", "nn", "bn"), seeds=(1, 2)):
        reports = []
        for seed in seeds:
            apps = generate_workload(GenConfig(app_count=2, seed=seed))
            for h in heuristics:
                reports.append(simulate(Scenario(apps=apps, heuristic=h, seed=seed)))
        return reports

    def test_row_and_header_counts(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(self._reports(), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 6
        assert lines[0] == ",".join(REPORT_HEADER)

    def test_byte_identical_rewrite(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_report(self._reports(), str(a))
        write_report(self._reports(), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_values(self, tmp_path):
        reports = self._reports()
        path = tmp_path / "r.csv"
        write_report(reports, str(path))
        rows = read_report(str(path))
        by_key = {(r.heuristic, r.seed): r for r in reports}
        assert len(rows) == len(reports)
        for row in rows:
            r = by_key[(row["heuristic"], row["seed"])]
            assert row["makespan_cycles"] == r.makespan
            assert row["total_energy"] == r.total_energy
            assert row["energy_compute"] == r.energy_compute
            assert row["energy_comm"] == r.energy_comm
            assert row["peak_link_load"] == r.peak_link_load
            assert row["avg_link_load"] == r.avg_link_load
            assert row["mapping_evaluations"] == r.mapping_evaluations
            assert row["max_queue_wait"] == r.max_queue_wait

    def test_rows_sorted_by_heuristic_then_seed(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(self._reports(), str(path))
        rows = read_report(str(path))
        keys = [(r["heuristic"], r["seed"]) for r in rows]
        assert keys == sorted(keys)

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_report([], str(tmp_path / "r.csv"))

    def test_non_integer_cell_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(self._reports(heuristics=("nn",), seeds=(1,)), str(path))
        header, row = path.read_text(encoding="utf-8").splitlines()
        cells = row.split(",")
        cells[REPORT_HEADER.index("makespan_cycles")] = "12x"
        path.write_text(f"{header}\n{','.join(cells)}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"r\.csv line 2: column makespan_cycles: '12x'"):
            read_report(str(path))
