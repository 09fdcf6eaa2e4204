import pytest

from nocmap.model import TaskKind, ValidationError
from nocmap.sim import Scenario, simulate
from nocmap.workload import (
    GenConfig,
    REPORT_HEADER,
    generate_workload,
    parse_workload,
    parse_workload_file,
    read_report,
    serialize_workload,
    write_report,
    write_workload,
)

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
