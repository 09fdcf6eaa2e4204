import json
import time
from functools import partial
from hashlib import sha256

import pytest

from nocmap import cli
from nocmap.cli import main
from nocmap.model import TileKind
from nocmap.oracles import CheckResult, check_routing
from nocmap.sim import _Engine
from nocmap.workload import parse_workload_file, read_report


def run_cli(*args):
    return main(list(args))


class TestGenerate:
    def test_writes_requested_apps(self, tmp_path, capsys):
        out = tmp_path / "w.xml"
        assert run_cli("generate", "--apps", "10", "--seed", "1", "--out", str(out)) == 0
        text = out.read_text(encoding="utf-8")
        assert text.count("<application ") == 10
        assert "wrote 10 applications" in capsys.readouterr().out

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.xml"
        b = tmp_path / "b.xml"
        run_cli("generate", "--apps", "5", "--seed", "7", "--out", str(a))
        run_cli("generate", "--apps", "5", "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_apps_is_usage_error(self, tmp_path, capsys):
        rc = run_cli("generate", "--apps", "0", "--seed", "1", "--out", str(tmp_path / "w.xml"))
        assert rc == 1
        assert "usage error" in capsys.readouterr().err


@pytest.fixture
def workload(tmp_path):
    path = tmp_path / "w.xml"
    run_cli("generate", "--apps", "3", "--seed", "1", "--out", str(path))
    return path


class TestRun:
    def test_single_row_report(self, tmp_path, workload):
        out = tmp_path / "r.csv"
        rc = run_cli("run", "--workload", str(workload), "--heuristic", "spiral",
                     "--seed", "1", "--out", str(out))
        assert rc == 0
        rows = read_report(str(out))
        assert len(rows) == 1
        assert rows[0]["heuristic"] == "spiral"

    def test_unknown_heuristic_lists_valid_names(self, tmp_path, workload, capsys):
        rc = run_cli("run", "--workload", str(workload), "--heuristic", "bogus",
                     "--out", str(tmp_path / "r.csv"))
        assert rc == 1
        err = capsys.readouterr().err
        for name in ("ff", "mmc", "mac", "nn", "pl", "bn", "spiral"):
            assert name in err

    def test_missing_workload_is_io_error(self, tmp_path, capsys):
        rc = run_cli("run", "--workload", str(tmp_path / "absent.xml"),
                     "--heuristic", "nn", "--out", str(tmp_path / "r.csv"))
        assert rc == 2

    def test_invalid_workload_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<workload version='1'><application id='a'>"
                       "<task id='t0' kind='initial' instructions='100'/>"
                       "<task id='t1' kind='initial' instructions='100'/>"
                       "<edge master='t0' slave='t1' vms='1' vsm='1'/>"
                       "</application></workload>")
        rc = run_cli("run", "--workload", str(bad), "--heuristic", "nn",
                     "--out", str(tmp_path / "r.csv"))
        assert rc == 3
        assert "multiple roots" in capsys.readouterr().err

    def test_events_flag_writes_log(self, tmp_path, workload):
        out = tmp_path / "r.csv"
        events = tmp_path / "e.csv"
        rc = run_cli("run", "--workload", str(workload), "--heuristic", "nn",
                     "--out", str(out), "--events", str(events))
        assert rc == 0
        lines = events.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "cycle,kind,app,task,location,detail"
        assert len(lines) > 10

    def test_byte_identical_outputs(self, tmp_path, workload):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            run_cli("run", "--workload", str(workload), "--heuristic", "spiral",
                    "--out", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_check_flag_keeps_outputs(self, tmp_path, workload):
        outs = []
        for extra in ((), ("--check",)):
            out, events = tmp_path / f"r{len(extra)}.csv", tmp_path / f"e{len(extra)}.csv"
            rc = run_cli("run", "--workload", str(workload), "--heuristic", "mmc",
                         "--out", str(out), "--events", str(events), *extra)
            assert rc == 0
            outs.append((out.read_bytes(), events.read_bytes()))
        assert outs[0] == outs[1]

    def test_broken_invariant_is_exit_4(self, tmp_path, workload, capsys, monkeypatch):
        real_housekeeping = _Engine._housekeeping

        def corrupting_housekeeping(self, t):
            real_housekeeping(self, t)
            self.free[TileKind.RA] += 1

        monkeypatch.setattr(_Engine, "_housekeeping", corrupting_housekeeping)
        rc = run_cli("run", "--workload", str(workload), "--heuristic", "nn",
                     "--out", str(tmp_path / "r.csv"), "--check")
        assert rc == 4
        assert capsys.readouterr().err.startswith("invariant failed: free: ")

    def test_hardware_workload_on_isp_only_mesh_rejected(self, tmp_path, capsys):
        w = tmp_path / "w.xml"
        w.write_text("<workload version='1'><application id='a'>"
                     "<task id='t0' kind='initial' instructions='100'/>"
                     "<task id='t1' kind='hardware' instructions='100'/>"
                     "<edge master='t0' slave='t1' vms='1' vsm='1'/>"
                     "</application></workload>")
        rc = run_cli("run", "--workload", str(w), "--heuristic", "nn",
                     "--width", "4", "--height", "4", "--out", str(tmp_path / "r.csv"))
        assert rc == 3

    def test_layout_file(self, tmp_path):
        layout = tmp_path / "mesh.json"
        layout.write_text(json.dumps(
            {"width": 4, "height": 4, "manager": [0, 0], "ra": [[1, 1], [2, 2]]}
        ))
        w = tmp_path / "w.xml"
        w.write_text("<workload version='1'><application id='a'>"
                     "<task id='t0' kind='initial' instructions='100'/>"
                     "<task id='t1' kind='hardware' instructions='100'/>"
                     "<edge master='t0' slave='t1' vms='10' vsm='10'/>"
                     "</application></workload>")
        rc = run_cli("run", "--workload", str(w), "--heuristic", "spiral",
                     "--layout-file", str(layout), "--out", str(tmp_path / "r.csv"))
        assert rc == 0

    def test_layout_file_bad_width(self, tmp_path, workload):
        layout = tmp_path / "mesh.json"
        layout.write_text(json.dumps({"width": "abc", "height": 4}))
        rc = run_cli("run", "--workload", str(workload), "--heuristic", "nn",
                     "--layout-file", str(layout), "--out", str(tmp_path / "r.csv"))
        assert rc == 3

    @pytest.mark.parametrize("width", [4.7, True])
    def test_layout_file_non_integer_width(self, tmp_path, workload, capsys, width):
        layout = tmp_path / "mesh.json"
        layout.write_text(json.dumps({"width": width, "height": 4, "ra": [[1, 1], [2, 2]]}))
        t0 = time.time()
        rc = run_cli("run", "--workload", str(workload), "--heuristic", "nn",
                     "--layout-file", str(layout), "--out", str(tmp_path / "r.csv"))
        assert rc == 3 and time.time() - t0 < 1
        assert "mesh width must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("layout", [{"manager": [True, 0]}, {"ra": [[1, 1], [2.0, 2]]}])
    def test_layout_file_non_integer_tile(self, tmp_path, workload, capsys, layout):
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps({"width": 4, "height": 4, **layout}))
        rc = run_cli("run", "--workload", str(workload), "--heuristic", "nn",
                     "--layout-file", str(path), "--out", str(tmp_path / "r.csv"))
        assert rc == 3
        assert "outside the" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["65", "100000"])
    def test_mesh_over_size_cap(self, tmp_path, workload, capsys, width):
        t0 = time.time()
        rc = run_cli("run", "--workload", str(workload), "--heuristic", "nn",
                     "--width", width, "--out", str(tmp_path / "r.csv"))
        assert rc == 3 and time.time() - t0 < 1
        assert "between 1 and 64" in capsys.readouterr().err


class TestCompare:
    def test_row_counts_and_summary(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = run_cli("compare", "--apps", "2", "--heuristics", "spiral,nn,bn",
                     "--seeds", "2", "--out", str(out))
        assert rc == 0
        rows = read_report(str(out))
        assert len(rows) == 6
        summary = capsys.readouterr().out.strip().splitlines()
        assert len(summary) == 3

    def test_summary_means_match_csv(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        run_cli("compare", "--apps", "2", "--heuristics", "spiral,nn",
                "--seeds", "3", "--out", str(out))
        printed = {}
        for line in capsys.readouterr().out.strip().splitlines():
            fields = line.split()
            printed[fields[0]] = {
                kv.split("=")[0]: float(kv.split("=")[1]) for kv in fields[1:]
            }
        rows = read_report(str(out))
        for h in ("spiral", "nn"):
            sub = [r for r in rows if r["heuristic"] == h]
            assert printed[h]["runs"] == len(sub)
            assert printed[h]["makespan"] == sum(r["makespan_cycles"] for r in sub) / len(sub)
            assert printed[h]["total_energy"] == sum(r["total_energy"] for r in sub) / len(sub)

    def test_degenerate_single_cell(self, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = run_cli("compare", "--apps", "1", "--heuristics", "ff", "--seeds", "1",
                     "--out", str(out))
        assert rc == 0
        assert len(read_report(str(out))) == 1

    def test_fixed_workload_mode(self, tmp_path, workload):
        out = tmp_path / "cmp.csv"
        rc = run_cli("compare", "--workload", str(workload), "--heuristics", "nn",
                     "--seeds", "2", "--out", str(out))
        assert rc == 0
        rows = read_report(str(out))
        assert len(rows) == 2
        assert rows[0]["makespan_cycles"] == rows[1]["makespan_cycles"]

    def test_workload_file_parsed_once(self, tmp_path, workload, capsys, monkeypatch):
        """``--workload`` is read once for all seeds; the CSV and stdout bytes
        are those of reading it once per seed."""
        calls = []

        def counting_parse(path):
            calls.append(path)
            return parse_workload_file(path)

        monkeypatch.setattr(cli, "parse_workload_file", counting_parse)
        out = tmp_path / "cmp.csv"
        rc = run_cli("compare", "--workload", str(workload), "--heuristics", "spiral,nn,ff",
                     "--seeds", "3", "--out", str(out))
        assert rc == 0
        assert calls == [str(workload)]
        stdout = capsys.readouterr().out.encode("utf-8")
        assert sha256(out.read_bytes()).hexdigest() == (
            "db7d9ef00e157ba005f777f1f85c2ee1f60995f9911e4212bac8d4d9db7e6e31"
        )
        assert sha256(stdout).hexdigest() == (
            "63016a85ee6cf231d196f806a2939e6dbb5734dc0179a687e3793b82b10d7da8"
        )

    def test_apps_and_workload_together_is_usage_error(self, tmp_path, workload):
        rc = run_cli("compare", "--apps", "2", "--workload", str(workload),
                     "--heuristics", "nn", "--out", str(tmp_path / "c.csv"))
        assert rc == 1

    def test_empty_heuristic_list_is_usage_error(self, tmp_path):
        rc = run_cli("compare", "--apps", "2", "--heuristics", ",",
                     "--out", str(tmp_path / "c.csv"))
        assert rc == 1
        assert not (tmp_path / "c.csv").exists()

    def test_unknown_heuristic_in_list(self, tmp_path, capsys):
        rc = run_cli("compare", "--apps", "2", "--heuristics", "nn,bogus",
                     "--out", str(tmp_path / "c.csv"))
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    def test_pinned_digests(self, tmp_path, capsys):
        """The CSV and stdout of a small sweep, pinned by SHA-256."""
        out = tmp_path / "cmp.csv"
        rc = run_cli("compare", "--apps", "2", "--heuristics", "spiral,nn,bn",
                     "--seeds", "2", "--out", str(out))
        assert rc == 0
        stdout = capsys.readouterr().out.encode("utf-8")
        assert sha256(out.read_bytes()).hexdigest() == (
            "ad48c95afb87976e03743173f44d515747eb6227a8263439816540dcbd57b7d7"
        )
        assert sha256(stdout).hexdigest() == (
            "fe83ded5c4eeeebff95487b2972efe75e5a9bcbcb13fec3871a3447d529b9ebc"
        )

    def test_byte_identical_outputs(self, tmp_path):
        outs = []
        for name in ("c1.csv", "c2.csv"):
            out = tmp_path / name
            run_cli("compare", "--apps", "2", "--heuristics", "spiral,nn",
                    "--seeds", "2", "--out", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestVerify:
    def test_spiral_suite_passes(self, capsys):
        assert run_cli("verify", "--suite", "spiral") == 0
        out = capsys.readouterr().out
        assert "suite spiral: 64 checks, 0 failures" in out

    def test_placement_suite_passes(self, capsys):
        assert run_cli("verify", "--suite", "placement") == 0
        assert "suite placement: 300 checks, 0 failures" in capsys.readouterr().out

    def test_routing_suite_passes_reduced(self, capsys, monkeypatch):
        # The full routing suite runs as acceptance criterion 1; 4 ledgers
        # keep this run short.
        monkeypatch.setattr(cli, "check_routing", partial(check_routing, 4))
        assert run_cli("verify", "--suite", "routing") == 0
        assert "suite routing: 1296 checks, 0 failures" in capsys.readouterr().out

    def test_injected_fault_is_caught(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_routing", lambda: CheckResult(3, 1, "bad path"))
        assert run_cli("verify", "--suite", "routing") == 4
        out = capsys.readouterr().out
        assert "counterexample: bad path" in out
        assert "suite routing: 3 checks, 1 failures" in out

    def test_hidden_size_flags_are_gone(self, capsys):
        assert run_cli("verify", "--suite", "routing", "--routing-ledgers", "0") == 1

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run_cli("verify", "--suite", "nonsense") == 1
