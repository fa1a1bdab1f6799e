"""CLI subcommand tests (driven through main() with captured stdout)."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestCircuits:
    def test_lists_registry(self, capsys):
        code, out, _err = run(capsys, "circuits")
        assert code == 0
        assert "c17" in out
        assert "gates" in out


class TestStats:
    def test_registered_circuit(self, capsys):
        code, out, _err = run(capsys, "stats", "c17")
        assert code == 0
        assert "gates: 6" in out.replace("  ", " ").replace("gates:  ", "gates: ") or "6" in out

    def test_bench_file(self, capsys, tmp_path):
        from repro.circuit.bench import C17_BENCH

        path = tmp_path / "mine.bench"
        path.write_text(C17_BENCH)
        code, out, _err = run(capsys, "stats", str(path))
        assert code == 0
        assert "6" in out


class TestAtpg:
    def test_atpg_reports_coverage(self, capsys):
        code, out, _err = run(capsys, "atpg", "c17", "--seed", "3")
        assert code == 0
        assert "coverage" in out
        assert "0 skipped); PODEM work 0 of 3,000,000 implications" in out


class TestInjectAndDiagnose:
    def test_pipeline(self, capsys, tmp_path):
        log = tmp_path / "fail.log"
        code, _out, err = run(
            capsys, "inject", "rca4", "-k", "1", "--seed", "4", "-o", str(log)
        )
        assert code == 0
        assert log.exists()
        assert "injected" in err

        code, out, _err = run(capsys, "diagnose", "rca4", str(log))
        assert code == 0
        assert "diagnosis[xcover]" in out

    def test_inject_to_stdout(self, capsys):
        code, out, _err = run(capsys, "inject", "rca4", "-k", "1", "--seed", "4")
        assert code == 0
        assert "datalog" in out

    @pytest.mark.parametrize("method", ["slat", "single"])
    def test_alternative_methods(self, capsys, tmp_path, method):
        log = tmp_path / "fail.log"
        run(capsys, "inject", "rca4", "-k", "1", "--seed", "4", "-o", str(log))
        code, out, _err = run(
            capsys, "diagnose", "rca4", str(log), "--method", method
        )
        assert code == 0
        assert "diagnosis[" in out


class TestCampaignCommand:
    def test_small_campaign(self, capsys):
        code, out, _err = run(
            capsys,
            "campaign",
            "rca4",
            "-k",
            "1",
            "-n",
            "2",
            "--methods",
            "xcover,slat",
        )
        assert code == 0
        assert "recall" in out
        assert "xcover" in out


class TestTimingCommand:
    def test_timing_profile(self, capsys):
        code, out, _err = run(capsys, "timing", "rca4")
        assert code == 0
        assert "critical path" in out
        assert "slack" in out


class TestNDetectOption:
    def test_atpg_n_detect(self, capsys):
        code, out, _err = run(capsys, "atpg", "c17", "--n-detect", "2")
        assert code == 0
        assert ">= 2 times" in out


class TestJsonOutput:
    def test_diagnose_writes_json(self, capsys, tmp_path):
        log = tmp_path / "fail.log"
        run(capsys, "inject", "rca4", "-k", "1", "--seed", "4", "-o", str(log))
        out_json = tmp_path / "report.json"
        code, _out, _err = run(
            capsys, "diagnose", "rca4", str(log), "--json", str(out_json)
        )
        assert code == 0
        from repro.core.report import DiagnosisReport

        report = DiagnosisReport.from_json(out_json.read_text())
        assert report.circuit == "rca4"


class TestVerilogInput:
    def test_stats_on_verilog_file(self, capsys, tmp_path):
        from repro.circuit.generators import c17
        from repro.circuit.verilog import write_verilog

        path = tmp_path / "c17.v"
        path.write_text(write_verilog(c17()))
        code, out, _err = run(capsys, "stats", str(path))
        assert code == 0
        assert "gates" in out


class TestCampaignExports:
    def test_csv_and_json(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code, out, _err = run(
            capsys,
            "campaign", "rca4", "-k", "1", "-n", "2",
            "--methods", "xcover",
            "--csv", str(csv_path), "--json", str(json_path),
        )
        assert code == 0
        assert csv_path.read_text().startswith("circuit,")
        import json as _json

        payload = _json.loads(json_path.read_text())
        assert payload["config"]["circuit"] == "rca4"


class TestResilientCampaignFlags:
    def test_jobs_and_journal_resume(self, capsys, tmp_path):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs fork start method")
        journal = tmp_path / "trials.jsonl"
        args = [
            "campaign", "rca4", "-k", "1", "-n", "2", "--methods", "xcover",
            "--jobs", "2", "--timeout", "120", "--journal", str(journal),
        ]
        code, out, _err = run(capsys, *args)
        assert code == 0
        assert journal.exists()
        code, out2, err2 = run(capsys, *args, "--resume")
        assert code == 0
        assert "resumed 2 journaled trial" in err2
        # The replayed table is identical to the executed one.
        assert out == out2

    def test_resume_requires_journal(self, capsys):
        code, _out, err = run(capsys, "campaign", "rca4", "-n", "1", "--resume")
        assert code == 2
        assert "--resume requires --journal" in err

    def test_mismatched_journal_is_diagnosed(self, capsys, tmp_path):
        journal = tmp_path / "trials.jsonl"
        base = ["campaign", "rca4", "-n", "1", "--journal", str(journal)]
        assert run(capsys, *base)[0] == 0
        code, _out, err = run(
            capsys, "campaign", "rca4", "-n", "1", "-k", "3",
            "--journal", str(journal), "--resume",
        )
        assert code == 2
        assert "different campaign" in err


class TestErrorReporting:
    def test_unknown_circuit_is_a_diagnosis_not_a_traceback(self, capsys):
        code, _out, err = run(capsys, "stats", "not-a-circuit")
        assert code == 2
        assert "error:" in err
        assert "unknown circuit" in err

    def test_corrupt_datalog_names_file_and_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_text("# datalog patterns=8\nfail zero: a\n")
        code, _out, err = run(capsys, "diagnose", "rca4", str(bad))
        assert code == 2
        assert "bad.log" in err
        assert "line 2" in err

    def test_truncated_datalog_rejected(self, capsys, tmp_path):
        bad = tmp_path / "torn.log"
        bad.write_text("# datalog patterns=8\nfail 3\n")
        code, _out, err = run(capsys, "diagnose", "rca4", str(bad))
        assert code == 2
        assert "missing ':'" in err

    def test_datalog_for_other_circuit_rejected(self, capsys, tmp_path):
        log = tmp_path / "fail.log"
        run(capsys, "inject", "rca4", "-k", "1", "--seed", "4", "-o", str(log))
        code, _out, err = run(capsys, "diagnose", "c17", str(log))
        assert code == 2
        assert "captured on circuit" in err

    def test_missing_datalog_file(self, capsys, tmp_path):
        code, _out, err = run(capsys, "diagnose", "rca4", str(tmp_path / "no.log"))
        assert code == 2
        assert "cannot read datalog" in err

    def test_unknown_cover_engine_exits_2(self, capsys, tmp_path):
        log = tmp_path / "fail.log"
        run(capsys, "inject", "rca4", "-k", "1", "--seed", "4", "-o", str(log))
        for argv in (
            ["diagnose", "rca4", str(log)],
            ["campaign", "rca4", "-n", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--cover-engine", "clustered"])
            assert exc.value.code == 2
            assert "invalid choice: 'clustered'" in capsys.readouterr().err


class TestServe:
    """Exit-code contract: supervisors distinguish config (2), bind (3),
    and locked-store (4) failures without parsing stderr."""

    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.store == "jobs.jsonl"
        assert args.port == 8765
        assert args.jobs == 2
        assert args.queue_depth == 16
        assert args.high_water == 0.75
        assert args.drain_seconds == 10.0
        assert not args.no_fsync

    def test_bad_config_exits_2(self, capsys, tmp_path):
        store = str(tmp_path / "jobs.jsonl")
        for argv in (
            ["serve", "--store", store, "--jobs", "0"],
            ["serve", "--store", store, "--queue-depth", "0"],
            ["serve", "--store", store, "--high-water", "1.5"],
            ["serve", "--store", store, "--drain-seconds", "-1"],
        ):
            code, _out, err = run(capsys, *argv)
            assert code == 2, argv
            assert "error:" in err

    def test_bind_conflict_exits_3(self, capsys, tmp_path):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        port = sock.getsockname()[1]
        try:
            code, _out, err = run(
                capsys,
                "serve",
                "--store",
                str(tmp_path / "jobs.jsonl"),
                "--port",
                str(port),
            )
        finally:
            sock.close()
        assert code == 3
        assert "cannot bind" in err

    def test_locked_store_exits_4(self, capsys, tmp_path):
        from repro.campaign.journal import JsonlAppender

        store = tmp_path / "jobs.jsonl"
        holder = JsonlAppender(store)
        holder.open()
        try:
            code, _out, err = run(
                capsys, "serve", "--store", str(store), "--port", "0"
            )
        finally:
            holder.close()
        assert code == 4
        assert "locked" in err
