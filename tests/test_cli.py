"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

SOURCE = """
fun bar(x) {
  y = x * 2;
  z = y;
  return z;
}
fun foo(a, b) {
  p = null;
  c = bar(a);
  d = bar(b);
  if (c < d) { deref(p); }
  return 0;
}
fun safe(a) {
  q = null;
  if (a < a) { deref(q); }
  return 0;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.fl"
    path.write_text(SOURCE)
    return str(path)


class TestScan:
    def test_finds_bug_and_exits_nonzero(self, source_file, capsys):
        code = main(["scan", source_file, "--checker", "null-deref"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[BUG]" in out and "foo" in out
        assert "safe" not in out  # infeasible filtered by default

    def test_show_infeasible(self, source_file, capsys):
        main(["scan", source_file, "--checker", "null-deref",
              "--show-infeasible"])
        out = capsys.readouterr().out
        assert "[infeasible]" in out and "safe" in out

    def test_json_output(self, source_file, capsys):
        code = main(["scan", source_file, "--checker", "null-deref",
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["engine"] == "fusion"
        assert len(payload["findings"]) == 1
        finding = payload["findings"][0]
        assert finding["source_function"] == "foo"
        assert finding["path"][0] == "p"

    def test_witness_extraction(self, source_file, capsys):
        main(["scan", source_file, "--checker", "null-deref", "--witness",
              "--json"])
        payload = json.loads(capsys.readouterr().out)
        witness = payload["findings"][0].get("witness", {})
        assert witness, "expected a concrete model"
        # The witness must make the guard true: c < d (8-bit signed).
        c = next(v for k, v in witness.items() if k.endswith("::c#f0"))
        d = next(v for k, v in witness.items() if k.endswith("::d#f0"))
        from repro.smt import to_signed
        assert to_signed(c, 8) < to_signed(d, 8)

    def test_clean_program_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.fl"
        path.write_text("fun f(a) { return a + 1; }")
        code = main(["scan", str(path)])
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_dot_export(self, source_file, tmp_path, capsys):
        dot_file = tmp_path / "pdg.dot"
        main(["scan", source_file, "--checker", "null-deref",
              "--dot", str(dot_file)])
        text = dot_file.read_text()
        assert text.startswith("digraph pdg")
        assert "style=dashed" in text

    def test_engine_selection(self, source_file, capsys):
        code = main(["scan", source_file, "--checker", "null-deref",
                     "--engine", "pinpoint"])
        assert code == 1
        assert "[BUG]" in capsys.readouterr().out

    def test_stdin_input(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "fun f() { p = null; deref(p); return 0; }"))
        code = main(["scan", "-", "--checker", "null-deref"])
        assert code == 1


class TestOtherCommands:
    def test_subjects_lists_registry(self, capsys):
        assert main(["subjects"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "wine" in out

    def test_bench_single_cell(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # BENCH_mcf.json lands here
        code = main(["bench", "--subject", "mcf", "--engine", "fusion"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["subject"] == "mcf"
        assert payload["failure"] is None
        assert len(payload["query_seconds"]) == payload["queries"]
        assert len(payload["query_clauses"]) == payload["queries"]
        record = json.loads((tmp_path / "BENCH_mcf.json").read_text())
        assert set(record) == {"schema", "jobs", "row"}
        assert record["schema"] == "repro-bench/2"
        assert record["jobs"] == 1
        # The record carries exactly the row printed on stdout.
        assert record["row"] == payload

    def test_bench_no_json_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--subject", "mcf", "--engine", "fusion",
                     "--no-bench-json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["failure"] is None
        assert list(tmp_path.iterdir()) == []


class TestOneDefault:
    def test_analyze_findings_match_session_and_library(self, capsys):
        """`repro analyze --json`, a hot `AnalysisSession` and a library
        `FusionEngine` with witnesses on solve the same way: their
        findings, witnesses included, are equal."""
        from repro.bench.subjects import materialize
        from repro.checkers import NullDereferenceChecker
        from repro.engine import (AnalysisSession, EngineSettings,
                                  findings_payload)
        from repro.fusion import (FusionConfig, FusionEngine,
                                  GraphSolverConfig, prepare_pdg)

        assert main(["analyze", "--subject", "twolf", "--json"]) == 0
        cli = json.loads(capsys.readouterr().out)["findings"]
        source = materialize("twolf").source
        session = AnalysisSession(source, settings=EngineSettings())
        library = FusionEngine(
            prepare_pdg(materialize("twolf").program),
            FusionConfig(solver=GraphSolverConfig(want_model=True)))
        assert any(finding["witness"] for finding in cli)
        assert findings_payload(session.analyze("null-deref")) == cli
        assert findings_payload(
            library.analyze(NullDereferenceChecker())) == cli


class TestVerboseScan:
    def test_verbose_report(self, source_file, capsys):
        code = main(["scan", source_file, "--checker", "null-deref",
                     "--verbose"])
        out = capsys.readouterr().out
        assert code == 1
        assert "Null pointer dereference" in out
        assert "trace:" in out and "feasibility:" in out
        assert "witness:" in out  # --verbose implies model extraction

    def test_verbose_with_infeasible(self, source_file, capsys):
        main(["scan", source_file, "--checker", "null-deref",
              "--verbose", "--show-infeasible"])
        out = capsys.readouterr().out
        assert "INFEASIBLE" in out


DIVZERO_SOURCE = """
fun main(a) {
  z = 0;
  b = 4;
  c = b - 4;
  safe = a / 2;
  bad = a / z;
  worse = a % c;
  return bad + worse + safe;
}
"""


class TestLint:
    def test_clean_file_exits_zero(self, source_file, capsys):
        assert main(["lint", source_file]) == 0
        out = capsys.readouterr().out
        assert "PDG OK" in out and "vertices" in out

    def test_registry_subject(self, capsys):
        assert main(["lint", "mcf"]) == 0
        assert "PDG OK" in capsys.readouterr().out

    def test_json_output(self, source_file, capsys):
        assert main(["lint", source_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["errors"] == []

    def test_stdin(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("fun f(a) { return a; }"))
        assert main(["lint", "-"]) == 0

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.fl"
        bad.write_text("fun f( { nope")
        assert main(["lint", str(bad)]) == 2
        assert "repro lint:" in capsys.readouterr().err

    def test_type_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.fl"
        bad.write_text("fun f(a) { if (a) { b = 1; } return 0; }")
        assert main(["lint", str(bad)]) == 2


class TestTriageFlag:
    def test_analyze_with_triage(self, source_file, capsys):
        code = main(["analyze", "--subject", source_file, "--triage",
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "triaged" in payload["summary"]
        feasible = [f for f in payload["findings"] if f["feasible"]]
        assert len(feasible) == 1
        assert feasible[0]["source_function"] == "foo"

    def test_triage_report_set_matches_no_triage(self, source_file,
                                                 capsys):
        main(["analyze", "--subject", source_file, "--json"])
        base = json.loads(capsys.readouterr().out)["findings"]
        main(["analyze", "--subject", source_file, "--triage", "--json"])
        triaged = json.loads(capsys.readouterr().out)["findings"]
        def strip(findings):
            return [(f["source_function"], f["sink_function"],
                     f["feasible"]) for f in findings]
        assert strip(triaged) == strip(base)

    def test_triage_rejected_for_infer(self, source_file, capsys):
        code = main(["analyze", "--subject", source_file,
                     "--engine", "infer", "--triage"])
        assert code == 2
        assert "path-sensitive" in capsys.readouterr().err

    def test_triage_telemetry(self, source_file, tmp_path, capsys):
        out = tmp_path / "telemetry.json"
        main(["analyze", "--subject", source_file, "--triage",
              "--telemetry", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-exec-telemetry/11"
        triage = payload["triage"]
        assert triage["decided_infeasible"] + triage["decided_feasible"] \
            + triage["sent_to_smt"] >= 1


class TestDivZeroChecker:
    def test_finds_constant_zero_divisors(self, tmp_path, capsys):
        path = tmp_path / "div.fl"
        path.write_text(DIVZERO_SOURCE)
        code = main(["analyze", "--subject", str(path),
                     "--checker", "div-zero", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        feasible = [f for f in payload["findings"] if f["feasible"]]
        # `a / z` (literal zero) and `a % c` (constant-folded zero) are
        # flagged; `a / 2` is not.
        assert len(feasible) == 2
        sinks = {f["sink"] for f in feasible}
        assert any("/" in s for s in sinks)
        assert any("%" in s for s in sinks)

    def test_triage_composes_with_divzero(self, tmp_path, capsys):
        path = tmp_path / "div.fl"
        path.write_text(DIVZERO_SOURCE)
        code = main(["analyze", "--subject", str(path),
                     "--checker", "div-zero", "--triage", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len([f for f in payload["findings"] if f["feasible"]]) == 2
