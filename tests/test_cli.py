import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import brs.cli as cli_module
from brs import LedgerEntry, analyze
from brs.cli import main
from conftest import CORPUS_DIR, REPO_ROOT

CUSP = "vars = x, y\nphi  = x^2 + y^3\nf    = y\n"


@pytest.fixture()
def cusp_file(tmp_path: Path) -> Path:
    path = tmp_path / "cusp.brs"
    path.write_text(CUSP, encoding="utf-8")
    return path


def invoke(*args):
    return CliRunner().invoke(main, list(args))


class TestCheck:
    def test_text_report_and_exit_zero(self, cusp_file):
        res = invoke("check", str(cusp_file))
        assert res.exit_code == 0, res.output
        lines = res.output.rstrip("\n").splitlines()
        assert lines[-1] == "ledger: all 10 gated identities PASS"
        assert "mu_BR_rel  = 1" in res.output

    def test_degenerate_pair_still_exits_zero(self, tmp_path):
        path = tmp_path / "degen.brs"
        path.write_text("vars=x,y\nphi=x^2+y^3\nf=x^2+y^3\n", encoding="utf-8")
        res = invoke("check", str(path))
        assert res.exit_code == 0, res.output
        assert "infinite" in res.output
        assert "icis-finiteness" in res.output

    def test_missing_file_exits_one(self):
        res = invoke("check", "/nonexistent/path.brs")
        assert res.exit_code == 1

    def test_unreadable_file_exits_one(self, tmp_path):
        path = tmp_path / "latin1.brs"
        path.write_bytes("vars = x\nphi = x  # \xe9\nf = x\n".encode("latin-1"))
        res = invoke("check", str(path))
        assert res.exit_code == 1
        assert res.output.startswith(f"error: {path}: ")
        assert "Traceback" not in res.output

    def test_parse_error_exits_one(self, tmp_path):
        path = tmp_path / "bad.brs"
        path.write_text("vars=x,y\nphi=x +\nf=y\n", encoding="utf-8")
        res = invoke("check", str(path))
        assert res.exit_code == 1

    def test_budget_error_exits_one(self, tmp_path):
        path = tmp_path / "heavy.brs"
        path.write_text(
            "vars=x,y\nphi=x^5 + y^5 + x^2*y^2\nf=x - y\n", encoding="utf-8"
        )
        res = invoke("check", str(path), "--budget", "1")
        assert res.exit_code == 1

    def test_budget_env_var(self, tmp_path):
        path = tmp_path / "heavy.brs"
        path.write_text(
            "vars=x,y\nphi=x^5 + y^5 + x^2*y^2\nf=x - y\n", encoding="utf-8"
        )
        res = CliRunner(env={"BRS_BUDGET": "1"}).invoke(main, ["check", str(path)])
        assert res.exit_code == 1
        res = CliRunner(env={"BRS_BUDGET": "200000"}).invoke(main, ["check", str(path)])
        assert res.exit_code == 0

    def test_smooth_degenerate_pair(self, tmp_path):
        # Smooth hypersurface with f = phi: relative number is infinite but
        # the finiteness equivalence still holds, so the run passes.
        path = tmp_path / "smooth.brs"
        path.write_text("vars=x,y\nphi=x\nf=x\n", encoding="utf-8")
        res = invoke("check", str(path))
        assert res.exit_code == 0, res.output
        assert "icis-finiteness" in res.output

    def test_identity_failure_exits_two(self, cusp_file, monkeypatch):
        real = analyze

        def broken(problem, **kwargs):
            report = real(problem, **kwargs)
            report.ledger = report.ledger + (
                LedgerEntry(name="crafted-fail", status="fail", lhs=0, rhs=1),
            )
            return report

        monkeypatch.setattr(cli_module, "analyze", broken)
        res = invoke("check", str(cusp_file))
        assert res.exit_code == 2
        assert "FAIL" in res.output

    def test_json_output_round_trips(self, cusp_file):
        res = invoke("check", str(cusp_file), "--format", "json")
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["invariants"] == {
            "mu_f": 0,
            "mu_X": 2,
            "tau_X": 2,
            "mu_fiber": 1,
            "mu_BR": 1,
            "mu_BR_rel": 1,
        }
        assert {e["name"] for e in doc["ledger"]} >= {"relbr-sum", "br-split"}
        assert doc["problem"]["phi"] == "x^2 + y^3"

    def test_json_byte_stable_modulo_timings(self, cusp_file):
        first = json.loads(invoke("check", str(cusp_file), "--format", "json").output)
        second = json.loads(invoke("check", str(cusp_file), "--format", "json").output)
        first["timings_ms"] = second["timings_ms"] = None
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_file_format_option_respected(self, tmp_path):
        path = tmp_path / "cusp.brs"
        path.write_text(CUSP + "format = json\n", encoding="utf-8")
        res = invoke("check", str(path))
        assert res.exit_code == 0
        json.loads(res.output)  # must be valid JSON without --format

    def test_oracle_flag_adds_entries(self, cusp_file):
        res = invoke("check", str(cusp_file), "--oracle", "--format", "json")
        doc = json.loads(res.output)
        oracle_entries = [e for e in doc["ledger"] if e["name"].startswith("oracle-")]
        assert oracle_entries and all(e["status"] == "pass" for e in oracle_entries)

    @pytest.mark.parametrize("name", ["wh_e6_f_x.brs", "degen_a2_self.brs"])
    def test_small_max_jet_is_rejected_before_any_work(self, name, monkeypatch):
        # The bound and message of the problem file's max_jet key, exit code 1.
        monkeypatch.setattr(cli_module, "parse_problem", None)  # never reached
        res = invoke("check", str(CORPUS_DIR / name), "--max-jet", "2", "--oracle")
        assert res.exit_code == 1
        assert "max_jet must be at least 4" in res.output
        assert invoke("check", "/nonexistent/path.brs", "--max-jet", "3").exit_code == 1

    def test_module_entry_point(self, cusp_file):
        # Run from the source directory, so `-m` finds the package uninstalled.
        res = subprocess.run(
            [sys.executable, "-m", "brs", "check", str(cusp_file)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT / "src",
        )
        assert res.returncode == 0
        assert res.stdout.rstrip().endswith("PASS")


class TestUsageErrors:
    # A value click cannot convert, an unknown choice or a missing argument
    # is an input error (exit 1); exit 2 means an identity failed.
    @pytest.mark.parametrize("command, target", [("check", "wh_e6_f_x.brs"), ("corpus", "")])
    @pytest.mark.parametrize(
        "args",
        [["--budget", "x"], ["--max-jet", "x"], ["--format", "xml"], None],
        ids=["budget", "max-jet", "format", "missing-argument"],
    )
    def test_usage_error_exits_one(self, command, target, args, monkeypatch):
        monkeypatch.setattr(cli_module, "parse_problem", None)  # never reached
        argv = [command] + ([] if args is None else [str(CORPUS_DIR / target), *args])
        res = invoke(*argv)
        assert res.exit_code == 1, res.output
        assert "Usage:" in res.output

    @pytest.mark.parametrize("command, target", [("check", "wh_e6_f_x.brs"), ("corpus", "")])
    def test_unconvertible_budget_variable_exits_one(self, command, target):
        runner = CliRunner(env={"BRS_BUDGET": "x"})
        res = runner.invoke(main, [command, str(CORPUS_DIR / target)])
        assert res.exit_code == 1
        assert "--budget" in res.output

    @pytest.mark.parametrize("command, target", [("check", "wh_e6_f_x.brs"), ("corpus", "")])
    @pytest.mark.parametrize(
        "args, env", [(["--budget", "-1"], {}), (["--budget", "0"], {}), ([], {"BRS_BUDGET": "0"})],
        ids=["negative", "zero", "variable"],
    )
    def test_a_budget_below_one_is_rejected_before_any_file_is_read(
        self, command, target, args, env, monkeypatch
    ):
        monkeypatch.setattr(cli_module, "_run_one", None)  # never reached
        res = CliRunner(env=env).invoke(main, [command, str(CORPUS_DIR / target), *args])
        assert res.exit_code == 1
        assert res.output.strip() == "error: --budget: must be at least 1"

    def test_unknown_command_exits_one(self):
        assert invoke("bogus").exit_code == 1

    @pytest.mark.parametrize("args", [["--help"], ["check", "--help"], ["corpus", "--help"]])
    def test_help_exits_zero(self, args):
        res = invoke(*args)
        assert res.exit_code == 0
        assert res.output.startswith("Usage:")

    def test_version_exits_zero(self):
        res = invoke("--version")
        assert res.exit_code == 0
        assert res.output == "brs, version 0.1.0\n"


class TestCorpus:
    def test_shipped_corpus_all_pass(self):
        res = invoke("corpus", str(CORPUS_DIR))
        assert res.exit_code == 0, res.output
        assert "0 fail, 0 error" in res.output

    def test_empty_directory(self, tmp_path):
        res = invoke("corpus", str(tmp_path))
        assert res.exit_code == 0
        assert "0 problems" in res.output

    def test_corrupted_file_reported_others_evaluated(self, tmp_path, cusp_file):
        (tmp_path / "good.brs").write_text(CUSP, encoding="utf-8")
        (tmp_path / "broken.brs").write_text("vars=x\nphi=??\nf=x\n", encoding="utf-8")
        res = invoke("corpus", str(tmp_path))
        assert res.exit_code == 1
        assert "ERROR" in res.output
        assert "PASS" in res.output

    def test_unreadable_files_reported_others_evaluated(self, tmp_path):
        # A file that is not UTF-8 and a directory named like a problem file
        # are ERROR rows; the table is still printed.
        (tmp_path / "good.brs").write_text(CUSP, encoding="utf-8")
        (tmp_path / "latin1.brs").write_bytes("vars = x\nphi = x  # \xe9\nf = x\n".encode("latin-1"))
        (tmp_path / "folder.brs").mkdir()
        res = invoke("corpus", str(tmp_path))
        assert res.exit_code == 1, res.output
        assert "Traceback" not in res.output
        assert res.output.count("ERROR") >= 2
        assert "PASS" in res.output
        doc = json.loads(invoke("corpus", str(tmp_path), "--format", "json").output)
        assert doc["summary"] == {"count": 3, "pass": 1, "fail": 0, "error": 2}
        assert ["error" in r for r in doc["problems"]] == [True, False, True]

    def test_missing_directory_exits_one(self):
        res = invoke("corpus", "/nonexistent/dir")
        assert res.exit_code == 1

    def test_small_max_jet_is_rejected_before_any_work(self, monkeypatch):
        monkeypatch.setattr(cli_module, "parse_problem", None)  # never reached
        res = invoke("corpus", str(CORPUS_DIR), "--max-jet", "2", "--oracle")
        assert res.exit_code == 1
        assert res.output.strip() == "error: --max-jet: max_jet must be at least 4"

    def test_smallest_max_jet_is_accepted(self, cusp_file):
        res = invoke("check", str(cusp_file), "--max-jet", "4", "--oracle")
        assert res.exit_code == 0, res.output

    def test_json_summary(self, tmp_path):
        (tmp_path / "one.brs").write_text(CUSP, encoding="utf-8")
        res = invoke("corpus", str(tmp_path), "--format", "json")
        doc = json.loads(res.output)
        assert doc["summary"] == {"count": 1, "pass": 1, "fail": 0, "error": 0}

    def test_an_identity_failure_exits_two_over_an_error(self, tmp_path, monkeypatch):
        # One file fails a row (made to by the stub), one is an ERROR row:
        # the failed identity decides the exit code.
        real = analyze

        def one_fails(problem, **kwargs):
            report = real(problem, **kwargs)
            if kwargs["path"].endswith("bad.brs"):
                report.ledger = (LedgerEntry(name="br-split", status="fail", lhs=2, rhs=3),)
            return report

        monkeypatch.setattr(cli_module, "analyze", one_fails)
        for name in ("bad.brs", "good.brs"):
            (tmp_path / name).write_text(CUSP, encoding="utf-8")
        (tmp_path / "broken.brs").write_text("vars=x\nphi=??\nf=x\n", encoding="utf-8")
        res = invoke("corpus", str(tmp_path))
        assert res.exit_code == 2, res.output
        assert "FAIL (1 of 1)" in res.output
        assert res.output.endswith("total: 3 problems, 1 pass, 1 fail, 1 error\n")
