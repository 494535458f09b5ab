import json
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_ma import cli, dumpio
from torus_ma import equations as eq
from torus_ma.grid import ScalarField, TorusGrid, from_function
from torus_ma.solver import SolverConfig

from conftest import rel_err


def write_config(path, **kwargs):
    path.write_text(json.dumps(kwargs))
    return str(path)


class TestExpressionGrammar:
    def test_basic_evaluation(self):
        g = TorusGrid((16, 16))
        f = cli.evaluate_expression("0.5*sin(2*pi*x)*cos(2*pi*y) + 1.0", g, ("x", "y"))
        want = from_function(g, lambda x, y: 0.5 * np.sin(2 * np.pi * x)
                             * np.cos(2 * np.pi * y) + 1.0)
        assert np.max(np.abs(f.values - want.values)) < 1e-14

    def test_exp_and_power(self):
        g = TorusGrid((16, 16))
        f = cli.evaluate_expression("exp(sin(2*pi*x))**2 / 2", g, ("x", "y"))
        want = from_function(g, lambda x, y: np.exp(np.sin(2 * np.pi * x)) ** 2 / 2)
        assert np.max(np.abs(f.values - want.values)) < 1e-12

    @pytest.mark.parametrize("bad", [
        "__import__('os').system('true')",
        "open('/etc/passwd')",
        "x.real",
        "lambda: 1",
        "q + 1",
        "sin(x, y)",
        "[1, 2]",
        "'abc'",
        "x ** y",
    ])
    def test_rejected_expressions(self, bad):
        g = TorusGrid((16, 16))
        with pytest.raises(cli.ConfigError):
            cli.evaluate_expression(bad, g, ("x", "y"))

    def test_nonfinite_expression_is_config_error(self):
        g = TorusGrid((16, 16))
        with pytest.raises(cli.ConfigError):
            cli.evaluate_expression("1/(x - x)", g, ("x", "y"))

    @pytest.mark.parametrize("bad", [
        "1/0", "pi/(pi - pi)", "(-1)**0.5", "10.0**400", "1" + "0" * 400, "-" * 2000 + "1",
    ])
    def test_scalar_arithmetic_faults_are_config_errors(self, bad):
        # constant arithmetic ran on Python floats: these escaped as
        # ZeroDivisionError, OverflowError or RecursionError, and (-1)**0.5
        # became a complex number whose imaginary part was dropped
        g = TorusGrid((8, 8))
        with pytest.raises(cli.ConfigError):
            cli.evaluate_expression(bad, g, ("x", "y"))


class TestDumpFormat:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        g = TorusGrid((16, 8, 12)) if False else TorusGrid((16, 8))
        vals = rng.standard_normal(g.sizes)
        f = ScalarField(g, vals)
        p = tmp_path / "f.tma"
        dumpio.write_field(p, f)
        back = dumpio.read_field(p)
        assert back.grid.sizes == g.sizes
        assert np.array_equal(back.values, f.values)
        # a second write is byte-identical
        p2 = tmp_path / "f2.tma"
        dumpio.write_field(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        g = TorusGrid((8, 10))
        f = ScalarField(g, np.zeros(g.sizes))
        p = tmp_path / "f.tma"
        dumpio.write_field(p, f)
        raw = p.read_bytes()
        assert raw[:4] == b"TMA1"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:16], "little") == 8
        assert int.from_bytes(raw[16:24], "little") == 10
        assert len(raw) == 24 + 8 * 80

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.tma"
        p.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(ValueError):
            dumpio.read_field(p)

    def test_truncated_rejected(self, tmp_path):
        g = TorusGrid((8, 8))
        p = tmp_path / "f.tma"
        dumpio.write_field(p, ScalarField(g, np.ones(g.sizes)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError):
            dumpio.read_field(p)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_roundtrip_random(self, seed):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        g = TorusGrid((8, 8))
        f = ScalarField(g, rng.standard_normal(g.sizes))
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "f.tma"
            dumpio.write_field(p, f)
            assert np.array_equal(dumpio.read_field(p).values, f.values)


class TestReportTree:
    def test_roundtrip(self, tmp_path):
        tree = {
            "status": "Converged",
            "trace": {"0": {"t": 0.0, "b": 1e-12}, "1": {"t": 1.0, "b": -2e-14}},
            "flags": {"ok": True, "bad": False},
        }
        p = tmp_path / "report.txt"
        cli.write_report(p, tree)
        back = cli.read_report(p)
        assert back["status"] == "Converged"
        assert float(back["trace"]["1"]["t"]) == 1.0
        assert back["flags"]["ok"] == "true"

    def test_minimal_report_with_empty_trace(self, tmp_path):
        p = tmp_path / "report.txt"
        cli.write_report(p, {"status": "Converged", "trace": {}})
        back = cli.read_report(p)
        assert back["status"] == "Converged"
        assert back["trace"] == {}

    def test_line_break_in_a_config_key_stays_in_its_entry(self, tmp_path):
        # the source echo of the key wrote a line "verification: 1" at the
        # top level, and the keys after it left the config subtree
        code, report = run_config(tmp_path, "selftest", {"note\nverification": 1, "seed": 0})
        assert_config_error(code, report)
        tree = cli.read_report(report)
        assert "verification" not in tree and "seed" not in tree
        assert tree["config"]["source"]["note\nverification"] == "1"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tree=st.recursive(
        st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=3),
        lambda inner: st.dictionaries(st.text(max_size=6), inner | st.text(max_size=6),
                                      max_size=3),
        max_leaves=12))
    def test_any_text_tree_reads_back(self, tree):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "report.txt"
            cli.write_report(p, tree)
            assert cli.read_report(p) == tree


class TestRunPipeline:
    def test_solve_and_verify_roundtrip(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "cfg.json",
            mode="solve", family="STDMA", grid=[32, 32],
            datum={"expr": "0.4*sin(2*pi*x)*sin(2*pi*y)"},
            out=str(tmp_path / "run"), seed=0)
        assert cli.main(["solve", "--config", cfg_path]) == 0
        report = cli.read_report(tmp_path / "run" / "report.txt")
        assert report["status"] == "Converged"
        assert report["verification"]["passed"] == "true"
        assert float(report["verification"]["topform_residual"]) <= 1e-8
        # datum was auto-normalized and the shift recorded
        assert float(report["normalization_shift"]) != 0.0
        assert (tmp_path / "run" / "u.tma").exists()
        assert int(report["monitors"]["krylov_matvecs"]) > 0
        assert report["monitors"]["krylov_capped"] == "0"

        # re-verify the emitted artifacts through the verify mode
        cfg2 = write_config(
            tmp_path / "cfg2.json",
            mode="verify", family="STDMA", grid=[32, 32],
            datum={"dump": str(tmp_path / "run" / "datum.tma")},
            solution={"dump": str(tmp_path / "run" / "u.tma")},
            out=str(tmp_path / "run2"), seed=0)
        assert cli.main(["verify", "--config", cfg2]) == 0

    def test_solve_three_torus_family(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            mode="solve", family="DETA_T3", grid=[16, 16, 16],
            datum={"expr": "0.3*sin(2*pi*x1)*cos(2*pi*y1) + 0.2*cos(2*pi*x2)"},
            out=str(tmp_path / "run"), seed=0)
        assert cli.main(["solve", "--config", cfg]) == 0
        report = cli.read_report(tmp_path / "run" / "report.txt")
        assert report["status"] == "Converged"
        assert report["verification"]["passed"] == "true"

    def test_solve_with_family_parameters(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            mode="solve", family="LAGR_X2Y1", grid=[32, 32],
            params={"l1": -1.0, "l2": -1.0, "m1": 0.4, "m2": -0.3},
            datum={"expr": "0.5*cos(2*pi*x)*sin(2*pi*y)"},
            out=str(tmp_path / "run"), seed=0)
        assert cli.main(["solve", "--config", cfg]) == 0
        report = cli.read_report(tmp_path / "run" / "report.txt")
        assert report["status"] == "Converged"

    def test_manufacture_mode(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "cfg.json",
            mode="manufacture", family="STDMA", grid=[32, 32],
            datum={"expr": "0.005*sin(2*pi*x)*cos(2*pi*y)"},
            out=str(tmp_path / "run"), seed=0)
        assert cli.main(["manufacture", "--config", cfg_path]) == 0
        assert (tmp_path / "run" / "u_star.tma").exists()
        assert (tmp_path / "run" / "datum.tma").exists()

    def test_wrong_solution_fails_verification(self, tmp_path):
        g = TorusGrid((32, 32))
        wrong = from_function(g, lambda x, y: 0.004 * np.sin(2 * np.pi * x))
        datum = from_function(g, lambda x, y: 0.3 * np.sin(2 * np.pi * y))
        dumpio.write_field(tmp_path / "wrong.tma", wrong)
        dumpio.write_field(tmp_path / "datum.tma", datum)
        cfg = write_config(
            tmp_path / "cfg.json",
            mode="verify", family="STDMA", grid=[32, 32],
            datum={"dump": str(tmp_path / "datum.tma")},
            solution={"dump": str(tmp_path / "wrong.tma")},
            out=str(tmp_path / "run"), seed=0)
        assert cli.main(["verify", "--config", cfg]) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_candidate_fails_verification(self, tmp_path):
        # the candidate's forms overflow inside verify_solution; that exited 3
        # as a SolverError, though verify mode solves nothing
        g = TorusGrid((8, 8))
        rng = np.random.default_rng(0)
        dumpio.write_field(tmp_path / "u.tma", ScalarField(g, 1e200 * rng.uniform(-1, 1, g.sizes)))
        dumpio.write_field(tmp_path / "datum.tma", ScalarField(g, np.zeros(g.sizes)))
        body = {"family": "STDMA", "grid": [8, 8], "datum": {"dump": str(tmp_path / "datum.tma")},
                "solution": {"dump": str(tmp_path / "u.tma")}}
        code, report = run_config(tmp_path, "verify", body)
        assert code == 4
        tree = cli.read_report(report)
        assert (tree["status"], tree["error_code"]) == ("VerifyFailed", "verify")

    def test_selftest_mode(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", mode="selftest",
                           out=str(tmp_path / "run"), seed=3)
        assert cli.main(["selftest", "--config", cfg]) == 0
        report = cli.read_report(tmp_path / "run" / "report.txt")
        assert report["status"] == "Pass"

    def test_bad_config_exits_two(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        assert cli.main(["solve", "--config", str(p)]) == 2
        cfg = write_config(tmp_path / "cfg2.json", mode="solve", family="NOPE",
                           grid=[32, 32], datum={"expr": "sin(2*pi*x)"},
                           out=str(tmp_path / "runx"), seed=0)
        with pytest.raises(SystemExit):
            cli.main(["badmode", "--config", cfg])
        # unknown family surfaces as a config error
        assert cli.main(["solve", "--config", cfg]) == 2

    def _solve_with(self, tmp_path, solver):
        cfg = write_config(
            tmp_path / "cfg.json", mode="solve", family="STDMA", grid=[32, 32],
            datum={"expr": "0.4*sin(2*pi*x)*sin(2*pi*y)"}, solver=solver,
            out=str(tmp_path / "run"), seed=0)
        return cli.main(["solve", "--config", cfg])

    def _solve_dump(self, tmp_path, raw):
        dump = tmp_path / "datum.tma"
        dump.write_bytes(raw)
        cfg = write_config(
            tmp_path / "cfg.json", mode="solve", family="STDMA", grid=[32, 32],
            datum={"dump": str(dump)}, out=str(tmp_path / "run"), seed=0)
        return cli.main(["solve", "--config", cfg])

    def test_huge_dimension_dump_exits_two(self, tmp_path):
        # the header's dimension used to be unpacked unchecked and escaped as
        # a struct.error
        raw = b"TMA1" + (4 * 10**9).to_bytes(4, "little") + bytes(64)
        (tmp_path / "x.tma").write_bytes(raw)
        with pytest.raises(ValueError):
            dumpio.read_field(tmp_path / "x.tma")
        assert self._solve_dump(tmp_path, raw) == 2

    def test_bad_magic_dump_exits_two(self, tmp_path):
        # used to exit 3 as a solver failure
        assert self._solve_dump(tmp_path, b"NOPE" + bytes(32)) == 2

    def test_zero_lin_restart_exits_two(self, tmp_path):
        # used to divide by zero when sizing the GMRES outer iterations
        assert self._solve_with(tmp_path, {"lin_restart": 0}) == 2

    def test_zero_max_backtracks_exits_two(self, tmp_path):
        # used to run with no trial step and report a lost branch
        assert self._solve_with(tmp_path, {"max_backtracks": 0}) == 2

    def test_nan_newton_tol_exits_two(self, tmp_path):
        # NaN passed every range check (NaN <= 0 is false): no residual met
        # it, so this run exited 3, and a zero datum died in a
        # ZeroDivisionError traceback inside the forcing term (exit 1)
        assert self._solve_with(tmp_path, {"newton_tol": float("nan")}) == 2

    def test_float_lin_maxiter_exits_two(self, tmp_path):
        # 1e9 reached gmres as a float iteration count and died in a
        # TypeError traceback (exit 1)
        assert self._solve_with(tmp_path, {"lin_maxiter": 1e9}) == 2

    @pytest.mark.parametrize("solver", [
        {"max_newton": 0}, {"max_steps": 0}, {"lin_maxiter": 0},
        {"damping": 0.0}, {"damping": 1.0}, {"sigma": 0.0}, {"sigma": -1.0},
        {"dt_min": 0.0}, {"dt_init": 0.1, "dt_min": 0.2},
    ])
    def test_out_of_range_solver_setting_exits_two(self, tmp_path, solver):
        assert self._solve_with(tmp_path, solver) == 2

    def test_solver_failure_exits_three(self, tmp_path):
        # an iteration budget too small to reach the target datum
        cfg = write_config(
            tmp_path / "cfg.json", mode="solve", family="STDMA", grid=[32, 32],
            datum={"expr": "0.8*sin(2*pi*x)*sin(2*pi*y)"},
            solver={"max_newton": 1, "dt_init": 1.0, "dt_min": 0.6},
            out=str(tmp_path / "run"), seed=0)
        assert cli.main(["solve", "--config", cfg]) == 3
        report = cli.read_report(tmp_path / "run" / "report.txt")
        assert report["error_code"] == "solver"

    def test_rejected_attempts_reported(self, tmp_path):
        # a failed continuity attempt used to leave no trace in the report
        cfg = write_config(
            tmp_path / "cfg.json", mode="solve", family="STDMA", grid=[32, 32],
            datum={"expr": "0.8*sin(2*pi*x)*sin(2*pi*y)"},
            solver={"max_newton": 1, "dt_init": 1.0, "dt_min": 0.6},
            out=str(tmp_path / "run"), seed=0)
        assert cli.main(["solve", "--config", cfg]) == 3
        rejected = cli.read_report(tmp_path / "run" / "report.txt")["rejected"]
        assert list(rejected) == ["0"]
        assert rejected["0"]["t"] == "1.0"
        assert rejected["0"]["status"] == "MaxIterations"
        assert rejected["0"]["newton_iterations"] == "1"
        assert int(rejected["0"]["krylov_matvecs"]) > 0

    def test_branch_violation_exits_three(self, tmp_path):
        # a manufactured candidate that leaves the elliptic branch
        cfg = write_config(
            tmp_path / "cfg.json", mode="manufacture", family="STDMA", grid=[32, 32],
            datum={"expr": "0.2*sin(2*pi*x)"},
            out=str(tmp_path / "run"), seed=0)
        assert cli.main(["manufacture", "--config", cfg]) == 3
        report = cli.read_report(tmp_path / "run" / "report.txt")
        assert report["error_code"] == "solver"
        assert "branch" in report["message"]

    def test_csv_sidecar(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", mode="manufacture", family="STDMA", grid=[32, 32],
            datum={"expr": "0.004*sin(2*pi*x)"}, csv=True,
            out=str(tmp_path / "run"), seed=0)
        assert cli.main(["manufacture", "--config", cfg]) == 0
        csv = (tmp_path / "run" / "u_star.csv").read_text().splitlines()
        assert csv[0].startswith("# sizes=32x32")
        assert len(csv) == 1 + 32 * 32

    def test_bad_grid_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", mode="solve", family="STDMA", grid=[31, 32],
            datum={"expr": "0.1*sin(2*pi*x)"}, out=str(tmp_path / "run"), seed=0)
        assert cli.main(["solve", "--config", cfg]) == 2

    def test_fractional_grid_size_exits_two(self, tmp_path):
        # [8.5, 8] ran on an 8x8 grid while the report echoed 8.5x8
        cfg = write_config(
            tmp_path / "cfg.json", mode="solve", family="STDMA", grid=[8.5, 8],
            datum={"expr": "0.1*sin(2*pi*x)"}, out=str(tmp_path / "run"), seed=0)
        assert cli.main(["solve", "--config", cfg]) == 2

    def test_scalar_grid_exits_two(self, tmp_path):
        # a bare number died in tuple() with a TypeError traceback (exit 1)
        cfg = write_config(
            tmp_path / "cfg.json", mode="solve", family="STDMA", grid=5,
            datum={"expr": "0.1*sin(2*pi*x)"}, out=str(tmp_path / "run"), seed=0)
        assert cli.main(["solve", "--config", cfg]) == 2

    def test_string_csv_flag_exits_two(self, tmp_path):
        # "no" is a non-empty string, so it used to switch the sidecars on
        cfg = write_config(
            tmp_path / "cfg.json", mode="manufacture", family="STDMA", grid=[32, 32],
            datum={"expr": "0.004*sin(2*pi*x)"}, csv="no",
            out=str(tmp_path / "run"), seed=0)
        assert cli.main(["manufacture", "--config", cfg]) == 2
        assert not list(tmp_path.glob("run/*.csv"))

    def test_refuses_overwrite_without_force(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.json", mode="selftest", out=str(out), seed=0)
        assert cli.main(["selftest", "--config", cfg]) == 0
        assert cli.main(["selftest", "--config", cfg]) == 2
        assert cli.main(["selftest", "--config", cfg, "--force"]) == 0

    def test_force_keeps_files_the_tool_did_not_write(self, tmp_path):
        # --force used to delete everything under the output directory
        out = tmp_path / "run"
        (out / "sub").mkdir(parents=True)
        (out / "notes.txt").write_text("keep")
        (out / "sub" / "data.bin").write_bytes(b"keep")
        (out / "u.tma").write_bytes(b"old")
        cfg = write_config(tmp_path / "cfg.json", mode="selftest", out=str(out), seed=0)
        assert cli.main(["selftest", "--config", cfg, "--force"]) == 2
        assert (out / "notes.txt").read_text() == "keep"
        assert (out / "sub" / "data.bin").read_bytes() == b"keep"
        assert (out / "u.tma").read_bytes() == b"old"
        assert not (out / "report.txt").exists()
        # the tool's own outputs alone are replaced
        (out / "notes.txt").unlink()
        (out / "sub" / "data.bin").unlink()
        (out / "sub").rmdir()
        (out / "datum.csv").write_text("old")
        (out / "report.txt").write_text("old")
        assert cli.main(["selftest", "--config", cfg, "--force"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["report.txt"]
        assert cli.read_report(out / "report.txt")["status"] == "Pass"

    def test_out_is_a_regular_file_exits_two(self, tmp_path, capsys):
        # an existing file as the output directory used to escape as a
        # NotADirectoryError traceback (exit 1)
        out = tmp_path / "run"
        out.write_text("keep")
        cfg = write_config(tmp_path / "cfg.json", mode="selftest", out=str(out), seed=0)
        assert cli.main(["selftest", "--config", cfg]) == 2
        assert "config error:" in capsys.readouterr().err
        assert out.read_text() == "keep"
        nested = write_config(tmp_path / "nested.json", mode="selftest",
                              out=str(out / "sub"), seed=0)
        assert cli.main(["selftest", "--config", nested]) == 2

    def test_python_m_runs_the_command_line(self, tmp_path):
        # `python -m torus_ma` failed with "No module named torus_ma.__main__"
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        cfg = write_config(tmp_path / "cfg.json", mode="selftest",
                           out=str(tmp_path / "run"), seed=0)
        done = subprocess.run([sys.executable, "-m", "torus_ma", "selftest", "--config", cfg],
                              env=env, cwd=tmp_path, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert cli.read_report(tmp_path / "run" / "report.txt")["status"] == "Pass"

    def test_config_error_in_run_writes_report(self, tmp_path):
        # a bad dump used to leave an empty output directory
        assert self._solve_dump(tmp_path, b"NOPE" + bytes(32)) == 2
        report = cli.read_report(tmp_path / "run" / "report.txt")
        assert report["status"] == "ConfigError"
        assert report["error_code"] == "config"
        assert "magic" in report["message"]

    @pytest.mark.parametrize("params", [{"n": "two"}, {"n": None}, {"c": [1.0]}])
    def test_malformed_family_parameter_exits_two(self, tmp_path, params):
        # with h set, a non-integer n used to exit 3 as a solver failure
        cfg = write_config(
            tmp_path / "cfg.json", mode="solve", family="WARPED", grid=[16, 16],
            params=params, h="0.3*sin(2*pi*x)", datum={"expr": "0.1*sin(2*pi*x)"},
            out=str(tmp_path / "run"), seed=0)
        assert cli.main(["solve", "--config", cfg]) == 2
        assert cli.read_report(tmp_path / "run" / "report.txt")["status"] == "ConfigError"

    def test_determinism_modulo_timing(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.json", mode="solve", family="STDMA",
                             grid=[32, 32],
                             datum={"expr": "0.3*sin(2*pi*x)*sin(2*pi*y)"},
                             out=str(tmp_path / "ra"), seed=5)
        cfg_b = write_config(tmp_path / "b.json", mode="solve", family="STDMA",
                             grid=[32, 32],
                             datum={"expr": "0.3*sin(2*pi*x)*sin(2*pi*y)"},
                             out=str(tmp_path / "rb"), seed=5)
        assert cli.main(["solve", "--config", cfg_a]) == 0
        assert cli.main(["solve", "--config", cfg_b]) == 0

        def strip_timing(path):
            # drop the timing subtree and the run-specific output path echo
            lines = (path / "report.txt").read_text().splitlines()
            out, skip = [], False
            for ln in lines:
                if ln.startswith("timing:"):
                    skip = True
                    continue
                if skip and ln.startswith("  "):
                    continue
                skip = False
                if ln.strip().startswith("out:"):
                    continue
                out.append(ln)
            return "\n".join(out)

        assert strip_timing(tmp_path / "ra") == strip_timing(tmp_path / "rb")
        assert (tmp_path / "ra" / "u.tma").read_bytes() == \
            (tmp_path / "rb" / "u.tma").read_bytes()

    def test_parallel_jobs(self, tmp_path):
        cfgs = []
        for i in range(2):
            cfgs.extend(["--config", write_config(
                tmp_path / f"c{i}.json", mode="selftest",
                out=str(tmp_path / f"r{i}"), seed=i)])
        assert cli.main(["selftest", *cfgs, "--jobs", "2"]) == 0
        for i in range(2):
            assert (tmp_path / f"r{i}" / "report.txt").exists()

    def test_thread_cap_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TORUS_MA_THREADS", "1")
        cfgs = []
        for i in range(2):
            cfgs.extend(["--config", write_config(
                tmp_path / f"c{i}.json", mode="selftest",
                out=str(tmp_path / f"r{i}"), seed=i)])
        assert cli.main(["selftest", *cfgs, "--jobs", "8"]) == 0


# an 8x8 STDMA solve; each test overrides or adds keys
STDMA_8 = {"family": "STDMA", "grid": [8, 8], "seed": 0,
           "datum": {"expr": "0.01*sin(2*pi*x)*cos(2*pi*y)"}}


def run_config(tmp_path, mode, body, name="run"):
    """cli.main on one configuration; returns (exit code, report path)."""
    out = tmp_path / name
    cfg = write_config(tmp_path / f"{name}.json", **{"out": str(out), **body})
    return cli.main([mode, "--config", cfg]), out / "report.txt"


def assert_config_error(code, report):
    assert code == 2
    tree = cli.read_report(report)
    assert (tree["status"], tree["error_code"]) == ("ConfigError", "config")


class TestConfigKeys:
    @pytest.mark.parametrize("mode, keys", [
        ("solve", {"params": "abc"}),
        ("solve", {"params": [1, 2]}),
        ("solve", {"verify_tol": "x"}),
        ("solve", {"seed": "x"}),
        ("solve", {"datum": {"dump": 5}}),
        ("solve", {"datum": {"expr": 5}}),
        ("solve", {"solver": [1, 2]}),
        ("solve", {"verify_tol": float("nan")}),
        ("solve", {"verify_tol": -1.0}),
        ("selftest", {"seed": -1}),
        ("solve", {"seed": 1.5}),
        ("solve", {"params": {"n": True}}),
        ("solve", {"params": {"l1": "1"}}),
        ("solve", {"params": {"bogus": 1}}),
        ("solve", {"verfy_tol": 1e-8}),
    ], ids=["params-text", "params-list", "verify_tol-text", "seed-text", "dump-number",
            "expr-number", "solver-list", "verify_tol-nan", "verify_tol-negative",
            "seed-negative", "seed-fraction", "n-bool", "l1-text", "params-unknown",
            "misspelt-key"])
    def test_malformed_key_exits_two_with_report(self, tmp_path, mode, keys):
        # each of these used to end in a traceback, in exit 3 or 4, or ran
        # with the value changed or dropped
        assert_config_error(*run_config(tmp_path, mode, {"mode": mode, **STDMA_8, **keys}))

    def test_non_string_out_exits_two(self, tmp_path, capsys, monkeypatch):
        # "out": 5 died in Path() with a TypeError traceback
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", mode="solve", **STDMA_8, out=5)
        assert cli.main(["solve", "--config", cfg]) == 2
        assert "config error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_mode_key_is_optional(self, tmp_path):
        # the command line names the mode, yet a config without one exited 2
        code, report = run_config(tmp_path, "selftest", {"seed": 0})
        assert code == 0
        assert cli.read_report(report)["status"] == "Pass"

    def test_mode_key_must_match_command_line(self, tmp_path):
        # the command line silently overrode a different mode in the config
        assert_config_error(*run_config(tmp_path, "selftest", {"mode": "solve", "seed": 0}))

    @pytest.mark.parametrize("family, grid, datum, keys", [
        ("STDMA", [8, 8], "0.01*sin(2*pi*x)", {"params": {"l1": 2.0}}),
        ("STDMA", [8, 8], "0.01*sin(2*pi*x)", {"params": {"c": 1.0}}),
        ("STDMA", [8, 8], "0.01*sin(2*pi*x)", {"h": "0.3*sin(2*pi*x)"}),
        ("DETA_T3", [8, 8, 8], "0.01*sin(2*pi*x1)", {"params": {"n": 3}}),
        ("LAGR_X1X2", [8, 8], "0.01*sin(2*pi*x)", {"params": {"m1": 0.3}}),
        ("WARPED", [8, 8], "0.01*sin(2*pi*x)", {"h": "0.3*sin(2*pi*x)", "params": {"h": 0.3}}),
    ], ids=["STDMA-l1", "STDMA-c", "STDMA-h", "DETA_T3-n", "LAGR_X1X2-m1", "WARPED-params-h"])
    def test_unread_family_parameter_exits_two(self, tmp_path, family, grid, datum, keys):
        # these ran with the value silently dropped; LAGR_X1X2 solved with
        # m1 and then failed verification, as its coframe has no
        # first-order terms
        body = {"mode": "solve", "family": family, "grid": grid, "datum": {"expr": datum}, **keys}
        assert_config_error(*run_config(tmp_path, "solve", body))

    @pytest.mark.parametrize("family, params", [
        ("LAGR_X1X2", {"l1": "1"}), ("NDIM_HESSIAN", {"n": 2.0}),
    ])
    def test_family_parameter_types_are_checked(self, tmp_path, family, params):
        # float("1") and int(2.0) used to accept both
        body = {"mode": "solve", "family": family, "grid": [8, 8], "params": params,
                "datum": {"expr": "0.01*sin(2*pi*x1)" if family == "NDIM_HESSIAN"
                          else "0.01*sin(2*pi*x)"}}
        assert_config_error(*run_config(tmp_path, "solve", body))

    def test_grid_must_match_the_family_dimension(self, tmp_path):
        # a 3-d dump on a 3-d grid passed every check for the 2-d STDMA and
        # exited 3 as a solver failure
        g = TorusGrid((8, 8, 8))
        dumpio.write_field(tmp_path / "d.tma", ScalarField(g, np.zeros(g.sizes)))
        body = {"mode": "manufacture", **STDMA_8, "grid": [8, 8, 8],
                "datum": {"dump": str(tmp_path / "d.tma")}}
        assert_config_error(*run_config(tmp_path, "manufacture", body))

    def test_deeply_nested_config_exits_two(self, tmp_path):
        # json.loads raised RecursionError, a traceback
        p = tmp_path / "cfg.json"
        p.write_text("[" * 100000 + "]" * 100000)
        assert cli.main(["selftest", "--config", str(p)]) == 2

    def test_unencodable_text_is_escaped_in_the_report(self, tmp_path):
        # a lone surrogate in the config died in a UnicodeEncodeError while
        # the report was written
        body = {"mode": "solve", **STDMA_8, "family": "\ud800"}
        assert_config_error(*run_config(tmp_path, "solve", body))

    def test_nul_in_out_exits_two(self, tmp_path, monkeypatch):
        # an embedded NUL escaped from mkdir as a ValueError traceback
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", mode="selftest", out="a\x00b", seed=0)
        assert cli.main(["selftest", "--config", cfg]) == 2


class TestSeveralConfigs:
    def test_each_config_gets_its_own_report(self, tmp_path):
        # "seed": -1 exited 3 as a solver failure
        bad = write_config(tmp_path / "bad.json", mode="selftest", seed=-1,
                           out=str(tmp_path / "bad"))
        good = write_config(tmp_path / "good.json", mode="selftest", seed=0,
                            out=str(tmp_path / "good"))
        assert cli.main(["selftest", "--config", bad, "--config", good]) == 2
        assert cli.read_report(tmp_path / "good" / "report.txt")["status"] == "Pass"
        assert cli.read_report(tmp_path / "bad" / "report.txt")["status"] == "ConfigError"

    def test_unreadable_config_does_not_stop_the_others(self, tmp_path):
        # one config that was not JSON used to stop every run
        (tmp_path / "bad.json").write_text("{not json")
        good = write_config(tmp_path / "good.json", mode="selftest", seed=0,
                            out=str(tmp_path / "good"))
        assert cli.main(["selftest", "--config", str(tmp_path / "bad.json"),
                         "--config", good]) == 2
        assert cli.read_report(tmp_path / "good" / "report.txt")["status"] == "Pass"


# Arbitrary JSON; integers stay within 16 where they could size a grid or a
# solver budget.
def _json(ints):
    return st.recursive(
        st.none() | st.booleans() | ints | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=6)


_ANY, _SMALL = _json(st.integers()), _json(st.integers(-16, 16))
_PLAUSIBLE_PARAMS = {"l1": 1.0, "l2": 1.0, "m1": 0.3, "m2": -0.2, "c": 1.0, "n": 2}


@st.composite
def _configs(draw):
    """A configuration that mostly runs, with up to three keys replaced by
    arbitrary JSON or left out, or a misspelt key added."""
    family = draw(st.sampled_from(list(eq.Family)))
    names = eq.family_axis_names(family)
    reads = eq.FAMILY_PARAMETERS[family]
    amplitude = draw(st.sampled_from(["0.01", "0.5", "-0.02"]))
    expr = {"expr": f"{amplitude}*sin(2*pi*{names[0]})*cos(2*pi*{names[-1]})"}
    body = {
        "family": family.value, "grid": [8] * len(names), "seed": 0,
        "params": {k: _PLAUSIBLE_PARAMS[k] for k in reads if k != "h"},
        "datum": draw(st.sampled_from([expr, {"dump": "@dump"}])),
        "solution": draw(st.sampled_from([expr, {"dump": "@dump"}])),
        "solver": {"max_steps": 4, "lin_maxiter": 100}, "verify_tol": 1e-8, "csv": False,
    }
    if "h" in reads:
        body["h"] = f"0.3*sin(2*pi*{names[0]})"
    for key in draw(st.lists(st.sampled_from([*cli._KEYS, "verfy_tol"]), max_size=3)):
        choice = draw(st.sampled_from(["drop", "json"]))
        if choice == "drop":
            body.pop(key, None)
        else:
            body[key] = draw(_SMALL if key in ("grid", "solver") else _ANY)
    return body


def _dump(d, sizes, body):
    return b"TMA1" + struct.pack(f"<I{len(sizes)}Q", d, *sizes) + body


_DUMPS = (st.binary(max_size=64)
          | st.builds(_dump, st.integers(0, 6),
                      st.lists(st.sampled_from([0, 8, 16, 2**40]), max_size=4),
                      st.binary(max_size=600))
          | st.lists(st.floats(-0.01, 0.01) | st.floats(), min_size=64, max_size=64).map(
              lambda v: _dump(2, [8, 8], np.array(v, dtype="<f8").tobytes())))


class TestConfigFuzz:
    # extreme dumped values overflow inside verification, which warns; the
    # examples are derandomized so that the suite's run time stays fixed
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mode=st.sampled_from(cli._MODES), body=_configs(), dump=_DUMPS)
    def test_any_config_ends_in_a_documented_exit_code(self, mode, body, dump):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "d.tma").write_bytes(dump)
            text = json.dumps(body).replace('"@dump"', json.dumps(str(tmp / "d.tma")))
            (tmp / "cfg.json").write_text(text, encoding="utf-8")
            code = cli.main([mode, "--config", str(tmp / "cfg.json"), "--out", str(tmp / "run")])
            # verify and selftest solve nothing, so they never exit 3
            assert code in ((0, 2, 4) if mode in ("verify", "selftest") else (0, 2, 3, 4))
            assert (tmp / "run" / "report.txt").exists()
