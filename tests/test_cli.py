import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_ma import cli, dumpio
from torus_ma.grid import ScalarField, TorusGrid, from_function

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

    def test_refuses_overwrite_without_force(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.json", mode="selftest", out=str(out), seed=0)
        assert cli.main(["selftest", "--config", cfg]) == 0
        assert cli.main(["selftest", "--config", cfg]) == 2
        assert cli.main(["selftest", "--config", cfg, "--force"]) == 0

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
