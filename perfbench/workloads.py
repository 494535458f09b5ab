"""Inputs, timed pipelines and correctness gates of the benchmark workloads.

Every input is made from the seed.  Seed 0 reproduces the manufactured
solutions u* and warp profiles h of acceptance criterion 4 exactly.  Any
other seed translates each u* and h by a whole number of grid cells along
every axis.  The inputs then differ from seed to seed while the work (node,
Newton and Krylov counts, including the capped GMRES solves) stays that of
criterion 4, so the spread over seeds measures the machine, not the data.

A case is one timed pipeline plus a gate.  The gate uses criterion 4's own
tolerances: the solve converges, `verify_solution` passes at
100 * newton_tol, and max|u - u*| <= 1e-7 on T^2 and <= 1e-6 on T^3 and up.
Every `cli.main` call must return 0 and write the expected report status.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from torus_ma import cli, dumpio
from torus_ma import equations as eq
from torus_ma import solver as sv
from torus_ma import verify as vf
from torus_ma.grid import TorusGrid, project_mean_zero

CFG = sv.SolverConfig()
# 100 * newton_tol at the default newton_tol of 1e-10; fixed here so that a
# looser default cannot loosen the gate with it
VERIFY_TOL = 1e-8


def err_tol(d: int) -> float:
    return 1e-7 if d == 2 else 1e-6


@dataclass
class Case:
    """One pipeline: `run` is timed; `check(run())` returns (problems, max_err)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], float | None]]


# Candidate solutions and warp profiles as expressions of the base
# coordinates.  `{x}` stands for the (possibly translated) coordinate x, so
# the same text serves the library cases and the CLI configurations; both
# are evaluated by cli.evaluate_expression.
STAR_T2 = "0.012*sin(2*pi*{x})*cos(2*pi*{y}) + 0.002*cos(2*pi*{x})*sin(4*pi*{y})"
STAR_T3 = "0.01*sin(2*pi*{x1})*cos(2*pi*{y1}) + 0.008*cos(2*pi*{x2})*sin(2*pi*{y1})"
# criterion 9's candidate for the Hessian family, on three base coordinates
STAR_N3 = "0.008*sin(2*pi*{a})*cos(2*pi*{b}) + 0.006*cos(2*pi*{b})*sin(2*pi*{c})"
STAR = {
    eq.Family.DETA_T3: STAR_T3,
    eq.Family.WARPED_T3: STAR_T3,
    eq.Family.NDIM_HESSIAN: STAR_N3.format(a="{x1}", b="{x2}", c="{x3}"),
    eq.Family.NDIM_B: STAR_N3.format(a="{z1}", b="{z2}", c="{z3}"),
    # plus a term along the fibre coordinate y1
    eq.Family.NDIM_FULL: STAR_N3.format(a="{x1}", b="{x2}", c="{x3}")
    + " + 0.005*sin(2*pi*{x1})*cos(2*pi*{y1})",
}
H_WARPED = "0.3*sin(2*pi*{x})"
H_WARPED_T3 = "0.2*sin(2*pi*{x1}) + 0.15*cos(2*pi*{y1})"


def _shifts(rng: np.random.Generator | None, sizes: tuple[int, ...]) -> tuple[int, ...]:
    if rng is None:
        return (0,) * len(sizes)
    return tuple(int(rng.integers(n)) for n in sizes)


def _fill(template: str, names: tuple[str, ...], sizes, shifts) -> str:
    """Substitute each coordinate, translated by shift/size of a period."""
    subs = {}
    for name, n, k in zip(names, sizes, shifts):
        subs[name] = name if k == 0 else f"({name}-{k / n!r})"
    return template.format(**subs)


# ---------------------------------------------------------------------------
# library pipeline: continuity_solve + verify_solution
# ---------------------------------------------------------------------------

@dataclass
class SolveCase:
    label: str
    family: eq.Family
    sizes: tuple[int, ...]
    params: dict
    h: str | None = None


def _solve_case(sc: SolveCase, rng) -> Case:
    grid = TorusGrid(sc.sizes)
    n = int(sc.params.get("n", 2))
    names = eq.family_axis_names(sc.family, n)
    shifts = _shifts(rng, sc.sizes)
    h = None if sc.h is None else cli.evaluate_expression(
        _fill(sc.h, names, sc.sizes, shifts), grid, names)
    spec = eq.EquationSpec(sc.family, h=h, **sc.params)
    u_star = project_mean_zero(cli.evaluate_expression(
        _fill(STAR.get(sc.family, STAR_T2), names, sc.sizes, shifts), grid, names))
    F = eq.normalize_datum(spec, eq.manufactured_datum(spec, u_star))
    tol = err_tol(grid.d)

    def run():
        rep = sv.continuity_solve(spec, F, CFG)
        return rep, vf.verify_solution(rep.u, F, spec, tol=VERIFY_TOL)

    def check(out):
        rep, ver = out
        problems = []
        if not rep.converged:
            problems.append(f"solve ended {rep.status.value}")
        if not ver.passed:
            problems.append(f"verify_solution failed at tol {VERIFY_TOL:.0e}")
        err = float(np.max(np.abs(rep.u.values - u_star.values)))
        if not err <= tol:
            problems.append(f"max|u-u*| = {err:.2e} > {tol:.0e}")
        return problems, err

    return Case(sc.label, run, check)


T2 = (64, 64)
T3 = (32, 32, 32)
LAGR = {"m1": 0.3, "m2": -0.2}

WARPED_CAPPED = (
    SolveCase("WARPED(c=1) 64^2", eq.Family.WARPED, T2, {"c": 1.0}, H_WARPED),
    SolveCase("WARPED(c=0) 64^2", eq.Family.WARPED, T2, {"c": 0.0}, H_WARPED),
    SolveCase("WARPED_T3 32^3", eq.Family.WARPED_T3, T3, {}, H_WARPED_T3),
)

CATALOG_HEALTHY = (
    SolveCase("STDMA 64^2", eq.Family.STDMA, T2, {}),
    SolveCase("GENMA 64^2", eq.Family.GENMA, T2, {}),
    SolveCase("LAGR_X1X2(+1) 64^2", eq.Family.LAGR_X1X2, T2, {"l1": 1.0, "l2": 1.0}),
    SolveCase("LAGR_X1X2(-1) 64^2", eq.Family.LAGR_X1X2, T2, {"l1": -1.0, "l2": -1.0}),
    SolveCase("LAGR_X2Y1(+1) 64^2", eq.Family.LAGR_X2Y1, T2, {"l1": 1.0, "l2": 1.0, **LAGR}),
    SolveCase("LAGR_X2Y1(-1) 64^2", eq.Family.LAGR_X2Y1, T2, {"l1": -1.0, "l2": -1.0, **LAGR}),
    SolveCase("DETA_T3 32^3", eq.Family.DETA_T3, T3, {}),
    SolveCase("NDIM_HESSIAN(n=3) 24^3", eq.Family.NDIM_HESSIAN, (24,) * 3, {"n": 3}),
    SolveCase("NDIM_B(n=3) 24^3", eq.Family.NDIM_B, (24,) * 3, {"n": 3}),
    SolveCase("NDIM_FULL(n=3) 12^4", eq.Family.NDIM_FULL, (12,) * 4, {"n": 3}),
)


# ---------------------------------------------------------------------------
# CLI pipeline: cli.main in-process, --jobs 1, inside a scratch directory
# ---------------------------------------------------------------------------

CLI_GEOMETRIC = (
    SolveCase("STDMA 256^2", eq.Family.STDMA, (256, 256), {}),
    SolveCase("GENMA 256^2", eq.Family.GENMA, (256, 256), {}),
    SolveCase("LAGR_X2Y1(-1) 256^2", eq.Family.LAGR_X2Y1, (256, 256),
              {"l1": -1.0, "l2": -1.0, **LAGR}),
    SolveCase("WARPED(c=1) 256^2", eq.Family.WARPED, (256, 256), {"c": 1.0}, H_WARPED),
    SolveCase("DETA_T3 64^3", eq.Family.DETA_T3, (64,) * 3, {}),
    SolveCase("WARPED_T3 64^3", eq.Family.WARPED_T3, (64,) * 3, {}, H_WARPED_T3),
    SolveCase("NDIM_HESSIAN(n=3) 64^3", eq.Family.NDIM_HESSIAN, (64,) * 3, {"n": 3}),
    SolveCase("NDIM_FULL(n=3) 16^4", eq.Family.NDIM_FULL, (16,) * 4, {"n": 3}),
)
CLI_SOLVE = SolveCase("STDMA 64^2", eq.Family.STDMA, T2, {})

EXPECTED_STATUS = {"manufacture": "Manufactured", "solve": "Converged",
                   "verify": "Verified", "selftest": "Pass"}


def _write_config(path: Path, body: dict) -> Path:
    path.write_text(json.dumps(body, indent=1), encoding="utf-8")
    return path


def _cli_chain(label: str, steps: list[tuple[str, Path, Path]],
               solution_check: tuple[Path, Path] | None = None) -> Case:
    """Run `cli.main(mode --config cfg --jobs 1)` for each step in order.

    Every step writes into its own output directory, which must not exist
    yet: the benchmark never passes --force.
    """

    def run():
        return [cli.main([mode, "--config", str(cfg), "--jobs", "1"]) for mode, cfg, _ in steps]

    def check(codes):
        problems = []
        for (mode, _, out), code in zip(steps, codes):
            if code != 0:
                problems.append(f"{mode} exited {code}")
                continue
            status = cli.read_report(out / "report.txt").get("status")
            if status != EXPECTED_STATUS[mode]:
                problems.append(f"{mode} reported status {status!r}")
        err = None
        if solution_check is not None and not problems:
            u_path, star_path = solution_check
            u, star = dumpio.read_field(u_path), dumpio.read_field(star_path)
            err = float(np.max(np.abs(u.values - star.values)))
            tol = err_tol(u.grid.d)
            if not err <= tol:
                problems.append(f"max|u-u*| = {err:.2e} > {tol:.0e}")
        return problems, err

    return Case(label, run, check)


def _cli_cases(seed: int, rng, root: Path) -> list[Case]:
    """Write every configuration under root/configs; outputs go to root/runs."""
    configs = root / "configs"
    runs = root / "runs"
    configs.mkdir()
    cases = []

    def base(sc: SolveCase, shifts) -> tuple[dict, str]:
        n = int(sc.params.get("n", 2))
        names = eq.family_axis_names(sc.family, n)
        body = {"family": sc.family.value, "grid": list(sc.sizes), "params": sc.params,
                "verify_tol": VERIFY_TOL, "seed": seed}
        if sc.h is not None:
            body["h"] = _fill(sc.h, names, sc.sizes, shifts)
        return body, _fill(STAR.get(sc.family, STAR_T2), names, sc.sizes, shifts)

    for k, sc in enumerate(CLI_GEOMETRIC):
        body, star = base(sc, _shifts(rng, sc.sizes))
        m_out, v_out = runs / f"{k}-manufacture", runs / f"{k}-verify"
        m_cfg = _write_config(configs / f"{k}-manufacture.json", {
            **body, "mode": "manufacture", "datum": {"expr": star}, "out": str(m_out)})
        v_cfg = _write_config(configs / f"{k}-verify.json", {
            **body, "mode": "verify", "datum": {"dump": str(m_out / "datum.tma")},
            "solution": {"dump": str(m_out / "u_star.tma")}, "out": str(v_out)})
        cases.append(_cli_chain(f"manufacture+verify {sc.label}",
                                [("manufacture", m_cfg, m_out), ("verify", v_cfg, v_out)]))

    body, star = base(CLI_SOLVE, _shifts(rng, CLI_SOLVE.sizes))
    m_out, s_out, v_out = runs / "solve-manufacture", runs / "solve-solve", runs / "solve-verify"
    m_cfg = _write_config(configs / "solve-manufacture.json", {
        **body, "mode": "manufacture", "datum": {"expr": star}, "out": str(m_out)})
    s_cfg = _write_config(configs / "solve-solve.json", {
        **body, "mode": "solve", "datum": {"dump": str(m_out / "datum.tma")}, "out": str(s_out)})
    v_cfg = _write_config(configs / "solve-verify.json", {
        **body, "mode": "verify", "datum": {"dump": str(s_out / "datum.tma")},
        "solution": {"dump": str(s_out / "u.tma")}, "out": str(v_out)})
    cases.append(_cli_chain(
        f"manufacture+solve+verify {CLI_SOLVE.label}",
        [("manufacture", m_cfg, m_out), ("solve", s_cfg, s_out), ("verify", v_cfg, v_out)],
        solution_check=(s_out / "u.tma", m_out / "u_star.tma")))

    t_out = runs / "selftest"
    t_cfg = _write_config(configs / "selftest.json",
                          {"mode": "selftest", "seed": seed, "out": str(t_out)})
    cases.append(_cli_chain("selftest", [("selftest", t_cfg, t_out)]))
    return cases


# ---------------------------------------------------------------------------

@dataclass
class Workload:
    cases: list[Case]
    # called after every pass, outside the timed region
    reset: Callable[[], None] = lambda: None


def build(name: str, seed: int, scratch: Path | None) -> Workload:
    """Make the workload's inputs.  `scratch` is an empty directory that the
    caller owns and removes; only the CLI workload writes into it."""
    rng = None if seed == 0 else np.random.default_rng(seed)
    if name == "warped-capped":
        return Workload([_solve_case(sc, rng) for sc in WARPED_CAPPED])
    if name == "catalog-healthy":
        return Workload([_solve_case(sc, rng) for sc in CATALOG_HEALTHY])
    if name == "cli-geometric":
        runs = scratch / "runs"

        def reset():
            if runs.exists():
                shutil.rmtree(runs)

        return Workload(_cli_cases(seed, rng, scratch), reset)
    raise ValueError(f"unknown workload {name!r}")
