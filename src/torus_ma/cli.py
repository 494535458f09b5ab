"""Batch front door: configuration parsing, pipeline orchestration, reports.

One run maps one JSON configuration to one output directory holding a
structured-text report plus binary field dumps.  Modes:

  manufacture  evaluate a candidate solution expression, emit the datum that
               it solves exactly, and dump both fields
  solve        normalize the datum, run the continuity solver, verify the
               solution geometrically, dump fields and report
  verify       re-check a dumped solution against a datum
  selftest     run the coframe identity suites and report the worst defects

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field as dc_field, is_dataclass
from fnmatch import fnmatch
from pathlib import Path

import numpy as np

from . import dumpio
from . import equations as eq
from . import nilframe as nf
from .grid import ScalarField, TorusGrid, project_mean_zero, random_trig_field
from .solver import SolverConfig, continuity_solve
from .verify import verify_solution


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


def evaluate_expression(expr: str, grid: TorusGrid, names: tuple[str, ...]) -> ScalarField:
    """Evaluate a whitelisted arithmetic expression of the grid coordinates.

    Allowed: numbers, pi, the coordinate names, + - * / ** with numeric
    exponents, unary minus, and calls to sin, cos, exp.  Anything else is a
    configuration error; no general evaluation happens.
    """
    if len(names) != grid.d:
        raise ConfigError(f"expected {grid.d} coordinate names, got {names}")
    env = {name: coord for name, coord in zip(names, grid.coords)}
    env["pi"] = np.pi

    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {expr!r}: {exc}") from exc

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                return float(node.value)
            raise ConfigError(f"literal {node.value!r} not allowed")
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            raise ConfigError(f"unknown name {node.id!r}; allowed: {sorted(env)}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)):
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.Div):
                return a / b
            if not isinstance(b, float):
                raise ConfigError("exponents must be numeric constants")
            return a ** b
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn = _ALLOWED_CALLS.get(node.func.id)
            if fn is None or node.keywords or len(node.args) != 1:
                raise ConfigError(f"call {ast.dump(node.func)} not allowed")
            return fn(ev(node.args[0]))
        raise ConfigError(f"expression node {type(node).__name__} not allowed")

    with np.errstate(all="ignore"):
        vals = ev(tree)
    try:
        return ScalarField(grid, np.broadcast_to(vals, grid.sizes).astype(float))
    except ValueError as exc:
        raise ConfigError(f"expression {expr!r} does not evaluate to a finite "
                          f"field: {exc}") from exc


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    mode: str
    family: str | None
    grid_sizes: tuple[int, ...]
    params: dict
    h_expr: str | None
    datum: dict | None
    solution: dict | None
    solver: SolverConfig
    verify_tol: float
    out: Path
    seed: int
    csv: bool
    raw: dict = dc_field(default_factory=dict)


_MODES = ("manufacture", "solve", "verify", "selftest")


def load_config(path: str | Path, out_override: str | None = None) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    mode = raw.get("mode")
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    family = raw.get("family")
    if mode != "selftest" and family is None:
        raise ConfigError("family is required outside selftest mode")
    grid_sizes = raw.get("grid", [32, 32])
    if not isinstance(grid_sizes, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) for n in grid_sizes):
        raise ConfigError(f"grid must be a list of integers, got {grid_sizes!r}")
    csv = raw.get("csv", False)
    if not isinstance(csv, bool):
        raise ConfigError(f"csv must be true or false, got {csv!r}")
    params = dict(raw.get("params", {}))
    solver_kwargs = dict(raw.get("solver", {}))
    try:
        solver = SolverConfig(**solver_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver settings: {exc}") from exc
    out = Path(out_override) if out_override else Path(raw.get("out", "run_out"))
    datum = raw.get("datum")
    if mode in ("manufacture", "solve", "verify") and not isinstance(datum, dict):
        raise ConfigError("datum must be an object with 'expr' or 'dump'")
    solution = raw.get("solution")
    if mode == "verify" and not isinstance(solution, dict):
        raise ConfigError("verify mode needs a 'solution' dump entry")
    for entry in (datum, solution):
        if isinstance(entry, dict) and "dump" in entry:
            if not Path(entry["dump"]).exists():
                raise ConfigError(f"referenced dump {entry['dump']} does not exist")
    return RunConfig(
        mode=mode,
        family=family,
        grid_sizes=tuple(grid_sizes),
        params=params,
        h_expr=raw.get("h"),
        datum=datum,
        solution=solution,
        solver=solver,
        verify_tol=float(raw.get("verify_tol", 1e-8)),
        out=out,
        seed=int(raw.get("seed", 0)),
        csv=csv,
        raw=raw,
    )


def build_spec(cfg: RunConfig, grid: TorusGrid) -> eq.EquationSpec:
    try:
        family = eq.Family(cfg.family)
    except ValueError as exc:
        raise ConfigError(f"unknown family {cfg.family!r}") from exc
    params = cfg.params
    try:
        n = int(params.get("n", 2))
        h = None
        if cfg.h_expr is not None:
            h = evaluate_expression(cfg.h_expr, grid, eq.family_axis_names(family, n))
        return eq.EquationSpec(
            family,
            l1=float(params.get("l1", 1.0)),
            l2=float(params.get("l2", 1.0)),
            m1=float(params.get("m1", 0.0)),
            m2=float(params.get("m2", 0.0)),
            c=float(params.get("c", 0.0)),
            h=h,
            n=n,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _load_field(entry: dict, grid: TorusGrid, names: tuple[str, ...]) -> ScalarField:
    if "expr" in entry:
        return evaluate_expression(entry["expr"], grid, names)
    if "dump" in entry:
        try:
            f = dumpio.read_field(entry["dump"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if f.grid.sizes != grid.sizes:
            raise ConfigError(f"dump {entry['dump']} has sizes {f.grid.sizes}, "
                              f"config wants {grid.sizes}")
        return f
    raise ConfigError("field entry needs 'expr' or 'dump'")


# ---------------------------------------------------------------------------
# structured-text report
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_report(path: str | Path, tree: dict) -> None:
    """Write a nested mapping as an indented key/value tree (UTF-8)."""
    lines: list[str] = []

    def emit(node, depth):
        for key, val in node.items():
            if isinstance(val, dict):
                lines.append("  " * depth + f"{key}:")
                emit(val, depth + 1)
            elif isinstance(val, (list, tuple)):
                lines.append("  " * depth + f"{key}:")
                emit({str(i): v for i, v in enumerate(val)}, depth + 1)
            else:
                lines.append("  " * depth + f"{key}: {_fmt(val)}")

    emit(tree, 0)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_report(path: str | Path) -> dict:
    """Parse the indented key/value tree back into nested string dicts."""
    root: dict = {}
    stack: list[tuple[int, dict]] = [(-1, root)]
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        depth = (len(line) - len(line.lstrip(" "))) // 2
        key, _, rest = line.strip().partition(":")
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1]
        if rest.strip() == "":
            child: dict = {}
            parent[key] = child
            stack.append((depth, child))
        else:
            parent[key] = rest.strip()
    return root


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

_OUTPUTS = ("report.txt", "*.tma", "*.csv")


def _prepare_out(cfg: RunConfig, force: bool) -> Path:
    """Create the output directory; `force` clears only what a run writes."""
    out = cfg.out
    try:
        entries = list(out.iterdir()) if out.exists() else []
        if entries and not force:
            raise ConfigError(f"output directory {out} is not empty (use --force)")
        foreign = sorted(p.name for p in entries if not (
            p.is_file() and any(fnmatch(p.name, pat) for pat in _OUTPUTS)))
        if foreign:
            raise ConfigError(f"--force only replaces {', '.join(_OUTPUTS)}; "
                              f"{out} also holds {foreign}")
        for p in entries:
            p.unlink()
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out}: {exc}") from exc
    return out


def _monitors_tree(report) -> dict:
    out = {key: asdict(val) if is_dataclass(val) else val
           for key, val in report.monitors.items()}
    out["sigma_min_witness"] = report.sigma_min_witness
    return out


def run(cfg: RunConfig, force: bool = False) -> int:
    """Execute one configuration; returns the process exit status."""
    t_start = time.time()
    out = _prepare_out(cfg, force)
    tree: dict = {"config": {
        "mode": cfg.mode,
        "family": cfg.family or "-",
        "grid": "x".join(str(s) for s in cfg.grid_sizes),
        "seed": cfg.seed,
        "source": {k: v for k, v in cfg.raw.items() if k != "mode"},
    }}
    artifacts: dict = {}
    status = 0

    try:
        if cfg.mode == "selftest":
            tree["selftest"], ok = _selftest(cfg.seed)
            tree["status"] = "Pass" if ok else "Fail"
            tree["error_code"] = "none" if ok else "selftest"
            status = 0 if ok else 4
        else:
            try:
                grid = TorusGrid(cfg.grid_sizes)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad grid sizes {cfg.grid_sizes}: {exc}") from exc
            spec = build_spec(cfg, grid)
            names = spec.axis_names

            if cfg.mode == "manufacture":
                u_star = project_mean_zero(_load_field(cfg.datum, grid, names))
                F = eq.manufactured_datum(spec, u_star)
                dumpio.write_field(out / "u_star.tma", u_star)
                dumpio.write_field(out / "datum.tma", F)
                if cfg.csv:
                    dumpio.write_csv(out / "u_star.csv", u_star)
                    dumpio.write_csv(out / "datum.csv", F)
                artifacts = {"u_star": "u_star.tma", "datum": "datum.tma"}
                tree["manufacture"] = {
                    "datum_max": F.max_norm(),
                    "mass": float(np.mean(np.exp(F.values))),
                }
                tree["status"] = "Manufactured"
                tree["error_code"] = "none"

            elif cfg.mode == "solve":
                F_raw = _load_field(cfg.datum, grid, names)
                F = eq.normalize_datum(spec, F_raw)
                shift = float(F_raw.values.ravel()[0] - F.values.ravel()[0])
                report = continuity_solve(spec, F, cfg.solver)
                t_solve = time.time()
                tree["normalization_shift"] = shift
                tree["trace"] = [asdict(node) for node in report.trace]
                tree["rejected"] = [{**asdict(a), "status": a.status.value}
                                    for a in report.rejected]
                tree["monitors"] = _monitors_tree(report)
                tree["status"] = report.status.value
                dumpio.write_field(out / "u.tma", report.u)
                dumpio.write_field(out / "datum.tma", F)
                if cfg.csv:
                    dumpio.write_csv(out / "u.csv", report.u)
                artifacts = {"u": "u.tma", "datum": "datum.tma"}
                if not report.converged:
                    tree["error_code"] = "solver"
                    status = 3
                else:
                    ver = verify_solution(report.u, F, spec, tol=cfg.verify_tol)
                    tree["verification"] = asdict(ver)
                    tree["error_code"] = "none" if ver.passed else "verify"
                    status = 0 if ver.passed else 4
                tree.setdefault("timing", {})["solve_seconds"] = t_solve - t_start

            elif cfg.mode == "verify":
                u = _load_field(cfg.solution, grid, names)
                F = _load_field(cfg.datum, grid, names)
                ver = verify_solution(u, F, spec, tol=cfg.verify_tol)
                tree["verification"] = asdict(ver)
                tree["status"] = "Verified" if ver.passed else "VerifyFailed"
                tree["error_code"] = "none" if ver.passed else "verify"
                status = 0 if ver.passed else 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        tree["status"] = "ConfigError"
        tree["error_code"] = "config"
        tree["message"] = str(exc)
        status = 2
    except ValueError as exc:
        tree["status"] = "SolverError"
        tree["error_code"] = "solver"
        tree["message"] = str(exc)
        status = 3

    if artifacts:
        tree["artifacts"] = artifacts
    tree.setdefault("timing", {})["total_seconds"] = time.time() - t_start
    write_report(out / "report.txt", tree)
    return status


# ---------------------------------------------------------------------------
# selftest suites
# ---------------------------------------------------------------------------

def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))


def _selftest(seed: int) -> tuple[dict, bool]:
    """Identity suites: type decomposition and top-form ratios for the flat,
    warped, and Lagrangian coframes on small grids."""
    rng = np.random.default_rng(seed)
    tol = 1e-10
    results: dict = {}
    ok = True

    g3 = TorusGrid((16, 16, 16))
    for name in ("flat", "warped"):
        worst_anti, worst_ratio = 0.0, 0.0
        for _ in range(5):
            u = random_trig_field(g3, rng, max_mode=2, scale=0.05)
            if name == "flat":
                spec = eq.EquationSpec(eq.Family.DETA_T3)
            else:
                h = random_trig_field(g3, rng, max_mode=1, scale=0.3, axes=(0, 2))
                spec = eq.EquationSpec(eq.Family.WARPED_T3, h=h)
            st = eq.structure_for(spec, g3)
            w, da = nf.ansatz_forms(u, st)
            _, anti = nf.type_split(da)
            worst_anti = max(worst_anti, anti.max_norm() / max(1.0, da.max_norm()))
            worst_ratio = max(worst_ratio, _rel(
                nf.top_form_ratio(w, st).values, eq.residual(spec, u).values))
        results[f"{name}_anti_max"] = worst_anti
        results[f"{name}_ratio_max"] = worst_ratio
        ok = ok and worst_anti <= tol and worst_ratio <= tol

    g2 = TorusGrid((32, 32))
    worst = 0.0
    for _ in range(5):
        u = random_trig_field(g2, rng, max_mode=2, scale=0.05)
        a, c0 = rng.uniform(0.6, 1.6, 2)
        lam1, lam2 = rng.uniform(-1.0, 1.0, 2)
        params = eq.CoframeParams(scale_x=a, scale_y=c0, shear=rng.uniform(-1, 1),
                                  lam1=lam1, lam2=lam2)
        spec_xx = eq.EquationSpec.lagr_x1x2_from_coframe(params)
        worst = max(worst, _rel(eq.residual_geom(spec_xx, u).values,
                                eq.residual(spec_xx, u).values))
        params_xy = eq.CoframeParams(scale_x=a, scale_y=c0, shear=rng.uniform(-1, 1),
                                     lam=rng.uniform(-1, 1), mu=rng.uniform(-1, 1))
        spec_xy = eq.EquationSpec.lagr_x2y1_from_coframe(params_xy)
        worst = max(worst, _rel(eq.residual_geom(spec_xy, u).values,
                                eq.residual(spec_xy, u).values))
    results["lagrangian_ratio_max"] = worst
    ok = ok and worst <= tol
    return results, ok


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="torus-ma",
        description="solve, manufacture and verify reduced volume equations "
                    "on periodic torus bundles",
    )
    parser.add_argument("mode", choices=_MODES,
                        help="pipeline stage to run (overrides the config's mode)")
    parser.add_argument("--config", action="append", required=True,
                        help="path to a JSON run configuration (repeatable)")
    parser.add_argument("--out", default=None,
                        help="output directory (single-config runs only)")
    parser.add_argument("--force", action="store_true",
                        help="allow writing into a non-empty output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent configs")
    args = parser.parse_args(argv)

    if args.out is not None and len(args.config) > 1:
        print("--out cannot be combined with multiple configs", file=sys.stderr)
        return 2

    try:
        configs = []
        for path in args.config:
            cfg = load_config(path, out_override=args.out)
            cfg.mode = args.mode
            if cfg.mode in ("manufacture", "solve", "verify") and cfg.family is None:
                raise ConfigError("family is required outside selftest mode")
            configs.append(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    jobs = max(1, args.jobs)
    env_cap = os.environ.get("TORUS_MA_THREADS")
    if env_cap:
        try:
            jobs = min(jobs, max(1, int(env_cap)))
        except ValueError:
            print("TORUS_MA_THREADS must be an integer", file=sys.stderr)
            return 2

    try:
        if len(configs) == 1 or jobs == 1:
            codes = [run(cfg, force=args.force) for cfg in configs]
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(run, cfg, args.force) for cfg in configs]
                codes = [f.result() for f in futures]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
