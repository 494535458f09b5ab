"""Batch front door: configuration parsing, pipeline orchestration, reports.

One run maps one JSON configuration to one output directory holding a
structured-text report plus binary field dumps.  Modes:

  manufacture  evaluate a candidate solution expression, emit the datum that
               it solves exactly, and dump both fields
  solve        normalize the datum, run the continuity solver, verify the
               solution geometrically, dump fields and report
  verify       re-check a dumped solution against a datum
  selftest     run the coframe identity suites and report the worst defects

Exit codes: 0 success, 2 configuration error (a grid too large for the
memory available included), 3 solver failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, is_dataclass
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
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
               ast.Div: operator.truediv, ast.Pow: operator.pow}


def evaluate_expression(expr: str, grid: TorusGrid, names: tuple[str, ...]) -> ScalarField:
    """Evaluate a whitelisted arithmetic expression of the grid coordinates.

    Allowed: numbers, pi, the coordinate names, + - * / ** with numeric
    exponents, unary minus, and calls to sin, cos, exp.  Anything else is a
    configuration error; no general evaluation happens.  Numbers are NumPy
    floats, so 1/0 or (-1)**0.5 give a non-finite value, not an exception.
    """
    if len(names) != grid.d:
        raise ConfigError(f"expected {grid.d} coordinate names, got {names}")
    env = {name: coord for name, coord in zip(names, grid.coords)}
    env["pi"] = np.float64(np.pi)

    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, ValueError, MemoryError) as exc:  # NUL byte; too deeply nested
        raise ConfigError(f"cannot parse expression {expr!r}: {exc}") from exc

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                return np.float64(node.value)
            raise ConfigError(f"literal {node.value!r} not allowed")
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            raise ConfigError(f"unknown name {node.id!r}; allowed: {sorted(env)}")
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
            return _UNARY_OPS[type(node.op)](ev(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Pow) and not isinstance(b, float):
                raise ConfigError("exponents must be numeric constants")
            return _BINARY_OPS[type(node.op)](a, b)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn = _ALLOWED_CALLS.get(node.func.id)
            if fn is None or node.keywords or len(node.args) != 1:
                raise ConfigError(f"call {ast.dump(node.func)} not allowed")
            return fn(ev(node.args[0]))
        raise ConfigError(f"expression node {type(node).__name__} not allowed")

    try:
        with np.errstate(all="ignore"):
            vals = ev(tree)
        return ScalarField(grid, vals)
    except (ValueError, OverflowError, RecursionError) as exc:  # huge literal; deep nesting
        raise ConfigError(f"expression {expr!r} does not evaluate to a finite "
                          f"field: {exc}") from exc


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_MODES = ("manufacture", "solve", "verify", "selftest")
_FIELD_MODES = _MODES[:3]


@dataclass
class RunConfig:
    """A configuration file as read; `run` parses `raw` with `parse_config`."""

    mode: str
    out: Path
    raw: dict


def load_config(path: str | Path, mode: str, out_override: str | None = None) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    out = out_override or raw.get("out", "run_out")
    if not isinstance(out, str):
        raise ConfigError(f"out must be a path, got {out!r}")
    return RunConfig(mode, Path(out), raw)


def _kind(v, kind, want: str, ok=lambda v: True):
    """v itself if it is a `kind` that passes `ok`; a boolean is never a number."""
    if isinstance(v, bool) != (kind is bool) or not isinstance(v, kind) or not ok(v):
        raise ValueError(f"must be {want}, got {v!r}")
    return v


def _real(v, want: str = "a finite number", ok=lambda x: -math.inf < x < math.inf) -> float:
    return float(_kind(v, (int, float), want, ok))


def _optional(parse, required_in=()):
    """`parse` for a key without a default: None when left out."""
    def parse_given(v, c):
        if v is None and c["mode"] in required_in:
            raise ValueError(f"is required in {c['mode']} mode")
        return None if v is None else parse(v, c)
    return parse_given


def _mode(v, c) -> str:
    if v not in (None, c["mode"]):
        raise ValueError(f"is {v!r}, but the command line runs {c['mode']!r}")
    return c["mode"]


def _params(v, c) -> dict:
    reads = [k for k in eq.FAMILY_PARAMETERS.get(c["family"], ()) if k != "h"]  # h is a key
    if not set(_kind(v, dict, "an object")) <= set(reads):
        raise ValueError(f"the family reads only {reads}, got {sorted(v)}")
    return {k: _kind(x, int, "an integer") if k == "n" else _real(x) for k, x in v.items()}


def _h(v, c) -> ScalarField:
    if "h" not in eq.FAMILY_PARAMETERS.get(c["family"], ()):
        raise ValueError("the family does not read h")
    names = eq.family_axis_names(c["family"], c["params"].get("n", 2))
    return evaluate_expression(_kind(v, str, "an expression"), c["grid"], names)


def _entry(v, c) -> dict:
    return _kind(v, dict, "{'expr': text} or {'dump': path}",
                 lambda v: len(v) == 1 and isinstance(v.get("expr", v.get("dump")), str))


# Every configuration key with its default and its parser, parse(value,
# parsed), where `parsed` holds the keys above it.  A default is parsed like
# a given value; None stands for a key left out.
_KEYS = {
    "mode": (None, _mode),
    "out": ("run_out", lambda v, c: _kind(v, str, "a path")),
    "family": (None, _optional(lambda v, c: eq.Family(v), _FIELD_MODES)),
    "grid": ([32, 32], lambda v, c: TorusGrid(
        tuple(_kind(n, int, "an integer") for n in _kind(v, list, "a list")))),
    "params": ({}, _params),
    "h": (None, _optional(_h)),
    "datum": (None, _optional(_entry, _FIELD_MODES)),
    "solution": (None, _optional(_entry, ("verify",))),
    "solver": ({}, lambda v, c: SolverConfig(**_kind(v, dict, "an object"))),
    "verify_tol": (1e-8, lambda v, c: _real(v, "positive", lambda x: 0 < x < math.inf)),
    "seed": (0, lambda v, c: _kind(v, int, "a non-negative integer", lambda x: x >= 0)),
    "csv": (False, lambda v, c: _kind(v, bool, "true or false")),
}


def parse_config(cfg: RunConfig) -> dict:
    """The run's settings by key, each parsed once by its entry in `_KEYS`."""
    unknown = sorted(set(cfg.raw) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown keys {unknown}; the keys are {list(_KEYS)}")
    c = {"mode": cfg.mode}
    for key, (default, parse) in _KEYS.items():
        try:
            c[key] = parse(cfg.raw.get(key, default), c)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return c


def build_spec(c: dict) -> eq.EquationSpec:
    try:
        spec = eq.EquationSpec(c["family"], h=c["h"], **c["params"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if spec.dim != c["grid"].d:
        raise ConfigError(f"{spec.family.value} lives on a {spec.dim}-torus, "
                          f"the grid has {c['grid'].d} axes")
    return spec


def _load_field(entry: dict, grid: TorusGrid, names: tuple[str, ...]) -> ScalarField:
    if "expr" in entry:
        return evaluate_expression(entry["expr"], grid, names)
    try:
        f = dumpio.read_field(entry["dump"])
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if f.grid.sizes != grid.sizes:
        raise ConfigError(f"dump {entry['dump']} has sizes {f.grid.sizes}, "
                          f"config wants {grid.sizes}")
    return f


# ---------------------------------------------------------------------------
# structured-text report
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# written as \uXXXX escapes of their own inside a quoted text: surrogates,
# which UTF-8 cannot encode, and the line breaks of `str.splitlines` that
# JSON leaves bare
_ESCAPED = re.compile("[\x85\u2028\u2029\ud800-\udfff]")
_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')
_ESCAPE = re.compile(r'\\(?:u([0-9a-fA-F]{4})|(["\\/bfnrt]))')
_SIMPLE = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}


def _text(text: str, key: bool = False) -> str:
    """text as a report writes it: verbatim where `read_report` gives it back
    unchanged, else as a JSON string (a line break, surrounding blanks, an
    empty text, a leading double quote, a colon in a key, or a surrogate).
    A quoted text keeps other non-ASCII characters as they are and writes
    each surrogate as its own escape, so a surrogate pair stays two."""
    if (text and text == text.strip() and text.splitlines() == [text]
            and not text.startswith('"') and not (key and ":" in text)
            and not _ESCAPED.search(text)):
        return text
    return _ESCAPED.sub(lambda m: f"\\u{ord(m[0]):04x}", json.dumps(text, ensure_ascii=False))


def _unquote(text: str) -> tuple[str, int]:
    """The quoted text at the start of `text` and the index past it.  Each
    escape is read on its own: \\uXXXX is one character, never paired."""
    m = _QUOTED.match(text)
    if m is None:
        raise ValueError(f"unterminated quoted text: {text!r}")
    return _ESCAPE.sub(lambda e: chr(int(e[1], 16)) if e[1] else _SIMPLE[e[2]], m[1]), m.end()


def write_report(path: str | Path, tree: dict) -> None:
    """Write a nested mapping as an indented key/value tree (UTF-8)."""
    lines: list[str] = []

    def emit(node, depth):
        for key, val in node.items():
            key = _text(str(key), key=True)
            if isinstance(val, dict):
                lines.append("  " * depth + f"{key}:")
                emit(val, depth + 1)
            elif isinstance(val, (list, tuple)):
                lines.append("  " * depth + f"{key}:")
                emit({str(i): v for i, v in enumerate(val)}, depth + 1)
            else:
                lines.append("  " * depth + f"{key}: {_text(_fmt(val))}")

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
        text = line.strip()
        if text.startswith('"'):
            key, end = _unquote(text)
            rest = text[end + 1:]  # past the colon
        else:
            key, _, rest = text.partition(":")
        rest = rest.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1]
        if rest == "":
            child: dict = {}
            parent[key] = child
            stack.append((depth, child))
        else:
            parent[key] = _unquote(rest)[0] if rest.startswith('"') else rest
    return root


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

_OUTPUTS = ("report.txt", "*.tma", "*.csv")
_EXIT_CODES = {"none": 0, "config": 2, "solver": 3, "verify": 4, "selftest": 4}


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
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot use output directory {out}: {exc}") from exc
    return out


def _monitors_tree(report) -> dict:
    out = {key: asdict(val) if is_dataclass(val) else val
           for key, val in report.monitors.items()}
    out["sigma_min_witness"] = report.sigma_min_witness
    return out


def _verify_into(tree: dict, u, F, spec, tol: float) -> bool:
    """Verify u against the datum F into `tree`: its verification and error
    code, or error code "verify" and the message of the ValueError that its
    forms raise.  Returns whether it passed."""
    try:
        ver = verify_solution(u, F, spec, tol=tol)
    except ValueError as exc:  # the forms of an extreme candidate overflow
        tree.update(error_code="verify", message=str(exc))
        return False
    tree["verification"] = asdict(ver)
    tree["error_code"] = "none" if ver.passed else "verify"
    return ver.passed


def run(cfg: RunConfig, force: bool = False) -> int:
    """Execute one configuration; returns the process exit status."""
    t_start = time.time()
    try:
        out = _prepare_out(cfg, force)
        return _run_into(cfg, out, t_start)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except OSError as exc:  # the accepted directory takes no file, e.g. a too long path
        print(f"config error: cannot write into output directory {out}: {exc}", file=sys.stderr)
    return 2


def _run_into(cfg: RunConfig, out: Path, t_start: float) -> int:
    """Run `cfg` with its dumps and report written into the accepted `out`."""
    tree: dict = {"config": {"mode": cfg.mode}}
    artifacts: dict = {}

    try:
        c = parse_config(cfg)
        tree["config"].update(family=c["family"].value if c["family"] else "-",
                              grid="x".join(map(str, c["grid"].sizes)), seed=c["seed"])
        if cfg.mode == "selftest":
            tree["selftest"], ok = _selftest(c["seed"])
            tree["status"] = "Pass" if ok else "Fail"
            tree["error_code"] = "none" if ok else "selftest"
        else:
            spec = build_spec(c)
            datum = _load_field(c["datum"], c["grid"], spec.axis_names)
        if cfg.mode == "verify":
            solution = _load_field(c["solution"], c["grid"], spec.axis_names)
            passed = _verify_into(tree, solution, datum, spec, c["verify_tol"])
            tree["status"] = "Verified" if passed else "VerifyFailed"
        try:
            if cfg.mode == "manufacture":
                u_star = project_mean_zero(datum)
                F = eq.manufactured_datum(spec, u_star)
                dumpio.write_field(out / "u_star.tma", u_star)
                dumpio.write_field(out / "datum.tma", F)
                if c["csv"]:
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
                F = eq.normalize_datum(spec, datum)
                shift = float(datum.values.ravel()[0] - F.values.ravel()[0])
                report = continuity_solve(spec, F, c["solver"])
                t_solve = time.time()
                tree["normalization_shift"] = shift
                tree["trace"] = [asdict(node) for node in report.trace]
                tree["rejected"] = [{**asdict(a), "status": a.status.value}
                                    for a in report.rejected]
                tree["monitors"] = _monitors_tree(report)
                tree["status"] = report.status.value
                dumpio.write_field(out / "u.tma", report.u)
                dumpio.write_field(out / "datum.tma", F)
                if c["csv"]:
                    dumpio.write_csv(out / "u.csv", report.u)
                    dumpio.write_csv(out / "datum.csv", F)
                artifacts = {"u": "u.tma", "datum": "datum.tma"}
                if not report.converged:
                    tree["error_code"] = "solver"
                else:  # the status stays the solver's: the solve converged
                    _verify_into(tree, report.u, F, spec, c["verify_tol"])
                tree.setdefault("timing", {})["solve_seconds"] = t_solve - t_start
        except ValueError as exc:
            tree.update(status="SolverError", error_code="solver", message=str(exc))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        tree.update(status="ConfigError", error_code="config", message=str(exc))
    except MemoryError:  # the failed step's arrays are freed with its frames
        message = "out of memory: the grid needs more memory than is available"
        print(message, file=sys.stderr)
        tree.update(status="OutOfMemory", error_code="config", message=message)

    tree["config"]["source"] = {k: v for k, v in cfg.raw.items() if k != "mode"}
    if artifacts:
        tree["artifacts"] = artifacts
    tree.setdefault("timing", {})["total_seconds"] = time.time() - t_start
    write_report(out / "report.txt", tree)
    return _EXIT_CODES[tree["error_code"]]


# ---------------------------------------------------------------------------
# selftest suites
# ---------------------------------------------------------------------------

def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))


def _selftest(seed: int) -> tuple[dict, bool]:
    """Identity suites: type decomposition and top-form ratios for the flat,
    warped, and Lagrangian coframes on small grids.  Each suite draws five
    fields u, each followed by the specs that its maker draws."""
    rng = np.random.default_rng(seed)
    tol = 1e-10
    results: dict = {}
    ok = True

    def lagrangian():
        a, c0 = rng.uniform(0.6, 1.6, 2)
        lam1, lam2 = rng.uniform(-1.0, 1.0, 2)
        xx = eq.CoframeParams(scale_x=a, scale_y=c0, shear=rng.uniform(-1, 1),
                              lam1=lam1, lam2=lam2)
        xy = eq.CoframeParams(scale_x=a, scale_y=c0, shear=rng.uniform(-1, 1),
                              lam=rng.uniform(-1, 1), mu=rng.uniform(-1, 1))
        return (eq.EquationSpec.lagr_x1x2_from_coframe(xx),
                eq.EquationSpec.lagr_x2y1_from_coframe(xy))

    g3 = TorusGrid((16, 16, 16))
    suites = (("flat", g3, lambda: (eq.EquationSpec(eq.Family.DETA_T3),)),
              ("warped", g3, lambda: (eq.EquationSpec(eq.Family.WARPED_T3, h=random_trig_field(
                  g3, rng, max_mode=1, scale=0.3, axes=(0, 2))),)),
              ("lagrangian", TorusGrid((32, 32)), lagrangian))
    for name, grid, specs in suites:
        worst_anti, worst_ratio = 0.0, 0.0
        for _ in range(5):
            u = random_trig_field(grid, rng, max_mode=2, scale=0.05)
            for spec in specs():
                w, da, _ = nf.ansatz_forms(u, eq.structure_for(spec, grid))
                # np.maximum keeps a NaN defect, which max(worst, nan) drops
                worst_anti = np.maximum(worst_anti,
                                        nf.anti_invariant_norm(da) / max(1.0, da.max_norm()))
                worst_ratio = np.maximum(worst_ratio, _rel(
                    nf.top_form_ratio(w).values, eq.residual(spec, u).values))
        results[f"{name}_anti_max"] = float(worst_anti)
        results[f"{name}_ratio_max"] = float(worst_ratio)
        ok = ok and worst_anti <= tol and worst_ratio <= tol
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
    parser.add_argument("mode", choices=_MODES, help="pipeline stage to run")
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

    codes, configs = [], []
    for path in args.config:
        try:
            configs.append(load_config(path, args.mode, args.out))
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            codes.append(2)
    # no more workers than configs: the pool starts all of them up front
    jobs = min(max(1, args.jobs), len(configs))
    if jobs <= 1:
        codes += [run(cfg, args.force) for cfg in configs]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            codes += pool.map(run, configs, [args.force] * len(configs))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
