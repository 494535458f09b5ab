"""Span tracing of torus_ma from outside the package.

`Tracer.install()` rebinds, in every torus_ma namespace that holds them:

- the public functions of the torus_ma modules,
- the `gmres` that torus_ma.solver calls,
- every transform entry point of numpy.fft and scipy.fft (complex and real,
  1-D and n-D), also where a torus_ma module imported one by name.

Each call through a rebound name appends a span [name, start, end, parent,
attrs] to an in-memory list.  `uninstall()` restores the original bindings.
Nothing under src/ changes, so every layer is measured at its call sites.

A transform is one call of an entry point; a transform made inside another
(scipy.fft.fft2 calling fftn, say) is not counted again.  So `grid.transforms`
keeps its meaning if the grid switches between complex and real transforms or
between NumPy and SciPy.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from contextlib import contextmanager

import numpy as np

MODULES = ("grid", "nilframe", "equations", "solver", "verify", "dumpio", "cli")
TRANSFORM_MODULES = {
    "numpy.fft": ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                  "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"),
    "scipy.fft": ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                  "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft", "hfft2",
                  "ihfft2", "hfftn", "ihfftn", "dct", "idct", "dst", "idst", "dctn",
                  "idctn", "dstn", "idstn"),
}
TRANSFORM = "fft."


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0) or np.asarray(x).nbytes)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = True
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._build = -1  # span of the latest outermost linearizer build

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """A span of the benchmark's own, such as one pass or one case."""
        idx = self._open(name)
        self.spans[idx][4] = attrs or None
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own gate checks) leave no span."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, after=None, name_of=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name_of(args) if name_of else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                out = after(idx, args, out)
            return out

        return traced

    def _wrap_transform(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active or (stack and spans[stack[-1]][0].startswith(TRANSFORM)):
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            spans[idx][4] = {"bytes": _nbytes(args[0]) + _nbytes(out)}
            return out

        return traced

    def _after_linearizer(self, idx, args, apply):
        if self._inside("equations.linearizer"):
            return apply  # the dealiased operator's inner build

        def tag(j, _args, out):
            self.spans[j][4] = {"build": idx}
            return out

        self._build = idx
        return self._wrap(apply, "equations.apply", after=tag)

    def _after_gmres(self, idx, args, out):
        self.spans[idx][4] = {"info": int(out[1]), "build": self._build}
        return out

    def _after_newton(self, idx, args, out):
        self.spans[idx][4] = {"converged": bool(out.converged)}
        return out

    def _after_dump(self, idx, args, out):
        self.spans[idx][4] = {"bytes": os.path.getsize(args[0])}
        return out

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import torus_ma

        mods = [importlib.import_module(f"torus_ma.{m}") for m in MODULES]
        solver = importlib.import_module("torus_ma.solver")
        replace: dict[int, object] = {}

        special = {
            "equations.linearizer": {"after": self._after_linearizer},
            "solver.newton_solve": {"after": self._after_newton},
            "dumpio.write_field": {"after": self._after_dump},
            "dumpio.write_csv": {"after": self._after_dump},
            "dumpio.read_field": {"after": self._after_dump},
            "cli.run": {"name_of": lambda args: f"cli.run.{args[0].mode}"},
        }
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    replace[id(val)] = self._wrap(val, name, **special.get(name, {}))
        replace[id(solver.gmres)] = self._wrap(solver.gmres, "solver.gmres",
                                               after=self._after_gmres)

        fft_namespaces = []
        for modname, names in TRANSFORM_MODULES.items():
            fmod = importlib.import_module(modname)
            fft_namespaces.append(fmod)
            for attr in names:
                fn = getattr(fmod, attr, None)
                if fn is not None:
                    replace[id(fn)] = self._wrap_transform(fn, f"{TRANSFORM}{modname}.{attr}")

        for ns in [torus_ma, *mods, *fft_namespaces]:
            for attr, val in list(vars(ns).items()):
                wrapper = replace.get(id(val))
                if wrapper is not None:
                    self._saved.append((ns, attr, val))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, val in reversed(self._saved):
            setattr(ns, attr, val)
        self._saved.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

# span name -> layer group; calls and inclusive time count a group's
# outermost spans only, so mixed_derivative's inner derivatives or the
# dealiased residual's recursion are not counted twice
GROUP = {
    "grid.derivative": "grid.derivative",
    "grid.mixed_derivative": "grid.derivative",
    "grid.invert_shifted_laplacian": "grid.precond",
    "equations.residual": "equations.residual",
    "equations.linearizer": "equations.linearizer",
    "equations.apply": "equations.apply",
    "equations.coefficient_matrix": "equations.coefficient_matrix",
    "solver.continuity_solve": "solver.continuity",
    "solver.newton_solve": "solver.newton",
    "solver.gmres": "solver.krylov",
    "solver.ellipticity_monitor": "solver.ellipticity",
    "solver.gradient_bound_monitor": "solver.gradient_bound",
    "nilframe.exterior_derivative": "nilframe.exterior_derivative",
    "nilframe.wedge": "nilframe.wedge",
    "nilframe.top_form_ratio": "nilframe.top_form_ratio",
    "nilframe.type_split": "nilframe.type_split",
    "verify.verify_solution": "verify.verify_solution",
    "verify.compatibility_margin": "verify.compatibility_margin",
    "dumpio.write_field": "dumpio.write",
    "dumpio.write_csv": "dumpio.write",
    "dumpio.read_field": "dumpio.read",
    "cli.load_config": "cli.load_config",
    "cli.evaluate_expression": "cli.evaluate_expression",
    "cli.write_report": "cli.write_report",
    "cli.run.manufacture": "cli.run.manufacture",
    "cli.run.solve": "cli.run.solve",
    "cli.run.verify": "cli.run.verify",
    "cli.run.selftest": "cli.run.selftest",
}

# (metric, unit); `better` is "lower" for all of them
LAYER_METRICS = (
    ("grid.transforms", "count"),
    ("grid.transform_s", "s"),
    ("grid.transform_bytes", "B"),
    ("grid.transforms_per_apply", "count/apply"),
    ("grid.derivative.calls", "count"),
    ("grid.derivative.s", "s"),
    ("grid.precond.calls", "count"),
    ("grid.precond.s", "s"),
    ("equations.residual.calls", "count"),
    ("equations.residual.s", "s"),
    ("equations.linearizer.calls", "count"),
    ("equations.linearizer.s", "s"),
    ("equations.apply.calls", "count"),
    ("equations.apply.s", "s"),
    ("equations.apply.self_s", "s"),
    ("equations.coefficient_matrix.calls", "count"),
    ("equations.coefficient_matrix.s", "s"),
    ("solver.continuity.s", "s"),
    ("solver.nodes.accepted", "count"),
    ("solver.nodes.rejected", "count"),
    ("solver.newton.steps", "count"),
    ("solver.newton.steps_per_node", "count/node"),
    ("solver.newton.trials_per_step", "count/step"),
    ("solver.krylov.solves", "count"),
    ("solver.krylov.s", "s"),
    ("solver.krylov.self_s", "s"),
    ("solver.krylov.applies_per_solve", "count/solve"),
    ("solver.krylov.unconverged", "count"),
    ("solver.krylov.unconverged_apply_frac", "fraction"),
    ("solver.ellipticity.calls", "count"),
    ("solver.ellipticity.s", "s"),
    ("solver.gradient_bound.s", "s"),
    ("solver.max_err", "1"),
    ("nilframe.exterior_derivative.calls", "count"),
    ("nilframe.exterior_derivative.s", "s"),
    ("nilframe.wedge.calls", "count"),
    ("nilframe.wedge.s", "s"),
    ("nilframe.top_form_ratio.s", "s"),
    ("nilframe.type_split.s", "s"),
    ("verify.verify_solution.calls", "count"),
    ("verify.verify_solution.s", "s"),
    ("verify.verify_solution.self_s", "s"),
    ("verify.compatibility_margin.s", "s"),
    ("dumpio.write.calls", "count"),
    ("dumpio.write.bytes", "B"),
    ("dumpio.write.s", "s"),
    ("dumpio.read.calls", "count"),
    ("dumpio.read.bytes", "B"),
    ("dumpio.read.s", "s"),
    ("cli.load_config.s", "s"),
    ("cli.evaluate_expression.calls", "count"),
    ("cli.evaluate_expression.s", "s"),
    ("cli.write_report.s", "s"),
    ("cli.run.manufacture.s", "s"),
    ("cli.run.solve.s", "s"),
    ("cli.run.verify.s", "s"),
    ("cli.run.selftest.s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Summary:
    """Per-span facts computed once: group path, self time, enclosing case."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        self.path: list[frozenset] = [frozenset()] * n  # groups at and above
        self.outer = [False] * n
        self.case: list[str | None] = [None] * n
        self.passno = [-1] * n
        self.group = [None] * n
        for i, (name, _, _, parent, attrs) in enumerate(spans):
            above = self.path[parent] if parent >= 0 else frozenset()
            g = "grid.transform" if name.startswith(TRANSFORM) else GROUP.get(name)
            self.group[i] = g
            self.outer[i] = g is not None and g not in above
            self.path[i] = above | {g} if self.outer[i] else above
            if parent >= 0:
                child[parent] += self.dur[i]
                self.case[i] = self.case[parent]
                self.passno[i] = self.passno[parent]
            if name == "bench.case":
                self.case[i] = attrs["case"]
            elif name == "bench.pass":
                self.passno[i] = attrs["pass"]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def counts(self, select) -> dict:
        """Raw per-group sums over the outermost spans i with select(i)."""
        calls: dict[str, int] = {}
        secs: dict[str, float] = {}
        self_s: dict[str, float] = {}
        nbytes: dict[str, int] = {}
        in_solve = {"transforms": 0, "applies": 0}
        builds: dict[int, int] = {}  # linearizer build -> applies
        info: dict[int, int] = {}  # linearizer build -> gmres info
        newton_ellipticity = newton_builds = accepted = rejected = unconverged = 0
        for i, span in enumerate(self.spans):
            if not self.outer[i] or not select(i):
                continue
            g = self.group[i]
            attrs = span[4] or {}
            calls[g] = calls.get(g, 0) + 1
            secs[g] = secs.get(g, 0.0) + self.dur[i]
            self_s[g] = self_s.get(g, 0.0) + self.self_time[i]
            nbytes[g] = nbytes.get(g, 0) + attrs.get("bytes", 0)
            inside = self.path[i]
            if "solver.continuity" in inside and g in ("grid.transform", "equations.apply"):
                in_solve["transforms" if g == "grid.transform" else "applies"] += 1
            if g == "equations.apply" and "build" in attrs:
                builds[attrs["build"]] = builds.get(attrs["build"], 0) + 1
            elif g == "solver.krylov":
                info[attrs["build"]] = attrs["info"]
                unconverged += attrs["info"] != 0
            elif g == "solver.newton":
                accepted += attrs["converged"]
                rejected += not attrs["converged"]
            if "solver.newton" in inside:
                newton_ellipticity += g == "solver.ellipticity"
                newton_builds += g == "equations.linearizer"
        return {"calls": calls, "s": secs, "self_s": self_s, "bytes": nbytes,
                "in_solve": in_solve, "builds": builds, "info": info,
                "newton_ellipticity": newton_ellipticity, "newton_builds": newton_builds,
                "accepted": accepted, "rejected": rejected, "unconverged": unconverged}

    def layer_metrics(self, passno: int) -> dict[str, float]:
        """Every LAYER_METRICS value except solver.max_err and
        trace.overhead_frac, over the spans of one pass."""
        c = self.counts(lambda i: self.passno[i] == passno)
        calls, secs, self_s, nbytes = c["calls"], c["s"], c["self_s"], c["bytes"]
        applies = calls.get("equations.apply", 0)
        solves = calls.get("solver.krylov", 0)
        nodes = c["accepted"] + c["rejected"]
        steps = c["newton_builds"]
        capped_applies = sum(n for b, n in c["builds"].items() if c["info"].get(b, 0))
        m = {
            "grid.transforms": calls.get("grid.transform", 0),
            "grid.transform_s": secs.get("grid.transform", 0.0),
            "grid.transform_bytes": nbytes.get("grid.transform", 0),
            "grid.transforms_per_apply": _ratio(c["in_solve"]["transforms"],
                                                c["in_solve"]["applies"]),
            "solver.nodes.accepted": c["accepted"],
            "solver.nodes.rejected": c["rejected"],
            "solver.newton.steps": steps,
            "solver.newton.steps_per_node": _ratio(steps, nodes),
            "solver.newton.trials_per_step": _ratio(c["newton_ellipticity"] - nodes, steps),
            "solver.krylov.applies_per_solve": _ratio(applies, solves),
            "solver.krylov.unconverged": c["unconverged"],
            "solver.krylov.unconverged_apply_frac": _ratio(capped_applies, applies),
            "solver.krylov.self_s": self_s.get("solver.krylov", 0.0),
            "equations.apply.self_s": self_s.get("equations.apply", 0.0),
            "verify.verify_solution.self_s": self_s.get("verify.verify_solution", 0.0),
            "dumpio.write.bytes": nbytes.get("dumpio.write", 0),
            "dumpio.read.bytes": nbytes.get("dumpio.read", 0),
            "solver.krylov.solves": solves,
        }
        for metric, _ in LAYER_METRICS:
            if metric in m:
                continue
            group, _, kind = metric.rpartition(".")
            if kind == "calls":
                m[metric] = calls.get(group, 0)
            elif kind == "s":
                m[metric] = secs.get(group, 0.0)
        return m

    def case_counts(self, passno: int) -> dict[str, dict]:
        """Solve-level counts per case of one pass, as in the ROADMAP table."""
        out = {}
        for case in dict.fromkeys(c for c, p in zip(self.case, self.passno)
                                  if c is not None and p == passno):
            c = self.counts(lambda i: self.passno[i] == passno and self.case[i] == case)
            out[case] = {
                "linear_solves": c["calls"].get("solver.krylov", 0),
                "applies": c["calls"].get("equations.apply", 0),
                "unconverged": c["unconverged"],
                "capped_applies": [n for b, n in c["builds"].items() if c["info"].get(b, 0)],
                "solve_transforms": c["in_solve"]["transforms"],
                "solve_applies": c["in_solve"]["applies"],
            }
        return out
