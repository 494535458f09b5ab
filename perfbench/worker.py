"""One fresh process that sets up and runs one workload; see run.py.

Prints one JSON object as its last line of standard output.  Set-up time
runs from `--t-spawn`, the parent's time.perf_counter() just before it
started this process (CLOCK_MONOTONIC is shared by all processes), to the
moment the inputs are ready, so it includes interpreter start-up and
`import torus_ma`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="trace, and write the spans to this file")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import torus_ma  # set-up includes the package import

    if src not in Path(torus_ma.__file__).resolve().parents:
        raise SystemExit(f"torus_ma was not imported from {src}")

    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.build(args.workload, args.seed, scratch)
        setup_s = time.perf_counter() - args.t_spawn
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = {"setup_s": setup_s, **measure(wl, args)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(wl, args) -> dict:
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    passes, failures, errors = [], [], []
    attempted = failed = 0
    t_begin = time.perf_counter()
    while True:
        k = len(passes)
        times = []
        with (tracer.span("bench.pass", **{"pass": k}) if tracer else nullcontext()):
            for case in wl.cases:
                with (tracer.span("bench.case", case=case.name) if tracer else nullcontext()):
                    t0 = time.perf_counter()
                    out = case.run()
                    times.append(time.perf_counter() - t0)
                with (tracer.paused() if tracer else nullcontext()):
                    problems, err = case.check(out)
                attempted += 1
                failed += bool(problems)
                if err is not None:
                    errors.append(err)
                failures += [f"pass {k} {case.name}: {p}" for p in problems]
        wl.reset()
        passes.append({"wall_s": sum(times), "slowest_case_s": max(times),
                       "cases": dict(zip((c.name for c in wl.cases), times))})
        elapsed = time.perf_counter() - t_begin
        # start another pass only if it should end within the budget
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    result = {
        "passes": passes,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "slowest_case_s": statistics.median(p["slowest_case_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "max_err": max(errors) if errors else 0.0,
        "provenance": provenance(),
    }
    if tracer is not None:
        tracer.uninstall()
        result.update(summarize(tracer, args, result["max_err"]))
    return result


def summarize(tracer, args, max_err: float) -> dict:
    from tracing import Summary

    summary = Summary(tracer.spans)
    passes = sum(1 for span in tracer.spans if span[0] == "bench.pass")
    per_pass = [summary.layer_metrics(k) for k in range(passes)]
    layers = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
    layers["solver.max_err"] = max_err
    Path(args.spans).write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "attrs"],
        "spans": tracer.spans,
    }), encoding="utf-8")
    return {"layers": layers, "case_counts": summary.case_counts(0)}


def scipy_fft_backend() -> str:
    """Class name of scipy.fft's global backend; _ScipyBackend is pocketfft."""
    try:
        from scipy._lib import uarray

        return uarray.get_state()._pickle()[0]["numpy.scipy.fft"][0][0].__name__
    except (ImportError, AttributeError, IndexError, KeyError, TypeError):
        return "unknown"


def provenance() -> dict:
    """Versions and backends as this process imported them."""
    import numpy as np
    import scipy
    import scipy.fft

    def blas(show_config):
        try:
            dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_fft_backend": "pocketfft" if hasattr(np.fft, "_pocketfft_umath") else "unknown",
        "scipy_fft_backend": scipy_fft_backend(),
        "scipy_fft_workers": scipy.fft.get_workers(),
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "TORUS_MA_THREADS")},
    }


if __name__ == "__main__":
    sys.exit(main())
