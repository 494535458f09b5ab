"""torus-ma benchmark: time to verified solutions, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Each workload runs in fresh worker processes (worker.py):

- `--trace 0`: five set-up probes, which build the inputs and stop, then one
  worker that repeats the whole batch while the next pass should still end
  within S seconds.  Prints the end-to-end metrics.
- `--trace 1`: one untraced and one traced worker, S/2 seconds each.
  Prints the per-layer metrics; `trace.overhead_frac` compares the two.

Every case is checked (workloads.py); each failure is printed by name, and
`correct` is false if any case failed.  A results file with provenance goes
to perfbench/out/, and the spans of a traced run beside it.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("warped-capped", "catalog-healthy", "cli-geometric")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # a run must end within 180 s

# Counts of the traced run at seed 0 on the code this benchmark was defined
# against (the ROADMAP baseline).  A mismatch is reported, not failed: an
# optimisation is expected to change them.
BASELINE_COUNTS = {
    "warped-capped": {"solver.krylov.solves": 27, "equations.apply.calls": 2128,
                      "solver.krylov.unconverged": 3},
    "catalog-healthy": {"solver.krylov.unconverged": 0},
}
BASELINE_CASE_COUNTS = {
    "catalog-healthy": {"STDMA 64^2": {"solve_applies": 80, "solve_transforms": 1046},
                        "DETA_T3 32^3": {"solve_applies": 90, "solve_transforms": 1475}},
}


class BenchError(Exception):
    pass


def worker(args, deadline: float, *extra: str) -> dict:
    """Start worker.py, wait for it, and return its JSON result."""
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(extra)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(extra)}")
    return json.loads(lines[-1])


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, text=True, capture_output=True,
                               timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": sha or None, "dirty": bool(dirty)}


def baseline_diffs(workload: str, layers: dict, cases: dict) -> list[str]:
    diffs = [f"{m} = {layers[m]} (baseline {want})"
             for m, want in BASELINE_COUNTS.get(workload, {}).items() if layers[m] != want]
    for case, want in BASELINE_CASE_COUNTS.get(workload, {}).items():
        diffs += [f"{case} {k} = {cases[case][k]} (baseline {v})"
                  for k, v in want.items() if cases[case][k] != v]
    return diffs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = time.perf_counter() + DEADLINE_S
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"

    try:
        if args.trace:
            spans = OUT / f"{stem}.spans.json"
            plain = worker(args, deadline, "--seconds", str(args.seconds / 2))
            traced = worker(args, deadline, "--seconds", str(args.seconds / 2),
                            "--spans", str(spans))
            runs = [plain, traced]
            layers = dict(traced["layers"])
            layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
            metrics = {m: layers[m] for m in sorted(layers)}
            from tracing import LAYER_METRICS

            units = dict(LAYER_METRICS)
        else:
            setups = [worker(args, deadline, "--setup-only")["setup_s"]
                      for _ in range(SETUP_PROBES)]
            plain = worker(args, deadline, "--seconds", str(args.seconds))
            setups.append(plain["setup_s"])
            runs = [plain]
            metrics = {"wall_s": plain["wall_s"], "slowest_case_s": plain["slowest_case_s"],
                       "setup_s": statistics.median(setups), "peak_rss_mb": plain["peak_rss_mb"]}
            units = {"wall_s": "s", "slowest_case_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for line in r["failures"]:
            print(f"FAIL {args.workload} {line}")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.6g}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {**plain["provenance"], "git": git_state(), "seed": args.seed},
        "metrics": metrics,
        "fail_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": [line for r in runs for line in r["failures"]],
        "passes": [r["passes"] for r in runs],
    }
    if args.trace:
        record["case_counts"] = traced["case_counts"]
        if args.seed == 0:
            diffs = baseline_diffs(args.workload, layers, traced["case_counts"])
            record["baseline_count_diffs"] = diffs
            for d in diffs:
                print(f"count differs from the baseline: {d}")
    else:
        record["setup_samples_s"] = setups
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
