"""The solver's hard cases, run by hand (pytest does not collect this file):

    PYTHONPATH=src python tests/hard_cases.py [CASE ...]

- hard-48: the hard datum F = 8 sin(2 pi x) cos(4 pi y), normalized, STDMA
  at 48^2 with the default config;
- hard-48-delta: the same with delta = 1e-9;
- warped-8, warped-16: the coarse WARPED case, c = 1, h = 0.3 sin(2 pi x),
  with the normalized datum -0.02 sin(2 pi x) cos(2 pi y), at 8^2 and 16^2.

For each case it prints the status, the operator applies, the capped Krylov
solves, the accepted and rejected continuation nodes, sigma_min_witness and
the wall time of `continuity_solve`.  It also prints the points that the
ellipticity monitor handed to LAPACK (`np.linalg.eigvalsh`, wrapped here):
their mean per monitor call and the most in one call, as a share of the
grid's points.  Naming cases runs only those.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from torus_ma import EquationSpec, Family, ScalarField, SolverConfig, TorusGrid, continuity_solve
from torus_ma import solver
from torus_ma.equations import normalize_datum


def _hard(n: int, **solver) -> tuple:
    g = TorusGrid((n, n))
    x, y = g.coords
    spec = EquationSpec(Family.STDMA)
    F = ScalarField(g, 8.0 * np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y))
    return spec, normalize_datum(spec, F), SolverConfig(**solver)


def _warped(n: int) -> tuple:
    g = TorusGrid((n, n))
    x, y = g.coords
    h = ScalarField(g, 0.3 * np.sin(2 * np.pi * x))
    spec = EquationSpec(Family.WARPED, c=1.0, h=h)
    F = ScalarField(g, -0.02 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    return spec, normalize_datum(spec, F), SolverConfig()


CASES = {
    "hard-48": lambda: _hard(48),
    "hard-48-delta": lambda: _hard(48, delta=1e-9),
    "warped-8": lambda: _warped(8),
    "warped-16": lambda: _warped(16),
}


def main(names: list[str]) -> None:
    lapack: list[int] = []  # the points each monitor call handed to LAPACK
    eigvalsh, monitor = np.linalg.eigvalsh, solver.ellipticity_monitor

    def counted_eigvalsh(a):
        lapack[-1] += len(a)
        return eigvalsh(a)

    def counted_monitor(ev):
        lapack.append(0)
        return monitor(ev)

    np.linalg.eigvalsh, solver.ellipticity_monitor = counted_eigvalsh, counted_monitor
    print(f"{'case':14} {'status':20} {'applies':>8} {'capped':>6} {'nodes':>5} "
          f"{'rejected':>8} {'sigma_min_witness':>17} {'time_s':>7} "
          f"{'lapack_mean':>11} {'lapack_max':>10}")
    for name in names or CASES:
        spec, F, cfg = CASES[name]()
        lapack.clear()
        t0 = time.perf_counter()
        rep = continuity_solve(spec, F, cfg)
        secs = time.perf_counter() - t0
        share = [k / F.grid.npoints for k in lapack]
        print(f"{name:14} {rep.status.value:20} {rep.monitors['krylov_matvecs']:8d} "
              f"{rep.monitors['krylov_capped']:6d} {len(rep.trace) - 1:5d} "
              f"{len(rep.rejected):8d} {rep.sigma_min_witness:17.3e} {secs:7.2f} "
              f"{np.mean(share):11.1%} {max(share):10.1%}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
