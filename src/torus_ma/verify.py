"""Geometric post-verification of solved potentials.

Rebuilds the candidate symplectic form from a scalar solution, then checks:
the (1,1) type of the update, compatibility positivity of the pairing with
the almost-complex action, the pointwise top-form equation, conservation of
total volume, and whether the solution is a potential in the strict sense
(the correction 1-form's differential wedges to zero against the new form).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nilframe as nf
from .equations import EquationSpec, branch_sign, min_eigenvalue, structure_for, symmetric_part
from .grid import ScalarField, integrate


@dataclass
class VerificationReport:
    anti_invariant_norm: float
    positivity_margin: float
    topform_residual: float
    volume_defect: float
    potential_defect: float
    passed: bool

    def __post_init__(self):
        for name in ("anti_invariant_norm", "topform_residual", "volume_defect",
                     "potential_defect"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative")


def reconstruct_form(
    u: ScalarField,
    spec: EquationSpec,
    structure: nf.NilStructure | None = None,
) -> nf.InvariantForm:
    """omega + d(alpha(u)) on the family's coframe structure."""
    st = structure if structure is not None else structure_for(spec, u.grid)
    return nf.ansatz_forms(u, st)[0]


def compatibility_margin(w: nf.InvariantForm, sign: float = 1.0) -> float:
    """Min over the grid of the smallest eigenvalue of the symmetrized
    pairing w(., J.); positive iff w tames and is compatible with J.  Exact:
    `min_eigenvalue` runs LAPACK only at the Gershgorin candidates.

    `sign` flips the pairing for the families tracking the negative branch,
    where the compatible metric is built from the opposite orientation of the
    almost-complex action (matching the branch adjustment of the ellipticity
    monitor)."""
    st = w.structure
    W = {**w.terms, **{(j, i): -c for (i, j), c in w.terms.items()}}
    # (WJ)[a, b] sums W[a, i] J[i, b] over the nonzeros of column b of J;
    # every coframe's J has one per column, so this is a dense matmul's float
    cols = [[(i, row[b]) for i, row in st.j_table.items() if b in row] for b in range(st.rank)]
    WJ = lambda a, b: sum(W[a, i] * c for i, c in cols[b] if (a, i) in W)
    return min_eigenvalue(symmetric_part(WJ, st.rank, sign))


def _potential_defect(u: ScalarField, w: nf.InvariantForm) -> float:
    st = w.structure
    da_w = nf.wedge(nf.exterior_derivative(nf.ansatz_correction(u, st)), w)
    return da_w.max_norm() / max(nf.wedge(st.omega, st.omega).max_norm(), 1.0)


def potential_defect(
    u: ScalarField,
    spec: EquationSpec,
    structure: nf.NilStructure | None = None,
) -> float:
    """Max coefficient of d(a) ^ w relative to omega^2, where a is the ansatz
    correction (the part of alpha beyond -J du); zero exactly when u is a
    potential for the reconstructed form."""
    return _potential_defect(u, reconstruct_form(u, spec, structure))


def verify_solution(
    u: ScalarField,
    F: ScalarField,
    spec: EquationSpec,
    tol: float = 1e-8,
) -> VerificationReport:
    """All geometric checks on a candidate solution u with datum F.

    PASS requires the type defect, the top-form residual and the volume
    defect within tol and a strictly positive compatibility margin; the
    potential defect is reported as information (it is an intrinsic property
    of the family, not an error measure).
    """
    if not u.grid.compatible(F.grid):
        raise ValueError("u and F must share one grid")
    st = structure_for(spec, u.grid)
    w, d_alpha = nf.ansatz_forms(u, st)
    _, anti = nf.type_split(d_alpha)
    anti_norm = anti.max_norm()

    ratio = nf.top_form_ratio(w, st)
    topform = float(np.max(np.abs(ratio.values - np.exp(F.values))))
    volume = abs(integrate(ratio) - 1.0)
    margin = compatibility_margin(w, sign=branch_sign(spec))
    pot = _potential_defect(u, w)
    passed = bool(anti_norm <= tol and topform <= tol and volume <= tol and margin > 0.0)
    return VerificationReport(
        anti_invariant_norm=anti_norm,
        positivity_margin=margin,
        topform_residual=topform,
        volume_defect=volume,
        potential_defect=pot,
        passed=passed,
    )
