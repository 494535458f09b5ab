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
from .equations import EquationSpec, _check_grid, branch_sign, min_eigenvalue, structure_for
from .grid import ScalarField, integrate, require_finite


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


def compatibility_margin(w: nf.InvariantForm, sign: float = 1.0) -> float:
    """Min over the grid of the smallest eigenvalue of the symmetrized
    pairing w(., J.); positive iff w tames and is compatible with J.  Exact:
    `min_eigenvalue` runs LAPACK only at the Gershgorin candidates.

    `sign` flips the pairing for the families tracking the negative branch,
    where the compatible metric is built from the opposite orientation of the
    almost-complex action (matching the branch adjustment of the ellipticity
    monitor)."""
    st, W, half = w.structure, w.terms, 0.5 * sign
    cols = [[(i, row[b]) for i, row in st.j_table.items() if b in row] for b in range(st.rank)]

    def products(a, b):
        # the terms W[a, i] J[i, b] of (WJ)[a, b] over column b of J, which
        # has one entry in every coframe, so this is a dense matmul's float;
        # below the diagonal W[a, i] = -W[i, a], and the sign goes on the term
        for i, c in cols[b]:
            key, s = ((a, i), 1) if a < i else ((i, a), -1)
            if key in W:
                yield (key, c, s) if isinstance(c, np.ndarray) else (key, s * c, 1)

    def entry(terms):
        # half * ((WJ)[a, b] + (WJ)[b, a])
        wj = (W[key] * c * s for key, c, s in terms)
        return half * sum(wj, next(wj, 0.0))

    # entries formed from the same products are one array; apart, verification
    # peaks up to 6 fields higher (NDIM_HESSIAN 32^3: 21.30, not 15.30)
    formed: dict = {}
    S = [[0.0] * st.rank for _ in range(st.rank)]
    for a in range(st.rank):
        for b in range(a, st.rank):
            terms = [*products(a, b), *products(b, a)]
            ident = tuple(sorted((k, s, id(c) if isinstance(c, np.ndarray) else c)
                                 for k, c, s in terms))
            if ident not in formed:
                formed[ident] = entry(terms)
            S[a][b] = S[b][a] = formed[ident]
    return min_eigenvalue(S)


def _potential_defect(d_a: nf.InvariantForm, w: nf.InvariantForm) -> float:
    """Max coefficient of d(a) ^ w relative to omega^2, one 4-form key at a time."""
    return nf.wedge_max_norm(d_a, w) / max(w.structure.omega_square_norm, 1.0)


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
    require_finite(F)
    _check_grid(spec, u)
    w, d_alpha, d_a = nf.ansatz_forms(u, structure_for(spec, u.grid))
    anti_norm, pot = nf.anti_invariant_norm(d_alpha), _potential_defect(d_a, w)
    del d_alpha, d_a  # held, every verification peaks 1 to 6 fields higher
    ratio = nf.top_form_ratio(w)
    topform = float(np.max(np.abs(ratio.values - np.exp(F.values))))
    volume = abs(integrate(ratio) - 1.0)
    del ratio  # held through the margin, verification peaks 1 field higher (DETA_T3 32^3: 14.29)
    margin = compatibility_margin(w, sign=branch_sign(spec))
    passed = bool(anti_norm <= tol and topform <= tol and volume <= tol and margin > 0.0)
    return VerificationReport(
        anti_invariant_norm=anti_norm,
        positivity_margin=margin,
        topform_residual=topform,
        volume_defect=volume,
        potential_defect=pot,
        passed=passed,
    )
