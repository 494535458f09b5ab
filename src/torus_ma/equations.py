"""Catalog of reduced scalar volume equations on periodic tori.

Each family states a pointwise residual whose zero set (against a prescribed
right-hand side e^F) is the reduced Calabi-Yau volume equation of one torus
bundle geometry.  Every family also carries a geometric realization through
`nilframe`, so the scalar formula can be cross-checked by rebuilding the
2-form and expanding its top wedge power.

Warped families evaluate their principal coefficient in divergence form,
(e^h u_x)_x computed as the spectral derivative of the pointwise product:
this is exactly the composition the exterior-algebra route performs, so the
two routes agree to grid roundoff rather than to an aliasing tolerance.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, reduce

import numpy as np

from . import nilframe as nf
from .grid import (
    ScalarField,
    TorusGrid,
    derivative,
    integrate,
    mixed_derivative,
    resample,
)


class Family(str, Enum):
    STDMA = "STDMA"
    GENMA = "GENMA"
    LAGR_X1X2 = "LAGR_X1X2"
    LAGR_X2Y1 = "LAGR_X2Y1"
    WARPED = "WARPED"
    DETA_T3 = "DETA_T3"
    WARPED_T3 = "WARPED_T3"
    NDIM_FULL = "NDIM_FULL"
    NDIM_HESSIAN = "NDIM_HESSIAN"
    NDIM_B = "NDIM_B"


_T2_FAMILIES = (Family.STDMA, Family.GENMA, Family.LAGR_X1X2, Family.LAGR_X2Y1, Family.WARPED)


@dataclass
class CoframeParams:
    """Invariant Hermitian-coframe data for the Lagrangian-fibration families.

    scale_x, scale_y and shear are the expansion constants of the base
    coordinate differentials in the coframe; lam1/lam2 (or lam, mu) are the
    structure constants of the non-closed coframe directions.
    """

    scale_x: float
    scale_y: float
    shear: float = 0.0
    lam1: float = 0.0
    lam2: float = 0.0
    lam: float = 0.0
    mu: float = 0.0


@dataclass
class EquationSpec:
    """One member of the reduced-equation catalog with its parameters."""

    family: Family
    l1: float = 1.0
    l2: float = 1.0
    m1: float = 0.0
    m2: float = 0.0
    c: float = 0.0
    h: ScalarField | None = None
    n: int = 2
    coframe: CoframeParams | None = None

    def __post_init__(self):
        self.family = Family(self.family)
        if self.family is Family.STDMA:
            self.l1, self.l2, self.m1, self.m2 = 1.0, 1.0, 0.0, 0.0
        elif self.family is Family.GENMA:
            self.l1, self.l2, self.m1, self.m2 = 1.0, 1.0, 0.0, 1.0
        if self.family in (Family.LAGR_X1X2, Family.LAGR_X2Y1):
            if self.l1 * self.l2 <= 0:
                raise ValueError("l1 and l2 must be both positive or both negative")
        if self.family in (Family.WARPED, Family.WARPED_T3):
            if self.h is None:
                raise ValueError(f"{self.family.value} requires the exponent field h")
            # h is a profile in x (resp. in (x1, y1)); dependence on the
            # second axis would silently change the family
            along = np.take(self.h.values, [0], axis=1)
            drift = float(np.max(np.abs(self.h.values - along)))
            if drift > 1e-12 * max(1.0, self.h.max_norm()):
                raise ValueError("h must be constant along the second coordinate")
        if self.family in (Family.NDIM_FULL, Family.NDIM_HESSIAN, Family.NDIM_B):
            if not 2 <= self.n <= 4:
                raise ValueError("higher-dimensional families support n = 2..4")

    @property
    def dim(self) -> int:
        if self.family in _T2_FAMILIES:
            return 2
        if self.family in (Family.DETA_T3, Family.WARPED_T3):
            return 3
        if self.family is Family.NDIM_FULL:
            return self.n + 1
        return self.n

    @property
    def axis_names(self) -> tuple[str, ...]:
        return family_axis_names(self.family, self.n)

    @cached_property
    def _exp_h(self) -> dict[int, np.ndarray]:
        """e^{s h} for s = +1 and -1, formed once per spec."""
        return {1: np.exp(self.h.values), -1: np.exp(-self.h.values)}

    @classmethod
    def lagr_x1x2_from_coframe(cls, params: CoframeParams) -> "EquationSpec":
        """Fibration over (x1, x2): l_i from the coordinate scales; the
        structure constants lam1, lam2 drop out of the reduced equation."""
        a, c0 = params.scale_x, params.scale_y
        return cls(Family.LAGR_X1X2, l1=1.0 / a**2, l2=1.0 / c0**2, coframe=params)

    @classmethod
    def lagr_x2y1_from_coframe(cls, params: CoframeParams) -> "EquationSpec":
        """Fibration over (x2, y1): negative l_i, first-order coefficients
        m1 = -lam*scale_x/scale_y^2 and m2 = -lam*shear/scale_y^2."""
        a, c0 = params.scale_x, params.scale_y
        return cls(
            Family.LAGR_X2Y1,
            l1=-1.0 / a**2,
            l2=-1.0 / c0**2,
            m1=-params.lam * a / c0**2,
            m2=-params.lam * params.shear / c0**2,
            coframe=params,
        )


def family_axis_names(family: Family | str, n: int = 2) -> tuple[str, ...]:
    """Base-coordinate names of a family's torus, in grid-axis order."""
    family = Family(family)
    if family in _T2_FAMILIES:
        return ("x", "y")
    if family in (Family.DETA_T3, Family.WARPED_T3):
        return ("x1", "x2", "y1")
    if family is Family.NDIM_FULL:
        return tuple(f"x{k + 1}" for k in range(n)) + ("y1",)
    if family is Family.NDIM_HESSIAN:
        return tuple(f"x{k + 1}" for k in range(n))
    return tuple(f"z{k + 1}" for k in range(n))


def _check_grid(spec: EquationSpec, u: ScalarField) -> None:
    if u.grid.d != spec.dim:
        raise ValueError(f"{spec.family.value} lives on a {spec.dim}-torus, "
                         f"got a {u.grid.d}-d field")
    if spec.h is not None and not spec.h.grid.compatible(u.grid):
        raise ValueError("h and u must share one grid")


def _minor(M: list, rows: tuple[int, ...], cols: tuple[int, ...]) -> list:
    return [[x for j, x in enumerate(row) if j not in cols]
            for i, row in enumerate(M) if i not in rows]


def _det(M: list):
    """Determinant of a small matrix of arrays (nested lists) by cofactor
    expansion along the first row; complex entries pass through unchanged."""
    if not M:
        return 1.0
    if len(M) == 1:
        return M[0][0]
    det = M[0][0] * _det(_minor(M, (0,), (0,)))
    for j in range(1, len(M)):
        term = M[0][j] * _det(_minor(M, (0,), (j,)))
        det = det - term if j % 2 else det + term
    return det


def symmetric_part(X: Callable[[int, int], object], r: int, sign: float = 1.0) -> list:
    """sign (X + X^T) / 2 as nested lists, each entry formed once from X(a, b)."""
    upper = {(a, b): 0.5 * sign * (X(a, b) + X(b, a)) for a in range(r) for b in range(a, r)}
    return [[upper[min(a, b), max(a, b)] for b in range(r)] for a in range(r)]


def min_eigenvalue(S: list) -> float:
    """Minimum over the grid of the smallest eigenvalue of a symmetric matrix S
    (nested lists of fields or constants): np.min(np.linalg.eigvalsh(stack)[..., 0])
    bit for bit, with no stack built.  A diagonal point gives its least diagonal
    entry, as LAPACK does (it rescales, and rounds, only entries beyond 1e+-146).
    Elsewhere LAPACK sees only the points whose Gershgorin bound lb comes within
    a slack, for the rounding of lb and LAPACK's backward error, of an
    eigenvalue found at the points of lowest lb."""
    r = len(S)
    shape = np.broadcast_shapes(*(np.shape(x) for row in S for x in row)) or (1,)
    radius = [sum(abs(S[i][j]) for j in range(r) if j != i) for i in range(r)]
    lb = np.broadcast_to(reduce(np.minimum, [S[i][i] - radius[i] for i in range(r)]), shape).ravel()
    diagonal = np.broadcast_to(reduce(np.maximum, radius), shape).ravel() == 0
    scale = np.max([np.max(abs(S[i][i]) + radius[i]) for i in range(r)])
    slack = 64 * r * r * np.finfo(float).eps * scale

    def lowest(points):
        at = np.unravel_index(points, shape)
        stack = np.array([[np.broadcast_to(x, shape)[at] for x in row] for row in S], dtype=float)
        return np.linalg.eigvalsh(np.moveaxis(stack, -1, 0))[:, 0]

    found = lb[diagonal]
    rest = np.flatnonzero(~diagonal)
    if rest.size:
        found = np.append(found, lowest(rest[np.argpartition(lb[rest], min(8, rest.size) - 1)[:8]]))
        found = np.append(found, lowest(rest[~(lb[rest] > np.min(found) + slack)]))
    return float(np.min(found))


# ---------------------------------------------------------------------------
# one statement per family
# ---------------------------------------------------------------------------
#
# A family reads a list of linear spectral features of u and builds from them
# a pointwise coefficient matrix M; its residual is
#     P = (det M - correction) / scale.
# The residual, the linearization, the coefficient matrix and the warped
# branch minima are all derived from that one statement.  Feature keys:
# (a,) is u_a, (a, b) with a <= b is u_ab, and ("div", a, s) is the
# divergence form (e^{s h} u_a)_a.

class _Features(dict):
    """Linear spectral features of one field, each taken on first use; a
    weighted divergence reuses the u_a that a plain feature also takes."""

    def __init__(self, spec: EquationSpec, u: ScalarField):
        super().__init__()
        self.spec, self.u = spec, u

    def __missing__(self, key):
        if key[0] == "div":
            _, a, sign = key
            flux = ScalarField(self.u.grid, self.spec._exp_h[sign] * self[(a,)])
            val = derivative(flux, a, 1).values
        elif len(key) == 1:
            val = derivative(self.u, key[0], 1).values
        else:
            val = mixed_derivative(self.u, *key).values
        self[key] = val
        return val


@dataclass(frozen=True)
class _Statement:
    features: Callable[[EquationSpec], tuple]
    matrix: Callable[[EquationSpec, dict], list]
    correction: Callable[[EquationSpec, dict, list], object] | None = None
    scale: Callable[[EquationSpec], float] | None = None


def _hessian_keys(n: int) -> tuple:
    return tuple((i, j) for i in range(n) for j in range(i, n))


def _hessian_matrix(n: int, f: dict, drift=0.0) -> list:
    """I + Hess_{x_1..x_n} u, with `drift` added to the first diagonal entry."""
    M = [[f[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    for i in range(n):
        M[i][i] = 1.0 + M[i][i]
    M[0][0] = M[0][0] + drift
    return M


def _fiber_correction(s: EquationSpec, f: dict, M: list):
    """Sum over k, m >= 1 of u_{x_k y1} u_{x_m y1} times the signed second
    minor of M without rows (0, k) and columns (0, m)."""
    n = s.n
    return sum((-1) ** (k + m) * f[k, n] * f[m, n] * _det(_minor(M, (0, k), (0, m)))
               for k in range(1, n) for m in range(1, n))


_LAGRANGIAN = _Statement(
    features=lambda s: ((0, 0), (1, 1), (0, 1), (0,), (1,)),
    matrix=lambda s, f: [[s.l1 + f[0, 0], f[0, 1]],
                         [f[0, 1], s.l2 + f[1, 1] + s.m1 * f[(0,)] + s.m2 * f[(1,)]]],
    scale=lambda s: s.l1 * s.l2,
)

_STATEMENTS: dict[Family, _Statement] = {
    Family.STDMA: _LAGRANGIAN,
    Family.GENMA: _LAGRANGIAN,
    Family.LAGR_X1X2: _LAGRANGIAN,
    Family.LAGR_X2Y1: _LAGRANGIAN,
    Family.WARPED: _Statement(
        features=lambda s: (("div", 0, 1), (0,), (1, 1), (0, 1)),
        matrix=lambda s, f: [[s._exp_h[-1] * (1.0 + f["div", 0, 1] + s.c * f[(0,)]), f[0, 1]],
                             [f[0, 1], 1.0 + f[1, 1]]],
    ),
    Family.DETA_T3: _Statement(
        features=lambda s: ((0, 0), (2, 2), (2,), (1, 1), (0, 1), (1, 2)),
        matrix=lambda s, f: [[1.0 + f[0, 0] + f[2, 2] + f[(2,)], f[0, 1]],
                             [f[0, 1], 1.0 + f[1, 1]]],
        correction=lambda s, f, M: f[1, 2] ** 2,
    ),
    Family.WARPED_T3: _Statement(
        features=lambda s: (("div", 0, 1), ("div", 2, -1), (2,), (1, 1), (0, 1), (1, 2)),
        matrix=lambda s, f: [[1.0 + f["div", 0, 1] + f["div", 2, -1] + f[(2,)], f[0, 1]],
                             [s._exp_h[1] * f[0, 1], 1.0 + f[1, 1]]],
        correction=lambda s, f, M: s._exp_h[-1] * f[1, 2] ** 2,
    ),
    Family.NDIM_FULL: _Statement(
        # the first diagonal entry carries the fiber-direction second
        # derivative and the drift term
        features=lambda s: (_hessian_keys(s.n) + ((s.n, s.n), (s.n,))
                            + tuple((k, s.n) for k in range(1, s.n))),
        matrix=lambda s, f: _hessian_matrix(s.n, f, f[s.n, s.n] + f[(s.n,)]),
        correction=_fiber_correction,
    ),
    Family.NDIM_HESSIAN: _Statement(
        features=lambda s: _hessian_keys(s.n),
        matrix=lambda s, f: _hessian_matrix(s.n, f),
    ),
    Family.NDIM_B: _Statement(
        features=lambda s: _hessian_keys(s.n) + ((0,),),
        matrix=lambda s, f: _hessian_matrix(s.n, f, f[(0,)]),
    ),
}


def _pointwise(spec: EquationSpec, f: dict):
    """The residual P of the family's statement at the feature values f."""
    st = _STATEMENTS[spec.family]
    M = st.matrix(spec, f)
    P = _det(M)
    if st.correction is not None:
        P = P - st.correction(spec, f, M)
    if st.scale is not None:
        P = P / st.scale(spec)
    return P


def residual(spec: EquationSpec, u: ScalarField, dealias: bool = False) -> ScalarField:
    """Left-hand side of the family's equation, evaluated pointwise.

    With `dealias=True` the nonlinearity is evaluated on a 3/2 zero-padded
    grid and truncated back.
    """
    _check_grid(spec, u)
    if dealias:
        sizes = _padded_sizes(u.grid.sizes)
        spec_p = spec if spec.h is None else replace(spec, h=resample(spec.h, sizes))
        r = residual(spec_p, resample(u, sizes), dealias=False)
        return resample(r, u.grid.sizes)
    return ScalarField(u.grid, _pointwise(spec, _Features(spec, u)))


def ndim_printed(spec: EquationSpec, u: ScalarField) -> ScalarField:
    """The published n = 3 closed-form expression, implemented verbatim for
    comparison: its first-order sign and correction terms disagree with the
    exterior-algebra expansion, which is the residual of record."""
    if spec.family is not Family.NDIM_FULL or spec.n != 3:
        raise ValueError("the printed comparison form is stated for n = 3")
    _check_grid(spec, u)
    f = _Features(spec, u)
    M = _hessian_matrix(3, f, f[3, 3] - f[(3,)])
    vals = (_det(M) - f[2, 2] * f[1, 3] ** 2 - f[1, 1] * f[2, 3] ** 2
            - 2.0 * f[1, 2] * f[1, 3] * f[2, 3])
    return ScalarField(u.grid, vals)


def _padded_sizes(sizes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-((-3 * ns) // 2) + (-((-3 * ns) // 2)) % 2 for ns in sizes)


_COMPLEX_STEP = 1e-30


def linearizer(spec: EquationSpec, u: ScalarField, dealias: bool = False):
    """Frechet derivative of residual at u, returned as a closure w -> L(w).

    L(w) = sum_i g_i f_i(w) over the family's features f_i.  The weights
    g_i = dP/df_i at f(u) are taken once per build by the complex step
    Im P(f + i*eps*e_i) / eps (Squire & Trapp 1998), exact to roundoff for
    the polynomial P; per application only the features of w are taken.
    With `dealias=True` the operator acts on the 3/2 zero-padded grid,
    consistently with the dealiased residual.
    """
    _check_grid(spec, u)
    if dealias:
        sizes = _padded_sizes(u.grid.sizes)
        spec_p = spec if spec.h is None else replace(spec, h=resample(spec.h, sizes))
        inner = linearizer(spec_p, resample(u, sizes), dealias=False)

        def apply_padded(w: ScalarField) -> ScalarField:
            return resample(inner(resample(w, sizes)), u.grid.sizes)

        return apply_padded

    keys = _STATEMENTS[spec.family].features(spec)
    fu = _Features(spec, u)
    f = {k: fu[k] for k in keys}
    weights = [np.imag(_pointwise(spec, {**f, k: f[k] + 1j * _COMPLEX_STEP})) / _COMPLEX_STEP
               for k in keys]

    def apply(w: ScalarField) -> ScalarField:
        fw = _Features(spec, w)
        vals = np.zeros(u.grid.sizes)
        for k, g in zip(keys, weights):
            vals += g * fw[k]
        return ScalarField(u.grid, vals)

    return apply


def linearize_apply(spec: EquationSpec, u: ScalarField, w: ScalarField) -> ScalarField:
    if not u.grid.compatible(w.grid):
        raise ValueError("u and w must share one grid")
    return linearizer(spec, u)(w)


def manufactured_datum(spec: EquationSpec, u_star: ScalarField) -> ScalarField:
    """Datum F for which u_star solves the family's equation exactly on the grid."""
    r = residual(spec, u_star)
    if np.min(r.values) <= 0.0:
        raise ValueError("candidate leaves the elliptic branch: residual must stay positive")
    vals = np.log(r.values)
    if spec.family is Family.WARPED:
        vals = vals + spec.h.values
    return ScalarField(u_star.grid, vals)


def normalize_datum(spec: EquationSpec, F: ScalarField) -> ScalarField:
    """Shift F by a constant so that the flat-measure integral of e^F is 1."""
    shift = np.log(integrate(ScalarField(F.grid, np.exp(F.values))))
    return ScalarField(F.grid, F.values - shift)


def coefficient_entries(spec: EquationSpec, u: ScalarField) -> list:
    """The family's second-order coefficient matrix as nested lists of fields."""
    _check_grid(spec, u)
    return _STATEMENTS[spec.family].matrix(spec, _Features(spec, u))


def coefficient_matrix(spec: EquationSpec, u: ScalarField) -> np.ndarray:
    """The family's second-order coefficient matrix, stacked over the grid."""
    return np.stack([np.stack(row, axis=-1) for row in coefficient_entries(spec, u)], axis=-2)


def branch_sign(spec: EquationSpec) -> float:
    """Sign multiplying the coefficient matrix on the tracked elliptic branch."""
    return -1.0 if spec.l1 < 0 else 1.0


# ---------------------------------------------------------------------------
# geometric realizations
# ---------------------------------------------------------------------------

def structure_for(spec: EquationSpec, grid: TorusGrid) -> nf.NilStructure:
    """Invariant-coframe structure whose reduction is the family's equation."""
    fam = spec.family
    if fam is Family.STDMA:
        return nf.nil_bundle(grid, 2, ("e1", "e2"))
    if fam is Family.GENMA:
        return nf.nil_bundle(grid, 2, ("e2", "f1"))
    if fam is Family.LAGR_X1X2:
        s = 1 if spec.l1 > 0 else -1
        a = 1.0 / np.sqrt(abs(spec.l1))
        c0 = 1.0 / np.sqrt(abs(spec.l2))
        if spec.coframe is not None:
            p = spec.coframe
            lam1 = p.lam1 * p.scale_x * p.scale_y
            lam2 = p.lam2 * p.scale_x * p.scale_y
        else:
            lam1, lam2 = 0.0, -1.0
        return nf.lagrangian_coframe_xx(grid, a, c0, lam1, lam2, sign=s)
    if fam is Family.LAGR_X2Y1:
        s = 1 if spec.l1 > 0 else -1
        a = 1.0 / np.sqrt(abs(spec.l1))
        c0 = 1.0 / np.sqrt(abs(spec.l2))
        lam = spec.m1 * c0**2 / a
        nu = -spec.m2 * c0
        mu = spec.coframe.mu if spec.coframe is not None else 0.0
        return nf.lagrangian_coframe_xy(grid, a, c0, lam=lam, mu=mu, nu=nu, sign=s)
    if fam is Family.WARPED:
        warp = ScalarField(spec.h.grid, -spec.h.values)
        return nf.nil_bundle(grid, 2, ("f1", "e2"), warp=warp, twist=spec.c)
    if fam is Family.DETA_T3:
        return nf.nil_bundle(grid, 2, ("e1", "e2", "f1"))
    if fam is Family.WARPED_T3:
        return nf.nil_bundle(grid, 2, ("e1", "e2", "f1"), warp=spec.h)
    if fam is Family.NDIM_FULL:
        axes = tuple(f"e{k + 1}" for k in range(spec.n)) + ("f1",)
        return nf.nil_bundle(grid, spec.n, axes)
    if fam is Family.NDIM_HESSIAN:
        axes = tuple(f"e{k + 1}" for k in range(spec.n))
        return nf.nil_bundle(grid, spec.n, axes)
    if fam is Family.NDIM_B:
        axes = ("f1",) + tuple(f"e{k + 1}" for k in range(1, spec.n))
        return nf.nil_bundle(grid, spec.n, axes)
    raise ValueError(f"no geometric realization for {fam}")


def residual_geom(spec: EquationSpec, u: ScalarField) -> ScalarField:
    """The family's residual recomputed through the exterior-algebra route:
    rebuild omega + d(alpha) and expand its top wedge power."""
    _check_grid(spec, u)
    st = structure_for(spec, u.grid)
    w, _ = nf.ansatz_forms(u, st)
    ratio = nf.top_form_ratio(w, st)
    if spec.family is Family.WARPED:
        return ScalarField(u.grid, np.exp(-spec.h.values) * ratio.values)
    return ratio
