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
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property, partial, reduce

import numpy as np

from . import nilframe as nf
from .grid import (
    ScalarField,
    TorusGrid,
    _unchecked_field,
    derivative,
    integrate,
    mixed_derivative,
    require_finite,
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
    """One member of the reduced-equation catalog with its parameters.

    A parameter the family does not read takes its pinned value, the field
    default or the value the family fixes (GENMA's m2 = 1), so no unread
    value can reach the residual, the coframe or the branch sign.
    """

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
        row = _STATEMENTS[self.family]
        for f in fields(self):
            # every field but the family and its coframe data is a parameter
            if f.name not in ("family", "coframe", *row.params):
                setattr(self, f.name, row.fixed.get(f.name, f.default))
        if self.l1 * self.l2 <= 0:
            raise ValueError("l1 and l2 must be both positive or both negative")
        if "h" in row.params and self.h is None:
            raise ValueError(f"{self.family.value} requires the exponent field h")
        if self.h is not None:
            # h is a profile in x (resp. in (x1, y1)); dependence on the
            # second axis would silently change the family
            along = np.take(self.h.values, [0], axis=1)
            drift = float(np.max(np.abs(self.h.values - along)))
            if drift > 1e-12 * max(1.0, self.h.max_norm()):
                raise ValueError("h must be constant along the second coordinate")
        if not 2 <= self.n <= 4:
            raise ValueError("higher-dimensional families support n = 2..4")

    @property
    def dim(self) -> int:
        return len(self.axis_names)

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


def _check_grid(spec: EquationSpec, u: ScalarField) -> None:
    """Reject a field that is not on the family's torus or holds a
    non-finite value: the check at every public entry point."""
    require_finite(u)
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
# one row per family
# ---------------------------------------------------------------------------
#
# A family builds a pointwise coefficient matrix M from the linear spectral
# features of u that it reads; its residual is
#     P = (det M - correction) / scale.
# The residual, the linearization, the coefficient matrix and the warped
# branch minima are all derived from that one statement.  Feature keys:
# (a,) is u_a, (a, b) with a <= b is u_ab, and ("div", a, s) is the
# divergence form (e^{s h} u_a)_a.  The same row names the family's axes and
# parameters, its coframe and its datum weight.

class _Features(dict):
    """Linear spectral features of one field, each taken on first read and
    kept in read order, the u_a that a weighted divergence reads included."""

    def __init__(self, spec: EquationSpec, u: ScalarField):
        super().__init__()
        self.spec, self.u = spec, u

    def __missing__(self, key):
        if key[0] == "div":
            _, a, sign = key
            flux = _unchecked_field(self.u.grid, self.spec._exp_h[sign] * self[(a,)])
            val = derivative(flux, a, 1).values
        elif len(key) == 1:
            val = derivative(self.u, key[0], 1).values
        else:
            val = mixed_derivative(self.u, *key).values
        self[key] = val
        return val


@dataclass(frozen=True)
class _Statement:
    """One family's row.  axes(n) names its base coordinates in grid-axis
    order, and their count is its dimension; params are the parameters it
    reads, fixed the values it pins other than the field defaults; matrix,
    correction and scale state its residual; structure(spec, grid) is its
    coframe; log_weight(spec) is the w with residual = e^w * ratio, for the
    top-form ratio e^F of the geometric route."""

    axes: Callable[[int], tuple[str, ...]]
    matrix: Callable[[EquationSpec, dict], list]
    structure: Callable[[EquationSpec, TorusGrid], nf.NilStructure]
    params: tuple[str, ...] = ()
    fixed: dict = field(default_factory=dict)
    correction: Callable[[EquationSpec, dict, list], object] | None = None
    scale: Callable[[EquationSpec], float] | None = None
    log_weight: Callable[[EquationSpec], object] = lambda s: 0.0


def _numbered(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{k + 1}" for k in range(n))


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


def _lagrangian_scales(s: EquationSpec) -> tuple[int, float, float]:
    """Branch sign and coordinate scales a, c0 with |l1| = 1/a^2, |l2| = 1/c0^2."""
    return (1 if s.l1 > 0 else -1), 1.0 / np.sqrt(abs(s.l1)), 1.0 / np.sqrt(abs(s.l2))


def _lagr_x1x2_coframe(s: EquationSpec, grid: TorusGrid) -> nf.NilStructure:
    sign, a, c0 = _lagrangian_scales(s)
    p = s.coframe or CoframeParams(scale_x=1.0, scale_y=1.0, lam2=-1.0)
    return nf.lagrangian_coframe_xx(grid, a, c0, p.lam1 * p.scale_x * p.scale_y,
                                    p.lam2 * p.scale_x * p.scale_y, sign=sign)


def _lagr_x2y1_coframe(s: EquationSpec, grid: TorusGrid) -> nf.NilStructure:
    sign, a, c0 = _lagrangian_scales(s)
    mu = s.coframe.mu if s.coframe is not None else 0.0
    return nf.lagrangian_coframe_xy(grid, a, c0, lam=s.m1 * c0**2 / a, mu=mu,
                                    nu=-s.m2 * c0, sign=sign)


# The Lagrangian-fibration statement on (x, y), which each of its rows
# completes.  STDMA and GENMA read no parameter, and the LAGR_X1X2 coframe
# has no first-order terms to match m1 and m2.
_lagrangian = partial(
    _Statement,
    axes=lambda n: ("x", "y"),
    matrix=lambda s, f: [[s.l1 + f[0, 0], f[0, 1]],
                         [f[0, 1], s.l2 + f[1, 1] + s.m1 * f[(0,)] + s.m2 * f[(1,)]]],
    scale=lambda s: s.l1 * s.l2,
)


_STATEMENTS: dict[Family, _Statement] = {
    Family.STDMA: _lagrangian(structure=lambda s, g: nf.nil_bundle(g, 2, ("e1", "e2"))),
    Family.GENMA: _lagrangian(fixed={"m2": 1.0},
                              structure=lambda s, g: nf.nil_bundle(g, 2, ("e2", "f1"))),
    Family.LAGR_X1X2: _lagrangian(params=("l1", "l2"), structure=_lagr_x1x2_coframe),
    Family.LAGR_X2Y1: _lagrangian(params=("l1", "l2", "m1", "m2"), structure=_lagr_x2y1_coframe),
    Family.WARPED: _Statement(
        axes=lambda n: ("x", "y"),
        params=("c", "h"),
        matrix=lambda s, f: [[s._exp_h[-1] * (1.0 + f["div", 0, 1] + s.c * f[(0,)]), f[0, 1]],
                             [f[0, 1], 1.0 + f[1, 1]]],
        structure=lambda s, g: nf.nil_bundle(g, 2, ("f1", "e2"), twist=s.c,
                                             warp=ScalarField(s.h.grid, -s.h.values)),
        log_weight=lambda s: -s.h.values,
    ),
    Family.DETA_T3: _Statement(
        axes=lambda n: ("x1", "x2", "y1"),
        matrix=lambda s, f: [[1.0 + f[0, 0] + f[2, 2] + f[(2,)], f[0, 1]],
                             [f[0, 1], 1.0 + f[1, 1]]],
        correction=lambda s, f, M: f[1, 2] ** 2,
        structure=lambda s, g: nf.nil_bundle(g, 2, ("e1", "e2", "f1")),
    ),
    Family.WARPED_T3: _Statement(
        axes=lambda n: ("x1", "x2", "y1"),
        params=("h",),
        matrix=lambda s, f: [[1.0 + f["div", 0, 1] + f["div", 2, -1] + f[(2,)], f[0, 1]],
                             [s._exp_h[1] * f[0, 1], 1.0 + f[1, 1]]],
        correction=lambda s, f, M: s._exp_h[-1] * f[1, 2] ** 2,
        structure=lambda s, g: nf.nil_bundle(g, 2, ("e1", "e2", "f1"), warp=s.h),
    ),
    Family.NDIM_FULL: _Statement(
        axes=lambda n: _numbered("x", n) + ("y1",),
        params=("n",),
        # the first diagonal entry carries the fiber-direction second
        # derivative and the drift term
        matrix=lambda s, f: _hessian_matrix(s.n, f, f[s.n, s.n] + f[(s.n,)]),
        correction=_fiber_correction,
        structure=lambda s, g: nf.nil_bundle(g, s.n, _numbered("e", s.n) + ("f1",)),
    ),
    Family.NDIM_HESSIAN: _Statement(
        axes=lambda n: _numbered("x", n),
        params=("n",),
        matrix=lambda s, f: _hessian_matrix(s.n, f),
        structure=lambda s, g: nf.nil_bundle(g, s.n, _numbered("e", s.n)),
    ),
    Family.NDIM_B: _Statement(
        axes=lambda n: _numbered("z", n),
        params=("n",),
        matrix=lambda s, f: _hessian_matrix(s.n, f, f[(0,)]),
        structure=lambda s, g: nf.nil_bundle(g, s.n, ("f1",) + _numbered("e", s.n)[1:]),
    ),
}

# The parameters each family reads, with h its exponent field.
FAMILY_PARAMETERS: dict[Family, tuple[str, ...]] = {
    family: row.params for family, row in _STATEMENTS.items()}


def family_axis_names(family: Family | str, n: int = 2) -> tuple[str, ...]:
    """Base-coordinate names of a family's torus, in grid-axis order."""
    return _STATEMENTS[Family(family)].axes(n)


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
        return resample(residual(*_padded(spec, u)), u.grid.sizes)
    return ScalarField(u.grid, _pointwise(spec, _Features(spec, u)))


def ndim_printed(spec: EquationSpec, u: ScalarField) -> ScalarField:
    """The published n = 3 closed-form expression, implemented verbatim for
    comparison: its first-order sign and correction terms disagree with the
    exterior-algebra expansion, which is the residual of record."""
    if spec.axis_names != ("x1", "x2", "x3", "y1"):
        raise ValueError("the printed comparison form is stated for n = 3")
    _check_grid(spec, u)
    f = _Features(spec, u)
    M = _hessian_matrix(3, f, f[3, 3] - f[(3,)])
    vals = (_det(M) - f[2, 2] * f[1, 3] ** 2 - f[1, 1] * f[2, 3] ** 2
            - 2.0 * f[1, 2] * f[1, 3] * f[2, 3])
    return ScalarField(u.grid, vals)


def _padded(spec: EquationSpec, u: ScalarField) -> tuple[EquationSpec, ScalarField]:
    """spec and u on the 3/2 zero-padded grid of the dealiased operators."""
    sizes = tuple((3 * n // 2 + 1) // 2 * 2 for n in u.grid.sizes)
    spec_p = spec if spec.h is None else replace(spec, h=resample(spec.h, sizes))
    return spec_p, resample(u, sizes)


_COMPLEX_STEP = 1e-30


def _feature_weights(spec: EquationSpec, u: ScalarField) -> dict:
    """The weight g_k = dP/df_k at f(u) of every feature k that the statement
    reads at u, in read order, zero weights included."""
    f = _Features(spec, u)
    _pointwise(spec, f)  # takes every feature it reads, in read order
    return {k: np.imag(_pointwise(spec, {**f, k: f[k] + 1j * _COMPLEX_STEP})) / _COMPLEX_STEP
            for k in f}


def linearizer(spec: EquationSpec, u: ScalarField, dealias: bool = False):
    """Frechet derivative of residual at u, returned as a closure w -> L(w).

    L(w) = sum_k g_k f_k(w) over the features f_k that the statement reads
    at u and whose weight g_k = dP/df_k at f(u) is not zero everywhere.  The
    weights are taken once per build by the complex step Im P(f + i*eps*e_k)
    / eps (Squire & Trapp 1998), exact to roundoff for the polynomial P; per
    application only the features of w are taken.  With `dealias=True` the
    operator acts on the 3/2 zero-padded grid, consistently with the
    dealiased residual.
    """
    _check_grid(spec, u)
    if dealias:
        spec_p, u_p = _padded(spec, u)
        inner = linearizer(spec_p, u_p)
        return lambda w: resample(inner(resample(w, u_p.grid.sizes)), u.grid.sizes)

    weights = {k: g for k, g in _feature_weights(spec, u).items() if np.any(g)}

    def apply(w: ScalarField) -> ScalarField:
        fw = _Features(spec, w)
        vals = np.zeros(u.grid.sizes)
        for k, g in weights.items():
            vals += g * fw[k]
        return _unchecked_field(u.grid, vals)

    return apply


def linearize_apply(spec: EquationSpec, u: ScalarField, w: ScalarField) -> ScalarField:
    if not u.grid.compatible(w.grid):
        raise ValueError("u and w must share one grid")
    require_finite(w)
    return linearizer(spec, u)(w)


def manufactured_datum(spec: EquationSpec, u_star: ScalarField) -> ScalarField:
    """Datum F for which u_star solves the family's equation exactly on the grid."""
    r = residual(spec, u_star)
    if np.min(r.values) <= 0.0:
        raise ValueError("candidate leaves the elliptic branch: residual must stay positive")
    return ScalarField(u_star.grid, np.log(r.values) - datum_log_weight(spec))


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
    return _STATEMENTS[spec.family].structure(spec, grid)


def datum_log_weight(spec: EquationSpec):
    """The family's w in residual = e^w * (top-form ratio): -h for WARPED,
    whose residual divides the ratio by e^h, and 0 for every other family."""
    return _STATEMENTS[spec.family].log_weight(spec)


def residual_geom(spec: EquationSpec, u: ScalarField) -> ScalarField:
    """The family's residual recomputed through the exterior-algebra route:
    rebuild omega + d(alpha), expand its top wedge power and weight it."""
    _check_grid(spec, u)
    st = structure_for(spec, u.grid)
    w, _ = nf.ansatz_forms(u, st)
    return ScalarField(u.grid, np.exp(datum_log_weight(spec)) * nf.top_form_ratio(w, st).values)
