"""Catalog of reduced scalar volume equations on periodic tori.

Each family states a pointwise residual whose zero set (against a prescribed
right-hand side e^F) is the reduced Calabi-Yau volume equation of one torus
bundle geometry.  Every family also carries a geometric realization through
`nilframe`, so the scalar formula can be cross-checked by rebuilding the
2-form and taking its top-form ratio.

Warped families evaluate their principal coefficient in divergence form,
(e^h u_x)_x computed as the spectral derivative of the pointwise product:
this is exactly the composition the exterior-algebra route performs, so the
two routes agree to grid roundoff rather than to an aliasing tolerance.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property, partial

import numpy as np

from . import nilframe as nf
from .grid import (
    ScalarField,
    TorusGrid,
    _field,
    derivative,
    integrate,
    mixed_derivative,
    require_finite,
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
    bit for bit, with no stack built; NaN if any entry is NaN at any point.  A
    diagonal point gives its least diagonal entry, as LAPACK does (it rescales,
    and rounds, only entries beyond 1e+-146).  Elsewhere an eigenvalue is
    found by LAPACK at the 8 points of lowest Gershgorin bound lb; a point
    whose lb comes within a slack of it, for the rounding of lb and LAPACK's
    backward error, goes to LAPACK too unless the LDL^T inertia test shows
    its smallest eigenvalue above found + slack, where LAPACK's value must
    exceed found.  Each row folds into lb, its radius and one scratch field
    in place, so the call holds 3.25 fields above S."""
    r = len(S)
    shape = np.broadcast_shapes(*(np.shape(x) for row in S for x in row)) or (1,)
    # each step is in place: undone alone, the isolated peak on the 32^3 and
    # 12^4 pins rises from 3.25 fields to the figure named
    lb, radius, scratch = np.full(shape, np.inf), np.empty(shape), np.empty(shape)
    diagonal, scale = np.ones(shape, dtype=bool), -np.inf  # a float `widest`: 5.00
    for i in range(r):  # folded row by row, in row order
        radius.fill(0.0)
        for j in range(r):
            if j != i:
                radius += np.abs(S[i][j], out=scratch)  # a sum of fresh |S_ij|: 4.13-6.14
        np.minimum(lb, np.subtract(S[i][i], radius, out=scratch), out=lb)  # fresh: 4.13-4.38
        diagonal &= radius == 0
        np.abs(S[i][i], out=scratch)  # a fresh |S_ii| + radius: 4.13-5.14
        scratch += radius
        scale = np.maximum(scale, np.max(scratch))
    del radius, scratch  # held through the tail: 4.15-4.92
    if np.isnan(np.min(lb)):  # np.minimum carried every NaN entry into lb
        return float("nan")
    lb, diagonal = lb.ravel(), diagonal.ravel()
    slack = 64 * r * r * np.finfo(float).eps * scale

    def stacked(points):
        # filled once; gathered into r * r arrays and stacked: 4.11 (NDIM_HESSIAN).
        # Only the lower triangle, all that LAPACK reads, is gathered, by flat
        # index, and mirrored for the screen: all of it by index tuples, one
        # catalog-healthy pass's 81 calls took 56 ms, not 44
        stack = np.empty((points.size, r, r))
        for a in range(r):
            for b in range(a + 1):
                x, col = S[a][b], stack[:, a, b]
                if np.shape(x) == shape:
                    np.take(x, points, out=col)
                else:  # a constant, or an entry broadcast along some axes
                    col[...] = x if np.ndim(x) == 0 else np.broadcast_to(x, shape).flat[points]
                stack[:, b, a] = col
        return stack

    def lowest(points):
        return np.min(np.linalg.eigvalsh(stacked(points))[:, 0], initial=np.inf)

    def uncleared(points, t):
        # the points where a pivot of the unpivoted LDL^T of S - t*I, factored
        # in place, is not positive (Sylvester's law of inertia; Parlett, The
        # Symmetric Eigenvalue Problem, SIAM 1998, ch. 3)
        A, positive = stacked(points), np.ones(points.size, dtype=bool)
        A.reshape(-1, r * r)[:, :: r + 1] -= t  # the diagonals, as a strided view
        with np.errstate(all="ignore"):  # a point with a pivot <= 0 is done
            for j in range(r):
                pivot = A[:, j, j, None, None]
                positive &= pivot[:, 0, 0] > 0
                A[:, j + 1:, j + 1:] -= A[:, j + 1:, j, None] / pivot * A[:, None, j, j + 1:]
        return points[~positive]

    found = np.min(lb[diagonal], initial=np.inf)
    rest = lb.size - np.count_nonzero(diagonal)
    if rest:
        lb[diagonal] = np.inf  # no diagonal point goes to LAPACK; indexed apart: 4.15-4.17
        low = np.argpartition(lb, min(8, rest) - 1)[:min(8, rest)]
        found = min(found, lowest(low))
        lb[low] = np.inf
        # positive pivots put the exact minimum above found + slack, net of the
        # factorization's backward error.  In chunks of a quarter field, 64 KiB
        # at least: whole, the pairings' isolated peaks rise from 3.25 fields
        # to 3.34-5.24; in quarter fields of 64^2, the calls per chunk took
        # the margin from 0.74 to 1.47 ms
        candidates, t = np.flatnonzero(~(lb > found + slack)), found + 2 * slack
        step = max(lb.size // 4, 8192) // (r * r)
        kept = [uncleared(c, t) for c in np.split(candidates, range(step, candidates.size, step))]
        found = min(found, lowest(np.concatenate(kept)))
    return float(found)


# ---------------------------------------------------------------------------
# one row per family
# ---------------------------------------------------------------------------
#
# A family builds a pointwise coefficient matrix M from the linear spectral
# features of u that it reads; its residual is
#     P = (det M - correction) / scale.
# The residual, the linearization and the coefficient matrix are all
# derived from that one statement.  Feature keys:
# (a,) is u_a, (a, b) with a <= b is u_ab, and ("div", a, s) is the
# divergence form (e^{s h} u_a)_a.  The same row names the family's axes and
# parameters, its coframe and its datum weight.

class Evaluation(dict):
    """The family's statement at one field u: a dict of the linear spectral
    features of u, each taken on first read and kept in read order (the u_a
    that a weighted divergence reads included), and its coefficient matrix
    `entries` and checked `residual` P, each formed once on first read."""

    def __init__(self, spec: EquationSpec, u: ScalarField):
        super().__init__()
        self.spec, self.u = spec, u

    def __missing__(self, key):
        if key[0] == "div":
            _, a, sign = key
            flux = _field(self.u.grid, self.spec._exp_h[sign] * self[(a,)])
            val = derivative(flux, a, 1).values
        elif len(key) == 1:
            val = derivative(self.u, key[0], 1).values
        else:
            val = mixed_derivative(self.u, *key).values
        self[key] = val
        return val

    @cached_property
    def entries(self) -> list:
        return _STATEMENTS[self.spec.family].matrix(self.spec, self)

    @cached_property
    def residual(self) -> ScalarField:
        return ScalarField(self.u.grid, _pointwise(self.spec, self, self.entries))

    @cached_property
    def weights(self) -> dict:
        """The weights of `_feature_weights` that are not zero everywhere,
        taken once for the linearizer and the coefficient scale."""
        return {k: g for k, g in _feature_weights(self).items() if np.any(g)}


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


def _lagrangian_scales(s: EquationSpec) -> tuple[float, float, float]:
    """Branch sign and coordinate scales a, c0 with |l1| = 1/a^2, |l2| = 1/c0^2."""
    return branch_sign(s), 1.0 / np.sqrt(abs(s.l1)), 1.0 / np.sqrt(abs(s.l2))


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


def _lagrangian_matrix(s: EquationSpec, f: dict) -> list:
    """[[l1 + u_xx, u_xy], [u_xy, l2 + u_yy + m1 u_x + m2 u_y]], with the
    terms added left to right.  A first-order term whose m is 0 is left out,
    so its u_a is not taken."""
    M = [[s.l1 + f[0, 0], f[0, 1]], [f[0, 1], s.l2 + f[1, 1]]]
    for a, m in enumerate((s.m1, s.m2)):
        if m:
            M[1][1] = M[1][1] + m * f[(a,)]
    return M


# The Lagrangian-fibration statement on (x, y), which each of its rows
# completes.  STDMA and GENMA read no parameter, and the LAGR_X1X2 coframe
# has no first-order terms to match m1 and m2.
_lagrangian = partial(
    _Statement,
    axes=lambda n: ("x", "y"),
    matrix=_lagrangian_matrix,
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


def _pointwise(spec: EquationSpec, f: dict, M: list | None = None):
    """The residual P of the family's statement at the feature values f
    (and at their coefficient matrix M, where that is already formed)."""
    st = _STATEMENTS[spec.family]
    M = st.matrix(spec, f) if M is None else M
    P = _det(M)
    if st.correction is not None:
        P = P - st.correction(spec, f, M)
    if st.scale is not None:
        P = P / st.scale(spec)
    return P


def evaluate(spec: EquationSpec, u: ScalarField) -> Evaluation:
    """The family's statement at u, with u checked once for all read off it."""
    _check_grid(spec, u)
    return Evaluation(spec, u)


def residual(spec: EquationSpec, u: ScalarField) -> ScalarField:
    """Left-hand side of the family's equation, evaluated pointwise."""
    return evaluate(spec, u).residual


_COMPLEX_STEP = 1e-30


def _feature_weights(ev: Evaluation) -> dict:
    """The weight g_k = dP/df_k at f(u) of every feature k that the statement
    reads at u, in read order, zero weights included."""
    ev.residual  # takes every feature it reads, in read order
    return {k: np.imag(_pointwise(ev.spec, {**ev, k: ev[k] + 1j * _COMPLEX_STEP})) / _COMPLEX_STEP
            for k in ev}


def linearizer(ev: Evaluation):
    """Frechet derivative of the residual at the evaluated field u, returned
    as a closure w -> L(w).

    L(w) = sum_k g_k f_k(w) over the features f_k that the statement reads
    at u and whose weight g_k = dP/df_k at f(u) is not zero everywhere.  The
    weights are taken once per evaluation (`Evaluation.weights`) by the
    complex step Im P(f + i*eps*e_k) / eps (Squire & Trapp 1998), exact to
    roundoff for the polynomial P, from the features `ev` holds.  Features
    whose weights are equal bit for bit (those the statement adds into one
    matrix entry, and at u = 0 every u_aa) are summed as one term, the
    inverse transform of w's spectrum times the sum of their symbols, so an
    application takes one inverse transform per distinct weight.  A
    statement that reads a divergence feature keeps one term per feature:
    grouped, the even-grid Nyquist mode took the coarse WARPED case at 16^2
    from 484 to 620 applies.  The closure holds no reference to `ev`.
    """
    spec, grid = ev.spec, ev.u.grid
    alone = any(k[0] == "div" for k in ev.weights)
    groups: list = []  # (g, features weighted by g), in read order
    for k, g in ev.weights.items():
        same = [keys for h, keys in groups if not alone and np.array_equal(h, g)]
        if same:
            same[0].append(k)
        else:
            groups.append((g, [k]))
    # (g, the feature, or None and the sum of the group's symbols)
    terms = [(g, keys[0], None) if len(keys) == 1
             else (g, None, sum(map(grid.symbol, keys[1:]), grid.symbol(keys[0])))
             for g, keys in groups]

    def apply(w: ScalarField) -> ScalarField:
        fw = Evaluation(spec, w)
        vals = np.zeros(grid.sizes)
        for g, key, symbol in terms:
            vals += g * (fw[key] if symbol is None else _field(grid, hat=w.hat * symbol).values)
        return _field(grid, vals)

    return apply


def coefficient_scale(ev: Evaluation):
    """The pointwise scale a of the linearization L w ~ a Laplacian(w):
    a = |mean of the weights of the u_aa| in `ev.weights`.  None where L
    weighs a divergence feature (e^{s h} u_a)_a: scaled, its even-grid
    Nyquist mode took WARPED_T3 32^3 from 51 to 113 applies."""
    if any(k[0] == "div" for k in ev.weights):
        return None
    diagonal = [g for k, g in ev.weights.items() if len(k) == 2 and k[0] == k[1]]
    return np.abs(sum(diagonal) / len(diagonal))


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

