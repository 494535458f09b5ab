"""Exact multilinear algebra of invariant forms on 2-step nilmanifold coframes.

A `NilStructure` fixes a global invariant coframe, its structure constants
(the exterior derivative of each coframe 1-form), an almost-complex action on
the coframe (coefficients may be scalar fields), a symplectic form, and the
expansion of each base-coordinate differential in the coframe.  Invariant
forms carry coefficients sampled on the structure's torus grid; wedge,
exterior derivative, J-action, (1,1)-splitting and top-form ratios are then
exact up to grid roundoff.

Index conventions: a k-form is a map from strictly increasing label-index
tuples to coefficients; sign bookkeeping is done by the operations, never by
the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import ScalarField, TorusGrid, derivative


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]):
    """Sorted merge of two strictly increasing index tuples with parity.

    Returns (key, sign) or (None, 0) when an index repeats.
    """
    if set(left) & set(right):
        return None, 0
    idx = left + right
    key = tuple(sorted(idx))
    pos = [idx.index(t) for t in key]
    inv = sum(1 for i in range(len(pos)) for j in range(i + 1, len(pos)) if pos[i] > pos[j])
    return key, (-1 if inv % 2 else 1)


def _is_zero(c) -> bool:
    if isinstance(c, np.ndarray):
        return not np.any(c)
    return c == 0.0


@dataclass(eq=False)
class InvariantForm:
    """Invariant exterior form: degree plus {increasing index tuple: coefficient}."""

    structure: "NilStructure"
    degree: int
    terms: dict[tuple[int, ...], "np.ndarray | float"] = field(default_factory=dict)

    def __post_init__(self):
        for key in self.terms:
            if len(key) != self.degree or list(key) != sorted(set(key)):
                raise ValueError(f"bad index tuple {key} for degree {self.degree}")

    def coefficient(self, key: tuple[int, ...]) -> np.ndarray:
        c = self.terms.get(tuple(key), 0.0)
        return np.broadcast_to(np.asarray(c, dtype=float), self.structure.grid.sizes)

    def max_norm(self) -> float:
        if not self.terms:
            return 0.0
        return max(float(np.max(np.abs(np.asarray(c)))) for c in self.terms.values())

    def prune(self) -> "InvariantForm":
        kept = {k: c for k, c in self.terms.items() if not _is_zero(c)}
        return InvariantForm(self.structure, self.degree, kept)


@dataclass(eq=False)
class NilStructure:
    """Invariant coframe data on a nilmanifold torus bundle.

    d_table[i] expresses d(theta^i) as {(j,k): constant} over increasing pairs;
    j_table[i] expresses J(theta^i) as {j: coefficient} with field or constant
    coefficients; coord_forms[axis] expresses the differential of grid
    coordinate `axis` as {label: constant}.  `correction` lists the terms
    added to -J du by the scalar ansatz: (constant, label) contributes
    constant * u * theta^label (see `ansatz_correction`).
    """

    labels: tuple[str, ...]
    grid: TorusGrid
    d_table: dict[int, dict[tuple[int, int], float]]
    j_table: dict[int, dict[int, "np.ndarray | float"]]
    omega_terms: dict[tuple[int, int], float]
    coord_forms: tuple[dict[int, float], ...]
    correction: tuple[tuple[float, int], ...] = ()

    def __post_init__(self):
        if len(self.labels) % 2:
            raise ValueError("coframe must have even rank")
        if len(self.coord_forms) != self.grid.d:
            raise ValueError("one coordinate differential per grid axis required")

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def half_dim(self) -> int:
        return self.rank // 2

    def index(self, label: str) -> int:
        return self.labels.index(label)

    @property
    def omega(self) -> InvariantForm:
        return InvariantForm(self, 2, {k: float(v) for k, v in self.omega_terms.items()})

    def zero_form(self, degree: int) -> InvariantForm:
        return InvariantForm(self, degree, {})

    def validate(self, tol: float = 1e-12) -> None:
        """Check J^2 = -1 on the coframe and J-invariance of omega, pointwise."""
        n = self.rank
        for i in range(n):
            acc = {}
            for j, cij in self.j_table.get(i, {}).items():
                for k, cjk in self.j_table.get(j, {}).items():
                    acc[k] = acc.get(k, 0.0) + np.asarray(cij, dtype=float) * np.asarray(cjk, dtype=float)
            for k, v in acc.items():
                want = -1.0 if k == i else 0.0
                if np.max(np.abs(v - want)) > tol:
                    raise AssertionError(f"J^2 != -1 at coframe index {i}")
        om = self.omega
        defect = form_sub(j_conjugate(om), om)
        if defect.max_norm() > tol:
            raise AssertionError("omega is not J-invariant")


def form_add(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    if a.structure is not b.structure or a.degree != b.degree:
        raise ValueError("can only add forms of equal degree on one structure")
    terms = dict(a.terms)
    for k, c in b.terms.items():
        terms[k] = terms[k] + c if k in terms else c
    return InvariantForm(a.structure, a.degree, terms)


def form_sub(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    return form_add(a, form_scale(b, -1.0))


def form_scale(a: InvariantForm, s: "np.ndarray | float") -> InvariantForm:
    return InvariantForm(a.structure, a.degree, {k: c * s for k, c in a.terms.items()})


def wedge(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    """Exterior product with antisymmetric sign bookkeeping.

    Degrees add; a result beyond the manifold's top degree is the zero form of
    that degree.
    """
    if a.structure is not b.structure:
        raise ValueError("wedge requires forms over the same structure")
    if not a.structure.grid.compatible(b.structure.grid):
        raise ValueError("wedge requires a shared grid")
    deg = a.degree + b.degree
    out: dict[tuple[int, ...], np.ndarray | float] = {}
    if deg > a.structure.rank:
        return InvariantForm(a.structure, deg, {})
    for I, cI in a.terms.items():
        for J, cJ in b.terms.items():
            key, sign = _merge_sign(I, J)
            if key is None:
                continue
            contrib = sign * cI * cJ
            out[key] = out[key] + contrib if key in out else contrib
    return InvariantForm(a.structure, deg, out).prune()


def _coefficient_differential(structure: NilStructure, c) -> list[tuple[int, np.ndarray]]:
    """d of a coefficient as [(label, field)] via the coordinate differentials."""
    if not isinstance(c, np.ndarray):
        return []
    f = ScalarField(structure.grid, c)
    parts: dict[int, np.ndarray] = {}
    for axis, cf in enumerate(structure.coord_forms):
        dvals = derivative(f, axis, 1).values
        if not np.any(dvals):
            continue
        for label, coeff in cf.items():
            if coeff == 0.0:
                continue
            parts[label] = parts.get(label, 0.0) + coeff * dvals
    return list(parts.items())


def exterior_derivative(a: InvariantForm) -> InvariantForm:
    """d on invariant forms: coefficient differentials plus structure constants.

    Coefficients may only depend on the base coordinates (the grid axes);
    fiber directions are handled entirely by the structure constants, so the
    Leibniz rule and d o d = 0 hold to grid roundoff.
    """
    st = a.structure
    out = st.zero_form(a.degree + 1)
    for I, c in a.terms.items():
        for label, dc in _coefficient_differential(st, c):
            out = form_add(out, wedge(InvariantForm(st, 1, {(label,): dc}),
                                      InvariantForm(st, len(I), {I: 1.0})))
        # c * d(theta_I) term by term via Leibniz
        for pos, lab in enumerate(I):
            dth = st.d_table.get(lab, {})
            if not dth:
                continue
            rest = I[:pos] + I[pos + 1:]
            sign = -1.0 if pos % 2 else 1.0
            dform = InvariantForm(st, 2, {k: v for k, v in dth.items()})
            out = form_add(out, form_scale(
                wedge(dform, InvariantForm(st, len(rest), {rest: 1.0})), sign * c))
    return out.prune()


def scalar_differential(structure: NilStructure, u: ScalarField) -> InvariantForm:
    """du for a scalar on the base: partials paired with coordinate differentials."""
    if not structure.grid.compatible(u.grid):
        raise ValueError("scalar lives on a different grid than the structure")
    zero = InvariantForm(structure, 0, {(): u.values})
    return exterior_derivative(zero)


def apply_J(a: InvariantForm) -> InvariantForm:
    """Termwise J-action on a 1-form through the structure's coframe table."""
    if a.degree != 1:
        raise ValueError("apply_J expects a 1-form")
    st = a.structure
    terms: dict[tuple[int, ...], np.ndarray | float] = {}
    for (i,), c in a.terms.items():
        for j, cij in st.j_table.get(i, {}).items():
            contrib = c * cij
            key = (j,)
            terms[key] = terms[key] + contrib if key in terms else contrib
    return InvariantForm(st, 1, terms).prune()


def j_conjugate(a: InvariantForm) -> InvariantForm:
    """Apply J to every slot of a form (a(J., J.) for degree 2)."""
    st = a.structure
    out = st.zero_form(a.degree)
    for I, c in a.terms.items():
        acc = InvariantForm(st, 0, {(): c})
        for i in I:
            img = InvariantForm(st, 1, dict(
                ((j,), cij) for j, cij in st.j_table.get(i, {}).items()))
            acc = wedge(acc, img)
        out = form_add(out, acc)
    return out.prune()


def type_split(a: InvariantForm) -> tuple[InvariantForm, InvariantForm]:
    """Split a 2-form into its J-invariant (1,1) part and the anti-invariant rest."""
    if a.degree != 2:
        raise ValueError("type_split expects a 2-form")
    ja = j_conjugate(a)
    inv = form_scale(form_add(a, ja), 0.5)
    anti = form_scale(form_sub(a, ja), 0.5)
    return inv, anti


def top_form_ratio(w: InvariantForm, structure: NilStructure | None = None) -> ScalarField:
    """Scalar r with w^n = r * omega^n, by exact expansion of the wedge powers."""
    st = structure or w.structure
    if w.degree != 2:
        raise ValueError("top_form_ratio expects a 2-form")
    n = st.half_dim
    wn = w
    omn = st.omega
    for _ in range(n - 1):
        wn = wedge(wn, w)
        omn = wedge(omn, st.omega)
    top = tuple(range(st.rank))
    denom = omn.terms.get(top, 0.0)
    if _is_zero(denom):
        raise ValueError("omega^n is degenerate")
    num = wn.terms.get(top, 0.0)
    vals = np.broadcast_to(np.asarray(num, dtype=float) / np.asarray(denom, dtype=float),
                           st.grid.sizes)
    return ScalarField(st.grid, vals.copy())


def ansatz_correction(u: ScalarField, structure: NilStructure) -> InvariantForm:
    """a(u): the structure's correction terms, constant multiples of u.

    They are the unique constant-coefficient multiples of u making the
    differential of -J du + a(u) J-invariant for every u on the base.
    """
    return InvariantForm(structure, 1, {(label,): coeff * u.values
                                        for coeff, label in structure.correction
                                        if coeff != 0.0})


def ansatz_one_form(u: ScalarField, structure: NilStructure) -> InvariantForm:
    """The scalar-potential 1-form alpha = -J du + a(u)."""
    du = scalar_differential(structure, u)
    return form_add(form_scale(apply_J(du), -1.0), ansatz_correction(u, structure)).prune()


def ansatz_forms(u: ScalarField, structure: NilStructure) -> tuple[InvariantForm, InvariantForm]:
    """(omega + d alpha, d alpha) for the ansatz one-form alpha of u.

    The updated form and its update share one exterior derivative, so a
    caller that needs both (type split, top-form ratio, compatibility,
    potential defect) takes d alpha once.
    """
    d_alpha = exterior_derivative(ansatz_one_form(u, structure))
    return form_add(structure.omega, d_alpha), d_alpha


# ---------------------------------------------------------------------------
# structure factories
# ---------------------------------------------------------------------------

def _paired_omega(rank: int) -> dict[tuple[int, int], float]:
    n = rank // 2
    return {(k, n + k): 1.0 for k in range(n)}


def nil_bundle(
    grid: TorusGrid,
    n: int,
    axis_labels: tuple[str, ...],
    warp: ScalarField | None = None,
    twist: float = 1.0,
) -> NilStructure:
    """Nil-bundle coframe (e1..en, f1..fn) with d f_k = twist * e_k ^ e1.

    `axis_labels` assigns a coframe label to each grid axis (the base
    coordinates).  J maps e_k -> -f_k and f_k -> e_k, except that `warp` is
    the exponent field h of the warped action on the first pair,
    J(e1) = -e^h f1, J(f1) = e^-h e1 (h = 0 when omitted); omega pairs e_k
    with f_k.  The scalar ansatz correction is -twist * u * e1.  For n = 2
    this is the Kodaira-Thurston coframe (e1, e2, f1, f2) with
    d f2 = -twist * e1 ^ e2.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    labels = tuple(f"e{k + 1}" for k in range(n)) + tuple(f"f{k + 1}" for k in range(n))
    # d f_k = twist * e_k ^ e_1, stored on the increasing pair as -twist * (e_1 ^ e_k)
    d_table = {n + k: {(0, k): -float(twist)} for k in range(1, n)} if twist != 0.0 else {}
    eh, emh = 1.0, 1.0
    if warp is not None:
        if not warp.grid.compatible(grid):
            raise ValueError("warp field must live on the structure grid")
        eh, emh = np.exp(warp.values), np.exp(-warp.values)
    j_table = {0: {n: -eh}, n: {0: emh}}
    for k in range(1, n):
        j_table[k] = {n + k: -1.0}
        j_table[n + k] = {k: 1.0}
    coord_forms = tuple({labels.index(lab): 1.0} for lab in axis_labels)
    return NilStructure(
        labels=labels,
        grid=grid,
        d_table=d_table,
        j_table=j_table,
        omega_terms=_paired_omega(2 * n),
        coord_forms=coord_forms,
        correction=((-float(twist), 0),) if twist != 0.0 else (),
    )


def lagrangian_coframe_xx(
    grid: TorusGrid,
    scale_x: float,
    scale_y: float,
    lam1: float = 0.0,
    lam2: float = -1.0,
    sign: int = 1,
) -> NilStructure:
    """Hermitian coframe (a1, a2, b1, b2) for a fibration whose base pulls back
    to the span of a1, a2: dx = scale_x * a1, dy = scale_y * a2.

    Structure: d(b_i) = lam_i * a1^a2, J(a_i) = -sign * b_i.  The ansatz
    correction sign*(lam2 * u * a1 - lam1 * u * a2) makes d(alpha) of type
    (1,1), and the top-form ratio of omega + d(alpha) is then
    (1 + sign*scale_x^2 u_xx)(1 + sign*scale_y^2 u_yy) - (scale_x scale_y u_xy)^2.
    """
    labels = ("a1", "a2", "b1", "b2")
    a1, a2, b1, b2 = 0, 1, 2, 3
    s = float(sign)
    d_table = {}
    if lam1 != 0.0:
        d_table[b1] = {(a1, a2): float(lam1)}
    if lam2 != 0.0:
        d_table[b2] = {(a1, a2): float(lam2)}
    j_table = {a1: {b1: -s}, a2: {b2: -s}, b1: {a1: s}, b2: {a2: s}}
    coord_forms = ({a1: float(scale_x)}, {a2: float(scale_y)})
    return NilStructure(
        labels=labels,
        grid=grid,
        d_table=d_table,
        j_table=j_table,
        omega_terms=_paired_omega(4),
        coord_forms=coord_forms,
        correction=((s * float(lam2), a1), (-s * float(lam1), a2)),
    )


def lagrangian_coframe_xy(
    grid: TorusGrid,
    scale_x: float,
    scale_y: float,
    lam: float = 0.0,
    mu: float = 0.0,
    nu: float = -1.0,
    sign: int = 1,
) -> NilStructure:
    """Hermitian coframe for a fibration with mixed base span: dx = scale_x * a2,
    dy = scale_y * b1, and d(b2) = lam * a1^b1 + mu * a2^b1 + nu * a1^a2.

    The ansatz correction sign*(nu * u * a1 - mu * u * b1) gives a (1,1)
    differential, with top-form ratio
        (1 + s*(lam*scale_x*u_x - nu*scale_y*u_y + scale_y^2*u_yy))
        * (1 + s*scale_x^2*u_xx) - (scale_x*scale_y*u_xy)^2,   s = sign.
    The standard Kodaira-Thurston fibration over (x2, y1) is lam = mu = 0,
    nu = -1, sign = 1 (then the correction is -u * a1).
    """
    labels = ("a1", "a2", "b1", "b2")
    a1, a2, b1, b2 = 0, 1, 2, 3
    s = float(sign)
    db2 = {}
    if lam != 0.0:
        db2[(a1, b1)] = float(lam)
    if mu != 0.0:
        db2[(a2, b1)] = float(mu)
    if nu != 0.0:
        db2[(a1, a2)] = float(nu)
    d_table = {b2: db2} if db2 else {}
    j_table = {a1: {b1: -s}, a2: {b2: -s}, b1: {a1: s}, b2: {a2: s}}
    coord_forms = ({a2: float(scale_x)}, {b1: float(scale_y)})
    return NilStructure(
        labels=labels,
        grid=grid,
        d_table=d_table,
        j_table=j_table,
        omega_terms=_paired_omega(4),
        coord_forms=coord_forms,
        correction=((s * float(nu), a1), (-s * float(mu), b1)),
    )
