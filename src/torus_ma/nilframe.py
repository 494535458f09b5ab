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
the caller, and in one place: `_signed_sum` sorts, signs and sums the terms
of every product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import ScalarField, TorusGrid, _unchecked_field, derivative


def _permutation_sign(idx: tuple[int, ...]) -> int:
    """Parity of the permutation that sorts `idx`; 0 when an index repeats."""
    if len(set(idx)) < len(idx):
        return 0
    inversions = sum(a > b for k, a in enumerate(idx) for b in idx[k + 1:])
    return -1 if inversions % 2 else 1


def _signed_sum(structure: NilStructure, degree: int, contributions) -> InvariantForm:
    """Pruned sum of sign(I) * f1 * f2 * ... * theta^sorted(I) over the
    contributions (I, (f1, f2, ...)): the one place that sorts, signs and sums.

    An I that repeats an index contributes nothing, and its factors are never
    multiplied.  The factors multiply left to right and a sign of -1 negates
    the product, which is exact; terms on one key add in contribution order.
    """
    terms: dict[tuple[int, ...], np.ndarray | float] = {}
    for I, factors in contributions:
        sign = _permutation_sign(I)
        if sign:
            c = math.prod(factors[1:], start=factors[0])
            c = c if sign > 0 else -c
            key = tuple(sorted(I))
            terms[key] = terms[key] + c if key in terms else c
    return InvariantForm(structure, degree, terms).prune()


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
        J = self.j_table
        for i in range(self.rank):
            # J(J theta^i) + theta^i, which also catches a row of J that is missing
            defect = _signed_sum(self, 1, [((i,), (1.0,))] + [
                ((k,), (cij, cjk)) for j, cij in J.get(i, {}).items()
                for k, cjk in J.get(j, {}).items()])
            if defect.max_norm() > tol:
                raise AssertionError(f"J^2 != -1 at coframe index {i}")
        om = self.omega
        defect = _signed_sum(self, 2, [*_j_images(om), *((I, (-c,)) for I, c in om.terms.items())])
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
    that degree, since each of its index tuples repeats an index.
    """
    if a.structure is not b.structure:  # one structure is one grid
        raise ValueError("wedge requires forms over the same structure")
    return _signed_sum(a.structure, a.degree + b.degree, (
        (I + J, (cI, cJ)) for I, cI in a.terms.items() for J, cJ in b.terms.items()))


def _coefficient_differential(structure: NilStructure, f: ScalarField, I=()):
    """df ^ theta_I as contributions, one per nonzero partial of f and label
    of its coordinate differential."""
    for axis, cf in enumerate(structure.coord_forms):
        dvals = derivative(f, axis, 1).values
        if not np.any(dvals):
            continue
        for label, coeff in cf.items():
            if coeff != 0.0:
                yield (label,) + I, (coeff * dvals,)


def exterior_derivative(a: InvariantForm) -> InvariantForm:
    """d on invariant forms: coefficient differentials plus structure constants.

    Coefficients may only depend on the base coordinates (the grid axes);
    fiber directions are handled entirely by the structure constants, so the
    Leibniz rule and d o d = 0 hold to grid roundoff.
    """
    st = a.structure

    def contributions():
        for I, c in a.terms.items():
            if isinstance(c, np.ndarray):
                yield from _coefficient_differential(st, _unchecked_field(st.grid, c), I)
            # c * d(theta_I) term by term via Leibniz: d passes pos 1-forms
            # to reach theta_I[pos], and the 2-form d(theta_I[pos]) commutes
            for pos, lab in enumerate(I):
                for pair, v in st.d_table.get(lab, {}).items():
                    yield pair + I[:pos] + I[pos + 1:], (-v if pos % 2 else v, c)

    return _signed_sum(st, a.degree + 1, contributions())


def scalar_differential(structure: NilStructure, u: ScalarField) -> InvariantForm:
    """du for a scalar on the base: partials paired with coordinate
    differentials, taken from a transient spectrum of u."""
    if not structure.grid.compatible(u.grid):
        raise ValueError("scalar lives on a different grid than the structure")
    return _signed_sum(structure, 1, _coefficient_differential(
        structure, _unchecked_field(u.grid, u.values)))


def apply_J(a: InvariantForm) -> InvariantForm:
    """Termwise J-action on a 1-form through the structure's coframe table."""
    if a.degree != 1:
        raise ValueError("apply_J expects a 1-form")
    return j_conjugate(a)


def _j_images(a: InvariantForm):
    """J applied to every slot of each term of `a`, as contributions: the
    image tuple and the term's coefficient followed by the slots' J entries."""
    J = a.structure.j_table
    for I, c in a.terms.items():
        for images in itertools.product(*(J.get(i, {}).items() for i in I)):
            yield tuple(j for j, _ in images), (c, *(cij for _, cij in images))


def j_conjugate(a: InvariantForm) -> InvariantForm:
    """Apply J to every slot of a form (a(J., J.) for degree 2)."""
    return _signed_sum(a.structure, a.degree, _j_images(a))


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
    return ScalarField(st.grid, np.asarray(num, dtype=float) / np.asarray(denom, dtype=float))


def ansatz_correction(u: ScalarField, structure: NilStructure) -> InvariantForm:
    """a(u): the structure's correction terms, constant multiples of u.

    They are the unique constant-coefficient multiples of u making the
    differential of -J du + a(u) J-invariant for every u on the base.
    """
    return InvariantForm(structure, 1, {(label,): coeff * u.values
                                        for coeff, label in structure.correction})


def correction_differential(u: ScalarField, du: InvariantForm) -> InvariantForm:
    """d a(u) from du, with no transform: a(u) = u * theta_c for the constant
    1-form theta_c = sum of the correction terms, so by the Leibniz rule
    d a(u) = du ^ theta_c + u * d theta_c."""
    st = du.structure
    theta_c = InvariantForm(st, 1, {(label,): coeff for coeff, label in st.correction})
    return form_add(wedge(du, theta_c), form_scale(exterior_derivative(theta_c), u.values)).prune()


def ansatz_one_form(u: ScalarField, structure: NilStructure,
                    du: InvariantForm | None = None) -> InvariantForm:
    """The scalar-potential 1-form alpha = -J du + a(u); `du` is taken from
    u unless the caller has it already."""
    if du is None:
        du = scalar_differential(structure, u)
    return form_add(form_scale(apply_J(du), -1.0), ansatz_correction(u, structure)).prune()


def ansatz_forms(u: ScalarField, structure: NilStructure,
                 du: InvariantForm | None = None) -> tuple[InvariantForm, InvariantForm]:
    """(omega + d alpha, d alpha) for the ansatz one-form alpha of u.

    The updated form and its update share one exterior derivative, so a
    caller that needs both (type split, top-form ratio, compatibility,
    potential defect) takes d alpha once.
    """
    d_alpha = exterior_derivative(ansatz_one_form(u, structure, du))
    return form_add(structure.omega, d_alpha), d_alpha


# ---------------------------------------------------------------------------
# structure factories
# ---------------------------------------------------------------------------

def _paired_coframe(grid, names, n, d, coords, correction, sign=1.0, warp=None) -> NilStructure:
    """Coframe (a1..an, b1..bn) for `names` = (a, b): omega pairs a_k with b_k,
    J(a_k) = -sign * b_k and J(b_k) = sign * a_k, with e^h and e^-h on the
    first pair for the exponent field h = `warp`.  `d` gives differentials
    {label: {(label, label): constant}} on increasing pairs, `coords` each
    grid axis as (label, scale), and `correction` the ansatz terms
    (constant, label); zero constants are dropped."""
    labels = tuple(f"{name}{k + 1}" for name in names for k in range(n))
    at = labels.index
    s = float(sign)
    eh, emh = 1.0, 1.0
    if warp is not None:
        if not warp.grid.compatible(grid):
            raise ValueError("warp field must live on the structure grid")
        eh, emh = np.exp(warp.values), np.exp(-warp.values)
    j_table = {0: {n: -s * eh}, n: {0: s * emh}}
    for k in range(1, n):
        j_table[k] = {n + k: -s}
        j_table[n + k] = {k: s}
    d_table = {at(lab): {(at(p), at(q)): float(c) for (p, q), c in dl.items() if c != 0.0}
               for lab, dl in d.items()}
    return NilStructure(
        labels=labels,
        grid=grid,
        d_table={i: di for i, di in d_table.items() if di},
        j_table=j_table,
        omega_terms={(k, n + k): 1.0 for k in range(n)},
        coord_forms=tuple({at(lab): float(scale)} for lab, scale in coords),
        correction=tuple((float(c), at(lab)) for c, lab in correction if c != 0.0),
    )


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
    # d f_k = twist * e_k ^ e_1, stored on the increasing pair as -twist * (e_1 ^ e_k)
    d = {f"f{k + 1}": {("e1", f"e{k + 1}"): -twist} for k in range(1, n)}
    return _paired_coframe(grid, ("e", "f"), n, d, [(lab, 1.0) for lab in axis_labels],
                           [(-twist, "e1")], warp=warp)


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
    d = {"b1": {("a1", "a2"): lam1}, "b2": {("a1", "a2"): lam2}}
    return _paired_coframe(grid, ("a", "b"), 2, d, [("a1", scale_x), ("a2", scale_y)],
                           [(sign * lam2, "a1"), (-sign * lam1, "a2")], sign)


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
    d = {"b2": {("a1", "b1"): lam, ("a2", "b1"): mu, ("a1", "a2"): nu}}
    return _paired_coframe(grid, ("a", "b"), 2, d, [("a2", scale_x), ("b1", scale_y)],
                           [(sign * nu, "a1"), (-sign * mu, "b1")], sign)
