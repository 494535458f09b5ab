"""Exact multilinear algebra of invariant forms on 2-step nilmanifold coframes.

A `NilStructure` fixes a global invariant coframe, its structure constants
(the exterior derivative of each coframe 1-form), an almost-complex action on
the coframe (coefficients may be scalar fields), a symplectic form, and the
expansion of each base-coordinate differential in the coframe.  Invariant
forms carry coefficients sampled on the structure's torus grid; wedge, the
ansatz form and its differential, the anti-invariant norm and top-form
ratios are then exact up to grid roundoff.

Index conventions: a k-form is a map from strictly increasing label-index
tuples to coefficients; sign bookkeeping is done by the operations, never by
the caller, and in one place: `_signed_sum` sorts, signs and sums the terms
of every product.  Forms and structures are built only inside the package,
from values checked where they enter, so no operation re-checks them.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .grid import ScalarField, TorusGrid, _field, derivative


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
    multiplied.  Terms on one key add in contribution order.  A sum lands in
    place in an array this sum owns; otherwise a key's first term is stored
    as it is and its second allocates the sum, so no input factor is ever
    written.
    """
    terms: dict[tuple[int, ...], np.ndarray | float] = {}
    owned: set[tuple[int, ...]] = set()  # keys whose term this sum formed
    for I, factors in contributions:
        sign = _permutation_sign(I)
        if sign:
            key = tuple(sorted(I))
            c, fresh = _product(factors, sign)
            if key in owned:  # out of place, the isolated potential defect peaks over its 3.0 pin
                terms[key] += c
            elif key in terms:
                terms[key] = terms[key] + c
                owned.add(key)
            else:
                terms[key] = c
                if fresh:
                    owned.add(key)
    return InvariantForm(structure, degree, terms).prune()


def _product(factors, sign: int):
    """(sign * f1 * f2 * ..., fresh): the factors multiplied left to right;
    `fresh` says the result is an array allocated here.  A scalar factor +-1
    is dropped and its sign kept, so a lone array comes back as itself, and
    a product formed here is negated in place: both are exact."""
    kept = []
    for f in factors:
        # multiplied, +-1 lifts verify_solution's peaks by up to 6.4 fields (DETA_T3 32^3: 19.30)
        if not isinstance(f, np.ndarray) and (f == 1.0 or f == -1.0):
            sign = sign if f > 0 else -sign
        else:
            kept.append(f)
    if not kept:
        return float(sign), False
    c = functools.reduce(operator.mul, kept)
    fresh = len(kept) > 1 and isinstance(c, np.ndarray)
    if sign < 0 and fresh:
        np.negative(c, out=c)  # out of place, the isolated potential defect peaks over its 3.0 pin
    elif sign < 0:
        c, fresh = -c, isinstance(c, np.ndarray)
    return c, fresh


def _keywise(structure: NilStructure, degree: int, contributions, fn) -> dict:
    """{key: fn(key, c)} over the terms c of `_signed_sum(structure, degree,
    contributions)`, one key at a time: each key's contributions, in their
    order, are summed only when that key is reached, and its term is
    dropped once fn has read it, so one key's arrays are alive at once.
    The contributions must hold their factors, not form them."""
    groups: dict[tuple[int, ...], list] = {}
    for I, factors in contributions:
        groups.setdefault(tuple(sorted(I)), []).append((I, factors))
    out: dict = {}
    for group in groups.values():
        out.update((key, fn(key, c)) for key, c in _signed_sum(structure, degree, group).terms.items())
    return out


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
    constant * u * theta^label (see `correction_differential`).
    """

    labels: tuple[str, ...]
    grid: TorusGrid
    d_table: dict[int, dict[tuple[int, int], float]]
    j_table: dict[int, dict[int, "np.ndarray | float"]]
    omega_terms: dict[tuple[int, int], float]
    coord_forms: tuple[dict[int, float], ...]
    correction: tuple[tuple[float, int], ...] = ()

    @functools.cached_property
    def omega_pfaffian(self) -> float:
        """Pf(omega): omega^n = n! Pf(omega) theta^1 ^ ... ^ theta^2n."""
        return float(_pfaffian(self, self.omega.terms))

    @functools.cached_property
    def omega_square_norm(self) -> float:
        """Max coefficient of omega ^ omega."""
        return wedge_max_norm(self.omega, self.omega)

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def omega(self) -> InvariantForm:
        return InvariantForm(self, 2, {k: float(v) for k, v in self.omega_terms.items()})


def form_add(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    terms = dict(a.terms)
    for k, c in b.terms.items():
        terms[k] = terms[k] + c if k in terms else c
    return InvariantForm(a.structure, a.degree, terms)


def form_scale(a: InvariantForm, s: "np.ndarray | float") -> InvariantForm:
    return InvariantForm(a.structure, a.degree, {k: c * s for k, c in a.terms.items()})


def wedge(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    """Exterior product with antisymmetric sign bookkeeping.

    Degrees add; a result beyond the manifold's top degree is the zero form of
    that degree, since each of its index tuples repeats an index.
    """
    return _signed_sum(a.structure, a.degree + b.degree, _wedge_terms(a, b))


def wedge_max_norm(a: InvariantForm, b: InvariantForm) -> float:
    """Max coefficient of a ^ b, formed one key at a time, with no |c| array."""
    # formed whole, the isolated potential defect peaks at 9.02 fields on NDIM_FULL 12^4
    norms = _keywise(a.structure, a.degree + b.degree, _wedge_terms(a, b),
                     lambda _, c: max(float(np.max(c)), -float(np.min(c))))
    return max(norms.values(), default=0.0)


def _wedge_terms(a: InvariantForm, b: InvariantForm):
    return [(I + J, (cI, cJ)) for I, cI in a.terms.items() for J, cJ in b.terms.items()]


def _coefficient_differential(structure: NilStructure, f: ScalarField, I=()):
    """df ^ theta_I as contributions, one per nonzero partial of f and label
    of its coordinate differential."""
    for axis, cf in enumerate(structure.coord_forms):
        dvals = derivative(f, axis, 1).values
        if not np.any(dvals):
            continue
        for label, coeff in cf.items():
            if coeff != 0.0:
                yield (label,) + I, (dvals, coeff)


def _structure_terms(st: NilStructure, I: tuple[int, ...], c):
    """c * d(theta_I) as contributions, term by term via Leibniz: d passes
    pos 1-forms to reach theta_I[pos], and the 2-form d(theta_I[pos]) commutes."""
    for pos, lab in enumerate(I):
        for pair, v in st.d_table.get(lab, {}).items():
            yield pair + I[:pos] + I[pos + 1:], (-v if pos % 2 else v, c)


def _j_images(a: InvariantForm):
    """J applied to every slot of each term of `a`, as contributions: the
    image tuple and the term's coefficient followed by the slots' J entries."""
    J = a.structure.j_table
    for I, c in a.terms.items():
        for images in itertools.product(*(J.get(i, {}).items() for i in I)):
            yield tuple(j for j, _ in images), (c, *(cij for _, cij in images))


def anti_invariant_norm(a: InvariantForm) -> float:
    """Max coefficient of (a - J a) / 2, the anti-invariant part of a 2-form,
    taken key by key from a and J a: neither part of the split, nor J a as
    a whole, is formed."""
    def half_max(k, ja_k):
        d = np.subtract(a.terms.get(k, 0.0), ja_k)
        # out of place, the abs peaks at 2.02 fields on DETA_T3 32^3, not 1.02
        return 0.5 * float(np.max(np.abs(d, out=d) if isinstance(d, np.ndarray) else abs(d)))

    # J a formed whole, WARPED_T3 32^3 peaks at 6.01 fields, not 2.02
    jas = _keywise(a.structure, a.degree, _j_images(a), half_max)
    rest = (half_max(k, 0.0) for k in a.terms if k not in jas)
    return max(itertools.chain(jas.values(), rest), default=0.0)


def _matchings(W: dict, idx: tuple[int, ...]):
    """Perfect matchings of the indices idx whose pairs all carry a
    coefficient of W, expanded along the first index, as contributions:
    (i1, j1, i2, j2, ...) and the coefficients W[i1, j1], W[i2, j2], ...
    The permutation sign of the index tuple is the matching's sign in the
    Pfaffian."""
    if not idx:
        yield (), ()
        return
    for k in range(1, len(idx)):
        pair = (idx[0], idx[k])
        if pair in W:
            for I, factors in _matchings(W, idx[1:k] + idx[k + 1:]):
                yield pair + I, (W[pair], *factors)


def _pfaffian(st: NilStructure, W: dict):
    """Pf of the antisymmetric rank x rank matrix with W[i, j] above its
    diagonal: each perfect matching multiplied once and summed in place."""
    top = tuple(range(st.rank))
    return _signed_sum(st, st.rank, _matchings(W, top)).terms.get(top, 0.0)


def top_form_ratio(w: InvariantForm) -> ScalarField:
    """Scalar r with w^n = r * omega^n for a 2-form w.  Both top powers are
    n! times a Pfaffian, so r = Pf(W) / Pf(omega) for the coefficient matrix
    W of w, and Pf(omega) = +-1; no wedge power is formed.  r is a checked
    field: a candidate whose ratio overflows raises ValueError."""
    st = w.structure
    return ScalarField(st.grid, np.divide(_pfaffian(st, w.terms), st.omega_pfaffian))


def correction_differential(u: ScalarField, du: InvariantForm) -> InvariantForm:
    """d a(u) from du, with no transform: a(u) = u * theta_c for the constant
    1-form theta_c = sum of the correction terms, so by the Leibniz rule
    d a(u) = du ^ theta_c + u * d theta_c."""
    st = du.structure
    theta_c = InvariantForm(st, 1, {(label,): coeff for coeff, label in st.correction})
    d_theta_c = _signed_sum(st, 2, (t for I, c in theta_c.terms.items()
                                    for t in _structure_terms(st, I, c)))
    return form_add(wedge(du, theta_c), form_scale(d_theta_c, u.values)).prune()


def ansatz_forms(u: ScalarField, structure: NilStructure
                 ) -> tuple[InvariantForm, InvariantForm, InvariantForm]:
    """(omega + d alpha, d alpha, d a(u)) for alpha = -J du + a(u), from one
    spectral jet of u.  With beta_a = -J(dx^a), d(-J du) is the sum over a of
    (sum_b u_ab dx^b) ^ beta_a + u_a d beta_a, whose second terms are the
    structure terms of -J du, taken from du's terms and J's entries, and
    d a(u) is `correction_differential`.  A field entry k of J (the warped
    e^{+-h} pair) has no Leibniz rule on the grid: u_a k is differentiated
    as one coefficient.  Each u_ab is formed on its first read and dropped
    after its last."""
    st = structure
    fu = _field(u.grid, u.values)
    dx = [(b, lab, c) for b, cf in enumerate(st.coord_forms) for lab, c in cf.items()]
    u_a = {b: derivative(fu, b, 1).values for b, _, _ in dx}
    du = _signed_sum(st, 1, (((lab,), (c, u_a[b])) for b, lab, c in dx))
    d_a = correction_differential(u, du)
    # u_ab (a <= b) as d of du takes them; held to the end, LAGR_X2Y1 64^2 peaks at 16.38 > 14.99
    reads = collections.Counter((min(a, b), max(a, b)) for a, la, _ in dx
                                for k in st.j_table.get(la, {}).values()
                                if not isinstance(k, np.ndarray) for b, _, _ in dx)
    jet: dict[tuple[int, int], np.ndarray] = {}

    def u_ab(a, b):
        ab = (min(a, b), max(a, b))
        if ab not in jet:
            jet[ab] = derivative(derivative(fu, ab[0], 1), ab[1], 1).values
        reads[ab] -= 1
        return jet[ab] if reads[ab] else jet.pop(ab)

    def contributions():
        for a, la, ca in dx:
            for j, k in st.j_table.get(la, {}).items():
                if isinstance(k, np.ndarray):
                    coeff = -ca * k * u_a[a]
                    yield from _coefficient_differential(st, _field(st.grid, coeff), (j,))
                else:
                    yield from (((lb, j), (cb, -ca * k, u_ab(a, b))) for b, lb, cb in dx)
        for (i,), c in du.terms.items():  # v * (-J du)_j for d theta^j = v theta^pair
            for j, k in st.j_table.get(i, {}).items():
                yield from ((pair, (c, k, -1.0, v)) for pair, v in st.d_table.get(j, {}).items())
        yield from ((I, (c,)) for I, c in d_a.terms.items())

    d_alpha = _signed_sum(st, 2, contributions())
    return form_add(st.omega, d_alpha), d_alpha, d_a


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
