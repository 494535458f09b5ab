"""Independent references that the tests compare the package against.

The tool builds the ansatz form once, from one spectral jet of u
(`nilframe.ansatz_forms`).  These build it the generic way: du as the
exterior derivative of a 0-form, alpha = -J du + a(u), and d alpha by
transforming every coefficient of alpha again.  They sum through the
package's private accumulator and Leibniz helpers, as the tool does, so
only the route differs.  `residual_geom` is a family's residual by the
exterior-algebra route, and `ndim_printed` the published n = 3 closed form.
"""

import numpy as np

from torus_ma import equations as eq
from torus_ma import nilframe as nf
from torus_ma.grid import ScalarField, _field


def coefficient(a: nf.InvariantForm, key: tuple[int, ...]) -> np.ndarray:
    c = a.terms.get(tuple(key), 0.0)
    return np.broadcast_to(np.asarray(c, dtype=float), a.structure.grid.sizes)


def validate(st: nf.NilStructure, tol: float = 1e-12) -> None:
    """Check J^2 = -1 on the coframe and J-invariance of omega, pointwise."""
    J = st.j_table
    for i in range(st.rank):
        # J(J theta^i) + theta^i, which also catches a row of J that is missing
        defect = nf._signed_sum(st, 1, [((i,), (1.0,))] + [
            ((k,), (cij, cjk)) for j, cij in J.get(i, {}).items()
            for k, cjk in J.get(j, {}).items()])
        if defect.max_norm() > tol:
            raise AssertionError(f"J^2 != -1 at coframe index {i}")
    om = st.omega
    defect = nf._signed_sum(st, 2, [*nf._j_images(om), *((I, (-c,)) for I, c in om.terms.items())])
    if defect.max_norm() > tol:
        raise AssertionError("omega is not J-invariant")


def exterior_derivative(a: nf.InvariantForm) -> nf.InvariantForm:
    """d on invariant forms: coefficient differentials plus structure constants.

    Coefficients may only depend on the base coordinates (the grid axes);
    fiber directions are handled entirely by the structure constants, so the
    Leibniz rule and d o d = 0 hold to grid roundoff.
    """
    st = a.structure

    def contributions():
        for I, c in a.terms.items():
            if isinstance(c, np.ndarray):
                yield from nf._coefficient_differential(st, _field(st.grid, c), I)
            yield from nf._structure_terms(st, I, c)

    return nf._signed_sum(st, a.degree + 1, contributions())


def j_conjugate(a: nf.InvariantForm) -> nf.InvariantForm:
    """Apply J to every slot of a form (a(J., J.) for degree 2)."""
    return nf._signed_sum(a.structure, a.degree, nf._j_images(a))


def type_split(a: nf.InvariantForm) -> tuple[nf.InvariantForm, nf.InvariantForm]:
    """Split a 2-form into its J-invariant (1,1) part and the anti-invariant rest."""
    if a.degree != 2:
        raise ValueError("type_split expects a 2-form")
    ja = j_conjugate(a)
    inv = nf.form_scale(nf.form_add(a, ja), 0.5)
    anti = nf.form_scale(nf.form_add(a, nf.form_scale(ja, -1.0)), 0.5)
    return inv, anti


def ansatz_correction(u: ScalarField, structure: nf.NilStructure) -> nf.InvariantForm:
    """a(u): the structure's correction terms, constant multiples of u.

    They are the unique constant-coefficient multiples of u making the
    differential of -J du + a(u) J-invariant for every u on the base.
    """
    return nf.InvariantForm(structure, 1, {(label,): coeff * u.values
                                           for coeff, label in structure.correction})


def ansatz_one_form(u: ScalarField, structure: nf.NilStructure) -> nf.InvariantForm:
    """The scalar-potential 1-form alpha = -J du + a(u)."""
    du = exterior_derivative(nf.InvariantForm(structure, 0, {(): u.values}))
    return nf.form_add(nf.form_scale(j_conjugate(du), -1.0),
                       ansatz_correction(u, structure)).prune()


def residual_geom(spec: eq.EquationSpec, u: ScalarField) -> ScalarField:
    """The family's residual recomputed through the exterior-algebra route:
    rebuild omega + d(alpha), take its top-form ratio and weight it."""
    eq._check_grid(spec, u)
    st = eq.structure_for(spec, u.grid)
    w = nf.ansatz_forms(u, st)[0]
    return ScalarField(u.grid, np.exp(eq.datum_log_weight(spec)) * nf.top_form_ratio(w).values)


def ndim_printed(spec: eq.EquationSpec, u: ScalarField) -> ScalarField:
    """The published n = 3 closed-form expression, implemented verbatim for
    comparison: its first-order sign and correction terms disagree with the
    exterior-algebra expansion, which is the residual of record."""
    if spec.axis_names != ("x1", "x2", "x3", "y1"):
        raise ValueError("the printed comparison form is stated for n = 3")
    f = eq.evaluate(spec, u)
    M = eq._hessian_matrix(3, f, f[3, 3] - f[(3,)])
    vals = (eq._det(M) - f[2, 2] * f[1, 3] ** 2 - f[1, 1] * f[2, 3] ** 2
            - 2.0 * f[1, 2] * f[1, 3] * f[2, 3])
    return ScalarField(u.grid, vals)
