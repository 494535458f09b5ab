import dataclasses
import functools

import numpy as np
import pytest

from torus_ma import equations as eq
from torus_ma import nilframe as nf
from torus_ma import solver as sv
from torus_ma import verify as vf
from torus_ma.grid import (
    ScalarField,
    TorusGrid,
    from_function,
    mixed_derivative,
    project_mean_zero,
    random_trig_field,
)

from conftest import branch_safe_field, count_transforms, rel_err


def zero_field(grid):
    return ScalarField(grid, np.zeros(grid.sizes))


@pytest.fixture(scope="module")
def solved_stdma():
    g = TorusGrid((64, 64))
    spec = eq.EquationSpec(eq.Family.STDMA)
    F = eq.normalize_datum(spec, from_function(
        g, lambda x, y: 0.8 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)))
    rep = sv.continuity_solve(spec, F, sv.SolverConfig())
    assert rep.converged
    return spec, F, rep


@pytest.fixture(scope="module")
def solved_genma():
    g = TorusGrid((64, 64))
    spec = eq.EquationSpec(eq.Family.GENMA)
    F = eq.normalize_datum(spec, from_function(
        g, lambda x, y: 0.5 * np.cos(2 * np.pi * x) + 0.4 * np.sin(2 * np.pi * y)
        * np.cos(2 * np.pi * x)))
    rep = sv.continuity_solve(spec, F, sv.SolverConfig())
    assert rep.converged
    return spec, F, rep


class TestReconstruct:
    def test_zero_gives_omega(self):
        g = TorusGrid((16, 16))
        spec = eq.EquationSpec(eq.Family.STDMA)
        st = eq.structure_for(spec, g)
        w = vf.reconstruct_form(zero_field(g), spec, structure=st)
        assert nf.form_sub(w, st.omega).max_norm() == 0.0

    def test_stdma_coefficients(self, rng):
        # the rebuilt form carries 1 + u_xx, 1 + u_yy, and the mixed terms
        g = TorusGrid((32, 32))
        spec = eq.EquationSpec(eq.Family.STDMA)
        u = branch_safe_field(g, rng, max_mode=2, hessian_scale=0.3)
        w = vf.reconstruct_form(u, spec)
        uxx = mixed_derivative(u, 0, 0).values
        uyy = mixed_derivative(u, 1, 1).values
        uxy = mixed_derivative(u, 0, 1).values
        assert rel_err(w.coefficient((0, 2)), 1.0 + uxx) < 1e-11
        assert rel_err(w.coefficient((1, 3)), 1.0 + uyy) < 1e-11
        assert rel_err(w.coefficient((0, 3)), uxy) < 1e-11
        assert rel_err(w.coefficient((1, 2)), uxy) < 1e-11
        # no update along the fiber pair for base-only potentials
        assert np.max(np.abs(w.coefficient((0, 1)))) < 1e-11
        assert np.max(np.abs(w.coefficient((2, 3)))) < 1e-11

    def test_genma_cross_terms_present(self, rng):
        g = TorusGrid((32, 32))
        spec = eq.EquationSpec(eq.Family.GENMA)
        u = branch_safe_field(g, rng, max_mode=2, hessian_scale=0.3)
        w = vf.reconstruct_form(u, spec)
        # labels for the x2-y1 fibration: e1, e2, f1, f2 with x -> e2, y -> f1
        uxy = mixed_derivative(u, 0, 1).values
        assert rel_err(w.coefficient((0, 1)), uxy) < 1e-11
        assert rel_err(w.coefficient((2, 3)), uxy) < 1e-11


class TestVerifySolution:
    def test_flat_case_all_zero(self):
        g = TorusGrid((16, 16))
        spec = eq.EquationSpec(eq.Family.STDMA)
        rep = vf.verify_solution(zero_field(g), zero_field(g), spec)
        assert rep.anti_invariant_norm == 0.0
        assert rep.topform_residual == 0.0
        assert rep.volume_defect == 0.0
        assert rep.potential_defect == 0.0
        assert rep.positivity_margin == pytest.approx(1.0)
        assert rep.passed

    def test_converged_stdma_passes(self, solved_stdma):
        spec, F, rep = solved_stdma
        ver = vf.verify_solution(rep.u, F, spec, tol=1e-8)
        assert ver.passed
        assert ver.potential_defect <= 1e-8

    def test_converged_genma_potential_obstruction(self, solved_genma):
        spec, F, rep = solved_genma
        ver = vf.verify_solution(rep.u, F, spec, tol=1e-8)
        assert ver.passed
        assert ver.potential_defect >= 1e-4

    def test_grid_mismatch_rejected(self):
        spec = eq.EquationSpec(eq.Family.STDMA)
        u = zero_field(TorusGrid((16, 16)))
        F = zero_field(TorusGrid((32, 32)))
        with pytest.raises(ValueError):
            vf.verify_solution(u, F, spec)

    @pytest.mark.parametrize("family, sizes, n", [
        ("STDMA", (32, 32), 2),
        ("WARPED_T3", (16, 16, 16), 2),
        ("NDIM_FULL", (8, 8, 8, 8), 3),
    ], ids=["STDMA", "WARPED_T3", "NDIM_FULL"])
    def test_verify_takes_each_exterior_derivative_once(self, monkeypatch, rng,
                                                        family, sizes, n):
        # d(alpha) and d(a): the reconstruction, the type split, the top-form
        # ratio and the potential defect share one d(alpha), and du comes
        # from u's spectrum, not from d of a 0-form
        g = TorusGrid(sizes)
        h = (random_trig_field(g, rng, max_mode=1, scale=0.3, axes=(0, 2))
             if family == "WARPED_T3" else None)
        spec = eq.EquationSpec(eq.Family(family), n=n, h=h)
        u = branch_safe_field(g, rng, max_mode=1, hessian_scale=0.3)
        calls = []
        inner = nf.exterior_derivative

        def counted(a):
            calls.append(a.degree)
            return inner(a)

        monkeypatch.setattr(nf, "exterior_derivative", counted)
        vf.verify_solution(u, zero_field(g), spec)
        assert sorted(calls) == [1, 1]


class TestVolumeConservation:
    def test_any_potential_preserves_volume(self, rng):
        # exactness of the update makes the total volume invariant for any
        # periodic potential, solution or not
        cases = []
        g2 = TorusGrid((32, 32))
        u2 = branch_safe_field(g2, rng, max_mode=2, hessian_scale=0.4)
        h2 = from_function(g2, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
        for spec in (eq.EquationSpec(eq.Family.STDMA),
                     eq.EquationSpec(eq.Family.GENMA),
                     eq.EquationSpec(eq.Family.LAGR_X1X2, l1=1.3, l2=0.6),
                     eq.EquationSpec(eq.Family.LAGR_X2Y1, l1=-1.3, l2=-0.6,
                                     m1=0.4, m2=-0.2),
                     eq.EquationSpec(eq.Family.WARPED, c=1.0, h=h2)):
            cases.append((spec, u2))
        g3 = TorusGrid((32, 32, 32))
        u3 = branch_safe_field(g3, rng, max_mode=2, hessian_scale=0.3)
        h3 = random_trig_field(g3, rng, max_mode=1, scale=0.3, axes=(0, 2))
        cases.append((eq.EquationSpec(eq.Family.DETA_T3), u3))
        cases.append((eq.EquationSpec(eq.Family.WARPED_T3, h=h3), u3))
        g4 = TorusGrid((16,) * 4)
        cases.append((eq.EquationSpec(eq.Family.NDIM_FULL, n=3),
                      branch_safe_field(g4, rng, max_mode=1, hessian_scale=0.3)))
        g3n = TorusGrid((16,) * 3)
        u3n = branch_safe_field(g3n, rng, max_mode=1, hessian_scale=0.3)
        cases.append((eq.EquationSpec(eq.Family.NDIM_HESSIAN, n=3), u3n))
        cases.append((eq.EquationSpec(eq.Family.NDIM_B, n=3), u3n))

        for spec, u in cases:
            st = eq.structure_for(spec, u.grid)
            w = vf.reconstruct_form(u, spec, structure=st)
            ratio = nf.top_form_ratio(w, st)
            assert abs(float(np.mean(ratio.values)) - 1.0) <= 1e-10, spec.family

    def test_positivity_co_occurrence(self, rng):
        # compatibility positivity of the rebuilt form and the coefficient
        # matrix margin agree in sign on branch and off branch
        g = TorusGrid((32, 32))
        spec = eq.EquationSpec(eq.Family.STDMA)
        st = eq.structure_for(spec, g)
        for _ in range(6):
            u = branch_safe_field(g, rng, max_mode=2, hessian_scale=0.5)
            margin = vf.compatibility_margin(vf.reconstruct_form(u, spec, structure=st))
            monitor = sv.ellipticity_monitor(spec, u)
            assert margin > 0 and monitor > 0
        bad = from_function(g, lambda x, y: 2.5 / (2 * np.pi) ** 2 * np.cos(2 * np.pi * x))
        margin = vf.compatibility_margin(vf.reconstruct_form(bad, spec, structure=st))
        monitor = sv.ellipticity_monitor(spec, bad)
        assert margin < 0 and monitor < 0


class TestPotentialDefect:
    def test_zero_candidate(self):
        g = TorusGrid((16, 16))
        assert vf.potential_defect(zero_field(g), eq.EquationSpec(eq.Family.STDMA)) == 0.0

    def test_base_fibration_always_potential(self, rng):
        # for the x1-x2 fibration the correction never obstructs
        g = TorusGrid((32, 32))
        u = branch_safe_field(g, rng, max_mode=3, hessian_scale=0.4)
        assert vf.potential_defect(u, eq.EquationSpec(eq.Family.STDMA)) <= 1e-12

    def test_mixed_fibration_obstruction(self, rng):
        # a y-dependent potential on the x2-y1 fibration is obstructed
        g = TorusGrid((32, 32))
        u = branch_safe_field(g, rng, max_mode=2, hessian_scale=0.4)
        assert vf.potential_defect(u, eq.EquationSpec(eq.Family.GENMA)) > 1e-4

    @pytest.mark.parametrize("family, sizes, params", [
        ("STDMA", (16, 12), {}), ("GENMA", (16, 12), {}),
        ("LAGR_X2Y1", (16, 12), {"l1": -1.1, "l2": -0.9, "m1": 0.4, "m2": -0.3}),
        ("WARPED", (16, 12), {"c": 0.7}), ("WARPED_T3", (16, 12, 8), {}),
        ("NDIM_FULL", (16, 12, 8, 8), {"n": 3}), ("NDIM_B", (16, 12, 8), {"n": 3})])
    def test_correction_differential_matches_transform(self, rng, family, sizes, params):
        # d a(u) from du by the Leibniz rule against the exterior derivative
        # that transforms the correction's coefficients c*u again
        g = TorusGrid(sizes)
        if family.startswith("WARPED"):
            params = {**params, "h": random_trig_field(g, rng, max_mode=2, scale=0.3, axes=(0,))}
        spec = eq.EquationSpec(family, **params)
        # the catalog corrects only closed labels; correct every label that
        # is not closed as well, so that the u * d theta_c term counts too
        st = eq.structure_for(spec, g)
        st = dataclasses.replace(st, correction=st.correction + tuple((0.7, k) for k in st.d_table))
        u = ScalarField(g, rng.standard_normal(g.sizes))
        want = nf.exterior_derivative(nf.ansatz_correction(u, st))
        got = nf.correction_differential(u, nf.scalar_differential(st, u))
        assert set(got.terms) == set(want.terms)
        for key, c in want.terms.items():
            assert rel_err(got.coefficient(key), c) <= 1e-14, key

    def test_verify_reuses_the_partials_of_u(self, monkeypatch):
        # du (1 forward, 2 inverse) and d alpha (3 forward, 6 inverse); d a(u)
        # comes from du and takes none
        g = TorusGrid((32, 32))
        u = from_function(g, lambda x, y: 0.01 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
        counts = count_transforms(monkeypatch)
        vf.verify_solution(u, zero_field(g), eq.EquationSpec(eq.Family.STDMA))
        monkeypatch.undo()
        assert counts == {"rfftn": 4, "irfftn": 8, "fftn": 0, "ifftn": 0}


def _nonfinite(grid):
    f = zero_field(grid)
    f.values[1, 2] = np.nan  # a caller wrote into a checked field
    return f


@pytest.mark.parametrize("entry", [
    pytest.param(lambda g, spec, bad: eq.residual(spec, bad), id="residual"),
    pytest.param(lambda g, spec, bad: sv.continuity_solve(spec, bad, sv.SolverConfig()),
                 id="continuity_solve"),
    pytest.param(lambda g, spec, bad: vf.verify_solution(bad, zero_field(g), spec),
                 id="verify_solution"),
])
def test_nonfinite_input_rejected_at_entry(entry):
    # fields computed inside are built unchecked, so the entry points check
    g = TorusGrid((16, 16))
    with pytest.raises(ValueError, match="finite"):
        entry(g, eq.EquationSpec(eq.Family.STDMA), _nonfinite(g))


# ---------------------------------------------------------------------------
# the smallest-eigenvalue kernel behind both positivity monitors
# ---------------------------------------------------------------------------

def _dense_min(stack):
    return float(np.min(np.linalg.eigvalsh(stack)[..., 0]))


def _nested(stack):
    r = stack.shape[-1]
    return [[stack[..., i, j] for j in range(r)] for i in range(r)]


def _dense_pairing(w, sign):
    """sign * (WJ + (WJ)^T) / 2 stacked over the grid, by a dense matmul."""
    st = w.structure
    r, shape = st.rank, st.grid.sizes
    W, J = np.zeros(shape + (r, r)), np.zeros(shape + (r, r))
    for (i, j), c in w.terms.items():
        W[..., i, j] = c
        W[..., j, i] = -np.asarray(c)
    for i, row in st.j_table.items():
        for b, c in row.items():
            J[..., i, b] = c
    G = W @ J
    return 0.5 * sign * (G + np.swapaxes(G, -1, -2))


def _dense_coefficients(spec, u):
    M = eq.coefficient_matrix(spec, u) * eq.branch_sign(spec)
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _star2(g):
    # acceptance criterion 4's manufactured solutions and warp profiles
    return project_mean_zero(from_function(
        g, lambda x, y: 0.012 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        + 0.002 * np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y)))


def _star_hessian(g):
    # acceptance criterion 9's candidate for the Hessian family
    return project_mean_zero(from_function(
        g, lambda x1, x2, x3: 0.008 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2)
        + 0.006 * np.cos(2 * np.pi * x2) * np.sin(2 * np.pi * x3)))


@functools.cache
def _criterion_fields():
    """(spec, u) for every family at the fields of criteria 4 and 9."""
    g2, g3 = TorusGrid((64, 64)), TorusGrid((32, 32, 32))
    h2 = from_function(g2, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
    h3 = from_function(g3, lambda x1, x2, y1: 0.2 * np.sin(2 * np.pi * x1)
                       + 0.15 * np.cos(2 * np.pi * y1))
    star3 = project_mean_zero(from_function(
        g3, lambda x1, x2, y1: 0.01 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * y1)
        + 0.008 * np.cos(2 * np.pi * x2) * np.sin(2 * np.pi * y1)))
    lagr = {"m1": 0.3, "m2": -0.2}
    F = eq.Family
    return {
        "STDMA": (eq.EquationSpec(F.STDMA), _star2(g2)),
        "GENMA": (eq.EquationSpec(F.GENMA), _star2(g2)),
        "LAGR_X1X2(+1)": (eq.EquationSpec(F.LAGR_X1X2, l1=1.0, l2=1.0), _star2(g2)),
        "LAGR_X1X2(-1)": (eq.EquationSpec(F.LAGR_X1X2, l1=-1.0, l2=-1.0), _star2(g2)),
        "LAGR_X2Y1(+1)": (eq.EquationSpec(F.LAGR_X2Y1, l1=1.0, l2=1.0, **lagr), _star2(g2)),
        "LAGR_X2Y1(-1)": (eq.EquationSpec(F.LAGR_X2Y1, l1=-1.0, l2=-1.0, **lagr), _star2(g2)),
        "WARPED(c=0)": (eq.EquationSpec(F.WARPED, c=0.0, h=h2), _star2(g2)),
        "WARPED(c=1)": (eq.EquationSpec(F.WARPED, c=1.0, h=h2), _star2(g2)),
        "DETA_T3": (eq.EquationSpec(F.DETA_T3), star3),
        "WARPED_T3": (eq.EquationSpec(F.WARPED_T3, h=h3), star3),
        "NDIM_FULL": (eq.EquationSpec(F.NDIM_FULL, n=3), branch_safe_field(
            TorusGrid((16,) * 4), np.random.default_rng(109), max_mode=1, hessian_scale=0.3)),
        "NDIM_HESSIAN": (eq.EquationSpec(F.NDIM_HESSIAN, n=3), _star_hessian(g3)),
        "NDIM_B": (eq.EquationSpec(F.NDIM_B, n=3), _star_hessian(g3)),
    }


def _symmetric(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


@functools.cache
def _stack_cases():
    rng = np.random.default_rng(5)
    shape = (13, 11)
    cases = {f"random-r{r}": _symmetric(rng.standard_normal(shape + (r, r)))
             for r in (1, 2, 3, 4, 6)}
    one = _symmetric(rng.standard_normal((4, 4)))
    cases["constant"] = np.broadcast_to(one, shape + (4, 4)).copy()
    ties = _symmetric(rng.standard_normal(shape + (4, 4))) + 10.0 * np.eye(4)
    ties[rng.random(shape) < 0.5] = one  # half the points tie at the minimum
    cases["ties"] = ties
    cases["diagonal"] = rng.standard_normal(shape + (5,))[..., None] * np.eye(5)
    partly = _symmetric(rng.standard_normal(shape + (3, 3)))
    partly[rng.random(shape) < 0.5] *= np.eye(3)
    cases["partly-diagonal"] = partly
    a = rng.standard_normal(shape + (4, 4))
    cases["negative-definite"] = _symmetric(-(a @ np.swapaxes(a, -1, -2)) - 0.1 * np.eye(4))
    return cases


def _case_stack(name):
    if name.endswith(("-G", "-M")):
        spec, u = _criterion_fields()[name[:-2]]
        if name.endswith("-M"):
            return _dense_coefficients(spec, u)
        return _dense_pairing(vf.reconstruct_form(u, spec), eq.branch_sign(spec))
    return _stack_cases()[name]


@pytest.mark.parametrize("name", list(_stack_cases())
                         + [f"{f}-{m}" for f in _criterion_fields() for m in "GM"])
def test_min_eigenvalue_matches_eigvalsh(name):
    # bit for bit, not approximately: LAPACK still takes the minimum
    stack = _case_stack(name)
    assert eq.min_eigenvalue(_nested(stack)) == _dense_min(stack)


@pytest.mark.parametrize("name", list(_criterion_fields()))
def test_monitors_match_dense_eigvalsh(name):
    # the monitors build the pairing and coefficient entries without a
    # stack; the minima equal those of the dense matrices exactly
    spec, u = _criterion_fields()[name]
    sign = eq.branch_sign(spec)
    assert vf.compatibility_margin(vf.reconstruct_form(u, spec), sign) == _dense_min(
        _case_stack(f"{name}-G"))
    assert sv.ellipticity_monitor(spec, u) == _dense_min(_case_stack(f"{name}-M"))


@pytest.mark.parametrize("name,sizes", [("STDMA", (64, 64)), ("NDIM_HESSIAN", (24, 24, 24))],
                         ids=["STDMA", "NDIM_HESSIAN"])
def test_margin_calls_lapack_on_few_points(monkeypatch, name, sizes):
    # both monitors used to pass every grid point to eigvalsh
    g = TorusGrid(sizes)
    spec = _criterion_fields()[name][0]
    u = _star2(g) if g.d == 2 else _star_hessian(g)
    seen = []
    real = np.linalg.eigvalsh

    def counted(a):
        seen.append(a.size // a.shape[-1] ** 2)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for field, limit in ((u, 0.1 * g.npoints), (zero_field(g), 0)):
        seen.clear()
        vf.compatibility_margin(vf.reconstruct_form(field, spec), eq.branch_sign(spec))
        assert sum(seen) <= limit
        seen.clear()
        sv.ellipticity_monitor(spec, field)
        assert sum(seen) <= limit
