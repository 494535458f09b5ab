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
    mixed_derivative,
    project_mean_zero,
    random_trig_field,
)

from conftest import (branch_safe_field, count_transforms, from_function, peak_fields,
                      permutation_sign, rel_err, wedge_power_ratio)
from oracles import ansatz_correction, ansatz_one_form, coefficient, exterior_derivative


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
        w = nf.ansatz_forms(zero_field(g), st)[0]
        assert nf.form_add(w, nf.form_scale(st.omega, -1.0)).max_norm() == 0.0

    def test_stdma_coefficients(self, rng):
        # the rebuilt form carries 1 + u_xx, 1 + u_yy, and the mixed terms
        g = TorusGrid((32, 32))
        spec = eq.EquationSpec(eq.Family.STDMA)
        u = branch_safe_field(g, rng, max_mode=2, hessian_scale=0.3)
        w = nf.ansatz_forms(u, eq.structure_for(spec, u.grid))[0]
        uxx = mixed_derivative(u, 0, 0).values
        uyy = mixed_derivative(u, 1, 1).values
        uxy = mixed_derivative(u, 0, 1).values
        assert rel_err(coefficient(w, (0, 2)), 1.0 + uxx) < 1e-11
        assert rel_err(coefficient(w, (1, 3)), 1.0 + uyy) < 1e-11
        assert rel_err(coefficient(w, (0, 3)), uxy) < 1e-11
        assert rel_err(coefficient(w, (1, 2)), uxy) < 1e-11
        # no update along the fiber pair for base-only potentials
        assert np.max(np.abs(coefficient(w, (0, 1)))) < 1e-11
        assert np.max(np.abs(coefficient(w, (2, 3)))) < 1e-11

    def test_genma_cross_terms_present(self, rng):
        g = TorusGrid((32, 32))
        spec = eq.EquationSpec(eq.Family.GENMA)
        u = branch_safe_field(g, rng, max_mode=2, hessian_scale=0.3)
        w = nf.ansatz_forms(u, eq.structure_for(spec, u.grid))[0]
        # labels for the x2-y1 fibration: e1, e2, f1, f2 with x -> e2, y -> f1
        uxy = mixed_derivative(u, 0, 1).values
        assert rel_err(coefficient(w, (0, 1)), uxy) < 1e-11
        assert rel_err(coefficient(w, (2, 3)), uxy) < 1e-11


class TestAnsatzJet:
    @pytest.mark.parametrize("correct_all", [False, True], ids=["catalog", "every_label"])
    @pytest.mark.parametrize("family, sizes, params", [
        ("STDMA", (16, 12), {}), ("GENMA", (16, 12), {}),
        ("LAGR_X1X2", (16, 12), {"l1": 1.3, "l2": 0.6}),
        ("LAGR_X2Y1", (16, 12), {"l1": -1.1, "l2": -0.9, "m1": 0.4, "m2": -0.3}),
        ("WARPED", (16, 12), {"c": 0.7}), ("DETA_T3", (16, 12, 8), {}),
        ("WARPED_T3", (16, 12, 8), {}), ("NDIM_FULL", (16, 12, 8, 8), {"n": 3}),
        ("NDIM_HESSIAN", (16, 12, 8), {"n": 3}), ("NDIM_B", (16, 12, 8), {"n": 3})])
    def test_jet_differential_matches_exterior_derivative(self, rng, family, sizes, params,
                                                          correct_all):
        # d alpha from the jet of u against the exterior derivative that
        # transforms every coefficient of alpha again.  A random u carries
        # Nyquist content, so this pins u_ab to the composed first-order
        # symbol, u_aa included
        g = TorusGrid(sizes)
        if family.startswith("WARPED"):
            params = {**params, "h": random_trig_field(g, rng, max_mode=2, scale=0.3, axes=(0,))}
        st = eq.structure_for(eq.EquationSpec(family, **params), g)
        if correct_all:  # so that the u * d theta_c term counts too
            st = dataclasses.replace(
                st, correction=st.correction + tuple((0.7, k) for k in st.d_table))
        u = ScalarField(g, rng.standard_normal(g.sizes))
        want = exterior_derivative(ansatz_one_form(u, st))
        w, got, d_a = nf.ansatz_forms(u, st)
        assert set(got.terms) == set(want.terms)
        for key, c in want.terms.items():
            assert rel_err(coefficient(got, key), c) <= 1e-13, key
        assert nf.form_add(w, nf.form_scale(nf.form_add(st.omega, got), -1.0)).max_norm() == 0.0
        want_a = exterior_derivative(ansatz_correction(u, st))
        assert set(d_a.terms) == set(want_a.terms)
        for key, c in want_a.terms.items():
            assert rel_err(coefficient(d_a, key), c) <= 1e-13, key


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

    def test_spec_dimension_checked_at_entry(self):
        # raised from inside nilframe before: "one coordinate differential
        # per grid axis required"
        g = TorusGrid((16, 16))
        with pytest.raises(ValueError, match="lives on a 3-torus"):
            vf.verify_solution(zero_field(g), zero_field(g), eq.EquationSpec(eq.Family.DETA_T3))

    def test_spec_h_grid_checked_at_entry(self):
        # raised from inside nilframe before: "warp field must live on the
        # structure grid"
        h = from_function(TorusGrid((32, 32)), lambda x, y: 0.3 * np.sin(2 * np.pi * x))
        g = TorusGrid((16, 16))
        spec = eq.EquationSpec(eq.Family.WARPED, c=0.0, h=h)
        with pytest.raises(ValueError, match="h and u must share one grid"):
            vf.verify_solution(zero_field(g), zero_field(g), spec)

    @pytest.mark.parametrize("family, sizes, n, transforms", [
        ("STDMA", (32, 32), 2, 6),
        ("WARPED", (16, 16), 2, 8),
        ("DETA_T3", (16, 16, 16), 2, 10),
        ("WARPED_T3", (16, 16, 16), 2, 15),
        ("NDIM_HESSIAN", (8, 8, 8), 3, 10),
        ("NDIM_FULL", (8, 8, 8, 8), 3, 15),
    ], ids=["STDMA", "WARPED", "DETA_T3", "WARPED_T3", "NDIM_HESSIAN", "NDIM_FULL"])
    def test_verify_takes_each_exterior_derivative_once(self, monkeypatch, rng,
                                                        family, sizes, n, transforms):
        # du and d(alpha) come from one spectral jet of u: one forward
        # transform, one inverse per u_a and per u_ab that a constant entry
        # of J reaches, and per field entry of J (the warped e^{+-h} pair)
        # one forward and d inverse for the product u_a * e^{+-h}; the type
        # split, the top-form ratio and the potential defect take none
        g = TorusGrid(sizes)
        h = (random_trig_field(g, rng, max_mode=1, scale=0.3, axes=(0, 2)[:g.d - 1])
             if family.startswith("WARPED") else None)
        spec = eq.EquationSpec(eq.Family(family), n=n, h=h)
        u = branch_safe_field(g, rng, max_mode=1, hessian_scale=0.3)
        counts = count_transforms(monkeypatch)
        vf.verify_solution(u, zero_field(g), spec)
        monkeypatch.undo()
        assert counts["fftn"] == counts["ifftn"] == 0
        assert counts["rfftn"] + counts["irfftn"] == transforms

    @pytest.mark.parametrize("family, sizes, params, parent", [
        ("STDMA", (64, 64), {}, 35), ("GENMA", (64, 64), {}, 35),
        ("LAGR_X2Y1", (64, 64), {"l1": -1.1, "l2": -0.9, "m1": 0.4, "m2": -0.3}, 35),
        ("WARPED", (64, 64), {"c": 0.7}, 37), ("DETA_T3", (32,) * 3, {}, 45),
        ("WARPED_T3", (32,) * 3, {}, 47), ("NDIM_HESSIAN", (32,) * 3, {"n": 3}, 66),
        ("NDIM_FULL", (12,) * 4, {"n": 3}, 86)])
    def test_verify_memory_is_bounded(self, rng, family, sizes, params, parent):
        # verification holds little more than the jet of u and the form w:
        # the accumulator adds in place, each u_ab is dropped after its last
        # read, the anti-invariant norm and the potential defect go key by
        # key, the top-form ratio is a Pfaffian, and the compatibility margin
        # forms each pairing entry once.  The pin is half a field above the
        # measured peak in fields, so that one more field held through the
        # phase that sets the peak fails it (the top-form ratio held through
        # the margin: +1.00 on every case but LAGR_X2Y1, whose peak is set in
        # ansatz_forms); `parent` is the peak of a verification that
        # transformed every coefficient of alpha and formed both type-split
        # parts, whose 3/4 was the pin while whole-form temporaries remained
        peak = {"STDMA": 9.85, "GENMA": 11.57, "LAGR_X2Y1": 14.49, "WARPED": 14.58,
                "DETA_T3": 13.30, "WARPED_T3": 18.37, "NDIM_HESSIAN": 15.31,
                "NDIM_FULL": 23.36}[family]
        g = TorusGrid(sizes)
        if family.startswith("WARPED"):
            params = {**params, "h": random_trig_field(g, rng, max_mode=1, scale=0.3, axes=(0,))}
        spec = eq.EquationSpec(family, **params)
        u, F = random_trig_field(g, rng, max_mode=2, scale=0.01), zero_field(g)
        assert peak_fields(g, lambda: vf.verify_solution(u, F, spec)) <= peak + 0.5 <= 0.75 * parent

    @pytest.mark.parametrize("family, sizes, params, pin", [
        ("DETA_T3", (32,) * 3, {}, 1.5), ("NDIM_HESSIAN", (32,) * 3, {"n": 3}, 1.5),
        ("NDIM_FULL", (12,) * 4, {"n": 3}, 1.5), ("WARPED_T3", (32,) * 3, {}, 2.5)])
    def test_anti_invariant_norm_memory_is_bounded(self, rng, family, sizes, params, pin):
        # measured 1.02 / 1.02 / 1.04 / 2.02 fields; with |a - J a| taken out
        # of place 2.02 / 2.02 / 2.04 / 3.02, and with J a formed whole rather
        # than key by key WARPED_T3 peaks at 6.01 (its field entries e^{+-h}
        # make every term of J a an array of its own)
        g = TorusGrid(sizes)
        if family.startswith("WARPED"):
            params = {"h": random_trig_field(g, rng, max_mode=1, scale=0.3, axes=(0,))}
        st = eq.structure_for(eq.EquationSpec(family, **params), g)
        _, d_alpha, _ = nf.ansatz_forms(random_trig_field(g, rng, max_mode=2, scale=0.01), st)
        assert peak_fields(g, lambda: nf.anti_invariant_norm(d_alpha)) <= pin

    @pytest.mark.parametrize("family", list(eq.Family), ids=lambda f: f.value)
    def test_verify_takes_no_exterior_derivative(self, monkeypatch, rng, family):
        # d(alpha) comes from the jet of u and d(theta_c) from the structure
        # terms; the exterior derivative that differentiates every
        # coefficient of alpha again is only the tests' reference
        # (tests/oracles.py).  Verification differentiates a coefficient
        # only for a field entry of J that a coordinate differential reaches
        g = TorusGrid((8,) * len(eq.family_axis_names(family)))
        h = random_trig_field(g, rng, max_mode=1, scale=0.3, axes=(0,))
        spec = eq.EquationSpec(family, **({"h": h} if "h" in eq.FAMILY_PARAMETERS[family] else {}))
        u, F = random_trig_field(g, rng, max_mode=2, scale=0.01), zero_field(g)
        want = vf.verify_solution(u, F, spec)
        st = eq.structure_for(spec, g)
        field_entries = sum(isinstance(k, np.ndarray) for cf in st.coord_forms for lab in cf
                            for k in st.j_table.get(lab, {}).values())
        calls = []
        real = nf._coefficient_differential

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(nf, "_coefficient_differential", counted)
        assert vf.verify_solution(u, F, spec) == want
        assert len(calls) == field_entries


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
            w = nf.ansatz_forms(u, st)[0]
            ratio = nf.top_form_ratio(w)
            assert abs(float(np.mean(ratio.values)) - 1.0) <= 1e-10, spec.family

    def test_positivity_co_occurrence(self, rng):
        # compatibility positivity of the rebuilt form and the coefficient
        # matrix margin agree in sign on branch and off branch
        g = TorusGrid((32, 32))
        spec = eq.EquationSpec(eq.Family.STDMA)
        st = eq.structure_for(spec, g)
        for _ in range(6):
            u = branch_safe_field(g, rng, max_mode=2, hessian_scale=0.5)
            margin = vf.compatibility_margin(nf.ansatz_forms(u, st)[0])
            monitor = sv.ellipticity_monitor(eq.evaluate(spec, u))
            assert margin > 0 and monitor > 0
        bad = from_function(g, lambda x, y: 2.5 / (2 * np.pi) ** 2 * np.cos(2 * np.pi * x))
        margin = vf.compatibility_margin(nf.ansatz_forms(bad, st)[0])
        monitor = sv.ellipticity_monitor(eq.evaluate(spec, bad))
        assert margin < 0 and monitor < 0


class TestPotentialDefect:
    def test_zero_candidate(self):
        g = TorusGrid((16, 16))
        spec = eq.EquationSpec(eq.Family.STDMA)
        assert vf.verify_solution(zero_field(g), zero_field(g), spec).potential_defect == 0.0

    def test_base_fibration_always_potential(self, rng):
        # for the x1-x2 fibration the correction never obstructs
        g = TorusGrid((32, 32))
        u = branch_safe_field(g, rng, max_mode=3, hessian_scale=0.4)
        spec = eq.EquationSpec(eq.Family.STDMA)
        assert vf.verify_solution(u, zero_field(g), spec).potential_defect <= 1e-12

    def test_mixed_fibration_obstruction(self, rng):
        # a y-dependent potential on the x2-y1 fibration is obstructed
        g = TorusGrid((32, 32))
        u = branch_safe_field(g, rng, max_mode=2, hessian_scale=0.4)
        spec = eq.EquationSpec(eq.Family.GENMA)
        assert vf.verify_solution(u, zero_field(g), spec).potential_defect > 1e-4

    @pytest.mark.parametrize("family, sizes", [("NDIM_HESSIAN", (32,) * 3),
                                               ("NDIM_FULL", (12,) * 4)])
    def test_potential_defect_memory_is_bounded(self, rng, family, sizes):
        # d(a) ^ w was formed whole, all fifteen 4-form coefficients at rank
        # 6, and omega ^ omega again on every call; now one key at a time
        g = TorusGrid(sizes)
        spec = eq.EquationSpec(family, n=3)
        st = eq.structure_for(spec, g)
        w, _, d_a = nf.ansatz_forms(random_trig_field(g, rng, max_mode=2, scale=0.01), st)
        assert st.rank == 6 and d_a.terms
        want = nf.wedge(d_a, w).max_norm() / max(nf.wedge(st.omega, st.omega).max_norm(), 1.0)
        assert vf._potential_defect(d_a, w) == want
        assert peak_fields(g, lambda: vf._potential_defect(d_a, w)) <= 3.0

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
        want = exterior_derivative(ansatz_correction(u, st))
        du = exterior_derivative(nf.InvariantForm(st, 0, {(): u.values}))
        got = nf.correction_differential(u, du)
        assert set(got.terms) == set(want.terms)
        for key, c in want.terms.items():
            assert rel_err(coefficient(got, key), c) <= 1e-14, key

    def test_verify_reuses_the_partials_of_u(self, monkeypatch):
        # one forward transform of u and one inverse per u_x, u_y, u_xx, u_xy
        # and u_yy; du, d alpha and d a(u) all come from those
        g = TorusGrid((32, 32))
        u = from_function(g, lambda x, y: 0.01 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
        counts = count_transforms(monkeypatch)
        vf.verify_solution(u, zero_field(g), eq.EquationSpec(eq.Family.STDMA))
        monkeypatch.undo()
        assert counts == {"rfftn": 1, "irfftn": 5, "fftn": 0, "ifftn": 0}


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


def _nested(stack, scalars=False):
    """The entries of `stack` as nested lists of fields; with `scalars`, an
    entry constant over the grid is a Python float."""
    r = stack.shape[-1]
    return [[float(x.flat[0]) if scalars and np.all(x == x.flat[0]) else x
             for x in (stack[..., i, j] for j in range(r))] for i in range(r)]


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
    rows = eq.evaluate(spec, u).entries
    M = np.stack([np.stack(row, axis=-1) for row in rows], axis=-2) * eq.branch_sign(spec)
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


def _longdouble_pfaffian(terms, rank):
    """Pf of the coefficients `terms` in np.longdouble, over every perfect
    matching, each signed by the parity oracle."""
    def matchings(idx):
        if not idx:
            yield ()
        for k in range(1, len(idx)):
            for rest in matchings(idx[1:k] + idx[k + 1:]):
                yield ((idx[0], idx[k]),) + rest

    W = {k: np.asarray(c, dtype=np.longdouble) for k, c in terms.items()}
    total = np.longdouble(0.0)
    for m in matchings(tuple(range(rank))):
        if all(p in W for p in m):
            prod = np.longdouble(permutation_sign([i for p in m for i in p]))
            for p in m:
                prod = prod * W[p]
            total = total + prod
    return total


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("name", ["DETA_T3", "WARPED_T3", "NDIM_HESSIAN", "NDIM_FULL"])
def test_pfaffian_no_less_accurate_than_wedge_power(name):
    # the wedge powers form every matching n! times and divide by n!; the
    # Pfaffian forms each once.  Both routes are measured against a wider
    # Pfaffian of the same float64 coefficients
    spec, u = _criterion_fields()[name]
    w = nf.ansatz_forms(u, eq.structure_for(spec, u.grid))[0]
    st = w.structure
    exact = _longdouble_pfaffian(w.terms, st.rank) / _longdouble_pfaffian(st.omega.terms, st.rank)
    err_pf = np.max(np.abs(nf.top_form_ratio(w).values - exact))
    err_wedge = np.max(np.abs(wedge_power_ratio(w) - exact))
    assert err_pf <= err_wedge


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
    # the cases named scalar-* pass every entry that is constant over the grid
    # as a Python float, as the compatibility margin does
    mixed = _symmetric(rng.standard_normal(shape + (4, 4)))
    mixed[..., [0, 2, 1, 3, 0], [2, 0, 3, 1, 0]] = [0.0, 0.0, -0.7, -0.7, 1.5]
    cases["scalar-mixed"] = mixed
    cases["scalar-constant"] = cases["constant"]
    cases["scalar-r1"] = np.full(shape + (1, 1), -0.3)
    # more than 8 points tie at the minimum, with constant off-diagonal entries
    tied = np.broadcast_to(one, shape + (4, 4)).copy()
    tied[rng.random(shape) < 0.5] += 10.0 * np.eye(4)
    cases["scalar-ties"] = tied
    return cases


def _case_stack(name):
    if name.endswith(("-G", "-M")):
        spec, u = _criterion_fields()[name[:-2]]
        if name.endswith("-M"):
            return _dense_coefficients(spec, u)
        w = nf.ansatz_forms(u, eq.structure_for(spec, u.grid))[0]
        return _dense_pairing(w, eq.branch_sign(spec))
    return _stack_cases()[name]


@pytest.mark.parametrize("name", list(_stack_cases())
                         + [f"{f}-{m}" for f in _criterion_fields() for m in "GM"])
def test_min_eigenvalue_matches_eigvalsh(name):
    # bit for bit, not approximately: LAPACK still takes the minimum
    stack = _case_stack(name)
    assert eq.min_eigenvalue(_nested(stack, name.startswith("scalar-"))) == _dense_min(stack)


@pytest.mark.parametrize("r, at", [(2, (1, 1)), (3, (0, 2)), (3, "diagonal-point"),
                                   (3, "constant")],
                         ids=["r2-diagonal", "r3-off-diagonal", "r3-diagonal-point", "r3-constant"])
def test_min_eigenvalue_nan_entry_gives_nan(r, at):
    # a NaN entry at one point makes the margin NaN, which no floor passes.
    # LAPACK, handed that point, returned a finite minimum (r = 2) or raised
    # LinAlgError (r = 3)
    stack = _symmetric(np.random.default_rng(8).standard_normal((8, 8, r, r)))
    if at == "diagonal-point":
        stack[2, 5] = np.diag([0.5, np.nan, 0.2])
    elif at != "constant":
        stack[(2, 5) + at] = stack[(2, 5) + at[::-1]] = np.nan
    S = _nested(stack)
    if at == "constant":
        S[1][1] = float("nan")
    assert np.isnan(eq.min_eigenvalue(S))


@functools.cache
def _memory_fields():
    fields = {k: _criterion_fields()[k] for k in ("DETA_T3", "WARPED_T3", "NDIM_HESSIAN")}
    fields["NDIM_FULL"] = (eq.EquationSpec(eq.Family.NDIM_FULL, n=3), branch_safe_field(
        TorusGrid((12,) * 4), np.random.default_rng(109), max_mode=1, hessian_scale=0.3))
    return fields


@pytest.mark.parametrize("name, kind, peak", [
    ("DETA_T3", "G", 3.26), ("DETA_T3", "M", 3.26), ("WARPED_T3", "G", 3.26),
    ("WARPED_T3", "M", 3.26), ("NDIM_HESSIAN", "G", 3.26), ("NDIM_HESSIAN", "M", 3.26),
    ("NDIM_FULL", "G", 3.27), ("NDIM_FULL", "M", 3.26)])
def test_min_eigenvalue_memory_is_bounded(monkeypatch, name, kind, peak):
    # the entries S that the compatibility margin (G) and the ellipticity
    # monitor (M) hand over, at 32^3 (12^4 on NDIM_FULL).  The pin is 10%
    # above the measured peak in fields; the kernel that summed fresh
    # temporaries and copied its LAPACK stack peaked at 6.15 to 7.11
    spec, u = _memory_fields()[name]
    held = []
    monkeypatch.setattr(vf if kind == "G" else sv, "min_eigenvalue", held.append)
    if kind == "G":
        vf.compatibility_margin(nf.ansatz_forms(u, eq.structure_for(spec, u.grid))[0],
                                eq.branch_sign(spec))
    else:
        sv.ellipticity_monitor(eq.evaluate(spec, u))
    assert peak_fields(u.grid, lambda: eq.min_eigenvalue(held[0])) <= 1.1 * peak


@pytest.mark.parametrize("name", list(_criterion_fields()))
def test_monitors_match_dense_eigvalsh(name):
    # the monitors build the pairing and coefficient entries without a
    # stack; the minima equal those of the dense matrices exactly
    spec, u = _criterion_fields()[name]
    sign = eq.branch_sign(spec)
    w = nf.ansatz_forms(u, eq.structure_for(spec, u.grid))[0]
    assert vf.compatibility_margin(w, sign) == _dense_min(_case_stack(f"{name}-G"))
    assert sv.ellipticity_monitor(eq.evaluate(spec, u)) == _dense_min(_case_stack(f"{name}-M"))


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
        w = nf.ansatz_forms(field, eq.structure_for(spec, g))[0]
        vf.compatibility_margin(w, eq.branch_sign(spec))
        assert sum(seen) <= limit
        seen.clear()
        sv.ellipticity_monitor(eq.evaluate(spec, field))
        assert sum(seen) <= limit
