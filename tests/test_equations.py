from dataclasses import replace

import numpy as np
import pytest
import sympy as sp

from torus_ma import equations as eq
from torus_ma import nilframe as nf
from torus_ma.grid import (
    ScalarField,
    TorusGrid,
    derivative,
    integrate,
    mixed_derivative,
    project_mean_zero,
    random_trig_field,
)

from conftest import apply_transforms, branch_safe_field, count_transforms, from_function, rel_err
from oracles import ndim_printed, residual_geom


def all_t2_specs(grid, rng):
    h = from_function(grid, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
    return {
        "STDMA": eq.EquationSpec(eq.Family.STDMA),
        "GENMA": eq.EquationSpec(eq.Family.GENMA),
        "LAGR_X1X2_pos": eq.EquationSpec(eq.Family.LAGR_X1X2, l1=1.4, l2=0.7),
        "LAGR_X1X2_neg": eq.EquationSpec(eq.Family.LAGR_X1X2, l1=-1.4, l2=-0.7),
        "LAGR_X2Y1_pos": eq.EquationSpec(eq.Family.LAGR_X2Y1, l1=1.1, l2=0.9,
                                         m1=0.4, m2=-0.3),
        "LAGR_X2Y1_neg": eq.EquationSpec(eq.Family.LAGR_X2Y1, l1=-1.1, l2=-0.9,
                                         m1=0.4, m2=-0.3),
        "WARPED_c0": eq.EquationSpec(eq.Family.WARPED, c=0.0, h=h),
        "WARPED_c1": eq.EquationSpec(eq.Family.WARPED, c=1.0, h=h),
        "WARPED_cmid": eq.EquationSpec(eq.Family.WARPED, c=0.7, h=h),
    }


class TestSpecValidation:
    def test_mixed_sign_l_rejected(self):
        with pytest.raises(ValueError):
            eq.EquationSpec(eq.Family.LAGR_X1X2, l1=1.0, l2=-1.0)

    def test_warped_requires_h(self):
        with pytest.raises(ValueError):
            eq.EquationSpec(eq.Family.WARPED, c=1.0)

    def test_bad_bundle_rank(self):
        with pytest.raises(ValueError):
            eq.EquationSpec(eq.Family.NDIM_FULL, n=7)

    def test_warped_profile_class_enforced(self, grid2):
        bad = from_function(grid2, lambda x, y: 0.3 * np.sin(2 * np.pi * y))
        with pytest.raises(ValueError):
            eq.EquationSpec(eq.Family.WARPED, c=1.0, h=bad)
        good = from_function(grid2, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
        eq.EquationSpec(eq.Family.WARPED, c=1.0, h=good)

    def test_alias_parameters_pinned(self):
        s = eq.EquationSpec(eq.Family.GENMA, l1=3.0, m2=9.0)
        assert (s.l1, s.l2, s.m1, s.m2) == (1.0, 1.0, 0.0, 1.0)

    def test_dimension_mismatch_rejected(self):
        u3 = ScalarField(TorusGrid((8, 8, 8)), np.zeros((8, 8, 8)))
        with pytest.raises(ValueError):
            eq.residual(eq.EquationSpec(eq.Family.STDMA), u3)

    def test_coframe_parameter_maps(self):
        p = eq.CoframeParams(scale_x=2.0, scale_y=0.5, shear=0.7, lam=0.3, mu=0.1)
        s = eq.EquationSpec.lagr_x2y1_from_coframe(p)
        assert s.l1 == pytest.approx(-0.25)
        assert s.l2 == pytest.approx(-4.0)
        assert s.m1 == pytest.approx(-0.3 * 2.0 / 0.25)
        assert s.m2 == pytest.approx(-0.3 * 0.7 / 0.25)
        p2 = eq.CoframeParams(scale_x=2.0, scale_y=0.5, lam1=0.3, lam2=0.4)
        s2 = eq.EquationSpec.lagr_x1x2_from_coframe(p2)
        assert (s2.l1, s2.l2) == (pytest.approx(0.25), pytest.approx(4.0))


# A value for each parameter that no family reading it would ignore.
_PERTURBED = {"l1": -2.0, "l2": -3.0, "m1": 0.3, "m2": -0.4, "c": 0.7, "n": 3}


def _unread_parameters():
    return [pytest.param(family, name, id=f"{family.value}-{name}")
            for family in eq.Family for name in (*_PERTURBED, "h")
            if name not in eq.FAMILY_PARAMETERS[family]]


@pytest.mark.parametrize("family,name", _unread_parameters())
def test_unread_parameter_is_pinned(family, name, rng):
    # EquationSpec(LAGR_X1X2, m1=0.3) put m1 into the residual but not into
    # the coframe, so the two routes differed by 4.9e-2, and
    # EquationSpec(DETA_T3, l1=-2) tracked the negative branch
    grid = TorusGrid((8,) * len(eq.family_axis_names(family)))
    h = random_trig_field(grid, rng, max_mode=1, scale=0.3, axes=(0,))
    base = {"h": h} if "h" in eq.FAMILY_PARAMETERS[family] else {}
    spec = eq.EquationSpec(family, **base)
    perturbed = eq.EquationSpec(family, **{**base, name: h if name == "h" else _PERTURBED[name]})
    u = random_trig_field(grid, rng, max_mode=1, scale=0.02)
    assert np.array_equal(eq.residual(perturbed, u).values, eq.residual(spec, u).values)
    assert np.array_equal(residual_geom(perturbed, u).values,
                          residual_geom(spec, u).values)
    assert eq.branch_sign(perturbed) == eq.branch_sign(spec)


class TestResidual:
    def test_flat_point(self, grid2):
        zero = ScalarField(grid2, np.zeros(grid2.sizes))
        for fam in (eq.Family.STDMA, eq.Family.GENMA, eq.Family.DETA_T3):
            spec = eq.EquationSpec(fam)
            g = grid2 if spec.dim == 2 else TorusGrid((16, 16, 16))
            z = ScalarField(g, np.zeros(g.sizes))
            r = eq.residual(spec, z)
            assert np.max(np.abs(r.values - 1.0)) == 0.0

    def test_warped_flat_point(self, grid2):
        h = from_function(grid2, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
        spec = eq.EquationSpec(eq.Family.WARPED, c=1.0, h=h)
        z = ScalarField(grid2, np.zeros(grid2.sizes))
        r = eq.residual(spec, z)
        assert rel_err(r.values, np.exp(-h.values)) < 1e-14

    def test_single_mode_against_symbolic_oracle(self):
        # symbolic differentiation oracle on a trigonometric monomial
        g = TorusGrid((32, 32))
        amp = 0.013
        x, y = sp.symbols("x y")
        u_sym = amp * sp.sin(2 * sp.pi * y)
        lhs = ((1 + sp.diff(u_sym, x, 2))
               * (1 + sp.diff(u_sym, y, 2) + sp.diff(u_sym, y))
               - sp.diff(u_sym, x, y) ** 2)
        oracle = sp.lambdify((x, y), lhs, "numpy")
        u = from_function(g, lambda xx, yy: amp * np.sin(2 * np.pi * yy))
        r = eq.residual(eq.EquationSpec(eq.Family.GENMA), u)
        xs, ys = g.coords
        want = np.broadcast_to(oracle(xs, ys), g.sizes)
        assert rel_err(r.values, want) < 1e-12
        # and the closed form from the catalog definition
        closed = ((1 - 4 * np.pi**2 * amp * np.sin(2 * np.pi * ys)
                   + 2 * np.pi * amp * np.cos(2 * np.pi * ys)) * 1.0)
        assert rel_err(r.values, np.broadcast_to(closed, g.sizes)) < 1e-12

    def test_alias_identities(self, grid2, rng):
        u = random_trig_field(grid2, rng, max_mode=3, scale=0.1)
        r_std = eq.residual(eq.EquationSpec(eq.Family.STDMA), u)
        r_xx = eq.residual(eq.EquationSpec(eq.Family.LAGR_X1X2, l1=1.0, l2=1.0), u)
        assert np.max(np.abs(r_std.values - r_xx.values)) == 0.0
        r_gen = eq.residual(eq.EquationSpec(eq.Family.GENMA), u)
        r_xy = eq.residual(eq.EquationSpec(eq.Family.LAGR_X2Y1, l1=1.0, l2=1.0,
                                           m1=0.0, m2=1.0), u)
        assert np.max(np.abs(r_gen.values - r_xy.values)) == 0.0

    @pytest.mark.parametrize("family, bundle, perm", [
        ("DETA_T3", "NDIM_FULL", (0, 1, 2)),
        ("STDMA", "NDIM_HESSIAN", (0, 1)),
        ("GENMA", "NDIM_B", (1, 0)),
    ])
    def test_n2_bundle_families_reduce_to_the_paper_equations(self, family, bundle, perm, rng):
        # the paper's n = 2 reductions: the bundle family on the n = 2 torus
        # is the surface or T^3 equation, GENMA's with its two axes swapped,
        # and both are realized by one coframe
        g = TorusGrid((16, 16, 16) if len(perm) == 3 else (32, 32))
        u = random_trig_field(g, rng, max_mode=2, scale=0.1)
        spec, spec_n = eq.EquationSpec(family), eq.EquationSpec(bundle, n=2)
        want = np.transpose(eq.residual(spec, u).values, perm)
        got = eq.residual(spec_n, ScalarField(g, np.transpose(u.values, perm))).values
        assert rel_err(got, want) <= 1e-12
        st, st_n = eq.structure_for(spec, g), eq.structure_for(spec_n, g)
        assert st.labels == st_n.labels
        assert tuple(st.coord_forms[a] for a in perm) == st_n.coord_forms


class TestOracleEquivalence:
    def test_flat_point_geometric(self, grid2):
        zero = ScalarField(grid2, np.zeros(grid2.sizes))
        r = residual_geom(eq.EquationSpec(eq.Family.STDMA), zero)
        assert np.max(np.abs(r.values - 1.0)) == 0.0

    def test_t2_families(self, grid2, rng):
        u = random_trig_field(grid2, rng, max_mode=3, scale=0.12)
        for name, spec in all_t2_specs(grid2, rng).items():
            r = eq.residual(spec, u)
            rg = residual_geom(spec, u)
            assert rel_err(r.values, rg.values) <= 1e-10, name

    def test_t3_families(self, grid3, rng):
        u = random_trig_field(grid3, rng, max_mode=2, scale=0.12)
        h = random_trig_field(grid3, rng, max_mode=1, scale=0.3, axes=(0, 2))
        for spec in (eq.EquationSpec(eq.Family.DETA_T3),
                     eq.EquationSpec(eq.Family.WARPED_T3, h=h)):
            assert rel_err(eq.residual(spec, u).values,
                           residual_geom(spec, u).values) <= 1e-10

    def test_bundle_families(self, rng):
        g4 = TorusGrid((12, 12, 12, 12)) if False else TorusGrid((16,) * 4)
        u4 = random_trig_field(g4, rng, max_mode=1, scale=0.08)
        spec = eq.EquationSpec(eq.Family.NDIM_FULL, n=3)
        assert rel_err(eq.residual(spec, u4).values,
                       residual_geom(spec, u4).values) <= 1e-10
        g3 = TorusGrid((16,) * 3)
        u3 = random_trig_field(g3, rng, max_mode=2, scale=0.08)
        for fam in (eq.Family.NDIM_HESSIAN, eq.Family.NDIM_B):
            spec = eq.EquationSpec(fam, n=3)
            assert rel_err(eq.residual(spec, u3).values,
                           residual_geom(spec, u3).values) <= 1e-10

    def test_bundle_family_rank_four(self, rng):
        g5 = TorusGrid((8,) * 5)
        u5 = random_trig_field(g5, rng, max_mode=1, scale=0.05)
        spec = eq.EquationSpec(eq.Family.NDIM_FULL, n=4)
        assert rel_err(eq.residual(spec, u5).values,
                       residual_geom(spec, u5).values) <= 1e-10
        g4 = TorusGrid((8,) * 4)
        u4 = random_trig_field(g4, rng, max_mode=1, scale=0.05)
        for fam in (eq.Family.NDIM_HESSIAN, eq.Family.NDIM_B):
            spec4 = eq.EquationSpec(fam, n=4)
            assert rel_err(eq.residual(spec4, u4).values,
                           residual_geom(spec4, u4).values) <= 1e-10


class TestWarpedRewrites:
    """The two torus-invariant reductions of the warped structure match the
    unified two-dimensional warped family."""

    def test_profile_along_x1(self, rng):
        # u = u(x1, x2), h = h(x1): the T^3 ratio times e^-h equals the
        # c = 0 member pointwise
        g3 = TorusGrid((32, 32, 8))
        h3 = random_trig_field(g3, rng, max_mode=1, scale=0.3, axes=(0,))
        u3 = random_trig_field(g3, rng, max_mode=2, scale=0.1, axes=(0, 1))
        spec3 = eq.EquationSpec(eq.Family.WARPED_T3, h=h3)
        ratio3 = eq.residual(spec3, u3)

        g2 = TorusGrid((32, 32))
        u2 = ScalarField(g2, u3.values[:, :, 0])
        h2 = ScalarField(g2, np.broadcast_to(h3.values[:, :1, 0], g2.sizes).copy())
        spec2 = eq.EquationSpec(eq.Family.WARPED, c=0.0, h=h2)
        r2 = eq.residual(spec2, u2)
        want = np.exp(-h2.values) * ratio3.values[:, :, 0]
        assert rel_err(r2.values, want) <= 1e-11

    def test_profile_along_y1(self, rng):
        # u = u(x2, y1), h = h(y1): matches c = 1 with the flipped profile
        g3 = TorusGrid((8, 32, 32))
        h3 = random_trig_field(g3, rng, max_mode=1, scale=0.3, axes=(2,))
        u3 = random_trig_field(g3, rng, max_mode=2, scale=0.1, axes=(1, 2))
        spec3 = eq.EquationSpec(eq.Family.WARPED_T3, h=h3)
        ratio3 = eq.residual(spec3, u3)

        g2 = TorusGrid((32, 32))
        # two-dimensional variables: x = y1, y = x2
        u2 = ScalarField(g2, u3.values[0].T)
        h2 = ScalarField(g2, np.broadcast_to(h3.values[0, :1, :].T, g2.sizes).copy())
        spec2 = eq.EquationSpec(eq.Family.WARPED, c=1.0,
                                h=ScalarField(g2, -h2.values))
        r2 = eq.residual(spec2, u2)
        want = np.exp(h2.values) * ratio3.values[0].T
        assert rel_err(r2.values, want) <= 1e-11


class TestLinearize:
    def test_flat_point_is_laplacian(self, grid2, rng):
        spec = eq.EquationSpec(eq.Family.STDMA)
        zero = ScalarField(grid2, np.zeros(grid2.sizes))
        w = random_trig_field(grid2, rng, max_mode=3, scale=1.0)
        lw = eq.linearizer(eq.evaluate(spec, zero))(w)
        want = derivative(w, 0, 2).values + derivative(w, 1, 2).values
        assert rel_err(lw.values, want) < 1e-12

    def test_warped_matches_displayed_form(self, grid2, rng):
        # against the expanded coefficient form; the smooth profile makes the
        # two evaluations agree far below the assertion tolerance
        h = from_function(grid2, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
        spec = eq.EquationSpec(eq.Family.WARPED, c=1.0, h=h)
        u = random_trig_field(grid2, rng, max_mode=2, scale=0.05)
        w = random_trig_field(grid2, rng, max_mode=2, scale=0.5)
        lw = eq.linearizer(eq.evaluate(spec, u))(w)
        emh = np.exp(-h.values)
        hp = derivative(h, 0, 1).values
        coef = spec.c * emh + hp
        a11 = (emh + mixed_derivative(u, 0, 0).values + coef * derivative(u, 0, 1).values)
        want = ((mixed_derivative(w, 0, 0).values + coef * derivative(w, 0, 1).values)
                * (1.0 + mixed_derivative(u, 1, 1).values)
                + a11 * mixed_derivative(w, 1, 1).values
                - 2.0 * mixed_derivative(u, 0, 1).values * mixed_derivative(w, 0, 1).values)
        assert rel_err(lw.values, want) < 1e-9

    @pytest.mark.parametrize("halvings", [3])
    def test_taylor_remainder_all_families(self, grid2, grid3, rng, halvings):
        # |residual(u + eps w) - residual(u) - eps L(w)| must shrink
        # quadratically on successive halvings
        cases = []
        u2 = random_trig_field(grid2, rng, max_mode=2, scale=0.08)
        w2 = random_trig_field(grid2, rng, max_mode=2, scale=1.0)
        for name, spec in all_t2_specs(grid2, rng).items():
            cases.append((name, spec, u2, w2))
        u3 = random_trig_field(grid3, rng, max_mode=2, scale=0.08)
        w3 = random_trig_field(grid3, rng, max_mode=2, scale=1.0)
        h3 = random_trig_field(grid3, rng, max_mode=1, scale=0.3, axes=(0, 2))
        cases.append(("DETA_T3", eq.EquationSpec(eq.Family.DETA_T3), u3, w3))
        cases.append(("WARPED_T3", eq.EquationSpec(eq.Family.WARPED_T3, h=h3), u3, w3))
        g4 = TorusGrid((8,) * 4)
        u4 = random_trig_field(g4, rng, max_mode=1, scale=0.05)
        w4 = random_trig_field(g4, rng, max_mode=1, scale=1.0)
        cases.append(("NDIM_FULL", eq.EquationSpec(eq.Family.NDIM_FULL, n=3), u4, w4))
        g3n = TorusGrid((8,) * 3)
        u3n = random_trig_field(g3n, rng, max_mode=1, scale=0.05)
        w3n = random_trig_field(g3n, rng, max_mode=1, scale=1.0)
        cases.append(("NDIM_HESSIAN", eq.EquationSpec(eq.Family.NDIM_HESSIAN, n=3), u3n, w3n))
        cases.append(("NDIM_B", eq.EquationSpec(eq.Family.NDIM_B, n=3), u3n, w3n))

        for name, spec, u, w in cases:
            r0 = eq.residual(spec, u).values
            lw = eq.linearizer(eq.evaluate(spec, u))(w).values
            prev = None
            epsilon = 1e-3
            for _ in range(halvings):
                up = ScalarField(u.grid, u.values + epsilon * w.values)
                rem = float(np.max(np.abs(eq.residual(spec, up).values
                                          - r0 - epsilon * lw)))
                if prev is not None:
                    ratio = prev / max(rem, 1e-300)
                    assert 2.0**1.9 <= ratio <= 2.0**2.1, (name, ratio)
                prev = rem
                epsilon /= 2.0


def _family_cases():
    g2, g3 = TorusGrid((16, 16)), TorusGrid((8, 8, 8))
    h2 = from_function(g2, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
    h3 = from_function(g3, lambda x1, x2, y1: 0.3 * np.sin(2 * np.pi * (x1 + y1)))
    cases = [
        (eq.EquationSpec(eq.Family.STDMA), g2),
        (eq.EquationSpec(eq.Family.GENMA), g2),
        (eq.EquationSpec(eq.Family.LAGR_X1X2, l1=1.4, l2=0.7), g2),
        (eq.EquationSpec(eq.Family.LAGR_X2Y1, l1=-1.1, l2=-0.9, m1=0.4, m2=-0.3), g2),
        (eq.EquationSpec(eq.Family.WARPED, c=1.0, h=h2), g2),
        (eq.EquationSpec(eq.Family.DETA_T3), g3),
        (eq.EquationSpec(eq.Family.WARPED_T3, h=h3), g3),
        (eq.EquationSpec(eq.Family.NDIM_FULL, n=3), TorusGrid((8,) * 4)),
        (eq.EquationSpec(eq.Family.NDIM_HESSIAN, n=3), g3),
        (eq.EquationSpec(eq.Family.NDIM_B, n=3), g3),
    ]
    return [pytest.param(spec, grid, id=spec.family.value) for spec, grid in cases]


# (forward, inverse) transforms of one apply at a generic u: a feature whose
# weight is zero everywhere (u_x and u_y where m1 = m2 = 0) takes none
_APPLY_TRANSFORMS = {
    "STDMA": (1, 3), "GENMA": (1, 4), "LAGR_X1X2": (1, 3), "LAGR_X2Y1": (1, 5),
    "WARPED": (2, 4), "DETA_T3": (1, 6), "WARPED_T3": (3, 7), "NDIM_FULL": (1, 10),
    "NDIM_HESSIAN": (1, 6), "NDIM_B": (1, 7),
}


@pytest.mark.parametrize("spec,grid", _family_cases())
def test_linearizer_takes_each_derivative_once(spec, grid, rng, monkeypatch):
    u = random_trig_field(grid, rng, max_mode=1, scale=0.05)
    w = random_trig_field(grid, rng, max_mode=1, scale=1.0)
    L = eq.linearizer(eq.evaluate(spec, u))
    expected_fwd, expected_inv = apply_transforms(spec, u)
    assert (expected_fwd, expected_inv) == _APPLY_TRANSFORMS[spec.family.value]
    counts = count_transforms(monkeypatch)
    L(w)
    monkeypatch.undo()
    # every transform is real-to-complex: none runs on the full spectrum
    assert counts == {"rfftn": expected_fwd, "irfftn": expected_inv, "fftn": 0, "ifftn": 0}


@pytest.mark.parametrize("spec,grid", _family_cases())
@pytest.mark.parametrize("at", ["zero", "random"])
def test_dropped_zero_weights_change_no_bit(spec, grid, at, rng):
    # L sums only the features whose weight is not zero everywhere; the sum
    # over every feature the statement read, zero weights included, is the
    # same bit for bit
    u = (ScalarField(grid, np.zeros(grid.sizes)) if at == "zero"
         else random_trig_field(grid, rng, max_mode=1, scale=0.05))
    w = random_trig_field(grid, rng, max_mode=2, scale=1.0)
    weights = eq._feature_weights(eq.evaluate(spec, u))
    # at u = 0 every family has an off-diagonal entry whose weight vanishes
    assert at == "random" or not all(np.any(g) for g in weights.values())
    fw = eq.Evaluation(spec, w)
    full = np.zeros(grid.sizes)
    for k, g in weights.items():
        full += g * fw[k]
    assert np.array_equal(eq.linearizer(eq.evaluate(spec, u))(w).values, full)


def test_linearizer_takes_every_feature_the_statement_reads(monkeypatch, rng):
    # a statement whose matrix reads a feature that no hand-kept list named
    # used to fail with KeyError at the first linearizer build
    spec = eq.EquationSpec(eq.Family.NDIM_HESSIAN, n=3)
    g = TorusGrid((8, 8, 8))
    u = branch_safe_field(g, rng, max_mode=2, hessian_scale=0.3)
    w = random_trig_field(g, rng, max_mode=2, scale=1.0)
    undrifted = eq.linearizer(eq.evaluate(spec, u))(w).values
    row = replace(eq._STATEMENTS[eq.Family.NDIM_HESSIAN],
                  matrix=lambda s, f: eq._hessian_matrix(s.n, f, f[(0,)]))
    monkeypatch.setitem(eq._STATEMENTS, eq.Family.NDIM_HESSIAN, row)
    fu, fw, eps = eq.Evaluation(spec, u), eq.Evaluation(spec, w), 1e-30

    class Stepped(dict):  # the features of u + i*eps*w, by linearity
        def __missing__(self, key):
            return fu[key] + 1j * eps * fw[key]

    want = np.imag(eq._pointwise(spec, Stepped())) / eps
    assert rel_err(undrifted, want) > 1e-3
    assert rel_err(eq.linearizer(eq.evaluate(spec, u))(w).values, want) < 1e-12


@pytest.mark.parametrize("spec,grid", _family_cases())
def test_coefficient_scale_is_mean_diagonal_weight(spec, grid, rng):
    # |mean over the u_aa of their weights|, from the weights the linearizer
    # sums; None exactly where the statement weighs a divergence feature
    u = branch_safe_field(grid, rng, max_mode=1, hessian_scale=0.2)
    ev = eq.evaluate(spec, u)
    a = eq.coefficient_scale(ev)
    if spec.family in (eq.Family.WARPED, eq.Family.WARPED_T3):
        assert a is None
        return
    diagonal = [g for k, g in eq._feature_weights(ev).items() if len(k) == 2 and k[0] == k[1]]
    assert len(diagonal) == spec.dim
    assert rel_err(a, np.abs(np.mean(diagonal, axis=0))) < 1e-14
    assert np.min(a) > 0.0


def test_coefficient_scale_closed_form_stdma(grid2, rng):
    # P = (1 + u_xx)(1 + u_yy) - u_xy^2: the u_xx and u_yy weights are
    # 1 + u_yy and 1 + u_xx, so a = 1 + (u_xx + u_yy) / 2 on the branch
    u = branch_safe_field(grid2, rng, max_mode=2, hessian_scale=0.3)
    want = 1.0 + 0.5 * (mixed_derivative(u, 0, 0).values + mixed_derivative(u, 1, 1).values)
    assert rel_err(eq.coefficient_scale(eq.evaluate(eq.EquationSpec(eq.Family.STDMA), u)),
                   want) < 1e-14


class TestManufactureAndNormalize:
    def test_zero_candidate_gives_zero_datum(self, grid2):
        spec = eq.EquationSpec(eq.Family.STDMA)
        zero = ScalarField(grid2, np.zeros(grid2.sizes))
        F = eq.manufactured_datum(spec, zero)
        assert F.max_norm() == 0.0

    def test_warped_zero_candidate(self, grid2):
        h = from_function(grid2, lambda x, y: 0.4 * np.cos(2 * np.pi * x))
        spec = eq.EquationSpec(eq.Family.WARPED, c=1.0, h=h)
        zero = ScalarField(grid2, np.zeros(grid2.sizes))
        assert eq.manufactured_datum(spec, zero).max_norm() < 1e-14

    def test_warped_datum_identity(self, grid2, rng):
        h = from_function(grid2, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
        spec = eq.EquationSpec(eq.Family.WARPED, c=1.0, h=h)
        u = branch_safe_field(grid2, rng, max_mode=2, hessian_scale=0.3)
        F = eq.manufactured_datum(spec, u)
        r = eq.residual(spec, u)
        assert rel_err(r.values, np.exp(F.values - h.values)) < 1e-13

    def test_branch_violation_rejected(self, grid2):
        spec = eq.EquationSpec(eq.Family.STDMA)
        bad = from_function(grid2, lambda x, y: 0.2 * np.sin(2 * np.pi * x))
        with pytest.raises(ValueError):
            eq.manufactured_datum(spec, bad)

    def test_normalize_fixed_point(self, grid2, rng):
        spec = eq.EquationSpec(eq.Family.STDMA)
        u = branch_safe_field(grid2, rng, max_mode=2, hessian_scale=0.3)
        F = eq.manufactured_datum(spec, u)
        Fn = eq.normalize_datum(spec, F)
        assert integrate(ScalarField(grid2, np.exp(Fn.values))) == pytest.approx(1.0, abs=1e-13)
        Fnn = eq.normalize_datum(spec, Fn)
        assert np.max(np.abs(Fn.values - Fnn.values)) < 1e-13

    def test_normalize_constant(self, grid2):
        spec = eq.EquationSpec(eq.Family.STDMA)
        F = ScalarField(grid2, np.full(grid2.sizes, 0.7))
        Fn = eq.normalize_datum(spec, F)
        assert np.max(np.abs(Fn.values)) < 1e-14

    def test_normalize_single_mode_against_quadrature(self):
        # shift must equal log of the integral of e^sin, checked at 4x
        # resolution
        g = TorusGrid((32, 32))
        spec = eq.EquationSpec(eq.Family.STDMA)
        F = from_function(g, lambda x, y: np.sin(2 * np.pi * x))
        Fn = eq.normalize_datum(spec, F)
        g4 = TorusGrid((128, 128))
        ref = integrate(from_function(g4, lambda x, y: np.exp(np.sin(2 * np.pi * x))))
        shift = F.values[0, 0] - Fn.values[0, 0]
        assert shift == pytest.approx(np.log(ref), abs=1e-12)


class TestMassIdentity:
    def test_stdma_integral_is_one(self, rng):
        g = TorusGrid((64, 64))
        spec = eq.EquationSpec(eq.Family.STDMA)
        for _ in range(8):
            u = random_trig_field(g, rng, max_mode=4, scale=0.02)
            assert abs(integrate(eq.residual(spec, u)) - 1.0) <= 1e-11

    def test_xy_family_integral_is_one(self, rng):
        g = TorusGrid((64, 64))
        spec = eq.EquationSpec(eq.Family.LAGR_X2Y1, l1=-1.2, l2=-0.8, m1=0.5, m2=-0.4)
        for _ in range(4):
            u = random_trig_field(g, rng, max_mode=4, scale=0.02)
            assert abs(integrate(eq.residual(spec, u)) - 1.0) <= 1e-11


class TestPrintedBundleFormula:
    def test_disagreement_is_reported_not_asserted(self, rng):
        # the published n = 3 closed form differs from the exterior-algebra
        # expansion (documented); the discrepancy field must be computable
        g4 = TorusGrid((16,) * 4)
        u = random_trig_field(g4, rng, max_mode=1, scale=0.08)
        spec = eq.EquationSpec(eq.Family.NDIM_FULL, n=3)
        geom = residual_geom(spec, u)
        printed = ndim_printed(spec, u)
        disc = np.abs(geom.values - printed.values)
        assert np.all(np.isfinite(disc))
        assert np.max(disc) > 0.0

    def test_restricted_to_three(self, rng):
        g5 = TorusGrid((8,) * 5)
        u = random_trig_field(g5, rng, max_mode=1, scale=0.05)
        with pytest.raises(ValueError):
            ndim_printed(eq.EquationSpec(eq.Family.NDIM_FULL, n=4), u)
