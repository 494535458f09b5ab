import ast
import dataclasses
import gc
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_ma import equations as eq
from torus_ma import solver as sv
from torus_ma.grid import (
    ScalarField,
    TorusGrid,
    derivative,
    integrate,
    project_mean_zero,
    random_trig_field,
)

from conftest import apply_transforms, branch_safe_field, count_transforms, from_function


@pytest.fixture(scope="module")
def g64():
    return TorusGrid((64, 64))


@pytest.fixture(scope="module")
def star64(g64):
    u = from_function(g64, lambda x, y: 0.012 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
                      + 0.002 * np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y))
    return project_mean_zero(u)


def zero_field(grid):
    return ScalarField(grid, np.zeros(grid.sizes))


def _counted(A):
    """v -> A v as a callable, with the count of its calls."""
    calls = {"n": 0}

    def AM(v):
        calls["n"] += 1
        return A @ v
    return AM, calls


def _identity(v):
    return v


class TestGmres:
    @pytest.mark.parametrize("jacobi", [False, True], ids=["plain", "jacobi"])
    def test_dense_system_matches_direct_solve(self, rng, jacobi):
        # a nonsymmetric, well-conditioned system; with the Jacobi
        # preconditioner the Krylov vectors live in y, and x = M y
        n = 40
        A = np.diag(np.linspace(2.0, 50.0, n)) + 0.05 * rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        M = (lambda v: v / np.diag(A)) if jacobi else _identity
        x, info, residual = sv.gmres(lambda v: A @ M(v), b, M=M, rtol=1e-12, restart=n, maxiter=n)
        want = np.linalg.solve(A, b)
        assert info == 0
        assert residual <= 1e-12 * np.linalg.norm(b)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)

    def test_short_restart_converges_across_cycles(self, rng):
        n = 60
        A = np.diag(np.linspace(1.0, 10.0, n)) + 0.05 * rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        full, calls_full = _counted(A)
        sv.gmres(full, b, M=_identity, rtol=1e-10, restart=n, maxiter=n)
        AM, calls = _counted(A)
        x, info, _ = sv.gmres(AM, b, M=_identity, rtol=1e-10, restart=5, maxiter=500)
        assert calls_full["n"] > 5
        assert info == 0
        assert calls["n"] > calls_full["n"]
        assert np.linalg.norm(A @ x - b) <= 1.01e-10 * np.linalg.norm(b)

    def test_zero_rhs_returns_zeros(self, rng):
        AM, calls = _counted(rng.standard_normal((8, 8)))
        x, info, _ = sv.gmres(AM, np.zeros(8), M=_identity, rtol=1e-8, restart=8, maxiter=8)
        assert info == 0
        assert calls["n"] == 0
        assert not x.any()

    @pytest.mark.parametrize("unit", [False, True], ids=["random", "unit"])
    def test_identity_ends_at_happy_breakdown(self, rng, unit):
        # a unit vector b makes the breakdown exact (h = 0), a random one
        # leaves h at roundoff; neither divides by zero
        b = np.eye(12)[3] if unit else rng.standard_normal(12)
        AM, calls = _counted(np.eye(12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, info, _ = sv.gmres(AM, b, M=_identity, rtol=1e-12, restart=12, maxiter=12)
        assert info == 0
        assert calls["n"] == 1
        assert np.linalg.norm(x - b) <= 1e-14 * np.linalg.norm(b)

    def test_cap_below_needed_steps_reports_them(self, rng):
        # 4 + 2 Arnoldi steps and the true residual after each of the two
        # cycles, which the capped solve returns
        n = 30
        A = np.diag(np.linspace(1.0, 100.0, n))
        AM, calls = _counted(A)
        b = rng.standard_normal(n)
        x, info, residual = sv.gmres(AM, b, M=_identity, rtol=1e-12, restart=4, maxiter=6)
        assert info == 6
        assert calls["n"] == 8
        assert residual == np.linalg.norm(b - A @ x)

    @pytest.mark.parametrize("maxiter, restart", [(100, 60), (50, 60)])
    def test_lin_maxiter_caps_arnoldi_steps(self, rng, maxiter, restart):
        # lin_maxiter used to allow max(1, lin_maxiter // lin_restart) whole
        # cycles: 60 Arnoldi steps for both configurations.  A weighted d/dx
        # is singular, so no solve of a random right-hand side converges
        g = TorusGrid((16, 16))
        c = 1.0 + 0.5 * rng.uniform(size=g.sizes)

        def L(w):
            return ScalarField(g, c * derivative(w, 0).values)

        cfg = sv.SolverConfig(lin_maxiter=maxiter, lin_restart=restart)
        rhs = rng.standard_normal(g.sizes)
        _, _, achieved, _, info, applies = sv._linear_solve(L, g, rhs, cfg, 1e-12, None)
        assert info == maxiter
        # one true residual per restart, one measuring the capped step
        assert applies == maxiter + math.ceil(maxiter / restart)
        assert achieved > 1e-12

    @pytest.mark.parametrize("family", ["STDMA", "DETA_T3", "WARPED"])
    def test_krylov_apply_takes_one_forward_transform(self, rng, monkeypatch, family):
        # per apply: one forward transform of the Krylov vector, one inverse
        # per distinct nonzero weight, and each warped divergence flux
        # its own pair; per solve: one pair forming the step x = M(V y).  The
        # coefficient scale (None on WARPED) takes no transform
        g = TorusGrid((8, 8, 8) if family == "DETA_T3" else (16, 16))
        h = from_function(g, lambda x, *_: 0.3 * np.sin(2 * np.pi * x))
        spec = eq.EquationSpec(family, **({"c": 1.0, "h": h} if family == "WARPED" else {}))
        u = branch_safe_field(g, rng, max_mode=1, hessian_scale=0.2)
        ev = eq.evaluate(spec, u)
        L, a = eq.linearizer(ev), eq.coefficient_scale(ev)
        assert (a is None) == (family == "WARPED")
        fwd, inv = apply_transforms(spec, u)
        assert (fwd, inv) == {"STDMA": (1, 3), "DETA_T3": (1, 4), "WARPED": (2, 4)}[family]
        rhs = random_trig_field(g, rng, max_mode=2).values
        counts = count_transforms(monkeypatch)
        *_, info, applies = sv._linear_solve(L, g, rhs, sv.SolverConfig(), 1e-6, a)
        monkeypatch.undo()
        assert info == 0
        assert applies > 1
        assert counts == {"rfftn": applies * fwd + 1, "irfftn": applies * inv + 1,
                          "fftn": 0, "ifftn": 0}


class TestHomotopyDatum:
    def test_endpoints(self, g64, rng):
        F = random_trig_field(g64, rng, max_mode=2, scale=0.5)
        assert sv.homotopy_datum(F, 0.0).max_norm() == 0.0
        assert np.max(np.abs(sv.homotopy_datum(F, 1.0).values - F.values)) < 1e-14

    def test_midpoint_arithmetic(self, g64):
        F = ScalarField(g64, np.full(g64.sizes, np.log(2.0)))
        G = sv.homotopy_datum(F, 0.5)
        assert np.max(np.abs(G.values - np.log(1.5))) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), t=st.floats(0.0, 1.0))
    def test_interpolated_datum_stays_between_endpoints(self, seed, t):
        g = TorusGrid((8, 8))
        F = random_trig_field(g, np.random.default_rng(seed), max_mode=2, scale=1.0)
        G = sv.homotopy_datum(F, t)
        lo = np.minimum(F.values, 0.0)
        hi = np.maximum(F.values, 0.0)
        assert np.all(G.values >= lo - 1e-12)
        assert np.all(G.values <= hi + 1e-12)


class TestEllipticityMonitor:
    def test_flat_point_is_one(self, g64):
        spec = eq.EquationSpec(eq.Family.STDMA)
        assert sv.ellipticity_monitor(eq.evaluate(spec, zero_field(g64))) == pytest.approx(1.0)

    def test_negative_curvature_flagged(self, g64):
        # u with u_xx dipping to -2 has an indefinite coefficient matrix
        spec = eq.EquationSpec(eq.Family.STDMA)
        u = from_function(g64, lambda x, y: 2.0 / (2 * np.pi) ** 2 * np.cos(2 * np.pi * x))
        assert sv.ellipticity_monitor(eq.evaluate(spec, u)) < 0.0

    def test_negative_branch_sign_adjustment(self, g64):
        spec = eq.EquationSpec(eq.Family.LAGR_X1X2, l1=-1.0, l2=-1.0)
        assert sv.ellipticity_monitor(eq.evaluate(spec, zero_field(g64))) == pytest.approx(1.0)


class TestNewton:
    def test_trivial_solve(self, g64):
        spec = eq.EquationSpec(eq.Family.STDMA)
        cfg = sv.SolverConfig()
        rep = sv.newton_solve(spec, zero_field(g64), zero_field(g64), cfg)
        assert rep.converged
        assert len(rep.newton_history) - 1 <= 1
        assert rep.b == 0.0

    def test_manufactured_recovery(self, g64, star64):
        spec = eq.EquationSpec(eq.Family.STDMA)
        cfg = sv.SolverConfig()
        F = eq.manufactured_datum(spec, star64)
        G = sv.homotopy_datum(F, 1.0)
        rep = sv.newton_solve(spec, G, zero_field(g64), cfg)
        assert rep.converged
        assert np.max(np.abs(rep.u.values - star64.values)) <= 1e-8
        assert abs(rep.b) <= 1e-9

    def test_quadratic_tail(self, g64, star64):
        # log-ratio of successive residuals approaches the quadratic rate over
        # the last three iterations above the roundoff floor
        spec = eq.EquationSpec(eq.Family.STDMA)
        cfg = sv.SolverConfig()
        F = eq.manufactured_datum(spec, star64)
        rep = sv.newton_solve(spec, sv.homotopy_datum(F, 1.0), zero_field(g64), cfg)
        hist = [r for r in rep.newton_history if r > 100 * cfg.newton_tol]
        assert len(hist) >= 3
        r0, r1, r2 = hist[-3], hist[-2], hist[-1]
        slope = np.log(r2 / r1) / np.log(r1 / r0)
        assert slope >= 1.5

    def test_warped_auxiliary_constant_small(self, g64, star64):
        h = from_function(g64, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
        spec = eq.EquationSpec(eq.Family.WARPED, c=1.0, h=h)
        cfg = sv.SolverConfig()
        F = eq.manufactured_datum(spec, star64)
        rep = sv.newton_solve(spec, ScalarField(g64, F.values - h.values),
                              zero_field(g64), cfg)
        assert rep.converged
        assert abs(rep.b) <= 1e-8

    def test_uniqueness_gauge(self, g64, star64, rng):
        # runs from different admissible starts agree to 10x the tolerance
        spec = eq.EquationSpec(eq.Family.STDMA)
        cfg = sv.SolverConfig()
        F = eq.manufactured_datum(spec, star64)
        G = sv.homotopy_datum(F, 1.0)
        rep_a = sv.newton_solve(spec, G, zero_field(g64), cfg)
        u0 = branch_safe_field(g64, rng, max_mode=2, hessian_scale=0.2)
        rep_b = sv.newton_solve(spec, G, u0, cfg)
        assert rep_a.converged and rep_b.converged
        assert np.max(np.abs(rep_a.u.values - rep_b.u.values)) <= 10 * cfg.newton_tol

    def test_rejects_nonzero_mean_start(self, g64):
        spec = eq.EquationSpec(eq.Family.STDMA)
        cfg = sv.SolverConfig()
        bad = ScalarField(g64, np.full(g64.sizes, 0.5))
        with pytest.raises(ValueError):
            sv.newton_solve(spec, zero_field(g64), bad, cfg)

    def test_rejects_start_off_branch(self, g64):
        spec = eq.EquationSpec(eq.Family.STDMA)
        cfg = sv.SolverConfig()
        bad = from_function(g64, lambda x, y: 3.0 / (2 * np.pi) ** 2 * np.cos(2 * np.pi * x))
        bad = project_mean_zero(bad)
        with pytest.raises(ValueError):
            sv.newton_solve(spec, zero_field(g64), bad, cfg)


class TestContinuity:
    def test_zero_datum_stays_zero(self, g64):
        spec = eq.EquationSpec(eq.Family.STDMA)
        rep = sv.continuity_solve(spec, zero_field(g64), sv.SolverConfig())
        assert rep.converged
        assert rep.u.max_norm() <= 1e-12
        for node in rep.trace:
            assert node.u_max <= 1e-12

    def test_rejects_unnormalized_datum(self, g64):
        spec = eq.EquationSpec(eq.Family.STDMA)
        F = ScalarField(g64, np.full(g64.sizes, 0.3))
        with pytest.raises(ValueError):
            sv.continuity_solve(spec, F, sv.SolverConfig())

    def test_node_invariants(self, g64):
        # at every accepted node: margin above the floor, mean-zero solution,
        # auxiliary constant near zero for the volume-preserving family
        spec = eq.EquationSpec(eq.Family.STDMA)
        cfg = sv.SolverConfig()
        F = eq.normalize_datum(spec, from_function(
            g64, lambda x, y: 0.8 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)))
        rep = sv.continuity_solve(spec, F, cfg)
        assert rep.converged
        assert abs(integrate(rep.u)) <= 1e-12
        for node in rep.trace:
            assert node.min_eigenvalue >= cfg.delta
            assert abs(node.b) <= 10 * cfg.newton_tol
        r = eq.residual(spec, rep.u)
        assert np.max(np.abs(r.values - np.exp(F.values))) <= 1e-9

    @pytest.mark.parametrize("amp, nodes", [
        (0.8, [(0.25, 4), (0.75, 4), (1.0, 4)]),
        (3.0, [(0.25, 5), (0.5, 4), (1.0, 6)]),
    ])
    def test_quick_node_doubles_the_step(self, amp, nodes):
        # a node accepted in at most 4 Newton steps doubles the step; one
        # that took 5 keeps it
        g = TorusGrid((32, 32))
        spec = eq.EquationSpec(eq.Family.STDMA)
        F = eq.normalize_datum(spec, from_function(
            g, lambda x, y: amp * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)))
        rep = sv.continuity_solve(spec, F, sv.SolverConfig(dt_init=0.25))
        assert rep.converged and rep.rejected == []
        assert [(node.t, node.newton_iterations) for node in rep.trace] == [(0.0, 0), *nodes]

    def test_coefficient_scale_cuts_krylov_applies(self, monkeypatch):
        # L w ~ a Laplacian(w) on the Hessian family: dividing the
        # preconditioned vector by -a took this solve from 41 applies to 26,
        # with the same nodes
        g = TorusGrid((12, 12, 12))
        spec = eq.EquationSpec(eq.Family.NDIM_HESSIAN, n=3)
        star = project_mean_zero(from_function(
            g, lambda x1, x2, x3: 0.008 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2)
            + 0.006 * np.cos(2 * np.pi * x2) * np.sin(2 * np.pi * x3)))
        F = eq.normalize_datum(spec, eq.manufactured_datum(spec, star))
        scaled = sv.continuity_solve(spec, F, sv.SolverConfig())
        monkeypatch.setattr(sv, "coefficient_scale", lambda ev: None)
        plain = sv.continuity_solve(spec, F, sv.SolverConfig())
        assert scaled.converged and plain.converged
        assert len(scaled.trace) == len(plain.trace)
        assert scaled.monitors["krylov_matvecs"] <= 0.7 * plain.monitors["krylov_matvecs"]

    def test_warped_final_step_not_capped(self, g64, star64):
        # the last Newton step of a node used to chase lin_rtol past what
        # newton_tol needs, and restarted GMRES ran to lin_maxiter
        h = from_function(g64, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
        spec = eq.EquationSpec(eq.Family.WARPED, c=1.0, h=h)
        F = eq.normalize_datum(spec, eq.manufactured_datum(spec, star64))
        rep = sv.continuity_solve(spec, F, sv.SolverConfig())
        assert rep.converged
        assert rep.monitors["krylov_capped"] == 0
        assert rep.monitors["krylov_matvecs"] > 0

    def test_warped_branch_minima_reported(self, g64, star64):
        # the report's branch minima against the two quantities formed
        # directly: (e^h u_x)_x + c u_x and 1 + u_yy
        h = from_function(g64, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
        spec = eq.EquationSpec(eq.Family.WARPED, c=1.0, h=h)
        F = eq.normalize_datum(spec, eq.manufactured_datum(spec, star64))
        rep = sv.continuity_solve(spec, F, sv.SolverConfig())
        assert rep.converged
        ux = derivative(rep.u, 0, 1).values
        prima = derivative(ScalarField(g64, np.exp(h.values) * ux), 0, 1).values + spec.c * ux
        seconda = 1.0 + derivative(rep.u, 1, 2).values
        assert rep.monitors["prima_min"] == pytest.approx(np.min(prima), rel=0, abs=1e-12)
        assert rep.monitors["seconda_min"] == pytest.approx(np.min(seconda), rel=0, abs=1e-12)

    def test_one_evaluation_per_newton_iterate(self, monkeypatch):
        # the monitor, the residual and the next linearizer of an iterate read
        # one evaluation of the statement: its features are taken once, when
        # the monitor reads the coefficient matrix, and neither the residual
        # nor the linearizer build takes a transform
        g = TorusGrid((32, 32))
        spec = eq.EquationSpec(eq.Family.STDMA)
        star = project_mean_zero(from_function(
            g, lambda x, y: 0.012 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
            + 0.002 * np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y)))
        G = sv.homotopy_datum(eq.manufactured_datum(spec, star), 1.0)
        counts = count_transforms(monkeypatch)
        calls = {"evaluate": 0, "project": 0}
        taken = {"monitor": [], "linearizer": [], "krylov": []}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        def taking(name, fn):
            def wrapped(*args, **kwargs):
                before = dict(counts)
                out = fn(*args, **kwargs)
                taken[name].append({k: counts[k] - before[k] for k in counts})
                return out
            return wrapped

        monkeypatch.setattr(sv, "evaluate", counted("evaluate", sv.evaluate))
        monkeypatch.setattr(sv, "project_mean_zero", counted("project", sv.project_mean_zero))
        monkeypatch.setattr(sv, "ellipticity_monitor",
                            taking("monitor", sv.ellipticity_monitor))
        monkeypatch.setattr(sv, "linearizer", taking("linearizer", sv.linearizer))
        monkeypatch.setattr(sv, "_linear_solve", taking("krylov", sv._linear_solve))
        rep = sv.newton_solve(spec, G, zero_field(g), sv.SolverConfig())
        total = dict(counts)
        monkeypatch.undo()
        assert rep.converged
        steps = len(rep.newton_history) - 1
        assert len(taken["linearizer"]) == len(taken["krylov"]) == steps > 1
        # u0 and every trial are projected once each
        trials = calls["project"] - 1
        assert trials >= steps
        assert calls["evaluate"] == len(taken["monitor"]) == 1 + trials
        # per evaluation: one forward transform of u and one inverse per
        # feature the matrix reads, u_xx, u_xy and u_yy; STDMA's m1 = m2 = 0
        # weigh no u_x or u_y
        one = {"rfftn": 1, "irfftn": 3, "fftn": 0, "ifftn": 0}
        assert taken["monitor"] == [one] * len(taken["monitor"])
        assert all(not any(t.values()) for t in taken["linearizer"])
        spent = {k: sum(t[k] for t in taken["monitor"] + taken["krylov"]) for k in total}
        assert spent == total

    @pytest.mark.parametrize("family", ["DETA_T3", "WARPED_T3"])
    def test_no_evaluation_alive_during_krylov_solve(self, monkeypatch, family):
        # an evaluation holds every feature of its field: one left bound
        # through a Krylov solve raised the peak memory of the solve
        g = TorusGrid((16, 16, 16))
        h = from_function(g, lambda x1, x2, y1: 0.2 * np.sin(2 * np.pi * x1)
                          + 0.15 * np.cos(2 * np.pi * y1))
        spec = eq.EquationSpec(family, **({"h": h} if family == "WARPED_T3" else {}))
        star = project_mean_zero(from_function(
            g, lambda x1, x2, y1: 0.01 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * y1)
            + 0.008 * np.cos(2 * np.pi * x2) * np.sin(2 * np.pi * y1)))
        F = eq.normalize_datum(spec, eq.manufactured_datum(spec, star))
        alive = []
        real = sv._linear_solve

        def checked(*args, **kwargs):
            alive.append(sum(isinstance(o, eq.Evaluation) for o in gc.get_objects()))
            return real(*args, **kwargs)

        monkeypatch.setattr(sv, "_linear_solve", checked)
        rep = sv.continuity_solve(spec, F, sv.SolverConfig())
        assert rep.converged
        assert len(alive) > 1
        assert alive == [0] * len(alive)

    def test_ellipticity_margin_reused(self, g64, star64, monkeypatch):
        # the margin of an accepted iterate is known from its Newton trial (or
        # the entry check), so it is not computed again for the trace or the
        # final monitor
        spec = eq.EquationSpec(eq.Family.STDMA)
        F = eq.normalize_datum(spec, eq.manufactured_datum(spec, star64))
        calls = {"monitor": 0, "evaluate": 0, "newton": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(sv, "ellipticity_monitor",
                            counted("monitor", sv.ellipticity_monitor))
        monkeypatch.setattr(sv, "evaluate", counted("evaluate", sv.evaluate))
        monkeypatch.setattr(sv, "newton_solve", counted("newton", sv.newton_solve))
        rep = sv.continuity_solve(spec, F, sv.SolverConfig())
        monkeypatch.undo()
        assert rep.converged
        # t = 0 and every node entry evaluate the statement once each; every
        # other evaluation belongs to a Newton trial
        trials = calls["evaluate"] - 1 - calls["newton"]
        assert trials > 0
        assert calls["monitor"] == 1 + calls["newton"] + trials
        fresh = sv.ellipticity_monitor(eq.evaluate(spec, rep.u))
        assert rep.monitors["ellipticity_min"] == fresh
        assert rep.trace[-1].min_eigenvalue == fresh

    def test_sigma_witness_recorded(self, g64, star64):
        spec = eq.EquationSpec(eq.Family.STDMA)
        F = eq.manufactured_datum(spec, star64)
        rep = sv.continuity_solve(spec, F, sv.SolverConfig())
        assert np.isfinite(rep.sigma_min_witness)
        assert rep.sigma_min_witness > 0


class TestFailurePaths:
    def test_branch_loss_classified(self, g64, star64, monkeypatch):
        # if every shortened trial still sits below the ellipticity floor the
        # solve reports a lost branch
        spec = eq.EquationSpec(eq.Family.STDMA)
        cfg = sv.SolverConfig(max_backtracks=4)
        F = eq.manufactured_datum(spec, star64)
        calls = {"n": 0}
        real = sv.ellipticity_monitor

        def failing(ev):
            calls["n"] += 1
            return real(ev) if calls["n"] == 1 else -1.0

        monkeypatch.setattr(sv, "ellipticity_monitor", failing)
        rep = sv.newton_solve(spec, sv.homotopy_datum(F, 1.0), zero_field(g64), cfg)
        assert rep.status is sv.Status.BRANCH_LOST

    def test_nan_start_margin_is_off_the_branch(self, g64, star64, monkeypatch):
        # a NaN margin compares false with the floor both ways; it must not pass it
        spec = eq.EquationSpec(eq.Family.STDMA)
        F = eq.manufactured_datum(spec, star64)
        monkeypatch.setattr(sv, "ellipticity_monitor", lambda ev: float("nan"))
        with pytest.raises(ValueError, match="elliptic branch"):
            sv.newton_solve(spec, sv.homotopy_datum(F, 1.0), zero_field(g64), sv.SolverConfig())

    def test_nan_trial_margin_loses_the_branch(self, g64, star64, monkeypatch):
        # every trial with a NaN margin is shortened, as one below the floor is
        spec = eq.EquationSpec(eq.Family.STDMA)
        F = eq.manufactured_datum(spec, star64)
        calls = {"n": 0}
        real = sv.ellipticity_monitor

        def nan_after_entry(ev):
            calls["n"] += 1
            return real(ev) if calls["n"] == 1 else float("nan")

        monkeypatch.setattr(sv, "ellipticity_monitor", nan_after_entry)
        rep = sv.newton_solve(spec, sv.homotopy_datum(F, 1.0), zero_field(g64),
                              sv.SolverConfig(max_backtracks=4))
        assert rep.status is sv.Status.BRANCH_LOST

    def test_stalled_linear_solve_classified(self, g64, star64, monkeypatch):
        spec = eq.EquationSpec(eq.Family.STDMA)
        cfg = sv.SolverConfig()
        F = eq.manufactured_datum(spec, star64)

        def garbage(L, grid, rhs_field, cfg_, rtol, a):
            return np.zeros(grid.sizes), 0.0, 1.0, 1.0, 0, 1

        monkeypatch.setattr(sv, "_linear_solve", garbage)
        rep = sv.newton_solve(spec, sv.homotopy_datum(F, 1.0), zero_field(g64), cfg)
        assert rep.status is sv.Status.LINEAR_SOLVE_STALLED

    @pytest.mark.parametrize("achieved, status", [
        (0.1, sv.Status.CONVERGED),
        (0.15, sv.Status.LINEAR_SOLVE_STALLED),
    ])
    def test_stall_threshold_is_a_tenth(self, g64, star64, monkeypatch, achieved, status):
        # a linear solve is stalled once its achieved relative residual
        # exceeds 0.1; the step itself is the real one
        spec = eq.EquationSpec(eq.Family.STDMA)
        F = eq.manufactured_datum(spec, star64)
        real = sv._linear_solve

        def reported(*args):
            w, beta, _, wit, info, applies = real(*args)
            return w, beta, achieved, wit, info, applies

        monkeypatch.setattr(sv, "_linear_solve", reported)
        rep = sv.newton_solve(spec, sv.homotopy_datum(F, 1.0), zero_field(g64), sv.SolverConfig())
        assert rep.status is status

    def test_nonfinite_krylov_step_raises(self, g64, star64, monkeypatch):
        # the Krylov vectors are unchecked; the trial built from a NaN step
        # is the first checked field, and it ends the solve
        spec = eq.EquationSpec(eq.Family.STDMA)
        F = eq.manufactured_datum(spec, star64)
        monkeypatch.setattr(sv, "gmres", lambda A, b, **kw: (np.full(b.shape, np.nan), 0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            sv.newton_solve(spec, sv.homotopy_datum(F, 1.0), zero_field(g64), sv.SolverConfig())

    def test_step_failure_propagates(self, g64, star64):
        # an impossible iteration budget exhausts the step halving
        spec = eq.EquationSpec(eq.Family.STDMA)
        cfg = sv.SolverConfig(max_newton=1, dt_init=1.0, dt_min=0.6)
        F = eq.manufactured_datum(spec, star64)
        rep = sv.continuity_solve(spec, F, cfg)
        assert rep.status is sv.Status.MAX_ITERATIONS
        assert not rep.converged

    def test_max_steps_ends_max_steps(self):
        # one accepted step to t = 0.5 spends the whole budget: no step failed
        g = TorusGrid((32, 32))
        spec = eq.EquationSpec(eq.Family.STDMA)
        star = from_function(g, lambda x, y: 0.012 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
        F = eq.manufactured_datum(spec, project_mean_zero(star))
        rep = sv.continuity_solve(spec, F, sv.SolverConfig(max_steps=1, dt_init=0.5))
        assert rep.status is sv.Status.MAX_STEPS and rep.status.value == "MaxSteps"
        assert [node.t for node in rep.trace] == [0.0, 0.5]
        assert rep.rejected == [] and not rep.converged


    @pytest.mark.parametrize("blocked, status", [(2, "Converged"), (3, "NewtonStalled")])
    def test_shrinking_step_abandons_node(self, g64, star64, monkeypatch, blocked, status):
        # monitor call 1 is the entry check and call 2 the full first step;
        # pushing call `blocked` off the branch makes that Newton step settle
        # for half its length.  A half first step followed by a full one is
        # healthy; a full step followed by a half one, with the residual still
        # above newton_tol, ends the node at once
        spec = eq.EquationSpec(eq.Family.STDMA)
        cfg = sv.SolverConfig()
        F = eq.manufactured_datum(spec, star64)
        calls = {"n": 0}
        real = sv.ellipticity_monitor

        def blocking(ev):
            calls["n"] += 1
            return -1.0 if calls["n"] == blocked else real(ev)

        monkeypatch.setattr(sv, "ellipticity_monitor", blocking)
        rep = sv.newton_solve(spec, sv.homotopy_datum(F, 1.0), zero_field(g64), cfg)
        assert rep.status == status
        if status == "NewtonStalled":
            assert len(rep.newton_history) == 3
            assert rep.newton_history[-1] > cfg.newton_tol
            assert calls["n"] == 4

    def test_clipped_step_is_not_retried(self, monkeypatch):
        # after the node at t = 1/2 the doubled step was clipped to t = 1; a
        # failure there halved dt, which clipped to t = 1 again and repeated
        # the same solve from the same start
        g = TorusGrid((8, 8))
        spec = eq.EquationSpec(eq.Family.STDMA)
        bump = project_mean_zero(from_function(g, lambda x, y: np.cos(2 * np.pi * x)))
        targets = []
        real_target = sv._target_log_rhs

        def target(spec_, F_, t):
            targets.append(t)
            return real_target(spec_, F_, t)

        calls = []

        def newton(spec_, G, u0, cfg, b0=0.0):
            t = targets[-1]
            calls.append((t, u0.values.tobytes()))
            if t == 1.0:
                return sv.SolveReport(u=u0, b=b0, status=sv.Status.MAX_ITERATIONS,
                                      newton_history=[1.0, 0.5],
                                      monitors={"krylov_matvecs": 3, "krylov_capped": 0})
            u = ScalarField(g, u0.values + 1e-3 * t * bump.values)
            return sv.SolveReport(u=u, b=b0, status=sv.Status.CONVERGED,
                                  newton_history=[1.0, 0.0],
                                  monitors={"krylov_matvecs": 1, "krylov_capped": 0,
                                            "ellipticity_min": 1.0})

        monkeypatch.setattr(sv, "_target_log_rhs", target)
        monkeypatch.setattr(sv, "newton_solve", newton)
        rep = sv.continuity_solve(spec, zero_field(g), sv.SolverConfig())
        assert rep.status is sv.Status.MAX_ITERATIONS
        assert len(set(calls)) == len(calls)
        failed = [t for t, _ in calls if t == 1.0]
        assert calls[0][0] == 1.0 and len(failed) >= 2
        assert rep.rejected == [sv.RejectedAttempt(t=1.0, status=sv.Status.MAX_ITERATIONS,
                                                   newton_iterations=1, krylov_matvecs=3)
                                ] * len(failed)
        assert rep.monitors["krylov_matvecs"] == 3 * len(failed) + len(calls) - len(failed)


def test_readme_documents_every_solver_field():
    # the Solver section's table lists each SolverConfig field once, with
    # its default
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Solver\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section, re.MULTILINE)
    fields = dataclasses.fields(sv.SolverConfig)
    assert [name for name, _ in rows] == [f.name for f in fields]
    assert all(ast.literal_eval(text) == f.default for (_, text), f in zip(rows, fields))


def _dense_bound_constant(h, c, n=60000):
    """The warped bound max_s e^{-h(s) - cQ(s)} max(int_{s-1}^s e^{cQ},
    int_s^{s+1} e^{cQ}), Q(s) = int_0^s e^{-h}, for a callable 1-periodic h:
    Q and both windows by the trapezoid rule on n points per period over
    [-1, 2], the windows read off the cumulative integral directly."""
    s = np.arange(-n, 2 * n + 1) / n
    eh = np.exp(-h(s))
    cum = np.concatenate([[0.0], np.cumsum(eh[1:] + eh[:-1]) / (2 * n)])
    Q = cum - cum[n]  # Q(0) = 0
    ecq = np.exp(c * Q)
    J = np.concatenate([[0.0], np.cumsum(ecq[1:] + ecq[:-1]) / (2 * n)])
    at = np.arange(n, 2 * n)  # s in [0, 1)
    window = np.maximum(J[at] - J[at - n], J[at + n] - J[at])
    return float(np.max(eh[at] * np.exp(-c * Q[at]) * window))


class TestGradientBound:
    @pytest.mark.parametrize("c", [1.0, -1.0, 2.5, -4.0])
    def test_warped_constant_matches_dense_quadrature(self, c):
        # a non-constant h has q = mean(e^{-h}) far from 1, so the period
        # growth e^{+-cq} of the windows is told apart from e^{+-c/q}
        def h(s):
            return 0.6 * np.sin(2 * np.pi * s) + 0.3 * np.cos(4 * np.pi * s) - 0.4

        # both take the max over sample points: 8192 against 60000 a period
        # puts them 8.4e-8 apart
        x = np.arange(64) / 64
        assert sv._bound_constant(h(x), c) == pytest.approx(
            _dense_bound_constant(h, c), rel=1e-6, abs=0.0)


    def test_flat_profile_constant_is_one(self, g64):
        # with no warp and no drift the comparison constant is the period mass
        zero = zero_field(g64)
        res = sv.gradient_bound_monitor(zero, zero, 0.0)
        assert res.bound_x == pytest.approx(1.0, rel=1e-6)
        assert res.bound_y == 1.0
        assert res.passed

    @pytest.mark.parametrize("n", [8, 10, 64, 250, 1024])
    def test_zero_profile_constant_is_exactly_one(self, n):
        # the monitor's y bound is this constant, taken as the literal 1.0
        assert sv._bound_constant(np.zeros(n), 0.0) == 1.0

    @pytest.mark.parametrize("n", [8, 10, 64, 250, 16384])
    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_nyquist_split_matches_half_spectrum_route(self, n, c, rng):
        # random values fill the Nyquist bins; the second route resamples
        # the profile on the half spectrum, halving its Nyquist bin (n < m)
        # or folding modes +-m/2 into the new one (n > m), and hands
        # _bound_constant a profile already at its m points
        h = 0.3 * rng.standard_normal(n)
        m = 8192
        H = np.fft.rfft(h)
        if n < m:
            H[n // 2] /= 2.0
        else:
            H[m // 2] = 2.0 * H[m // 2].real
        h_m = np.fft.irfft(H, n=m) * (m / n)
        want = sv._bound_constant(h_m, c)
        assert sv._bound_constant(h, c) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_drift_free_constant_is_max_of_exp_minus_h(self):
        # c = 0: every window integral of e^{cQ} is 1, so the constant is
        # max e^{-h}, reached by 0.3 sin 2 pi x at x = 3/4, a quadrature point
        x = np.arange(64) / 64
        assert sv._bound_constant(0.3 * np.sin(2 * np.pi * x), 0.0) == pytest.approx(
            np.exp(0.3), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("c", [0.5, 1.0, -1.0, 2.5])
    def test_flat_profile_constant_closed_form(self, c):
        # h = 0: Q(s) = s, and the larger window integral of e^{cs}, times
        # e^{-cs}, is (e^{|c|} - 1)/|c|; the trapezoid rule errs by O(c^2/m^2)
        assert sv._bound_constant(np.zeros(64), c) == pytest.approx(
            np.expm1(abs(c)) / abs(c), rel=1e-8, abs=0.0)

    def test_large_twist_is_finite_or_inf(self):
        # e^{cQ} and e^{+-cq} overflowed once |c| q passed about 700, and
        # 0 * inf made the constant NaN; summed relative to e^{cQ(s)} it is
        # finite wherever it fits in a float and inf beyond
        x = np.arange(64) / 64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in (400.0, 600.0, 700.0, -700.0):
                # the trapezoid rule errs by 4.5e-4 at |c| = 600 on 8192 points
                assert sv._bound_constant(np.zeros(64), c) == pytest.approx(
                    np.expm1(abs(c)) / abs(c), rel=1e-3, abs=0.0)
            for c in (800.0, -800.0):
                assert sv._bound_constant(np.zeros(64), c) == np.inf
            for c in (700.0, -700.0):
                assert not np.isnan(sv._bound_constant(0.3 * np.sin(2 * np.pi * x), c))

    def test_odd_size_keeps_its_top_mode(self):
        # an odd profile has no Nyquist bin: its top mode +-31 at n = 63 is
        # resampled whole, not halved, and h = 0.1 cos(2 pi 31 x) reaches
        # -0.1 at the quadrature point x = 1/2
        x = np.arange(63) / 63
        h = 0.1 * np.cos(2 * np.pi * 31 * x)
        assert sv._bound_constant(h, 0.0) == pytest.approx(np.exp(0.1), rel=1e-14, abs=0.0)

    def test_constant_depends_only_on_profile(self, g64, rng):
        h = from_function(g64, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
        zero = zero_field(g64)
        a = sv.gradient_bound_monitor(zero, h, 1.0)
        u = branch_safe_field(g64, rng, max_mode=2, hessian_scale=0.2)
        b = sv.gradient_bound_monitor(u, h, 1.0)
        assert a.bound_x == pytest.approx(b.bound_x, rel=1e-12)

    def test_manufactured_solution_within_bound(self, g64, star64):
        h = from_function(g64, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
        spec = eq.EquationSpec(eq.Family.WARPED, c=1.0, h=h)
        F = eq.manufactured_datum(spec, star64)
        rep = sv.continuity_solve(spec, F, sv.SolverConfig())
        assert rep.converged
        gb = rep.monitors["gradient_bound"]
        assert gb.applicable
        assert gb.observed_x <= gb.bound_x
        assert gb.observed_y <= gb.bound_y
        assert gb.passed

    def test_closed_form_drift_free_case(self):
        # c = 0, h = 0: the bounding integral is the plain period length
        g = TorusGrid((32, 32))
        u = from_function(g, lambda x, y: 0.001 * np.sin(2 * np.pi * x))
        h0 = ScalarField(g, np.zeros(g.sizes))
        res = sv.gradient_bound_monitor(u, h0, 0.0)
        assert res.bound_x == pytest.approx(1.0, rel=1e-6)
