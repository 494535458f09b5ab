"""Continuity-method solver for the reduced torus equations.

The target datum is reached by marching the interpolated right-hand side
log(t e^F + 1 - t) from t = 0 (where u = 0 is an exact solution) to t = 1,
with a damped Newton corrector at every node.  Each Newton step solves the
linearized equation augmented by an auxiliary constant b and the mean-zero
gauge, through a preconditioned Krylov iteration: the operator is
nonsymmetric whenever first-order terms are present, so restarted GMRES is
used, right-preconditioned on the field part v by (sigma I - Laplacian)^{-1}
(-v/a), with a the linearization's own pointwise scale (L w ~ a Laplacian(w));
a statement that reads a divergence feature keeps (sigma I - Laplacian)^{-1} v.

The auxiliary constant makes the discrete system square without assuming the
interpolated right-hand side stays compatible; |b| at convergence is itself
a diagnostic of that compatibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields
from enum import Enum

import numpy as np

from .equations import (
    EquationSpec,
    Evaluation,
    Family,
    branch_sign,
    coefficient_scale,
    datum_log_weight,
    evaluate,
    linearizer,
    min_eigenvalue,
    symmetric_part,
)
from .grid import (
    ScalarField,
    _field,
    derivative,
    integrate,
    invert_shifted_laplacian,
    project_mean_zero,
    require_finite,
)


class Status(str, Enum):
    CONVERGED = "Converged"
    MAX_STEPS = "MaxSteps"
    BRANCH_LOST = "BranchLost"
    MAX_ITERATIONS = "MaxIterations"
    LINEAR_SOLVE_STALLED = "LinearSolveStalled"
    NEWTON_STALLED = "NewtonStalled"


@dataclass
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton: int = 40
    damping: float = 0.5
    max_backtracks: int = 25
    dt_init: float = 1.0
    dt_min: float = 1e-4
    max_steps: int = 200
    lin_rtol: float = 1e-9
    lin_maxiter: int = 600
    lin_restart: int = 60
    sigma: float = 1.0
    delta: float = 1e-6

    def __post_init__(self):
        # annotations are strings here (postponed evaluation)
        for f in fields(self):
            v = getattr(self, f.name)
            kind = int if f.type == "int" else (int, float)
            if isinstance(v, bool) or not isinstance(v, kind) or not math.isfinite(v):
                raise ValueError(f"{f.name} must be a finite {f.type}, got {v!r}")
        if self.newton_tol <= 0 or self.lin_rtol <= 0 or self.delta <= 0:
            raise ValueError("tolerances must be positive")
        for name in ("max_newton", "max_backtracks", "max_steps", "lin_maxiter", "lin_restart"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping must lie in (0, 1)")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not 0.0 < self.dt_init <= 1.0:
            raise ValueError("dt_init must lie in (0, 1]")
        if not 0.0 < self.dt_min <= self.dt_init:
            raise ValueError("dt_min must lie in (0, dt_init]")


@dataclass
class TraceNode:
    t: float
    newton_iterations: int
    final_residual: float
    min_eigenvalue: float
    u_max: float
    grad_max: float
    b: float


@dataclass
class RejectedAttempt:
    t: float
    status: Status
    newton_iterations: int
    krylov_matvecs: int


@dataclass
class GradientBoundResult:
    bound_x: float
    observed_x: float
    bound_y: float
    observed_y: float
    applicable: bool
    passed: bool


@dataclass
class SolveReport:
    u: ScalarField
    b: float
    status: Status
    trace: list[TraceNode] = dc_field(default_factory=list)
    rejected: list[RejectedAttempt] = dc_field(default_factory=list)
    newton_history: list[float] = dc_field(default_factory=list)
    monitors: dict = dc_field(default_factory=dict)
    sigma_min_witness: float = float("inf")

    @property
    def converged(self) -> bool:
        return self.status is Status.CONVERGED


def homotopy_datum(F: ScalarField, t: float) -> ScalarField:
    """log(t e^F + 1 - t) for t in [0, 1], where the argument stays positive."""
    vals = np.log(t * np.exp(F.values) + (1.0 - t))
    return ScalarField(F.grid, vals)


def _grad_max(u: ScalarField) -> float:
    return max(derivative(u, ax, 1).max_norm() for ax in range(u.grid.d))


def ellipticity_monitor(ev: Evaluation) -> float:
    """Minimum over the grid of the smallest eigenvalue of the symmetrized,
    branch-sign-adjusted coefficient matrix of the evaluated field.  Exact:
    `min_eigenvalue` runs LAPACK only at the Gershgorin candidates."""
    M = ev.entries
    return min_eigenvalue(symmetric_part(lambda a, b: M[a][b], len(M), branch_sign(ev.spec)))


def _target_log_rhs(spec: EquationSpec, F: ScalarField, t: float) -> ScalarField:
    G = homotopy_datum(F, t)
    return ScalarField(F.grid, G.values + datum_log_weight(spec))


def gmres(AM, b, M, rtol, restart, maxiter):
    """Restarted GMRES, right-preconditioned: (A M) y = b and x = M y (Saad &
    Schultz, SIAM J. Sci. Stat. Comput. 7 (1986) 856-869; Saad, Iterative
    Methods for Sparse Linear Systems, 2nd ed., sec. 9.3.2).

    `AM` applies A M to a Krylov vector; `M` forms x once, from the final y.
    Arnoldi runs by modified Gram-Schmidt and the least-squares problem by
    Givens rotations, whose residual is the true ||b - A x||.  Each cycle of
    at most `restart` steps starts from the true residual.  Returns (x, info,
    residual): info is 0 once ||b - A x|| <= rtol ||b||, else the `maxiter`
    steps taken; residual is that ||b - A x||, the Givens estimate when it
    converged, else the true residual, measured after the last cycle.
    """
    y, r, beta, steps = np.zeros_like(b), b, np.linalg.norm(b), 0
    tol = rtol * beta
    while beta > tol and steps < maxiter:
        m = min(restart, maxiter - steps)
        V, H = np.zeros((m + 1, b.size)), np.zeros((m, m))
        cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
        V[0], g[0] = r / beta, beta
        for j in range(m):
            w = AM(V[j])
            steps += 1
            for i in range(j + 1):
                H[i, j] = V[i] @ w
                w = w - H[i, j] * V[i]
            h = np.linalg.norm(w)
            V[j + 1] = w / h if h > 0 else w  # h = 0: a happy breakdown, g[j + 1] = 0
            for i in range(j):
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        cs[i] * H[i + 1, j] - sn[i] * H[i, j])
            den = math.hypot(H[j, j], h)
            cs[j], sn[j], H[j, j] = H[j, j] / den, h / den, den
            g[j + 1], g[j] = -sn[j] * g[j], cs[j] * g[j]
            if abs(g[j + 1]) <= tol:
                break
        y += V[:j + 1].T @ np.linalg.solve(H[:j + 1, :j + 1], g[:j + 1])
        beta = abs(g[j + 1])
        if beta > tol:
            r = b - AM(y)
            beta = np.linalg.norm(r)
    return (M(y) if steps else y), (0 if beta <= tol else steps), beta


def _linear_solve(L, grid, rhs_field, cfg, rtol, a):
    """Solve [L(w) - b ; mean(w)] = [rhs_field ; 0] by `gmres`, right-
    preconditioned on the field part v by w = (sigma I - Laplacian)^{-1}(-v/a),
    with a the linearization's pointwise scale (`coefficient_scale`), or by
    (sigma I - Laplacian)^{-1} v where a is None.  L reads w as its half
    spectrum; the gauge row takes mean(w) from its zero mode.  Returns the
    step, the relative residual that GMRES stopped at, the smallest-singular-
    value witness |rhs| / |x|, the GMRES `info` and the number of operator
    applies.
    """
    npts, shape = grid.npoints, grid.sizes
    applies = 0

    def apply(w, beta):
        nonlocal applies
        applies += 1
        return np.append(L(w).values.ravel() - beta, w.hat.flat[0].real / npts)

    def precond(v):
        v = v[:npts].reshape(shape)
        return invert_shifted_laplacian(_field(grid, v if a is None else -v / a), cfg.sigma)

    rhs = np.append(rhs_field.ravel(), 0.0)
    x, info, residual = gmres(lambda v: apply(precond(v), v[npts]), rhs,
                              M=lambda v: np.append(precond(v).values.ravel(), v[npts]),
                              rtol=rtol, restart=cfg.lin_restart, maxiter=cfg.lin_maxiter)
    nrhs = float(np.linalg.norm(rhs))
    achieved = float(residual) / nrhs
    nx = float(np.linalg.norm(x))
    witness = nrhs / nx if nx > 0 else float("inf")
    return x[:npts].reshape(shape), float(x[npts]), achieved, witness, int(info), applies


def newton_solve(
    spec: EquationSpec,
    G: ScalarField,
    u0: ScalarField,
    cfg: SolverConfig,
    b0: float = 0.0,
) -> SolveReport:
    """Damped Newton on { residual(u) - e^G - b = 0 ; mean(u) = 0 }.

    Steps are backtracked on the max-norm residual; any trial that would drop
    the ellipticity margin below cfg.delta is shortened.  A node whose
    accepted step is shorter than the accepted step before it, with the
    residual still above cfg.newton_tol, is abandoned as NEWTON_STALLED:
    the line search is cutting deeper instead of relaxing towards the full
    step, and the caller does better with a shorter continuation step than
    with more Newton steps (Deuflhard 2004, ch. 5).

    Every trial is checked once, by the `evaluate` that takes its features,
    so a non-finite Krylov step raises ValueError.
    """
    require_finite(G, u0)
    if abs(integrate(u0)) > 1e-8:
        raise ValueError("u0 must be mean-zero")
    u = project_mean_zero(u0)
    # one evaluation per iterate: its ellipticity margin, reported with it,
    # its residual and the next linearizer all read it
    ev = evaluate(spec, u)
    margin = ellipticity_monitor(ev)
    if not margin >= cfg.delta:  # a NaN margin is below the floor
        raise ValueError("u0 lies outside the elliptic branch")

    grid = u0.grid
    eG = np.exp(G.values)
    b = float(b0)
    r = ev.residual.values - eG - b
    hist = [float(np.max(np.abs(r)))]
    witness = float("inf")
    status = Status.MAX_ITERATIONS
    forcing = 1e-2
    matvecs = capped = 0
    last_step = 0.0

    for _ in range(cfg.max_newton):
        if hist[-1] <= cfg.newton_tol:
            break
        L, a = linearizer(ev), coefficient_scale(ev)
        ev = ev_try = None  # no evaluation is held through the Krylov solve
        w_vals, beta, achieved, wit, info, applies = _linear_solve(L, grid, -r, cfg, forcing, a)
        witness = min(witness, wit)
        matvecs += applies
        capped += info != 0
        if achieved > 0.1:
            status = Status.LINEAR_SOLVE_STALLED
            break

        step = 1.0
        branch_blocked = 0
        for _bt in range(cfg.max_backtracks):
            u_try = project_mean_zero(_field(grid, u.values + step * w_vals))
            ev_try = evaluate(spec, u_try)
            margin_try = ellipticity_monitor(ev_try)
            if not margin_try >= cfg.delta:
                branch_blocked += 1
            else:
                b_try = b + step * beta
                r_try = ev_try.residual.values - eG - b_try
                n_try = float(np.max(np.abs(r_try)))
                if n_try <= (1.0 - 1e-4 * step) * hist[-1] or n_try <= cfg.newton_tol:
                    break
            step *= cfg.damping
        else:
            status = Status.BRANCH_LOST if branch_blocked == cfg.max_backtracks \
                else Status.MAX_ITERATIONS
            break
        u, b, r, margin, ev = u_try, b_try, r_try, margin_try, ev_try
        hist.append(n_try)
        # inexact-Newton forcing term (Eisenstat & Walker 1996), tightened
        # quadratically with the observed contraction so the local rate stays
        # quadratic.  The safeguard 0.01*newton_tol/|r| stops a step that can
        # already land under newton_tol from over-solving: restarted GMRES may
        # never reach lin_rtol and would run to lin_maxiter.  lin_rtol is only
        # a lower bound.
        forcing = max(cfg.lin_rtol, min(1e-2, (n_try / hist[-2]) ** 2),
                      0.01 * cfg.newton_tol / n_try)
        if step < last_step and hist[-1] > cfg.newton_tol:
            status = Status.NEWTON_STALLED
            break
        last_step = step
    if hist[-1] <= cfg.newton_tol:
        status = Status.CONVERGED

    return SolveReport(u=u, b=b, status=status, newton_history=hist,
                       monitors={"krylov_matvecs": matvecs, "krylov_capped": capped,
                                 "ellipticity_min": margin},
                       sigma_min_witness=witness)


def continuity_solve(spec: EquationSpec, F: ScalarField, cfg: SolverConfig) -> SolveReport:
    """Adaptive path-following from t = 0 to t = 1, warm-starting Newton.

    The first attempt covers the whole interval (cfg.dt_init = 1 by
    default).  A step clipped at t = 1 becomes the step actually tried, so a
    failure halves that step and no attempt repeats an earlier one.  After a
    node accepted in at most 4 Newton steps the step doubles; after a failed
    attempt it halves, and the run stops once it falls below cfg.dt_min.
    Every failed attempt is listed in `rejected`.

    F must be normalized (flat-measure integral of e^F equal to 1); the
    compatibility integral is necessary for the volume-preserving families,
    so an unnormalized datum is rejected.
    """
    require_finite(F)
    mass = integrate(ScalarField(F.grid, np.exp(F.values)))
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"datum is not normalized: integral of e^F is {mass:.8f}")

    grid = F.grid
    u = ScalarField(grid, np.zeros(grid.sizes))
    b = 0.0
    t = 0.0
    dt = cfg.dt_init
    ev = evaluate(spec, u)
    margin = ellipticity_monitor(ev)
    trace = [TraceNode(t=0.0, newton_iterations=0,
                       final_residual=float(np.max(np.abs(
                           ev.residual.values - np.exp(_target_log_rhs(spec, F, 0.0).values)))),
                       min_eigenvalue=margin,
                       u_max=0.0, grad_max=0.0, b=0.0)]
    del ev  # no evaluation is held through a Krylov solve
    witness = float("inf")
    history: list[float] = []
    rejected: list[RejectedAttempt] = []
    status = Status.MAX_STEPS
    matvecs = capped = 0

    for _ in range(cfg.max_steps):
        if t >= 1.0:
            break
        t_try = min(1.0, t + dt)
        dt = t_try - t
        G = _target_log_rhs(spec, F, t_try)
        rep = newton_solve(spec, G, u, cfg, b0=b)
        witness = min(witness, rep.sigma_min_witness)
        matvecs += rep.monitors["krylov_matvecs"]
        capped += rep.monitors["krylov_capped"]
        if rep.converged:
            u, b, margin = rep.u, rep.b, rep.monitors["ellipticity_min"]
            t = t_try
            history = rep.newton_history
            trace.append(TraceNode(
                t=t,
                newton_iterations=len(rep.newton_history) - 1,
                final_residual=rep.newton_history[-1],
                min_eigenvalue=margin,
                u_max=u.max_norm(),
                grad_max=_grad_max(u),
                b=b,
            ))
            if len(rep.newton_history) <= 5:
                dt = min(2.0 * dt, 1.0)
        else:
            rejected.append(RejectedAttempt(
                t=t_try, status=rep.status,
                newton_iterations=len(rep.newton_history) - 1,
                krylov_matvecs=rep.monitors["krylov_matvecs"]))
            dt *= 0.5
            if dt < cfg.dt_min:
                status = rep.status
                break
    if t >= 1.0:
        status = Status.CONVERGED

    report = SolveReport(u=u, b=b, status=status, trace=trace, rejected=rejected,
                         newton_history=history, sigma_min_witness=witness)
    report.monitors["ellipticity_min"] = margin
    report.monitors["abs_b"] = abs(b)
    report.monitors["krylov_matvecs"] = matvecs
    report.monitors["krylov_capped"] = capped
    if spec.family is Family.WARPED:
        gb = gradient_bound_monitor(u, spec.h, spec.c)
        # the warped branch quantities (e^h u_x)_x + c u_x = e^h M_11 - 1
        # and 1 + u_yy = M_22, read from the coefficient matrix M
        M = evaluate(spec, u).entries
        report.monitors["prima_min"] = float(np.min(np.exp(spec.h.values) * M[0][0] - 1.0))
        report.monitors["seconda_min"] = float(np.min(M[1][1]))
        report.monitors["gradient_bound"] = gb
    return report


# ---------------------------------------------------------------------------
# a-priori gradient bound
# ---------------------------------------------------------------------------

_QUAD_POINTS = 8192


def _bound_constant(h1d: np.ndarray, c: float) -> float:
    """The explicit sup bound for 1-periodic v with a zero satisfying
    e^h v' + (c + e^h h') v > -1, by quadrature of the comparison integrals.

    With y = e^h v the hypothesis reads y' + c e^{-h} y > -1, whose
    integrating factor is e^{cQ}, Q(s) = int_0^s e^{-h}.  The bound is the
    max over s of e^{-h-cQ} times the larger integral of e^{cQ} over the
    length-1 windows ending and starting at s.  Q grows by q = mean(e^{-h})
    per period, so one period of samples gives both windows.  The integrals
    are summed in log space, relative to e^{cQ(s)}, so the bound is finite
    wherever it fits in a float and inf beyond; at c = 0 every window
    integral is 1 and the bound is max e^{-h}."""
    # h1d resampled spectrally to m points: for even n < m its Nyquist bin
    # is split in half between modes +-n/2, for n > m modes +-m/2 fold into
    # the new Nyquist bin
    m, n = _QUAD_POINTS, h1d.size
    H = np.fft.rfft(h1d)[:m // 2 + 1]
    if n % 2 == 0 and n < m:
        H[-1] /= 2.0
    elif n > m:
        H[-1] = 2.0 * H[-1].real
    h = np.fft.irfft(H, n=m) * (m / n)
    eh = np.exp(-h)
    if c == 0.0:
        return float(np.max(eh))
    q = float(np.mean(eh))
    # Q is the spectral primitive of e^{-h}: q s plus that of its oscillation
    osc = np.fft.rfft(eh)
    osc[0] = 0.0
    osc[1:] /= 2j * np.pi * np.arange(1, m // 2 + 1)
    Q = np.fft.irfft(osc, n=m) + q * np.arange(m) / m
    L = c * np.append(Q, Q[0] + q)
    panel = np.logaddexp(L[:-1], L[1:]) - np.log(2.0 * m)  # log of each trapezoid of e^{cQ}
    head = np.logaddexp.accumulate(np.append(-np.inf, panel[:-1]))  # log int_0^s e^{cQ}
    tail = np.logaddexp.accumulate(panel[::-1])[::-1]  # log int_s^1 e^{cQ}
    ending = np.logaddexp(head, tail - c * q)
    starting = np.logaddexp(tail, head + c * q)
    with np.errstate(over="ignore"):
        return float(np.exp(np.max(np.maximum(ending, starting) - h - L[:-1])))


def gradient_bound_monitor(u: ScalarField, h: ScalarField, c: float) -> GradientBoundResult:
    """A-priori sup bounds on u_x and u_y for the warped family, from the
    comparison-integral constant depending only on c and h, against the
    observed norms.

    Requires u_x to change sign along every x-line (always true up to
    roundoff since its x-mean vanishes); otherwise the result is flagged
    not applicable instead of asserted.
    """
    ux = derivative(u, 0, 1)
    uy = derivative(u, 1, 1)
    vx = ux.values
    tol = 1e-13 * max(1.0, float(np.max(np.abs(vx))))
    has_zero = np.all((vx.min(axis=0) <= tol) & (vx.max(axis=0) >= -tol))
    bound_x = _bound_constant(h.values[:, 0], c)
    # y has h = 0, c = 0: the constant is the period mass, and for a zero
    # profile, at any n, _bound_constant returns exactly 1.0
    bound_y = 1.0
    obs_x = ux.max_norm()
    obs_y = uy.max_norm()
    passed = bool(has_zero and obs_x <= bound_x * (1 + 1e-9) + 1e-12
                  and obs_y <= bound_y * (1 + 1e-9) + 1e-12)
    return GradientBoundResult(bound_x=bound_x, observed_x=obs_x,
                               bound_y=bound_y, observed_y=obs_y,
                               applicable=bool(has_zero), passed=passed)
