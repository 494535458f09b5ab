"""Continuity-method solver for the reduced torus equations.

The target datum is reached by marching the interpolated right-hand side
log(t e^F + 1 - t) from t = 0 (where u = 0 is an exact solution) to t = 1,
with a damped Newton corrector at every node.  Each Newton step solves the
linearized equation augmented by an auxiliary constant b and the mean-zero
gauge, through a preconditioned Krylov iteration: the operator is
nonsymmetric whenever first-order terms are present, so restarted GMRES is
used, right-preconditioned by the shifted-Laplacian inverse.

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
    Family,
    branch_sign,
    coefficient_entries,
    datum_log_weight,
    linearizer,
    min_eigenvalue,
    residual,
    symmetric_part,
)
from .grid import (
    ScalarField,
    _pad_axis,
    _unchecked_field,
    derivative,
    integrate,
    invert_shifted_laplacian,
    project_mean_zero,
    require_finite,
)


class Status(str, Enum):
    CONVERGED = "Converged"
    STEP_FAILED = "StepFailed"
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
    dealias: bool = False

    def __post_init__(self):
        # annotations are strings here (postponed evaluation)
        for f in fields(self):
            v = getattr(self, f.name)
            kind = {"bool": bool, "int": int}.get(f.type, (int, float))
            if isinstance(v, bool) != (f.type == "bool") or not isinstance(v, kind) \
                    or not math.isfinite(v):
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
    """log(t e^F + 1 - t); the argument stays positive for t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    vals = np.log(t * np.exp(F.values) + (1.0 - t))
    return ScalarField(F.grid, vals)


def _grad_max(u: ScalarField) -> float:
    return max(derivative(u, ax, 1).max_norm() for ax in range(u.grid.d))


def ellipticity_monitor(spec: EquationSpec, u: ScalarField) -> float:
    """Minimum over the grid of the smallest eigenvalue of the symmetrized,
    branch-sign-adjusted coefficient matrix.  Exact: `min_eigenvalue` runs
    LAPACK only at the Gershgorin candidates."""
    M = coefficient_entries(spec, u)
    return min_eigenvalue(symmetric_part(lambda a, b: M[a][b], len(M), branch_sign(spec)))


def warped_branch_minima(spec: EquationSpec, u: ScalarField) -> tuple[float, float]:
    """Minima of the two diagonal branch quantities of the warped family,
    (e^h u_x)_x + c u_x = e^h M_11 - 1 and 1 + u_yy = M_22, read from its
    coefficient matrix M."""
    if spec.family is not Family.WARPED:
        raise ValueError("branch minima are defined for the warped family")
    M = coefficient_entries(spec, u)
    prima = np.exp(spec.h.values) * M[0][0] - 1.0
    return float(np.min(prima)), float(np.min(M[1][1]))


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
    at most `restart` steps starts from the true residual.  Returns (x, info):
    info is 0 once ||b - A x|| <= rtol ||b||, else the `maxiter` steps taken.
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
        if beta > tol and steps < maxiter:
            r = b - AM(y)
            beta = np.linalg.norm(r)
    return (M(y) if steps else y), (0 if beta <= tol else steps)


def _linear_solve(L, grid, rhs_field, rhs_mean, cfg, rtol):
    """Solve [L(w) - b ; mean(w)] = [rhs_field ; rhs_mean] by `gmres`, right-
    preconditioned by the shifted-Laplacian inverse of the field part, which
    L reads as its half spectrum; the gauge row takes mean(w) from its zero
    mode.  Returns the step, the relative residual (at most rtol when GMRES
    converged, measured with one more apply when it hit cfg.lin_maxiter
    Arnoldi steps), the smallest-singular-value witness |rhs| / |x|, the GMRES
    `info` and the number of operator applies.
    """
    npts, shape = grid.npoints, grid.sizes
    applies = 0

    def apply(w, beta):
        nonlocal applies
        applies += 1
        return np.append(L(w).values.ravel() - beta, w.hat.flat[0].real / npts)

    def precond(v):
        return invert_shifted_laplacian(_unchecked_field(grid, v[:npts].reshape(shape)), cfg.sigma)

    rhs = np.append(rhs_field.ravel(), rhs_mean)
    x, info = gmres(lambda v: apply(precond(v), v[npts]), rhs,
                    M=lambda v: np.append(precond(v).values.ravel(), v[npts]),
                    rtol=rtol, restart=cfg.lin_restart, maxiter=cfg.lin_maxiter)
    nrhs = float(np.linalg.norm(rhs))
    achieved = float(np.linalg.norm(apply(_unchecked_field(grid, x[:npts].reshape(shape)), x[npts])
                                    - rhs)) / nrhs if info else rtol
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

    Every trial is built through the checked `ScalarField` constructor, so a
    non-finite Krylov step raises ValueError.
    """
    require_finite(G, u0)
    if abs(integrate(u0)) > 1e-8:
        raise ValueError("u0 must be mean-zero")
    u = project_mean_zero(u0)
    # the ellipticity margin of the current iterate, reported with it
    margin = ellipticity_monitor(spec, u)
    if margin < cfg.delta:
        raise ValueError("u0 lies outside the elliptic branch")

    grid = u0.grid
    eG = np.exp(G.values)
    b = float(b0)

    def res_vals(uu, bb):
        return residual(spec, uu, dealias=cfg.dealias).values - eG - bb

    r = res_vals(u, b)
    hist = [float(np.max(np.abs(r)))]
    witness = float("inf")
    status = Status.MAX_ITERATIONS
    forcing = 1e-2
    matvecs = capped = 0
    last_step = 0.0

    for _ in range(cfg.max_newton):
        if hist[-1] <= cfg.newton_tol:
            status = Status.CONVERGED
            break
        L = linearizer(spec, u, dealias=cfg.dealias)
        w_vals, beta, achieved, wit, info, applies = _linear_solve(
            L, grid, -r, 0.0, cfg, forcing)
        witness = min(witness, wit)
        matvecs += applies
        capped += info != 0
        if achieved > 0.1:
            status = Status.LINEAR_SOLVE_STALLED
            break

        step = 1.0
        accepted = False
        branch_blocked = 0
        for _bt in range(cfg.max_backtracks):
            u_try = project_mean_zero(ScalarField(grid, u.values + step * w_vals))
            margin_try = ellipticity_monitor(spec, u_try)
            if margin_try < cfg.delta:
                branch_blocked += 1
                step *= cfg.damping
                continue
            b_try = b + step * beta
            r_try = res_vals(u_try, b_try)
            n_try = float(np.max(np.abs(r_try)))
            if n_try <= (1.0 - 1e-4 * step) * hist[-1] or n_try <= cfg.newton_tol:
                u, b, r, margin = u_try, b_try, r_try, margin_try
                hist.append(n_try)
                # inexact-Newton forcing term (Eisenstat & Walker 1996),
                # tightened quadratically with the observed contraction so the
                # local rate stays quadratic.  The safeguard 0.01*newton_tol/|r|
                # stops a step that can already land under newton_tol from
                # over-solving: restarted GMRES may never reach lin_rtol and
                # would run to lin_maxiter.  lin_rtol is only a lower bound.
                forcing = max(cfg.lin_rtol, min(1e-2, (n_try / hist[-2]) ** 2),
                              0.01 * cfg.newton_tol / n_try)
                accepted = True
                break
            step *= cfg.damping
        if not accepted:
            status = Status.BRANCH_LOST if branch_blocked == cfg.max_backtracks \
                else Status.MAX_ITERATIONS
            break
        if step < last_step and hist[-1] > cfg.newton_tol:
            status = Status.NEWTON_STALLED
            break
        last_step = step
    else:
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
    margin = ellipticity_monitor(spec, u)
    trace = [TraceNode(t=0.0, newton_iterations=0,
                       final_residual=float(np.max(np.abs(
                           residual(spec, u).values
                           - np.exp(_target_log_rhs(spec, F, 0.0).values)))),
                       min_eigenvalue=margin,
                       u_max=0.0, grad_max=0.0, b=0.0)]
    witness = float("inf")
    history: list[float] = []
    rejected: list[RejectedAttempt] = []
    status = Status.STEP_FAILED
    matvecs = capped = 0

    for _ in range(cfg.max_steps):
        if t >= 1.0:
            status = Status.CONVERGED
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
    else:
        if t >= 1.0:
            status = Status.CONVERGED

    report = SolveReport(u=u, b=b, status=status, trace=trace, rejected=rejected,
                         newton_history=history, sigma_min_witness=witness)
    report.monitors["ellipticity_min"] = margin
    report.monitors["abs_b"] = abs(b)
    report.monitors["krylov_matvecs"] = matvecs
    report.monitors["krylov_capped"] = capped
    if spec.family is Family.WARPED:
        prima, seconda = warped_branch_minima(spec, u)
        report.monitors["prima_min"] = prima
        report.monitors["seconda_min"] = seconda
        gb = gradient_bound_monitor(u, spec.h, spec.c)
        report.monitors["gradient_bound"] = gb
    return report


# ---------------------------------------------------------------------------
# a-priori gradient bound
# ---------------------------------------------------------------------------

def _profile(h: ScalarField, axis: int = 0) -> np.ndarray:
    """Extract the 1-d profile of a field that varies along a single axis."""
    vals = np.moveaxis(h.values, axis, 0)
    return vals.reshape(vals.shape[0], -1)[:, 0]


def _bound_constant(h1d: np.ndarray, c: float, m: int = 8192) -> float:
    """The explicit sup bound for 1-periodic v with a zero satisfying
    e^h v' + (c + e^h h') v > -1, by quadrature of the comparison integrals."""
    n = h1d.size
    hf = np.real(np.fft.ifft(_pad_axis(np.fft.fft(h1d), 0, n, m))) * (m / n)
    s = np.arange(m) / m
    hat = np.fft.fft(hf)
    k = np.fft.fftfreq(m, d=1.0 / m)
    mult = 2j * np.pi * k
    mult[m // 2] = 0.0
    hp = np.real(np.fft.ifft(hat * mult))
    integrand = c * np.exp(-hf) + hp

    # primitive of the integrand; it is periodic-plus-linear
    mean_part = float(np.mean(integrand))
    osc = integrand - mean_part
    osc_hat = np.fft.fft(osc)
    div = 2j * np.pi * k
    div[0] = 1.0
    anti = np.real(np.fft.ifft(osc_hat / div))
    anti -= anti[0]
    G1 = anti + mean_part * s
    kappa = mean_part  # growth of the primitive over one period

    # samples on [-1, 2): three periods
    G = np.concatenate([G1 - kappa, G1, G1 + kappa])
    hh = np.concatenate([hf, hf, hf])
    E = np.exp(G - hh)
    ds = 1.0 / m
    I = np.concatenate([[0.0], np.cumsum((E[1:] + E[:-1]) / 2.0)]) * ds

    idx = np.arange(3 * m)
    lower = np.clip(idx - m, m, 2 * m)   # max(s - 1, 0) in sample indices
    upper = np.clip(idx + m, m, 2 * m)   # min(s + 1, 1)
    fwd = np.exp(-G) * (I - I[lower])
    fwd[idx < m] = -np.inf
    bwd = np.exp(-G) * (I[upper] - I)
    bwd[idx >= 2 * m] = -np.inf
    return float(max(np.max(fwd), np.max(bwd)))


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
    bound_x = _bound_constant(_profile(h, 0), c)
    bound_y = _bound_constant(np.zeros(u.grid.sizes[1]), 0.0)
    obs_x = ux.max_norm()
    obs_y = uy.max_norm()
    passed = bool(has_zero and obs_x <= bound_x * (1 + 1e-9) + 1e-12
                  and obs_y <= bound_y * (1 + 1e-9) + 1e-12)
    return GradientBoundResult(bound_x=bound_x, observed_x=obs_x,
                               bound_y=bound_y, observed_y=obs_y,
                               applicable=bool(has_zero), passed=passed)
