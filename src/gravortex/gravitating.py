"""Coupled metric + bundle solver for the gravitating vortex system.

Unknowns are the conformal potential u and the bundle potential v, with

    R1 = N exp(-2u) + Delta_omega v + (|phi|^2_H - tau) / 2,
    R2 = S_omega + alpha (Delta_omega + tau)(|phi|^2_H - tau) - c,

where |phi|^2_H = exp(2v) |phi|^2_FS.  The constant c is an output: the
residual reported to callers is mean-projected (c_est is the omega-mean of
the left side of R2), while the Newton iteration carries c as an explicit
unknown paired with the volume-normalization constraint row, which is the
same projection written as a square system.  Both evaluate R1 and R2 by
one definition (``_CoupledSystem.equations``), which applies the Laplacian
matrix-free; only the Newton Jacobian reads the dense Laplacian.

Under the package conventions (round scalar curvature 4, volume 2*pi)
integrating the system gives the topological value c = 4 - 2 alpha tau N;
a common alternative curvature normalization yields 2 - 2 alpha tau N.
Reports carry both predictions and never silently reconcile them.

Symmetric configurations (2l = N) are solved on the even-parity subspace:
the sphere's dilation automorphisms generate an odd null direction of the
coupled linearization (a one-parameter family of pulled-back solutions),
and parity reduction removes that direction.  It does not remove the even
concentration family at the zero-constant coupling alpha tau N = 2, where
the Jacobian of the reduced system becomes singular too; each Newton step
therefore tests for a spectral gap at the bottom of the spectrum and
borders the solve only when it finds one (``_gauge_aware_step``).

Asymmetric two-zero monomials (2l != N) have no solution at alpha > 0:
their Futaki character 2 pi alpha (2N - tau)(2l - N) is nonzero, so the
solver refuses them like single-zero fields unless the obstruction is
overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .bundles import HiggsConfig, finite_float, higgs_profile
from .errors import ConfigurationError, ObstructionError
from .geometry import (
    NESTED_ABOVE_N,
    AxisymGrid,
    ConformalMetric,
    ROUND_SCALAR_CURVATURE,
    ROUND_VOLUME,
    build_grid,
    integrate,
    laplacian,
    scalar_curvature,
    volume,
)
from .obstructions import abelian_coupled_obstructions, moment_map_form
from .vortex import (
    NESTED_COARSE_N,
    BundleMetricPotential,
    NewtonOptions,
    SolveReport,
    bundle_curvature,
    check_vortex_window,
    damped_newton,
    grid_vector,
    vortex_equation,
)

QUOTED_C_COEFF = 2.0  # commonly quoted topological constant: 2 - 2 alpha tau N
CONVENTION_C_COEFF = 4.0  # value forced by the package curvature conventions


@dataclass(frozen=True, eq=False)
class GravitatingState:
    """A (metric, bundle metric) pair with its coupling and constant."""

    metric: ConformalMetric
    bundle: BundleMetricPotential
    c_value: float
    alpha: float


@dataclass
class ContinuationSchedule:
    """Increasing coupling values starting at 0.

    ``alphas`` is a list or tuple of finite real numbers, neither booleans
    nor numeric strings; it is kept as a tuple of floats.  A
    ConfigurationError names the first entry that breaks a rule.
    """

    alphas: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.alphas, (list, tuple)):
            raise ConfigurationError(f"schedule must be a list of numbers, got {self.alphas!r}")
        alphas = tuple(
            finite_float(a, "schedule entry", "schedule entries must be numbers")
            for a in self.alphas
        )
        if not alphas or alphas[0] != 0.0:
            raise ConfigurationError("continuation schedule must start at alpha = 0")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise ConfigurationError("continuation schedule must be strictly increasing")
        self.alphas = alphas


@dataclass
class ContinuationStep:
    alpha: float
    converged: bool
    iterations: int
    residual_sup: float
    c_est: float
    bordered_steps: int  # Newton steps that took the bordered solve
    stop_reason: str  # see vortex.damped_newton
    # the last iterate, kept when it converged or stopped on the round-off floor
    u: np.ndarray | None = None
    v: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        """Every field but the iterate."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("u", "v")}


@dataclass
class ContinuationReport:
    converged: bool
    steps: list[ContinuationStep]
    resolution: int

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "resolution": self.resolution,
            "steps": [s.to_json_dict() for s in self.steps],
        }

    def final_solve_report(self) -> SolveReport:
        last = self.steps[-1]
        return SolveReport(
            converged=self.converged,
            iterations=sum(s.iterations for s in self.steps),
            residual_sup=last.residual_sup,
            resolution=self.resolution,
            stop_reason=last.stop_reason,
            diagnostics=[s.residual_sup for s in self.steps],
        )


def metric_equation(
    s_field: np.ndarray,
    alpha: float,
    lap_phi_sq: np.ndarray,
    phi_sq: np.ndarray,
    tau: float,
    c: float,
) -> np.ndarray:
    """R2 = S_omega + alpha (Delta_omega |phi|^2_H + tau (|phi|^2_H - tau)) - c.

    ``lap_phi_sq`` is the applied term Delta_omega |phi|^2_H; the Laplacian
    of the constant -tau is dropped exactly, not numerically.
    """
    return s_field + alpha * (lap_phi_sq + tau * (phi_sq - tau)) - c


def volume_row(grid: AxisymGrid, u: np.ndarray) -> float:
    """Volume normalization: integral exp(2u) omega_FS - 2 pi, summed exactly."""
    return volume(grid, ConformalMetric(u=u)) - ROUND_VOLUME


def gravitating_residual(
    grid: AxisymGrid, state: GravitatingState, config: HiggsConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """(R1, R2, c_est) at the given state; R2 has zero omega-mean by construction.

    R1 and R2 are the residuals the coupled Newton iteration drives down,
    evaluated with c = 0; c_est is the omega-mean of that R2.
    """
    config.require_abelian("gravitating_residual")
    u = grid_vector(grid, state.metric.u, "metric potential")
    v = grid_vector(grid, state.bundle.v, "bundle potential")
    system = _CoupledSystem(grid, config, float(state.alpha), symmetric=False)
    (r1, full, _), _ = system.equations(np.concatenate([u, v, [0.0]]))
    c_est = integrate(grid, state.metric, full) / volume(grid, state.metric)
    return r1, full - c_est, c_est


def c_from_integral_identity(
    grid: AxisymGrid, state: GravitatingState, config: HiggsConfig
) -> float:
    """Constant forced by integrating the curvature equation against omega.

    c * Vol = integral S omega + alpha tau (integral |phi|^2_H omega
    - tau Vol); it agrees with the mean projection up to the quadrature
    defect of the exact-divergence term.
    """
    tau = float(config.tau)
    curv = scalar_curvature(grid, state.metric)
    phi_sq = np.exp(2.0 * state.bundle.v) * higgs_profile(grid, config, 0)
    vol = volume(grid, state.metric)
    total = curv.total + float(state.alpha) * tau * (
        integrate(grid, state.metric, phi_sq) - tau * vol
    )
    return total / vol


def c_predictions(config: HiggsConfig, alpha: float) -> dict:
    """Both topological predictions for c, plus the zero-constant products.

    The quoted normalization gives c = 2 - 2 alpha tau N (so alpha tau N = 1
    at c = 0); the package conventions give c = 4 - 2 alpha tau N (so
    alpha tau N = 2).  Reports compare, they do not reconcile.
    """
    atn = float(alpha) * float(config.tau) * sum(config.degrees)
    return {
        "quoted": QUOTED_C_COEFF - 2.0 * atn,
        "conventions": CONVENTION_C_COEFF - 2.0 * atn,
        "alpha_tau_N": atn,
        "alpha_tau_N_at_zero_constant": {
            "quoted": QUOTED_C_COEFF / 2.0,
            "conventions": CONVENTION_C_COEFF / 2.0,
        },
    }


_PROBES = 4  # columns of the fixed probe block of the spectral-gap test
_GAP = 1e-6  # border when the estimate of sigma_min / sigma_{min-1} falls below this


def _gauge_aware_step(jac: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Newton step that stays well-posed when the linearization degenerates.

    At the zero-constant coupling the solution is non-isolated (a
    concentration family), so the Jacobian acquires an exact null direction
    and the plain step's component along it is round-off divided by a
    vanishing singular value.  One LU solve takes the step together with a
    fixed random probe block P.  The two largest singular values of J^-1 P
    are one-sided estimates of 1/sigma_min and 1/sigma_{min-1}, the
    single-pass randomized range finder of Halko, Martinsson and Tropp
    (SIAM Review 53, 2011) applied to J^-1.  Only a spectral gap,
    sigma_min < _GAP sigma_{min-1}, or a singular factor sends the step to
    a bordered solve pinned to the singular pair of the full SVD; ordinary
    conditioning (sigma_min / sigma_max tiny but no gap) keeps the plain
    LU step.  Returns the step and whether it bordered.
    """
    m = jac.shape[0]
    probe = np.random.default_rng(0).standard_normal((m, _PROBES))
    try:
        sol = np.linalg.solve(jac, np.column_stack([rhs, probe]))
        if np.all(np.isfinite(sol)):
            inverse = np.linalg.svd(sol[:, 1:], compute_uv=False)
            if inverse[1] >= _GAP * inverse[0]:
                return sol[:, 0], False
    except np.linalg.LinAlgError:
        pass
    left, _, right_t = np.linalg.svd(jac)
    bordered = np.zeros((m + 1, m + 1))
    bordered[:m, :m] = jac
    bordered[:m, m] = left[:, -1]
    bordered[m, :m] = right_t[-1, :]
    return np.linalg.solve(bordered, np.concatenate([rhs, [0.0]]))[:m], True


class _CoupledSystem:
    """R1, R2 and the volume row as a map of x = (u, v, c), and its Jacobian.

    With ``symmetric`` the unknowns are the even-parity reduction of x:
    reduced entry j of u (and of v) stands for the mirror pair of grid
    nodes (hi[j], lo[j]) = (mid + j, mid - j).  ``top`` and ``bottom`` list
    the pair of every reduced entry (the middle node and c pair with
    themselves).  Restriction averages a pair and ``expand`` copies a
    reduced vector back to the grid.  The residuals stay on the full grid;
    the reduced Jacobian, the full one with paired rows averaged and paired
    columns summed, is assembled at half size from the mirror averages of
    its diagonal scalings and :attr:`AxisymGrid.lap_fs_even`, which is
    exact because the iterates are even.
    """

    def __init__(self, grid: AxisymGrid, config: HiggsConfig, alpha: float, symmetric: bool):
        n = self.n = grid.n
        self.grid, self.alpha, self.symmetric = grid, alpha, symmetric
        self.profile = higgs_profile(grid, config, 0)
        self.tau = float(config.tau)
        self.n_deg = config.degrees[0]
        self.bordered_steps = 0
        if symmetric:
            mid = n // 2
            self.hi = np.arange(mid, n)
            self.lo = n - 1 - self.hi
            mirror = np.abs(np.arange(n) - mid)
            self.expand = np.concatenate([mirror, mid + 1 + mirror, [2 * mid + 2]])
        else:
            self.hi = self.lo = np.arange(n)
            self.expand = np.arange(2 * n + 1)
        self.top = np.concatenate([self.hi, n + self.hi, [2 * n]])
        self.bottom = np.concatenate([self.lo, n + self.lo, [2 * n]])

    def restrict(self, z: np.ndarray) -> np.ndarray:
        return 0.5 * (z[self.top] + z[self.bottom])

    def fold(self, g: np.ndarray) -> np.ndarray:
        """Mirror average of a grid vector (the identity in full space)."""
        return 0.5 * (g[self.hi] + g[self.lo])

    def unpack(self, x: np.ndarray):
        z = x[self.expand]
        return z[: self.n], z[self.n : 2 * self.n], z[2 * self.n]

    def equations(self, x: np.ndarray):
        """(R1, R2, volume row) on the full grid, and the terms the Jacobian reuses.

        The Laplacian is applied matrix-free; a non-finite x gives non-finite
        residuals, never an exception, so the line search can halve.
        """
        u, v, c = self.unpack(x)
        grid = self.grid
        emu = np.exp(-2.0 * u)
        phih = np.exp(2.0 * v) * self.profile
        s_field = emu * (ROUND_SCALAR_CURVATURE + 2.0 * grid.apply_lap_fs(u))
        curv = bundle_curvature(grid, ConformalMetric(u=u), self.n_deg, v)
        lap_phih = emu * grid.apply_lap_fs(phih)
        r1 = vortex_equation(curv, phih, self.tau)
        r2 = metric_equation(s_field, self.alpha, lap_phih, phih, self.tau, c)
        return (r1, r2, volume_row(grid, u)), (u, emu, phih, s_field, curv, lap_phih)

    def residual(self, x: np.ndarray) -> np.ndarray:
        """(R1, R2, volume row) as one vector on the full grid."""
        r1, r2, r3 = self.equations(x)[0]
        return np.concatenate([r1, r2, [r3]])

    def linearization(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Jacobian and negated residual of the (reduced) system at x."""
        (r1, r2, r3), (u, emu, phih, s_field, curv, lap_phih) = self.equations(x)
        fold, alpha = self.fold, self.alpha
        lap = self.grid.lap_fs_even if self.symmetric else self.grid.lap_fs
        m = lap.shape[0]
        diag = np.arange(m)
        scaled = fold(emu)[:, None] * lap
        dphi = fold(2.0 * phih)
        jac = np.zeros((2 * m + 1, 2 * m + 1))
        jac[diag, diag] = -2.0 * fold(curv)
        jac[:m, m : 2 * m] = scaled
        jac[diag, m + diag] += fold(phih)
        jac[m : 2 * m, :m] = 2.0 * scaled
        jac[m + diag, diag] -= 2.0 * fold(s_field + alpha * lap_phih)
        j22 = scaled * dphi
        j22[diag, diag] += self.tau * dphi
        jac[m : 2 * m, m : 2 * m] = alpha * j22
        jac[m : 2 * m, 2 * m] = -1.0
        # the volume row is not averaged; its paired columns sum
        vol = 2.0 * np.pi * self.grid.weights * np.exp(2.0 * u)
        jac[2 * m, :m] = vol[self.hi] + np.where(self.hi != self.lo, vol[self.lo], 0.0)
        return jac, -self.restrict(np.concatenate([r1, r2, [r3]]))

    def newton_step(self, x: np.ndarray) -> np.ndarray:
        step, bordered = _gauge_aware_step(*self.linearization(x))
        self.bordered_steps += bordered
        return step


def solve_gravitating(
    config: HiggsConfig,
    schedule: ContinuationSchedule,
    grid: AxisymGrid,
    override_obstruction: bool = False,
    initial: GravitatingState | None = None,
    newton: NewtonOptions | None = None,
) -> tuple[GravitatingState, ContinuationReport]:
    """Natural continuation in the coupling, seeding each step with the last.

    Refuses configurations with a coupled obstruction at the largest
    scheduled coupling (a single-zero Higgs field, or a nonzero Futaki
    character) unless explicitly overridden; the override exists because
    numerical divergence is not a theorem and must not be asserted as one.
    Without ``initial`` the first step starts from the round metric and
    every later step from the previous fine state, except at
    n > NESTED_ABOVE_N: there the whole schedule is first solved at
    NESTED_COARSE_N nodes, and each fine step starts from the coarse step
    at the same alpha, prolonged by Chebyshev coefficients
    (:meth:`AxisymGrid.prolong`), when that step converged or stopped on
    its round-off floor.  The report covers the fine steps only; the coarse
    solve's Newton steps are not in their ``iterations``.
    The continuation stops at the first step that does not converge (its
    ``stop_reason`` says why) and returns the last converged state with
    converged=False.  Every step runs with ``newton``, by default
    ``NewtonOptions()``.  The potentials of ``initial`` must be finite
    vectors on ``grid`` (:func:`~gravortex.vortex.grid_vector`).
    """
    config.require_abelian("solve_gravitating")
    check_vortex_window(config)
    _refuse_obstructed(config, schedule.alphas[-1], override_obstruction)
    start = None
    if initial is not None:
        start = (
            grid_vector(grid, initial.metric.u, "initial metric potential").copy(),
            grid_vector(grid, initial.bundle.v, "initial bundle potential").copy(),
            initial.c_value,
        )
    steps = _continue(config, grid, schedule.alphas, newton or NewtonOptions(), start, solved={})
    report = ContinuationReport(converged=steps[-1].converged, steps=steps, resolution=grid.n)
    return _last_state(steps, start, grid.n), report


def _continue(config, grid, alphas, newton, start, solved) -> list[ContinuationStep]:
    """The steps of the natural continuation along ``alphas``, as solve_gravitating reports them.

    ``solved`` holds converged steps by (n, alpha) from earlier
    continuations of one search, and receives every step that converges
    here.  The longest prefix of ``alphas`` found there is reused, not
    solved again, and the first step after it starts from the last reused
    step: the state a continuation along the same prefix reaches, so the
    steps do not depend on what ``solved`` held.  Without a reused prefix
    the first step starts from ``start``, (u, v, c), or from the round
    state when ``start`` is None.  With ``start`` None and n >
    NESTED_ABOVE_N, each step instead starts from the step at its alpha of
    the same continuation at NESTED_COARSE_N nodes, prolonged, when that
    step converged or stopped on its floor.  The continuation stops at the
    first step that does not converge.
    """
    n = grid.n
    steps = []
    for alpha in alphas:
        if (n, alpha) not in solved:
            break
        steps.append(solved[n, alpha])
    if steps:
        u, v, c = steps[-1].u, steps[-1].v, steps[-1].c_est
    else:
        u, v, c = start or _round_start(n)
    starts = {}  # by alpha: a step's start, when it is not the last state
    if start is None and n > NESTED_ABOVE_N:
        coarse = build_grid(NESTED_COARSE_N)
        starts = {
            step.alpha: (coarse.prolong(step.u, n), coarse.prolong(step.v, n), step.c_est)
            for step in _continue(config, coarse, alphas, newton, None, solved)
            if step.u is not None
        }
    symmetric = 2 * config.exponents[0] == config.degrees[0]
    for alpha in alphas[len(steps) :]:
        u0, v0, c0 = starts.get(alpha) or (u, v, c)
        system = _CoupledSystem(grid, config, alpha, symmetric)
        x, history, stop_reason, iters = damped_newton(
            system.restrict(np.concatenate([u0, v0, [c0]])),
            system.residual,
            system.newton_step,
            newton,
        )
        ok = stop_reason == "converged"
        keep = ok or stop_reason == "roundoff_floor"
        u_new, v_new, c_new = system.unpack(x)
        step = ContinuationStep(
            alpha=alpha,
            converged=ok,
            iterations=iters,
            residual_sup=history[-1],
            c_est=float(c_new),
            bordered_steps=system.bordered_steps,
            stop_reason=stop_reason,
            u=u_new.copy() if keep else None,
            v=v_new.copy() if keep else None,
        )
        steps.append(step)
        if not ok:
            break
        solved[n, alpha] = step
        u, v, c = step.u, step.v, step.c_est
    return steps


def _round_start(n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(u, v, c) of the round metric with the Fubini-Study bundle metric."""
    return np.zeros(n), np.zeros(n), CONVENTION_C_COEFF


def _last_state(steps, start, n) -> GravitatingState:
    """The state of the last converged step, or the start at alpha = 0 when none converged."""
    done = [step for step in steps if step.converged]
    if done:
        u, v, c, alpha = done[-1].u, done[-1].v, done[-1].c_est, done[-1].alpha
    else:
        (u, v, c), alpha = start or _round_start(n), 0.0
    return GravitatingState(
        metric=ConformalMetric(u=u.copy()),
        bundle=BundleMetricPotential(v=v.copy()),
        c_value=c,
        alpha=alpha,
    )


def _refuse_obstructed(config: HiggsConfig, alpha: float, override: bool) -> None:
    reasons = abelian_coupled_obstructions(config, alpha)
    if reasons and not override:
        raise ObstructionError(
            "refusing to run the coupled solver: " + "; ".join(reasons), reasons=reasons
        )


_EB_C_TOLERANCE = 1e-8  # |c| below which the secant has found the zero-constant coupling
_EB_MAX_SECANT = 12  # secant steps after the two starting evaluations
_EB_FIRST_ALPHA = 0.1  # the second starting coupling is min(0.1, 1 / (tau N))
_EB_STEP_CAP = 0.05  # largest alpha step of the continuation behind each evaluation


def _schedule_to(alpha_target: float) -> tuple[float, ...]:
    """The continuation behind an EB evaluation: a shared lattice, then alpha_target.

    The lattice is the multiples k * _EB_STEP_CAP below alpha_target, so
    every evaluation of one search steps through the same couplings and
    each is solved once.  The last entry is alpha_target itself, so a state
    solved to the end of the schedule carries alpha_target as its alpha.
    """
    if alpha_target <= 0.0:
        return (0.0,)
    lattice = (k * _EB_STEP_CAP for k in range(math.ceil(alpha_target / _EB_STEP_CAP) + 1))
    return tuple(a for a in lattice if a < alpha_target) + (alpha_target,)


@dataclass
class EinsteinBogomolnyiResult:
    state: GravitatingState
    alpha_star: float
    c_value: float | None  # None: the continuation to alpha_star did not converge
    alpha_tau_N: float
    predictions: dict
    converged: bool
    secant_history: list[tuple[float, float | None]]
    endpoint_c_values: tuple[float | None, float | None] | None = None

    def to_json_dict(self) -> dict:
        """Every field but the state (JSON writes the tuples as lists)."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "state"}


def einstein_bogomolnyi_solve(
    config: HiggsConfig,
    grid: AxisymGrid,
    newton: NewtonOptions | None = None,
    override_obstruction: bool = False,
) -> EinsteinBogomolnyiResult:
    """Secant iteration on alpha for a zero topological constant.

    Each evaluation of c at a coupling alpha is the continuation of
    solve_gravitating along ``_schedule_to(alpha)``: the multiples of 0.05
    below alpha, then alpha.  Evaluations share that lattice, and each
    continues from the largest lattice coupling an earlier evaluation of
    the search already solved, so every coupling is solved once; its state
    is the one a continuation from alpha = 0 reaches, bit for bit.  Its c
    is None when that continuation did not converge, since the state it
    returns then belongs to a smaller coupling or is the start guess.
    The secant starts from alpha = 0 and min(0.1, 1 / (tau N)), takes at
    most 12 further steps and stops once |c| <= 1e-8.  The map
    alpha -> c_est is affine to quadrature accuracy (c is topological), so
    the secant converges immediately.  The report carries alpha* tau N next
    to the quoted prediction 1 and the conventions-derived prediction 2;
    the discrepancy is documented, not asserted away.  Bracket/convergence failure returns converged=False with
    the endpoint c values.  ``state``, ``alpha_star`` and ``c_value``
    describe one evaluation: the last whose continuation converged, or
    alpha = 0 when none did; ``state.alpha`` is ``alpha_star``.
    """
    config.require_abelian("einstein_bogomolnyi_solve")
    check_vortex_window(config)
    opts = newton or NewtonOptions()
    tau_n = float(config.tau) * sum(config.degrees)

    solved = {}  # converged continuation steps by (n, alpha), shared by every evaluation

    def c_at(alpha: float) -> tuple[GravitatingState, float | None]:
        # the solve reads its couplings from the schedule, not config.alpha
        steps = _continue(config, grid, _schedule_to(alpha), opts, None, solved)
        converged = steps[-1].converged
        return _last_state(steps, None, grid.n), steps[-1].c_est if converged else None

    a0 = 0.0
    a1 = min(_EB_FIRST_ALPHA, 1.0 / tau_n)
    _refuse_obstructed(config, a1, override_obstruction)
    state0, c0 = c_at(a0)
    state1, c1 = c_at(a1)
    history = [(a0, c0), (a1, c1)]
    # the last evaluation whose continuation converged, or alpha = 0 when none did
    best = (state1, a1, c1) if c1 is not None else (state0, a0, c0)
    endpoints = None  # the bracketing c values of a failed search
    if c0 is None or c1 is None:
        endpoints = (c0, c1)
    else:
        for _ in range(_EB_MAX_SECANT):
            if abs(best[2]) <= _EB_C_TOLERANCE:
                break
            if c1 == c0:
                endpoints = (c0, c1)
                break
            a2 = a1 - c1 * (a1 - a0) / (c1 - c0)
            if a2 <= 0.0:
                a2 = 0.5 * a1
            state2, c2 = c_at(a2)
            history.append((a2, c2))
            if c2 is None:
                endpoints = (c1, c2)
                break
            a0, c0, a1, c1 = a1, c1, a2, c2
            best = (state2, a2, c2)
    state, alpha_star, c_value = best
    return EinsteinBogomolnyiResult(
        state=state,
        alpha_star=alpha_star,
        c_value=c_value,
        alpha_tau_N=alpha_star * tau_n,
        predictions=c_predictions(config, alpha_star),
        converged=endpoints is None and abs(c_value) <= _EB_C_TOLERANCE,
        secant_history=history,
        endpoint_c_values=endpoints,
    )


def general_coupled_residual(
    grid: AxisymGrid, state: GravitatingState, config: HiggsConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals in the general coupled form, for cross-checking.

    The first equation, assembled through the circle-action moment map on
    the fiber (m = -(i/2)|phi|^2_H, central constant z = -i tau/2 after
    normalizing the couplings to be equal), is i(Lambda F + m - z) = R1.
    The second is the moment-map form G of the curvature equation:

        R1' = i Lambda_omega F_H + (1/2)(|phi|^2_H - tau)  (= R1 exactly),
        R2' = S_omega + alpha Delta_omega |phi|^2_H
              - 2 alpha tau (i Lambda_omega F_H) - mean.

    Both are the same equations written two ways: algebraically
    R2'_full = R2_full - 2 alpha tau R1, so the forms agree pointwise at
    any vortex solution up to the documented constants.
    """
    config.require_abelian("general_coupled_residual")
    tau = float(config.tau)
    phi_sq = np.exp(2.0 * state.bundle.v) * higgs_profile(grid, config, 0)
    curv = bundle_curvature(grid, state.metric, config.degrees[0], state.bundle.v)
    full = moment_map_form(
        scalar_curvature(grid, state.metric).s_field,
        float(state.alpha),
        laplacian(grid, state.metric, phi_sq),
        tau,
        curv,
    )
    mean = integrate(grid, state.metric, full) / volume(grid, state.metric)
    return vortex_equation(curv, phi_sq, tau), full - mean
