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
the sphere's dilations generate an odd null direction of the coupled
linearization (a one-parameter family of pulled-back solutions), and
parity reduction removes it.  The coupled system is a
:class:`~gravortex.vortex.NewtonSystem`, as the vortex equation is, and
takes that type's even start and half-size Newton step.  At alpha = 0 the
equations decouple: the round metric (u = 0, c = 4) solves the metric
equation exactly and R1 is the vortex equation on it, so the continuation
takes that step with ``solve_vortex``, and the coupled Newton iteration runs
only at alpha > 0.  A full-space (2l != N) solve therefore never meets
the dilation direction at alpha = 0.

At the zero-constant coupling alpha tau N = 2 the system reduces to
Delta_FS Psi = 0 with Psi = 2u - 2 alpha tau v + alpha |phi|^2_H, so Psi is
constant on every Einstein--Bogomol'nyi state.  The collocated Laplacian
(:attr:`~gravortex.geometry.AxisymGrid.lap_fs`) has the kernel of Delta_FS,
the constants alone, so the reduced Jacobian stays regular there and
every Newton step is one LU solve; a singular one ends the iteration with
the stop ``singular_jacobian`` (:func:`~gravortex.vortex.damped_newton`).

Asymmetric two-zero monomials (2l != N) have no solution at alpha > 0:
their Futaki character 2 pi alpha (2N - tau)(2l - N) is nonzero, so the
solver refuses them like single-zero fields unless the obstruction is
overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .bundles import HiggsConfig, higgs_profile
from .errors import ConfigurationError, ObstructionError, finite_float
from .geometry import (
    AxisymGrid,
    ConformalMetric,
    ROUND_SCALAR_CURVATURE,
    ROUND_VOLUME,
    build_grid,
    integrate,
    scalar_curvature,
    volume,
)
from .obstructions import abelian_coupled_obstructions
from .vortex import (
    NESTED_COARSE_N,
    USABLE_STOPS,
    BundleMetricPotential,
    NewtonOptions,
    NewtonSystem,
    SolveReport,
    bundle_curvature,
    check_vortex_window,
    grid_vector,
    nested_start,
    solve_vortex,
    sup_norm,
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


class _CoupledSystem(NewtonSystem):
    """R1, R2 and the volume row as a map of x = (u, v, c), and its Jacobian.

    x holds u and v on the full grid, then c (two grid blocks, then a
    scalar); with ``symmetric`` the Newton step is the even-parity one of
    :class:`~gravortex.vortex.NewtonSystem`.
    """

    blocks = 2

    def __init__(self, grid: AxisymGrid, config: HiggsConfig, alpha: float, symmetric: bool):
        super().__init__(grid, config, symmetric)
        self.alpha = alpha

    def unpack(self, x: np.ndarray):
        n = self.grid.n
        return x[:n], x[n : 2 * n], x[2 * n]

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

    def evaluate(self, x: np.ndarray):
        """(R1, R2, volume row) as one vector on the full grid, and the Jacobian's terms."""
        (r1, r2, r3), terms = self.equations(x)
        return np.concatenate([r1, r2, [r3]]), terms

    def jacobian(self, x: np.ndarray, terms) -> np.ndarray:
        u, emu, phih, s_field, curv, lap_phih = terms
        fold, alpha, lap = self.fold, self.alpha, self.lap
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
        vol = 2.0 * np.pi * self.grid.weights * np.exp(2.0 * u)
        if self.symmetric:  # the volume row is not averaged; its mirror columns sum
            vol = 2.0 * fold(vol)
            vol[0] *= 0.5
        jac[2 * m, :m] = vol
        return jac


def solve_gravitating(
    config: HiggsConfig,
    schedule: ContinuationSchedule,
    grid: AxisymGrid,
    override_obstruction: bool = False,
    v0: np.ndarray | None = None,
    newton: NewtonOptions | None = None,
) -> tuple[GravitatingState, ContinuationReport]:
    """Natural continuation in the coupling, seeding each step with the last.

    Refuses configurations with a coupled obstruction at the largest
    scheduled coupling (a single-zero Higgs field, or a nonzero Futaki
    character) unless explicitly overridden; the override exists because
    numerical divergence is not a theorem and must not be asserted as one.
    Every schedule starts at alpha = 0, where the equations decouple: the
    round metric (u = 0, c = 4) solves the metric equation exactly, and
    the step is :func:`~gravortex.vortex.solve_vortex` on it, started from
    ``v0``, a finite vector on ``grid``
    (:func:`~gravortex.vortex.grid_vector`), or from zero.  Every later step
    is a coupled Newton solve started from the previous state, except at
    n > NESTED_COARSE_N (129) without ``v0``: there each fine step starts
    from the step at the same alpha of the same continuation at
    NESTED_COARSE_N nodes, prolonged by Chebyshev coefficients
    (:meth:`AxisymGrid.prolong`), when that step converged or stopped on
    its round-off floor; such a fine step mostly converges with no Newton
    step.  A coarse step is solved only when its fine step is, so a fine
    continuation that stops early solves no coarse step past its stop.
    The report covers the fine steps only; the coarse solve's Newton steps
    are not in their ``iterations``.
    The continuation stops at the first step that does not converge (its
    ``stop_reason`` says why) and returns the last converged state with
    converged=False, or, when no step converged, the start at alpha = 0:
    u = 0, ``v0`` or 0, and c = 4.  Every step runs with ``newton``, by
    default ``NewtonOptions()``.
    """
    config.require_abelian("solve_gravitating")
    check_vortex_window(config)
    _refuse_obstructed(config, schedule.alphas[-1], override_obstruction)
    if v0 is not None:
        v0 = grid_vector(grid, v0, "initial guess").copy()
    steps = _continue(config, grid, schedule.alphas, newton or NewtonOptions(), v0, solved={})
    report = ContinuationReport(converged=steps[-1].converged, steps=steps, resolution=grid.n)
    return _last_state(steps, v0, grid.n), report


def _continue(config, grid, alphas, newton, v0, solved) -> list[ContinuationStep]:
    """The steps of the natural continuation along ``alphas``, as solve_gravitating reports them.

    ``solved`` holds the steps by (n, alpha) of earlier continuations of
    one search, and receives every step solved here, converged or not.
    The longest prefix of ``alphas`` found there is reused, not solved
    again, up to and including its first step that did not converge, where
    the continuation stops as it would again; otherwise the first step
    after the prefix starts from the last reused step: the state a
    continuation along the same prefix reaches, so the steps do not depend
    on what ``solved`` held.  Without a reused prefix the first step is
    alpha = 0 (:func:`_round_step`), started from ``v0`` or from zero.
    With ``v0`` None and n > NESTED_COARSE_N, each step instead starts from
    the step at its alpha of the same continuation at NESTED_COARSE_N
    nodes (:func:`_coarse_start`), solved only when this step is.  The
    coarse continuation shares ``solved``, so no coarse step is solved
    twice, in one continuation or in one EB search.  The continuation stops
    at the first step that does not converge.
    """
    n = grid.n
    steps = []
    for alpha in alphas:
        if (n, alpha) not in solved:
            break
        steps.append(solved[n, alpha])
        if not steps[-1].converged:
            return steps
    coarse = build_grid(NESTED_COARSE_N) if v0 is None and n > NESTED_COARSE_N else None
    symmetric = 2 * config.exponents[0] == config.degrees[0]
    for i in range(len(steps), len(alphas)):
        alpha = alphas[i]
        start = None
        if coarse is not None:
            start = _coarse_start(config, coarse, alphas[: i + 1], newton, solved, n)
        if alpha == 0.0:  # the first step, since every schedule starts at 0
            step = _round_step(config, grid, newton, start[1] if start else v0)
        else:
            last = steps[-1]
            start = start or (last.u, last.v, last.c_est)
            step = _coupled_step(config, grid, alpha, symmetric, newton, start)
        steps.append(step)
        solved[n, alpha] = step
        if not step.converged:
            break
    return steps


def _coarse_start(config, coarse, alphas, newton, solved, n):
    """The start (u, v, c) of the step at ``alphas[-1]`` on n nodes, from the grid ``coarse``.

    The continuation along ``alphas`` on the coarse grid, sharing
    ``solved``, so only its steps not solved before are solved.  Its last
    step is prolonged (:func:`~gravortex.vortex.nested_start`); None when
    the coarse continuation stopped before ``alphas[-1]`` or that step
    stopped with no usable state.
    """
    steps = _continue(config, coarse, alphas, newton, None, solved)
    if len(steps) < len(alphas):
        return None
    step = steps[-1]
    start = nested_start(coarse, n, step.stop_reason, step.u, step.v)
    return None if start is None else (*start, step.c_est)


def _round_step(config, grid, newton, v0) -> ContinuationStep:
    """The alpha = 0 step: the vortex equation on the round metric, with (u, c) = (0, 4).

    The round metric solves the metric equation exactly at alpha = 0, so
    R1 is the equation :func:`~gravortex.vortex.solve_vortex` solves, here
    from ``v0`` or from zero, never from a coarse solve of its own; its
    report gives the step's iterations and stop.  The step's residual is
    the sup of (R1, R2, volume row) at the result, where R2 is exactly 0.
    """
    v0 = np.zeros(grid.n) if v0 is None else v0
    pot, report = solve_vortex(grid, None, config, newton, v0=v0)
    system = _CoupledSystem(grid, config, 0.0, symmetric=False)
    x = np.concatenate([np.zeros(grid.n), pot.v, [CONVENTION_C_COEFF]])
    residual_sup = sup_norm(system.residual(x))
    return _step(0.0, system, x, report.stop_reason, report.iterations, residual_sup)


def _coupled_step(config, grid, alpha, symmetric, newton, start) -> ContinuationStep:
    """A step at alpha > 0: damped Newton on (R1, R2, volume row) from start = (u, v, c)."""
    system = _CoupledSystem(grid, config, alpha, symmetric)
    u0, v0, c0 = start
    x, history, stop_reason, iterations = system.solve(np.concatenate([u0, v0, [c0]]), newton)
    return _step(alpha, system, x, stop_reason, iterations, history[-1])


def _step(alpha, system, x, stop_reason, iterations, residual_sup) -> ContinuationStep:
    """The step that ended at x; it keeps x when it converged or stopped on its floor."""
    keep = stop_reason in USABLE_STOPS
    u, v, c = system.unpack(x)
    return ContinuationStep(
        alpha=alpha,
        converged=stop_reason == "converged",
        iterations=iterations,
        residual_sup=residual_sup,
        c_est=float(c),
        stop_reason=stop_reason,
        u=u.copy() if keep else None,
        v=v.copy() if keep else None,
    )


def _last_state(steps, v0, n) -> GravitatingState:
    """The state of the last converged step, or the start at alpha = 0 when none converged."""
    done = [step for step in steps if step.converged]
    if done:
        u, v, c, alpha = done[-1].u, done[-1].v, done[-1].c_est, done[-1].alpha
    else:
        u, c, alpha = np.zeros(n), CONVENTION_C_COEFF, 0.0
        v = np.zeros(n) if v0 is None else v0
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
    the discrepancy is documented, not asserted away.  Bracket/convergence
    failure returns converged=False with the endpoint c values.  ``state``,
    ``alpha_star`` and ``c_value`` describe one evaluation: the last whose
    continuation converged, or alpha = 0 when none did; ``state.alpha`` is
    ``alpha_star``.
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

