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
matrix-free and checks nothing, as the grid fields of a public function
are checked at its entry; only the Newton Jacobian reads the dense Laplacian.

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
takes that step with ``vortex_newton`` (the solve of ``solve_vortex``), and
the coupled Newton iteration runs only at alpha > 0.  A full-space
(2l != N) solve therefore never meets the dilation direction at alpha = 0.

At the zero-constant coupling alpha tau N = 2 the system reduces to
Delta_FS Psi = 0 with Psi = 2u - 2 alpha tau v + alpha |phi|^2_H, so Psi is
constant on every Einstein--Bogomol'nyi state, which is solved with Psi
constant by construction (:func:`einstein_bogomolnyi_solve`).  The
collocated Laplacian has the kernel of Delta_FS, the constants alone, so
the Jacobians stay regular and every Newton step is one LU solve; a
singular one is the stop ``singular_jacobian`` (``damped_newton``).

Asymmetric two-zero monomials (2l != N) have no solution at alpha > 0:
their Futaki character 2 pi alpha (2N - tau)(2l - N) is nonzero, so the
solver refuses them like single-zero fields unless the obstruction is
overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .bundles import HiggsConfig, higgs_profile
from .errors import ConfigurationError, ObstructionError, finite_float
from .geometry import (
    AxisymGrid,
    ConformalMetric,
    ROUND_VOLUME,
    build_grid,
    chebyshev_prolong,
    conformal_integral,
    conformal_mean,
    curvature_field,
    grid_metric,
    grid_vector,
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
    nested_start,
    sup_norm,
    vortex_equation,
    vortex_newton,
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
    return conformal_integral(grid, u, 1.0) - ROUND_VOLUME


def gravitating_residual(
    grid: AxisymGrid, state: GravitatingState, config: HiggsConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """(R1, R2, c_est) at the given state; R2 has zero omega-mean by construction.

    R1 and R2 are the residuals the coupled Newton iteration drives down,
    evaluated with c = 0; c_est is the omega-mean of that R2.
    """
    config.require_abelian("gravitating_residual")
    u = grid_metric(grid, state.metric).u
    v = grid_vector(grid, state.bundle.v, "bundle potential")
    return projected_residual(grid, config, float(state.alpha), u, v)


def projected_residual(grid, config, alpha, u, v) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`gravitating_residual` at the unchecked fields (u, v) and the coupling alpha."""
    system = _CoupledSystem(grid, config, alpha, symmetric=False)
    (r1, full, _), _ = system.equations(np.concatenate([u, v, [0.0]]))
    c_est = conformal_mean(grid, u, full)
    return r1, full - c_est, c_est


def c_from_integral_identity(
    grid: AxisymGrid, state: GravitatingState, config: HiggsConfig
) -> float:
    """Constant forced by integrating the curvature equation against omega.

    c * Vol = integral S omega + alpha tau (integral |phi|^2_H omega
    - tau Vol); it agrees with the mean projection up to the quadrature
    defect of the exact-divergence term.
    """
    u = grid_metric(grid, state.metric).u
    v = grid_vector(grid, state.bundle.v, "bundle potential")
    tau = float(config.tau)
    phi_sq = np.exp(2.0 * v) * higgs_profile(grid, config, 0)
    vol = conformal_integral(grid, u, 1.0)
    s_total = conformal_integral(grid, u, curvature_field(grid, u))
    total = s_total + float(state.alpha) * tau * (conformal_integral(grid, u, phi_sq) - tau * vol)
    return total / vol if vol else math.nan


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
        s_field = curvature_field(grid, u)
        curv = bundle_curvature(grid, u, self.n_deg, v)
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
        jac[2 * m, :m] = self.fold_columns(2.0 * np.pi * self.grid.weights * np.exp(2.0 * u))
        return jac


def solve_gravitating(
    config: HiggsConfig,
    schedule: ContinuationSchedule,
    grid: AxisymGrid,
    override_obstruction: bool = False,
    v0: np.ndarray | None = None,
    newton: NewtonOptions | None = None,
) -> tuple[GravitatingState, ContinuationReport]:
    """Natural continuation in the coupling, seeding each step from the last ones.

    Refuses configurations with a coupled obstruction at the largest
    scheduled coupling (a single-zero Higgs field, or a nonzero Futaki
    character) unless explicitly overridden; the override exists because
    numerical divergence is not a theorem and must not be asserted as one.
    Every schedule starts at alpha = 0, where the equations decouple: the
    round metric (u = 0, c = 4) solves the metric equation exactly, and
    the step is the vortex solve on it (:func:`~gravortex.vortex.vortex_newton`)
    from zero or from ``v0``, a finite vector on ``grid``, checked here once,
    after the obstruction gate (:func:`~gravortex.geometry.grid_vector`).
    Every later step is a coupled Newton solve started from the Lagrange
    extrapolation in alpha of the last (up to three) states, except at
    n > NESTED_COARSE_N (129) without ``v0``: there each step starts from
    the step at its alpha of the same continuation at NESTED_COARSE_N
    nodes, prolonged by Chebyshev coefficients, which mostly converges with
    no Newton step (:func:`_continue`).  The report covers the fine steps only.
    The continuation stops at the first step that does not converge (its
    ``stop_reason`` says why) and returns the last converged state with
    converged=False, or, when no step converged, the start at alpha = 0:
    u = 0, ``v0`` or 0, and c = 4.  Every step runs with ``newton``, by
    default ``NewtonOptions()``.
    """
    config.require_abelian("solve_gravitating")
    check_vortex_window(config)
    _refuse_obstructed(config, schedule.alphas[-1], override_obstruction)
    v0 = None if v0 is None else grid_vector(grid, v0, "initial guess")
    steps = list(_continue(config, grid, schedule.alphas, newton or NewtonOptions(), v0))
    report = ContinuationReport(converged=steps[-1].converged, steps=steps, resolution=grid.n)
    return _last_state(steps, v0, grid.n), report


def _continue(config, grid, alphas, newton, v0):
    """The steps of solve_gravitating's continuation, yielded up to the first that does not converge.

    The alpha = 0 step (:func:`_round_step`) starts from ``v0`` or zero,
    each later one from :func:`_extrapolated_start`, unless ``v0`` is None
    and n > NESTED_COARSE_N: then each starts from the step at its alpha of
    the continuation at NESTED_COARSE_N nodes, prolonged when usable
    (:func:`~gravortex.vortex.nested_start`), which runs in step with this
    one, so a coarse step is solved once, and only when its fine step is.
    """
    low_steps = iter(())
    if v0 is None and grid.n > NESTED_COARSE_N:
        low_steps = _continue(config, build_grid(NESTED_COARSE_N), alphas, newton, None)
    symmetric = 2 * config.exponents[0] == config.degrees[0]
    steps = []
    for alpha in alphas:
        low = next(low_steps, None)
        start = None if low is None else nested_start(grid.n, low.stop_reason, low.u, low.v)
        if alpha == 0.0:  # the first step, since every schedule starts at 0
            step = _round_step(config, grid, newton, start[1] if start else v0)
        else:
            x = np.concatenate([*start, [low.c_est]]) if start else _extrapolated_start(steps, alpha)
            system = _CoupledSystem(grid, config, alpha, symmetric)
            step = _step(system, *system.solve(x, newton))
        steps.append(step)
        yield step
        if not step.converged:
            return


def _extrapolated_start(steps, alpha) -> np.ndarray:
    """(u, v, c) at alpha, extrapolated from the last steps: constant, linear, then quadratic."""
    last = steps[-3:]
    start = 0.0
    for step in last:
        weight = math.prod((alpha - o.alpha) / (step.alpha - o.alpha) for o in last if o is not step)
        start = start + weight * np.concatenate([step.u, step.v, [step.c_est]])
    return start


def _round_step(config, grid, newton, v0) -> ContinuationStep:
    """The alpha = 0 step: the vortex equation on the round metric, with (u, c) = (0, 4).

    The round metric solves the metric equation exactly at alpha = 0, so
    R1 is the vortex equation, solved by :func:`~gravortex.vortex.vortex_newton`
    from ``v0`` or from zero, never from a coarse solve of its own; its
    report gives the step's iterations and stop.  The step's residual is
    the sup of (R1, R2, volume row) at the result, where R2 is exactly 0.
    """
    u = np.zeros(grid.n)
    v, report = vortex_newton(grid, u, config, newton, np.zeros(grid.n) if v0 is None else v0)
    system = _CoupledSystem(grid, config, 0.0, symmetric=False)
    x = np.concatenate([u, v, [CONVENTION_C_COEFF]])
    return _step(system, x, replace(report, residual_sup=sup_norm(system.residual(x))))


def _step(system, x, report: SolveReport) -> ContinuationStep:
    """The step that ended at x; it keeps x when it converged or stopped on its floor."""
    keep = report.stop_reason in USABLE_STOPS
    u, v, c = system.unpack(x)
    return ContinuationStep(
        alpha=system.alpha,
        converged=report.converged,
        iterations=report.iterations,
        residual_sup=report.residual_sup,
        c_est=float(c),
        stop_reason=report.stop_reason,
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
        bundle=BundleMetricPotential(v=np.array(v, dtype=float)),
        c_value=c,
        alpha=alpha,
    )


def _refuse_obstructed(config: HiggsConfig, alpha: float, override: bool) -> None:
    reasons = abelian_coupled_obstructions(config, alpha)
    if reasons and not override:
        raise ObstructionError(
            "refusing to run the coupled solver: " + "; ".join(reasons), reasons=reasons
        )


@dataclass
class EinsteinBogomolnyiResult:
    state: GravitatingState
    alpha_star: float
    c_value: float | None  # omega-mean of R2 at the state; None: the solve did not converge
    alpha_tau_N: float
    predictions: dict
    converged: bool
    stop_reason: str  # see vortex.damped_newton
    secant_history: list[tuple[float, float | None]]  # [(alpha_star, c_value)]

    def to_json_dict(self) -> dict:
        """Every field but the state (JSON writes the tuples as lists)."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "state"}


class _EinsteinBogomolnyiSystem(NewtonSystem):
    """The coupled equations at alpha* with Psi = k constant, as a map of x = (v, k).

    At alpha* tau N = 2 and c = 0, R2 - 2 alpha tau R1 = exp(-2u) Delta_FS Psi
    (module docstring), so u = alpha tau v - (alpha / 2) |phi|^2_H + k / 2
    leaves exp(2u) R1 = N + Delta_FS v + (exp(2u) / 2)(|phi|^2_H - tau) and
    the volume row, which the Newton step solves for (v, k): n/2 + 2
    unknowns on the even subspace.  The line search and the stop read the
    full (R1, R2, volume row) of :class:`_CoupledSystem` at (u, v, 0): the
    reduced residual reads below it.
    """

    def __init__(self, grid: AxisymGrid, config: HiggsConfig, alpha: float, symmetric: bool):
        super().__init__(grid, config, symmetric)
        self.alpha = alpha
        self.coupled = _CoupledSystem(grid, config, alpha, symmetric)

    def coupled_x(self, x: np.ndarray) -> np.ndarray:
        """The coupled unknowns (u, v, c = 0) of x = (v, k)."""
        v, k = x[:-1], x[-1]
        u = self.alpha * (self.tau * v - 0.5 * np.exp(2.0 * v) * self.profile) + 0.5 * k
        return np.concatenate([u, v, [0.0]])

    def start(self, v: np.ndarray) -> np.ndarray:
        """x = (v, k), with k chosen so that its u has volume 2 pi."""
        u = self.coupled_x(np.append(v, 0.0))[: self.grid.n]
        return np.append(v, math.log(ROUND_VOLUME / conformal_integral(self.grid, u, 1.0)))

    def evaluate(self, x: np.ndarray):
        return self.coupled.evaluate(self.coupled_x(x))

    def linearization(self, x: np.ndarray, evaluation) -> tuple[np.ndarray, np.ndarray]:
        """Jacobian and negated folded (exp(2u) R1, volume row) at x."""
        r, terms = evaluation
        reduced = np.append(r[: self.grid.n] / terms[1], r[-1])
        return self.jacobian(x, terms), -self._blockwise(self.fold, reduced, self.grid.n)

    def jacobian(self, x: np.ndarray, terms) -> np.ndarray:
        u, _, phih = terms[:3]
        m = self.lap.shape[0]
        e2u = np.exp(2.0 * u)
        gap = e2u * (phih - self.tau)
        du = self.alpha * (self.tau - phih)  # du/dv; du/dk = 1/2
        vol = 2.0 * np.pi * self.grid.weights * e2u
        jac = np.zeros((m + 1, m + 1))
        jac[:m, :m] = self.lap
        jac[:m, :m].flat[:: m + 1] += self.fold(e2u * phih + gap * du)
        jac[:m, m] = self.fold(0.5 * gap)
        jac[m, :m] = self.fold_columns(vol * du)
        jac[m, m] = 0.5 * vol.sum()
        return jac

    def solve(self, x: np.ndarray, opts: NewtonOptions):
        """:meth:`NewtonSystem.solve`; once converged, one more step, kept if still converged.

        The full residual cannot tell the last 2e-12 of a converged state
        (``(4,),(2,),tau=9`` at n = 129), and the step removes them.
        """
        x, report = super().solve(x, opts)
        if report.converged:
            trial = x + self.newton_step(x, self.evaluate(x))
            trial_sup = sup_norm(self.residual(trial))
            if trial_sup < opts.tolerance:
                x, report.iterations, report.residual_sup = trial, report.iterations + 1, trial_sup
                report.diagnostics.append(trial_sup)
        return x, report


def einstein_bogomolnyi_solve(
    config: HiggsConfig,
    grid: AxisymGrid,
    newton: NewtonOptions | None = None,
    override_obstruction: bool = False,
) -> EinsteinBogomolnyiResult:
    """The Einstein--Bogomol'nyi state: the coupled solution with c = 0.

    c = 4 - 2 alpha tau N is topological under the package conventions, so
    alpha* = CONVENTION_C_COEFF / (2 tau N) and ``alpha_tau_N`` is 2 to
    rounding by construction; the report carries it next to the quoted
    prediction 1 and the conventions-derived 2, without reconciling them.
    The state is one damped Newton solve of the reduced system
    (:class:`_EinsteinBogomolnyiSystem`; in full space when an override
    lets a 2l != N run through), started from the alpha = 0 vortex state,
    with ``newton`` (default ``NewtonOptions()``).  Above NESTED_COARSE_N
    (129) nodes it runs at NESTED_COARSE_N, and one coupled step at alpha*
    from the prolonged (u, v, c = 0) verifies or corrects a usable state
    (:func:`~gravortex.vortex.nested_start`).  ``stop_reason`` is the last
    solve's; ``c_value`` is the omega-mean of R2 at the state
    (:func:`gravitating_residual`), None unless it converged, and
    ``secant_history`` holds the one entry (alpha*, c_value).
    """
    config.require_abelian("einstein_bogomolnyi_solve")
    check_vortex_window(config)
    tau_n = float(config.tau) * sum(config.degrees)
    alpha = CONVENTION_C_COEFF / (2.0 * tau_n)
    _refuse_obstructed(config, alpha, override_obstruction)
    opts = newton or NewtonOptions()
    symmetric = 2 * config.exponents[0] == config.degrees[0]
    coarse = grid if grid.n <= NESTED_COARSE_N else build_grid(NESTED_COARSE_N)
    v, _ = vortex_newton(coarse, np.zeros(coarse.n), config, opts, np.zeros(coarse.n))
    system = _EinsteinBogomolnyiSystem(coarse, config, alpha, symmetric)
    x, report = system.solve(system.start(v), opts)
    u, v, _ = system.coupled.unpack(system.coupled_x(x))
    if coarse is not grid:
        start = nested_start(grid.n, report.stop_reason, u, v)
        u, v = start or (chebyshev_prolong(u, grid.n), chebyshev_prolong(v, grid.n))
        if start:
            fine = _CoupledSystem(grid, config, alpha, symmetric)
            x, report = fine.solve(np.concatenate([u, v, [0.0]]), opts)
            if report.stop_reason in USABLE_STOPS:
                u, v, _ = fine.unpack(x)
    c_est = projected_residual(grid, config, alpha, u, v)[2]
    state = GravitatingState(ConformalMetric(u=u), BundleMetricPotential(v=v), c_est, alpha)
    c_value = c_est if report.converged else None
    return EinsteinBogomolnyiResult(
        state=state,
        alpha_star=alpha,
        c_value=c_value,
        alpha_tau_N=alpha * tau_n,
        predictions=c_predictions(config, alpha),
        converged=report.converged,
        stop_reason=report.stop_reason,
        secant_history=[(alpha, c_value)],
    )
