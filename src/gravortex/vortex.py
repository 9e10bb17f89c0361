"""Abelian vortex residual and Newton solver; rank-2 residual evaluation.

The bundle-metric unknown is the globally smooth relative potential v
against the Fubini--Study background, H = H_FS exp(2v); zeros of the Higgs
field live in the background, so the solver works on smooth data.

Abelian residual (volume-2*pi conventions, positive Laplacian):

    R1 = N exp(-2u) + Delta_omega v + (exp(2v) |phi|^2_FS - tau) / 2.

Chern invariance ``integral (i Lambda F) omega = 2 pi N`` holds for every
(u, v), and the v-linearization Delta_omega + exp(2v)|phi|^2_FS is positive
semi-definite with strict positivity wherever phi does not vanish, which is
the monotone structure that makes the damped Newton iteration reliable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .bundles import HiggsConfig, higgs_profile
from .errors import (
    ConfigurationError,
    InfeasibleError,
    finite_float,
    is_integer,
)
from .geometry import (
    AxisymGrid,
    ConformalMetric,
    build_grid,
    fold_even,
    grid_metric,
    grid_vector,
    integrate,
    unfold_even,
)


@dataclass(frozen=True, eq=False)
class BundleMetricPotential:
    """Smooth relative potential v defining H = H_FS exp(2v)."""

    v: np.ndarray


@dataclass
class NewtonOptions:
    """Stopping controls of :func:`damped_newton`; the defaults are the package's.

    ``tolerance`` is a positive finite real number, kept as a float, and
    ``max_iter`` a positive integer; neither is a boolean.  One
    ConfigurationError names every value that breaks its rule.
    """

    tolerance: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        tol, max_iter = self.tolerance, self.max_iter
        errors = []
        try:
            tol = finite_float(tol, "tolerance")  # no NaN, inf or huge integer
        except ConfigurationError:
            tol = 0.0
        if not tol > 0:
            errors.append(f"tolerance must be a positive number, got {self.tolerance!r}")
        if not (is_integer(max_iter) and max_iter >= 1):
            errors.append(f"max_iter must be a positive integer, got {max_iter!r}")
        if errors:
            raise ConfigurationError("; ".join(errors))
        self.tolerance, self.max_iter = tol, int(max_iter)


NESTED_COARSE_N = 129  # solves on finer grids are seeded by a solve at this resolution

_ROUNDOFF_STEP = 1e-12  # a Newton increment below this, relative to 1 + |x|, is round-off
_FLOOR_FACTOR = 4.0  # a residual within this factor of its floor estimate is on the floor
_FLOOR_PROBES = 3  # one-ulp perturbations per floor estimate
_MAX_HALVINGS = 30  # step halvings per line search before it stalls
USABLE_STOPS = ("converged", "roundoff_floor")  # stops whose last iterate may seed or be kept


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual_sup: float
    resolution: int
    stop_reason: str
    diagnostics: list[float] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["residual_history"] = out.pop("diagnostics")
        return out


def sup_norm(r: np.ndarray) -> float:
    return float(np.max(np.abs(r)))


def roundoff_floor(residual, x: np.ndarray, r: np.ndarray) -> float:
    """Estimate of the smallest residual sup-norm evaluable near x in double precision.

    The sup-norm change of ``residual`` from ``r = residual(x)`` under random
    one-ulp perturbations of every entry of x (fixed seed, so the estimate
    is deterministic).
    """
    rng = np.random.default_rng(0)
    ulp = np.spacing(x)
    return max(
        sup_norm(residual(x + rng.choice((-1.0, 1.0), size=x.shape) * ulp) - r)
        for _ in range(_FLOOR_PROBES)
    )


def damped_newton(x: np.ndarray, evaluate, newton_step, opts: NewtonOptions):
    """The damped Newton iteration of :meth:`NewtonSystem.solve`, for every solver.

    ``evaluate(x)`` is the evaluation (r, terms) at x: the residual vector
    r, whose sup-norm is driven below ``opts.tolerance``, and the terms of
    r that the step reuses.  ``newton_step(x, evaluation)`` is the full
    Newton step at x, handed the evaluation the iteration already made
    there, so no iterate is evaluated twice.

    Each step is halved until the sup-norm decreases; a trial whose
    residual overflows is evaluated without a floating-point warning, and
    its non-finite sup-norm is rejected like any other.  The iteration stops
    for one of five reasons:

    * ``converged``: the sup-norm is below the tolerance;
    * ``roundoff_floor``: the full Newton step is at round-off,
      ``|step| <= 1e-12 (1 + |x|)`` in the sup-norm, and the residual is
      within a factor 4 of :func:`roundoff_floor`, the change a one-ulp
      perturbation of x makes to it.  The residual cannot be evaluated
      much lower, so further steps only crawl along the floor.  Tested
      after every accepted step that does not converge, and when the
      halvings find no decrease; it costs three residual evaluations and
      runs only when the step is at round-off;
    * ``line_search_stall``: 30 halvings (``_MAX_HALVINGS``) find no
      decrease and the iterate is not on the floor;
    * ``max_iter``: ``max_iter`` steps were accepted without converging;
    * ``singular_jacobian``: ``newton_step`` raised ``np.linalg.LinAlgError``,
      the LU factorization of its Jacobian found an exactly zero pivot.

    Returns (x, history, stop_reason, iterations), where history holds the
    sup-norm of every accepted iterate.
    """

    def residual(z):
        return evaluate(z)[0]

    def on_floor(z, step, r_z) -> bool:
        if not sup_norm(step) <= _ROUNDOFF_STEP * (1.0 + sup_norm(z)):
            return False
        return sup_norm(r_z) <= _FLOOR_FACTOR * roundoff_floor(residual, z, r_z)

    evaluation = evaluate(x)
    history = [sup_norm(evaluation[0])]
    iterations = 0
    while not history[-1] < opts.tolerance:  # a NaN residual never converges
        if iterations >= opts.max_iter:
            return x, history, "max_iter", iterations
        try:
            step = newton_step(x, evaluation)
        except np.linalg.LinAlgError:
            return x, history, "singular_jacobian", iterations
        lam = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = x + lam * step
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite trial is halved
                trial_evaluation = evaluate(trial)
            trial_sup = sup_norm(trial_evaluation[0])
            if trial_sup < history[-1]:
                break
            lam *= 0.5
        else:
            reason = "roundoff_floor" if on_floor(x, step, evaluation[0]) else "line_search_stall"
            return x, history, reason, iterations
        x, evaluation = trial, trial_evaluation
        iterations += 1
        history.append(trial_sup)
        if trial_sup >= opts.tolerance and on_floor(x, step, evaluation[0]):
            return x, history, "roundoff_floor", iterations
    return x, history, "converged", iterations


def vortex_equation(curv: np.ndarray, phi_sq: np.ndarray, tau: float) -> np.ndarray:
    """R1 = i Lambda_omega F_H + (|phi|^2_H - tau) / 2, pointwise.

    ``curv`` is the applied curvature term N exp(-2u) + Delta_omega v and
    ``phi_sq`` is |phi|^2_H = exp(2v) |phi|^2_FS.
    """
    return curv + 0.5 * (phi_sq - tau)


def bundle_curvature(
    grid: AxisymGrid, u: np.ndarray, degree: int, v: np.ndarray
) -> np.ndarray:
    """i Lambda_omega F_H for H = H_FS exp(2v) on the degree-N bundle, omega = exp(2u) omega_FS."""
    return np.exp(-2.0 * u) * (degree + grid.apply_lap_fs(v))


def vortex_residual(
    grid: AxisymGrid,
    metric: ConformalMetric | None,
    pot: BundleMetricPotential,
    config: HiggsConfig,
) -> np.ndarray:
    """Residual of the abelian vortex equation at fixed Kaehler metric."""
    config.require_abelian("vortex_residual")
    metric = grid_metric(grid, metric)
    v = grid_vector(grid, pot.v, "bundle potential")
    return _VortexSystem(grid, metric, config, symmetric=False).residual(v)


def vanishing_higgs_reason(config: HiggsConfig) -> str | None:
    """Why a Higgs field with every component zero has no solution; None otherwise.

    With phi = 0, integrating the trace of the first equation gives
    2 pi sum_j N_j = pi tau rank: tau = 2N in rank 1 and tau = N1 + N2
    <= 2 N2 in rank 2, each outside its strict window.
    """
    if any(ell is not None for ell in config.exponents):
        return None
    forced, window = ("2N", "N") if config.is_abelian else ("N1 + N2 <= 2 N2", "N2")
    return (
        "the Higgs field vanishes identically, so integrating the vortex equation "
        f"forces tau = {forced}, outside the window {window} < tau/2"
    )


def check_vortex_window(config: HiggsConfig) -> None:
    """Strict solvability window N < tau/2 and a nonzero Higgs field; else infeasible."""
    vanishing = vanishing_higgs_reason(config)
    if vanishing:
        raise InfeasibleError(vanishing)
    n_deg = config.degrees[0]
    p, q = config.tau_ratio
    if not p > 2 * n_deg * q:
        raise InfeasibleError(
            f"vortex equation requires N < tau/2; got N={n_deg}, tau={config.tau}"
        )


class NewtonSystem:
    """The abelian vortex equations as a residual map of x, its Newton linearization and solve.

    x holds ``blocks`` grid vectors, then scalars, and so does the residual.
    A subclass gives ``evaluate(x) -> (r, terms)``, the residual and the
    terms that the Jacobian reuses, and ``jacobian(x, terms)``, assembled
    from :attr:`lap` and the :meth:`fold` of each diagonal scaling.  The
    residual applies the Laplacian matrix-free; only the Jacobian reads a
    dense one.

    With ``symmetric`` (2l = N, and an exactly even metric where the metric
    is fixed, so the solution is even) each Newton step is taken on the
    even-parity subspace.  The Jacobian is the full one with the rows of
    each mirror pair of nodes averaged and their columns summed, assembled
    at half size from :attr:`AxisymGrid.lap_fs_even` and the mirror
    averages (:func:`~gravortex.geometry.fold_even`) of its diagonal
    scalings; it is exact at an even x.  It is solved against the folded
    residual, and each grid block of the step is copied to both nodes of
    its mirror pairs (:func:`~gravortex.geometry.unfold_even`).  The iterate
    stays on the full grid, and :meth:`solve` starts from the even part of
    its start, so every iterate is exactly even.
    """

    blocks = 1

    def __init__(self, grid: AxisymGrid, config: HiggsConfig, symmetric: bool):
        self.grid, self.symmetric = grid, symmetric
        self.profile = higgs_profile(grid, config, 0)
        self.tau = float(config.tau)
        self.n_deg = config.degrees[0]

    @property
    def lap(self) -> np.ndarray:
        """The dense Laplacian of the Jacobian: half size with ``symmetric``."""
        return self.grid.lap_fs_even if self.symmetric else self.grid.lap_fs

    def fold(self, g: np.ndarray) -> np.ndarray:
        """Mirror average of a grid vector (the identity in full space)."""
        return fold_even(g) if self.symmetric else g

    def fold_columns(self, row: np.ndarray) -> np.ndarray:
        """A Jacobian row of a scalar equation with the columns of each mirror pair summed."""
        if not self.symmetric:
            return row
        out = 2.0 * fold_even(row)
        out[0] *= 0.5  # the middle node is its own mirror
        return out

    def _blockwise(self, f, x: np.ndarray, size: int) -> np.ndarray:
        """x with f applied to each of its ``blocks`` leading blocks of ``size`` entries."""
        k = self.blocks * size
        return np.concatenate([*(f(x[i : i + size]) for i in range(0, k, size)), x[k:]])

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(x)[0]

    def linearization(self, x: np.ndarray, evaluation) -> tuple[np.ndarray, np.ndarray]:
        """Jacobian and negated folded residual at x, from ``evaluation``, :meth:`evaluate` at x."""
        r, terms = evaluation
        return self.jacobian(x, terms), -self._blockwise(self.fold, r, self.grid.n)

    def newton_step(self, x: np.ndarray, evaluation) -> np.ndarray:
        step = np.linalg.solve(*self.linearization(x, evaluation))
        if not self.symmetric:
            return step
        return self._blockwise(unfold_even, step, self.grid.n // 2 + 1)

    def solve(self, x: np.ndarray, opts: NewtonOptions):
        """:func:`damped_newton` from x, or from its even part with ``symmetric``."""
        if self.symmetric:
            x = self._blockwise(lambda g: 0.5 * (g + g[::-1]), x, self.grid.n)
        return damped_newton(x, self.evaluate, self.newton_step, opts)


class _VortexSystem(NewtonSystem):
    """R1 as a map of v at a fixed metric, and its Jacobian Delta_omega + |phi|^2_H."""

    def __init__(self, grid, metric: ConformalMetric, config: HiggsConfig, symmetric: bool):
        super().__init__(grid, config, symmetric)
        self.metric = metric

    def evaluate(self, v: np.ndarray):
        curv = bundle_curvature(self.grid, self.metric.u, self.n_deg, v)
        return vortex_equation(curv, np.exp(2.0 * v) * self.profile, self.tau), None

    def jacobian(self, v: np.ndarray, terms) -> np.ndarray:
        lap = self.lap
        jac = self.fold(np.exp(-2.0 * self.metric.u))[:, None] * lap
        jac.flat[:: lap.shape[0] + 1] += self.fold(np.exp(2.0 * v) * self.profile)
        return jac


def nested_start(
    coarse: AxisymGrid, n: int, stop_reason: str, *fields: np.ndarray
) -> tuple[np.ndarray, ...] | None:
    """The fields of a solve on the grid ``coarse``, prolonged to start a solve on n nodes.

    Each field is prolonged by its Chebyshev coefficients
    (:meth:`AxisymGrid.prolong`).  None when the coarse solve stopped with
    neither ``converged`` nor ``roundoff_floor`` (USABLE_STOPS), since its
    last iterate is then no start.
    """
    if stop_reason not in USABLE_STOPS:
        return None
    return tuple(coarse.prolong(f, n) for f in fields)


def solve_vortex(
    grid: AxisymGrid,
    metric: ConformalMetric | None,
    config: HiggsConfig,
    options: NewtonOptions | None = None,
    v0: np.ndarray | None = None,
) -> tuple[BundleMetricPotential, SolveReport]:
    """Damped Newton iteration for the abelian vortex equation.

    The solution is unique, so the converged result does not depend on the
    initial guess ``v0``, a finite vector on ``grid``
    (:func:`~gravortex.geometry.grid_vector`),
    as the potential of ``metric`` must be (None is the round metric).
    Without ``v0`` the iteration starts from zero, except on the round
    metric at n > NESTED_COARSE_N (129): there it starts from a solve at
    NESTED_COARSE_N nodes that converged or stopped on its round-off floor,
    prolonged by its Chebyshev coefficients (:meth:`AxisymGrid.prolong`),
    which is already accurate to the fine grid's round-off floor, so the
    fine iteration mostly verifies it with no Newton step.  When
    2l = N and the metric potential is exactly even (the round metric
    among them), the solution is even: the iteration runs on the
    even-parity subspace (:class:`NewtonSystem`), from the even part of the
    start, and every Newton step is a linear solve of half the size.  The
    report covers the fine iteration only; the coarse solve's steps are not
    in its ``iterations`` or history.  Every stop that is not ``converged``
    (see :func:`damped_newton`) reports converged=False, a NaN residual
    included; the report is never silently wrong.
    """
    config.require_abelian("solve_vortex")
    check_vortex_window(config)
    opts = options or NewtonOptions()
    metric = grid_metric(grid, metric)
    if v0 is not None:
        v = grid_vector(grid, v0, "initial guess").copy()
    elif grid.n > NESTED_COARSE_N and not np.any(metric.u):
        coarse = build_grid(NESTED_COARSE_N)
        pot, report = solve_vortex(coarse, None, config, opts)
        start = nested_start(coarse, grid.n, report.stop_reason, pot.v)
        v = start[0] if start else np.zeros(grid.n)
    else:
        v = np.zeros(grid.n)
    symmetric = 2 * config.exponents[0] == config.degrees[0] and np.array_equal(
        metric.u, metric.u[::-1]
    )
    system = _VortexSystem(grid, metric, config, symmetric)
    v, history, stop_reason, iterations = system.solve(v, opts)
    report = SolveReport(
        converged=stop_reason == "converged",
        iterations=iterations,
        residual_sup=history[-1],
        resolution=grid.n,
        stop_reason=stop_reason,
        diagnostics=history,
    )
    return BundleMetricPotential(v=v), report


# ---------------------------------------------------------------------------
# rank-2 residual evaluation (no solving; the coupled non-abelian Newton
# problem is out of scope by design)


@dataclass(frozen=True, eq=False)
class NonabelianMetric:
    """Circle-equivariant Hermitian data on O(N1) + O(N2).

    In the background-unitary frame the metric is the bounded matrix

        Hhat = [[exp(2 v1), beta_offdiag-phase], [conj, exp(2 v2)]],

    where the off-diagonal entry carries Fourier weight l1 - l2 and modulus
    (1-s^2)^(|weight|/2) * offdiag_cofactor(s).  The smooth cofactor is the
    stored quantity.  Positivity requires modulus^2 < exp(2 v1 + 2 v2)
    pointwise.
    """

    v1: np.ndarray
    v2: np.ndarray
    offdiag_cofactor: np.ndarray | None = None


@dataclass
class TraceReport:
    """Integrated trace of the rank-2 residual against its closed form.

    integral tr(residual) omega = 2 pi (N1+N2) + (1/2) integral |phi|^2_H
    omega - 2 pi tau.
    """

    lhs: float
    rhs: float
    defect: float
    chern_total: float


@dataclass(eq=False)
class NonabelianResidual:
    """Rank-2 Hermitian residual field in an H-unitary frame.

    ``offdiag`` is the (1,2) entry's profile on the phase section theta = 0;
    the full entry is offdiag * exp(i * offdiag_weight * theta).  The
    off-diagonal part of phi (x) phi* is reported, never hidden: with a
    diagonal metric it is (1/2) phi_1 conj(phi_2) and generically nonzero.
    """

    r11: np.ndarray
    r22: np.ndarray
    offdiag: np.ndarray
    offdiag_weight: int
    trace: TraceReport


class _EqField(NamedTuple):
    """S^1-equivariant profile: value = (1-s^2)^(|weight|/2) cof(s) e^(i w theta)."""

    weight: int
    cof: np.ndarray


class _EqChart:
    """Affine-chart del / delbar calculus on smooth equivariant cofactors.

    Valid for metrics whose off-diagonal entry vanishes at both poles to the
    order |weight|/2 (equal degrees); results lose accuracy only near the
    pole s = +1 of the chart, which the caller discards by stitching with
    the mirrored chart.
    """

    def __init__(self, grid: AxisymGrid):
        self.grid = grid
        s = grid.nodes
        self.s = s
        self.q2 = 1.0 - s * s
        self.one_minus = 1.0 - s

    def mul(self, a: _EqField, b: _EqField) -> _EqField:
        p = (abs(a.weight) + abs(b.weight) - abs(a.weight + b.weight)) // 2
        return _EqField(a.weight + b.weight, a.cof * b.cof * self.q2**p)

    def add(self, a: _EqField, b: _EqField) -> _EqField:
        if a.weight != b.weight:
            raise ValueError("cannot add equivariant fields of different weights")
        return _EqField(a.weight, a.cof + b.cof)

    def dw(self, a: _EqField) -> _EqField:
        k, f = a.weight, a.cof
        df = self.grid.diff(f)
        if k >= 1:
            cof = 0.5 * self.one_minus * (self.q2 * df + k * self.one_minus * f)
        else:
            cof = 0.5 * (self.one_minus * df + k * f)
        return _EqField(k - 1, cof)

    def dwbar(self, a: _EqField) -> _EqField:
        k, f = a.weight, a.cof
        df = self.grid.diff(f)
        if k >= 0:
            cof = 0.5 * (self.one_minus * df - k * f)
        else:
            cof = 0.5 * self.one_minus * (self.q2 * df - k * self.one_minus * f)
        return _EqField(k + 1, cof)

    def fix_top(self, f: np.ndarray) -> np.ndarray:
        """Replace the s=+1 endpoint value by barycentric extrapolation."""
        out = f.copy()
        grid = self.grid
        idx = np.arange(0, grid.n - 1)
        wts = grid.bary[idx] / (grid.nodes[-1] - grid.nodes[idx])
        out[-1] = np.dot(wts, f[idx]) / wts.sum()
        return out


def _chart_curvature(
    grid: AxisymGrid,
    degree: int,
    weight: int,
    u: np.ndarray,
    v1: np.ndarray,
    v2: np.ndarray,
    offdiag_cof: np.ndarray,
):
    """i Lambda_omega F_H entry profiles on O(N) + O(N) in this chart's hat frame.

    Returns cofactor arrays (L11, L22, L12, L21) with the weight pattern
    [[0, weight], [-weight, 0]]; accuracy degrades near s=+1 only.  Both
    summands have degree N, so the background connection W is a multiple of
    the identity and its commutators with Hhat vanish.
    """
    ch = _EqChart(grid)
    k = weight
    h11 = _EqField(0, np.exp(2.0 * v1))
    h22 = _EqField(0, np.exp(2.0 * v2))
    b12 = _EqField(k, offdiag_cof)
    b21 = _EqField(-k, offdiag_cof)
    det = h11.cof * h22.cof - ch.q2 ** abs(k) * offdiag_cof**2
    hi11 = _EqField(0, h22.cof / det)
    hi22 = _EqField(0, h11.cof / det)
    hi12 = _EqField(k, -offdiag_cof / det)
    hi21 = _EqField(-k, -offdiag_cof / det)
    # W = d(log of background frame norm): the identity times cofactor -N/4
    w = _EqField(-1, -(degree / 4.0) * np.ones(grid.n))

    dh11, dh22 = ch.dw(h11), ch.dw(h22)
    db12, db21 = ch.dw(b12), ch.dw(b21)
    x11 = ch.add(ch.mul(hi11, dh11), ch.mul(hi12, db21))
    x12 = ch.add(ch.mul(hi11, db12), ch.mul(hi12, dh22))
    x21 = ch.add(ch.mul(hi21, dh11), ch.mul(hi22, db21))
    x22 = ch.add(ch.mul(hi21, db12), ch.mul(hi22, dh22))
    dw = _EqField(0, 2.0 * ch.dwbar(w).cof)
    f11 = ch.add(ch.dwbar(x11), dw)
    f22 = ch.add(ch.dwbar(x22), dw)
    f12 = ch.dwbar(x12)
    f21 = ch.dwbar(x21)

    g_omega = np.exp(2.0 * u) * (ch.one_minus / 2.0) ** 2  # vanishes at s=+1
    out = []
    for fld in (f11, f22, f12, f21):
        ratio = np.zeros(grid.n)
        ratio[:-1] = -fld.cof[:-1] / g_omega[:-1]
        out.append(ch.fix_top(ratio))
    return out


def _stitched_curvature(grid: AxisymGrid, degree: int, k: int, u, v1, v2, offdiag_cof):
    """Two-chart evaluation on O(N) + O(N); each chart is authoritative off its bad pole."""
    a11, a22, a12, a21 = _chart_curvature(grid, degree, k, u, v1, v2, offdiag_cof)
    mirror = slice(None, None, -1)
    b11, b22, b12, b21 = _chart_curvature(
        grid,
        degree,
        -k,
        u[mirror],
        v1[mirror],
        v2[mirror],
        offdiag_cof[mirror],
    )
    mask = grid.nodes < 0.0
    stitch = lambda a, b: np.where(mask, a, b[mirror])
    return stitch(a11, b11), stitch(a22, b22), stitch(a12, b12), stitch(a21, b21)


def nonabelian_residual(
    grid: AxisymGrid,
    metric: ConformalMetric | None,
    hdata: NonabelianMetric,
    config: HiggsConfig,
) -> NonabelianResidual:
    """Residual of the rank-2 vortex equation, evaluated (not solved).

    i Lambda_omega F_H + (1/2) phi (x) phi^*H - (tau/2) Id, reported in the
    H-unitary frame, plus the integrated trace identity.  For a diagonal
    metric the diagonal entries are the two scalar residuals
    i Lambda F_{H_j} + |phi_j|^2_{H_j}/2 - tau/2 and the off-diagonal entry
    is (1/2) phi_1 conj(phi_2) in unitary-frame norms.
    """
    config.require_rank2("nonabelian_residual")
    n1, n2 = config.degrees
    l1, l2 = config.exponents
    weight = (l1 - l2) if (l1 is not None and l2 is not None) else 0
    tau = float(config.tau)
    metric = grid_metric(grid, metric)
    u = metric.u
    v1 = grid_vector(grid, hdata.v1, "v1")
    v2 = grid_vector(grid, hdata.v2, "v2")
    off = hdata.offdiag_cofactor
    off = None if off is None else grid_vector(grid, off, "offdiag_cofactor")
    has_off = off is not None and bool(np.any(off != 0.0))
    if has_off and n1 != n2:
        raise ConfigurationError(
            "off-diagonal metric profiles are supported only for equal degrees: "
            "the single equivariant profile class assumes the same vanishing "
            "order at both poles"
        )

    q2 = 1.0 - grid.nodes**2
    if has_off:
        off_mod = off * q2 ** (abs(weight) / 2.0)
        if np.any(off_mod**2 >= np.exp(2 * v1 + 2 * v2)):
            raise ConfigurationError("off-diagonal profile violates positivity")
        curv11, curv22, curv12, curv21 = _stitched_curvature(grid, n1, weight, u, v1, v2, off)
    else:
        curv11 = bundle_curvature(grid, u, n1, v1)
        curv22 = bundle_curvature(grid, u, n2, v2)
        curv12 = np.zeros(grid.n)
        curv21 = np.zeros(grid.n)
        off_mod = np.zeros(grid.n)

    # phi in the background-unitary frame: |phihat_j| = FS pointwise norm
    p1 = np.sqrt(higgs_profile(grid, config, 0))
    p2 = np.sqrt(higgs_profile(grid, config, 1))
    # phi (x) phi^*H = phihat phihat^dagger Hhat, evaluated on theta = 0
    hh = np.array([[np.exp(2 * v1), off_mod], [off_mod, np.exp(2 * v2)]])
    pp = np.array([[p1 * p1, p1 * p2], [p2 * p1, p2 * p2]])
    phih = np.einsum("ik...,kj...->ij...", pp, hh)

    m11 = curv11 + 0.5 * phih[0, 0] - 0.5 * tau
    m22 = curv22 + 0.5 * phih[1, 1] - 0.5 * tau
    m12 = curv12 + 0.5 * phih[0, 1]
    m21 = curv21 + 0.5 * phih[1, 0]

    # H-unitary frame: U M U^-1 with the transposed Cholesky factor of Hhat,
    # U = [[sqrt(a), b/sqrt(a)], [0, sqrt(d - b^2/a)]] for Hhat = [[a, b], [b, d]]
    a, b, d = hh[0, 0], hh[0, 1], hh[1, 1]
    t = b / a
    r11 = m11 + t * m21
    r22 = m22 - t * m21
    r12 = np.sqrt(a / (d - b * t)) * (m12 + t * (m22 - m11) - t * t * m21)

    phi_sq = phih[0, 0] + phih[1, 1]
    chern = integrate(grid, metric, curv11 + curv22)
    lhs = integrate(grid, metric, r11 + r22)
    rhs = (
        2.0 * math.pi * (n1 + n2)
        + 0.5 * integrate(grid, metric, phi_sq)
        - 2.0 * math.pi * tau
    )
    trace = TraceReport(lhs=lhs, rhs=rhs, defect=abs(lhs - rhs), chern_total=chern)
    return NonabelianResidual(
        r11=r11, r22=r22, offdiag=r12, offdiag_weight=weight, trace=trace
    )
