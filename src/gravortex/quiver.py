"""Quiver bundle data model, commutators, trace identity, and residuals.

Quivers are stored with explicit head/tail maps so parallel arrows are
first-class.  The analytic residual path is restricted to rank-1 vertex
bundles with monomial arrow sections on the volume-2*pi sphere, which is
the family the coupled-solver examples live in, and so is the parameter
derivation; the algebraic layer (commutators, the trace identity) works
for arbitrary ranks through exact pointwise linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bundles import monomial_norm_sq
from .errors import ConfigurationError
from .geometry import (
    AxisymGrid,
    ConformalMetric,
    ROUND_VOLUME,
    integrate,
    laplacian,
    scalar_curvature,
    volume,
)
from .vortex import bundle_curvature


@dataclass(frozen=True)
class Arrow:
    name: str
    tail: str
    head: str


@dataclass(frozen=True)
class Quiver:
    """Finite quiver: vertex set plus arrows with total head/tail maps."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ConfigurationError("vertex names must be distinct")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ConfigurationError("arrow names must be distinct")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.tail not in vset or a.head not in vset:
                raise ConfigurationError(
                    f"arrow {a.name!r} references unknown vertex "
                    f"({a.tail!r} -> {a.head!r})"
                )

    def arrows_into(self, vertex: str) -> list[Arrow]:
        return [a for a in self.arrows if a.head == vertex]

    def arrows_out_of(self, vertex: str) -> list[Arrow]:
        return [a for a in self.arrows if a.tail == vertex]


@dataclass(frozen=True)
class QuiverBundleSpec:
    """Per-vertex ranks/degrees, per-arrow monomial data, and parameters.

    ``section_exponents[arrow]`` is the monomial exponent of the arrow
    section of O(d_head - d_tail); None means the zero section; sections
    may carry a constant scale (``section_scales``, default 1).  sigma must
    be positive at every vertex; rho is the metric coupling.
    """

    quiver: Quiver
    ranks: dict[str, int]
    degrees: dict[str, int]
    section_exponents: dict[str, int | None]
    rho: float
    sigma: dict[str, float]
    tau: dict[str, float]
    section_scales: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for v in self.quiver.vertices:
            if v not in self.ranks or v not in self.degrees:
                raise ConfigurationError(f"vertex {v!r} missing rank or degree")
            if self.ranks[v] < 1:
                raise ConfigurationError(f"vertex {v!r} must have rank >= 1")
            if v not in self.sigma or v not in self.tau:
                raise ConfigurationError(f"vertex {v!r} missing sigma or tau")
            if not (self.sigma[v] > 0):
                raise ConfigurationError(f"sigma must be positive at vertex {v!r}")
        for a in self.quiver.arrows:
            ell = self.section_exponents.get(a.name)
            if ell is None:
                continue
            gap = self.degrees[a.head] - self.degrees[a.tail]
            if gap < 0:
                raise ConfigurationError(
                    f"arrow {a.name!r} needs d_head >= d_tail for a nonzero section"
                )
            if not (0 <= ell <= gap):
                raise ConfigurationError(
                    f"arrow {a.name!r} exponent must satisfy 0 <= l <= {gap}"
                )

    def arrow_degree(self, arrow: Arrow) -> int:
        return self.degrees[arrow.head] - self.degrees[arrow.tail]

    def require_rank_one(self, op: str) -> None:
        for v in self.quiver.vertices:
            if self.ranks[v] != 1:
                raise ConfigurationError(
                    f"{op} requires rank-1 vertex bundles, got rank {self.ranks[v]} "
                    f"at vertex {v!r}"
                )


def arrow_profile(grid: AxisymGrid, spec: QuiverBundleSpec, arrow: Arrow) -> np.ndarray:
    """Squared FS norm of the monomial arrow section on the grid."""
    ell = spec.section_exponents.get(arrow.name)
    if ell is None:
        return np.zeros(grid.n)
    scale = spec.section_scales.get(arrow.name, 1.0)
    return monomial_norm_sq(grid.nodes, spec.arrow_degree(arrow), ell, scale)


# ---------------------------------------------------------------------------
# algebraic layer: commutators and the trace identity at sample points


def hermitian_adjoint(phi: np.ndarray, h_tail: np.ndarray, h_head: np.ndarray) -> np.ndarray:
    """Adjoint of phi: E_tail -> E_head with respect to (H_tail, H_head)."""
    return np.linalg.solve(h_tail, phi.conj().T @ h_head)


def commutator_values(
    quiver: Quiver,
    phi: dict[str, np.ndarray],
    hermitians: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Per-vertex commutator sum_head phi phi* - sum_tail phi* phi.

    ``phi[arrow]`` maps C^{r_tail} -> C^{r_head}; each output matrix is
    self-adjoint with respect to the vertex Hermitian form, and the
    unweighted trace sum over vertices cancels arrow by arrow.
    """
    out = {v: None for v in quiver.vertices}
    for v in quiver.vertices:
        r = hermitians[v].shape[0]
        acc = np.zeros((r, r), dtype=complex)
        for a in quiver.arrows_into(v):
            m = np.asarray(phi[a.name], dtype=complex)
            adj = hermitian_adjoint(m, hermitians[a.tail], hermitians[a.head])
            acc += m @ adj
        for a in quiver.arrows_out_of(v):
            m = np.asarray(phi[a.name], dtype=complex)
            adj = hermitian_adjoint(m, hermitians[a.tail], hermitians[a.head])
            acc -= adj @ m
        out[v] = acc
    return out


def commutator(
    spec: QuiverBundleSpec, potentials: dict[str, float], point_s: float
) -> dict[str, complex]:
    """Rank-1 commutator at a sphere point from scalar vertex potentials.

    ``potentials[v]`` is the bundle potential value v_j(s); arrow norms pick
    up the weight exp(2 v_head - 2 v_tail) on top of the FS profile.
    """
    spec.require_rank_one("the scalar commutator")
    s = float(point_s)
    out = {v: 0.0 for v in spec.quiver.vertices}
    for a in spec.quiver.arrows:
        ell = spec.section_exponents.get(a.name)
        if ell is None:
            continue
        scale = spec.section_scales.get(a.name, 1.0)
        fs = monomial_norm_sq(s, spec.arrow_degree(a), ell, scale)
        weight = math.exp(2.0 * potentials[a.head] - 2.0 * potentials[a.tail])
        val = fs * weight
        out[a.head] += val
        out[a.tail] -= val
    return out


@dataclass
class TraceIdentityReport:
    lhs: float
    rhs: float
    defect: float


def trace_identity_check(
    quiver: Quiver,
    phi: dict[str, np.ndarray],
    hermitians: dict[str, np.ndarray],
    sigma: dict[str, float],
    tau: dict[str, float],
    curvatures: dict[str, np.ndarray] | None = None,
) -> TraceIdentityReport:
    """Check the identity tying arrow norms to vertex curvature traces.

    sum_arrows (tau_h/sigma_h - tau_t/sigma_t) |phi_a|^2
      = sum_vertices (tau^2 r / sigma - tau Tr(i Lambda F)).

    When ``curvatures`` is None the vertex equation is imposed
    synthetically, i Lambda F_i := (tau_i Id - [phi,phi*]_i)/sigma_i, and
    the identity holds to round-off; otherwise the actual defect of the
    supplied curvatures is reported.
    """
    comm = commutator_values(quiver, phi, hermitians)
    if curvatures is None:
        curvatures = {
            v: (tau[v] * np.eye(comm[v].shape[0]) - comm[v]) / sigma[v]
            for v in quiver.vertices
        }
    lhs_terms = []
    for a in quiver.arrows:
        m = np.asarray(phi[a.name], dtype=complex)
        adj = hermitian_adjoint(m, hermitians[a.tail], hermitians[a.head])
        norm_sq = float(np.trace(m @ adj).real)
        lhs_terms.append(
            (tau[a.head] / sigma[a.head] - tau[a.tail] / sigma[a.tail]) * norm_sq
        )
    rhs_terms = []
    for v in quiver.vertices:
        r = comm[v].shape[0]
        rhs_terms.append(
            tau[v] ** 2 * r / sigma[v]
            - tau[v] * float(np.trace(curvatures[v]).real)
        )
    lhs = math.fsum(lhs_terms)
    rhs = math.fsum(rhs_terms)
    return TraceIdentityReport(lhs=lhs, rhs=rhs, defect=abs(lhs - rhs))


# ---------------------------------------------------------------------------
# dimensional-reduction parameter bookkeeping


@dataclass(frozen=True)
class ReductionParams:
    """Inputs of the parameter dictionary: multiplicities and slopes.

    ``dims[v]`` is the multiplicity dim M_v (must be positive);
    ``mu_eps[v]`` the user-supplied fiberwise slope; ``mu_total`` the
    global slope of the equivariant bundle upstairs.
    """

    dims: dict[str, int]
    mu_eps: dict[str, float]
    mu_total: float

    def __post_init__(self):
        for v, d in self.dims.items():
            if d < 1:
                raise ConfigurationError(f"dim M must be positive at vertex {v!r}")


_RICCI_TOTAL = 4.0 * math.pi  # integral of the Ricci form of the sphere, 2 pi chi


def reduction_parameters(
    params: ReductionParams,
    rho: float,
    slopes: dict[str, float] | None = None,
) -> tuple[dict[str, float], dict[str, float], float]:
    """Derived (sigma, tau) vectors and the topological constant on the sphere.

    sigma_v = dim M_v and tau_v = sigma_v (mu_total - mu_eps_v).  The
    constant follows from integrating the curvature equation over the
    volume-2*pi sphere (vol = ROUND_VOLUME) with rank-1 vertex bundles:

        c vol = 2 * 4 pi + 4 rho vol sum (tau_v/sigma_v - slope_v) tau_v,

    where 4 pi is the integral of the Ricci form; the integrals of Tr F^2
    vanish identically on a curve.  ``slopes`` defaults to 0 at every vertex.
    """
    sigma = {v: float(d) for v, d in params.dims.items()}
    tau = {
        v: sigma[v] * (params.mu_total - params.mu_eps[v]) for v in params.dims
    }
    slopes = slopes or {v: 0.0 for v in params.dims}
    total = 2.0 * _RICCI_TOTAL
    for v in params.dims:
        total += 4.0 * rho * ROUND_VOLUME * (tau[v] / sigma[v] - slopes[v]) * tau[v]
    return sigma, tau, total / ROUND_VOLUME


# ---------------------------------------------------------------------------
# analytic residual evaluation (rank-1 vertices, monomial sections)


@dataclass
class QuiverResidual:
    vertex_residuals: dict[str, np.ndarray]
    metric_residual: np.ndarray
    c_est: float


def quiver_vortex_residual(
    spec: QuiverBundleSpec,
    potentials: dict[str, np.ndarray],
    metric: ConformalMetric | None,
    grid: AxisymGrid,
) -> QuiverResidual:
    """Residuals of the coupled quiver system on the volume-2*pi sphere.

    Per-vertex: sigma_i i Lambda F_{H_i} + [phi,phi*]_i - tau_i.  Metric
    equation: S_omega + 2 rho sum_a (Delta_omega
    + 2(tau_h/sigma_h - tau_t/sigma_t)) |phi_a|^2 - c with c by mean
    projection; the curvature-square term vanishes identically on a curve.
    """
    spec.require_rank_one("analytic residual evaluation")
    for v in spec.quiver.vertices:
        if v not in potentials:
            raise ConfigurationError(f"missing potential for vertex {v!r}")
    if metric is None:
        metric = ConformalMetric(u=np.zeros(grid.n))

    arrow_norms: dict[str, np.ndarray] = {}
    for a in spec.quiver.arrows:
        fs = arrow_profile(grid, spec, a)
        arrow_norms[a.name] = fs * np.exp(
            2.0 * potentials[a.head] - 2.0 * potentials[a.tail]
        )

    vertex_res: dict[str, np.ndarray] = {}
    for v in spec.quiver.vertices:
        curv = bundle_curvature(grid, metric, spec.degrees[v], potentials[v])
        comm = np.zeros(grid.n)
        for a in spec.quiver.arrows_into(v):
            comm += arrow_norms[a.name]
        for a in spec.quiver.arrows_out_of(v):
            comm -= arrow_norms[a.name]
        vertex_res[v] = spec.sigma[v] * curv + comm - spec.tau[v]

    s_field = scalar_curvature(grid, metric).s_field
    metric_full = s_field.copy()
    for a in spec.quiver.arrows:
        gap = (
            spec.tau[a.head] / spec.sigma[a.head]
            - spec.tau[a.tail] / spec.sigma[a.tail]
        )
        metric_full += 2.0 * spec.rho * (
            laplacian(grid, metric, arrow_norms[a.name])
            + 2.0 * gap * arrow_norms[a.name]
        )
    c_est = integrate(grid, metric, metric_full) / volume(grid, metric)
    return QuiverResidual(
        vertex_residuals=vertex_res,
        metric_residual=metric_full - c_est,
        c_est=c_est,
    )


def gravitating_vortex_spec(n_deg: int, ell: int, tau: float, alpha: float) -> QuiverBundleSpec:
    """Two-vertex dictionary for the abelian gravitating vortex system.

    One arrow from a frozen trivial vertex into O(N); the section is the
    Higgs monomial scaled by 1/sqrt(2) and the parameters are sigma = (1,1),
    tau = (0, tau/2), rho = alpha.  Under this dictionary the head-vertex
    residual equals the abelian vortex residual pointwise, the
    mean-projected metric residuals coincide, and the constants differ by
    alpha tau^2.
    """
    quiver = Quiver(vertices=("src", "dst"), arrows=(Arrow("phi", "src", "dst"),))
    return QuiverBundleSpec(
        quiver=quiver,
        ranks={"src": 1, "dst": 1},
        degrees={"src": 0, "dst": n_deg},
        section_exponents={"phi": ell},
        rho=alpha,
        sigma={"src": 1.0, "dst": 1.0},
        tau={"src": 0.0, "dst": tau / 2.0},
        section_scales={"phi": 2.0**-0.5},
    )
