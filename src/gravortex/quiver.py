"""Quiver bundle data model, commutators, trace identity, and residuals.

Quivers are stored with explicit head/tail maps so parallel arrows are
first-class.  The analytic residual path is restricted to rank-1 vertex
bundles with monomial arrow sections on the volume-2*pi sphere, which is
the family the coupled-solver examples live in; the algebraic layer
(commutators, the trace identity) works for arbitrary ranks through exact
pointwise linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bundles import monomial_norm_sq
from .errors import ConfigurationError, finite_float, require_integer
from .geometry import (
    AxisymGrid,
    ConformalMetric,
    conformal_laplacian,
    conformal_mean,
    curvature_field,
    grid_metric,
    grid_vector,
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


# how an error names the value QuiverBundleSpec.<attr>[key]; rho has no key
_VALUE_NAMES = {
    "ranks": "rank at vertex {!r}",
    "degrees": "degree at vertex {!r}",
    "section_exponents": "exponent of arrow {!r}",
    "rho": "rho",
    "sigma": "sigma at vertex {!r}",
    "tau": "tau at vertex {!r}",
    "section_scales": "scale of arrow {!r}",
}


def value_name(attr: str, key=None) -> str:
    """The name a QuiverBundleSpec error gives the value ``attr[key]`` (``rho``: key None)."""
    return _VALUE_NAMES[attr].format(key)


def _integer_or_none(value, name: str):
    return None if value is None else require_integer(value, name)


# the check of each value, in the order they are checked
_VALUE_CHECKS = (
    ("ranks", require_integer),
    ("degrees", require_integer),
    ("section_exponents", _integer_or_none),
    ("rho", finite_float),
    ("sigma", finite_float),
    ("tau", finite_float),
    ("section_scales", finite_float),
)


@dataclass(frozen=True)
class QuiverBundleSpec:
    """Per-vertex ranks/degrees, per-arrow monomial data, and parameters.

    ``section_exponents[arrow]`` is the monomial exponent of the arrow
    section of O(d_head - d_tail); None means the zero section; sections
    may carry a constant scale (``section_scales``, default 1).  sigma must
    be positive at every vertex; rho is the metric coupling.  Ranks,
    degrees and exponents are integers and rho, sigma, tau and the scales
    finite numbers, none of them booleans
    (:func:`~gravortex.errors.require_integer`,
    :func:`~gravortex.errors.finite_float`); the numbers are stored as
    floats.  A ConfigurationError names the first value that breaks a rule
    (:func:`value_name`) and records it as ``field`` = (attr, key).
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
        for attr, check in _VALUE_CHECKS:
            value = getattr(self, attr)
            if attr == "rho":
                value = self._check(check, attr, None, value)
            else:
                value = {k: self._check(check, attr, k, x) for k, x in value.items()}
            object.__setattr__(self, attr, value)
        for v in self.quiver.vertices:
            if v not in self.ranks or v not in self.degrees:
                raise ConfigurationError(f"vertex {v!r} missing rank or degree")
            if self.ranks[v] < 1:
                raise ConfigurationError(f"vertex {v!r} must have rank >= 1")
            if v not in self.sigma or v not in self.tau:
                raise ConfigurationError(f"vertex {v!r} missing sigma or tau")
            if not self.sigma[v] > 0:
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

    @staticmethod
    def _check(check, attr: str, key, value):
        """check(value, its name); a ConfigurationError records (attr, key) as its field."""
        try:
            return check(value, value_name(attr, key))
        except ConfigurationError as exc:
            exc.field = (attr, key)
            raise

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
    u = grid_metric(grid, metric).u
    pots = {}
    for v in spec.quiver.vertices:
        if v not in potentials:
            raise ConfigurationError(f"missing potential for vertex {v!r}")
        pots[v] = grid_vector(grid, potentials[v], f"potentials[{v!r}]")

    arrow_norms: dict[str, np.ndarray] = {}
    for a in spec.quiver.arrows:
        fs = arrow_profile(grid, spec, a)
        arrow_norms[a.name] = fs * np.exp(
            2.0 * pots[a.head] - 2.0 * pots[a.tail]
        )

    vertex_res: dict[str, np.ndarray] = {}
    for v in spec.quiver.vertices:
        curv = bundle_curvature(grid, u, spec.degrees[v], pots[v])
        comm = np.zeros(grid.n)
        for a in spec.quiver.arrows_into(v):
            comm += arrow_norms[a.name]
        for a in spec.quiver.arrows_out_of(v):
            comm -= arrow_norms[a.name]
        vertex_res[v] = spec.sigma[v] * curv + comm - spec.tau[v]

    metric_full = curvature_field(grid, u)
    for a in spec.quiver.arrows:
        gap = (
            spec.tau[a.head] / spec.sigma[a.head]
            - spec.tau[a.tail] / spec.sigma[a.tail]
        )
        metric_full += 2.0 * spec.rho * (
            conformal_laplacian(grid, u, arrow_norms[a.name])
            + 2.0 * gap * arrow_norms[a.name]
        )
    c_est = conformal_mean(grid, u, metric_full)
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
