"""Quiver data model, commutators, trace identity, and residual dictionary."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravortex import (
    Arrow,
    BundleMetricPotential,
    ConfigurationError,
    HiggsConfig,
    Quiver,
    QuiverBundleSpec,
    build_grid,
    commutator_values,
    gravitating_residual,
    quiver_vortex_residual,
    trace_identity_check,
    vortex_residual,
)
from gravortex.quiver import gravitating_vortex_spec


@pytest.fixture(scope="module")
def grid():
    return build_grid(129)


def random_quiver(rng, n_vertices=3, n_arrows=4):
    vertices = tuple(f"v{i}" for i in range(n_vertices))
    arrows = tuple(
        Arrow(
            name=f"a{i}",
            tail=vertices[rng.integers(0, n_vertices)],
            head=vertices[rng.integers(0, n_vertices)],
        )
        for i in range(n_arrows)
    )
    return Quiver(vertices=vertices, arrows=arrows)


def random_matrices(rng, quiver, ranks):
    phi = {}
    for a in quiver.arrows:
        phi[a.name] = rng.normal(size=(ranks[a.head], ranks[a.tail])) + 1j * rng.normal(
            size=(ranks[a.head], ranks[a.tail])
        )
    herm = {}
    for v in quiver.vertices:
        m = rng.normal(size=(ranks[v], ranks[v])) + 1j * rng.normal(
            size=(ranks[v], ranks[v])
        )
        herm[v] = m @ m.conj().T + ranks[v] * np.eye(ranks[v])
    return phi, herm


class TestQuiverModel:
    def test_parallel_arrows_allowed(self):
        q = Quiver(
            vertices=("a", "b"),
            arrows=(Arrow("x", "a", "b"), Arrow("y", "a", "b")),
        )
        assert len(q.arrows_into("b")) == 2

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ConfigurationError):
            Quiver(vertices=("a",), arrows=(Arrow("x", "a", "zzz"),))

    def test_nonpositive_sigma_rejected(self):
        q = Quiver(vertices=("a",), arrows=())
        with pytest.raises(ConfigurationError):
            QuiverBundleSpec(
                quiver=q,
                ranks={"a": 1},
                degrees={"a": 0},
                section_exponents={},
                rho=1.0,
                sigma={"a": 0.0},
                tau={"a": 1.0},
            )

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"ranks": {"a": 1.5, "b": 1}}, "rank at vertex 'a' must be an integer, got 1.5"),
            ({"ranks": {"a": 1, "b": True}}, "rank at vertex 'b' must be an integer, got True"),
            ({"degrees": {"a": 0, "b": "2"}}, "degree at vertex 'b' must be an integer, got '2'"),
            ({"degrees": {"a": 0.0, "b": 2}}, "degree at vertex 'a' must be an integer, got 0.0"),
            (
                {"section_exponents": {"x": 1.0}},
                "exponent of arrow 'x' must be an integer, got 1.0",
            ),
            ({"section_exponents": {"x": True}}, "exponent of arrow 'x' must be an integer"),
            ({"sigma": {"a": "1", "b": 1.0}}, "sigma at vertex 'a' must be a number, got '1'"),
            ({"sigma": {"a": 1.0, "b": True}}, "sigma at vertex 'b' must be a number, got True"),
            ({"tau": {"a": 0.0, "b": math.nan}}, "tau at vertex 'b' must be a finite number"),
            ({"tau": {"a": "0", "b": 1.0}}, "tau at vertex 'a' must be a number, got '0'"),
            ({"rho": math.nan}, "rho must be a finite number, got nan"),
            ({"rho": "1"}, "rho must be a number, got '1'"),
            ({"section_scales": {"x": math.inf}}, "scale of arrow 'x' must be a finite number"),
            ({"section_scales": {"x": None}}, "scale of arrow 'x' must be a number, got None"),
        ],
    )
    def test_malformed_values_rejected(self, change, message):
        fields = dict(
            quiver=Quiver(vertices=("a", "b"), arrows=(Arrow("x", "a", "b"),)),
            ranks={"a": 1, "b": 1},
            degrees={"a": 0, "b": 2},
            section_exponents={"x": 1},
            rho=1.0,
            sigma={"a": 1.0, "b": 1.0},
            tau={"a": 0.0, "b": 1.0},
            section_scales={"x": 0.5},
        )
        QuiverBundleSpec(**fields)  # the unchanged fields are valid
        with pytest.raises(ConfigurationError, match=re.escape(message)) as err:
            QuiverBundleSpec(**{**fields, **change})
        (attr, value), = change.items()
        key = None if attr == "rho" else next(k for k in value if repr(k) in message)
        assert err.value.field == (attr, key)  # the CLI maps it to the config path

    def test_numbers_stored_as_floats(self):
        spec = QuiverBundleSpec(
            quiver=Quiver(vertices=("a",), arrows=()),
            ranks={"a": 1},
            degrees={"a": 0},
            section_exponents={},
            rho=1,
            sigma={"a": 2},
            tau={"a": 3},
        )
        assert (spec.rho, spec.sigma, spec.tau) == (1.0, {"a": 2.0}, {"a": 3.0})
        assert type(spec.rho) is float and type(spec.sigma["a"]) is float

    def test_arrow_needs_nonnegative_degree_gap(self):
        q = Quiver(vertices=("a", "b"), arrows=(Arrow("x", "a", "b"),))
        with pytest.raises(ConfigurationError):
            QuiverBundleSpec(
                quiver=q,
                ranks={"a": 1, "b": 1},
                degrees={"a": 3, "b": 1},
                section_exponents={"x": 0},
                rho=1.0,
                sigma={"a": 1.0, "b": 1.0},
                tau={"a": 0.0, "b": 1.0},
            )


class TestCommutator:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_unweighted_trace_cancellation(self, seed):
        rng = np.random.default_rng(seed)
        quiver = random_quiver(rng)
        ranks = {v: int(rng.integers(1, 4)) for v in quiver.vertices}
        phi, herm = random_matrices(rng, quiver, ranks)
        comm = commutator_values(quiver, phi, herm)
        total = sum(np.trace(comm[v]) for v in quiver.vertices)
        assert abs(total) <= 1e-10

    def test_hermitian_wrt_vertex_metric(self):
        rng = np.random.default_rng(5)
        quiver = random_quiver(rng)
        ranks = {v: 2 for v in quiver.vertices}
        phi, herm = random_matrices(rng, quiver, ranks)
        comm = commutator_values(quiver, phi, herm)
        for v in quiver.vertices:
            hm = herm[v] @ comm[v]
            assert np.max(np.abs(hm - hm.conj().T)) <= 1e-10


class TestTraceIdentity:
    def test_synthetic_curvature_satisfies_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            quiver = random_quiver(rng, n_vertices=int(rng.integers(2, 5)))
            ranks = {v: int(rng.integers(1, 4)) for v in quiver.vertices}
            phi, herm = random_matrices(rng, quiver, ranks)
            sigma = {v: float(rng.uniform(0.5, 3.0)) for v in quiver.vertices}
            tau = {v: float(rng.uniform(-2.0, 2.0)) for v in quiver.vertices}
            report = trace_identity_check(quiver, phi, herm, sigma, tau)
            assert report.defect <= 1e-12 * max(1.0, abs(report.lhs), abs(report.rhs))

    def test_zero_sections_reduce_to_curvature_terms(self):
        q = Quiver(vertices=("a", "b"), arrows=())
        herm = {"a": np.eye(1), "b": np.eye(2)}
        sigma = {"a": 1.0, "b": 2.0}
        mu = 1.5
        tau = {v: sigma[v] * mu for v in q.vertices}
        curvatures = {"a": mu * np.eye(1), "b": mu * np.eye(2)}
        report = trace_identity_check(q, {}, herm, sigma, tau, curvatures)
        assert report.defect <= 1e-12

    def test_violating_curvature_reports_defect(self):
        rng = np.random.default_rng(9)
        quiver = random_quiver(rng)
        ranks = {v: 2 for v in quiver.vertices}
        phi, herm = random_matrices(rng, quiver, ranks)
        sigma = {v: 1.0 for v in quiver.vertices}
        tau = {v: 1.0 for v in quiver.vertices}
        bad_curv = {v: np.eye(2) * 17.0 for v in quiver.vertices}
        report = trace_identity_check(quiver, phi, herm, sigma, tau, bad_curv)
        good = trace_identity_check(quiver, phi, herm, sigma, tau)
        assert report.defect > 1.0
        # defect equals the pairing of tau/sigma with the vertex-equation error
        expected = abs(good.rhs - report.rhs)
        assert report.defect == pytest.approx(expected, rel=1e-10)


class TestQuiverResidual:
    def test_a2_head_matches_abelian_vortex(self, grid):
        n_deg, ell, tau, alpha = 2, 1, 5.0, 0.1
        spec = gravitating_vortex_spec(n_deg, ell, tau, alpha)
        cfg = HiggsConfig(degrees=(n_deg,), exponents=(ell,), tau=tau, alpha=alpha)
        rng = np.random.default_rng(6)
        v = 0.2 * np.sin(2 * grid.nodes)
        res = quiver_vortex_residual(
            spec, {"src": np.zeros(grid.n), "dst": v}, None, grid
        )
        abelian = vortex_residual(grid, None, BundleMetricPotential(v), cfg)
        assert np.max(np.abs(res.vertex_residuals["dst"] - abelian)) <= 1e-12

    def test_a2_metric_equation_matches_gravitating(self, grid):
        from gravortex import GravitatingState, normalize_volume

        n_deg, ell, tau, alpha = 2, 1, 5.0, 0.1
        spec = gravitating_vortex_spec(n_deg, ell, tau, alpha)
        cfg = HiggsConfig(degrees=(n_deg,), exponents=(ell,), tau=tau, alpha=alpha)
        metric = normalize_volume(grid, 0.15 * np.cos(grid.nodes))
        v = 0.1 * grid.nodes**2
        res = quiver_vortex_residual(
            spec, {"src": np.zeros(grid.n), "dst": v}, metric, grid
        )
        state = GravitatingState(
            metric=metric, bundle=BundleMetricPotential(v), c_value=0.0, alpha=alpha
        )
        _, r2, c_grav = gravitating_residual(grid, state, cfg)
        assert np.max(np.abs(res.metric_residual - r2)) <= 1e-12
        assert res.c_est == pytest.approx(c_grav + alpha * tau**2, abs=1e-10)

    def test_all_arrows_zero_hermite_einstein(self, grid):
        q = Quiver(vertices=("a", "b"), arrows=(Arrow("x", "a", "b"),))
        spec = QuiverBundleSpec(
            quiver=q,
            ranks={"a": 1, "b": 1},
            degrees={"a": 1, "b": 3},
            section_exponents={"x": None},
            rho=0.7,
            sigma={"a": 2.0, "b": 1.0},
            tau={"a": 1.0, "b": 2.0},
        )
        res = quiver_vortex_residual(
            spec, {"a": np.zeros(grid.n), "b": np.zeros(grid.n)}, None, grid
        )
        assert np.max(np.abs(res.vertex_residuals["a"] - (2.0 * 1.0 - 1.0))) <= 1e-12
        assert np.max(np.abs(res.vertex_residuals["b"] - (1.0 * 3.0 - 2.0))) <= 1e-12

    def test_rho_zero_metric_equation_is_curvature_deviation(self, grid):
        from gravortex import normalize_volume, scalar_curvature
        from gravortex.geometry import integrate, volume

        spec = gravitating_vortex_spec(2, 1, 5.0, 0.0)
        metric = normalize_volume(grid, 0.2 * np.exp(-3 * grid.nodes**2))
        res = quiver_vortex_residual(
            spec, {"src": np.zeros(grid.n), "dst": np.zeros(grid.n)}, metric, grid
        )
        s_field = scalar_curvature(grid, metric).s_field
        mean = integrate(grid, metric, s_field) / volume(grid, metric)
        assert np.max(np.abs(res.metric_residual - (s_field - mean))) <= 1e-12

    def test_rank_above_one_rejected_on_analytic_path(self, grid):
        q = Quiver(vertices=("a",), arrows=())
        spec = QuiverBundleSpec(
            quiver=q,
            ranks={"a": 2},
            degrees={"a": 0},
            section_exponents={},
            rho=1.0,
            sigma={"a": 1.0},
            tau={"a": 0.0},
        )
        with pytest.raises(ConfigurationError):
            quiver_vortex_residual(spec, {"a": np.zeros(grid.n)}, None, grid)
