"""Futaki character (closed form + quadrature), balancing, windows, stability."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravortex import (
    BundleMetricPotential,
    ConfigurationError,
    GravitatingState,
    HiggsConfig,
    NonabelianMetric,
    PoleError,
    balancing_condition,
    build_grid,
    futaki_closed_form,
    futaki_exact,
    futaki_quadrature,
    gravitating_residual,
    laplacian,
    nonabelian_residual,
    normalize_volume,
    quiver_vortex_residual,
    scalar_curvature,
    stability_check,
    vortex_residual,
)
from gravortex.bundles import saturation_degree
from gravortex.quiver import gravitating_vortex_spec
from gravortex.obstructions import abelian_coupled_obstructions, z_stability_check

FOUR_PI = 4.0 * math.pi


@pytest.fixture(scope="module")
def grid257():
    return build_grid(257)


def fs_quadrature(grid, config):
    """Futaki quadrature at the round metric and zero bundle potentials."""
    zeros = np.zeros(grid.n)
    return futaki_quadrature(grid, config, zeros, [zeros] * config.rank)


class TestClosedForm:
    def test_balanced_pair_vanishes(self):
        cfg = HiggsConfig(degrees=(1, 1), exponents=(0, 1), tau=3.0, alpha=1.0)
        assert futaki_closed_form(cfg) == 0.0

    def test_reference_value_four_pi(self):
        cfg = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=5.0, alpha=1.0)
        assert futaki_closed_form(cfg) == pytest.approx(FOUR_PI, rel=1e-15)

    def test_half_exponents_vanish_for_any_tau(self):
        for tau in (1.0, 3.5, 7.0):
            cfg = HiggsConfig(degrees=(2, 2), exponents=(1, 1), tau=tau, alpha=2.0)
            assert futaki_closed_form(cfg) == 0.0

    @pytest.mark.parametrize(
        "degrees, exponents, tau, expected",
        [((3,), (1,), 7.0, 1), ((2, 3), (0, 2), 7.0, 5)],
        ids=["abelian", "rank2"],
    )
    def test_value_for_either_rank(self, degrees, exponents, tau, expected):
        # (2N - tau)(2l - N) summed over the components: (-1)(-1), (-3)(-2) + (-1)(1)
        cfg = HiggsConfig(degrees=degrees, exponents=exponents, tau=tau, alpha=0.5)
        assert futaki_exact(cfg) == expected
        assert futaki_closed_form(cfg) == pytest.approx(math.pi * expected, rel=1e-15)


class TestQuadrature:
    def test_fubini_study_reference_value(self, grid257):
        cfg = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=5.0, alpha=1.0)
        value = fs_quadrature(grid257, cfg)
        assert abs(value - FOUR_PI) / FOUR_PI <= 1e-6

    def test_metric_independence(self, grid257):
        cfg = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=5.0, alpha=1.0)
        rng = np.random.default_rng(23)
        s = grid257.nodes
        values = [fs_quadrature(grid257, cfg)]
        for _ in range(5):
            u_raw = rng.uniform(-0.3, 0.3) * np.exp(
                -rng.uniform(1, 5) * (s - rng.uniform(-0.5, 0.5)) ** 2
            )
            metric = normalize_volume(grid257, u_raw)
            v1 = rng.uniform(-0.2, 0.2) * np.sin(rng.integers(1, 4) * s)
            v2 = rng.uniform(-0.2, 0.2) * np.cos(rng.integers(1, 4) * s)
            values.append(
                futaki_quadrature(grid257, cfg, metric.u, [v1, v2])
            )
        spread = (max(values) - min(values)) / FOUR_PI
        assert spread <= 1e-6

    def test_balanced_pair_vanishes_any_ansatz(self, grid257):
        cfg = HiggsConfig(degrees=(1, 1), exponents=(0, 1), tau=3.0, alpha=1.0)
        value = fs_quadrature(grid257, cfg)
        assert abs(value) <= 1e-8
        metric = normalize_volume(grid257, 0.2 * np.exp(-3 * grid257.nodes**2))
        perturbed = futaki_quadrature(
            grid257,
            cfg,
            metric.u,
            [0.1 * np.sin(grid257.nodes), 0.05 * grid257.nodes**2],
        )
        assert abs(perturbed) <= 1e-8

    def test_closed_form_agreement_sweep(self, grid257):
        cases = [
            ((1, 2), (0, 0), 5.0, 1.0),
            ((1, 2), (1, 2), 5.0, 0.5),
            ((2, 3), (0, 2), 7.0, 1.0),
            ((1, 1), (1, 1), 3.0, 2.0),
            ((2, 2), (2, 0), 5.0, 1.0),
            ((3, 3), (1, 2), 9.0, 0.25),
            ((1, 3), (0, 3), 7.5, 1.0),
            ((2, 4), (1, 3), 9.0, 1.0),
            ((1, 2), (1, 0), 4.5, 2.0),
            ((2, 3), (1, 1), 6.5, 1.0),
        ]
        for degrees, exponents, tau, alpha in cases:
            cfg = HiggsConfig(degrees=degrees, exponents=exponents, tau=tau, alpha=alpha)
            closed = futaki_closed_form(cfg)
            quad = fs_quadrature(grid257, cfg)
            scale = max(abs(closed), 1.0)
            assert abs(quad - closed) / scale <= 1e-6

    def test_non_normalized_ansatz_rejected(self, grid257):
        cfg = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=5.0, alpha=1.0)
        zeros = np.zeros(257)
        with pytest.raises(ConfigurationError):
            futaki_quadrature(grid257, cfg, 0.5 * np.ones(257), [zeros, zeros])


class TestAbelianQuadrature:
    def test_symmetric_configuration_vanishes(self, grid257):
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0, alpha=1.0)
        value = fs_quadrature(grid257, cfg)
        assert abs(value) <= 1e-8

    def test_single_zero_value_richardson_stable(self):
        # independent oracle: the per-component pairing evaluates to
        # 2 pi alpha (2N - tau)(2l - N) through exact Beta-function integrals;
        # for (N, l, tau, alpha) = (1, 0, 3, 1) that is 2 pi.
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0, alpha=1.0)
        values = []
        for n in (129, 257, 513):
            values.append(fs_quadrature(build_grid(n), cfg))
        assert values[0] == pytest.approx(2.0 * math.pi, rel=1e-6)
        # successive refinements agree to far better than six digits
        assert abs(values[1] - values[0]) <= 1e-8
        assert abs(values[2] - values[1]) <= 10 * abs(values[1] - values[0]) + 1e-12
        assert abs(values[2] - values[1]) <= 1e-8

    def test_linear_in_alpha(self, grid257):
        base = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0, alpha=1.0)
        doubled = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0, alpha=2.0)
        u = normalize_volume(grid257, 0.1 * np.exp(-2 * grid257.nodes**2)).u
        v = 0.1 * np.sin(grid257.nodes)
        one = futaki_quadrature(grid257, base, u, [v])
        two = futaki_quadrature(grid257, doubled, u, [v])
        assert two == pytest.approx(2.0 * one, rel=1e-7)

    def test_metric_independence(self, grid257):
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0, alpha=1.0)
        ref = fs_quadrature(grid257, cfg)
        metric = normalize_volume(grid257, 0.25 * np.exp(-4 * (grid257.nodes - 0.3) ** 2))
        moved = futaki_quadrature(grid257, cfg, metric.u, [0.15 * np.cos(grid257.nodes)])
        assert abs(moved - ref) / abs(ref) <= 1e-6


class TestBalancing:
    def test_balanced_example(self):
        cfg = HiggsConfig(degrees=(1, 1), exponents=(0, 1), tau=3.0)
        lhs, balanced = balancing_condition(cfg)
        assert lhs == 0 and balanced

    def test_unbalanced_example(self):
        cfg = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=5.0)
        lhs, balanced = balancing_condition(cfg)
        assert lhs == Fraction(2) and not balanced

    def test_half_exponents_always_balanced(self):
        for tau in (3.0, 5.0, 7.5):
            cfg = HiggsConfig(degrees=(2, 2), exponents=(1, 1), tau=tau)
            lhs, balanced = balancing_condition(cfg)
            assert lhs == 0 and balanced

    def test_pole_rejected(self):
        cfg = HiggsConfig(degrees=(1, 2), exponents=(0, 1), tau=4.0)
        with pytest.raises(PoleError):
            balancing_condition(cfg)

    @given(
        n1=st.integers(1, 6),
        n2=st.integers(1, 6),
        l1=st.integers(0, 6),
        l2=st.integers(0, 6),
        tau_num=st.integers(1, 25),
    )
    @settings(max_examples=120, deadline=None)
    def test_equivalence_with_closed_form(self, n1, n2, l1, l2, tau_num):
        n1, n2 = sorted((n1, n2))
        l1, l2 = min(l1, n1), min(l2, n2)
        tau = Fraction(tau_num, 2)  # half-integers avoid 2N poles when odd
        if tau == 2 * n1 or tau == 2 * n2:
            return
        cfg = HiggsConfig(degrees=(n1, n2), exponents=(l1, l2), tau=float(tau))
        lhs, balanced = balancing_condition(cfg)
        closed = futaki_exact(HiggsConfig(degrees=(n1, n2), exponents=(l1, l2), tau=tau))
        assert balanced == (closed == 0)


class TestWindowsAndStability:
    def test_abelian_window(self):
        report = stability_check(HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0))
        assert report.abelian_window is True

    def test_reduced_window_example(self):
        cfg = HiggsConfig(degrees=(1, 1), exponents=(0, 1), tau=3.0)
        report = stability_check(cfg)
        assert report.nonabelian_window is True
        assert report.balanced is True
        assert not report.obstructed

    def test_unbalanced_inside_window_obstructed(self):
        cfg = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=5.0, alpha=1.0)
        report = stability_check(cfg)
        assert report.nonabelian_window is True
        assert report.balanced is False
        assert report.obstructed
        assert any("balancing" in reason for reason in report.reasons)
        assert "no solution" in report.verdict

    def test_single_zero_abelian_obstructed(self):
        report = stability_check(HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0))
        assert report.matsushima is not None
        assert report.matsushima.obstruction
        assert report.obstructed
        assert any("only one zero" in reason for reason in report.reasons)

    def test_two_zero_abelian_unobstructed(self):
        report = stability_check(HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0))
        assert report.matsushima.kind == "torus"
        assert not report.obstructed

    def test_window_agreement_exhaustive(self):
        # reduced form vs saturation-degree form on the full monomial lattice
        count = 0
        for n1 in range(1, 7):
            for n2 in range(n1, 7):
                for l1 in range(n1 + 1):
                    for l2 in range(n2 + 1):
                        cfg = HiggsConfig(
                            degrees=(n1, n2), exponents=(l1, l2), tau=1.0
                        )
                        sat = saturation_degree(cfg)
                        reduced_bound = (
                            n1 + n2 - min(l1, l2) - min(n1 - l1, n2 - l2)
                        )
                        assert sat == min(l1, l2) + min(n1 - l1, n2 - l2)
                        for tau2 in range(1, 30):  # tau = tau2/2
                            tau = Fraction(tau2, 2)
                            win_a = 2 * n2 < tau < 2 * (n1 + n2 - sat)
                            win_b = 2 * n2 < tau < 2 * reduced_bound
                            assert win_a == win_b
                            count += 1
        assert count > 10000

    def test_z_stability_witness_structure(self):
        cfg = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=5.0)
        stable, witness = z_stability_check(cfg)
        assert isinstance(stable, bool)
        if not stable:
            assert witness["subbundle"]
            assert "slope_with_tau" in witness

    def test_report_serializes(self):
        cfg = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=5.0, alpha=1.0)
        payload = stability_check(cfg).to_json_dict()
        assert payload["obstructed"] is True
        assert isinstance(payload["reasons"], list)
        assert payload["futaki_value"] == pytest.approx(FOUR_PI)


ASYMMETRIC_TWO_ZERO = [(3, 1, 7.0), (4, 1, 9.0), (4, 3, 9.0)]


class TestAbelianFutakiGate:
    @pytest.mark.parametrize("degree, exponent, tau", ASYMMETRIC_TWO_ZERO)
    def test_closed_form_matches_quadrature(self, grid257, degree, exponent, tau):
        cfg = HiggsConfig(degrees=(degree,), exponents=(exponent,), tau=tau, alpha=1.0)
        expected = 2.0 * math.pi * (2 * degree - tau) * (2 * exponent - degree)
        assert futaki_closed_form(cfg) == pytest.approx(expected, rel=1e-14)
        quad = fs_quadrature(grid257, cfg)
        assert quad == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("degree, exponent, tau", ASYMMETRIC_TWO_ZERO)
    def test_stability_obstructed_at_positive_alpha(self, degree, exponent, tau):
        cfg = HiggsConfig(degrees=(degree,), exponents=(exponent,), tau=tau, alpha=1.0)
        report = stability_check(cfg)
        assert report.abelian_window is True
        assert report.matsushima.kind == "torus"
        assert report.obstructed
        assert any("Futaki character" in reason for reason in report.reasons)
        assert report.futaki_value == pytest.approx(futaki_closed_form(cfg))
        assert report.futaki_value != 0.0

    @pytest.mark.parametrize("degree, exponent, tau", ASYMMETRIC_TWO_ZERO)
    def test_alpha_zero_exempt(self, degree, exponent, tau):
        cfg = HiggsConfig(degrees=(degree,), exponents=(exponent,), tau=tau, alpha=0.0)
        report = stability_check(cfg)
        assert not report.obstructed
        assert report.futaki_value == 0.0

    def test_symmetric_exponent_unobstructed(self):
        cfg = HiggsConfig(degrees=(4,), exponents=(2,), tau=9.0, alpha=1.0)
        assert abelian_coupled_obstructions(cfg, 1.0) == []
        assert not stability_check(cfg).obstructed

    def test_reason_quotes_exact_value(self):
        cfg = HiggsConfig(degrees=(3,), exponents=(1,), tau=7.5)
        (reason,) = abelian_coupled_obstructions(cfg, 0.05)
        assert "2 pi alpha (3/2)" in reason

    def test_single_zero_sentence_at_every_alpha(self):
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
        assert len(abelian_coupled_obstructions(cfg, 0.0)) == 1
        reasons = abelian_coupled_obstructions(cfg, 1.0)
        assert len(reasons) == 2 and "only one zero" in reasons[0]


class TestMatrixFreeEvaluation:
    """Residuals and the Futaki quadrature never build the dense Laplacian.

    ``AxisymGrid.lap_fs`` caches its O(n^3) matrix in ``_lap_fs`` on first
    access; only the Newton Jacobians should pay for it.  ``vortex_residual``
    and ``gravitating_residual`` evaluate the solvers' own residual maps.
    """

    @staticmethod
    def _evaluations(grid):
        s = grid.nodes
        zeros = np.zeros(grid.n)
        metric = normalize_volume(grid, 0.1 * np.cos(s))
        rank2 = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=5.0, alpha=1.0)
        abelian = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0, alpha=0.3)
        state = GravitatingState(
            metric=metric, bundle=BundleMetricPotential(0.1 * s), c_value=0.0, alpha=0.3
        )
        spec = gravitating_vortex_spec(2, 1, 5.0, 0.3)
        return {
            "laplacian": lambda: laplacian(grid, metric, s**2),
            "scalar_curvature": lambda: scalar_curvature(grid, metric),
            "futaki_quadrature": lambda: futaki_quadrature(
                grid, rank2, metric.u, [0.1 * s, zeros]
            ),
            "futaki_rank1": lambda: futaki_quadrature(
                grid, abelian, metric.u, [0.1 * s]
            ),
            "vortex_residual": lambda: vortex_residual(
                grid, metric, BundleMetricPotential(0.1 * s), abelian
            ),
            "quiver_vortex_residual": lambda: quiver_vortex_residual(
                spec, {"src": zeros, "dst": 0.1 * s}, metric, grid
            ),
            "gravitating_residual": lambda: gravitating_residual(grid, state, abelian),
        }

    @pytest.mark.parametrize(
        "name",
        [
            "laplacian",
            "scalar_curvature",
            "futaki_quadrature",
            "futaki_rank1",
            "vortex_residual",
            "quiver_vortex_residual",
            "gravitating_residual",
        ],
    )
    def test_dense_laplacian_not_built(self, name):
        grid = build_grid(65)
        self._evaluations(grid)[name]()
        assert not hasattr(grid, "_lap_fs")

    def test_fine_grid_builds_no_d1(self):
        # above NESTED_ABOVE_N nodes every evaluation differentiates by FFT,
        # so a 4097-node grid never holds its 128 MiB d1
        grid = build_grid(4097)
        for evaluate in self._evaluations(grid).values():
            evaluate()
        s = grid.nodes
        rank2 = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=5.0)
        # a nonzero off-diagonal cofactor takes the two-chart dw / dwbar path
        hdata = NonabelianMetric(0.1 * s, -0.1 * s, np.full(grid.n, 0.1))
        res = nonabelian_residual(grid, None, hdata, rank2)
        assert np.all(np.isfinite(res.r11)) and np.all(np.isfinite(res.offdiag))
        assert not hasattr(grid, "_d1")


class TestVanishingComponents:
    @pytest.mark.parametrize("degrees", [(1,), (3,), (1, 1), (1, 3), (2, 3)])
    def test_every_component_zero_is_obstructed(self, degrees):
        for k in range(1, 20):
            cfg = HiggsConfig(degrees=degrees, exponents=(None,) * len(degrees), tau=k / 2)
            report = stability_check(cfg)
            assert report.obstructed
            assert "the Higgs field vanishes identically" in report.reasons[-1]
            assert report.matsushima is None and report.futaki_value is None

    def test_one_zero_component_empties_the_window(self):
        for n1 in range(1, 4):
            for n2 in range(n1, 4):
                for exponents in [(l1, None) for l1 in range(n1 + 1)] + [
                    (None, l2) for l2 in range(n2 + 1)
                ]:
                    for k in range(1, 20):
                        cfg = HiggsConfig((n1, n2), exponents, tau=k / 2, alpha=1.0)
                        report = stability_check(cfg)
                        other = n1 if exponents[1] is None else n2
                        assert report.saturation_degree == other
                        assert report.nonabelian_window is False and report.obstructed
                        assert report.balanced is None and report.balancing_lhs is None
