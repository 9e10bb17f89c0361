"""Abelian vortex residual/solver and rank-2 residual evaluation."""

import math
import warnings

import numpy as np
import pytest

from gravortex import (
    BundleMetricPotential,
    ConfigurationError,
    ConformalMetric,
    ContinuationSchedule,
    HiggsConfig,
    InfeasibleError,
    NewtonOptions,
    NonabelianMetric,
    NumericInputError,
    WrongRankError,
    build_grid,
    higgs_profile,
    integrate,
    nonabelian_residual,
    normalize_volume,
    solve_gravitating,
    solve_vortex,
    vortex_residual,
)
from gravortex.gravitating import _CoupledSystem
from gravortex.vortex import bundle_curvature

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def grid():
    return build_grid(129)


def random_metric(grid, rng):
    bump = rng.uniform(-0.3, 0.3) * np.exp(-3.0 * (grid.nodes - rng.uniform(-0.5, 0.5)) ** 2)
    return normalize_volume(grid, bump)


class TestVortexResidual:
    def test_background_value_where_phi_vanishes(self, grid):
        # N=1, l=0, tau=3: at s=+1 the profile vanishes, so R = 1 - 1.5
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
        res = vortex_residual(grid, None, BundleMetricPotential(np.zeros(grid.n)), cfg)
        assert res[-1] == pytest.approx(-0.5, abs=1e-12)

    def test_integral_identity_random_potentials(self, grid):
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
        rng = np.random.default_rng(2)
        profile = higgs_profile(grid, cfg, 0)
        for _ in range(5):
            v = rng.uniform(-0.2, 0.2) * np.sin(rng.integers(1, 4) * grid.nodes)
            res = vortex_residual(grid, None, BundleMetricPotential(v), cfg)
            lhs = integrate(grid, None, res)
            phi_mass = integrate(grid, None, np.exp(2 * v) * profile)
            rhs = TWO_PI * 2 + 0.5 * (phi_mass - TWO_PI * 5.0)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_constant_shift_moves_only_higgs_term(self, grid):
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
        profile = higgs_profile(grid, cfg, 0)
        kappa = 0.37
        base = vortex_residual(grid, None, BundleMetricPotential(np.zeros(grid.n)), cfg)
        shifted = vortex_residual(
            grid, None, BundleMetricPotential(kappa * np.ones(grid.n)), cfg
        )
        expected = base + 0.5 * (math.exp(2 * kappa) - 1.0) * profile
        # limited by the dense operator's constant-kernel round-off floor
        assert np.max(np.abs(shifted - expected)) <= 1e-10

    def test_wrong_rank_rejected(self, grid):
        cfg = HiggsConfig(degrees=(1, 1), exponents=(0, 1), tau=3.0)
        with pytest.raises(WrongRankError):
            vortex_residual(grid, None, BundleMetricPotential(np.zeros(grid.n)), cfg)

    def test_chern_invariance_random_pairs(self, grid):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n_deg = int(rng.integers(1, 4))
            metric = random_metric(grid, rng)
            v = rng.uniform(-0.3, 0.3) * np.cos(rng.integers(1, 5) * grid.nodes)
            curv = bundle_curvature(grid, metric.u, n_deg, v)
            total = integrate(grid, metric, curv)
            assert abs(total - TWO_PI * n_deg) <= 1e-8


class TestNewtonOptions:
    @pytest.mark.parametrize(
        "options, message",
        [
            ({"tolerance": math.inf}, "tolerance must be a positive number, got inf"),
            ({"tolerance": math.nan}, "tolerance must be a positive number, got nan"),
            ({"tolerance": 10**400}, "tolerance must be a positive number, got 1000"),
            ({"tolerance": True}, "tolerance must be a positive number, got True"),
            ({"tolerance": "1e-10"}, "tolerance must be a positive number, got '1e-10'"),
            ({"max_iter": True}, "max_iter must be a positive integer, got True"),
            ({"max_iter": 2.5}, "max_iter must be a positive integer, got 2.5"),
            ({"max_iter": "50"}, "max_iter must be a positive integer, got '50'"),
            ({"max_iter": 0}, "max_iter must be a positive integer, got 0"),
        ],
    )
    def test_invalid_options_rejected(self, options, message):
        with pytest.raises(ConfigurationError) as err:
            NewtonOptions(**options)
        assert str(err.value).startswith(message)

    def test_both_bad_values_named(self):
        with pytest.raises(ConfigurationError) as err:
            NewtonOptions(tolerance=-1.0, max_iter=2.5)
        assert str(err.value) == (
            "tolerance must be a positive number, got -1.0; "
            "max_iter must be a positive integer, got 2.5"
        )

    def test_values_normalized(self):
        opts = NewtonOptions(tolerance=1, max_iter=np.int64(7))
        assert type(opts.tolerance) is float and type(opts.max_iter) is int


class TestSolveVortex:
    def test_converges_within_budget(self, grid):
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
        pot, report = solve_vortex(grid, None, cfg)
        assert report.converged
        assert report.iterations <= 15
        assert report.residual_sup < 1e-10
        curv = bundle_curvature(grid, np.zeros(grid.n), 1, pot.v)
        assert abs(integrate(grid, None, curv) - TWO_PI) <= 1e-8

    def test_boundary_tau_infeasible(self, grid):
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=2.0)
        with pytest.raises(InfeasibleError):
            solve_vortex(grid, None, cfg)

    def test_symmetric_config_solution_even(self, grid):
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
        pot, report = solve_vortex(grid, None, cfg)
        assert report.converged
        assert np.max(np.abs(pot.v - pot.v[::-1])) <= 1e-11

    @pytest.mark.usefixtures("fresh_grids")
    def test_symmetric_solve_takes_the_half_size_step(self):
        grid = build_grid(129)
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
        _, report = solve_vortex(grid, None, cfg)
        assert report.converged
        assert "lap_fs_even" in vars(grid) and "lap_fs" not in vars(grid)

    @pytest.mark.usefixtures("fresh_grids")
    @pytest.mark.parametrize("even_metric", [True, False], ids=["2l != N", "non-even metric"])
    def test_full_size_step_otherwise(self, even_metric):
        grid = build_grid(129)
        if even_metric:
            cfg, metric = HiggsConfig(degrees=(3,), exponents=(1,), tau=7.0), None
        else:
            cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
            metric = random_metric(grid, np.random.default_rng(4))
        _, report = solve_vortex(grid, metric, cfg)
        assert report.converged
        assert "lap_fs" in vars(grid) and "lap_fs_even" not in vars(grid)

    @pytest.mark.parametrize("solver", ["vortex", "coupled"])
    def test_symmetric_solve_from_non_even_start(self, grid, solver):
        # the start is replaced by its even part, and every step is even
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
        bump = 0.5 * np.exp(-4.0 * (grid.nodes - 0.3) ** 2)
        if solver == "vortex":
            pot, report = solve_vortex(grid, None, cfg, v0=bump)
            reference, _ = solve_vortex(grid, None, cfg)
            assert report.converged
            fields, references = [pot.v], [reference.v]
        else:
            system = _CoupledSystem(grid, cfg, 0.05, True)
            start = np.concatenate([0.2 * bump, bump, [3.0]])
            x, _, stop_reason, _ = system.solve(start, NewtonOptions())
            schedule = ContinuationSchedule(alphas=(0.0, 0.05))
            reference, _ = solve_gravitating(cfg, schedule, grid)
            assert stop_reason == "converged"
            fields, references = system.unpack(x)[:2], [reference.metric.u, reference.bundle.v]
        for field, expected in zip(fields, references, strict=True):
            assert np.array_equal(field, field[::-1])
            assert np.max(np.abs(field - expected)) <= 1e-9

    def test_uniqueness_from_random_start(self, grid):
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
        rng = np.random.default_rng(8)
        pot_a, rep_a = solve_vortex(grid, None, cfg)
        bump = 0.5 * np.exp(-4.0 * (grid.nodes - 0.3) ** 2)
        pot_b, rep_b = solve_vortex(grid, None, cfg, v0=bump)
        assert rep_a.converged and rep_b.converged
        assert np.max(np.abs(pot_a.v - pot_b.v)) <= 1e-9

    @pytest.mark.parametrize(
        "v0, error, message",
        [
            (np.zeros(128), ConfigurationError, "initial guess resolution does not match"),
            (np.full(129, np.inf), NumericInputError, "initial guess contains non-finite"),
        ],
    )
    def test_bad_initial_guess_rejected(self, grid, v0, error, message):
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
        with pytest.raises(error, match=message):
            solve_vortex(grid, None, cfg, v0=v0)

    def test_mean_identity_at_solution(self, grid):
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
        pot, _ = solve_vortex(grid, None, cfg)
        mass = integrate(grid, None, np.exp(2 * pot.v) * higgs_profile(grid, cfg, 0))
        assert abs(mass - TWO_PI * (3.0 - 2.0)) <= 1e-7

    def test_two_resolution_agreement(self):
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
        coarse = build_grid(129)
        fine = build_grid(257)
        pot_c, rep_c = solve_vortex(coarse, None, cfg)
        # from zero: a fine solve without v0 would start from the coarse one
        opts = NewtonOptions(tolerance=1e-9)
        pot_f, rep_f = solve_vortex(fine, None, cfg, opts, v0=np.zeros(fine.n))
        assert rep_c.converged and rep_f.converged
        interp = coarse.prolong(pot_c.v, fine.n)
        assert np.max(np.abs(interp - pot_f.v)) <= 1e-8

    def test_solve_on_conformal_metric(self, grid):
        rng = np.random.default_rng(12)
        metric = random_metric(grid, rng)
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
        pot, report = solve_vortex(grid, metric, cfg)
        assert report.converged
        curv = bundle_curvature(grid, metric.u, 1, pot.v)
        assert abs(integrate(grid, metric, curv) - TWO_PI) <= 1e-8

    @pytest.mark.parametrize(
        "n, reason", [(65, "converged"), (129, "converged"), (257, "roundoff_floor")]
    )
    def test_overflowing_line_search_trial_is_halved_silently(self, n, reason):
        # the first full steps from the round start overflow exp(2v); such a
        # trial is rejected and halved, and its evaluation warns nothing
        cfg = HiggsConfig(degrees=(10,), exponents=(5,), tau=21.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = solve_vortex(build_grid(n), None, cfg)
        assert report.stop_reason == reason
        assert report.residual_sup < 1e-9


class TestNonabelianResidual:
    def test_block_reduction_with_vanishing_component(self, grid):
        cfg = HiggsConfig(degrees=(1, 2), exponents=(0, None), tau=5.0)
        hdata = NonabelianMetric(v1=np.zeros(grid.n), v2=np.zeros(grid.n))
        res = nonabelian_residual(grid, None, hdata, cfg)
        abelian = vortex_residual(
            grid,
            None,
            BundleMetricPotential(np.zeros(grid.n)),
            HiggsConfig(degrees=(1,), exponents=(0,), tau=5.0),
        )
        assert np.max(np.abs(res.r11 - abelian)) <= 1e-12
        # Hermite-Einstein residual on the second factor: constant 2 - 2.5
        assert np.max(np.abs(res.r22 + 0.5)) <= 1e-12
        assert np.max(np.abs(res.offdiag)) <= 1e-12

    def test_offdiagonal_entry_profile(self, grid):
        cfg = HiggsConfig(degrees=(1, 1), exponents=(0, 1), tau=3.0)
        hdata = NonabelianMetric(v1=np.zeros(grid.n), v2=np.zeros(grid.n))
        res = nonabelian_residual(grid, None, hdata, cfg)
        s = grid.nodes
        product_profile = np.sqrt((1.0 - s) * (1.0 + s)) / 2.0
        assert res.offdiag_weight == -1
        assert np.max(np.abs(np.abs(res.offdiag) - 0.5 * product_profile)) <= 1e-12

    def test_trace_identity_random_diagonal_metrics(self, grid):
        rng = np.random.default_rng(21)
        cfg = HiggsConfig(degrees=(1, 2), exponents=(0, 1), tau=5.0)
        for _ in range(5):
            v1 = rng.uniform(-0.2, 0.2) * np.sin(rng.integers(1, 4) * grid.nodes)
            v2 = rng.uniform(-0.2, 0.2) * np.cos(rng.integers(1, 4) * grid.nodes)
            res = nonabelian_residual(grid, None, NonabelianMetric(v1, v2), cfg)
            assert res.trace.defect <= 1e-8
            assert abs(res.trace.chern_total - TWO_PI * 3) <= 1e-8

    def test_wrong_rank_rejected(self, grid):
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
        with pytest.raises(WrongRankError):
            nonabelian_residual(
                grid, None, NonabelianMetric(np.zeros(grid.n), np.zeros(grid.n)), cfg
            )

    def test_offdiagonal_metric_chern_and_hermiticity(self, grid):
        # equal degrees: the equivariant profile class is globally consistent
        cfg = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=5.0)
        s = grid.nodes
        v1 = 0.1 * np.sin(2 * s)
        v2 = -0.05 * s**2
        off = 0.2 * (1.0 + 0.3 * s)
        res = nonabelian_residual(grid, None, NonabelianMetric(v1, v2, off), cfg)
        assert abs(res.trace.chern_total - TWO_PI * 4) <= 1e-10

    def test_offdiagonal_metric_reduces_to_diagonal(self, grid):
        cfg = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=5.0)
        v1 = 0.1 * np.sin(2 * grid.nodes)
        v2 = -0.05 * grid.nodes**2
        diag = nonabelian_residual(grid, None, NonabelianMetric(v1, v2), cfg)
        tiny = nonabelian_residual(
            grid, None, NonabelianMetric(v1, v2, np.zeros(grid.n)), cfg
        )
        assert np.max(np.abs(diag.r11 - tiny.r11)) <= 1e-12
        assert np.max(np.abs(diag.r22 - tiny.r22)) <= 1e-12

    def test_offdiagonal_metric_unequal_degrees_rejected(self, grid):
        cfg = HiggsConfig(degrees=(1, 2), exponents=(0, 1), tau=5.0)
        with pytest.raises(ConfigurationError):
            nonabelian_residual(
                grid,
                None,
                NonabelianMetric(
                    np.zeros(grid.n), np.zeros(grid.n), 0.1 * np.ones(grid.n)
                ),
                cfg,
            )

    def test_two_chart_overlap_agreement(self, grid):
        # both charts are spectrally accurate on the interior band
        from gravortex.vortex import _chart_curvature

        s = grid.nodes
        v1 = 0.1 * np.sin(2 * s)
        v2 = -0.08 * np.cos(s)
        off = 0.15 * (1.0 - 0.2 * s)
        a11, a22, a12, _ = _chart_curvature(grid, 2, 1, np.zeros(grid.n), v1, v2, off)
        b11, b22, b12, _ = _chart_curvature(
            grid, 2, -1, np.zeros(grid.n), v1[::-1], v2[::-1], off[::-1]
        )
        band = np.abs(s) <= 0.5
        assert np.max(np.abs(a11 - b11[::-1])[band]) <= 1e-9
        assert np.max(np.abs(a22 - b22[::-1])[band]) <= 1e-9
        assert np.max(np.abs(a12 - b12[::-1])[band]) <= 1e-9


ABELIAN = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
RANK2 = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=9.0)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda grid, metric: solve_vortex(grid, metric, ABELIAN),
        lambda grid, metric: vortex_residual(
            grid, metric, BundleMetricPotential(v=np.zeros(grid.n)), ABELIAN
        ),
        lambda grid, metric: nonabelian_residual(
            grid, metric, NonabelianMetric(np.zeros(grid.n), np.zeros(grid.n)), RANK2
        ),
    ],
    ids=["solve_vortex", "vortex_residual", "nonabelian_residual"],
)
@pytest.mark.parametrize(
    "u, error, message",
    [
        (np.zeros(33), ConfigurationError, "metric potential resolution does not match the grid"),
        (np.full(65, np.nan), NumericInputError, "metric potential contains non-finite entries"),
        (np.full(65, np.inf), NumericInputError, "metric potential contains non-finite entries"),
    ],
    ids=["wrong-size", "nan", "inf"],
)
def test_bad_metric_potential_rejected(evaluate, u, error, message):
    with pytest.raises(error, match=message):
        evaluate(build_grid(65), ConformalMetric(u=u))
