"""Coupled solver, continuation, EB secant, and the general-form cross-check."""

import math

import numpy as np
import pytest

from gravortex import (
    BundleMetricPotential,
    ConfigurationError,
    ConformalMetric,
    ContinuationSchedule,
    GravitatingState,
    HiggsConfig,
    InfeasibleError,
    NewtonOptions,
    NumericInputError,
    ObstructionError,
    build_grid,
    einstein_bogomolnyi_solve,
    gravitating_residual,
    integrate,
    general_coupled_residual,
    normalize_volume,
    solve_gravitating,
    solve_vortex,
    volume,
)
from gravortex import gravitating
from gravortex.gravitating import (
    _GAP,
    _CoupledSystem,
    _gauge_aware_step,
    _schedule_to,
    c_from_integral_identity,
    c_predictions,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def grid():
    return build_grid(129)


@pytest.fixture(scope="module")
def symmetric_config():
    return HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)


@pytest.fixture(scope="module")
def solved(grid, symmetric_config):
    schedule = ContinuationSchedule(alphas=(0.0, 0.02, 0.05, 0.1))
    return solve_gravitating(symmetric_config, schedule, grid)


class TestGravitatingResidual:
    def test_alpha_zero_round_plus_vortex(self, grid):
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0, alpha=0.0)
        pot, rep = solve_vortex(grid, None, cfg)
        assert rep.converged
        state = GravitatingState(
            metric=ConformalMetric(u=np.zeros(grid.n)),
            bundle=pot,
            c_value=4.0,
            alpha=0.0,
        )
        r1, r2, c_est = gravitating_residual(grid, state, cfg)
        assert np.max(np.abs(r1)) <= 1e-10
        assert np.max(np.abs(r2)) <= 1e-10
        assert c_est == pytest.approx(4.0, abs=1e-10)

    def test_r2_mean_zero_by_construction(self, grid):
        rng = np.random.default_rng(3)
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0, alpha=0.3)
        metric = normalize_volume(grid, 0.2 * np.exp(-2 * (grid.nodes + 0.1) ** 2))
        state = GravitatingState(
            metric=metric,
            bundle=BundleMetricPotential(0.1 * np.cos(grid.nodes)),
            c_value=0.0,
            alpha=0.3,
        )
        _, r2, _ = gravitating_residual(grid, state, cfg)
        assert abs(integrate(grid, metric, r2)) <= 1e-10

    def test_c_est_matches_integral_identity_at_solution(self, grid, solved):
        state, _ = solved
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
        _, _, c_est = gravitating_residual(grid, state, cfg)
        assert abs(c_est - c_from_integral_identity(grid, state, cfg)) <= 1e-8


class TestSolveGravitating:
    def test_continuation_converges_every_step(self, solved):
        state, report = solved
        assert report.converged
        assert all(step.converged for step in report.steps)
        assert all(step.residual_sup <= 1e-9 for step in report.steps)

    def test_solution_even(self, solved):
        state, _ = solved
        assert np.max(np.abs(state.metric.u - state.metric.u[::-1])) <= 1e-11
        assert np.max(np.abs(state.bundle.v - state.bundle.v[::-1])) <= 1e-11

    def test_c_tracks_topological_value(self, solved, symmetric_config):
        _, report = solved
        for step in report.steps:
            expected = 4.0 - 2.0 * step.alpha * 5.0 * 2.0
            assert step.c_est == pytest.approx(expected, abs=1e-9)

    def test_volume_stays_normalized(self, grid, solved):
        state, _ = solved
        assert abs(volume(grid, state.metric) - TWO_PI) <= 1e-10

    def test_alpha_zero_schedule_returns_round_metric(self, grid):
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
        state, report = solve_gravitating(
            cfg, ContinuationSchedule(alphas=(0.0,)), grid
        )
        assert report.converged
        assert np.max(np.abs(state.metric.u)) <= 1e-11
        assert state.c_value == pytest.approx(4.0, abs=1e-10)

    def test_single_zero_refused_without_override(self, grid):
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
        with pytest.raises(ObstructionError) as err:
            solve_gravitating(cfg, ContinuationSchedule(alphas=(0.0,)), grid)
        assert "only one zero" in str(err.value)

    def test_single_zero_override_runs_and_reports(self, grid):
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
        state, report = solve_gravitating(
            cfg,
            ContinuationSchedule(alphas=(0.0,)),
            grid,
            override_obstruction=True,
        )
        # alpha = 0 decouples, so the run itself succeeds; no divergence asserted
        assert report.steps[0].converged

    @pytest.mark.parametrize("degree, exponent, tau", [(3, 1, 7.0), (4, 1, 9.0), (4, 3, 9.0)])
    def test_asymmetric_two_zero_refused_at_positive_alpha(self, grid, degree, exponent, tau):
        cfg = HiggsConfig(degrees=(degree,), exponents=(exponent,), tau=tau)
        with pytest.raises(ObstructionError) as err:
            solve_gravitating(cfg, ContinuationSchedule(alphas=(0.0, 0.05)), grid)
        assert "Futaki character" in str(err.value)
        with pytest.raises(ObstructionError):
            einstein_bogomolnyi_solve(cfg, grid)
        # alpha = 0 decouples: the character vanishes and the solve runs
        _, report = solve_gravitating(cfg, ContinuationSchedule(alphas=(0.0,)), grid)
        assert report.converged

    def test_infeasible_window_raises(self, grid):
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=4.0)
        with pytest.raises(InfeasibleError):
            solve_gravitating(cfg, ContinuationSchedule(alphas=(0.0,)), grid)

    @pytest.mark.parametrize(
        "u, v, error, message",
        [
            # one entry too many used to converge from a misaligned start
            (np.zeros(66), np.zeros(65), ConfigurationError, "initial metric potential resolution"),
            (np.zeros(64), np.zeros(65), ConfigurationError, "initial metric potential resolution"),
            (np.full(65, np.nan), np.zeros(65), NumericInputError, "non-finite"),
            (np.zeros(65), np.zeros(66), ConfigurationError, "initial bundle potential resolution"),
        ],
    )
    def test_bad_initial_state_rejected(self, symmetric_config, u, v, error, message):
        initial = GravitatingState(
            metric=ConformalMetric(u=u), bundle=BundleMetricPotential(v=v), c_value=4.0, alpha=0.0
        )
        schedule = ContinuationSchedule(alphas=(0.0,))
        with pytest.raises(error, match=message):
            solve_gravitating(symmetric_config, schedule, build_grid(65), initial=initial)

    def test_determinism_bit_identical(self, grid, symmetric_config):
        schedule = ContinuationSchedule(alphas=(0.0, 0.05))
        s1, r1 = solve_gravitating(symmetric_config, schedule, grid)
        s2, r2 = solve_gravitating(symmetric_config, schedule, grid)
        assert np.array_equal(s1.metric.u, s2.metric.u)
        assert np.array_equal(s1.bundle.v, s2.bundle.v)
        assert s1.c_value == s2.c_value
        assert [st.residual_sup for st in r1.steps] == [
            st.residual_sup for st in r2.steps
        ]

    def test_continuation_continuity_under_step_halving(self, grid, symmetric_config):
        coarse = ContinuationSchedule(alphas=(0.0, 0.1))
        fine = ContinuationSchedule(alphas=(0.0, 0.05, 0.1))
        s_coarse, r_coarse = solve_gravitating(symmetric_config, coarse, grid)
        s_fine, r_fine = solve_gravitating(symmetric_config, fine, grid)
        # same end point regardless of path (uniqueness of the even solution)
        assert np.max(np.abs(s_coarse.metric.u - s_fine.metric.u)) <= 1e-9

        def max_step_jump(report):
            jumps = []
            for prev, nxt in zip(report.steps, report.steps[1:]):
                jumps.append(np.max(np.abs(nxt.u - prev.u)))
            return max(jumps)

        # halving the coupling step shrinks the per-step solution increments
        assert max_step_jump(r_fine) < max_step_jump(r_coarse)

    def test_two_resolution_agreement(self, symmetric_config):
        schedule = ContinuationSchedule(alphas=(0.0, 0.05, 0.1))
        coarse, fine = build_grid(129), build_grid(257)
        s_c, r_c = solve_gravitating(symmetric_config, schedule, coarse)
        s_f, r_f = solve_gravitating(
            symmetric_config, schedule, fine, newton=NewtonOptions(tolerance=1e-9)
        )
        assert r_c.converged and r_f.converged
        interp_u = coarse.prolong(s_c.metric.u, fine.n)
        assert np.max(np.abs(interp_u - s_f.metric.u)) <= 1e-7

    def test_degree_four_continuation_converges_at_n257(self):
        # the alpha = 0 solve ends close to the 1e-10 tolerance at n = 257;
        # a residual evaluated through the dense Laplacian stalls above it
        cfg = HiggsConfig(degrees=(4,), exponents=(2,), tau=9.0)
        schedule = ContinuationSchedule(alphas=tuple(k / 90 for k in range(6)))
        _, report = solve_gravitating(cfg, schedule, build_grid(257))
        assert report.converged
        assert [step.converged for step in report.steps] == [True] * 6

    def test_nested_continuation_reports_every_alpha(self, symmetric_config):
        # the n = 513 floor lies below the default tolerance, so the solve
        # continues past alpha = 0; each fine step starts from the prolonged
        # n = 129 step at its own alpha and needs at most one Newton step
        schedule = ContinuationSchedule(alphas=(0.0, 0.05, 0.1))
        _, report = solve_gravitating(symmetric_config, schedule, build_grid(513))
        assert [step.alpha for step in report.steps] == list(schedule.alphas)
        assert report.converged and all(step.converged for step in report.steps)
        assert all(step.iterations <= 1 for step in report.steps)


def planted(singular_values, seed):
    """A matrix with the given singular values and random orthogonal factors."""
    rng = np.random.default_rng(seed)
    m = len(singular_values)
    left = np.linalg.qr(rng.standard_normal((m, m)))[0]
    right = np.linalg.qr(rng.standard_normal((m, m)))[0]
    return left, np.asarray(singular_values), right, (left * singular_values) @ right.T


class TestGaugeAwareStep:
    def test_planted_null_pair_takes_bordered_solve(self):
        sing = np.concatenate([np.geomspace(10.0, 1.0, 39), [1e-11]])
        left, sing, right, jac = planted(sing, 1)
        rhs = np.random.default_rng(2).standard_normal(40)
        step, bordered = _gauge_aware_step(jac, rhs)
        assert bordered
        # the SVD-bordered solution: no component along the null pair
        want = right[:, :-1] @ ((left[:, :-1].T @ rhs) / sing[:-1])
        assert np.linalg.norm(step - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "sing",
        [
            # sigma_min / sigma_max = 4.5e-9 as at n = 1025, but no spectral gap
            np.geomspace(1.0, 4.5e-9, 60),
            # an isolated small pair, 1e-4 below the next: a regular root
            np.concatenate([np.geomspace(10.0, 1.0, 59), [1e-4]]),
        ],
        ids=["geometric-spread", "isolated-small-pair"],
    )
    def test_no_gap_takes_plain_step(self, sing):
        _, _, _, jac = planted(sing, 3)
        rhs = np.random.default_rng(4).standard_normal(60)
        step, bordered = _gauge_aware_step(jac, rhs)
        assert not bordered
        residual = np.linalg.norm(jac @ step - rhs)
        assert residual <= 1e-12 * np.linalg.norm(jac, 2) * np.linalg.norm(step)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_alpha_zero_dilation_degeneracy(self, grid, symmetric):
        # at the round metric and alpha = 0 the odd dilation mode is an exact
        # null direction of the full-space system; parity reduction removes it
        degree, exponent, tau = (2, 1, 5.0) if symmetric else (3, 1, 7.0)
        cfg = HiggsConfig(degrees=(degree,), exponents=(exponent,), tau=tau)
        system = _CoupledSystem(grid, cfg, 0.0, symmetric)
        x = system.restrict(np.concatenate([np.zeros(129), np.zeros(129), [4.0]]))
        jac, rhs = system.linearization(x)
        sing = np.linalg.svd(jac, compute_uv=False)
        _, bordered = _gauge_aware_step(jac, rhs)
        if symmetric:
            assert sing[-1] > 0.1 * sing[-2] and not bordered
        else:
            assert sing[-1] < 1e-16 * sing[0] and sing[-2] > 1e-8 * sing[0]
            assert bordered

    def test_n1025_ordinary_conditioning_does_not_border(self, symmetric_config):
        # sigma_min / sigma_max is below 1e-8 here without any degeneracy; a
        # ratio test bordered the first step from the round start and stalled
        # it at residual 0.37.  The explicit start bypasses the coarse seed.
        schedule = ContinuationSchedule(alphas=(0.0, 0.05, 0.1))
        n = 1025
        start = GravitatingState(
            metric=ConformalMetric(u=np.zeros(n)),
            bundle=BundleMetricPotential(v=np.zeros(n)),
            c_value=4.0,
            alpha=0.0,
        )
        _, report = solve_gravitating(symmetric_config, schedule, build_grid(n), initial=start)
        first = report.steps[0]
        assert first.residual_sup < 1e-8
        assert first.bordered_steps == 0

    def test_bordered_steps_counted_at_zero_constant(self, symmetric_config):
        schedule = ContinuationSchedule(alphas=tuple(0.04 * k for k in range(6)))
        _, report = solve_gravitating(symmetric_config, schedule, build_grid(65))
        assert report.converged
        # only the alpha tau N = 2 step meets the concentration family
        counts = [step.bordered_steps for step in report.steps]
        assert counts[:-1] == [0] * 5 and counts[-1] >= 1
        assert report.to_json_dict()["steps"][-1]["bordered_steps"] == counts[-1]

    @pytest.mark.parametrize(
        "degree, exponent, tau, n, alphas",
        [
            (2, 1, 5.0, 65, tuple(0.04 * k for k in range(6))),
            (3, 1, 7.0, 129, (0.0,)),
        ],
        ids=["to-zero-constant", "asymmetric-round-start"],
    )
    def test_border_decision_matches_full_svd_gap(
        self, monkeypatch, degree, exponent, tau, n, alphas
    ):
        # the one-sided estimate from J^-1 P decides as the full spectrum does
        # on every linearization of a continuation, bordered or not
        decisions = []

        def recording(jac, rhs):
            step, bordered = _gauge_aware_step(jac, rhs)
            sing = np.linalg.svd(jac, compute_uv=False)
            decisions.append((bordered, bool(sing[-1] < _GAP * sing[-2])))
            return step, bordered

        monkeypatch.setattr(gravitating, "_gauge_aware_step", recording)
        cfg = HiggsConfig(degrees=(degree,), exponents=(exponent,), tau=tau)
        _, report = solve_gravitating(cfg, ContinuationSchedule(alphas=alphas), build_grid(n))
        assert report.converged
        assert [b for b, _ in decisions] == [gap for _, gap in decisions]
        assert any(b for b, _ in decisions)
        assert len(decisions) == sum(step.iterations for step in report.steps)


class TestContinuationSchedule:
    @pytest.mark.parametrize(
        "alphas, message",
        [
            ((0.0, math.nan), "schedule entry must be a finite number, got nan"),
            ((0.0, math.inf), "schedule entry must be a finite number, got inf"),
            (
                (0, 10**400),
                "schedule entry must be a finite number, got an integer too large for a float",
            ),
            ((0.0, "0.05"), "schedule entries must be numbers, got '0.05'"),
            ("0", "schedule must be a list of numbers, got '0'"),
            (0.0, "schedule must be a list of numbers, got 0.0"),
        ],
    )
    def test_invalid_schedule_rejected(self, alphas, message):
        with pytest.raises(ConfigurationError) as err:
            ContinuationSchedule(alphas=alphas)
        assert str(err.value) == message


class TestEinsteinBogomolnyi:
    def test_finds_zero_constant_coupling(self, grid, symmetric_config):
        result = einstein_bogomolnyi_solve(symmetric_config, grid)
        assert result.converged
        assert abs(result.c_value) <= 1e-8
        # conventions-derived prediction alpha tau N = 2; quoted alternative is 1
        assert result.alpha_tau_N == pytest.approx(2.0, abs=1e-6)
        assert result.predictions["alpha_tau_N"] == result.alpha_tau_N
        assert "quoted" in result.predictions and "conventions" in result.predictions

    def test_failed_search_state_is_the_reported_coupling(self, symmetric_config):
        # at n = 513 both evaluations stop on the round-off floor, above this
        # tolerance, so no continuation converged and the result describes alpha = 0
        result = einstein_bogomolnyi_solve(
            symmetric_config, build_grid(513), NewtonOptions(tolerance=1e-12)
        )
        assert not result.converged
        assert [c for _, c in result.secant_history] == [None, None]
        assert result.state.alpha == result.alpha_star == 0.0
        assert result.c_value is None

    def test_state_alpha_is_alpha_star(self, grid, symmetric_config):
        # alpha_star here is 0.20000000000000015, whose k = 5 schedule would
        # end one ulp lower at alpha_star * 5 / 5 = 0.20000000000000012
        result = einstein_bogomolnyi_solve(symmetric_config, grid)
        assert result.converged
        assert result.state.alpha == result.alpha_star

    @pytest.mark.parametrize("n", [65, 129, 257, 513])
    def test_state_is_the_continuation_along_its_schedule(self, symmetric_config, n):
        grid = build_grid(n)
        result = einstein_bogomolnyi_solve(symmetric_config, grid)
        assert result.converged
        schedule = ContinuationSchedule(alphas=_schedule_to(result.alpha_star))
        state, _ = solve_gravitating(symmetric_config, schedule, grid)
        assert np.array_equal(result.state.metric.u, state.metric.u)
        assert np.array_equal(result.state.bundle.v, state.bundle.v)
        assert result.state.c_value == state.c_value == result.c_value
        assert result.state.alpha == state.alpha == result.alpha_star

    def test_each_lattice_coupling_solved_once(self, monkeypatch, grid, symmetric_config):
        solved = []

        class Recording(_CoupledSystem):
            def __init__(self, grid, config, alpha, symmetric):
                solved.append(alpha)
                super().__init__(grid, config, alpha, symmetric)

        monkeypatch.setattr(gravitating, "_CoupledSystem", Recording)
        result = einstein_bogomolnyi_solve(symmetric_config, grid)
        assert result.converged and len(result.secant_history) == 3
        # every coupling of the three schedules, each once and in increasing order
        wanted = set().union(*(_schedule_to(a) for a, _ in result.secant_history))
        assert solved == sorted(wanted)
        assert solved[:4] == [0.0, 0.05, 0.1, 0.15000000000000002]

    @pytest.mark.parametrize("target", [0.20000000000000015, 0.05, 1.0 / 3.0, 0.7, 1e-3])
    def test_schedule_ends_at_its_target(self, target):
        alphas = _schedule_to(target)
        assert alphas[0] == 0.0 and alphas[-1] == target
        steps = np.diff(alphas)
        assert np.all(steps > 0.0) and np.all(steps <= 0.05 * (1.0 + 1e-12))

    def test_c_affine_in_alpha_at_fixed_state(self, grid, solved):
        state, _ = solved
        cfg0 = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
        values = []
        for alpha in (0.0, 0.1, 0.2):
            probe = GravitatingState(
                metric=state.metric, bundle=state.bundle, c_value=0.0, alpha=alpha
            )
            _, _, c_est = gravitating_residual(grid, probe, cfg0)
            values.append(c_est)
        assert values[2] - values[1] == pytest.approx(values[1] - values[0], abs=1e-9)

    def test_predictions_dictionary(self, symmetric_config):
        preds = c_predictions(symmetric_config, alpha=0.2)
        assert preds["alpha_tau_N"] == pytest.approx(2.0)
        assert preds["conventions"] == pytest.approx(0.0)
        assert preds["quoted"] == pytest.approx(-2.0)


class TestGeneralFormCrossCheck:
    def test_first_equation_identical(self, grid, solved):
        state, _ = solved
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
        r1, _, _ = gravitating_residual(grid, state, cfg)
        r1p, _ = general_coupled_residual(grid, state, cfg)
        dev = r1p - r1
        assert np.max(np.abs(dev - dev.mean())) <= 1e-12

    def test_second_equation_differs_by_first_residual(self, grid):
        # R2'_full = R2_full - 2 alpha tau R1 exactly, at any state
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0, alpha=0.3)
        rng = np.random.default_rng(17)
        metric = normalize_volume(grid, 0.2 * np.sin(grid.nodes))
        state = GravitatingState(
            metric=metric,
            bundle=BundleMetricPotential(0.15 * np.cos(2 * grid.nodes)),
            c_value=0.0,
            alpha=0.3,
        )
        r1, r2, _ = gravitating_residual(grid, state, cfg)
        _, r2p = general_coupled_residual(grid, state, cfg)
        correction = -2.0 * 0.3 * 5.0 * r1
        correction -= integrate(grid, metric, correction) / volume(grid, metric)
        assert np.max(np.abs(r2p - (r2 + correction))) <= 1e-12

    def test_alpha_zero_reduces_to_curvature_deviation(self, grid):
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0, alpha=0.0)
        metric = normalize_volume(grid, 0.1 * np.cos(grid.nodes))
        state = GravitatingState(
            metric=metric,
            bundle=BundleMetricPotential(np.zeros(grid.n)),
            c_value=0.0,
            alpha=0.0,
        )
        from gravortex import scalar_curvature

        _, r2p = general_coupled_residual(grid, state, cfg)
        s_field = scalar_curvature(grid, metric).s_field
        expected = s_field - integrate(grid, metric, s_field) / volume(grid, metric)
        assert np.max(np.abs(r2p - expected)) <= 1e-12

    def test_scaling_linear_in_alpha(self, grid):
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
        metric = normalize_volume(grid, 0.1 * np.cos(grid.nodes))
        bundle = BundleMetricPotential(0.05 * grid.nodes**2)

        def coupling_part(alpha):
            state = GravitatingState(
                metric=metric, bundle=bundle, c_value=0.0, alpha=alpha
            )
            _, r2p = general_coupled_residual(grid, state, cfg)
            base = GravitatingState(metric=metric, bundle=bundle, c_value=0.0, alpha=0.0)
            _, r2p0 = general_coupled_residual(grid, base, cfg)
            return r2p - r2p0

        once = coupling_part(0.2)
        twice = coupling_part(0.4)
        assert np.max(np.abs(twice - 2.0 * once)) <= 1e-12
