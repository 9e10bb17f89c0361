"""Coupled solver, continuation, EB solve, zero-constant reduction, general-form cross-check."""

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
    higgs_profile,
    integrate,
    laplacian,
    normalize_volume,
    scalar_curvature,
    solve_gravitating,
    solve_vortex,
    volume,
)
from gravortex import gravitating
from gravortex.geometry import fold_even, unfold_even
from gravortex.gravitating import (
    _CoupledSystem,
    _EinsteinBogomolnyiSystem,
    c_from_integral_identity,
    c_predictions,
)
from gravortex.obstructions import moment_map_form
from gravortex.vortex import bundle_curvature, vortex_equation

TWO_PI = 2.0 * math.pi


def schedule_to(alpha_target):
    """The multiples of 0.05 below alpha_target, then alpha_target: a continuation to an EB state."""
    lattice = (0.05 * k for k in range(math.ceil(alpha_target / 0.05) + 1))
    return ContinuationSchedule(alphas=(*(a for a in lattice if a < alpha_target), alpha_target))


def polished(grid, config, alpha, state):
    """(u, v) after one full coupled Newton step at alpha from a continuation state."""
    system = _CoupledSystem(grid, config, alpha, symmetric=True)
    x = np.concatenate([state.metric.u, state.bundle.v, [state.c_value]])
    x = x + system.newton_step(x, system.evaluate(x))
    return x[: grid.n], x[grid.n : 2 * grid.n]


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

    def test_overridden_full_space_step_stops_named(self):
        # 2l != N: the alpha > 0 step runs in full space, reached only with
        # the override of the Futaki obstruction; it does not converge
        cfg = HiggsConfig(degrees=(3,), exponents=(1,), tau=7.0)
        state, report = solve_gravitating(
            cfg, ContinuationSchedule(alphas=(0.0, 0.05)), build_grid(65),
            override_obstruction=True,
        )
        first, second = report.steps
        assert first.converged and not report.converged
        assert second.alpha == 0.05 and not second.converged
        assert second.stop_reason in ("max_iter", "line_search_stall")
        assert second.u is None and second.v is None
        assert state.alpha == 0.0 and state.c_value == 4.0
        assert np.array_equal(state.bundle.v, first.v)

    def test_infeasible_window_raises(self, grid):
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=4.0)
        with pytest.raises(InfeasibleError):
            solve_gravitating(cfg, ContinuationSchedule(alphas=(0.0,)), grid)

    @pytest.mark.parametrize(
        "v0, error, message",
        [
            # one entry too many used to converge from a misaligned start
            (np.zeros(66), ConfigurationError, "initial guess resolution does not match"),
            (np.zeros(64), ConfigurationError, "initial guess resolution does not match"),
            (np.full(65, np.nan), NumericInputError, "initial guess contains non-finite"),
            (np.full(65, np.inf), NumericInputError, "initial guess contains non-finite"),
        ],
        ids=["long", "short", "nan", "inf"],
    )
    def test_bad_v0_rejected(self, symmetric_config, v0, error, message):
        schedule = ContinuationSchedule(alphas=(0.0,))
        with pytest.raises(error, match=message):
            solve_gravitating(symmetric_config, schedule, build_grid(65), v0=v0)

    @pytest.mark.usefixtures("fresh_grids")
    def test_parity_reduced_solve_builds_only_the_fold(self, symmetric_config):
        # the even-parity Jacobian folds the d1 factors, never the full Laplacian
        grid = build_grid(129)
        _, report = solve_gravitating(symmetric_config, ContinuationSchedule(alphas=(0.0,)), grid)
        assert report.converged
        assert "lap_fs_even" in vars(grid) and "lap_fs" not in vars(grid)

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
        # from zero: a fine solve without v0 would start from the coarse one
        s_f, r_f = solve_gravitating(
            symmetric_config, schedule, fine, v0=np.zeros(fine.n),
            newton=NewtonOptions(tolerance=1e-9),
        )
        assert r_c.converged and r_f.converged
        interp_u = coarse.prolong(s_c.metric.u, fine.n)
        assert np.max(np.abs(interp_u - s_f.metric.u)) <= 1e-7

    def test_degree_four_continuation_converges_at_n257(self):
        # from zero, the alpha = 0 solve ends close to the 1e-10 tolerance at
        # n = 257; a residual evaluated through the dense Laplacian stalls
        # above it.  Without v0 every step starts from the prolonged n = 129
        # step and lands on the same states.
        cfg = HiggsConfig(degrees=(4,), exponents=(2,), tau=9.0)
        schedule = ContinuationSchedule(alphas=tuple(k / 90 for k in range(6)))
        _, report = solve_gravitating(cfg, schedule, build_grid(257))
        _, zero_report = solve_gravitating(cfg, schedule, build_grid(257), v0=np.zeros(257))
        for rep in (report, zero_report):
            assert rep.converged
            assert [step.converged for step in rep.steps] == [True] * 6
        for step, zero_step in zip(report.steps, zero_report.steps):
            assert np.max(np.abs(step.u - zero_step.u)) <= 1e-12
            assert np.max(np.abs(step.v - zero_step.v)) <= 1e-12

    @pytest.mark.parametrize(
        "degree, tau, alphas, most",
        [(2, 5.0, [0.04 * k for k in range(6)], 13), (4, 9.0, [k / 90 for k in range(6)], 11)],
        ids=["N2-l1-tau5", "N4-l2-tau9"],
    )
    def test_extrapolated_starts(self, degree, tau, alphas, most):
        # each coupled step starts from the linear, then quadratic, extrapolation
        # of the last steps; started from the previous state they took 20 and 15
        cfg = HiggsConfig(degrees=(degree,), exponents=(degree // 2,), tau=tau)
        _, report = solve_gravitating(cfg, ContinuationSchedule(alphas=alphas), build_grid(129))
        assert report.converged
        assert sum(step.iterations for step in report.steps[1:]) <= most

    def test_nested_continuation_reports_every_alpha(self, symmetric_config):
        # the n = 513 floor lies below the default tolerance, so the solve
        # continues past alpha = 0; each fine step starts from the prolonged
        # n = 129 step at its own alpha and needs at most one Newton step
        schedule = ContinuationSchedule(alphas=(0.0, 0.05, 0.1))
        _, report = solve_gravitating(symmetric_config, schedule, build_grid(513))
        assert [step.alpha for step in report.steps] == list(schedule.alphas)
        assert report.converged and all(step.converged for step in report.steps)
        assert all(step.iterations <= 1 for step in report.steps)


ALPHA_ZERO_CONFIGS = [((2,), (1,), 5.0), ((4,), (2,), 9.0), ((3,), (1,), 7.0)]
ALPHA_ZERO_IDS = ["N2-l1-tau5", "N4-l2-tau9", "N3-l1-tau7"]


class TestAlphaZeroStep:
    """At alpha = 0 the round metric solves R2 exactly: the step is solve_vortex on it."""

    @pytest.mark.parametrize("n", [65, 129, 257, 513])
    @pytest.mark.parametrize("degrees, exponents, tau", ALPHA_ZERO_CONFIGS, ids=ALPHA_ZERO_IDS)
    def test_round_metric_vortex_solve(self, degrees, exponents, tau, n):
        grid = build_grid(n)
        cfg = HiggsConfig(degrees=degrees, exponents=exponents, tau=tau)
        state, report = solve_gravitating(cfg, ContinuationSchedule(alphas=(0.0,)), grid)
        pot, vortex_report = solve_vortex(grid, None, cfg)
        (step,) = report.steps
        assert np.all(state.metric.u == 0.0) and np.all(step.u == 0.0)
        assert state.c_value == step.c_est == 4.0
        assert np.array_equal(step.v, pot.v)
        if step.converged:
            assert np.array_equal(state.bundle.v, pot.v)
        assert (step.iterations, step.stop_reason) == (
            vortex_report.iterations,
            vortex_report.stop_reason,
        )
        # R1 is the vortex residual bit for bit, R2 vanishes and the volume row is round-off
        assert vortex_report.residual_sup <= step.residual_sup <= vortex_report.residual_sup + 1e-14

    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize(
        "degrees, exponents, tau", ALPHA_ZERO_CONFIGS[:2], ids=ALPHA_ZERO_IDS[:2]
    )
    def test_eb_search_starts_on_the_round_metric(self, monkeypatch, degrees, exponents, tau, n):
        # the reduced solve starts from the alpha = 0 vortex state, with the
        # constant of Psi that puts the volume row at zero
        starts, solve = [], _EinsteinBogomolnyiSystem.solve
        monkeypatch.setattr(
            _EinsteinBogomolnyiSystem,
            "solve",
            lambda system, x, opts: (starts.append((system, x)), solve(system, x, opts))[1],
        )
        cfg = HiggsConfig(degrees=degrees, exponents=exponents, tau=tau)
        grid = build_grid(n)
        result = einstein_bogomolnyi_solve(cfg, grid)
        assert result.converged and result.stop_reason == "converged"
        assert result.secant_history == [(result.alpha_star, result.c_value)]
        ((system, x),) = starts
        pot, _ = solve_vortex(grid, None, cfg)
        assert np.array_equal(x[:n], pot.v)
        assert abs(system.evaluate(x)[0][-1]) <= 1e-14

    @pytest.mark.parametrize(
        "degrees, exponents, tau, alphas",
        [((2,), (1,), 5.0, (0.0, 0.05, 0.1)), ((3,), (1,), 7.0, (0.0,))],
        ids=["symmetric", "asymmetric"],
    )
    def test_no_coupled_jacobian_at_alpha_zero(self, monkeypatch, degrees, exponents, tau, alphas):
        calls, linearization = [], _CoupledSystem.linearization

        def counting(system, x, evaluation):
            calls.append(x.shape)
            return linearization(system, x, evaluation)

        monkeypatch.setattr(_CoupledSystem, "linearization", counting)
        cfg = HiggsConfig(degrees=degrees, exponents=exponents, tau=tau)
        _, report = solve_gravitating(cfg, ContinuationSchedule(alphas=alphas), build_grid(65))
        assert report.converged and report.steps[0].iterations > 0
        assert len(calls) == sum(step.iterations for step in report.steps[1:])

    def test_v0_starts_the_alpha_zero_step(self, monkeypatch, symmetric_config):
        # v0 is the start of the vortex solve, and above n = 129 no coarse solve runs with it
        grid = build_grid(513)
        solved, _ = solve_vortex(grid, None, symmetric_config)
        built = []
        monkeypatch.setattr(gravitating, "build_grid", built.append)
        _, report = solve_gravitating(
            symmetric_config, ContinuationSchedule(alphas=(0.0, 0.05)), grid, v0=solved.v
        )
        assert built == []
        pot, vortex_report = solve_vortex(grid, None, symmetric_config, v0=solved.v)
        assert np.array_equal(report.steps[0].v, pot.v)
        assert report.steps[0].iterations == vortex_report.iterations


class TestGaugeAwareStep:
    """The coupled Newton step, one LU solve, where the linearization degenerates."""

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_alpha_zero_dilation_degeneracy(self, grid, symmetric):
        # at the round metric and alpha = 0 the odd dilation mode is an exact
        # null direction of the full-space system, and parity reduction
        # removes it; the continuation takes its alpha = 0 step with
        # solve_vortex instead, so no solve meets this Jacobian
        degree, exponent, tau = (2, 1, 5.0) if symmetric else (3, 1, 7.0)
        cfg = HiggsConfig(degrees=(degree,), exponents=(exponent,), tau=tau)
        system = _CoupledSystem(grid, cfg, 0.0, symmetric)
        x = np.concatenate([np.zeros(129), np.zeros(129), [4.0]])
        jac, _ = system.linearization(x, system.evaluate(x))
        sing = np.linalg.svd(jac, compute_uv=False)
        if symmetric:
            assert sing[-1] > 1e-8 * sing[0]
        else:
            assert sing[-1] < 1e-16 * sing[0] and sing[-2] > 1e-8 * sing[0]

    def test_n1025_ordinary_conditioning_does_not_border(self, symmetric_config):
        # sigma_min / sigma_max is below 1e-8 here without any degeneracy,
        # and the plain LU step must still converge.  The explicit v0
        # bypasses the coarse seed, and the tolerance sits above the n = 1025
        # floor, so the alpha > 0 steps run their Newton iterations at n = 1025.
        schedule = ContinuationSchedule(alphas=(0.0, 0.05, 0.1))
        n = 1025
        _, report = solve_gravitating(
            symmetric_config, schedule, build_grid(n), v0=np.zeros(n),
            newton=NewtonOptions(tolerance=1e-9),
        )
        assert report.converged
        assert all(step.iterations >= 1 for step in report.steps)

    def test_singular_jacobian_is_a_named_stop(self, monkeypatch, symmetric_config):
        # an exactly singular Jacobian makes the LU solve raise; the Newton
        # loop turns that into a stop, not a traceback
        def singular(system, x, evaluation):
            jac, rhs = linearization(system, x, evaluation)
            return np.zeros_like(jac), rhs

        linearization = _CoupledSystem.linearization
        monkeypatch.setattr(_CoupledSystem, "linearization", singular)
        schedule = ContinuationSchedule(alphas=(0.0, 0.05))
        _, report = solve_gravitating(symmetric_config, schedule, build_grid(65))
        assert [step.stop_reason for step in report.steps] == ["converged", "singular_jacobian"]
        assert not report.converged and report.steps[-1].iterations == 0
        assert report.steps[-1].u is None


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
        assert result.converged and result.stop_reason == "converged"
        assert abs(result.c_value) <= 1e-8
        # conventions-derived prediction alpha tau N = 2; quoted alternative is 1
        assert result.alpha_tau_N == pytest.approx(2.0, abs=1e-6)
        assert result.predictions["alpha_tau_N"] == result.alpha_tau_N
        assert "quoted" in result.predictions and "conventions" in result.predictions

    def test_failed_search_state_is_the_reported_coupling(self, symmetric_config):
        # at n = 513 the coupled step that verifies the prolonged n = 129
        # state stops on the round-off floor, above this tolerance
        result = einstein_bogomolnyi_solve(
            symmetric_config, build_grid(513), NewtonOptions(tolerance=1e-12)
        )
        assert not result.converged and result.stop_reason == "roundoff_floor"
        assert result.state.alpha == result.alpha_star == 0.2
        assert result.c_value is None
        assert result.secant_history == [(0.2, None)]

    def test_overridden_full_space_solve_stops_named(self):
        # 2l != N: the reduced step runs in full space, reached only with the
        # override of the Futaki obstruction; it stops on line_search_stall
        cfg = HiggsConfig(degrees=(3,), exponents=(1,), tau=7.0)
        result = einstein_bogomolnyi_solve(cfg, build_grid(65), override_obstruction=True)
        assert not result.converged
        assert result.stop_reason in ("line_search_stall", "max_iter")
        assert result.c_value is None and result.state.alpha == result.alpha_star

    def test_state_alpha_is_alpha_star(self, grid, symmetric_config):
        # alpha* = 4 / (2 tau N) in closed form; alpha* tau N is 2 to rounding
        result = einstein_bogomolnyi_solve(symmetric_config, grid)
        assert result.converged
        assert result.state.alpha == result.alpha_star == 4.0 / (2.0 * 5.0 * 2)
        assert abs(result.alpha_tau_N - 2.0) <= 4.0 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [65, 129, 257, 513])
    def test_state_is_the_continuation_along_its_schedule(self, symmetric_config, n):
        # the coupled continuation to alpha*, polished by one full Newton
        # step, is an independent check of the reduced solve
        grid = build_grid(n)
        result = einstein_bogomolnyi_solve(symmetric_config, grid)
        assert result.converged
        state, report = solve_gravitating(symmetric_config, schedule_to(result.alpha_star), grid)
        assert report.converged and state.alpha == result.alpha_star
        u, v = polished(grid, symmetric_config, result.alpha_star, state)
        assert np.max(np.abs(result.state.metric.u - u)) <= 1e-12
        assert np.max(np.abs(result.state.bundle.v - v)) <= 1e-12
        _, _, c_est = gravitating_residual(grid, result.state, symmetric_config)
        assert result.state.c_value == result.c_value == c_est
        assert abs(result.c_value) <= 1e-12

    def test_each_lattice_coupling_solved_once(self, monkeypatch, grid, symmetric_config):
        # alpha* is solved once: by the reduced solve up to n = 129, and
        # above it by one coupled step that verifies the prolonged state
        reduced, coupled = [], []
        solve, step = _EinsteinBogomolnyiSystem.solve, _CoupledSystem.solve
        monkeypatch.setattr(
            _EinsteinBogomolnyiSystem,
            "solve",
            lambda system, x, opts: (reduced.append(system.grid.n), solve(system, x, opts))[1],
        )
        monkeypatch.setattr(
            _CoupledSystem,
            "solve",
            lambda system, x, opts: (
                coupled.append((system.grid.n, system.alpha)),
                step(system, x, opts),
            )[1],
        )
        for fine in (grid, build_grid(257)):
            result = einstein_bogomolnyi_solve(symmetric_config, fine)
            assert result.converged and len(result.secant_history) == 1
        assert reduced == [129, 129]
        assert coupled == [(257, result.alpha_star)]

    @pytest.mark.parametrize(
        "degree, tau",
        [(n, tau) for n in (2, 4, 6, 8, 10) for tau in (2 * n + 1, 3 * n, 6 * n)],
        ids=lambda value: str(value),
    )
    def test_lattice_at_n129(self, degree, tau):
        # N in {2, ..., 10}, l = N / 2 and tau in {2N + 1, 3N, 6N}: every point
        # converged with one and two BLAS threads, Psi constant to 2.2e-15
        cfg = HiggsConfig(degrees=(degree,), exponents=(degree // 2,), tau=float(tau))
        grid = build_grid(129)
        result = einstein_bogomolnyi_solve(cfg, grid)
        assert abs(result.alpha_tau_N - 2.0) <= 4.0 * np.finfo(float).eps
        assert result.converged == (result.stop_reason == "converged")
        if not result.converged:
            assert result.stop_reason in ("roundoff_floor", "line_search_stall", "max_iter")
            assert result.c_value is None
            return
        u, v = result.state.metric.u, result.state.bundle.v
        assert np.ptp(psi(grid, cfg, result.alpha_star, u, v)) <= 1e-12
        assert abs(result.c_value) <= 1e-12

    @pytest.mark.parametrize("target", [0.20000000000000015, 0.05, 1.0 / 3.0, 0.7, 1e-3])
    def test_schedule_ends_at_its_target(self, target):
        # the schedule of the continuation cross-checks ends at alpha*
        alphas = schedule_to(target).alphas
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


def smooth_field(rng, grid, even):
    """A random Chebyshev series of degree 11 with decaying coefficients; even in s on request."""
    k = np.arange(12)
    coef = 0.4 * rng.standard_normal(12) / (1.0 + k) ** 2
    if even:
        coef[1::2] = 0.0
    return np.polynomial.chebyshev.chebval(grid.nodes, coef)


def psi(grid, config, alpha, u, v):
    """Psi = 2u - 2 alpha tau v + alpha |phi|^2_H, constant at the zero-constant coupling."""
    phi_sq = np.exp(2.0 * v) * higgs_profile(grid, config, 0)
    return 2.0 * u - 2.0 * alpha * float(config.tau) * v + alpha * phi_sq


class TestZeroConstantReduction:
    """R2 - 2 alpha tau R1 = e^{-2u} ((4 - 2 alpha tau N) + Delta_FS Psi) - c."""

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.37])
    @pytest.mark.parametrize("even", [True, False], ids=["even", "not-even"])
    def test_identity_on_random_smooth_fields(self, alpha, even):
        # the bound is 1e-13 times the size of the two terms on the left
        # (11 to 44 here); measured: at most 1.0e-12, 2.3e-14 of that size
        grid = build_grid(65)
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
        rng = np.random.default_rng(7)
        u, v = smooth_field(rng, grid, even), smooth_field(rng, grid, even)
        c = rng.uniform(-3.0, 3.0)
        if even:  # the even part, as the symmetric solver's iterates are
            u, v = unfold_even(fold_even(u)), unfold_even(fold_even(v))
        system = _CoupledSystem(grid, cfg, alpha, symmetric=even)
        (r1, r2, _), _ = system.equations(np.concatenate([u, v, [c]]))
        coupling = 2.0 * alpha * 5.0
        lap_psi = grid.apply_lap_fs(psi(grid, cfg, alpha, u, v))
        rhs = np.exp(-2.0 * u) * ((4.0 - coupling * cfg.degrees[0]) + lap_psi) - c
        scale = np.max(np.abs(r2)) + coupling * np.max(np.abs(r1))
        assert np.max(np.abs(r2 - coupling * r1 - rhs)) <= 1e-13 * scale

    @pytest.mark.parametrize(
        "degrees, exponents, tau", ALPHA_ZERO_CONFIGS[:2], ids=ALPHA_ZERO_IDS[:2]
    )
    def test_psi_constant_on_eb_states(self, degrees, exponents, tau):
        # Psi varies by at most 2.8e-13 at n = 129 and 257, and the prolonged
        # n = 129 state agrees with the n = 257 one to 3.6e-13; with the
        # divergence-form Laplacian the figures were 1.4e-9 and 5.5e-10
        cfg = HiggsConfig(degrees=degrees, exponents=exponents, tau=tau)
        states = []
        for n in (129, 257):
            grid = build_grid(n)
            result = einstein_bogomolnyi_solve(cfg, grid)
            assert result.converged
            u, v = result.state.metric.u, result.state.bundle.v
            assert np.ptp(psi(grid, cfg, result.alpha_star, u, v)) <= 1e-12
            states.append((grid, u, v))
        (coarse, u129, v129), (fine, u257, v257) = states
        assert np.max(np.abs(coarse.prolong(u129, 257) - u257)) <= 1e-12
        assert np.max(np.abs(coarse.prolong(v129, 257) - v257)) <= 1e-12
        # the n = 257 solve verifies the prolonged n = 129 state, so the check
        # above holds by construction; a continuation from zero on the fine
        # grid to the same alpha*, polished by one full Newton step, is
        # independent of it
        schedule = schedule_to(result.alpha_star)
        zero_state, zero_report = solve_gravitating(cfg, schedule, fine, v0=np.zeros(257))
        assert zero_report.converged
        zero_u, zero_v = polished(fine, cfg, result.alpha_star, zero_state)
        assert np.max(np.abs(zero_u - u257)) <= 1e-12
        assert np.max(np.abs(zero_v - v257)) <= 1e-12


def general_form(grid, state, config):
    """(R1', R2') of the general coupled form, built from Futaki's moment-map form G.

    R1' = i Lambda_omega F_H + (|phi|^2_H - tau) / 2 is R1 through the
    moment map of the circle action on the fiber; R2' is
    G = S_omega + alpha Delta_omega |phi|^2_H - 2 alpha tau i Lambda_omega F_H
    (:func:`~gravortex.obstructions.moment_map_form`) minus its omega-mean.
    Algebraically R2'_full = R2_full - 2 alpha tau R1.
    """
    tau = float(config.tau)
    phi_sq = np.exp(2.0 * state.bundle.v) * higgs_profile(grid, config, 0)
    curv = bundle_curvature(grid, state.metric.u, config.degrees[0], state.bundle.v)
    full = moment_map_form(
        scalar_curvature(grid, state.metric).s_field,
        float(state.alpha),
        laplacian(grid, state.metric, phi_sq),
        tau,
        curv,
    )
    mean = integrate(grid, state.metric, full) / volume(grid, state.metric)
    return vortex_equation(curv, phi_sq, tau), full - mean


class TestGeneralFormCrossCheck:
    def test_first_equation_identical(self, grid, solved):
        state, _ = solved
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
        r1, _, _ = gravitating_residual(grid, state, cfg)
        r1p, _ = general_form(grid, state, cfg)
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
        _, r2p = general_form(grid, state, cfg)
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
        _, r2p = general_form(grid, state, cfg)
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
            _, r2p = general_form(grid, state, cfg)
            base = GravitatingState(metric=metric, bundle=bundle, c_value=0.0, alpha=0.0)
            _, r2p0 = general_form(grid, base, cfg)
            return r2p - r2p0

        once = coupling_part(0.2)
        twice = coupling_part(0.4)
        assert np.max(np.abs(twice - 2.0 * once)) <= 1e-12
