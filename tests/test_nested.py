"""Nested coarse-to-fine solves above n = 129, and the named stop of every solve.

Without an initial guess, a solve on a grid finer than n = 129 starts from
the n = 129 solve, prolonged; each ladder test compares it with the same
solve started from zero on the fine grid.  The grids, the n = 129 one
among them, are shared per process, so their dense operators are filled
once however many solves read them.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from gravortex import (
    BundleMetricPotential,
    ContinuationSchedule,
    HiggsConfig,
    NewtonOptions,
    build_grid,
    einstein_bogomolnyi_solve,
    solve_gravitating,
    solve_vortex,
    vortex_residual,
)
from gravortex import geometry, gravitating
from gravortex.gravitating import _CoupledSystem
from gravortex.geometry import round_metric
from gravortex.vortex import _VortexSystem, damped_newton, roundoff_floor

CFG = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
ASYMMETRIC = HiggsConfig(degrees=(3,), exponents=(1,), tau=7.0)  # full-size Newton steps
DEGREE_FOUR = HiggsConfig(degrees=(4,), exponents=(2,), tau=9.0)
SCHEDULE = ContinuationSchedule(alphas=(0.0, 0.05, 0.1))
ACCEPTED = ("converged", "roundoff_floor")


def vortex_map(grid, cfg=CFG):
    return lambda v: vortex_residual(grid, None, BundleMetricPotential(v=v), cfg)


def ladder(cfg, name, xfails=()):
    """The ladder resolutions for cfg; ``xfails`` maps n to the stops measured there."""
    return [
        pytest.param(
            cfg,
            n,
            id=f"{name}-{n}" if name else str(n),
            marks=[pytest.mark.xfail(strict=False, reason=xfails[n])] if n in xfails else [],
        )
        for n in (257, 513, 1025)
    ]


# ROADMAP item 6: the 1e-10 nodal tolerance sits at the residual floor there
ASYMMETRIC_STOPS = {
    513: "one BLAS thread: the zero-started solve stops on line_search_stall, "
    "9.6e-12 from the nested one",
    1025: "the nested and zero-started solves differ by 1.4e-11 (one BLAS thread) and "
    "2.9e-11 (two); with one thread the zero-started solve stops on line_search_stall "
    "and the nested one takes 3 steps, with two the nested one stops on line_search_stall",
}


@pytest.mark.parametrize(
    "cfg, n", ladder(CFG, "") + ladder(ASYMMETRIC, "N3-l1-tau7", ASYMMETRIC_STOPS)
)
def test_vortex_ladder(cfg, n):
    grid = build_grid(n)
    pot, report = solve_vortex(grid, None, cfg)
    assert report.stop_reason in ACCEPTED
    assert report.converged == (report.stop_reason == "converged")
    # the n = 129 seeding solve is not counted
    assert report.iterations <= 2 and len(report.diagnostics) == report.iterations + 1
    residual = vortex_map(grid, cfg)
    floor = roundoff_floor(residual, pot.v, residual(pot.v))
    assert report.stop_reason == "converged" or report.residual_sup <= 4.0 * floor
    zero_pot, zero_report = solve_vortex(grid, None, cfg, v0=np.zeros(n))
    assert zero_report.stop_reason in ACCEPTED
    assert np.max(np.abs(pot.v - zero_pot.v)) <= 1e-12


@pytest.mark.parametrize("cfg, n", ladder(CFG, "") + ladder(DEGREE_FOUR, "N4-l2-tau9"))
def test_coupled_ladder(cfg, n):
    grid = build_grid(n)
    _, report = solve_gravitating(cfg, SCHEDULE, grid)
    _, zero_report = solve_gravitating(cfg, SCHEDULE, grid, v0=np.zeros(n))
    assert len(report.steps) == len(zero_report.steps)
    for step, zero_step in zip(report.steps, zero_report.steps):
        assert step.stop_reason in ACCEPTED and zero_step.stop_reason in ACCEPTED
        assert step.iterations <= 2
        system = _CoupledSystem(grid, cfg, step.alpha, symmetric=True)
        x = np.concatenate([step.u, step.v, [step.c_est]])
        floor = roundoff_floor(system.residual, x, system.residual(x))
        assert step.stop_reason == "converged" or step.residual_sup <= 4.0 * floor
        assert np.max(np.abs(step.u - zero_step.u)) <= 1e-12
        assert np.max(np.abs(step.v - zero_step.v)) <= 1e-12
    final = report.final_solve_report()
    assert final.stop_reason == report.steps[-1].stop_reason
    assert final.converged == (final.stop_reason == "converged")


@pytest.mark.usefixtures("fresh_grids")
def test_eb_search_fills_the_coarse_laplacian_once(monkeypatch):
    # the vortex start and the reduced solve of an n = 257 EB solve both run
    # on the one shared n = 129 grid, so its folded Laplacian is filled once
    fills = []
    rows = geometry._lap_fs_rows

    def counted(s, bary):
        fills.append(s.shape[0])
        return rows(s, bary)

    monkeypatch.setattr(geometry, "_lap_fs_rows", counted)
    result = einstein_bogomolnyi_solve(CFG, build_grid(257))
    assert result.converged and result.stop_reason == "converged"
    assert fills.count(129) == 1
    assert "lap_fs_even" in vars(build_grid(129)) and "lap_fs" not in vars(build_grid(129))


@pytest.mark.usefixtures("fresh_grids")
def test_states_do_not_depend_on_the_grid_cache():
    # a solve on grids that earlier solves filled gives the bits of a solve
    # from an empty cache
    def states():
        out = []
        for n in (129, 257):
            state, report = solve_gravitating(CFG, SCHEDULE, build_grid(n))
            result = einstein_bogomolnyi_solve(CFG, build_grid(n))
            out.append([state.metric.u, state.bundle.v, [state.c_value]])
            out.append([step.v for step in report.steps] + [step.u for step in report.steps])
            eb = result.state
            out.append([eb.metric.u, eb.bundle.v, [eb.c_value, result.alpha_star]])
        return out

    cold = states()
    warm = states()
    # the warm solves read operators that the cold ones filled
    assert "lap_fs_even" in vars(build_grid(129)) and "d1" in vars(build_grid(257))
    for cold_arrays, warm_arrays in zip(cold, warm):
        assert all(np.array_equal(a, b) for a, b in zip(cold_arrays, warm_arrays, strict=True))


@pytest.fixture
def step_calls(monkeypatch):
    """The (n, alpha) of every continuation step solved; ``stops`` relabels a step's stop."""
    calls, stops = [], {}

    def recorded(solve, alpha_of):
        def step(config, grid, *args):
            alpha = alpha_of(args)
            calls.append((grid.n, alpha))
            result = solve(config, grid, *args)
            stop = stops.get((grid.n, alpha))
            if stop is not None:
                result = dataclasses.replace(result, converged=False, stop_reason=stop)
            return result

        return step

    round_step = recorded(gravitating._round_step, lambda args: 0.0)
    coupled_step = recorded(gravitating._coupled_step, lambda args: args[0])
    monkeypatch.setattr(gravitating, "_round_step", round_step)
    monkeypatch.setattr(gravitating, "_coupled_step", coupled_step)
    return calls, stops


def test_coarse_steps_only_up_to_the_fine_stop(step_calls):
    # a fine continuation that stops at alpha = 0 solves no coarse step past it
    calls, stops = step_calls
    stops[257, 0.0] = "max_iter"
    steps = list(gravitating._continue(CFG, build_grid(257), SCHEDULE.alphas, NewtonOptions(), None))
    assert [step.stop_reason for step in steps] == ["max_iter"]
    assert calls == [(129, 0.0), (257, 0.0)]


def test_no_coarse_step_solved_twice(step_calls):
    # the coarse continuation runs in step with the fine one; its alpha =
    # 0.05 step stops on its floor, seeds its fine step and ends the coarse
    # continuation, so the fine alpha = 0.1 step has no coarse start
    calls, stops = step_calls
    stops[129, 0.05] = "roundoff_floor"
    alphas = (*SCHEDULE.alphas, 0.15)
    steps = list(gravitating._continue(CFG, build_grid(257), alphas, NewtonOptions(), None))
    assert [step.stop_reason for step in steps] == ["converged"] * 4
    assert calls == [(129, 0.0), (257, 0.0), (129, 0.05), (257, 0.05), (257, 0.1), (257, 0.15)]


@pytest.mark.parametrize(
    "n, alphas",
    [(65, tuple(0.04 * k for k in range(6))), (513, SCHEDULE.alphas)],
    ids=["n65-to-zero-constant", "n513-prolonged"],
)
def test_symmetric_steps_are_exactly_even(n, alphas):
    # every step of a 2l = N continuation keeps an even iterate bit for bit;
    # at n = 513 the fine steps start from the prolonged n = 129 steps
    _, report = solve_gravitating(CFG, ContinuationSchedule(alphas=alphas), build_grid(n))
    assert [step.alpha for step in report.steps] == list(alphas)
    for step in report.steps:
        assert step.stop_reason in ACCEPTED
        assert np.array_equal(step.u, step.u[::-1])
        assert np.array_equal(step.v, step.v[::-1])


@pytest.mark.parametrize("scale", (1e-14, -1e-14))
def test_planted_stall_is_not_a_floor_stop(scale):
    # steps of round-off size on a large residual, downhill or uphill: the
    # increment test passes, but the residual is nowhere near its floor
    grid = build_grid(129)
    system = _VortexSystem(grid, round_metric(grid), CFG, symmetric=False)

    def tiny_step(v, evaluation):
        return scale * np.linalg.solve(system.jacobian(v, None), -evaluation[0])

    # start away from zero, where one-ulp perturbations are denormal and the
    # floor estimate would vanish
    _, history, stop_reason, _ = damped_newton(
        np.full(grid.n, 0.5), system.evaluate, tiny_step, NewtonOptions(max_iter=5)
    )
    assert history[-1] > 0.1
    assert stop_reason in ("line_search_stall", "max_iter")


def test_large_step_on_the_floor_is_a_line_search_stall():
    # the residual is on its floor, but the failed step is not round-off
    grid = build_grid(129)
    pot, _ = solve_vortex(grid, None, CFG)
    system = _VortexSystem(grid, round_metric(grid), CFG, symmetric=False)
    _, _, stop_reason, iterations = damped_newton(
        pot.v, system.evaluate, lambda v, _: np.ones_like(v), NewtonOptions(tolerance=1e-15)
    )
    assert (stop_reason, iterations) == ("line_search_stall", 0)


def test_overflowing_trials_are_halved_silently():
    # a planted 2^16-fold Newton step from the alpha = 0 vortex state: its
    # first trials overflow exp(2u) (a 1024-fold one peaks near exp(105)),
    # and the coupled residual, which checks nothing, gives a non-finite
    # sup-norm that the line search halves, with no exception and no
    # floating-point warning; the step count is 8 with one BLAS thread and
    # 7 with two
    grid = build_grid(129)
    pot, _ = solve_vortex(grid, None, CFG)
    system = _CoupledSystem(grid, CFG, 0.05, True)
    sups = []

    def evaluate(x):
        evaluation = system.evaluate(x)
        sups.append(np.max(np.abs(evaluation[0])))
        return evaluation

    def planted_step(x, evaluation):
        return 2.0**16 * system.newton_step(x, evaluation)

    x = np.concatenate([np.zeros(grid.n), pot.v, [4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, stop_reason, _ = damped_newton(x, evaluate, planted_step, NewtonOptions())
    assert not np.isfinite(sups[1])  # the first trial
    assert stop_reason == "converged"


def test_volume_sum_that_overflows_gives_an_infinite_volume_row():
    # at u = 354.5 each term pi w exp(2u) of the volume row is finite but
    # their sum is not; math.fsum's OverflowError used to end damped_newton
    # from a line-search trial in this band instead of a halving
    grid = build_grid(129)
    x = np.concatenate([np.full(grid.n, 354.5), np.zeros(grid.n), [4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, _ = _CoupledSystem(grid, CFG, 0.05, True).evaluate(x)
    assert r[-1] == np.inf


def test_tolerance_below_the_floor_stops_on_the_floor():
    grid = build_grid(129)
    pot, report = solve_vortex(grid, None, CFG, NewtonOptions(tolerance=1e-15))
    assert report.stop_reason == "roundoff_floor" and not report.converged
    residual = vortex_map(grid)
    assert report.residual_sup <= 4.0 * roundoff_floor(residual, pot.v, residual(pot.v))


def test_non_finite_start_is_not_converged():
    # exp(800) overflows, and inf times the profile's zero at s = +-1 is NaN
    grid = build_grid(129)
    with np.errstate(over="ignore", invalid="ignore"):
        _, report = solve_vortex(grid, None, CFG, v0=np.full(grid.n, 400.0))
    assert not report.converged and report.stop_reason != "converged"
    assert np.isnan(report.residual_sup)


def test_max_iter_named():
    _, report = solve_vortex(build_grid(129), None, CFG, NewtonOptions(max_iter=1))
    assert report.stop_reason == "max_iter" and report.iterations == 1


@pytest.mark.parametrize("n", (65, 129, 257))
def test_acceptance_resolutions_converge(n):
    grid = build_grid(n)
    _, vortex_report = solve_vortex(grid, None, CFG)
    assert vortex_report.stop_reason == "converged"
    _, report = solve_gravitating(CFG, SCHEDULE, grid)
    assert [step.stop_reason for step in report.steps] == ["converged"] * 3
    assert report.final_solve_report().to_json_dict()["stop_reason"] == "converged"
