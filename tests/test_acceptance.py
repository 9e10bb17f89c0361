"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are pinned here; nothing is deferred to later
calibration.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from gravortex import (
    ContinuationSchedule,
    HiggsConfig,
    NewtonOptions,
    build_grid,
    classify_automorphisms,
    einstein_bogomolnyi_solve,
    futaki_exact,
    futaki_quadrature,
    gravitating_residual,
    higgs_profile,
    integrate,
    normalize_volume,
    scalar_curvature,
    solve_gravitating,
    solve_vortex,
)
from gravortex.bundles import saturation_degree
from gravortex.cli import EXIT_OBSTRUCTED, main
from gravortex.gravitating import c_from_integral_identity
from gravortex.quiver import gravitating_vortex_spec, quiver_vortex_residual
from gravortex.vortex import BundleMetricPotential, bundle_curvature, vortex_residual
from gravortex import Arrow, Quiver, trace_identity_check

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


def report(number, text):
    print(f"ACCEPTANCE {number:2d}: PASS - {text}")


def test_criterion_01_futaki_closed_form_reproduction():
    start = time.perf_counter()
    grid = build_grid(257)
    cfg = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=5.0, alpha=1.0)
    zeros = np.zeros(257)
    quad = futaki_quadrature(grid, cfg, zeros, [zeros, zeros])
    elapsed = time.perf_counter() - start
    rel = abs(quad - FOUR_PI) / FOUR_PI
    assert rel <= 1e-6, f"relative error {rel}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    report(1, f"quadrature {quad:.12f} vs 4*pi, rel err {rel:.2e}, {elapsed:.2f}s")


def test_criterion_02_futaki_metric_independence():
    grid = build_grid(257)
    cfg = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=5.0, alpha=1.0)
    rng = np.random.default_rng(2024)
    s = grid.nodes
    values = []
    for _ in range(5):
        u_raw = rng.uniform(-0.3, 0.3) * np.exp(
            -rng.uniform(1.0, 5.0) * (s - rng.uniform(-0.5, 0.5)) ** 2
        )
        metric = normalize_volume(grid, u_raw)
        v1 = rng.uniform(-0.2, 0.2) * np.sin(rng.integers(1, 4) * s)
        v2 = rng.uniform(-0.2, 0.2) * np.cos(rng.integers(1, 4) * s)
        values.append(
            futaki_quadrature(grid, cfg, metric.u, [v1, v2])
        )
    spread = (max(values) - min(values)) / FOUR_PI
    assert spread <= 1e-6, f"spread {spread}"
    report(2, f"5 random ansatz perturbations, relative spread {spread:.2e}")


def test_criterion_03_balanced_lattice_equivalence():
    start = time.perf_counter()
    checked = 0
    counterexamples = 0
    taus = [Fraction(k, 2) for k in range(1, 30)]
    for n1 in range(1, 7):
        for n2 in range(n1, 7):
            for l1 in range(n1 + 1):
                for l2 in range(n2 + 1):
                    for tau in taus:
                        if tau == 2 * n1 or tau == 2 * n2:
                            continue
                        closed = futaki_exact(
                            HiggsConfig(degrees=(n1, n2), exponents=(l1, l2), tau=tau)
                        )
                        balancing = Fraction(2 * l1 - n1, 1) / (2 * n2 - tau) + Fraction(
                            2 * l2 - n2, 1
                        ) / (2 * n1 - tau)
                        if (balancing == 0) != (closed == 0):
                            counterexamples += 1
                        checked += 1
    elapsed = time.perf_counter() - start
    assert counterexamples == 0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    report(3, f"{checked} rational lattice points, 0 counterexamples, {elapsed:.2f}s")


def test_criterion_04_abelian_vortex_solve():
    start = time.perf_counter()
    cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
    coarse = build_grid(129)
    pot, rep = solve_vortex(coarse, None, cfg)
    assert rep.converged and rep.iterations <= 15
    assert rep.residual_sup < 1e-10
    fine = build_grid(257)
    # from zero: a fine solve without v0 would start from the coarse one
    opts = NewtonOptions(tolerance=1e-9)
    pot_f, rep_f = solve_vortex(fine, None, cfg, opts, v0=np.zeros(fine.n))
    assert rep_f.converged
    agreement = np.max(np.abs(coarse.prolong(pot.v, fine.n) - pot_f.v))
    assert agreement <= 1e-8, f"two-resolution disagreement {agreement}"
    chern = integrate(coarse, None, bundle_curvature(coarse, None, 1, pot.v))
    assert abs(chern - TWO_PI) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        4,
        f"{rep.iterations} Newton steps, residual {rep.residual_sup:.1e}, "
        f"129-vs-257 agreement {agreement:.1e}, Chern defect "
        f"{abs(chern - TWO_PI):.1e}, {elapsed:.2f}s",
    )


def test_criterion_05_vortex_mean_identity():
    cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
    grid = build_grid(129)
    pot, rep = solve_vortex(grid, None, cfg)
    assert rep.converged
    mass = integrate(grid, None, np.exp(2 * pot.v) * higgs_profile(grid, cfg, 0))
    assert abs(mass - TWO_PI) <= 1e-7
    report(5, f"integral |phi|^2_H omega = {mass:.12f} vs 2*pi, defect {abs(mass - TWO_PI):.1e}")


def test_criterion_06_gravitating_continuation():
    start = time.perf_counter()
    cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
    grid = build_grid(129)
    schedule = ContinuationSchedule(alphas=(0.0, 0.02, 0.05, 0.1))
    state, rep = solve_gravitating(cfg, schedule, grid)
    assert rep.converged
    assert all(step.residual_sup <= 1e-9 for step in rep.steps)
    evenness = max(
        np.max(np.abs(state.metric.u - state.metric.u[::-1])),
        np.max(np.abs(state.bundle.v - state.bundle.v[::-1])),
    )
    assert evenness <= 1e-11
    _, _, c_est = gravitating_residual(grid, state, cfg)
    c_identity = c_from_integral_identity(grid, state, cfg)
    assert abs(c_est - c_identity) <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        6,
        f"4 continuation steps converged (max residual "
        f"{max(s.residual_sup for s in rep.steps):.1e}), evenness {evenness:.1e}, "
        f"|c_est - c_identity| {abs(c_est - c_identity):.1e}, {elapsed:.2f}s",
    )


def test_criterion_07_obstruction_gating(tmp_path):
    cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
    verdict = classify_automorphisms(cfg)
    assert verdict.kind == "non_reductive_borel" and verdict.obstruction
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "command": "solve-gravitating",
                "degrees": [1],
                "exponents": [0],
                "tau": 3,
                "n": 65,
                "schedule": [0, 0.05],
            }
        )
    )
    code = main(["--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_OBSTRUCTED
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["status"] == "obstructed"
    assert any("only one zero" in reason for reason in payload["reasons"])
    assert payload.get("continuation") is None  # Newton never started
    report(7, "single-zero config refused with exit 2 citing the one-zero condition")


def test_criterion_08_window_agreement():
    disagreements = 0
    checked = 0
    taus = [Fraction(k, 2) for k in range(1, 40)]
    for n1 in range(1, 7):
        for n2 in range(n1, 7):
            for l1 in range(n1 + 1):
                for l2 in range(n2 + 1):
                    cfg = HiggsConfig(degrees=(n1, n2), exponents=(l1, l2), tau=1.0)
                    sat = saturation_degree(cfg)
                    reduced = n1 + n2 - min(l1, l2) - min(n1 - l1, n2 - l2)
                    for tau in taus:
                        full = 2 * n2 < tau < 2 * (n1 + n2 - sat)
                        red = 2 * n2 < tau < 2 * reduced
                        if full != red:
                            disagreements += 1
                        checked += 1
    assert disagreements == 0
    report(8, f"window forms agree on all {checked} monomial lattice points")


def test_criterion_09_quiver_a2_equivalence():
    grid = build_grid(129)
    n_deg, ell, tau, alpha = 2, 1, 5.0, 0.1
    spec = gravitating_vortex_spec(n_deg, ell, tau, alpha)
    cfg = HiggsConfig(degrees=(n_deg,), exponents=(ell,), tau=tau, alpha=alpha)
    v = 0.2 * np.sin(2.0 * grid.nodes)
    res = quiver_vortex_residual(spec, {"src": np.zeros(grid.n), "dst": v}, None, grid)
    abelian = vortex_residual(grid, None, BundleMetricPotential(v), cfg)
    deviation = np.max(np.abs(res.vertex_residuals["dst"] - abelian))
    assert deviation <= 1e-12
    report(9, f"one-arrow quiver vs abelian vortex residual, sup deviation {deviation:.1e}")


def test_criterion_10_trace_identity():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        n_vertices = int(rng.integers(2, 5))
        vertices = tuple(f"v{i}" for i in range(n_vertices))
        arrows = tuple(
            Arrow(
                name=f"a{i}",
                tail=vertices[rng.integers(0, n_vertices)],
                head=vertices[rng.integers(0, n_vertices)],
            )
            for i in range(int(rng.integers(1, 6)))
        )
        quiver = Quiver(vertices=vertices, arrows=arrows)
        ranks = {v: int(rng.integers(1, 4)) for v in vertices}
        phi = {
            a.name: rng.normal(size=(ranks[a.head], ranks[a.tail]))
            + 1j * rng.normal(size=(ranks[a.head], ranks[a.tail]))
            for a in arrows
        }
        herm = {}
        for v in vertices:
            m = rng.normal(size=(ranks[v], ranks[v])) + 1j * rng.normal(
                size=(ranks[v], ranks[v])
            )
            herm[v] = m @ m.conj().T + ranks[v] * np.eye(ranks[v])
        sigma = {v: float(rng.uniform(0.5, 3.0)) for v in vertices}
        tau = {v: float(rng.uniform(-2.0, 2.0)) for v in vertices}
        outcome = trace_identity_check(quiver, phi, herm, sigma, tau)
        scale = max(1.0, abs(outcome.lhs), abs(outcome.rhs))
        worst = max(worst, outcome.defect / scale)
    assert worst <= 1e-12
    report(10, f"20 random synthetic instances, worst relative defect {worst:.1e}")


def test_criterion_11_geometry_invariants():
    grid = build_grid(129)
    rng = np.random.default_rng(64)
    worst_gb = 0.0
    for _ in range(20):
        bump = rng.uniform(-0.4, 0.4) * np.exp(
            -rng.uniform(1.0, 6.0) * (grid.nodes - rng.uniform(-0.7, 0.7)) ** 2
        )
        metric = normalize_volume(grid, bump)
        total = scalar_curvature(grid, metric).total
        worst_gb = max(worst_gb, abs(total - 4 * TWO_PI) / (4 * TWO_PI))
    assert worst_gb <= 1e-8

    from gravortex import laplacian

    worst_sa = 0.0
    metric = normalize_volume(grid, 0.3 * np.exp(-3 * (grid.nodes - 0.2) ** 2))
    for _ in range(5):
        f = rng.uniform(0.5, 1) * np.sin(rng.integers(1, 4) * grid.nodes + rng.uniform(0, 2))
        g = rng.uniform(0.5, 1) * np.cos(rng.integers(1, 4) * grid.nodes + rng.uniform(0, 2))
        lhs = integrate(grid, metric, f * laplacian(grid, metric, g))
        rhs = integrate(grid, metric, g * laplacian(grid, metric, f))
        # scale by the integrand magnitude so cancellation does not inflate it
        scale = integrate(grid, metric, np.abs(f * laplacian(grid, metric, g)))
        worst_sa = max(worst_sa, abs(lhs - rhs) / max(scale, 1e-30))
    assert worst_sa <= 1e-9

    worst_chern = 0.0
    for _ in range(20):
        n_deg = int(rng.integers(1, 4))
        bump = rng.uniform(-0.3, 0.3) * np.exp(
            -rng.uniform(1.0, 5.0) * (grid.nodes - rng.uniform(-0.5, 0.5)) ** 2
        )
        metric = normalize_volume(grid, bump)
        v = rng.uniform(-0.3, 0.3) * np.cos(rng.integers(1, 5) * grid.nodes)
        total = integrate(grid, metric, bundle_curvature(grid, metric, n_deg, v))
        worst_chern = max(worst_chern, abs(total - TWO_PI * n_deg))
    assert worst_chern <= 1e-8
    report(
        11,
        f"Gauss-Bonnet rel {worst_gb:.1e}, self-adjointness rel {worst_sa:.1e}, "
        f"Chern defect {worst_chern:.1e}",
    )


def test_criterion_12_einstein_bogomolnyi_mode():
    grid = build_grid(129)
    cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
    result = einstein_bogomolnyi_solve(cfg, grid)
    assert result.converged
    assert abs(result.c_value) <= 1e-8
    payload = result.to_json_dict()
    assert "alpha_tau_N" in payload
    assert "quoted" in payload["predictions"]
    assert "conventions" in payload["predictions"]
    # the two predictions disagree by construction; documented, not asserted equal
    assert payload["predictions"]["quoted"] != payload["predictions"]["conventions"]
    targets = payload["predictions"]["alpha_tau_N_at_zero_constant"]
    assert targets == {"quoted": 1.0, "conventions": 2.0}
    report(
        12,
        f"alpha* = {result.alpha_star:.9f}, |c| = {abs(result.c_value):.1e}, "
        f"alpha*tau*N = {result.alpha_tau_N:.9f} "
        f"(quoted prediction 1, conventions-derived 2)",
    )
