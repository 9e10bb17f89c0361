"""Existence obstructions: Futaki character, balancing, windows, stability.

The Futaki character is evaluated on the generator that scales the affine
coordinate and fixes the monomial Higgs data.  Its vertical part with
respect to the Chern connection of H_j = H_FS exp(2 v_j) is

    psi_j(s) = l_j - N_j (1+s)/2 + (1-s^2) v_j'(s),

its base part decomposes through the Hamiltonian potential of the rotation
field (mean-normalized, s/2 on the round metric), and the value is

    F = 4 alpha * integral sum_j psi_j m_j omega - integral h G omega,

with m_j = i Lambda F_{H_j} + |phi_j|^2_H / 2 - tau/2 the first-equation
residuals and G = S_omega + alpha Delta_omega |phi|^2_H
- 2 alpha tau Tr(i Lambda F_H) the moment-map form of the second.  The
value is purely imaginary; functions here return its imaginary part.  For
monomial Higgs data of either rank (one or two split components) the
closed form is

    2 pi alpha sum_j (2 N_j - tau)(2 l_j - N_j),

and the quadrature is independent of the chosen volume-normalized ansatz.
One closed form (:func:`futaki_exact`, :func:`futaki_closed_form`) and one
quadrature (:func:`futaki_quadrature`) serve both ranks.

All inequality predicates (solvability windows, balancing, z-stability)
are evaluated in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bundles import (
    HiggsConfig,
    classify_automorphisms,
    divisor_gcd_degree,
    higgs_divisor,
    higgs_profile,
    AutVerdict,
)
from .errors import ConfigurationError, PoleError
from .geometry import (
    AxisymGrid,
    ConformalMetric,
    hamiltonian_potential,
    integrate,
    laplacian,
    scalar_curvature,
    volume,
)
from .vortex import bundle_curvature, vortex_equation

VOLUME_TOLERANCE = 1e-8


def futaki_exact(config: HiggsConfig) -> Fraction:
    """sum_j (2 N_j - tau)(2 l_j - N_j): the closed form divided by 2 pi alpha.

    Exact for either rank; it vanishes when every exponent is symmetric,
    2 l_j = N_j.
    """
    if None in config.exponents:
        raise ConfigurationError("closed form requires every Higgs component nonzero")
    # expanded as sum_j 2 N_j a_j - tau sum_j a_j with a_j = 2 l_j - N_j, so
    # that only one product is rational
    asym = [2 * ell - n_deg for n_deg, ell in zip(config.degrees, config.exponents)]
    integer_part = sum(2 * n_deg * t for n_deg, t in zip(config.degrees, asym))
    return integer_part - config.tau_fraction * sum(asym)


def futaki_closed_form(config: HiggsConfig) -> float:
    """Imaginary part of the Futaki character, 2 pi alpha times :func:`futaki_exact`."""
    return 2.0 * math.pi * float(config.alpha) * float(futaki_exact(config))


def abelian_coupled_obstructions(config: HiggsConfig, alpha: float) -> list[str]:
    """Reasons the abelian coupled equations at coupling alpha have no solution.

    A single-zero Higgs field has a non-reductive automorphism group at every
    coupling; at alpha > 0 a nonzero Futaki character obstructs as well.
    Both are decided in exact arithmetic.
    """
    reasons = []
    if classify_automorphisms(higgs_divisor(config)).obstruction:
        reasons.append(
            "the Higgs field has only one zero, so the automorphism group is "
            "non-reductive (C* x| C) and the coupled equations admit no solution"
        )
    futaki = futaki_exact(config)
    if alpha > 0 and futaki != 0:
        reasons.append(
            "the Futaki character 2 pi alpha (2N - tau)(2l - N) = "
            f"2 pi alpha ({futaki}) is nonzero at alpha={alpha}, so the coupled "
            "equations admit no solution"
        )
    return reasons


def _require_normalized(grid: AxisymGrid, metric: ConformalMetric) -> None:
    vol = volume(grid, metric)
    if abs(vol - metric.vol_target) > VOLUME_TOLERANCE * metric.vol_target:
        raise ConfigurationError(
            "ansatz must be volume-normalized before evaluating the character "
            f"(volume {vol!r}, target {metric.vol_target!r})"
        )


def moment_map_form(
    s_field: np.ndarray,
    alpha: float,
    lap_phi_sq: np.ndarray,
    tau: float,
    curv_trace: np.ndarray,
) -> np.ndarray:
    """G = S_omega + alpha Delta_omega |phi|^2_H - 2 alpha tau Tr(i Lambda F_H).

    ``lap_phi_sq`` is the applied term Delta_omega |phi|^2_H.
    """
    return s_field + alpha * lap_phi_sq - 2.0 * alpha * tau * curv_trace


def futaki_quadrature(
    grid: AxisymGrid, config: HiggsConfig, u: np.ndarray, potentials
) -> float:
    """Numerical Futaki character at the ansatz (u, v_1, ..., v_rank).

    ``potentials`` holds one bundle potential per Higgs component.  The
    value is independent of the volume-normalized ansatz and matches
    :func:`futaki_closed_form` to quadrature accuracy.
    """
    if None in config.exponents:
        raise ConfigurationError("quadrature requires every Higgs component nonzero")
    if len(potentials) != config.rank:
        raise ConfigurationError(
            f"quadrature needs one potential per component, got {len(potentials)} "
            f"for rank {config.rank}"
        )
    metric = ConformalMetric(u=np.asarray(u, dtype=float))
    _require_normalized(grid, metric)
    s = grid.nodes
    tau = float(config.tau)
    alpha = float(config.alpha)
    ham = hamiltonian_potential(grid, metric)

    pairing_sum = np.zeros(grid.n)
    curv_trace = np.zeros(grid.n)
    phi_sq_total = np.zeros(grid.n)
    for j, vj in enumerate(potentials):
        vj = np.asarray(vj, dtype=float)
        n_deg = config.degrees[j]
        ell = config.exponents[j]
        profile = higgs_profile(grid, config, j)
        phi_sq = np.exp(2.0 * vj) * profile
        curv = bundle_curvature(grid, metric, n_deg, vj)
        m_j = vortex_equation(curv, phi_sq, tau)
        psi_j = ell - n_deg * (1.0 + s) / 2.0 + (1.0 - s * s) * (grid.d1 @ vj)
        pairing_sum += psi_j * m_j
        curv_trace += curv
        phi_sq_total += phi_sq

    g_field = moment_map_form(
        scalar_curvature(grid, metric).s_field,
        alpha,
        laplacian(grid, metric, phi_sq_total),
        tau,
        curv_trace,
    )
    return 4.0 * alpha * integrate(grid, metric, pairing_sum) - integrate(
        grid, metric, ham * g_field
    )


def balancing_condition(config: HiggsConfig) -> tuple[Fraction, bool]:
    """Exact value and vanishing of the rank-2 balancing sum.

    (2 l1 - N1)/(2 N2 - tau) + (2 l2 - N2)/(2 N1 - tau); a vanishing sum is
    necessary for solutions of the coupled rank-2 system inside the window.
    """
    config.require_rank2("balancing_condition")
    if any(e is None for e in config.exponents):
        raise ConfigurationError("balancing requires both Higgs components nonzero")
    (n1, n2), (l1, l2) = config.degrees, config.exponents
    tau = config.tau_fraction
    for nj in (n1, n2):
        if tau == 2 * nj:
            raise PoleError(f"balancing denominator 2N - tau vanishes at N={nj}")
    lhs = Fraction(2 * l1 - n1, 1) / (2 * n2 - tau) + Fraction(2 * l2 - n2, 1) / (
        2 * n1 - tau
    )
    return lhs, lhs == 0


# ---------------------------------------------------------------------------
# stability report


@dataclass
class StabilityReport:
    """Aggregate of every computable existence predicate for a configuration.

    ``reasons`` quotes the mathematical condition responsible for each
    obstruction; ``obstructed`` is True when some no-go fired inside the
    applicable window.
    """

    config_echo: dict
    abelian_window: bool | None = None
    nonabelian_window: bool | None = None
    reduced_window: bool | None = None
    z_stable: bool | None = None
    z_witness: dict | None = None
    balanced: bool | None = None
    balancing_lhs: str | None = None
    futaki_value: float | None = None
    matsushima: AutVerdict | None = None
    saturation_degree: int | None = None
    obstructed: bool = False
    verdict: str = ""
    reasons: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        out = {
            "config": self.config_echo,
            "abelian_window": self.abelian_window,
            "nonabelian_window": self.nonabelian_window,
            "reduced_window": self.reduced_window,
            "z_stable": self.z_stable,
            "z_witness": self.z_witness,
            "balanced": self.balanced,
            "balancing_lhs": self.balancing_lhs,
            "futaki_value": self.futaki_value,
            "matsushima": (
                {"kind": self.matsushima.kind, "obstruction": self.matsushima.obstruction}
                if self.matsushima
                else None
            ),
            "saturation_degree": self.saturation_degree,
            "obstructed": self.obstructed,
            "verdict": self.verdict,
            "reasons": list(self.reasons),
        }
        return out


def z_stability_check(config: HiggsConfig) -> tuple[bool, dict | None]:
    """Slope inequality over the candidate subbundles of the split pair.

    For a split rank-2 bundle the supremum of deg V' + tau rk(L cap V') over
    line subbundles is attained either on the larger split factor (no
    containment of the image line) or on the saturation [phi]; both split
    factors are listed for transparency.  The comparison is
    (deg V' + tau rk)/1 < (N1 + N2 + tau)/2 in exact rationals.
    """
    config.require_rank2("z_stability_check")
    (n1, n2) = config.degrees
    tau = config.tau_fraction
    _, sat_degree = divisor_gcd_degree(config)
    bound = Fraction(n1 + n2) + tau
    candidates = [
        ("split factor O(N1)", Fraction(n1), 0),
        ("split factor O(N2)", Fraction(n2), 0),
        ("saturation [phi]", Fraction(sat_degree), 1),
    ]
    for name, deg, rk_int in candidates:
        slope = deg + tau * rk_int
        if not (2 * slope < bound):
            witness = {
                "subbundle": name,
                "degree": float(deg),
                "contains_image": bool(rk_int),
                "slope_with_tau": float(slope),
                "bound": float(bound / 2),
            }
            return False, witness
    return True, None


def stability_check(config: HiggsConfig) -> StabilityReport:
    """Evaluate every applicable predicate; a report is always produced."""
    echo = {
        "degrees": list(config.degrees),
        "exponents": list(config.exponents),
        "tau": config.tau,
        "alpha": config.alpha,
    }
    report = StabilityReport(config_echo=echo)
    tau = config.tau_fraction
    reasons = report.reasons
    if None not in config.exponents:
        report.futaki_value = futaki_closed_form(config)

    if config.is_abelian:
        n_deg = config.degrees[0]
        report.abelian_window = bool(tau > 2 * n_deg)
        if not report.abelian_window:
            report.obstructed = True
            reasons.append(
                f"the vortex window N < tau/2 fails: N={n_deg}, tau={config.tau}"
            )
        if config.exponents[0] is not None:
            report.matsushima = classify_automorphisms(higgs_divisor(config))
            coupled = abelian_coupled_obstructions(config, float(config.alpha))
            report.obstructed = report.obstructed or bool(coupled)
            reasons.extend(coupled)
        report.verdict = (
            "no solution of the coupled equations: " + "; ".join(reasons)
            if report.obstructed
            else "no obstruction found (vortex window holds, automorphisms "
            "reductive, Futaki character zero)"
        )
        return report

    (n1, n2) = config.degrees
    _, sat_degree = divisor_gcd_degree(config)
    report.saturation_degree = sat_degree
    report.nonabelian_window = bool(2 * n2 < tau < 2 * (n1 + n2 - sat_degree))
    l1, l2 = config.exponents
    reduced_bound = n1 + n2 - min(l1, l2) - min(n1 - l1, n2 - l2)
    report.reduced_window = bool(2 * n2 < tau < 2 * reduced_bound)
    if not report.nonabelian_window:
        report.obstructed = True
        reasons.append(
            "the rank-2 vortex window N2 < tau/2 < N1 + N2 - deg[phi] fails: "
            f"N=({n1},{n2}), deg[phi]={sat_degree}, tau={config.tau}"
        )
    report.z_stable, report.z_witness = z_stability_check(config)
    if not report.z_stable:
        note = (
            "z-stability fails: a subbundle violates "
            "(deg V' + tau rk(L cap V'))/rk V' < (deg V + tau)/2 "
            f"(witness: {report.z_witness['subbundle']})"
        )
        if report.nonabelian_window:
            # the two predicates are stated with different tau normalizations;
            # report the disagreement instead of reconciling it
            note += (
                "; note this disagrees with the solvability window, which holds: "
                "the two conditions differ by a factor-2 normalization of tau"
            )
        reasons.append(note)
    try:
        lhs, balanced = balancing_condition(config)
        report.balanced = balanced
        report.balancing_lhs = str(lhs)
        if report.nonabelian_window and not balanced:
            report.obstructed = True
            reasons.append(
                "the balancing condition (2l1-N1)/(2N2-tau) + (2l2-N2)/(2N1-tau) = 0 "
                f"fails (value {lhs}), so no solution of the coupled rank-2 system "
                "exists inside the window"
            )
    except PoleError:
        report.balanced = None
        report.balancing_lhs = "undefined (tau = 2N pole)"
    report.verdict = (
        "no solution of the coupled equations: " + "; ".join(reasons)
        if report.obstructed
        else "no obstruction found within the computed predicates"
    )
    return report
