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

All predicates (solvability windows, balancing, z-stability, the vanishing
of the Futaki character) are decided exactly, in integers: tau is the reduced
ratio p/q of :attr:`HiggsConfig.tau_ratio`, and each rational inequality is
cross-multiplied by its positive denominator.  A ``Fraction`` is built only
for a returned value or a quoted one.  The automorphism verdict of an
abelian field reads its exponent alone (:func:`classify_automorphisms`:
one zero when l = 0 or l = N).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .bundles import (
    AutVerdict,
    HiggsConfig,
    classify_automorphisms,
    higgs_profile,
    saturation_degree,
)
from .errors import ConfigurationError, PoleError
from .geometry import (
    AxisymGrid,
    ConformalMetric,
    ROUND_VOLUME,
    hamiltonian_potential,
    integrate,
    laplacian,
    scalar_curvature,
    volume,
)
from .vortex import bundle_curvature, vanishing_higgs_reason, vortex_equation

VOLUME_TOLERANCE = 1e-8


def _futaki_numerator(config: HiggsConfig) -> int:
    """q times :func:`futaki_exact` at tau = p/q: sum_j (2 N_j q - p)(2 l_j - N_j)."""
    if None in config.exponents:
        raise ConfigurationError("closed form requires every Higgs component nonzero")
    p, q = config.tau_ratio
    return sum(
        (2 * n_deg * q - p) * (2 * ell - n_deg)
        for n_deg, ell in zip(config.degrees, config.exponents)
    )


def futaki_exact(config: HiggsConfig) -> Fraction:
    """sum_j (2 N_j - tau)(2 l_j - N_j): the closed form divided by 2 pi alpha.

    Exact for either rank; it vanishes when every exponent is symmetric,
    2 l_j = N_j.
    """
    return Fraction(_futaki_numerator(config), config.tau_ratio[1])


def futaki_closed_form(config: HiggsConfig) -> float:
    """Imaginary part of the Futaki character, 2 pi alpha times :func:`futaki_exact`."""
    # int / int is correctly rounded, so this equals float(futaki_exact(config))
    futaki = _futaki_numerator(config) / config.tau_ratio[1]
    return 2.0 * math.pi * float(config.alpha) * futaki


def abelian_coupled_obstructions(config: HiggsConfig, alpha: float) -> list[str]:
    """Reasons the abelian coupled equations at coupling alpha have no solution.

    A single-zero Higgs field has a non-reductive automorphism group at every
    coupling; at alpha > 0 a nonzero Futaki character obstructs as well.
    Both are decided in exact arithmetic.
    """
    reasons = []
    if classify_automorphisms(config).obstruction:
        reasons.append(
            "the Higgs field has only one zero, so the automorphism group is "
            "non-reductive (C* x| C) and the coupled equations admit no solution"
        )
    futaki_numerator = _futaki_numerator(config)
    if alpha > 0 and futaki_numerator != 0:
        futaki = Fraction(futaki_numerator, config.tau_ratio[1])
        reasons.append(
            "the Futaki character 2 pi alpha (2N - tau)(2l - N) = "
            f"2 pi alpha ({futaki}) is nonzero at alpha={alpha}, so the coupled "
            "equations admit no solution"
        )
    return reasons


def _require_normalized(grid: AxisymGrid, metric: ConformalMetric) -> None:
    """Refuse an ansatz whose volume is not ROUND_VOLUME to a relative 1e-8."""
    vol = volume(grid, metric)
    if abs(vol - ROUND_VOLUME) > VOLUME_TOLERANCE * ROUND_VOLUME:
        raise ConfigurationError(
            "ansatz must be volume-normalized before evaluating the character "
            f"(volume {vol!r}, target {ROUND_VOLUME!r})"
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
        psi_j = ell - n_deg * (1.0 + s) / 2.0 + (1.0 - s * s) * grid.diff(vj)
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
    if None in config.exponents:
        raise ConfigurationError("balancing requires both Higgs components nonzero")
    (n1, n2), (l1, l2) = config.degrees, config.exponents
    p, q = config.tau_ratio
    gap1, gap2 = 2 * n1 * q - p, 2 * n2 * q - p  # q (2 N_j - tau)
    for nj, gap in ((n1, gap1), (n2, gap2)):
        if gap == 0:
            raise PoleError(f"balancing denominator 2N - tau vanishes at N={nj}")
    # the sum over the common denominator (2 N1 - tau)(2 N2 - tau), times q
    numerator = (2 * l1 - n1) * gap1 + (2 * l2 - n2) * gap2
    return Fraction(q * numerator, gap1 * gap2), numerator == 0


# ---------------------------------------------------------------------------
# stability report


@dataclass
class StabilityReport:
    """Aggregate of every computable existence predicate for a configuration.

    ``reasons`` quotes the mathematical condition responsible for each
    obstruction; ``obstructed`` is True when some no-go fired inside the
    applicable window.
    """

    config: dict  # echo of the checked configuration
    abelian_window: bool | None = None
    nonabelian_window: bool | None = None
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
        return asdict(self)


def z_stability_check(config: HiggsConfig) -> tuple[bool, dict | None]:
    """Slope inequality over the candidate subbundles of the split pair.

    For a split rank-2 bundle the supremum of deg V' + tau rk(L cap V') over
    line subbundles is attained either on the larger split factor (no
    containment of the image line) or on the saturation [phi]; both split
    factors are listed for transparency.  The comparison
    (deg V' + tau rk)/1 < (N1 + N2 + tau)/2 is made in integers, times 2q.
    """
    config.require_rank2("z_stability_check")
    witness = _z_witness(config, saturation_degree(config))
    return witness is None, witness


def _z_witness(config: HiggsConfig, sat_degree: int) -> dict | None:
    """The first candidate subbundle that violates z-stability, or None."""
    (n1, n2) = config.degrees
    p, q = config.tau_ratio
    bound = (n1 + n2) * q + p  # q (N1 + N2 + tau)
    candidates = [
        ("split factor O(N1)", n1, 0),
        ("split factor O(N2)", n2, 0),
        ("saturation [phi]", sat_degree, 1),
    ]
    for name, deg, rk_int in candidates:
        slope = deg * q + p * rk_int  # q (deg V' + tau rk)
        if not 2 * slope < bound:
            # int / int is correctly rounded, as float() of the exact rational
            return {
                "subbundle": name,
                "degree": float(deg),
                "contains_image": bool(rk_int),
                "slope_with_tau": slope / q,
                "bound": bound / (2 * q),
            }
    return None


def stability_check(config: HiggsConfig) -> StabilityReport:
    """Evaluate every applicable predicate; a report is always produced.

    A Higgs field with every component zero is obstructed in either rank
    (:func:`vanishing_higgs_reason`).  When one rank-2 component is zero the
    saturation of phi(O) is the other summand, so deg[phi] is its degree,
    the window is empty and the balancing condition is not defined.
    """
    echo = {
        "degrees": list(config.degrees),
        "exponents": list(config.exponents),
        "tau": config.tau,
        "alpha": config.alpha,
    }
    report = StabilityReport(config=echo)
    p, q = config.tau_ratio
    reasons = report.reasons
    vanishing = vanishing_higgs_reason(config)
    if None not in config.exponents:
        report.futaki_value = futaki_closed_form(config)

    if config.is_abelian:
        n_deg = config.degrees[0]
        report.abelian_window = p > 2 * n_deg * q
        if not report.abelian_window:
            report.obstructed = True
            reasons.append(
                f"the vortex window N < tau/2 fails: N={n_deg}, tau={config.tau}"
            )
        if vanishing:
            report.obstructed = True
            reasons.append(vanishing)
        else:
            report.matsushima = classify_automorphisms(config)
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

    if vanishing:
        report.obstructed = True
        reasons.append(vanishing)
        report.verdict = "no solution of the coupled equations: " + vanishing
        return report
    (n1, n2), (l1, l2) = config.degrees, config.exponents
    # with one component zero, the saturation of phi(O) is the other summand
    sat_degree = n1 if l2 is None else n2 if l1 is None else saturation_degree(config)
    report.saturation_degree = sat_degree
    report.nonabelian_window = 2 * n2 * q < p < 2 * (n1 + n2 - sat_degree) * q
    if not report.nonabelian_window:
        report.obstructed = True
        reasons.append(
            "the rank-2 vortex window N2 < tau/2 < N1 + N2 - deg[phi] fails: "
            f"N=({n1},{n2}), deg[phi]={sat_degree}, tau={config.tau}"
        )
    report.z_witness = _z_witness(config, sat_degree)
    report.z_stable = report.z_witness is None
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
    if None not in config.exponents:
        try:
            lhs, balanced = balancing_condition(config)
        except PoleError:
            report.balancing_lhs = "undefined (tau = 2N pole)"
        else:
            report.balanced = balanced
            report.balancing_lhs = str(lhs)
            if report.nonabelian_window and not balanced:
                report.obstructed = True
                reasons.append(
                    "the balancing condition (2l1-N1)/(2N2-tau) + (2l2-N2)/(2N1-tau) = 0 "
                    f"fails (value {lhs}), so no solution of the coupled rank-2 system "
                    "exists inside the window"
                )
    report.verdict = (
        "no solution of the coupled equations: " + "; ".join(reasons)
        if report.obstructed
        else "no obstruction found within the computed predicates"
    )
    return report
