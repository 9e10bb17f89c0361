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
from dataclasses import dataclass, field, fields
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
    grid_vector,
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
    total = 0
    for n_deg, ell in zip(config.degrees, config.exponents):
        total += (2 * n_deg * q - p) * (2 * ell - n_deg)
    return total


def futaki_exact(config: HiggsConfig) -> Fraction:
    """sum_j (2 N_j - tau)(2 l_j - N_j): the closed form divided by 2 pi alpha.

    Exact for either rank; it vanishes when every exponent is symmetric,
    2 l_j = N_j.
    """
    return Fraction(_futaki_numerator(config), config.tau_ratio[1])


def futaki_closed_form(config: HiggsConfig) -> float:
    """Imaginary part of the Futaki character, 2 pi alpha times :func:`futaki_exact`."""
    return _futaki_value(config, _futaki_numerator(config))


def _futaki_value(config: HiggsConfig, numerator: int) -> float:
    # int / int is correctly rounded, so this equals float(futaki_exact(config))
    return 2.0 * math.pi * config.alpha * (numerator / config.tau_ratio[1])


def _abelian_conditions(config: HiggsConfig, alpha: float, numerator: int):
    """The automorphism verdict, and whether the Futaki ``numerator`` obstructs at alpha."""
    return classify_automorphisms(config), alpha > 0 and numerator != 0


def abelian_coupled_obstructions(config: HiggsConfig, alpha: float) -> list[str]:
    """Reasons the abelian coupled equations at coupling alpha have no solution.

    A single-zero Higgs field has a non-reductive automorphism group at every
    coupling; at alpha > 0 a nonzero Futaki character obstructs as well.
    Both are decided in exact arithmetic.
    """
    reasons = []
    futaki_numerator = _futaki_numerator(config)
    matsushima, futaki_obstructs = _abelian_conditions(config, alpha, futaki_numerator)
    if matsushima.obstruction:
        reasons.append(
            "the Higgs field has only one zero, so the automorphism group is "
            "non-reductive (C* x| C) and the coupled equations admit no solution"
        )
    if futaki_obstructs:
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
    metric = ConformalMetric(u=grid_vector(grid, u, "metric potential"))
    potentials = [grid_vector(grid, vj, f"potentials[{j}]") for j, vj in enumerate(potentials)]
    _require_normalized(grid, metric)
    s = grid.nodes
    tau = float(config.tau)
    alpha = config.alpha
    ham = hamiltonian_potential(grid, metric)

    pairing_sum = np.zeros(grid.n)
    curv_trace = np.zeros(grid.n)
    phi_sq_total = np.zeros(grid.n)
    for j, vj in enumerate(potentials):
        n_deg = config.degrees[j]
        ell = config.exponents[j]
        profile = higgs_profile(grid, config, j)
        phi_sq = np.exp(2.0 * vj) * profile
        curv = bundle_curvature(grid, metric.u, n_deg, vj)
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
    terms = _balancing_terms(config, _futaki_numerator(config))
    if terms is None:
        p, q = config.tau_ratio
        raise PoleError(f"balancing denominator 2N - tau vanishes at N={p // (2 * q)}")
    numerator, denominator = terms
    return Fraction(numerator, denominator), numerator == 0


def _balancing_terms(config: HiggsConfig, futaki_numerator: int) -> tuple[int, int] | None:
    """Integer numerator and denominator of the balancing sum; None at a pole tau = 2 N_j.

    Over the common denominator (2 N1 - tau)(2 N2 - tau) the numerator is
    (2 l1 - N1)(2 N1 - tau) + (2 l2 - N2)(2 N2 - tau), the Futaki sum.  With
    tau = p/q, multiplying both by q^2 makes the denominator
    q (2 N1 - tau) q (2 N2 - tau) and the numerator q times
    :func:`_futaki_numerator`.
    """
    n1, n2 = config.degrees
    p, q = config.tau_ratio
    gap1, gap2 = 2 * n1 * q - p, 2 * n2 * q - p  # q (2 N_j - tau)
    if gap1 == 0 or gap2 == 0:
        return None
    return q * futaki_numerator, gap1 * gap2


# ---------------------------------------------------------------------------
# stability report


@dataclass
class StabilityReport:
    """Aggregate of every computable existence predicate for a configuration.

    ``reasons`` quotes the mathematical condition responsible for each
    obstruction; ``obstructed`` is True when some no-go fired inside the
    applicable window.  :func:`obstruction_predicates` fills all but the text
    fields ``balancing_lhs``, ``verdict`` and ``reasons``: :func:`stability_check` adds them.
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
        """The fields as JSON values, ``matsushima`` as a dict; nested values are shared."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        m = self.matsushima
        out["matsushima"] = None if m is None else {"kind": m.kind, "obstruction": m.obstruction}
        return out


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


def obstruction_predicates(config: HiggsConfig) -> StabilityReport:
    """The windows, z-stability, balancing, the two conditions of
    :func:`abelian_coupled_obstructions`, ``obstructed`` and the Futaki value,
    decided in integers; the report has no text.

    A Higgs field with every component zero is obstructed in either rank
    (:func:`vanishing_higgs_reason`).  When one rank-2 component is zero
    deg[phi] is the degree of the other (:func:`saturation_degree`), the
    window is empty and the balancing condition is not defined.
    """
    echo = {
        "degrees": list(config.degrees),
        "exponents": list(config.exponents),
        "tau": config.tau,
        "alpha": config.alpha,
    }
    p, q = config.tau_ratio
    complete = None not in config.exponents  # then the field cannot vanish
    vanishing = not complete and vanishing_higgs_reason(config) is not None
    numerator = _futaki_numerator(config) if complete else None
    futaki_value = None if numerator is None else _futaki_value(config, numerator)
    if config.is_abelian:
        window = p > 2 * config.degrees[0] * q
        if vanishing:
            return StabilityReport(echo, abelian_window=window, obstructed=True)
        matsushima, futaki_obstructs = _abelian_conditions(config, config.alpha, numerator)
        return StabilityReport(
            echo,
            abelian_window=window,
            futaki_value=futaki_value,
            matsushima=matsushima,
            obstructed=not window or matsushima.obstruction or futaki_obstructs,
        )
    if vanishing:
        return StabilityReport(echo, obstructed=True)
    n1, n2 = config.degrees
    sat_degree = saturation_degree(config)
    window = 2 * n2 * q < p < 2 * (n1 + n2 - sat_degree) * q
    witness = _z_witness(config, sat_degree)
    # balancing is not defined at a pole tau = 2 N_j
    terms = None if numerator is None else _balancing_terms(config, numerator)
    balanced = None if terms is None else terms[0] == 0
    return StabilityReport(
        echo,
        nonabelian_window=window,
        z_stable=witness is None,
        z_witness=witness,
        balanced=balanced,
        futaki_value=futaki_value,
        saturation_degree=sat_degree,
        obstructed=not window or balanced is False,
    )


def stability_check(config: HiggsConfig) -> StabilityReport:
    """:func:`obstruction_predicates` with a reason quoting each obstruction that
    fired, and the verdict; a report is always produced."""
    report = obstruction_predicates(config)
    reasons = report.reasons
    vanishing = vanishing_higgs_reason(config)
    if config.is_abelian:
        if not report.abelian_window:
            reasons.append(
                f"the vortex window N < tau/2 fails: N={config.degrees[0]}, tau={config.tau}"
            )
        if vanishing:
            reasons.append(vanishing)
        else:
            reasons.extend(abelian_coupled_obstructions(config, config.alpha))
    elif vanishing:
        reasons.append(vanishing)
    else:
        (n1, n2), sat_degree = config.degrees, report.saturation_degree
        if not report.nonabelian_window:
            reasons.append(
                "the rank-2 vortex window N2 < tau/2 < N1 + N2 - deg[phi] fails: "
                f"N=({n1},{n2}), deg[phi]={sat_degree}, tau={config.tau}"
            )
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
                lhs, _ = balancing_condition(config)
            except PoleError:
                lhs = "undefined (tau = 2N pole)"
            report.balancing_lhs = str(lhs)
            if report.nonabelian_window and report.balanced is False:
                reasons.append(
                    "the balancing condition (2l1-N1)/(2N2-tau) + (2l2-N2)/(2N1-tau) = 0 "
                    f"fails (value {lhs}), so no solution of the coupled rank-2 system "
                    "exists inside the window"
                )
    if report.obstructed:
        report.verdict = "no solution of the coupled equations: " + "; ".join(reasons)
    elif config.is_abelian:
        report.verdict = (
            "no obstruction found (vortex window holds, automorphisms "
            "reductive, Futaki character zero)"
        )
    else:
        report.verdict = "no obstruction found within the computed predicates"
    return report
