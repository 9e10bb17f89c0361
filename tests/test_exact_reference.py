"""Integer obstruction predicates against the exact Fraction formulas.

``reference_stability`` evaluates every predicate of
:func:`gravortex.stability_check` in ``fractions.Fraction`` arithmetic, as
the predicates were first written, and builds the same report dictionary.
The package decides them by cross-multiplied integer comparisons; the two
must agree on every field, float values and reason strings included.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravortex import HiggsConfig, PoleError, balancing_condition, futaki_exact, stability_check
from gravortex.errors import InfeasibleError
from gravortex.obstructions import abelian_coupled_obstructions, z_stability_check
from gravortex.vortex import check_vortex_window

MAX_DEGREE = 4
ALPHAS = (0.0, 1.25)


def tau_fraction(tau) -> Fraction:
    return tau if isinstance(tau, Fraction) else Fraction(repr(float(tau)))


def reference_futaki(degrees, exponents, tau: Fraction) -> Fraction:
    return sum((2 * n - tau) * (2 * ell - n) for n, ell in zip(degrees, exponents))


def reference_balancing(degrees, exponents, tau: Fraction) -> Fraction | None:
    (n1, n2), (l1, l2) = degrees, exponents
    if tau in (2 * n1, 2 * n2):
        return None
    return Fraction(2 * l1 - n1) / (2 * n2 - tau) + Fraction(2 * l2 - n2) / (2 * n1 - tau)


def reference_z_stability(degrees, sat_degree, tau: Fraction):
    n1, n2 = degrees
    bound = Fraction(n1 + n2) + tau
    for name, deg, rk in (
        ("split factor O(N1)", Fraction(n1), 0),
        ("split factor O(N2)", Fraction(n2), 0),
        ("saturation [phi]", Fraction(sat_degree), 1),
    ):
        slope = deg + tau * rk
        if not 2 * slope < bound:
            return False, {
                "subbundle": name,
                "degree": float(deg),
                "contains_image": bool(rk),
                "slope_with_tau": float(slope),
                "bound": float(bound / 2),
            }
    return True, None


def reference_stability(degrees, exponents, tau_value, alpha) -> dict:
    """The report of ``stability_check`` computed in Fraction arithmetic."""
    tau = tau_fraction(tau_value)
    out = {
        "config": {
            "degrees": list(degrees),
            "exponents": list(exponents),
            "tau": tau_value,
            "alpha": alpha,
        },
        "abelian_window": None,
        "nonabelian_window": None,
        "z_stable": None,
        "z_witness": None,
        "balanced": None,
        "balancing_lhs": None,
        "futaki_value": None,
        "matsushima": None,
        "saturation_degree": None,
        "obstructed": False,
    }
    reasons = []
    futaki = reference_futaki(degrees, exponents, tau)
    out["futaki_value"] = 2.0 * math.pi * float(alpha) * float(futaki)
    if len(degrees) == 1:
        (n,), (ell,) = degrees, exponents
        out["abelian_window"] = tau > 2 * n
        if not out["abelian_window"]:
            reasons.append(f"the vortex window N < tau/2 fails: N={n}, tau={tau_value}")
        single_zero = ell in (0, n)
        out["matsushima"] = {
            "kind": "non_reductive_borel" if single_zero else "torus",
            "obstruction": single_zero,
        }
        if single_zero:
            reasons.append(
                "the Higgs field has only one zero, so the automorphism group is "
                "non-reductive (C* x| C) and the coupled equations admit no solution"
            )
        if alpha > 0 and futaki != 0:
            reasons.append(
                "the Futaki character 2 pi alpha (2N - tau)(2l - N) = "
                f"2 pi alpha ({futaki}) is nonzero at alpha={float(alpha)}, so the coupled "
                "equations admit no solution"
            )
        out["obstructed"] = bool(reasons)
        out["verdict"] = (
            "no solution of the coupled equations: " + "; ".join(reasons)
            if reasons
            else "no obstruction found (vortex window holds, automorphisms "
            "reductive, Futaki character zero)"
        )
        out["reasons"] = reasons
        return out

    (n1, n2), (l1, l2) = degrees, exponents
    sat = min(l1, l2) + min(n1 - l1, n2 - l2)
    out["saturation_degree"] = sat
    window = 2 * n2 < tau < 2 * (n1 + n2 - sat)
    out["nonabelian_window"] = window
    if not window:
        out["obstructed"] = True
        reasons.append(
            "the rank-2 vortex window N2 < tau/2 < N1 + N2 - deg[phi] fails: "
            f"N=({n1},{n2}), deg[phi]={sat}, tau={tau_value}"
        )
    out["z_stable"], out["z_witness"] = reference_z_stability(degrees, sat, tau)
    if not out["z_stable"]:
        note = (
            "z-stability fails: a subbundle violates "
            "(deg V' + tau rk(L cap V'))/rk V' < (deg V + tau)/2 "
            f"(witness: {out['z_witness']['subbundle']})"
        )
        if window:
            note += (
                "; note this disagrees with the solvability window, which holds: "
                "the two conditions differ by a factor-2 normalization of tau"
            )
        reasons.append(note)
    lhs = reference_balancing(degrees, exponents, tau)
    if lhs is None:
        out["balancing_lhs"] = "undefined (tau = 2N pole)"
    else:
        out["balanced"] = lhs == 0
        out["balancing_lhs"] = str(lhs)
        if window and lhs != 0:
            out["obstructed"] = True
            reasons.append(
                "the balancing condition (2l1-N1)/(2N2-tau) + (2l2-N2)/(2N1-tau) = 0 "
                f"fails (value {lhs}), so no solution of the coupled rank-2 system "
                "exists inside the window"
            )
    out["verdict"] = (
        "no solution of the coupled equations: " + "; ".join(reasons)
        if out["obstructed"]
        else "no obstruction found within the computed predicates"
    )
    out["reasons"] = reasons
    return out


def lattice(max_degree=MAX_DEGREE):
    for n in range(1, max_degree + 1):
        for ell in range(n + 1):
            yield (n,), (ell,)
    for n1 in range(1, max_degree + 1):
        for n2 in range(n1, max_degree + 1):
            for l1 in range(n1 + 1):
                for l2 in range(n2 + 1):
                    yield (n1, n2), (l1, l2)


# halves, thirds and tenths up to the largest window edge 2 (N1 + N2) = 16;
# every pole tau = 2 N_j and window edge is an integer, so all are included.
# Thirds come as floats (repr 0.3333333333333333) and as exact Fractions.
HALVES_THIRDS = sorted({k / 2 for k in range(1, 35)} | {k / 3 for k in range(1, 51)}) + [
    Fraction(k, 3) for k in range(1, 50, 3)
]
TENTHS = [k / 10 for k in range(1, 171) if k % 5]


def assert_matches(degrees, exponents, tau, alpha):
    config = HiggsConfig(degrees=degrees, exponents=exponents, tau=tau, alpha=alpha)
    expected = reference_stability(degrees, exponents, tau, alpha)
    assert stability_check(config).to_json_dict() == expected, (degrees, exponents, tau)


@pytest.mark.parametrize(
    "alpha,taus", [(0.0, HALVES_THIRDS), (1.25, HALVES_THIRDS), (1.25, TENTHS)]
)
def test_landscape_lattice_matches_fraction_reference(alpha, taus):
    for degrees, exponents in lattice():
        for tau in taus:
            assert_matches(degrees, exponents, tau, alpha)


@pytest.mark.parametrize(
    "degrees,exponents,tau",
    [
        ((1, 2), (0, 1), 2.0),  # pole tau = 2 N1
        ((1, 2), (0, 1), 4.0),  # pole tau = 2 N2 and lower window edge
        ((2, 3), (1, 1), 8.0),  # upper window edge 2 (N1 + N2 - deg[phi])
        ((2, 2), (1, 1), 4.0),  # double pole
        ((2,), (1,), 4.0),  # abelian window edge
    ],
)
def test_poles_and_edges(degrees, exponents, tau):
    for alpha in ALPHAS:
        assert_matches(degrees, exponents, tau, alpha)


rationals = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**4))


@given(
    n1=st.integers(1, 6),
    n2=st.integers(1, 6),
    l1=st.integers(0, 6),
    l2=st.integers(0, 6),
    tau=rationals,
    as_float=st.booleans(),
    alpha=st.sampled_from((0.0, 0.5, 3)),
    rank2=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_random_rationals_match_fraction_reference(n1, n2, l1, l2, tau, as_float, alpha, rank2):
    n1, n2 = sorted((n1, n2))
    l1, l2 = min(l1, n1), min(l2, n2)
    tau_value = float(tau) if as_float else tau
    if rank2:
        assert_matches((n1, n2), (l1, l2), tau_value, alpha)
    else:
        assert_matches((n2,), (l2,), tau_value, alpha)


@given(
    n1=st.integers(1, 6),
    n2=st.integers(1, 6),
    l1=st.integers(0, 6),
    l2=st.integers(0, 6),
    tau=rationals,
)
@settings(max_examples=200, deadline=None)
def test_public_predicates_match_fraction_reference(n1, n2, l1, l2, tau):
    n1, n2 = sorted((n1, n2))
    l1, l2 = min(l1, n1), min(l2, n2)
    config = HiggsConfig(degrees=(n1, n2), exponents=(l1, l2), tau=tau, alpha=1.0)
    assert futaki_exact(config) == reference_futaki((n1, n2), (l1, l2), tau)
    sat = min(l1, l2) + min(n1 - l1, n2 - l2)
    assert z_stability_check(config) == reference_z_stability((n1, n2), sat, tau)
    lhs = reference_balancing((n1, n2), (l1, l2), tau)
    if lhs is None:
        with pytest.raises(PoleError):
            balancing_condition(config)
    else:
        assert balancing_condition(config) == (lhs, lhs == 0)
    abelian = HiggsConfig(degrees=(n2,), exponents=(l2,), tau=tau, alpha=1.0)
    expected = reference_stability((n2,), (l2,), tau, 1.0)["reasons"]
    coupled = [reason for reason in expected if "vortex window" not in reason]
    assert abelian_coupled_obstructions(abelian, 1.0) == coupled
    if tau > 2 * n2:
        check_vortex_window(abelian)
    else:
        with pytest.raises(InfeasibleError):
            check_vortex_window(abelian)
