"""Reference values computed without the package, used to check its outputs.

Quadrature here is Clenshaw--Curtis by the classical cosine-series formula
(not the package's compensated-sum construction); obstruction verdicts are
recomputed in exact rational arithmetic from the published criteria.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi


def chebyshev_nodes(n: int) -> np.ndarray:
    """Gauss--Lobatto nodes in increasing order, the package's node set."""
    m = n - 1
    j = np.arange(n)
    return np.sin(np.pi * (2 * j - m) / (2 * m))


def clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Weights for integral_{-1}^{1} f ds on the n Gauss--Lobatto nodes."""
    m = n - 1
    theta = np.pi * np.arange(1, m) / m
    inner = np.ones(m - 1)
    for k in range(1, m // 2 + (m % 2)):
        inner -= 2.0 * np.cos(2.0 * k * theta) / (4.0 * k * k - 1.0)
    if m % 2 == 0:
        inner -= np.cos(m * theta) / (m * m - 1.0)
        end = 1.0 / (m * m - 1.0)
    else:
        end = 1.0 / (m * m)
    w = np.empty(n)
    w[0] = w[-1] = end
    w[1:-1] = 2.0 * inner / m
    return w  # symmetric, so the node order does not matter


def integrate_fs(weights: np.ndarray, f: np.ndarray) -> float:
    """integral f omega_FS; omega_FS = ds dtheta / 2 has total area 2 pi."""
    return math.fsum((np.pi * weights * f).tolist())


def monomial_profile(s: np.ndarray, degree: int, ell: int, scale: float = 1.0) -> np.ndarray:
    """|phi|^2_FS of the monomial x0^(N-l) x1^l (times scale^2)."""
    return scale**2 * (1.0 + s) ** ell * (1.0 - s) ** (degree - ell) / 2.0**degree


def vortex_higgs_mass(degree: int, tau: float) -> float:
    """integral |phi|^2_H omega forced by integrating the vortex equation."""
    return TWO_PI * (tau - 2.0 * degree)


def coupled_constant(alpha: float, tau: float, degree: int) -> float:
    """Topological constant c = 4 - 2 alpha tau N under the package conventions."""
    return 4.0 - 2.0 * alpha * tau * degree


def futaki_rank2(n1: int, n2: int, l1: int, l2: int, tau: Fraction, alpha: float) -> float:
    """2 pi alpha [(2N1 - tau)(2l1 - N1) + (2N2 - tau)(2l2 - N2)]."""
    exact = (2 * n1 - tau) * (2 * l1 - n1) + (2 * n2 - tau) * (2 * l2 - n2)
    return TWO_PI * alpha * float(exact)


def rank2_obstructed(n1: int, n2: int, l1: int, l2: int, tau: Fraction) -> bool:
    """Outside the rank-2 window, or inside it with nonzero Futaki character.

    Window: 2 N2 < tau < 2 (N1 + N2 - deg[phi]) with
    deg[phi] = min(l1, l2) + min(N1 - l1, N2 - l2).  Inside the window the
    balancing sum vanishes exactly when the Futaki closed form does.
    """
    sat = min(l1, l2) + min(n1 - l1, n2 - l2)
    window = 2 * n2 < tau < 2 * (n1 + n2 - sat)
    futaki = (2 * n1 - tau) * (2 * l1 - n1) + (2 * n2 - tau) * (2 * l2 - n2)
    return not window or futaki != 0


def abelian_obstructed(degree: int, ell: int, tau: Fraction, alpha: float) -> bool:
    """Polystability of the abelian gravitating vortex on the sphere.

    For alpha > 0 a solution needs the vortex window tau > 2N and a Higgs
    field with a vanishing Futaki character, 2 pi alpha (2N - tau)(2l - N),
    i.e. 2l = N (Alvarez-Consul, Garcia-Fernandez, Garcia-Prada,
    arXiv:1510.03810).  At alpha = 0 only the window applies.
    """
    window = tau > 2 * degree
    if alpha == 0:
        return not window
    return not (window and 2 * ell == degree)


def beta(ell: int, degree: int) -> float:
    """integral_{-1}^{1} (1+s)^l (1-s)^(d-l) ds / 2^(d+1) = l! (d-l)! / (d+1)!."""
    return math.factorial(ell) * math.factorial(degree - ell) / math.factorial(degree + 1)


def quiver_constant(quiver: dict) -> float:
    """c_est of the quiver metric equation at zero potentials on the round sphere.

    c = 4 + 4 rho sum_a (tau_h/sigma_h - tau_t/sigma_t) scale_a^2 B(l_a, d_a),
    since integral |phi_a|^2_FS omega_FS = 2 pi scale^2 B and the Laplacian
    term integrates to zero.
    """
    total = 4.0
    for a in quiver["arrows"]:
        gap = (
            quiver["tau"][a["head"]] / quiver["sigma"][a["head"]]
            - quiver["tau"][a["tail"]] / quiver["sigma"][a["tail"]]
        )
        degree = quiver["degrees"][a["head"]] - quiver["degrees"][a["tail"]]
        total += 4.0 * quiver["rho"] * gap * a.get("scale", 1.0) ** 2 * beta(a["exponent"], degree)
    return total


def round_laplacian(s: np.ndarray, df: np.ndarray, d2f: np.ndarray) -> np.ndarray:
    """Delta_FS f = -2 [(1 - s^2) f']' from analytic derivatives."""
    return -2.0 * ((1.0 - s * s) * d2f - 2.0 * s * df)


class TrigProfile:
    """f(s) = a sin(k s) + b cos(k s) with analytic derivatives."""

    def __init__(self, a: float, b: float, k: float):
        self.a, self.b, self.k = a, b, k

    def value(self, s):
        return self.a * np.sin(self.k * s) + self.b * np.cos(self.k * s)

    def d1(self, s):
        return self.k * (self.a * np.cos(self.k * s) - self.b * np.sin(self.k * s))

    def d2(self, s):
        return -self.k * self.k * self.value(s)

    def as_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "k": self.k}


def rank2_diagonal_residual(s, degrees, exponents, tau, v1: TrigProfile, v2: TrigProfile):
    """(r11, r22, r12) of the rank-2 vortex equation for a diagonal metric.

    Round metric; in the H-unitary frame r_jj = N_j + Delta v_j
    + |phi_j|^2_FS exp(2 v_j)/2 - tau/2 and r12 = p1 p2 exp(v1 + v2)/2.
    """
    p1 = np.sqrt(monomial_profile(s, degrees[0], exponents[0]))
    p2 = np.sqrt(monomial_profile(s, degrees[1], exponents[1]))
    e1, e2 = v1.value(s), v2.value(s)
    r11 = degrees[0] + round_laplacian(s, v1.d1(s), v1.d2(s)) + 0.5 * p1 * p1 * np.exp(2 * e1) - 0.5 * tau
    r22 = degrees[1] + round_laplacian(s, v2.d1(s), v2.d2(s)) + 0.5 * p2 * p2 * np.exp(2 * e2) - 0.5 * tau
    r12 = 0.5 * p1 * p2 * np.exp(e1 + e2)
    return r11, r22, r12


def rank2_trace_rhs(weights, s, degrees, exponents, tau, v1, v2, off_modulus) -> float:
    """2 pi (N1 + N2) + (1/2) integral tr(phi phi^*H) omega - 2 pi tau."""
    p1 = np.sqrt(monomial_profile(s, degrees[0], exponents[0]))
    p2 = np.sqrt(monomial_profile(s, degrees[1], exponents[1]))
    trace = p1 * p1 * np.exp(2 * v1) + p2 * p2 * np.exp(2 * v2) + 2.0 * p1 * p2 * off_modulus
    return TWO_PI * sum(degrees) + 0.5 * integrate_fs(weights, trace) - TWO_PI * tau
