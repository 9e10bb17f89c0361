"""Higgs configurations on the sphere, divisors, and automorphism verdicts.

Solvable configurations are monomial: on a degree-N line bundle the Higgs
section is x0^(N-l) x1^l in homogeneous coordinates, with squared
Fubini--Study pointwise norm

    |phi|^2_FS(s) = (1+s)^l (1-s)^(N-l) / 2^N,

vanishing to order l at s = -1 (w = 0) and order N-l at s = +1 (w = inf).
Divisors and the automorphism classification also accept arbitrary point
configurations, constructed from rational coefficient lists by exact
square-free decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    ConfigurationError,
    DegeneratePairError,
    WrongRankError,
)
from .geometry import AxisymGrid

POINT_ZERO = "[1:0]"  # w = 0, s = -1
POINT_INFINITY = "[0:1]"  # w = inf, s = +1


def as_fraction(x) -> Fraction:
    """Exact rational view of a parameter.

    Floats are converted through their shortest decimal representation so
    that tau = 0.1 means 1/10, not the binary expansion.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, float):
        return Fraction(repr(x))
    raise ConfigurationError(f"cannot interpret {x!r} as a rational number")


@dataclass(frozen=True)
class HiggsConfig:
    """Degrees, monomial exponents, and coupling constants of a Higgs pair.

    One entry is the abelian case; two entries the split rank-2 case, which
    must be ordered so degrees[0] <= degrees[1].  An exponent of None means
    that component of the Higgs field vanishes identically.  The central
    element of the first equation is z = -i alpha tau / 2 (times the
    identity in rank 2), exposed through ``z_imag``.
    """

    degrees: tuple[int, ...]
    exponents: tuple[int | None, ...]
    tau: float
    alpha: float = 0.0

    def __post_init__(self):
        if len(self.degrees) not in (1, 2):
            raise ConfigurationError("degrees must have one (abelian) or two (rank-2) entries")
        if len(self.exponents) != len(self.degrees):
            raise ConfigurationError("exponents must parallel degrees")
        for nj in self.degrees:
            if isinstance(nj, bool) or not isinstance(nj, (int, np.integer)) or nj <= 0:
                raise ConfigurationError(f"degrees must be positive integers, got {nj!r}")
        for nj, lj in zip(self.degrees, self.exponents):
            if lj is None:
                continue
            if isinstance(lj, bool) or not isinstance(lj, (int, np.integer)) or not (0 <= lj <= nj):
                raise ConfigurationError(
                    f"exponents must satisfy 0 <= l <= N, got l={lj!r} for N={nj}"
                )
        if len(self.degrees) == 2 and self.degrees[0] > self.degrees[1]:
            raise ConfigurationError("rank-2 degrees must be ordered N1 <= N2")
        for name in ("tau", "alpha"):
            if isinstance(getattr(self, name), bool):
                raise ConfigurationError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not (float(self.tau) > 0.0):
            raise ConfigurationError("tau must be positive")
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        object.__setattr__(
            self,
            "exponents",
            tuple(None if e is None else int(e) for e in self.exponents),
        )

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def is_abelian(self) -> bool:
        return self.rank == 1

    @cached_property  # decimal parsing; the obstruction predicates each read it
    def tau_fraction(self) -> Fraction:
        return as_fraction(self.tau)

    @property
    def z_imag(self) -> float:
        """Imaginary part of the central constant z = -i alpha tau / 2."""
        return -0.5 * float(self.alpha) * float(self.tau)

    def require_abelian(self, op: str) -> None:
        if not self.is_abelian:
            raise WrongRankError(f"{op} requires an abelian (rank-1) configuration")

    def require_rank2(self, op: str) -> None:
        if self.is_abelian:
            raise WrongRankError(f"{op} requires a rank-2 configuration")


def higgs_profile(grid: AxisymGrid, config: HiggsConfig, j: int = 0) -> np.ndarray:
    """Squared FS norm of the j-th monomial component on the grid."""
    if not (0 <= j < config.rank):
        raise ConfigurationError(f"component index {j} out of range for rank {config.rank}")
    n_deg = config.degrees[j]
    ell = config.exponents[j]
    if ell is None:
        return np.zeros(grid.n)
    s = grid.nodes
    return (1.0 + s) ** ell * (1.0 - s) ** (n_deg - ell) / 2.0**n_deg


# ---------------------------------------------------------------------------
# divisors and exact binary-form arithmetic


@dataclass(frozen=True)
class Divisor:
    """Effective divisor on the sphere: distinct points with multiplicities."""

    points: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [p for p, _ in self.points]
        if len(set(labels)) != len(labels):
            raise ConfigurationError("divisor locations must be pairwise distinct")
        for _, mult in self.points:
            if mult < 1:
                raise ConfigurationError("divisor multiplicities must be >= 1")

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.points)

    @property
    def support_size(self) -> int:
        return len(self.points)


def divisor_from_monomial(n_deg: int, ell: int) -> Divisor:
    points = []
    if ell > 0:
        points.append((POINT_ZERO, ell))
    if n_deg - ell > 0:
        points.append((POINT_INFINITY, n_deg - ell))
    return Divisor(points=tuple(points))


def higgs_divisor(config: HiggsConfig) -> Divisor:
    """Zero divisor of the abelian Higgs monomial."""
    config.require_abelian("higgs_divisor")
    if config.exponents[0] is None:
        raise ConfigurationError("the Higgs field must be nonzero to have a divisor")
    return divisor_from_monomial(config.degrees[0], config.exponents[0])


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while len(a) >= len(b) and _poly_trim(a):
        k = len(a) - len(b)
        c = a[-1] * inv
        q[k] = c
        for i, bi in enumerate(b):
            a[i + k] -= c * bi
        _poly_trim(a)
    return _poly_trim(q), a


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, _poly_trim(r)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _poly_derivative(p: list[Fraction]) -> list[Fraction]:
    return _poly_trim([c * i for i, c in enumerate(p)][1:])


def _squarefree_factors(p: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun's algorithm over the rationals; returns (factor, multiplicity) pairs."""
    out = []
    a = _poly_gcd(p, _poly_derivative(p))
    b, _ = _poly_divmod(p, a)
    c, _ = _poly_divmod(_poly_derivative(p), a)
    d = _poly_trim([ci - bi for ci, bi in zip_longest_frac(c, _poly_derivative(b))])
    mult = 1
    while len(b) > 1:
        f = _poly_gcd(b, d)
        if len(f) > 1:
            out.append((f, mult))
        b, _ = _poly_divmod(b, f)
        quotient, _ = _poly_divmod(d, f)
        d = _poly_trim(
            [qi - bi for qi, bi in zip_longest_frac(quotient, _poly_derivative(b))]
        )
        mult += 1
    return out


def zip_longest_frac(a: list[Fraction], b: list[Fraction]):
    ln = max(len(a), len(b))
    for i in range(ln):
        yield (a[i] if i < len(a) else Fraction(0), b[i] if i < len(b) else Fraction(0))


def _poly_repr(p: list[Fraction]) -> str:
    return "+".join(f"{c}t^{i}" for i, c in enumerate(p) if c != 0)


def divisor_from_binary_form(coeffs, degree: int) -> Divisor:
    """Divisor of a degree-``degree`` binary form from its coefficient list.

    ``coeffs[k]`` multiplies x0^(degree-k) x1^k.  Root locations are kept
    exact: rational roots get homogeneous labels, a square-free irreducible
    factor of degree d contributes d distinct (conjugate) points carrying
    the factor as an opaque label.  Only support cardinality and
    multiplicities are needed downstream.
    """
    coeffs = [as_fraction(c) for c in coeffs]
    if len(coeffs) != degree + 1:
        raise ConfigurationError("coefficient list must have degree+1 entries")
    if all(c == 0 for c in coeffs):
        raise DegeneratePairError("the zero form has no divisor")
    p = _poly_trim(coeffs[:])  # dehomogenize with t = x1/x0
    inf_mult = degree - (len(p) - 1)
    zero_mult = 0
    while p and p[0] == 0:
        p.pop(0)
        zero_mult += 1
    points: list[tuple[str, int]] = []
    if zero_mult:
        points.append((POINT_ZERO, zero_mult))
    if inf_mult:
        points.append((POINT_INFINITY, inf_mult))
    if len(p) > 1:
        for factor, mult in _squarefree_factors(p):
            deg_f = len(factor) - 1
            if deg_f == 1:
                root = -factor[0] / factor[1]
                points.append((f"[1:{root}]", mult))
            else:
                for i in range(deg_f):
                    points.append((f"root{i}({_poly_repr(factor)})", mult))
    return Divisor(points=tuple(points))


def binary_form_gcd_degree(coeffs1, degree1: int, coeffs2, degree2: int) -> int:
    """Degree of the gcd of two binary forms, in exact rational arithmetic."""
    c1 = [as_fraction(c) for c in coeffs1]
    c2 = [as_fraction(c) for c in coeffs2]
    if all(c == 0 for c in c1) or all(c == 0 for c in c2):
        raise DegeneratePairError("gcd with the zero form is undefined")
    p1, p2 = _poly_trim(c1[:]), _poly_trim(c2[:])
    inf1 = degree1 - (len(p1) - 1)
    inf2 = degree2 - (len(p2) - 1)
    g = _poly_gcd(p1, p2)
    return (len(g) - 1) + min(inf1, inf2)


def divisor_gcd_degree(config: HiggsConfig) -> tuple[Divisor, int]:
    """Common-zero divisor of the two monomials and the saturation degree.

    deg[phi] = min(l1, l2) + min(N1-l1, N2-l2): the gcd of the monomials is
    x0^min(N1-l1, N2-l2) x1^min(l1, l2).
    """
    config.require_rank2("divisor_gcd_degree")
    (n1, n2), (l1, l2) = config.degrees, config.exponents
    if l1 is None or l2 is None:
        raise DegeneratePairError(
            "saturation of a pair with a vanishing component is the other line"
        )
    zero_mult = min(l1, l2)
    inf_mult = min(n1 - l1, n2 - l2)
    points = []
    if zero_mult:
        points.append((POINT_ZERO, zero_mult))
    if inf_mult:
        points.append((POINT_INFINITY, inf_mult))
    return Divisor(points=tuple(points)), zero_mult + inf_mult


# ---------------------------------------------------------------------------
# automorphism classification

KIND_NON_REDUCTIVE = "non_reductive_borel"
KIND_TORUS = "torus"
KIND_FINITE = "finite"


@dataclass(frozen=True)
class AutVerdict:
    """Type of the automorphism group of (sphere, bundle, Higgs section).

    The group is non-reductive (a Borel C* x| C) exactly when the zero
    divisor has a single support point; that case obstructs the coupled
    equations.  Two support points leave a torus, three or more only
    finitely many automorphisms.
    """

    kind: str
    obstruction: bool


def classify_automorphisms(divisor: Divisor) -> AutVerdict:
    if divisor.support_size == 0:
        raise ConfigurationError("empty divisor: the Higgs field must be nonzero")
    if divisor.support_size == 1:
        return AutVerdict(kind=KIND_NON_REDUCTIVE, obstruction=True)
    if divisor.support_size == 2:
        return AutVerdict(kind=KIND_TORUS, obstruction=False)
    return AutVerdict(kind=KIND_FINITE, obstruction=False)

