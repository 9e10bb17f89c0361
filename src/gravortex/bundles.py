"""Higgs configurations on the sphere and their automorphism verdicts.

Solvable configurations are monomial: on a degree-N line bundle the Higgs
section is x0^(N-l) x1^l in homogeneous coordinates, with squared
Fubini--Study pointwise norm

    |phi|^2_FS(s) = (1+s)^l (1-s)^(N-l) / 2^N,

vanishing to order l at s = -1 (w = 0) and order N-l at s = +1 (w = inf).
Its zeros lie on the two poles, so the automorphism verdict reads only
whether 0 < l < N, and the saturation degree of a rank-2 pair is the
degree of the gcd of two monomials.  The coupling tau enters the
obstruction predicates as the reduced integer ratio
:attr:`HiggsConfig.tau_ratio`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    ConfigurationError,
    DegeneratePairError,
    WrongRankError,
)
from .geometry import AxisymGrid

_REALS = (int, float, Fraction, np.integer, np.floating)  # real numbers, bool aside


def finite_float(value, name: str, message: str | None = None) -> float:
    """value as a finite float; ConfigurationError otherwise.

    A boolean is not a number, although float() takes it, and neither is a
    string.  ``message`` replaces the "<name> must be a number" of the error
    a non-number gets.
    """
    if isinstance(value, bool) or not isinstance(value, _REALS):
        raise ConfigurationError(f"{message or name + ' must be a number'}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigurationError(
            f"{name} must be a finite number, got an integer too large for a float"
        ) from None
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be a finite number, got {number!r}")
    return number


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
            finite_float(getattr(self, name), name, f"{name} must be a finite number")
        if not self.tau > 0:
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
    def tau_ratio(self) -> tuple[int, int]:
        """tau as the reduced ratio (p, q), q > 0, of its shortest decimal repr.

        A float is read through ``repr``, so that tau = 0.1 means 1/10, not
        its binary expansion.
        """
        if isinstance(self.tau, (float, np.floating)):
            return Decimal(repr(float(self.tau))).as_integer_ratio()
        return Fraction(self.tau).as_integer_ratio()

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


def monomial_norm_sq(s, n_deg: int, ell: int, scale: float = 1.0):
    """Squared FS norm of scale * x0^(N-l) x1^l on O(N) at s, a float or an array.

    scale^2 (1+s)^l (1-s)^(N-l) / 2^N: the Higgs components and the quiver
    arrow sections are all such monomials.
    """
    return scale**2 * (1.0 + s) ** ell * (1.0 - s) ** (n_deg - ell) / 2.0**n_deg


def higgs_profile(grid: AxisymGrid, config: HiggsConfig, j: int = 0) -> np.ndarray:
    """Squared FS norm of the j-th monomial component on the grid."""
    if not (0 <= j < config.rank):
        raise ConfigurationError(f"component index {j} out of range for rank {config.rank}")
    ell = config.exponents[j]
    if ell is None:
        return np.zeros(grid.n)
    return monomial_norm_sq(grid.nodes, config.degrees[j], ell)


def saturation_degree(config: HiggsConfig) -> int:
    """deg[phi] = min(l1, l2) + min(N1-l1, N2-l2) of a rank-2 monomial pair.

    The gcd of the monomials is x0^min(N1-l1, N2-l2) x1^min(l1, l2).
    """
    config.require_rank2("saturation_degree")
    (n1, n2), (l1, l2) = config.degrees, config.exponents
    if l1 is None or l2 is None:
        raise DegeneratePairError(
            "saturation of a pair with a vanishing component is the other line"
        )
    return min(l1, l2) + min(n1 - l1, n2 - l2)


# ---------------------------------------------------------------------------
# automorphism classification

KIND_NON_REDUCTIVE = "non_reductive_borel"
KIND_TORUS = "torus"


@dataclass(frozen=True)
class AutVerdict:
    """Type of the automorphism group of (sphere, bundle, Higgs section).

    The group is non-reductive (a Borel C* x| C) exactly when the Higgs
    field vanishes at a single point; that case obstructs the coupled
    equations.  A monomial with zeros at both poles leaves a torus.
    """

    kind: str
    obstruction: bool


_NON_REDUCTIVE = AutVerdict(kind=KIND_NON_REDUCTIVE, obstruction=True)
_TORUS = AutVerdict(kind=KIND_TORUS, obstruction=False)


def classify_automorphisms(config: HiggsConfig) -> AutVerdict:
    """Verdict of the abelian monomial x0^(N-l) x1^l: a torus when 0 < l < N.

    At l = 0 or l = N the only zero is one pole, of order N.
    """
    config.require_abelian("classify_automorphisms")
    (n_deg,), (ell,) = config.degrees, config.exponents
    if ell is None:
        raise ConfigurationError("the Higgs field must be nonzero to classify its automorphisms")
    return _TORUS if 0 < ell < n_deg else _NON_REDUCTIVE
