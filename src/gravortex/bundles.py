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

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, WrongRankError, finite_float, is_integer
from .geometry import AxisymGrid


TAU_NOT_POSITIVE = "tau must be positive"


@lru_cache(maxsize=1024)
def _decimal_ratio(tau: float) -> tuple[int, int]:
    """The reduced ratio of tau's shortest decimal repr; a sweep parses each tau once.

    A float is read through ``repr``, so that tau = 0.1 means 1/10, not its
    binary expansion.
    """
    return Decimal(repr(tau)).as_integer_ratio()


def coupling_errors(tau, alpha) -> list[str]:
    """One message per rule that tau or alpha breaks; empty for valid couplings.

    Both must be finite numbers (:func:`~gravortex.errors.finite_float`), and
    tau positive.  The messages come in a fixed order: tau's number check,
    alpha's, then tau's sign.
    """
    errors = []
    try:
        positive = finite_float(tau, "tau", "tau must be a positive number") > 0
    except ConfigurationError as exc:
        errors.append(str(exc))
        positive = True  # one message per value
    try:
        finite_float(alpha, "alpha", "alpha must be a number")
    except ConfigurationError as exc:
        errors.append(str(exc))
    if not positive:
        errors.append(TAU_NOT_POSITIVE)
    return errors


@dataclass(frozen=True)
class HiggsConfig:
    """Degrees, monomial exponents, and coupling constants of a Higgs pair.

    One entry is the abelian case; two entries the split rank-2 case, which
    must be ordered so degrees[0] <= degrees[1].  An exponent of None means
    that component of the Higgs field vanishes identically.  The central
    element of the first equation is z = -i alpha tau / 2 (times the
    identity in rank 2), exposed through ``z_imag``.

    Every value is checked here: degrees and exponents are lists or tuples
    of integers, tau and alpha pass :func:`coupling_errors`; a
    ConfigurationError names the first value that breaks its rule.  The
    stored degrees and exponents are tuples of ints and alpha a float; tau
    is kept as given, so that an integer or a Fraction keeps its exact
    ratio.  ``tau_ratio`` is tau as the reduced ratio (p, q), q > 0, of its
    shortest decimal repr; the obstruction predicates decide in these
    integers.
    """

    degrees: tuple[int, ...]
    exponents: tuple[int | None, ...]
    tau: float
    alpha: float = 0.0
    tau_ratio: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        degrees, exponents = self.degrees, self.exponents
        if not isinstance(degrees, (list, tuple)):
            raise ConfigurationError(f"degrees must be a list of integers, got {degrees!r}")
        if not isinstance(exponents, (list, tuple)):
            raise ConfigurationError(
                f"exponents must be a list of integers or nulls, got {exponents!r}"
            )
        if type(degrees) is not tuple:
            degrees = tuple(degrees)
        if type(exponents) is not tuple:
            exponents = tuple(exponents)
        if len(degrees) not in (1, 2):
            raise ConfigurationError("degrees must have one (abelian) or two (rank-2) entries")
        if len(exponents) != len(degrees):
            raise ConfigurationError("exponents must parallel degrees")
        # normalized: tuples of plain ints (and None), which need no rebuilding
        plain = degrees is self.degrees and exponents is self.exponents
        for nj in degrees:
            if not (is_integer(nj) and nj > 0):
                raise ConfigurationError(f"degrees must be positive integers, got {nj!r}")
            plain = plain and type(nj) is int
        for nj, lj in zip(degrees, exponents):
            if lj is None:
                continue
            if not (is_integer(lj) and 0 <= lj <= nj):
                raise ConfigurationError(
                    f"exponents must satisfy 0 <= l <= N, got l={lj!r} for N={nj}"
                )
            plain = plain and type(lj) is int
        if len(degrees) == 2 and degrees[0] > degrees[1]:
            raise ConfigurationError("rank-2 degrees must be ordered N1 <= N2")
        errors = coupling_errors(self.tau, self.alpha)
        if errors:
            raise ConfigurationError(errors[0])
        if not plain:
            object.__setattr__(self, "degrees", tuple(int(d) for d in degrees))
            object.__setattr__(
                self, "exponents", tuple(None if e is None else int(e) for e in exponents)
            )
        if type(self.alpha) is not float:
            object.__setattr__(self, "alpha", float(self.alpha))
        tau = self.tau
        if isinstance(tau, (float, np.floating)):
            object.__setattr__(self, "tau_ratio", _decimal_ratio(float(tau)))
        else:
            object.__setattr__(self, "tau_ratio", Fraction(tau).as_integer_ratio())

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def is_abelian(self) -> bool:
        return len(self.degrees) == 1

    @property
    def z_imag(self) -> float:
        """Imaginary part of the central constant z = -i alpha tau / 2."""
        return -0.5 * self.alpha * float(self.tau)

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
    """deg[phi], the degree of the saturation of phi(O) in a rank-2 split pair.

    With both monomials nonzero their gcd is x0^min(N1-l1, N2-l2)
    x1^min(l1, l2), of degree min(l1, l2) + min(N1-l1, N2-l2); with one
    component zero the saturation is the other summand, of its degree.
    """
    config.require_rank2("saturation_degree")
    (n1, n2), (l1, l2) = config.degrees, config.exponents
    if l1 is None and l2 is None:
        raise ConfigurationError("the Higgs field must be nonzero to saturate its image")
    if l1 is None or l2 is None:
        return n1 if l2 is None else n2
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
