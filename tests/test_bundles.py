"""Higgs configurations, monomial profiles, saturation degrees, automorphism verdicts."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravortex import (
    ConfigurationError,
    HiggsConfig,
    WrongRankError,
    build_grid,
    classify_automorphisms,
    higgs_profile,
    integrate,
)
from gravortex.bundles import coupling_errors, saturation_degree
from gravortex.errors import is_integer

TWO_PI = 2.0 * math.pi


def poles_where_monomial_vanishes(n_deg: int, ell: int) -> int:
    """Reference: x0^(N-l) x1^l vanishes to order l at w = 0 and N-l at w = inf."""
    return (ell > 0) + (n_deg - ell > 0)


@pytest.fixture(scope="module")
def grid():
    return build_grid(65)


class TestHiggsConfig:
    def test_valid_abelian(self):
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0, alpha=0.1)
        assert cfg.is_abelian and cfg.rank == 1
        assert cfg.z_imag == -0.25

    def test_rank2_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            HiggsConfig(degrees=(3, 1), exponents=(0, 0), tau=5.0)

    @pytest.mark.parametrize(
        "degrees,exponents,tau",
        [
            ((0,), (0,), 3.0),
            ((2,), (3,), 3.0),
            ((2,), (-1,), 3.0),
            ((1,), (0,), 0.0),
            ((1,), (0,), -1.0),
            ((1, 2, 3), (0, 0, 0), 3.0),
            # booleans are not numbers, although Python treats them as 0 and 1
            ((True,), (0,), 3.0),
            ((2,), (True,), 5.0),
            ((1,), (0,), True),
            ((1,), (0,), math.inf),
            ((1,), (0,), math.nan),
            # a degrees or exponents value that is not a list
            (5, (1,), 5.0),
            ((2,), None, 5.0),
        ],
    )
    def test_invalid_configs_rejected(self, degrees, exponents, tau):
        with pytest.raises(ConfigurationError):
            HiggsConfig(degrees=degrees, exponents=exponents, tau=tau)

    @pytest.mark.parametrize("name", ["tau", "alpha"])
    def test_integer_coupling_too_large_for_a_float_rejected(self, name):
        couplings = {"tau": 5, "alpha": 0, name: 10**400}
        with pytest.raises(ConfigurationError, match="integer too large for a float"):
            HiggsConfig(degrees=(2,), exponents=(1,), **couplings)

    def test_values_normalized_once(self):
        cfg = HiggsConfig(degrees=[np.int64(2)], exponents=(np.int64(1),), tau=5, alpha=1)
        assert cfg.degrees == (2,) and type(cfg.degrees[0]) is int
        assert cfg.exponents == (1,) and type(cfg.exponents[0]) is int
        assert cfg.alpha == 1.0 and type(cfg.alpha) is float
        assert cfg.tau == 5 and type(cfg.tau) is int  # echoed as given
        degrees, exponents = (2, 3), (1, None)
        cfg = HiggsConfig(degrees=degrees, exponents=exponents, tau=5.5)
        assert cfg.degrees is degrees and cfg.exponents is exponents

    @pytest.mark.parametrize(
        "tau, alpha, expected",
        [
            (5, 0.5, []),
            ("abc", 0, ["tau must be a positive number, got 'abc'"]),
            (-1, "x", ["alpha must be a number, got 'x'", "tau must be positive"]),
            (math.inf, math.nan, [
                "tau must be a finite number, got inf",
                "alpha must be a finite number, got nan",
            ]),
        ],
    )
    def test_coupling_errors_in_order(self, tau, alpha, expected):
        assert coupling_errors(tau, alpha) == expected
        if expected:  # HiggsConfig raises the first
            with pytest.raises(ConfigurationError) as err:
                HiggsConfig(degrees=(2,), exponents=(1,), tau=tau, alpha=alpha)
            assert str(err.value) == expected[0]

    @pytest.mark.parametrize(
        "value, integer",
        [(3, True), (np.int64(3), True), (True, False), (3.0, False), ("3", False), (None, False)],
    )
    def test_is_integer(self, value, integer):
        assert is_integer(value) is integer

    def test_tau_fraction_uses_decimal_semantics(self):
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=0.1)
        assert cfg.tau_ratio == (1, 10)
        assert HiggsConfig(degrees=(1,), exponents=(0,), tau=np.float64(2.5)).tau_ratio == (5, 2)
        assert HiggsConfig(degrees=(1,), exponents=(0,), tau=Fraction(12, 8)).tau_ratio == (3, 2)
        assert HiggsConfig(degrees=(1,), exponents=(0,), tau=6).tau_ratio == (6, 1)


class TestHiggsProfile:
    def test_value_at_south_pole(self, grid):
        cfg = HiggsConfig(degrees=(1,), exponents=(0,), tau=3.0)
        profile = higgs_profile(grid, cfg, 0)
        assert profile[0] == pytest.approx(1.0, abs=1e-15)  # s = -1

    def test_value_at_equator(self, grid):
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
        profile = higgs_profile(grid, cfg, 0)
        mid = grid.n // 2
        assert profile[mid] == pytest.approx(0.25, abs=1e-15)

    def test_zeros_at_poles(self, grid):
        cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
        profile = higgs_profile(grid, cfg, 0)
        assert profile[0] == 0.0 and profile[-1] == 0.0
        assert np.all(profile >= 0.0)

    def test_mass_decreases_in_degree(self, grid):
        # integral |phi|^2 omega = 2 pi / (N+1) for l = 0
        masses = []
        for n_deg in (1, 2, 3):
            cfg = HiggsConfig(degrees=(n_deg,), exponents=(0,), tau=9.0)
            masses.append(integrate(grid, None, higgs_profile(grid, cfg, 0)))
        assert masses[0] > masses[1] > masses[2] > 0.0
        for n_deg, mass in zip((1, 2, 3), masses):
            assert mass == pytest.approx(TWO_PI / (n_deg + 1), rel=1e-12)

    def test_zero_component(self, grid):
        cfg = HiggsConfig(degrees=(1, 2), exponents=(0, None), tau=5.0)
        assert np.all(higgs_profile(grid, cfg, 1) == 0.0)


class TestBackgroundCurvature:
    def test_degree_three_chern_quadrature(self, grid):
        # with volume 2*pi the Chern normalization makes i Lambda_FS F of the
        # FS metric on the degree-3 bundle the constant 3
        total = integrate(grid, None, 3.0 * np.ones(grid.n))
        assert total == pytest.approx(6.0 * math.pi, abs=1e-12)


class TestDivisorGcd:
    @pytest.mark.parametrize(
        "degrees,exponents,expected",
        [((1, 1), (0, 1), 0), ((2, 2), (1, 0), 1), ((3, 3), (2, 2), 3)],
    )
    def test_examples(self, degrees, exponents, expected):
        cfg = HiggsConfig(degrees=degrees, exponents=exponents, tau=9.0)
        assert saturation_degree(cfg) == expected

    def test_one_zero_component_is_the_other_summand(self):
        for exponents, expected in [((0, None), 1), ((1, None), 1), ((None, 0), 2), ((None, 2), 2)]:
            cfg = HiggsConfig(degrees=(1, 2), exponents=exponents, tau=5.0)
            assert saturation_degree(cfg) == expected

    def test_zero_pair_rejected(self):
        cfg = HiggsConfig(degrees=(1, 2), exponents=(None, None), tau=5.0)
        with pytest.raises(ConfigurationError, match="Higgs field must be nonzero"):
            saturation_degree(cfg)

    def test_wrong_rank(self):
        with pytest.raises(WrongRankError):
            saturation_degree(HiggsConfig((1,), (0,), 3.0))

    @given(
        n=st.integers(1, 6),
        l1=st.integers(0, 6),
        l2=st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_swap_symmetry(self, n, l1, l2):
        l1, l2 = min(l1, n), min(l2, n)
        cfg = HiggsConfig(degrees=(n, n), exponents=(l1, l2), tau=100.0)
        swapped = HiggsConfig(degrees=(n, n), exponents=(l2, l1), tau=100.0)
        assert saturation_degree(cfg) == saturation_degree(swapped)

    @given(
        n1=st.integers(1, 6),
        n2=st.integers(1, 6),
        l1=st.integers(0, 6),
        l2=st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_min_degree(self, n1, n2, l1, l2):
        n1, n2 = sorted((n1, n2))
        l1, l2 = min(l1, n1), min(l2, n2)
        cfg = HiggsConfig(degrees=(n1, n2), exponents=(l1, l2), tau=100.0)
        assert saturation_degree(cfg) <= min(n1, n2)


class TestBinaryForms:
    """Monomial binary forms x0^(N-l) x1^l, the only Higgs sections accepted."""

    def test_monomial_divisor(self):
        # x0^2 x1: zero of order 1 at w=0, order 2 at w=inf
        assert poles_where_monomial_vanishes(3, 1) == 2
        assert classify_automorphisms(HiggsConfig((3,), (1,), 9.0)).kind == "torus"

    def test_gcd_degree_counts_infinity(self):
        # x0 | both forms: f1 = x0^2 x1 (deg 3), f2 = x0 x1^2 (deg 3)
        cfg = HiggsConfig(degrees=(3, 3), exponents=(1, 2), tau=9.0)
        assert saturation_degree(cfg) == 2

    def test_zero_form_rejected(self):
        with pytest.raises(ConfigurationError, match="Higgs field must be nonzero"):
            classify_automorphisms(HiggsConfig(degrees=(2,), exponents=(None,), tau=5.0))


class TestAutomorphisms:
    def test_single_support_point_obstructs(self):
        for ell in (0, 3):  # x0^3 and x1^3
            verdict = classify_automorphisms(HiggsConfig((3,), (ell,), 9.0))
            assert verdict.kind == "non_reductive_borel"
            assert verdict.obstruction

    def test_two_points_torus(self):
        verdict = classify_automorphisms(HiggsConfig((2,), (1,), 5.0))
        assert verdict.kind == "torus"
        assert not verdict.obstruction

    def test_depends_only_on_support_cardinality(self):
        for n_deg in range(1, 9):
            for ell in range(n_deg + 1):
                verdict = classify_automorphisms(HiggsConfig((n_deg,), (ell,), 100.0))
                one_zero = poles_where_monomial_vanishes(n_deg, ell) == 1
                assert verdict.obstruction == one_zero, (n_deg, ell)
                assert verdict.kind == ("non_reductive_borel" if one_zero else "torus")

    def test_requires_abelian(self):
        with pytest.raises(WrongRankError):
            classify_automorphisms(HiggsConfig((1, 2), (0, 1), 9.0))
