"""Grid construction, quadrature, Laplacian, and curvature invariants."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gravortex import (
    BundleMetricPotential,
    ConfigurationError,
    ConformalMetric,
    ContinuationSchedule,
    GravitatingState,
    HiggsConfig,
    NonabelianMetric,
    NumericInputError,
    build_grid,
    einstein_bogomolnyi_solve,
    futaki_quadrature,
    gravitating_residual,
    integrate,
    laplacian,
    nonabelian_residual,
    normalize_volume,
    quiver_vortex_residual,
    round_metric,
    scalar_curvature,
    solve_gravitating,
    solve_vortex,
    volume,
    vortex_residual,
)
from gravortex import geometry
from gravortex.geometry import (
    DENSE_D1_MAX_N,
    GAUSS_BONNET_TOTAL,
    _row_sums,
    conformal_integral,
    cumulative_antiderivative,
    hamiltonian_potential,
    write_profile_csv,
)
from gravortex.gravitating import c_from_integral_identity
from gravortex.quiver import gravitating_vortex_spec

TWO_PI = 2.0 * math.pi


def random_bump(rng, s):
    a = rng.uniform(-0.4, 0.4)
    b = rng.uniform(1.0, 6.0)
    s0 = rng.uniform(-0.7, 0.7)
    return a * np.exp(-b * (s - s0) ** 2)


def reference_d1(n):
    """d1 with every row computed: off-diagonal quotients, row-sum diagonal."""
    m = n - 1
    j = np.arange(n)
    s = np.sin(np.pi * (2 * j - m) / (2 * m))
    bary = np.ones(n)
    bary[0] = bary[-1] = 0.5
    bary *= (-1.0) ** j
    dx = s[:, None] - s[None, :]
    dx[j, j] = 1.0
    d1 = (bary[None, :] / bary[:, None]) / dx
    d1[j, j] = 0.0
    d1[j, j] = -_row_sums(d1, work=dx)
    return d1


def reference_weights(n):
    """Clenshaw--Curtis weights summed node by node from their cosine series."""
    m = n - 1
    k = np.arange(1, m // 2 + 1)
    coef = -(np.where(2 * k == m, 1.0, 2.0) / (4.0 * k * k - 1.0))
    terms = coef[None, :] * np.cos(2.0 * np.outer(np.pi * np.arange(n) / m, k))
    weights = np.array([2.0 * math.fsum([1.0, *row.tolist()]) / m for row in terms])
    weights[[0, m]] *= 0.5
    return weights


@pytest.fixture(scope="module")
def grid129():
    return build_grid(129)


@pytest.fixture(scope="module")
def grid_ladder():
    return [build_grid(n) for n in (129, 1025, 4097)]


class TestBuildGrid:
    def test_weights_sum_to_two(self):
        grid = build_grid(33)
        assert abs(math.fsum(grid.weights.tolist()) - 2.0) <= 1e-12

    def test_derivative_of_constant_vanishes(self):
        for n in (33, 129):
            grid = build_grid(n)
            assert np.max(np.abs(grid.d1 @ np.ones(grid.n))) <= 1e-12

    def test_d1_independent_of_blas_threads(self):
        # the diagonal row sums are numpy reductions, not BLAS products, so
        # the split of rows between BLAS threads cannot change a bit of d1
        import gravortex

        src = str(Path(gravortex.__file__).resolve().parents[1])
        code = (
            "import hashlib; from gravortex import build_grid; "
            "print(hashlib.sha1(build_grid(2051).d1.tobytes()).hexdigest())"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            digests.append(out.stdout.strip())
        assert len(digests[0]) == 40 and digests[0] == digests[1]

    def test_lap_fs_independent_of_blas_threads(self):
        # above DENSE_D1_MAX_N the applied Laplacian is FFTs and cumulative
        # sums, and lap_fs and lap_fs_even are filled entrywise by numpy at
        # every n: no BLAS product touches any of them
        import gravortex

        src = str(Path(gravortex.__file__).resolve().parents[1])
        code = (
            "import hashlib; from gravortex import build_grid; g = build_grid(1025); "
            "sha = lambda a: hashlib.sha1(a.tobytes()).hexdigest(); "
            "f = 1.0 / (1.3 - g.nodes) + g.nodes**7; "
            "print(sha(g.apply_lap_fs(f)), 'd1' in vars(g), *(sha(getattr(build_grid(n), a)) "
            "for n in (257, 1025) for a in ('lap_fs', 'lap_fs_even')))"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            outputs.append(out.stdout.split())
        assert len(outputs[0]) == 6 and outputs[0] == outputs[1]
        assert outputs[0][1] == "False"

    @pytest.mark.usefixtures("fresh_grids")
    def test_one_grid_per_resolution(self):
        # keyed on int(n), and the resolution is checked before the cache is
        # read, so a float n is refused although 129.0 == 129 and both hash alike
        grid = build_grid(np.int64(129))
        assert type(grid.n) is int and build_grid(129) is grid
        with pytest.raises(ConfigurationError, match="must be an integer"):
            build_grid(129.0)
        assert build_grid(np.int64(129)) is grid

    def test_shared_arrays_are_read_only(self):
        grid = build_grid(65)
        for name in ("nodes", "weights", "bary", "d1", "lap_fs", "lap_fs_even"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid, name)[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            grid.nodes *= 2.0

    @pytest.mark.usefixtures("fresh_grids")
    def test_d1_built_on_first_access(self):
        grid = build_grid(129)
        assert "d1" not in vars(grid)
        d1 = grid.d1
        assert grid.d1 is d1 and vars(grid)["d1"] is d1

    def test_quadrature_exact_for_s_squared(self):
        grid = build_grid(65)
        value = math.fsum((grid.weights * grid.nodes**2).tolist())
        assert abs(value - 2.0 / 3.0) <= 1e-12

    def test_quadrature_exact_to_induced_degree(self, grid_ladder):
        # n-point weights integrate polynomials up to degree n-1 exactly
        for grid in [build_grid(33), *grid_ladder]:
            m = grid.n - 1
            for power in (m - 2, m):
                value = math.fsum((grid.weights * grid.nodes**power).tolist())
                assert abs(value - 2.0 / (power + 1)) <= 1e-12
            value = math.fsum((grid.weights * grid.nodes ** (m - 1)).tolist())
            assert abs(value) <= 1e-12

    @pytest.mark.parametrize("n", (33, 129, 1025))
    def test_matches_reference_construction(self, n):
        # d1 mirrored from its upper rows is the full-row d1 bit for bit;
        # the FFT weights agree with the cosine series to round-off
        grid = build_grid(n)
        assert np.array_equal(grid.d1, reference_d1(n))
        assert np.max(np.abs(grid.weights - reference_weights(n))) <= 1e-16

    def test_exact_mirror_symmetry(self, grid_ladder):
        # on the ladder n - 1 is a power of two, where the FFT already rounds
        # both halves of the weights alike; at n = 1043 (n - 1 = 2 * 521) it
        # does not, so there only the symmetrisation makes them equal
        for grid in [*grid_ladder, build_grid(1043)]:
            assert np.array_equal(grid.weights, grid.weights[::-1])
            assert np.array_equal(grid.d1, -grid.d1[::-1, ::-1])

    def test_d2_is_d1_composed(self):
        # second derivatives are d1 applied twice, accurate on polynomials
        grid = build_grid(33)
        s = grid.nodes
        poly2 = s**10 - 3.0 * s**7 + 0.5 * s**2
        second = 90.0 * s**8 - 126.0 * s**5 + 1.0
        assert np.max(np.abs(grid.d1 @ (grid.d1 @ poly2) - second)) <= 1e-9

    def test_nodes_symmetric_and_contain_zero(self, grid129):
        s = grid129.nodes
        assert np.all(s == -s[::-1])
        assert s[grid129.n // 2] == 0.0

    @pytest.mark.parametrize("bad", [34, 31, 4099, 128])
    def test_invalid_node_counts_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            build_grid(bad)

    def test_deterministic(self):
        a, b = build_grid(65), build_grid(65)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.d1, b.d1)


def chebyshev_t(n, k):
    """T_k at the exact Chebyshev points x_j = cos(pi j / m) = -s_j, with dT_k/dx there."""
    m = n - 1
    theta = np.pi * np.arange(n) / m
    slope = np.empty(n)
    slope[1:-1] = k * np.sin(k * theta[1:-1]) / np.sin(theta[1:-1])
    slope[0], slope[-1] = k * k, (-1) ** (k + 1) * k * k
    return np.cos(theta), np.cos(k * theta), slope


class TestDiff:
    """:meth:`AxisymGrid.diff`: d1 @ f up to DENSE_D1_MAX_N nodes, FFTs above."""

    @pytest.mark.parametrize("n", (513, 1025, 2049, 4097))
    def test_fft_path_matches_dense(self, n):
        # both forms amplify round-off by O(n^2); they agree to a few 1e-16 n^2
        grid = build_grid(n)
        s = grid.nodes
        d1 = grid.d1
        smooth = (np.sin(2.0 * s) + s**5, np.exp(-3.0 * (s - 0.2) ** 2), 1.0 / (1.3 - s))
        for f in (*smooth, np.cos(40.0 * s)):
            dense = d1 @ f
            assert np.max(np.abs(grid.diff(f) - dense)) <= 1e-15 * n * n * np.max(np.abs(dense))
            dense = -2.0 * (d1 @ ((1.0 - s**2) * dense))
            dense += (2.0 * (n - 1)) * np.dot(grid.bary, f) / grid.bary
            tol = 1e-14 * n * n * np.max(np.abs(dense))
            assert np.max(np.abs(grid.apply_lap_fs(f) - dense)) <= tol

    @pytest.mark.usefixtures("fresh_grids")
    @pytest.mark.parametrize("n", (129, 513, 1025, 2049, 4097))
    def test_exact_on_polynomials(self, n):
        # diff and the Laplacian are exact to degree n - 1.  f(s) = T_k(-s),
        # so f' = -T_k'(x) and, the Laplacian being even,
        # Delta f = 2 x T_k' + 2 k^2 T_k
        grid = build_grid(n)
        m = n - 1
        for k in sorted({0, 1, 2, 3, 7, m // 2, m - 2, m - 1, m}):
            x, t, slope = chebyshev_t(n, k)
            scale = max(1.0, k * k)
            assert np.max(np.abs(grid.diff(t) + slope)) <= 1e-12 * n * scale, k
            lap = 2.0 * x * slope + 2.0 * k * k * t
            assert np.max(np.abs(grid.apply_lap_fs(t) - lap)) <= 1e-11 * n * scale, k
        assert ("d1" in vars(grid)) == (n <= DENSE_D1_MAX_N)

    @pytest.mark.parametrize("n", (33, 129, 257))
    def test_dense_path_bit_identical(self, n):
        grid = build_grid(n)
        s = grid.nodes
        for f in (np.sin(2.0 * s) + s**5, 1.0 / (1.3 - s)):
            assert np.array_equal(grid.diff(f), grid.d1 @ f)
            div = -2.0 * (grid.d1 @ ((1.0 - s**2) * (grid.d1 @ f)))
            dense = div + (2.0 * (n - 1)) * np.dot(grid.bary, f) / grid.bary
            assert np.array_equal(grid.apply_lap_fs(f), dense)


class TestProlong:
    @pytest.mark.parametrize("n", (513, 1025))
    def test_reproduces_polynomials(self, grid129, n):
        # every monomial s^k of degree k <= 128 that the 129-node grid resolves
        fine = build_grid(n)
        for k in range(grid129.n):
            values = grid129.prolong(grid129.nodes**k, n)
            assert np.max(np.abs(values - fine.nodes**k)) <= 1e-13, k

    @pytest.mark.parametrize("n", (257, 1025))
    def test_reproduces_chebyshev_polynomials(self, grid129, n):
        # T_k sampled at the exact Chebyshev points -cos(pi j / m), so the
        # top coefficient k = 128 is checked without the amplified rounding
        # of the stored nodes
        m, m_fine = grid129.n - 1, n - 1
        for k in range(grid129.n):
            coarse = np.cos(k * np.pi * np.arange(m + 1) / m)
            fine = np.cos(k * np.pi * np.arange(m_fine + 1) / m_fine)
            assert np.max(np.abs(grid129.prolong(coarse, n) - fine)) <= 1e-13, k

    def test_same_resolution_is_identity(self, grid129):
        f = np.exp(grid129.nodes) * np.cos(3.0 * grid129.nodes)
        assert np.max(np.abs(grid129.prolong(f, grid129.n) - f)) <= 1e-14

    def test_coarser_target_refused(self, grid129):
        with pytest.raises(ConfigurationError):
            grid129.prolong(np.zeros(grid129.n), 65)
        with pytest.raises(ConfigurationError):
            grid129.prolong(np.zeros(65), 257)
        # targets build_grid refuses: even, and above 4097
        for n in (100, 4099):
            with pytest.raises(ConfigurationError, match="node count n must"):
                grid129.prolong(np.zeros(grid129.n), n)


class TestIntegrate:
    def test_round_volume(self, grid129):
        assert abs(integrate(grid129, None, np.ones(129)) - TWO_PI) <= 1e-12

    def test_zero_integrand(self, grid129):
        assert integrate(grid129, None, np.zeros(129)) == 0.0

    def test_odd_function_vanishes(self, grid129):
        assert abs(integrate(grid129, None, grid129.nodes)) <= 1e-12

    def test_linearity(self, grid129):
        s = grid129.nodes
        f, g = np.exp(s), np.cos(2 * s)
        lhs = integrate(grid129, None, 2.5 * f - 1.25 * g)
        rhs = 2.5 * integrate(grid129, None, f) - 1.25 * integrate(grid129, None, g)
        assert abs(lhs - rhs) <= 1e-12

    def test_rejects_non_finite(self, grid129):
        bad = np.ones(129)
        bad[3] = np.inf
        with pytest.raises(NumericInputError):
            integrate(grid129, None, bad)

    def test_sum_that_is_not_finite_is_the_float_sum(self, grid129):
        # every term pi w exp(2u) is finite at u = 354.5 but their sum is
        # not, and at u = 400 the terms are +-inf: math.fsum raised
        # OverflowError and ValueError
        assert conformal_integral(grid129, np.full(129, 354.5), 1.0) == math.inf
        sign = np.where(grid129.nodes > 0.0, 1.0, -1.0)
        with np.errstate(over="ignore"):
            assert math.isnan(conformal_integral(grid129, np.full(129, 400.0), sign))


ABELIAN = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
RANK2 = HiggsConfig(degrees=(2, 2), exponents=(1, 0), tau=9.0)
SPEC = gravitating_vortex_spec(2, 1, 5.0, 0.1)
SCHEDULE = ContinuationSchedule((0.0, 0.04, 0.08))


def _state(u, v):
    return GravitatingState(ConformalMetric(u), BundleMetricPotential(v), 0.0, 0.1)


def _rank2(grid, v1=None, v2=None, off=None):
    zero = np.zeros(grid.n)
    metric = NonabelianMetric(zero if v1 is None else v1, zero if v2 is None else v2, off)
    return nonabelian_residual(grid, None, metric, RANK2)


def _quiver(grid, metric=None, dst=None):
    zero = np.zeros(grid.n)
    potentials = {"src": zero, "dst": zero if dst is None else dst}
    return quiver_vortex_residual(SPEC, potentials, metric, grid)


def _metric_case(call, id):
    """A case that puts the field into a metric potential."""
    return pytest.param(lambda g, f: call(g, ConformalMetric(f)), "metric potential", id=id)


# each public function that takes a grid field, called with the field f in
# one of its grid-field arguments, and the name its errors give that argument
FIELDS = [
    _metric_case(lambda g, m: integrate(g, m, np.ones(g.n)), "integrate-metric"),
    pytest.param(lambda g, f: integrate(g, None, f), "integrand", id="integrate-integrand"),
    _metric_case(volume, "volume"),
    pytest.param(normalize_volume, "u_raw", id="normalize_volume"),
    _metric_case(lambda g, m: laplacian(g, m, np.ones(g.n)), "laplacian-metric"),
    pytest.param(lambda g, f: laplacian(g, None, f), "laplacian input", id="laplacian-input"),
    _metric_case(scalar_curvature, "scalar_curvature"),
    pytest.param(cumulative_antiderivative, "antiderivative input", id="cumulative_antiderivative"),
    _metric_case(hamiltonian_potential, "hamiltonian_potential"),
    pytest.param(lambda g, f: g.prolong(f, 129), "prolonged values", id="prolong"),
    pytest.param(
        lambda g, f: vortex_residual(g, None, BundleMetricPotential(f), ABELIAN),
        "bundle potential",
        id="vortex_residual-potential",
    ),
    pytest.param(lambda g, f: _rank2(g, v1=f), "v1", id="nonabelian_residual-v1"),
    pytest.param(lambda g, f: _rank2(g, v2=f), "v2", id="nonabelian_residual-v2"),
    pytest.param(
        lambda g, f: _rank2(g, off=f), "offdiag_cofactor", id="nonabelian_residual-offdiag"
    ),
    pytest.param(
        lambda g, f: gravitating_residual(g, _state(f, np.zeros(g.n)), ABELIAN),
        "metric potential",
        id="gravitating_residual-metric",
    ),
    pytest.param(
        lambda g, f: gravitating_residual(g, _state(np.zeros(g.n), f), ABELIAN),
        "bundle potential",
        id="gravitating_residual-bundle",
    ),
    pytest.param(
        lambda g, f: c_from_integral_identity(g, _state(f, np.zeros(g.n)), ABELIAN),
        "metric potential",
        id="c_from_integral_identity",
    ),
    pytest.param(
        lambda g, f: c_from_integral_identity(g, _state(np.zeros(g.n), f), ABELIAN),
        "bundle potential",
        id="c_from_integral_identity-bundle",
    ),
    pytest.param(
        lambda g, f: futaki_quadrature(g, ABELIAN, f, [np.zeros(g.n)]),
        "metric potential",
        id="futaki_quadrature-metric",
    ),
    pytest.param(
        lambda g, f: futaki_quadrature(g, ABELIAN, np.zeros(g.n), [f]),
        "potentials[0]",
        id="futaki_quadrature-potential",
    ),
    _metric_case(lambda g, m: _quiver(g, metric=m), "quiver-metric"),
    pytest.param(lambda g, f: _quiver(g, dst=f), "potentials['dst']", id="quiver-potential"),
]


@pytest.mark.parametrize(
    "call, name, entries",
    [pytest.param(*p.values, 33, id=p.id) for p in FIELDS]
    + [
        # a 67-entry field gave a 65-entry antiderivative, a 63-entry one IndexError
        pytest.param(
            cumulative_antiderivative, "antiderivative input", m, id=f"cumulative_antiderivative-{m}"
        )
        for m in (67, 63)
    ],
)
def test_field_of_another_resolution_rejected(call, name, entries):
    # a 33-entry field on a 65-node grid used to raise numpy's broadcast ValueError
    message = f"^{re.escape(name)} resolution does not match the grid$"
    with pytest.raises(ConfigurationError, match=message):
        call(build_grid(65), np.zeros(entries))


@pytest.mark.parametrize("call, name", FIELDS)
def test_field_with_a_nan_rejected(call, name):
    # the NaN used to reach a kernel, which named it by its own argument or
    # (integrate's metric potential) returned nan
    field = np.zeros(65)
    field[7] = np.nan
    message = f"^{re.escape(name)} contains non-finite entries$"
    with pytest.raises(NumericInputError, match=message):
        call(build_grid(65), field)


# each public call, given a metric m and a zero field z, and every grid
# field it takes, in the order grid_vector checks them: each once
CHECKS = [
    pytest.param(
        lambda g, m, z: integrate(g, m, z), ["integrand", "metric potential"], id="integrate"
    ),
    pytest.param(lambda g, m, z: volume(g, m), ["metric potential"], id="volume"),
    pytest.param(lambda g, m, z: normalize_volume(g, m.u), ["u_raw"], id="normalize_volume"),
    pytest.param(
        lambda g, m, z: laplacian(g, m, z), ["laplacian input", "metric potential"], id="laplacian"
    ),
    pytest.param(
        lambda g, m, z: scalar_curvature(g, m), ["metric potential"], id="scalar_curvature"
    ),
    pytest.param(
        lambda g, m, z: cumulative_antiderivative(g, z),
        ["antiderivative input"],
        id="cumulative_antiderivative",
    ),
    pytest.param(
        lambda g, m, z: hamiltonian_potential(g, m),
        ["metric potential"],
        id="hamiltonian_potential",
    ),
    pytest.param(
        lambda g, m, z: futaki_quadrature(g, ABELIAN, m.u, [z]),
        ["metric potential", "potentials[0]"],
        id="futaki_quadrature",
    ),
    pytest.param(
        lambda g, m, z: futaki_quadrature(g, RANK2, m.u, [z, z]),
        ["metric potential", "potentials[0]", "potentials[1]"],
        id="futaki_quadrature-rank2",
    ),
    pytest.param(
        lambda g, m, z: quiver_vortex_residual(SPEC, {"src": z, "dst": z}, m, g),
        ["metric potential", "potentials['src']", "potentials['dst']"],
        id="quiver_vortex_residual",
    ),
    pytest.param(
        lambda g, m, z: nonabelian_residual(g, m, NonabelianMetric(z, z, z), RANK2),
        ["metric potential", "v1", "v2", "offdiag_cofactor"],
        id="nonabelian_residual",
    ),
    pytest.param(
        lambda g, m, z: c_from_integral_identity(g, _state(m.u, z), ABELIAN),
        ["metric potential", "bundle potential"],
        id="c_from_integral_identity",
    ),
    pytest.param(
        lambda g, m, z: gravitating_residual(g, _state(m.u, z), ABELIAN),
        ["metric potential", "bundle potential"],
        id="gravitating_residual",
    ),
    pytest.param(
        lambda g, m, z: vortex_residual(g, m, BundleMetricPotential(z), ABELIAN),
        ["metric potential", "bundle potential"],
        id="vortex_residual",
    ),
    pytest.param(
        lambda g, m, z: solve_gravitating(ABELIAN, ContinuationSchedule((0.0,)), g, v0=z),
        ["initial guess"],
        id="solve_gravitating",
    ),
    # the solvers' own starts, coarse solves and prolongations are not checked
    # again: these made 1, 8 and 4 checks, the v0 case 1
    pytest.param(
        lambda g, m, z: solve_vortex(build_grid(257), None, ABELIAN),
        [],
        id="solve_vortex-nested",
    ),
    pytest.param(
        lambda g, m, z: solve_gravitating(ABELIAN, SCHEDULE, build_grid(257)),
        [],
        id="solve_gravitating-nested",
    ),
    pytest.param(
        lambda g, m, z: solve_gravitating(ABELIAN, SCHEDULE, build_grid(129), v0=np.zeros(129)),
        ["initial guess"],
        id="solve_gravitating-v0",
    ),
    pytest.param(
        lambda g, m, z: einstein_bogomolnyi_solve(ABELIAN, build_grid(257)),
        [],
        id="einstein_bogomolnyi_solve-nested",
    ),
]


@pytest.mark.parametrize("call, names", CHECKS)
def test_each_field_checked_once(monkeypatch, call, names):
    # through the public functions it called, one futaki_quadrature call
    # made 18 checks here, 11 of them on its metric potential
    grid = build_grid(65)
    metric = normalize_volume(grid, 0.1 * grid.nodes**2)
    original = geometry.grid_vector
    checked = []

    def counting(grid, values, name):
        checked.append(name)
        return original(grid, values, name)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("gravortex") and vars(module).get("grid_vector") is original:
            monkeypatch.setattr(module, "grid_vector", counting)
    call(grid, metric, np.zeros(grid.n))
    assert checked == names


@pytest.mark.parametrize(
    "mean",
    [
        pytest.param(lambda g, m: scalar_curvature(g, m).mean, id="scalar_curvature"),
        pytest.param(lambda g, m: hamiltonian_potential(g, m)[0], id="hamiltonian_potential"),
        pytest.param(
            lambda g, m: gravitating_residual(g, _state(m.u, np.zeros(g.n)), ABELIAN)[2],
            id="gravitating_residual",
        ),
        pytest.param(
            lambda g, m: c_from_integral_identity(g, _state(m.u, np.zeros(g.n)), ABELIAN),
            id="c_from_integral_identity",
        ),
        pytest.param(lambda g, m: _quiver(g, metric=m).c_est, id="quiver_vortex_residual"),
    ],
)
def test_mean_over_a_zero_volume_is_nan(mean):
    # exp(2u) underflows at every node of this finite potential and
    # exp(-2u) overflows; these raised ZeroDivisionError (the mean's division
    # by the zero volume) or NumericInputError (the curvature's inf in a
    # checked integrand)
    grid = build_grid(65)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(mean(grid, ConformalMetric(np.full(grid.n, -400.0))))


class TestNormalizeVolume:
    def test_round_already_normalized(self, grid129):
        metric = normalize_volume(grid129, np.zeros(129))
        assert np.max(np.abs(metric.u)) <= 1e-14

    def test_constant_shifts_out(self, grid129):
        metric = normalize_volume(grid129, 3.0 * np.ones(129))
        assert np.max(np.abs(metric.u)) <= 1e-12

    @pytest.mark.parametrize("level", (-400.0, 354.5))
    def test_volume_zero_or_overflowing_refused(self, grid129, level):
        # exp(2u) underflows to 0 at every node, or the volume overflows, so
        # no finite shift exists; these raised ValueError (the log of 0) and
        # OverflowError (math.fsum)
        with pytest.raises(NumericInputError, match="^u_raw has volume (0.0|inf), "):
            normalize_volume(grid129, np.full(129, level))

    def test_idempotent_on_bump(self, grid129):
        rng = np.random.default_rng(7)
        metric = normalize_volume(grid129, random_bump(rng, grid129.nodes))
        assert abs(volume(grid129, metric) - TWO_PI) <= 1e-12 * TWO_PI
        again = normalize_volume(grid129, metric.u)
        assert np.max(np.abs(again.u - metric.u)) <= 1e-14


class TestLaplacian:
    def test_kernel_contains_constants(self, grid129):
        # differentiation round-off floor; spectrally this is exact
        out = laplacian(grid129, None, np.ones(129))
        assert np.max(np.abs(out)) <= 1e-10

    def test_divergence_theorem_any_metric(self, grid129):
        rng = np.random.default_rng(11)
        metric = normalize_volume(grid129, random_bump(rng, grid129.nodes))
        out = laplacian(grid129, metric, grid129.nodes)
        assert abs(integrate(grid129, metric, out)) <= 1e-10

    def test_round_eigenfunction_degree_one(self):
        # positive convention: Delta_FS s = 4 s; checked at two resolutions
        for n in (65, 129):
            grid = build_grid(n)
            out = laplacian(grid, None, grid.nodes)
            assert np.max(np.abs(out - 4.0 * grid.nodes)) <= 1e-10

    def test_conformal_covariance(self, grid129):
        rng = np.random.default_rng(3)
        metric = normalize_volume(grid129, random_bump(rng, grid129.nodes))
        f = np.sin(2.0 * grid129.nodes)
        lhs = laplacian(grid129, metric, f)
        rhs = np.exp(-2.0 * metric.u) * laplacian(grid129, None, f)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_self_adjointness(self, grid129):
        rng = np.random.default_rng(5)
        metric = normalize_volume(grid129, random_bump(rng, grid129.nodes))
        for _ in range(5):
            f = random_bump(rng, grid129.nodes) + 0.2 * np.cos(3 * grid129.nodes)
            g = random_bump(rng, grid129.nodes) + 0.1 * grid129.nodes**2
            lhs = integrate(grid129, metric, f * laplacian(grid129, metric, g))
            rhs = integrate(grid129, metric, g * laplacian(grid129, metric, f))
            scale = integrate(grid129, metric, np.abs(f * laplacian(grid129, metric, g)))
            assert abs(lhs - rhs) / max(scale, 1e-30) <= 1e-9

    @pytest.mark.parametrize("n", (129, 1025))
    def test_matrix_free_matches_dense(self, n):
        # the two forms differ only in the order of the round-off; each d1
        # application amplifies it by O(n^2) relative to the largest entry
        grid = build_grid(n)
        s = grid.nodes
        for f in (np.sin(2.0 * s) + s**5, np.exp(-3.0 * (s - 0.2) ** 2), np.ones(n)):
            tol = 2e-14 * n * n * max(1.0, float(np.max(np.abs(f))))
            assert np.max(np.abs(grid.apply_lap_fs(f) - grid.lap_fs @ f)) <= tol

    @pytest.mark.usefixtures("fresh_grids")
    def test_even_fold_keeps_no_full_matrix(self):
        # the fold is the same bits whether or not lap_fs was built first, and
        # a parity-reduced solve, which reads only the fold, holds no n x n
        fresh = build_grid(129)
        build_grid.cache_clear()  # a second grid of the same n, not the shared one
        warm = build_grid(129)
        full = warm.lap_fs
        assert np.array_equal(fresh.lap_fs_even, warm.lap_fs_even)
        assert "lap_fs" not in vars(fresh)
        mid = fresh.n // 2
        f = np.cos(fresh.nodes) + fresh.nodes**4
        folded = fresh.lap_fs_even @ f[mid:]
        assert np.max(np.abs(folded - (full @ f)[mid:])) <= 1e-9

    @pytest.mark.parametrize("n", (33, 129, 257, 1025))
    def test_lap_fs_legendre_eigenvalues(self, n):
        # Delta_FS P_l = 2 l (l + 1) P_l for every degree l <= n - 1 the
        # grid resolves, so the kernel is the constants alone; built
        # entrywise, the error relative to the eigenvalue stays below
        # 1.5e-16 n^2 (measured: 1e-14 to 7e-11).  The divergence form
        # -2 d1 (1 - s^2) d1 misses P_{n-1} by 0.07 to 0.39 and maps the
        # top Chebyshev mode to zero
        grid = build_grid(n)
        legendre = np.polynomial.legendre.legvander(grid.nodes, n - 1)[:, 1:]
        ell = np.arange(1, n)
        eig = 2.0 * ell * (ell + 1)
        err = np.max(np.abs(grid.lap_fs @ legendre - eig * legendre), axis=0) / eig
        assert np.max(err) <= 1.5e-16 * n * n

    @pytest.mark.parametrize("n", (33, 129, 257, 1025, 1043))
    def test_lap_fs_centro_symmetric(self, n):
        lap = build_grid(n).lap_fs
        assert np.array_equal(lap, lap[::-1, ::-1])

    @pytest.mark.parametrize("n", (33, 129, 257, 1025))
    def test_even_fold_matches_folded_lap_fs(self, n):
        # folding the d1 factors and folding their product differ by round-off
        grid = build_grid(n)
        full = grid.lap_fs
        hi = np.arange(n // 2, n)
        lo = n - 1 - hi
        rows = 0.5 * (full[hi] + full[lo])
        folded = rows[:, hi] + rows[:, lo]
        folded[:, 0] *= 0.5
        tol = 1e-14 * np.max(np.abs(full))
        assert np.max(np.abs(grid.lap_fs_even - folded)) <= tol

    def test_spectral_convergence(self):
        # analytic function with a pole just outside [-1, 1]: the error decays
        # geometrically, so each doubling of n beats any fixed power of 1/n
        errors = []
        for n in (33, 65, 129):
            grid = build_grid(n)
            s = grid.nodes
            f = 1.0 / (1.02 - s)
            fp = 1.0 / (1.02 - s) ** 2
            fpp = 2.0 / (1.02 - s) ** 3
            exact = -2.0 * ((1 - s**2) * fpp - 2 * s * fp)
            errors.append(np.max(np.abs(laplacian(grid, None, f) - exact)))
            scale = np.max(np.abs(exact))
        assert errors[1] <= errors[0] * 1e-2
        assert errors[2] <= errors[1] * 1e-2
        # the decay rate itself accelerates: no fixed power matches it
        assert errors[2] / errors[1] <= errors[1] / errors[0]
        assert errors[2] <= 1e-9 * scale


class TestScalarCurvature:
    def test_round_is_constant_four(self, grid129):
        report = scalar_curvature(grid129, round_metric(grid129))
        assert np.max(np.abs(report.s_field - 4.0)) <= 1e-12
        assert abs(report.total - GAUSS_BONNET_TOTAL) <= 1e-10
        assert abs(report.mean - 4.0) <= 1e-10

    def test_gauss_bonnet_random_conformal(self, grid129):
        rng = np.random.default_rng(42)
        for _ in range(20):
            metric = normalize_volume(grid129, random_bump(rng, grid129.nodes))
            report = scalar_curvature(grid129, metric)
            assert abs(report.total - GAUSS_BONNET_TOTAL) <= 1e-8 * GAUSS_BONNET_TOTAL

    def test_round_field_resolution_independent(self):
        a = scalar_curvature(build_grid(65), round_metric(build_grid(65)))
        b = scalar_curvature(build_grid(129), round_metric(build_grid(129)))
        assert np.max(np.abs(a.s_field - 4.0)) <= 1e-12
        assert np.max(np.abs(b.s_field - 4.0)) <= 1e-12


class TestHamiltonianPotential:
    def test_round_metric_gives_half_s(self, grid_ladder):
        for grid in grid_ladder:
            ham = hamiltonian_potential(grid, None)
            assert np.max(np.abs(ham - grid.nodes / 2.0)) <= 1e-12

    def test_mean_normalized_any_metric(self, grid129):
        rng = np.random.default_rng(9)
        metric = normalize_volume(grid129, random_bump(rng, grid129.nodes))
        ham = hamiltonian_potential(grid129, metric)
        assert abs(integrate(grid129, metric, ham)) <= 1e-10

    def test_antiderivative_exact_on_polynomials(self, grid_ladder):
        for grid in grid_ladder:
            s = grid.nodes
            out = cumulative_antiderivative(grid, 3.0 * s**2)
            assert np.max(np.abs(out - (s**3 + 1.0))) <= 1e-10

    def test_antiderivative_exact_at_top_degree(self, grid_ladder):
        # f = T_{n-1}; its antiderivative has degree n, beyond the grid
        for grid in grid_ladder:
            m = grid.n - 1
            theta = np.arccos(grid.nodes)
            exact = np.cos((m + 1) * theta) / (2 * (m + 1)) - np.cos((m - 1) * theta) / (2 * (m - 1))
            out = cumulative_antiderivative(grid, np.cos(m * theta))
            assert np.max(np.abs(out - (exact - exact[0]))) <= 1e-12


class TestCsvExport:
    def test_profile_roundtrip_17_digits(self, grid129, tmp_path):
        path = tmp_path / "field.csv"
        values = np.exp(grid129.nodes) / 3.0
        write_profile_csv(path, grid129.nodes, values)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "s,value"
        parsed = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
        assert np.array_equal(parsed[:, 0], grid129.nodes)
        assert np.array_equal(parsed[:, 1], values)

    def test_bytes_match_per_element_format(self, tmp_path):
        path = tmp_path / "field.csv"
        s = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 1.0 / 3.0])
        values = np.array([-0.0, 5e-324, 1e300, -1e-300, math.pi, 0.1])
        write_profile_csv(path, s, values, header="s,v")
        lines = ["s,v"] + [f"{si:.17g},{vi:.17g}" for si, vi in zip(s, values)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert path.read_text().splitlines()[1] == "-1,-0"
