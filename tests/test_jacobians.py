"""Newton linearizations against central differences of the shared residuals.

The vortex Jacobian Delta_omega + |phi|^2_H and the coupled (u, v, c)
Jacobian, each in full space and parity-folded, are compared column by
column with central differences of the same residual definitions the
solvers iterate on.  Entries agree to 1e-7 relative to 1 + |J|; a wrong
term or a wrong fold shows up at O(1).  The parity-reduced Jacobians,
assembled at half size, are also compared with the index fold of the
full-space ones.
"""

import numpy as np
import pytest

from gravortex import HiggsConfig, build_grid, normalize_volume
from gravortex.geometry import fold_even, unfold_even
from gravortex.gravitating import _CoupledSystem
from gravortex.vortex import _VortexSystem

STEP = 1e-5
RTOL = 1e-7


def central_jacobian(f, x):
    cols = []
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = STEP
        cols.append((f(x + e) - f(x - e)) / (2.0 * STEP))
    return np.array(cols).T


def smooth_field(rng, s, amp):
    a, b, c = rng.uniform(-amp, amp, 3)
    return a * np.sin(2.0 * s + b) + c * s * s


def fold(z):
    """The even-parity reduction of x = (u, v, c): mirror averages of u and v, then c."""
    n = z.size // 2
    return np.concatenate([fold_even(z[:n]), fold_even(z[n : 2 * n]), z[2 * n :]])


def unfold(y):
    """The x = (u, v, c) with even u and v whose reduction is y."""
    m = y.size // 2
    return np.concatenate([unfold_even(y[:m]), unfold_even(y[m : 2 * m]), y[2 * m :]])


def assert_matches(jac, fd):
    assert jac.shape == fd.shape
    assert np.all(np.abs(jac - fd) <= RTOL * (1.0 + np.abs(jac)))


@pytest.mark.parametrize("n", [33, 65])
def test_vortex_jacobian(n):
    grid = build_grid(n)
    rng = np.random.default_rng(n)
    metric = normalize_volume(grid, smooth_field(rng, grid.nodes, 0.2))
    cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
    system = _VortexSystem(grid, metric, cfg, symmetric=False)
    v = smooth_field(rng, grid.nodes, 0.3)
    assert_matches(system.jacobian(v, None), central_jacobian(system.residual, v))


@pytest.mark.parametrize("n", [33, 65])
def test_parity_reduced_vortex_jacobian(n):
    grid = build_grid(n)
    rng = np.random.default_rng(n + 1)
    even = lambda f: f + f[::-1]  # noqa: E731
    metric = normalize_volume(grid, even(smooth_field(rng, grid.nodes, 0.1)))
    cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
    system = _VortexSystem(grid, metric, cfg, symmetric=True)
    full_system = _VortexSystem(grid, metric, cfg, symmetric=False)
    y = fold_even(even(smooth_field(rng, grid.nodes, 0.15)))
    jac = system.jacobian(unfold_even(y), None)
    assert jac.shape == (n // 2 + 1, n // 2 + 1)
    assert_matches(jac, central_jacobian(lambda z: fold_even(system.residual(unfold_even(z))), y))
    # fold: average the rows of each mirror pair, then sum its columns
    full = full_system.jacobian(unfold_even(y), None)
    rows, mid = fold_even(full), n // 2
    folded = rows[:, mid:] + rows[:, mid::-1]
    folded[:, 0] = rows[:, mid]
    assert np.max(np.abs(jac - folded)) <= 1e-14 * np.max(np.abs(full))


@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize(
    "degree, exponent, tau, symmetric",
    [(3, 1, 7.0, False), (2, 1, 5.0, False), (2, 1, 5.0, True)],
    ids=["full-asymmetric", "full-symmetric", "parity-folded"],
)
def test_coupled_jacobian(n, degree, exponent, tau, symmetric):
    grid = build_grid(n)
    rng = np.random.default_rng(10 * n + degree)
    cfg = HiggsConfig(degrees=(degree,), exponents=(exponent,), tau=tau)
    system = _CoupledSystem(grid, cfg, 0.3, symmetric)
    u = normalize_volume(grid, smooth_field(rng, grid.nodes, 0.2)).u
    v = smooth_field(rng, grid.nodes, 0.3)
    x = np.concatenate([u, v, [1.7]])
    reduce, expand = (fold, unfold) if symmetric else (lambda z: z, lambda z: z)
    y = reduce(x)  # the coordinates the Newton step is solved in

    def reduced_residual(z):
        return reduce(system.residual(expand(z)))

    jac, rhs = system.linearization(expand(y), system.evaluate(expand(y)))
    assert np.array_equal(rhs, -reduced_residual(y))
    assert jac.shape == ((n + 2, n + 2) if symmetric else (2 * n + 1, 2 * n + 1))
    assert_matches(jac, central_jacobian(reduced_residual, y))


@pytest.mark.parametrize("n", [33, 65, 129])
def test_half_size_assembly_is_fold_of_full_space(n):
    # fold: average the rows of each mirror pair, then sum its columns
    grid = build_grid(n)
    rng = np.random.default_rng(n)
    cfg = HiggsConfig(degrees=(2,), exponents=(1,), tau=5.0)
    reduced = _CoupledSystem(grid, cfg, 0.3, True)
    full = _CoupledSystem(grid, cfg, 0.3, False)
    even = lambda f: f + f[::-1]  # noqa: E731
    u = normalize_volume(grid, even(smooth_field(rng, grid.nodes, 0.1))).u
    v = even(smooth_field(rng, grid.nodes, 0.15))
    x = np.concatenate([u, v, [1.7]])
    assert np.array_equal(unfold(fold(x)), x)

    jac, rhs = reduced.linearization(x, reduced.evaluate(x))
    jac_full, rhs_full = full.linearization(x, full.evaluate(x))
    rows = np.array([fold(col) for col in jac_full.T]).T
    expand = np.array([unfold(e) for e in np.eye(n + 2)]).T
    folded = rows @ expand
    assert jac.shape == (n + 2, n + 2)
    assert np.max(np.abs(jac - folded)) <= 1e-14 * np.max(np.abs(jac_full))
    assert np.array_equal(rhs, fold(rhs_full))
