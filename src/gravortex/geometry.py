"""Spectral discretization of the round sphere and conformal metrics.

Axisymmetric fields on the sphere are smooth functions of the height
coordinate s = (|w|^2 - 1)/(|w|^2 + 1) of the affine coordinate w, so
Chebyshev collocation on Gauss--Lobatto nodes in s gives spectral accuracy
and the poles s = +-1 need no special treatment.

A grid is built from its nodes, its quadrature weights (one FFT) and its
barycentric weights; it holds no n x n matrix until one is read.  The
grid of each resolution is built once per process and shared by every
caller (:func:`build_grid`), its arrays read-only, so a dense operator
that one solve reads is filled once for all of them.  Grid vectors are
differentiated by :meth:`AxisymGrid.diff`: up to ``DENSE_D1_MAX_N``
nodes by the dense first-derivative matrix ``d1``, built on half its
rows and mirrored on first use, and above it through FFT-computed
Chebyshev coefficients in O(n log n), with no ``d1``.  The Laplacian is
two such derivatives and a rank-one correction, and the antiderivative
works on the same coefficients.  Every residual, the solvers' own
included, applies the Laplacian this way.  The dense
:attr:`AxisymGrid.lap_fs` and its even-parity fold
:attr:`AxisymGrid.lap_fs_even` are read only where the Newton Jacobians
are assembled; each is filled entrywise in O(n^2) from a closed form in
the rows of ``d1``, computed block by block, so no matrix product builds
them and a grid above DENSE_D1_MAX_N holds no ``d1``.

A grid field is checked once, by :func:`grid_vector` at the entry of each
public function that takes it.  The kernels that the Newton residuals share
(:func:`conformal_volume`, :func:`curvature_field`, ``bundle_curvature``)
check nothing, so a non-finite line-search trial gives a non-finite residual.

Conventions (see CONVENTIONS.md for the full ledger):

* background Kaehler form ``omega_FS = i dw dwbar / (1+|w|^2)^2`` with
  total area 2*pi; in (s, theta) coordinates ``omega_FS = ds dtheta / 2``;
* a conformal metric is ``omega = exp(2u) omega_FS`` with u = u(s);
* the Laplacian is ``Delta = 2i Lambda dbar d``, which on functions equals
  minus the Laplace--Beltrami operator, so its spectrum is nonnegative and
  ``Delta s = 4 s`` on the round metric;
* the scalar curvature of the round volume-2*pi metric is the constant 4,
  and Gauss--Bonnet reads ``integral S omega = 8*pi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, NumericInputError, require_integer

ROUND_VOLUME = 2.0 * math.pi
GAUSS_BONNET_TOTAL = 8.0 * math.pi
ROUND_SCALAR_CURVATURE = 4.0

MIN_NODES = 33
MAX_NODES = 4097
# Grids up to this size differentiate with the dense d1, which is several
# times faster than the FFT route there; finer grids differentiate through
# Chebyshev coefficients.
DENSE_D1_MAX_N = 257
# rows per block when d1, lap_fs or lap_fs_even is filled; at n = 4097 a
# block's temporaries are 4 MiB each, below the size of the n = 1025 matrices
_ROW_BLOCK = 128


@dataclass(frozen=True, eq=False)
class AxisymGrid:
    """Chebyshev--Gauss--Lobatto collocation grid on s in [-1, 1].

    :meth:`diff` and the dense matrix :attr:`d1` differentiate the degree
    n-1 interpolant exactly.  ``weights`` are Clenshaw--Curtis weights
    matched to the nodes (exact for polynomials of degree <= n-1, summing
    to 2).  Nodes, weights and ``d1`` are exactly symmetric under s -> -s:
    ``weights == weights[::-1]`` and ``d1 == -d1[::-1, ::-1]``.

    The round Laplacian is applied matrix-free by :meth:`apply_lap_fs`, two
    :meth:`diff` calls and a rank-one term: O(n^2) products with ``d1`` up
    to DENSE_D1_MAX_N nodes, O(n log n) FFTs above.  ``d1`` (8 n^2 bytes),
    :attr:`lap_fs` and :attr:`lap_fs_even` are cached properties, each
    built on first access in O(n^2) elementwise numpy work, the same bits
    for every BLAS thread count; only the Newton Jacobians read the last
    two, and neither reads ``d1``.

    :func:`build_grid` returns one shared grid per resolution, so these
    members stay for the life of the process once read: only those that
    something read, ``lap_fs_even`` being (n//2 + 1)^2 doubles, 2.1 MB at
    n = 1025 and 34 MB at n = 4097.  Every array of a grid is read-only;
    writing into one raises ValueError instead of changing a later solve.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    bary: np.ndarray = field(repr=False)  # barycentric weights of the node set

    @cached_property
    def d1(self) -> np.ndarray:
        """Dense first-derivative matrix, built on first access."""
        return _read_only(_dense_d1(self.nodes, self.bary))

    def diff(self, f: np.ndarray) -> np.ndarray:
        """Derivative of the nodal interpolant of a grid vector, at the nodes.

        Up to DENSE_D1_MAX_N nodes this is ``d1 @ f``.  Above, it works on
        the Chebyshev coefficients a_k of f, O(n log n) and without ``d1``:
        one DCT-I (:func:`_chebyshev_coefficients`), the recurrence
        b_{k-1} = b_{k+1} + 2k a_k as two reversed cumulative sums (over odd
        and over even k) and one inverse FFT (Trefethen, *Approximation
        Theory and Approximation Practice*, SIAM 2013, ch. 3 and 21).  Both
        forms are exact for polynomials of degree <= n-1.
        """
        if self.n <= DENSE_D1_MAX_N:
            return self.d1 @ f
        m = self.n - 1  # even, as n is odd
        t = _chebyshev_coefficients(f)
        t *= 2.0 * np.arange(m + 1)
        t[m] *= 0.5  # a_m comes doubled
        b = np.empty(m + 1)
        b[0:m:2] = np.cumsum(t[m - 1 :: -2])[::-1]
        b[1:m:2] = np.cumsum(t[m:1:-2])[::-1]
        b[m] = 0.0
        # b[0] is twice the constant coefficient, as the inverse FFT takes
        # it; the nodes run along x = -s, so d/ds = -d/dx
        return -m * np.fft.irfft(b, 2 * m)[: m + 1]

    @cached_property
    def lap_fs(self) -> np.ndarray:
        """Dense round-metric Laplacian, -2 ((1-s^2) D2 - 2 S d1), with S = diag(s).

        The collocation of -2 ((1-s^2) f'' - 2 s f') with D2 the exact
        second derivative of the degree n-1 interpolant, so it is exact for
        polynomials of degree <= n-1: its eigenvalues are 2 l (l+1),
        l = 0..n-1, on the Legendre polynomials, and its kernel is the
        constants alone.  The divergence form -2 d1 (1-s^2) d1 also sends the
        top Chebyshev mode (-1)^j to zero, because d1 (-1)^j vanishes at the
        interior nodes and 1-s^2 at the poles.  Built entrywise in O(n^2)
        (:func:`_lap_fs_rows`) on rows 0..n//2; the rest is their exact
        mirror, as the matrix is centro-symmetric:
        ``lap_fs == lap_fs[::-1, ::-1]``.  The middle row is symmetric as
        computed, since the middle diagonal entry of ``d1`` is exactly zero
        at every accepted n.
        """
        n, mid = self.n, self.n // 2
        lap = np.empty((n, n))
        for rows, blk in _lap_fs_rows(self.nodes, self.bary):
            lap[rows] = blk
        np.copyto(lap[mid + 1 :], lap[mid - 1 :: -1, ::-1])
        return _read_only(lap)

    @cached_property
    def lap_fs_even(self) -> np.ndarray:
        """:attr:`lap_fs` on even grid vectors, as a map of their values at s >= 0.

        With mid = n // 2, entry (a, b) averages the rows of the mirror nodes
        mid +- a and sums the columns of the mirror nodes mid +- b (the middle
        node is its own mirror), so ``lap_fs_even @ f[mid:]`` is the mirror
        average of ``(lap_fs @ f)[mid:]`` for every even f.  By the
        centro-symmetry of :attr:`lap_fs` that is L[mid-a, mid-b] +
        L[mid-a, mid+b] for b > 0 and L[mid-a, mid] for b = 0, read off the
        rows 0..mid of :func:`_lap_fs_rows` block by block with no
        :attr:`lap_fs`; it equals the mirror fold of :attr:`lap_fs` bit for
        bit.  The parity-reduced Newton Jacobians read it.
        """
        mid = self.n // 2
        even = np.empty((mid + 1, mid + 1))
        for rows, blk in _lap_fs_rows(self.nodes, self.bary):
            # row i of lap_fs is row mid - i of the fold
            out = even[mid + 1 - rows.stop : mid + 1 - rows.start][::-1]
            np.add(blk[:, mid::-1], blk[:, mid:], out=out)
            out[:, 0] = blk[:, mid]
        return _read_only(even)

    def apply_lap_fs(self, f: np.ndarray) -> np.ndarray:
        """Round-metric Laplacian of a grid vector, :attr:`lap_fs` applied without the matrix.

        The divergence form -2 (d/ds) ((1-s^2) (d/ds) f), two :meth:`diff`
        calls, plus the rank-one term 2 (n-1) (b . f) / b_i, with b the
        barycentric weights.  The interpolant at the n nodes of the degree-n
        polynomial (1-s^2) p', p the degree n-1 interpolant of f, is
        (1-s^2) p' + (n-1) c w, with c = sum_j f_j / w'(s_j) the leading
        coefficient of p, w the node polynomial and 1 / w'(s_i)
        proportional to b_i; the rank-one term removes the derivative of
        that aliased part, so the sum is -2 ((1-s^2) p'' - 2 s p') at the
        nodes.  Writing it as the divergence form plus a correction keeps the
        round-off of the residuals at that of two first derivatives.
        """
        div = -2.0 * self.diff((1.0 - self.nodes**2) * self.diff(f))
        return div + (2.0 * (self.n - 1)) * np.dot(self.bary, f) / self.bary

    def prolong(self, values: np.ndarray, n: int) -> np.ndarray:
        """The nodal interpolant of ``values``, evaluated at the nodes of ``build_grid(n)``.

        Zero-pads the Chebyshev coefficients (one DCT-I, as in
        :func:`cumulative_antiderivative`) and returns to nodal values with
        one inverse FFT, O(n log n); exact for polynomials of degree
        <= self.n - 1.  ``n`` is a resolution :func:`build_grid` accepts,
        not coarser than this grid.
        """
        f = grid_vector(self, values, "prolonged values")
        check_resolution(n)
        if n < self.n:
            raise ConfigurationError(f"cannot prolong from n={self.n} to the coarser n={n}")
        m, m_fine = self.n - 1, n - 1
        c = np.zeros(m_fine + 1)
        c[: m + 1] = _chebyshev_coefficients(f)
        if m_fine > m:
            c[m] *= 0.5  # the top coefficient of the interpolant is halved
        return m_fine * np.fft.irfft(c, 2 * m_fine)[: m_fine + 1]


def fold_even(g: np.ndarray) -> np.ndarray:
    """Mirror average of a grid vector at s >= 0: entry j averages nodes mid +- j, mid = n // 2."""
    mid = g.shape[0] // 2
    return 0.5 * (g[mid:] + g[mid::-1])


def unfold_even(y: np.ndarray) -> np.ndarray:
    """The even grid vector whose values at the nodes mid + j (s >= 0) are y[j]."""
    return np.concatenate([y[:0:-1], y])


def check_resolution(n) -> None:
    """Raise ConfigurationError unless n is an odd integer in [33, 4097].

    Odd keeps s = 0 on the grid, which parity arguments rely on.
    """
    require_integer(n, "node count n")
    if n % 2 == 0:
        raise ConfigurationError(f"node count n must be odd, got n={n}")
    if not (MIN_NODES <= n <= MAX_NODES):
        raise ConfigurationError(
            f"node count n must satisfy {MIN_NODES} <= n <= {MAX_NODES}, got n={n}"
        )


def _row_sums(a: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Row sums of a to within one rounding, whatever the summation order.

    ``work`` is scratch space of a's shape.  Error-free extraction (Rump,
    Ogita and Oishi, "Accurate floating-point summation", 2008): with a
    power of two sigma above twice a row's absolute sum, (sigma + x) - sigma
    is a multiple of 2^-53 sigma, so these high parts and all their partial
    sums are exact, and the remainders x - high are exact and below
    2^-52 sigma, so their sum adds only a rounding of their own size.
    """
    np.abs(a, out=work)
    sigma = np.ldexp(1.0, np.frexp(2.0 * work.sum(axis=1))[1])[:, None]
    np.add(a, sigma, out=work)
    work -= sigma  # the high parts
    high = work.sum(axis=1)
    np.subtract(a, work, out=work)  # the remainders
    return high + work.sum(axis=1)


def build_grid(n: int) -> AxisymGrid:
    """The collocation grid of n nodes: nodes, quadrature and barycentric weights.

    The resolution is validated by :func:`check_resolution` on every call,
    before the cache is read, so ``build_grid(129.0)`` is refused however
    often ``build_grid(129)`` has run.  The grid of each resolution is then
    built once per process and shared (:func:`_grid`, keyed by ``int(n)``):
    every solve, nested seed and CLI job at that n reads the same read-only
    arrays, and the dense operators that one of them reads are there for
    the next (see :class:`AxisymGrid` for what that holds).
    ``build_grid.cache_clear()`` forgets every grid.
    """
    check_resolution(n)
    return _grid(int(n))


@lru_cache(maxsize=8)  # every ladder resolution 2^k + 1 in [33, 4097]
def _grid(n: int) -> AxisymGrid:
    """Build the grid of n nodes, its arrays read-only.

    The weights are one DCT-I of the Chebyshev moments (Waldvogel, "Fast
    construction of the Fejer and Clenshaw-Curtis quadrature rules", BIT 46,
    2006), O(n log n) and exactly symmetric.  ``d1`` is left to its first
    access (:func:`_dense_d1`).  Deterministic for fixed n.
    """
    m = n - 1
    j = np.arange(n)
    # sin form keeps the node set exactly symmetric in floating point
    s = np.sin(np.pi * (2 * j - m) / (2 * m))
    bary = np.ones(n)
    bary[0] = bary[-1] = 0.5
    bary *= (-1.0) ** j

    # moments 1 / (1 - l^2) of the even l, the DCT-I counting l = m once
    moments = np.zeros(n)
    moments[::2] = 1.0 / (1.0 - j[::2] * j[::2])
    weights = np.fft.rfft(np.concatenate([moments, moments[-2:0:-1]])).real * (2.0 / m)
    weights[[0, m]] *= 0.5
    weights = 0.5 * (weights + weights[::-1])
    return AxisymGrid(n=n, nodes=_read_only(s), weights=_read_only(weights), bary=_read_only(bary))


build_grid.cache_clear = _grid.cache_clear


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a shared grid array that a caller writes into raises ValueError."""
    a.flags.writeable = False
    return a


def _row_blocks(n: int):
    """The rows 0..n//2 (the upper half, the middle row included) in blocks of _ROW_BLOCK."""
    mid = n // 2
    for r0 in range(0, mid + 1, _ROW_BLOCK):
        yield slice(r0, min(r0 + _ROW_BLOCK, mid + 1))


def _d1_rows(s: np.ndarray, bary: np.ndarray, rows: slice, out, inv, work) -> None:
    """Write the rows ``rows`` of the differentiation matrix of the nodes s to ``out``.

    ``inv`` receives 1 / (s_i - s_j), with 1 on the diagonal, and ``work``
    is scratch space; both have out's shape.  The weight ratios b_j / b_i
    are powers of two in size, so their products with ``inv`` are the
    rounded quotients b_j / (b_i (s_i - s_j)).  The diagonal is the negated
    sum of the row's off-diagonal entries to within one rounding, so
    d1 @ const vanishes to round-off; the sums are elementwise numpy work,
    not BLAS products, so the rows depend on neither the block split nor
    the BLAS thread count.
    """
    diag = (np.arange(out.shape[0]), np.arange(rows.start, rows.stop))
    np.subtract(s[rows, None], s[None, :], out=inv)
    inv[diag] = 1.0
    np.reciprocal(inv, out=inv)
    np.multiply(bary[None, :] / bary[rows, None], inv, out=out)
    out[diag] = 0.0
    out[diag] = -_row_sums(out, work=work)


def _dense_d1(s: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """The differentiation matrix of the nodes s with barycentric weights bary.

    Computed on its upper half of rows, the middle row included, in row
    blocks that bound the temporaries, and the rest is mirrored from it.
    """
    n = s.shape[0]
    mid = n // 2
    d1 = np.empty((n, n))
    k = min(_ROW_BLOCK, mid + 1)
    inv, work = np.empty((k, n)), np.empty((k, n))
    for rows in _row_blocks(n):
        m = rows.stop - rows.start
        _d1_rows(s, bary, rows, d1[rows], inv[:m], work[:m])
    # s and bary are exactly symmetric, so d1[m - i, m - j] = -d1[i, j]
    # exactly; writing through out= needs no half-size temporary
    np.negative(d1[mid - 1 :: -1, ::-1], out=d1[mid + 1 :])
    return d1


def _lap_fs_rows(s: np.ndarray, bary: np.ndarray):
    """Yield (rows, block) over :func:`_row_blocks`: those rows of -2 (W D2 - 2 S d1), in O(n^2).

    Each block is a view of one buffer that the next block overwrites.
    W = diag(1-s^2), S = diag(s), and D2 is the second-derivative matrix of
    the degree n-1 interpolant (see :attr:`AxisymGrid.lap_fs`).  Off the
    diagonal D2_ij = 2 d1_ij (d1_ii - 1/(s_i - s_j)) (Baltensperger and
    Trummer, "Spectral differencing with a twist", SIAM J. Sci. Comput. 24,
    2003), and the diagonal is the negated sum of the row's off-diagonal
    entries to within one rounding, because the Laplacian of a constant
    vanishes.  The rows of d1 come from :func:`_d1_rows`, so the blocks
    are elementwise numpy work, the same for every BLAS thread count, and
    need no dense ``d1``.
    """
    n = s.shape[0]
    k = min(_ROW_BLOCK, n // 2 + 1)
    lap, d1, work = (np.empty((k, n)) for _ in range(3))
    for rows in _row_blocks(n):
        m = rows.stop - rows.start
        blk, d = lap[:m], d1[:m]
        _d1_rows(s, bary, rows, d, blk, work[:m])  # blk receives 1 / (s_i - s_j)
        si = s[rows, None]
        diag = (np.arange(m), np.arange(rows.start, rows.stop))
        # -4 d1_ij ((1-s_i^2) (d1_ii - 1/(s_i - s_j)) - s_i) = -2 (W D2 - 2 S d1)_ij
        np.subtract(d[diag][:, None], blk, out=blk)
        blk *= -4.0 * (1.0 - si * si)
        blk += 4.0 * si
        blk *= d
        blk[diag] = 0.0
        blk[diag] = -_row_sums(blk, work=work[:m])
        yield rows, blk


@dataclass(frozen=True, eq=False)
class ConformalMetric:
    """Log-conformal factor u defining omega = exp(2u) omega_FS.

    Instances produced by :func:`normalize_volume` satisfy
    ``integral exp(2u) omega_FS = ROUND_VOLUME`` to round-off.
    """

    u: np.ndarray


def round_metric(grid: AxisymGrid) -> ConformalMetric:
    return ConformalMetric(u=np.zeros(grid.n))


def grid_vector(grid: AxisymGrid, values, name: str) -> np.ndarray:
    """values as a finite float grid vector; raises on a shape or finiteness defect."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (grid.n,):
        raise ConfigurationError(f"{name} resolution does not match the grid")
    if not np.all(np.isfinite(arr)):
        raise NumericInputError(f"{name} contains non-finite entries")
    return arr


def grid_metric(grid: AxisymGrid, metric: ConformalMetric | None) -> ConformalMetric:
    """metric with its potential checked by :func:`grid_vector`; the round metric for None."""
    if metric is None:
        return round_metric(grid)
    return ConformalMetric(u=grid_vector(grid, metric.u, "metric potential"))


def conformal_volume(grid: AxisymGrid, u: np.ndarray) -> float:
    """integral exp(2u) omega_FS of an unchecked potential, summed exactly (math.fsum)."""
    return math.fsum((np.pi * grid.weights * np.exp(2.0 * u)).tolist())


def curvature_field(grid: AxisymGrid, u: np.ndarray) -> np.ndarray:
    """S = exp(-2u) (4 + 2 Delta_FS u) of an unchecked potential, pointwise."""
    return np.exp(-2.0 * u) * (ROUND_SCALAR_CURVATURE + 2.0 * grid.apply_lap_fs(u))


def integrate(grid: AxisymGrid, metric: ConformalMetric | None, f: np.ndarray) -> float:
    """Integral of f against omega = exp(2u) omega_FS.

    Uses exact compensated summation (math.fsum) so the result does not
    depend on accumulation order.
    """
    f = grid_vector(grid, f, "integrand")
    u = grid_metric(grid, metric).u
    return math.fsum((np.pi * grid.weights * f * np.exp(2.0 * u)).tolist())


def volume(grid: AxisymGrid, metric: ConformalMetric | None) -> float:
    return conformal_volume(grid, grid_metric(grid, metric).u)


def normalize_volume(grid: AxisymGrid, u_raw: np.ndarray) -> ConformalMetric:
    """Shift u_raw by the constant making the conformal volume ROUND_VOLUME, 2 pi.

    Idempotent: normalizing an already normalized potential changes nothing.
    """
    u_raw = grid_vector(grid, u_raw, "u_raw")
    shift = 0.5 * math.log(conformal_volume(grid, u_raw) / ROUND_VOLUME)
    return ConformalMetric(u=u_raw - shift)


def laplacian(
    grid: AxisymGrid, metric: ConformalMetric | None, f: np.ndarray
) -> np.ndarray:
    """Apply Delta_omega = exp(-2u) Delta_FS to a grid scalar.

    Positive convention: Delta_omega has nonnegative spectrum, and the round
    Laplacian satisfies Delta_FS s = 4 s.
    """
    f = grid_vector(grid, f, "laplacian input")
    u = grid_metric(grid, metric).u
    return np.exp(-2.0 * u) * grid.apply_lap_fs(f)


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    s_field: np.ndarray
    total: float
    mean: float


def scalar_curvature(grid: AxisymGrid, metric: ConformalMetric) -> CurvatureReport:
    """Scalar curvature of omega = exp(2u) omega_FS.

    Conformal rule under the positive Laplacian convention:
    ``S = exp(-2u) (4 + 2 Delta_FS u)`` (:func:`curvature_field`).  The
    total is Gauss--Bonnet 8*pi up to quadrature error for any smooth u.
    """
    metric = grid_metric(grid, metric)
    s_field = curvature_field(grid, metric.u)
    total = integrate(grid, metric, s_field)
    vol = volume(grid, metric)
    return CurvatureReport(s_field=s_field, total=total, mean=total / vol)


def _chebyshev_coefficients(f: np.ndarray) -> np.ndarray:
    """The DCT-I of nodal values f over m = n - 1, by one real FFT of the even extension.

    The nodes are s_j = -cos(pi j / m), so these are the coefficients a_k of
    the interpolant f(-x) = sum a_k T_k(x), except that a_0 and a_m come
    doubled.
    """
    m = f.shape[0] - 1
    return np.fft.rfft(np.concatenate([f, f[-2:0:-1]])).real / m


def cumulative_antiderivative(grid: AxisymGrid, f: np.ndarray) -> np.ndarray:
    """Antiderivative of the nodal interpolant of f, pinned to 0 at s = -1.

    Integrates in the Chebyshev basis in O(n log n).  The nodes are
    s_j = -cos(pi j / m) with m = n - 1, so a DCT-I (``np.fft.rfft`` of the
    even extension) gives the coefficients a_k of f(-x) = sum a_k T_k(x).
    The antiderivative has coefficients b_k = (a_{k-1} - a_{k+1}) / 2k, with
    a_0 doubled as the DCT returns it; the degree-n term aliases onto
    T_{n-2} at the nodes.  One inverse FFT returns to nodal values, negated
    for ds = -dx, and subtracting the value at s = -1 pins the constant.
    The result is the antiderivative of the degree n-1 interpolant at the
    nodes, so it is exact for polynomial f of degree <= n-1.
    """
    f = grid_vector(grid, f, "antiderivative input")
    m = grid.n - 1
    a = _chebyshev_coefficients(f)
    a[m] *= 0.5
    a = np.concatenate([a, [0.0, 0.0]])
    k = np.arange(1, m + 2)
    b = np.zeros(m + 2)
    b[1:] = (a[k - 1] - a[k + 1]) / (2.0 * k)
    b[m - 1] += b[m + 1]
    c = -b[: m + 1]
    c[m] *= 2.0  # irfft halves both end coefficients; c[0] is zero
    g = m * np.fft.irfft(c, 2 * m)[: m + 1]
    return g - g[0]


def hamiltonian_potential(grid: AxisymGrid, metric: ConformalMetric | None) -> np.ndarray:
    """Mean-normalized Hamiltonian potential of the standard circle action.

    The rotation field has momentum h with h'(s) = exp(2u)/2 against
    omega = exp(2u) omega_FS; the additive constant is fixed by
    ``integral h omega = 0``.  On the round metric h = s/2.
    """
    metric = grid_metric(grid, metric)
    h = cumulative_antiderivative(grid, 0.5 * np.exp(2.0 * metric.u))
    h_mean = integrate(grid, metric, h) / volume(grid, metric)
    return h - h_mean


@lru_cache(maxsize=8)
def _profile_rows(nodes: bytes) -> str:
    """The rows of a profile CSV on these float64 nodes, each value a ``%.17g`` slot.

    A node column is formatted once per grid, and the value column of each
    file is one ``%`` over this template; ``%.17g`` and ``{:.17g}`` print a
    float alike.
    """
    return "".join([f"{x:.17g},%.17g\n" for x in np.frombuffer(nodes).tolist()])


def write_profile_csv(path, s: np.ndarray, values: np.ndarray, header: str = "s,value") -> None:
    """Write a (s, value) profile with 17 significant digits per entry."""
    rows = _profile_rows(np.asarray(s, dtype=float).tobytes())
    text = header + "\n" + rows % tuple(values.tolist())
    from .reporting import atomic_write_text

    atomic_write_text(path, text)
