"""Matrix-valued Laurent polynomials and analytic vector polynomials on the circle.

Everything downstream (Toeplitz sections, factorizations, classification)
manipulates two carriers: MatrixSymbol, a matrix Laurent polynomial with
coefficients on a finite degree band, and SubspaceBasis, the column matrix
of analytic vector polynomials, one column per element.
MatrixSymbol.window(lo, hi) reads the coefficients on any degree range,
zero-filled outside the band; apply_symbol acts on every column at once.
Boundary sampling uses the offset grid xi_j = exp(2 pi i (j+1/2)/K) so that
real-axis zeros of the standard fixtures (1 +- z) never coincide with a
sample point; ToleranceConfig.with_degree(N) is the one grid rule at degree N.
The pointwise statements on the circle (the pair identity, the unit ball,
positivity, invertibility) are read from the sample stack by the kernels
_eigvalsh, _norm2, _det and _inv: a closed form over the whole stack for
m <= 2 and the batched LAPACK call otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy shared by all operations; the truncation degree N
    is not part of it but an argument of every operation that truncates.

    Parameters
    ----------
    grid_size : int
        Boundary sample count K, a power of two >= 8; products of degree-N
        factors are alias-free when K >= 4*(N+1) (with_degree(N)).
    rank_tol : float
        Relative singular-value cutoff for numerical kernels.
    residual_tol : float
        Absolute tolerance for identity residuals.
    """

    grid_size: int = 512
    rank_tol: float = 1e-8
    residual_tol: float = 1e-8

    def __post_init__(self) -> None:
        k = self.grid_size
        if k & (k - 1) or k < 8:
            raise ValueError("grid_size must be a power of two >= 8")
        # an empty numerical kernel on both sides would pass vacuously
        if not 0 < self.rank_tol < 1:
            raise ValueError("rank_tol must lie strictly between 0 and 1")
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be positive")

    def with_degree(self, n: int) -> "ToleranceConfig":
        """This policy if its grid has >= 4(n+1) points (valid at degree n),
        else the same policy on the smallest power of two that has."""
        if self.grid_size >= 4 * (n + 1):
            return self
        return replace(self, grid_size=1 << (4 * n + 3).bit_length())


DEFAULT_CONFIG = ToleranceConfig()


def grid_points(K: int) -> np.ndarray:
    """Offset K-point grid exp(2 pi i (j+1/2)/K) on the unit circle."""
    return np.exp(2j * np.pi * (np.arange(K) + 0.5) / K)


@dataclass(frozen=True, eq=False)
class MatrixSymbol:
    """Matrix Laurent polynomial sum_k coeffs[k - min_deg] z^k.

    coeffs has shape (n_deg, rows, cols); degree k runs over
    [min_deg, min_deg + n_deg - 1]. Values are immutable.
    """

    rows: int
    cols: int
    min_deg: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 3 or arr.shape[1:] != (self.rows, self.cols):
            raise ValueError("coeffs must have shape (n_deg, rows, cols)")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    # -- construction -----------------------------------------------------
    @staticmethod
    def zero(rows: int, cols: int) -> "MatrixSymbol":
        return MatrixSymbol(rows, cols, 0, np.zeros((1, rows, cols), complex))

    @staticmethod
    def identity(m: int) -> "MatrixSymbol":
        return MatrixSymbol(m, m, 0, np.eye(m, dtype=complex)[None])

    @staticmethod
    def constant(mat: np.ndarray) -> "MatrixSymbol":
        mat = np.atleast_2d(np.asarray(mat, dtype=complex))
        return MatrixSymbol(mat.shape[0], mat.shape[1], 0, mat[None])

    @staticmethod
    def scalar(series: Sequence[complex], min_deg: int = 0) -> "MatrixSymbol":
        arr = np.asarray(series, dtype=complex).reshape(-1, 1, 1)
        return MatrixSymbol(1, 1, min_deg, arr)

    @staticmethod
    def monomial(k: int, m: int = 1) -> "MatrixSymbol":
        """z^k * I_m."""
        return MatrixSymbol(m, m, k, np.eye(m, dtype=complex)[None])

    @staticmethod
    def from_blocks(blocks: Sequence[Sequence["MatrixSymbol"]]) -> "MatrixSymbol":
        """Assemble a matrix symbol from a grid of scalar (1x1) symbols."""
        p, q = len(blocks), len(blocks[0])
        lo = min(s.min_deg for row in blocks for s in row)
        hi = max(s.max_deg for row in blocks for s in row)
        out = np.zeros((hi - lo + 1, p, q), complex)
        for i, row in enumerate(blocks):
            if len(row) != q:
                raise ValueError("ragged block grid")
            for j, s in enumerate(row):
                if s.rows != 1 or s.cols != 1:
                    raise ValueError("from_blocks takes scalar symbols")
                out[:, i, j] = s.window(lo, hi)[:, 0, 0]
        return MatrixSymbol(p, q, lo, out)

    @staticmethod
    def diag(*entries: "MatrixSymbol") -> "MatrixSymbol":
        """Block-diagonal stack of scalar (1x1) symbols."""
        # +0 at the lowest degree: e.scale(0) would write -0.0
        zero = MatrixSymbol.monomial(min(e.min_deg for e in entries)).scale(0)
        return MatrixSymbol.from_blocks(
            [[e if i == j else zero for j in range(len(entries))]
             for i, e in enumerate(entries)])

    # -- basic queries -----------------------------------------------------
    @property
    def max_deg(self) -> int:
        return self.min_deg + self.coeffs.shape[0] - 1

    def coeff(self, k: int) -> np.ndarray:
        if self.min_deg <= k <= self.max_deg:
            return self.coeffs[k - self.min_deg]
        return np.zeros((self.rows, self.cols), complex)

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients on degrees lo..hi, zero outside the band: a new
        array of shape (hi - lo + 1, rows, cols), empty when hi < lo."""
        out = np.zeros((max(hi - lo + 1, 0), self.rows, self.cols), complex)
        a, b = max(lo, self.min_deg), min(hi, self.max_deg)
        if a <= b:
            out[a - lo:b - lo + 1] = self.coeffs[a - self.min_deg:b - self.min_deg + 1]
        return out

    def norm_l2(self) -> float:
        """L2(T) norm with the Frobenius norm on matrix values."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "MatrixSymbol") -> "MatrixSymbol":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        lo = min(self.min_deg, other.min_deg)
        hi = max(self.max_deg, other.max_deg)
        return MatrixSymbol(self.rows, self.cols, lo,
                            self.window(lo, hi) + other.window(lo, hi))

    def __sub__(self, other: "MatrixSymbol") -> "MatrixSymbol":
        return self + other.scale(-1)

    def scale(self, c: complex) -> "MatrixSymbol":
        return MatrixSymbol(self.rows, self.cols, self.min_deg, self.coeffs * c)

    def truncate(self, lo: int, hi: int) -> "MatrixSymbol":
        """Restrict the degree band to [lo, hi] (zero symbol if disjoint)."""
        lo2, hi2 = max(lo, self.min_deg), min(hi, self.max_deg)
        if lo2 > hi2:
            return MatrixSymbol(self.rows, self.cols, 0,
                                np.zeros((1, self.rows, self.cols), complex))
        return MatrixSymbol(self.rows, self.cols, lo2,
                            self.coeffs[lo2 - self.min_deg:hi2 - self.min_deg + 1])

    def compress(self, tol: float = 0.0) -> "MatrixSymbol":
        """Drop zero margins of the degree band (a symbol with no rows or
        no columns compresses to its zero symbol)."""
        mags = np.abs(self.coeffs).reshape(self.coeffs.shape[0], -1).max(axis=1,
                                                                         initial=0.0)
        keep = np.nonzero(mags > tol)[0]
        if keep.size == 0:
            return MatrixSymbol.zero(self.rows, self.cols)
        return MatrixSymbol(self.rows, self.cols, self.min_deg + int(keep[0]),
                            self.coeffs[keep[0]:keep[-1] + 1])

    # -- evaluation --------------------------------------------------------
    def eval_at(self, z: complex) -> np.ndarray:
        """Value at a point; Laurent symbols are evaluable only on |z| = 1."""
        z = complex(z)
        if self.min_deg < 0 and abs(abs(z) - 1.0) > 1e-9:
            raise ValueError("negative degrees present: evaluation needs |z| = 1")
        if abs(z) > 1.0 + 1e-9:
            raise ValueError("evaluation outside the closed disc")
        powers = z ** np.arange(self.min_deg, self.max_deg + 1)
        return np.tensordot(powers, self.coeffs, axes=(0, 0))

    # -- JSON interchange ---------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "min_deg": self.min_deg,
            "max_deg": self.max_deg,
            "coeffs": [
                [[float(v.real), float(v.imag)] for v in mat.reshape(-1)]
                for mat in self.coeffs
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "MatrixSymbol":
        rows, cols = int(d["rows"]), int(d["cols"])
        lo, hi = int(d["min_deg"]), int(d["max_deg"])
        entries = d["coeffs"]
        if len(entries) != hi - lo + 1:
            raise ValueError("coeffs length disagrees with degree range")
        arr = np.zeros((hi - lo + 1, rows, cols), complex)
        for i, flat in enumerate(entries):
            if len(flat) != rows * cols:
                raise ValueError("coefficient entry count disagrees with shape")
            vals = np.array([complex(re, im) for re, im in flat])
            bad = np.flatnonzero(~np.isfinite(vals))
            if bad.size:
                r, c = divmod(int(bad[0]), cols)
                raise ValueError(f"non-finite coefficient {vals[bad[0]]} at "
                                 f"degree {lo + i}, entry ({r}, {c})")
            arr[i] = vals.reshape(rows, cols)
        return MatrixSymbol(rows, cols, lo, arr)


def _cauchy(a: np.ndarray, b: np.ndarray, mode: str = "full") -> np.ndarray:
    """Cauchy product of coefficient stacks a (na, p, r) and b (nb, r, q).

    Returns shape (na + nb - 1, p, q), or with mode "valid" only the
    |na - nb| + 1 degrees where the shorter stack overlaps the longer one
    completely (np.convolve's modes): one direct np.convolve per entry
    triple (i, k, j), at most p r q calls whatever the band lengths.  A
    triple with an identically zero entry (a diagonal symbol's off-diagonal
    ones) contributes nothing and is skipped.
    """
    na, nb = a.shape[0], b.shape[0]
    n = na + nb - 1 if mode == "full" else abs(na - nb) + 1
    out = np.zeros((n, a.shape[1], b.shape[2]), complex)
    live_b = b.any(axis=0)
    for i, k in zip(*np.nonzero(a.any(axis=0))):
        for j in np.flatnonzero(live_b[k]):
            out[:, i, j] += np.convolve(a[:, i, k], b[:, k, j], mode)
    return out


def symbol_mul(a: MatrixSymbol, b: MatrixSymbol) -> MatrixSymbol:
    """Exact Cauchy-product coefficients of the pointwise matrix product.

    Every coefficient is a direct sum of products (np.convolve per entry),
    never an FFT product: an FFT spreads the roundoff of the largest
    coefficients over all of them, so coefficients far below the peak
    lose their relative accuracy.
    """
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in symbol product")
    return MatrixSymbol(a.rows, b.cols, a.min_deg + b.min_deg,
                        _cauchy(a.coeffs, b.coeffs))


def adjoint_flip(a: MatrixSymbol) -> MatrixSymbol:
    """Boundary adjoint a(xi)^H: degree k picks up conj-transpose of -k."""
    arr = np.conj(np.transpose(a.coeffs[::-1], (0, 2, 1)))
    return MatrixSymbol(a.cols, a.rows, -a.max_deg, arr)


def riesz_project(a: MatrixSymbol, sign: str) -> MatrixSymbol:
    """Riesz projections: 'plus' keeps degrees >= 0, 'minus' keeps < 0."""
    if sign == "plus":
        return a.truncate(0, max(a.max_deg, 0))
    if sign == "minus":
        return a.truncate(min(a.min_deg, -1), -1)
    raise ValueError("sign must be 'plus' or 'minus'")


# -- boundary sampling ------------------------------------------------------

def sample_symbol(a: MatrixSymbol, K: int) -> np.ndarray:
    """Values of a at the K offset grid points, shape (K, rows, cols).

    Exact (to roundoff) trigonometric evaluation via FFT with the half-step
    phase twist; requires K at least the band width.
    """
    n = a.coeffs.shape[0]
    if K < n:
        raise ValueError("grid too small for the degree band")
    degs = np.arange(a.min_deg, a.max_deg + 1)
    phased = a.coeffs * np.exp(1j * np.pi * degs / K)[:, None, None]
    buf = np.zeros((K, a.rows, a.cols), complex)
    np.add.at(buf, degs % K, phased)
    return K * np.fft.ifft(buf, axis=0)


def symbol_from_samples(values: np.ndarray, min_deg: int, max_deg: int) -> MatrixSymbol:
    """Fourier coefficients on [min_deg, max_deg] from offset-grid samples
    of shape (K, rows, cols)."""
    values = np.asarray(values, dtype=complex)
    K = values.shape[0]
    if max_deg - min_deg + 1 > K:
        raise ValueError("requested band exceeds grid resolution")
    hat = np.fft.fft(values, axis=0) / K
    degs = np.arange(min_deg, max_deg + 1)
    arr = hat[degs % K] * np.exp(-1j * np.pi * degs / K)[:, None, None]
    return MatrixSymbol(values.shape[1], values.shape[2], min_deg, arr)


# -- pointwise kernels on sample stacks ----------------------------------------
# A stacked np.linalg call pays a per-matrix overhead that dwarfs the work on
# the m x m samples (m <= 2 in every pipeline), so m <= 2 gets a closed form
# over the whole stack; m >= 3 keeps the batched LAPACK call.

def _eig2(a: np.ndarray, d: np.ndarray, b: np.ndarray) -> tuple:
    """Eigenvalues (low, high) of the Hermitian [[a, conj(b)], [b, d]]."""
    mid, rad = (a + d) / 2, np.hypot((a - d) / 2, np.abs(b))
    return mid - rad, mid + rad


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix of a (K, m, m) stack,
    read from the lower triangle as np.linalg.eigvalsh reads them."""
    m = h.shape[-1]
    if m == 1:
        return h[..., 0].real
    if m == 2:
        return np.stack(_eig2(h[..., 0, 0].real, h[..., 1, 1].real, h[..., 1, 0]),
                        axis=-1)
    return np.linalg.eigvalsh(h)


def _norm2(a: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a (K, p, q) stack: the square root of
    the top eigenvalue of the smaller Gram.  A matrix with one row or one
    column (or none) is its Euclidean norm."""
    k = min(a.shape[-2:])
    if k <= 1:
        return np.linalg.norm(a, axis=(-2, -1))
    if k > 2:
        return np.linalg.norm(a, 2, axis=(-2, -1))
    u, v = (a[..., 0, :], a[..., 1, :]) if a.shape[-2] == 2 else (a[..., 0], a[..., 1])

    def dot(x, y):
        return np.einsum("...j,...j->...", x, y.conj())

    return np.sqrt(_eig2(dot(u, u).real, dot(v, v).real, dot(v, u))[1])


def _det(a: np.ndarray) -> np.ndarray:
    """Determinant of each matrix of a (K, m, m) stack."""
    m = a.shape[-1]
    if m == 1:
        return a[..., 0, 0]
    if m == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return np.linalg.det(a)


def _inv(a: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a (K, m, m) stack; LinAlgError when a
    determinant is exactly zero, as np.linalg.inv raises on a zero pivot."""
    m = a.shape[-1]
    if m > 2:
        return np.linalg.inv(a)
    with np.errstate(all="ignore"):  # quiet on overflow and nan, as LAPACK is
        det = _det(a)[..., None, None]
        if not np.all(det):
            raise np.linalg.LinAlgError("Singular matrix")
        if m == 1:
            return 1 / det
        adj = np.stack([a[..., 1, 1], -a[..., 0, 1], -a[..., 1, 0], a[..., 0, 0]],
                       axis=-1).reshape(a.shape)
        return adj / det


# -- analytic columns ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Analytic columns in H2(C^dim) on degrees 0..degree.

    matrix has shape (dim*(degree+1), size): entry (k*dim + i, j) is the
    degree-k coefficient of channel i of column j.  One column is one
    element (a Szego kernel, an image T_a f, a rigidity witness, a column
    p_{<=N}(phi z^k e_b) of a finite section); several span a subspace.
    The columns are orthonormal only where the producer says so:
    orthonormal_basis, kernel_basis and model_space_basis.
    """

    dim: int
    degree: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or len(self.matrix) != self.dim * (self.degree + 1):
            raise ValueError("matrix must have dim*(degree+1) rows")

    @property
    def size(self) -> int:
        return self.matrix.shape[1]

    def as_symbol(self) -> MatrixSymbol:
        """The columns as an analytic dim x size symbol."""
        return MatrixSymbol(self.dim, self.size, 0,
                            self.matrix.reshape(self.degree + 1, self.dim, self.size))


def apply_symbol(a: MatrixSymbol, Q: SubspaceBasis, degree: int) -> SubspaceBasis:
    """p_+(a q) on degrees 0..degree for every column q of Q.

    Q is read as an analytic symbol with its zero margins trimmed (a
    model-space basis is zero past its window), so one exact symbol
    product serves every column.
    """
    prod = symbol_mul(a, Q.as_symbol().compress())
    return SubspaceBasis(a.rows, degree,
                         prod.window(0, degree).reshape(a.rows * (degree + 1), Q.size))


# -- Herglotz transform and Cayley map ---------------------------------------

def _check_hermitian_band(density: MatrixSymbol, tol: float) -> None:
    if density.rows != density.cols:
        raise ValueError("density must be square")
    flipped = adjoint_flip(density)
    if (density - flipped).norm_l2() > tol * max(density.norm_l2(), 1.0):
        raise ValueError("density is not Hermitian-valued on the circle")


def herglotz_taylor(density: MatrixSymbol, N: int) -> MatrixSymbol:
    """Degree-N Taylor truncation of the Herglotz transform."""
    _check_hermitian_band(density, 1e-10)
    arr = 2.0 * density.window(0, N)
    arr[0] = density.coeff(0)
    return MatrixSymbol(density.rows, density.rows, 0, arr)


def series_inverse(a: MatrixSymbol, N: int) -> MatrixSymbol:
    """Power-series inverse of an analytic symbol with invertible a(0).

    Newton doubling (Brent & Kung, J. ACM 25, 1978): from X = a^{-1} mod
    z^n, the residual E = a X - I vanishes below degree n, and
    X - X E = a^{-1} mod z^{2n}; the doubling stops at degree N.  Each step
    is two direct Cauchy products, so the coefficients below n are kept as
    they are and only degrees n..k-1 (k = min(2n, N + 1)) are added.  The
    residual's degrees n..k-1 are exactly the "valid" part of the product
    of a's degrees 1..k-1 with X, so a last step that adds few degrees
    costs little.
    """
    if a.min_deg < 0:
        raise ValueError("series inverse needs an analytic symbol")
    if a.rows != a.cols:
        raise ValueError("series inverse needs a square symbol")
    x = np.linalg.inv(a.coeff(0))[None]
    while len(x) <= N:
        n = len(x)
        k = min(2 * n, N + 1)
        err = _cauchy(a.window(1, k - 1), x, "valid")
        x = np.concatenate([x, -_cauchy(x[:k - n], err)[:k - n]])
    return MatrixSymbol(a.rows, a.rows, 0, x)


def cayley(F: MatrixSymbol) -> MatrixSymbol:
    """B = (F + I)^{-1} (F - I) as a Taylor truncation at deg F.

    Power-series inversion keeps the output a genuine analytic truncation;
    B(0) = 0 whenever F(0) = I.
    """
    if F.min_deg != 0 and F.compress().min_deg < 0:
        raise ValueError("cayley needs an analytic symbol")
    N = F.max_deg
    eye = MatrixSymbol.identity(F.rows)
    inv = series_inverse(F + eye, N)
    return symbol_mul(inv, F - eye).truncate(0, N)

