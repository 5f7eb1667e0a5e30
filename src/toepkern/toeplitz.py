"""Finite sections of block Toeplitz operators, numerical kernels, residuals.

orthonormal_basis and kernel_basis return a symbols.SubspaceBasis with
orthonormal columns, each column in one phase gauge (basis_from_matrix).

A section is its symbol and its degree; the dense matrix is filled on first
use.  `kernel_basis` takes one dense SVD of the section.  `singular_values`,
for callers that need no vectors, reads from the symbol's nonzero pattern
whether the section is an exact direct sum (a diagonal or lacunary symbol),
gathers each independent piece's entries straight from the coefficients and
asks each piece for its singular values only; only a section that does not
split is filled, as one piece.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .symbols import DEFAULT_CONFIG, MatrixSymbol, SubspaceBasis, ToleranceConfig


@dataclass(frozen=True, eq=False)
class BlockToeplitz:
    """Finite section of T_phi = p_+(phi .) on degrees 0..N.

    Only the symbol and the degree are stored.  matrix, filled on first
    read and read-only, has shape (p(N+1), q(N+1)) with block (j, k) equal
    to the symbol coefficient at degree j - k.
    """

    symbol: MatrixSymbol
    domain_degree: int

    @cached_property
    def matrix(self) -> np.ndarray:
        phi, N = self.symbol, self.domain_degree
        p, q = phi.rows, phi.cols
        mat = np.zeros(((N + 1) * p, (N + 1) * q), complex)
        blocks = mat.reshape(N + 1, p, N + 1, q)
        for d in range(max(phi.min_deg, -N), min(phi.max_deg, N) + 1):
            j = np.arange(max(d, 0), min(N, N + d) + 1)
            blocks[j, :, j - d, :] = phi.coeff(d)
        mat.setflags(write=False)
        return mat


def build_toeplitz(phi: MatrixSymbol, N: int) -> BlockToeplitz:
    """Finite section of the block Toeplitz operator with symbol phi."""
    return BlockToeplitz(phi, N)


def phase_gauge(cols: np.ndarray) -> np.ndarray:
    """Deterministic column phases: each column's largest-modulus entry
    becomes real positive; a zero column is left alone."""
    out = np.array(cols, dtype=complex)
    for j in range(out.shape[1]):
        col = out[:, j]
        peak = col[np.argmax(np.abs(col))]
        if abs(peak) > 0:
            out[:, j] = col * (np.conj(peak) / abs(peak))
    return out


def numerical_rank(s: np.ndarray, rank_tol: float) -> int:
    """Count of singular values above rank_tol * s[0]; 0 for empty or zero s."""
    return int(np.sum(s > rank_tol * s[0])) if s.size and s[0] > 0 else 0


def basis_from_matrix(cols: np.ndarray, dim: int, degree: int) -> SubspaceBasis:
    """The columns as a basis, each in the shared phase gauge."""
    return SubspaceBasis(dim, degree, phase_gauge(cols))


def orthonormal_basis(cols: np.ndarray, dim: int, degree: int,
                      rank_tol: float = 1e-8) -> SubspaceBasis:
    """Orthonormal basis of the column span via SVD with rank truncation."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return basis_from_matrix(u[:, :numerical_rank(s, rank_tol)], dim, degree)


def _pieces(T: BlockToeplitz) -> tuple[np.ndarray, np.ndarray]:
    """Connected-component labels of the rows and columns of the section.

    Row i and column k are joined when entry (i, k) is nonzero, read from
    the symbol: a nonzero entry (a, b) of the coefficient at degree d joins
    row j p + a to column (j - d) q + b for every block row j whose column
    block lies in the section, O(N nnz) edges.  Each round hooks the
    larger root of every edge whose ends disagree onto the smaller one, then
    jumps pointers (label = label[label]) until every label is a root.
    Labels only decrease and every round merges at least two components, so
    the loop ends when each component carries its smallest node index.
    """
    phi, N = T.symbol, T.domain_degree
    r = phi.rows * (N + 1)
    deg, a, b = np.nonzero(phi.coeffs)
    j = np.arange(N + 1)
    k = j - (deg[:, None] + phi.min_deg)  # column block of row block j
    live = (k >= 0) & (k <= N)
    ii = (j * phi.rows + a[:, None])[live]
    kk = (k * phi.cols + b[:, None])[live] + r
    label = np.arange(r + phi.cols * (N + 1))
    while True:
        lu, lv = label[ii], label[kk]
        apart = lu != lv
        if not apart.any():
            return label[:r], label[r:]
        lo, hi = np.minimum(lu, lv)[apart], np.maximum(lu, lv)[apart]
        np.minimum.at(label, hi, lo)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def singular_values(T: BlockToeplitz) -> np.ndarray:
    """Singular values of the section, one per column, in descending order.

    The section is split into the connected pieces of its row/column
    coupling (_pieces); a direct sum's singular values are the union of its
    pieces', so each piece gets its own values-only SVD, pieces of one shape
    in one stacked call.  A piece's entries are gathered from the symbol,
    entry (i, c) being the coefficient at degree i//p - c//q, entry
    (i%p, c%q); only a section that does not split reads T.matrix.  Each
    piece's values are zero-padded to its column count (a piece with no
    rows is a zero column), so a section with more columns than rows gets
    zeros for the columns beyond its rank, as kernel_basis counts them.
    A stack with no imaginary part gets a real SVD.
    """
    phi, N = T.symbol, T.domain_degree
    p, q = phi.rows, phi.cols
    row_lab, col_lab = _pieces(T)
    row_order = np.argsort(row_lab, kind="stable")
    col_order = np.argsort(col_lab, kind="stable")
    sorted_rows = row_lab[row_order]
    labels, col_start, n_cols = np.unique(col_lab[col_order], return_index=True,
                                          return_counts=True)
    row_start = np.searchsorted(sorted_rows, labels, "left")
    n_rows = np.searchsorted(sorted_rows, labels, "right") - row_start
    band = phi.window(-N, N)
    values = []
    for a, b in sorted(set(zip(n_rows.tolist(), n_cols.tolist()))):
        sel = np.flatnonzero((n_rows == a) & (n_cols == b))
        rows = row_order[row_start[sel, None] + np.arange(a)][:, :, None]
        cols = col_order[col_start[sel, None] + np.arange(b)][:, None, :]
        if (a, b) == (row_lab.size, col_lab.size):  # the section does not split
            stack = T.matrix[None]
        else:
            stack = band[rows // p - cols // q + N, rows % p, cols % q]
        if not stack.imag.any():
            stack = stack.real
        s = np.linalg.svd(stack, compute_uv=False)
        padded = np.zeros((sel.size, b))
        padded[:, :s.shape[1]] = s
        values.append(padded.ravel())
    return np.sort(np.concatenate(values))[::-1]


def kernel_basis(T: BlockToeplitz,
                 config: ToleranceConfig = DEFAULT_CONFIG) -> SubspaceBasis:
    """Orthonormal basis of the numerical null space of the section.

    One dense SVD with the full right factor; the basis is the right
    singular vectors past the rank cut (the values above rank_tol times the
    largest), so a section with more columns than rows keeps the null
    vectors beyond its rank.
    """
    _, s, vh = np.linalg.svd(T.matrix)
    cut = numerical_rank(s, config.rank_tol)
    return basis_from_matrix(vh[cut:].conj().T, T.symbol.cols, T.domain_degree)


def subspace_angle(A: SubspaceBasis, B: SubspaceBasis) -> float:
    """Largest principal angle between the spans; pi/2 on dimension mismatch.

    Both bases must have orthonormal columns (||Q^H Q - I||_2 <= 1e-8),
    else ValueError.  Angles below pi/4 are read from the sine,
    ||Q_B - Q_A Q_A^H Q_B||, since the arccos of a cosine near 1 cannot
    resolve angles below ~1e-8.
    """
    if A.dim != B.dim or A.degree != B.degree:
        raise ValueError("bases live on different ambient spaces")
    for Q in (A, B):
        gram = np.conj(Q.matrix.T) @ Q.matrix
        if Q.size and np.linalg.norm(gram - np.eye(Q.size), 2) > 1e-8:
            raise ValueError("subspace_angle needs orthonormal columns")
    if A.size != B.size:
        return float(np.pi / 2)
    if A.size == 0:
        return 0.0
    qa, qb = A.matrix, B.matrix
    cross = np.conj(qa.T) @ qb
    smin = float(np.min(np.linalg.svd(cross, compute_uv=False)))
    if smin >= np.sqrt(0.5):
        sine = float(np.linalg.norm(qb - qa @ cross, 2))
        return float(np.arcsin(min(sine, 1.0)))
    return float(np.arccos(smin))


def operator_residual(lhs, rhs, N: int) -> float:
    """Spectral norm of lhs - rhs on the inner half-window of degrees.

    Inputs are dense section matrices (or BlockToeplitz) of shape
    rows x q(N+1); the difference is restricted to input polynomials of
    degree <= N/2 so boundary-of-truncation artifacts do not register.
    """
    L = lhs.matrix if isinstance(lhs, BlockToeplitz) else np.asarray(lhs, complex)
    R = rhs.matrix if isinstance(rhs, BlockToeplitz) else np.asarray(rhs, complex)
    if L.shape != R.shape:
        raise ValueError("section shapes disagree")
    if L.shape[1] % (N + 1):
        raise ValueError("column count is not a multiple of N+1")
    q = L.shape[1] // (N + 1)
    width = q * (N // 2 + 1)
    diff = (L - R)[:, :width]
    if diff.size == 0:
        return 0.0
    return float(np.linalg.norm(diff, 2))
