"""Finite sections of block Toeplitz operators, numerical kernels, residuals.

orthonormal_basis (the span of a basis) and kernel_basis (the null space of
a section), which every span and complement goes through, return a
symbols.SubspaceBasis with orthonormal columns in one phase gauge
(basis_from_matrix) under one rank cut (numerical_rank).

Every section is read from one strided view of its symbol (_section).
build_toeplitz fills the dense matrix when the section is built, and
`kernel_basis` takes one dense SVD of it.  `singular_values(phi, N)` and
`kernel_angle(phi, Q)`, which need no vectors, build no section: the
symbol's nonzero pattern tells whether the section is an exact direct sum (a
diagonal or lacunary symbol), and each independent piece, or the whole
section, is gathered from the view and asked for its singular values only.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symbols import (DEFAULT_CONFIG, MatrixSymbol, SubspaceBasis, ToleranceConfig,
                      apply_symbol)


def _section(phi: MatrixSymbol, N: int) -> np.ndarray:
    """Read-only view of the section on degrees 0..N, shape (N+1, p, N+1, q).

    Entry [j, a, k, b] is phi's coefficient at degree j - k, entry (a, b):
    phi.window(-N, N) walked from degree 0, one degree up per block row and
    one down per block column, with nothing copied.
    """
    band = phi.window(-N, N)
    s0, s1, s2 = band.strides
    return np.lib.stride_tricks.as_strided(
        band[N:], (N + 1, phi.rows, N + 1, phi.cols), (s0, s1, -s0, s2),
        writeable=False)


@dataclass(frozen=True, eq=False)
class BlockToeplitz:
    """Finite section of T_phi = p_+(phi .) on degrees 0..N.

    matrix, read-only, has shape (p(N+1), q(N+1)) with block (j, k) equal
    to the symbol coefficient at degree j - k.
    """

    symbol: MatrixSymbol
    domain_degree: int
    matrix: np.ndarray = field(repr=False)


def build_toeplitz(phi: MatrixSymbol, N: int) -> BlockToeplitz:
    """Finite section of the block Toeplitz operator with symbol phi."""
    mat = np.ascontiguousarray(_section(phi, N)).reshape(
        (N + 1) * phi.rows, (N + 1) * phi.cols)
    mat.setflags(write=False)
    return BlockToeplitz(phi, N, mat)


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


def orthonormal_basis(Q: SubspaceBasis,
                      config: ToleranceConfig = DEFAULT_CONFIG) -> SubspaceBasis:
    """Orthonormal basis of the span of Q's columns, on Q's ambient space:
    the left singular vectors above the rank cut, in the phase gauge."""
    u, s, _ = np.linalg.svd(Q.matrix, full_matrices=False)
    return basis_from_matrix(u[:, :numerical_rank(s, config.rank_tol)],
                             Q.dim, Q.degree)


def _pieces(phi: MatrixSymbol, N: int) -> tuple[np.ndarray, np.ndarray]:
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


def singular_values(phi: MatrixSymbol, N: int) -> np.ndarray:
    """Singular values of the degree-N section, one per column, descending.

    The section is split into the connected pieces of its row/column
    coupling (_pieces); a direct sum's singular values are the union of its
    pieces', so each piece gets its own values-only SVD, pieces of one shape
    in one stacked call.  Every piece, an unsplit section included, is
    gathered from the strided view (_section).  Each piece's values are
    zero-padded to its column count (a piece with no rows is a zero column),
    so a section with more columns than rows gets zeros for the columns
    beyond its rank, as kernel_basis counts them.  A stack with no imaginary
    part gets a real SVD.
    """
    p, q = phi.rows, phi.cols
    section = _section(phi, N)
    row_lab, col_lab = _pieces(phi, N)
    row_order = np.argsort(row_lab, kind="stable")
    col_order = np.argsort(col_lab, kind="stable")
    sorted_rows = row_lab[row_order]
    labels, col_start, n_cols = np.unique(col_lab[col_order], return_index=True,
                                          return_counts=True)
    row_start = np.searchsorted(sorted_rows, labels, "left")
    n_rows = np.searchsorted(sorted_rows, labels, "right") - row_start
    values = []
    for a, b in sorted(set(zip(n_rows.tolist(), n_cols.tolist()))):
        sel = np.flatnonzero((n_rows == a) & (n_cols == b))
        rows = row_order[row_start[sel, None] + np.arange(a)][:, :, None]
        cols = col_order[col_start[sel, None] + np.arange(b)][:, None, :]
        stack = section[rows // p, rows % p, cols // q, cols % q]
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


def kernel_angle(phi: MatrixSymbol, Q: SubspaceBasis,
                 config: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Upper bound on the largest principal angle between ker T_phi and span Q.

    Q has orthonormal columns, k of them, at degree M = Q.degree; s are the
    singular values of the section of phi at degree M (values only, no
    vectors).  pi/2 when the numerical kernel (the values below the rank
    cut) does not have dimension k, 0 when k = 0, and otherwise Wedin's
    sin-theta bound arcsin(min(1, ||T_phi Q||_2 / s[cut - 1])).  For a unit
    x in span Q, ||T x|| >= s[cut - 1] times the part of x outside the
    numerical kernel, so the value is never below the principal angle, up
    to roundoff.  T_phi Q is formed from the symbol, O(M * band * k).
    """
    M = Q.degree
    s = singular_values(phi, M)
    cut = numerical_rank(s, config.rank_tol)
    if s.size - cut != Q.size:
        return float(np.pi / 2)
    if Q.size == 0:
        return 0.0
    tq = apply_symbol(phi, Q, M).matrix
    return float(np.arcsin(min(1.0, np.linalg.norm(tq, 2) / s[cut - 1])))


def operator_residual(lhs, rhs, N: int) -> float:
    """Spectral norm of lhs - rhs on the inner half-window of degrees.

    Inputs are dense section matrices of shape rows x q(N+1); the
    difference is restricted to input polynomials of degree <= N/2 so
    boundary-of-truncation artifacts do not register.
    """
    L, R = np.asarray(lhs, complex), np.asarray(rhs, complex)
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
