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
When those pieces are large against the symbol's band, kernel_angle
certifies its bound by inertia counts instead: the Gram T^H T, cut into
band-wide blocks read from the view, is block tridiagonal, and Sylvester's
law of inertia counts the singular values below a threshold from its
Schur-complement pivots (spectrum slicing); a count that certifies nothing
falls back to the singular values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symbols import (DEFAULT_CONFIG, MatrixSymbol, SubspaceBasis, ToleranceConfig,
                      _norm2, apply_symbol, sample_symbol)


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
    return _piece_values(phi, N, *_pieces(phi, N))


def _piece_values(phi: MatrixSymbol, N: int, row_lab: np.ndarray,
                  col_lab: np.ndarray) -> np.ndarray:
    """singular_values of the section split by the labels of _pieces."""
    p, q = phi.rows, phi.cols
    section = _section(phi, N)
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
        if min(a, b) <= 1:  # a row or a column: its norm is its one value
            s = _norm2(stack)[:, None]
        else:
            s = np.linalg.svd(stack, compute_uv=False)
        padded = np.zeros((sel.size, b))
        padded[:, :s.shape[1]] = s
        values.append(padded.ravel())
    return np.sort(np.concatenate(values))[::-1]


def _gram_blocks(phi: MatrixSymbol, N: int, width: int) -> list:
    """The Gram T^H T of the degree-N section, cut every `width` block columns.

    Returns one (D_i, C_i) per cut: D_i the diagonal block, C_i the coupling
    (T^H T)[i-1, i] (None for the first).  Block column k meets only block
    rows k + min_deg .. k + max_deg, so each cut's columns are gathered from
    the strided view (_section) on those rows alone; with width at least
    the band length minus one, cuts two apart share no row and the Gram is
    block tridiagonal.  A real symbol gets real blocks.
    """
    section = _section(phi, N)
    p, q = phi.rows, phi.cols
    real = not phi.coeffs.imag.any()
    blocks, prev = [], None
    for k0 in range(0, N + 1, width):
        k1 = min(k0 + width, N + 1)
        j0 = min(max(k0 + phi.min_deg, 0), N + 1)
        j1 = max(min(k1 - 1 + phi.max_deg, N) + 1, j0)
        slab = section[j0:j1, :, k0:k1].reshape((j1 - j0) * p, (k1 - k0) * q)
        if real:
            slab = slab.real
        coupling = None
        if prev is not None:
            pj0, pj1, pslab = prev
            a = max(j0, pj0)
            b = max(min(j1, pj1), a)
            coupling = (pslab[(a - pj0) * p:(b - pj0) * p].conj().T
                        @ slab[(a - j0) * p:(b - j0) * p])
        blocks.append((slab.conj().T @ slab, coupling))
        prev = j0, j1, slab
    return blocks


def _count_below(blocks: list, tau: float, tiny: float) -> int | None:
    """Number of singular values below tau of the section whose Gram
    blocks are given (_gram_blocks), or None when it cannot be read.

    Sylvester's law of inertia with the Haynsworth recursion: the count is
    the number of negative eigenvalues of T^H T - tau^2 I, summed over the
    pivots S_i = D_i - tau^2 I - C_i^H S_{i-1}^{-1} C_i.  None when a pivot
    has an eigenvalue of modulus below tiny, so no near-singular pivot is
    ever solved with.
    """
    count, prev = 0, None
    for diag, coupling in blocks:
        pivot = diag - tau ** 2 * np.eye(diag.shape[0])
        if prev is not None:
            pivot -= coupling.conj().T @ np.linalg.solve(prev, coupling)
        lam = np.linalg.eigvalsh(pivot)
        if lam.size and np.abs(lam).min() < tiny:
            return None
        count += int(np.sum(lam < 0))
        prev = pivot
    return count


def _certified_angle(phi: MatrixSymbol, Q: SubspaceBasis, width: int,
                     config: ToleranceConfig) -> float | None:
    """kernel_angle's bound from inertia counts, or None when not certified.

    r = ||T_phi Q||_2 bounds the k-th smallest singular value (minimax), so
    r <= rank_tol * c_max, with c_max the largest section column norm (at
    most sigma_max), puts k values under the rank cut.  A count of exactly
    k below tau >= 1e-6 beta, beta = sum_d ||phi_d||_2 >= ||T_phi||, puts no
    other there and bounds the next value below by tau, so
    arcsin(min(1, r / tau)) bounds Wedin's sin-theta.  tau starts at 0.45
    times the largest singular value of phi's grid samples and halves at
    most three times while the count exceeds k.
    """
    M, k = Q.degree, Q.size
    blocks = _gram_blocks(phi, M, width)
    c_max = np.sqrt(max(diag.diagonal().real.max() for diag, _ in blocks))
    r = float(np.linalg.norm(apply_symbol(phi, Q, M).matrix, 2))
    if r > config.rank_tol * c_max:
        return None
    beta = float(_norm2(phi.coeffs).sum())
    tau = 0.45 * float(_norm2(sample_symbol(phi, 4 * phi.coeffs.shape[0])).max())
    for _ in range(4):
        if tau < 1e-6 * beta or tau <= config.rank_tol * beta:
            return None
        count = _count_below(blocks, tau, 1e-10 * beta ** 2)
        if count is None or count < k:
            return None
        if count == k:
            return float(np.arcsin(min(1.0, r / tau)))
        tau /= 2
    return None


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

    Q has orthonormal columns, k of them, at degree M = Q.degree.  Both
    routes read Wedin's sin-theta bound arcsin(min(1, ||T_phi Q||_2 / s)),
    s a lower bound on the smallest singular value above the rank cut: for a
    unit x in span Q, ||T x|| >= s times the part of x outside the numerical
    kernel, so the value is never below the principal angle, up to
    roundoff.  T_phi Q is formed from the symbol, O(M * band * k).

    A section whose pieces (_pieces) hold more than 4 n w^2 of cubic work,
    n its column count and w = q * max(L - 1, ceil(64 / q)) for a band of L
    degrees, is certified by inertia counts on its block tridiagonal Gram
    (_certified_angle, O(n w^2)): s is the count's tau, about 2.25x below
    the singular value it stands for at worst.  Otherwise, or when the count
    certifies nothing, the singular values of the section are taken (values
    only, no vectors, split into pieces): pi/2 when the numerical kernel
    (the values below the rank cut) does not have dimension k, 0 when
    k = 0, and otherwise s is the last value above the cut.
    """
    M = Q.degree
    pieces = _pieces(phi, M)
    width = max(phi.coeffs.shape[0] - 1, -(-64 // phi.cols))
    n, w = phi.cols * (M + 1), phi.cols * width
    cubes = np.sum(np.bincount(pieces[1]).astype(float) ** 3)
    if Q.size and cubes > 4 * n * w * w:
        angle = _certified_angle(phi, Q, width, config)
        if angle is not None:
            return angle
    s = _piece_values(phi, M, *pieces)
    cut = numerical_rank(s, config.rank_tol)
    if s.size - cut != Q.size:
        return float(np.pi / 2)
    if Q.size == 0:
        return 0.0
    tq = apply_symbol(phi, Q, M).matrix
    return float(np.arcsin(min(1.0, np.linalg.norm(tq, 2) / s[cut - 1])))
