"""Finite sections of block Toeplitz operators, numerical kernels, residuals.

Dense matrices throughout: the intended scale is small matrix dimension and
truncation degree up to a few hundred, where exactness and auditability beat
structured solvers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symbols import HardyElement, MatrixSymbol, ToleranceConfig, DEFAULT_CONFIG

KERNEL_GAP_FACTOR = 1e3


@dataclass(frozen=True, eq=False)
class BlockToeplitz:
    """Finite section of T_phi = p_+(phi .) on degrees 0..N.

    matrix has shape (p(N+1), q(N+1)) with block (j, k) equal to the
    symbol coefficient at degree j - k.
    """

    symbol: MatrixSymbol
    domain_degree: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=complex).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def adjoint_matrix(self) -> np.ndarray:
        return np.conj(self.matrix.T)

    def apply(self, f: HardyElement) -> HardyElement:
        vec = f.to_vector(self.domain_degree)
        out = self.matrix @ vec
        return HardyElement.from_vector(out, self.symbol.rows)


def build_toeplitz(phi: MatrixSymbol, N: int) -> BlockToeplitz:
    """Finite section of the block Toeplitz operator with symbol phi."""
    p, q = phi.rows, phi.cols
    mat = np.zeros(((N + 1) * p, (N + 1) * q), complex)
    for d in range(max(phi.min_deg, -N), min(phi.max_deg, N) + 1):
        c = phi.coeff(d)
        for j in range(max(d, 0), min(N, N + d) + 1):
            mat[j * p:(j + 1) * p, (j - d) * q:(j - d + 1) * q] = c
    return BlockToeplitz(phi, N, mat)


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal list of Hardy elements spanning a subspace of H2(C^m)."""

    dim: int
    degree: int
    elements: tuple
    indeterminate: bool = False
    gap: float = float("inf")

    @property
    def size(self) -> int:
        return len(self.elements)

    def matrix(self) -> np.ndarray:
        """Stacked coefficient columns, shape (dim*(degree+1), size)."""
        cols = [e.to_vector(self.degree) for e in self.elements]
        if not cols:
            return np.zeros((self.dim * (self.degree + 1), 0), complex)
        return np.stack(cols, axis=1)

    def gram(self) -> np.ndarray:
        q = self.matrix()
        return np.conj(q.T) @ q


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


def basis_from_matrix(cols: np.ndarray, dim: int, degree: int,
                      indeterminate: bool = False,
                      gap: float = float("inf")) -> SubspaceBasis:
    gauged = phase_gauge(cols)
    els = tuple(HardyElement.from_vector(gauged[:, j], dim)
                for j in range(gauged.shape[1]))
    return SubspaceBasis(dim, degree, els, indeterminate, gap)


def orthonormal_basis(cols: np.ndarray, dim: int, degree: int,
                      rank_tol: float = 1e-8) -> SubspaceBasis:
    """Orthonormal basis of the column span via SVD with rank truncation."""
    if cols.shape[1] == 0:
        return SubspaceBasis(dim, degree, ())
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return basis_from_matrix(u[:, :numerical_rank(s, rank_tol)], dim, degree)


def kernel_basis(T: BlockToeplitz,
                 config: ToleranceConfig = DEFAULT_CONFIG) -> SubspaceBasis:
    """Orthonormal basis of the numerical null space of the section.

    Relative cutoff rank_tol * sigma_max plus a mandatory spectral-gap check
    at the cut; without a 1e3 gap the verdict is flagged indeterminate since
    finite sections of infinite operators can show spurious near-kernels.
    """
    q = T.symbol.cols
    N = T.domain_degree
    _, s, vh = np.linalg.svd(T.matrix)
    n = T.matrix.shape[1]
    if s.shape[0] < n:
        s = np.concatenate([s, np.zeros(n - s.shape[0])])
    cut = numerical_rank(s, config.rank_tol)
    if cut == n:
        return SubspaceBasis(q, N, ())
    if cut == 0:
        gap = float("inf")
        indet = False
    else:
        sigma_above = s[cut - 1]
        sigma_below = s[cut]
        gap = float("inf") if sigma_below == 0 else float(sigma_above / sigma_below)
        indet = gap < KERNEL_GAP_FACTOR
    vecs = np.conj(vh[cut:].T)
    return basis_from_matrix(vecs, q, N, indeterminate=indet, gap=gap)


def subspace_angle(A: SubspaceBasis, B: SubspaceBasis) -> float:
    """Largest principal angle between the spans; pi/2 on dimension mismatch.

    Angles below pi/4 are read from the sine, ||Q_B - Q_A Q_A^H Q_B||, since
    the arccos of a cosine near 1 cannot resolve angles below ~1e-8.
    """
    if A.dim != B.dim or A.degree != B.degree:
        raise ValueError("bases live on different ambient spaces")
    if A.size != B.size:
        return float(np.pi / 2)
    if A.size == 0:
        return 0.0
    qa, qb = A.matrix(), B.matrix()
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
