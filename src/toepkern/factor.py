"""Inner certification, outer detection, spectral factorization, inner division.

Inner certificates are memoized; shift_span reduces G by an exact product.

Outer factorization runs two routes. Diagonal symbols go through the scalar
exp-of-Herglotz-of-log formula, which is pointwise exact on the sample grid
and tolerates boundary zeros (the offset grid never lands on them). Genuinely
matricial symbols go through Bauer's method: Cholesky of a large block
Toeplitz moment matrix, reading the factor off the last block row. A density
of degree d makes that matrix banded, so cut into panels of P >= d + 1
block rows it is block tridiagonal with one repeated diagonal block and one
repeated coupling block, and its Cholesky factor is a Schur-complement
recursion over the panels in numpy alone: O((Pm)^2) memory, and an exact
early stop once a Schur complement repeats bitwise. The exp-log formula is
refused for non-diagonal densities, since for non-commuting values it does
not reproduce the factor.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .symbols import (
    DEFAULT_CONFIG,
    MatrixSymbol,
    SubspaceBasis,
    ToleranceConfig,
    _det,
    _eigvalsh,
    adjoint_flip,
    grid_points,
    riesz_project,
    sample_symbol,
    symbol_from_samples,
    symbol_mul,
)
from .toeplitz import build_toeplitz, orthonormal_basis


class PreconditionError(ValueError):
    """A documented precondition failed; .check names the failing test."""

    def __init__(self, check: str, value: float):
        self.check = check
        self.value = value
        super().__init__(f"precondition failed: {check} (deviation {value:.3e})")


# -- inner certification -------------------------------------------------------

@dataclass(frozen=True)
class InnerCertificate:
    """Partial-isometry certificate for a square analytic symbol.

    rank is the rank of the constant projector U(xi)^H U(xi); deviation is
    the worst grid sample's distance from constant projectors U(xi)^H U(xi)
    and U(xi) U(xi)^H.
    """

    is_inner: bool
    rank: int
    deviation: float


@lru_cache(maxsize=16)
def is_inner(U: MatrixSymbol,
             config: ToleranceConfig = DEFAULT_CONFIG) -> InnerCertificate:
    """Certify that boundary values are partial isometries of constant rank.

    Memoized on (U, config): a MatrixSymbol is immutable and hashes by
    identity (eq=False), a ToleranceConfig is frozen and hashes by value and
    holds no degree, so pipelines at any degree on one grid share an entry.
    """
    if U.rows != U.cols:
        raise ValueError("inner certification needs a square symbol")
    eff = U.compress(1e-300)
    if eff.min_deg < 0:
        raise ValueError("inner certification needs an analytic symbol")
    vals = sample_symbol(U, config.with_degree(U.coeffs.shape[0]).grid_size)
    P = np.matmul(np.conj(np.transpose(vals, (0, 2, 1))), vals)
    Q = np.matmul(vals, np.conj(np.transpose(vals, (0, 2, 1))))
    Pm, Qm = P.mean(axis=0), Q.mean(axis=0)
    dev = max(
        float(np.max(np.abs(P - Pm))),
        float(np.max(np.abs(Q - Qm))),
        float(np.max(np.abs(Pm @ Pm - Pm))),
        float(np.max(np.abs(Pm - np.conj(Pm.T)))),
    )
    eigs = np.linalg.eigvalsh((Pm + np.conj(Pm.T)) / 2)
    dev = max(dev, float(np.max(np.minimum(np.abs(eigs), np.abs(1 - eigs)))))
    rank = int(np.sum(eigs > 0.5))
    return InnerCertificate(dev <= 10 * config.residual_tol, rank, dev)


def garcia_inner(theta: MatrixSymbol, a: MatrixSymbol, b: MatrixSymbol,
                 config: ToleranceConfig = DEFAULT_CONFIG) -> MatrixSymbol:
    """2x2 inner completion [[a, -b], [theta*flip(b), theta*flip(a)]].

    theta must be scalar inner; a, b scalar analytic with |a|^2 + |b|^2 = 1 on
    the circle and both in the model space of z*theta. Each precondition is
    checked and reported by name; the determinant of the result is theta up
    to a unimodular constant.
    """
    for name, s in (("theta", theta), ("a", a), ("b", b)):
        if s.rows != 1 or s.cols != 1:
            raise ValueError(f"{name} must be scalar")
        if s.compress(1e-300).min_deg < 0:
            raise ValueError(f"{name} must be analytic")
    cert = is_inner(theta, config)
    if not cert.is_inner or cert.rank != 1:
        raise PreconditionError("theta inner", cert.deviation)
    K = config.grid_size
    av, bv = sample_symbol(a, K)[:, 0, 0], sample_symbol(b, K)[:, 0, 0]
    pyth = float(np.max(np.abs(np.abs(av) ** 2 + np.abs(bv) ** 2 - 1.0)))
    if pyth > 10 * config.residual_tol:
        raise PreconditionError("|a|^2 + |b|^2 = 1 on the circle", pyth)
    ztheta_conj = adjoint_flip(symbol_mul(MatrixSymbol.monomial(1), theta))
    for name, s in (("a", a), ("b", b)):
        mass = riesz_project(symbol_mul(ztheta_conj, s), "plus").norm_l2()
        if mass > 10 * config.residual_tol:
            raise PreconditionError(f"{name} in model space of z*theta", mass)

    def theta_flip(s: MatrixSymbol) -> MatrixSymbol:
        prod = symbol_mul(theta, adjoint_flip(s))
        tail = riesz_project(prod, "minus").norm_l2()
        if tail > 10 * config.residual_tol:
            raise PreconditionError("theta * conj has analytic representative", tail)
        return riesz_project(prod, "plus")

    U = MatrixSymbol.from_blocks([[a, b.scale(-1)],
                                  [theta_flip(b), theta_flip(a)]])
    out_cert = is_inner(U, config)
    if not out_cert.is_inner:
        raise PreconditionError("assembled matrix inner", out_cert.deviation)
    det = symbol_mul(a, theta_flip(a)) + symbol_mul(b, theta_flip(b))
    dv = sample_symbol(det, K)[:, 0, 0]
    tv = sample_symbol(theta, K)[:, 0, 0]
    ratio = dv * np.conj(tv)
    det_dev = max(float(np.max(np.abs(ratio - ratio.mean()))),
                  abs(abs(ratio.mean()) - 1.0))
    if det_dev > 10 * config.residual_tol:
        raise PreconditionError("det U = theta up to unimodular constant", det_dev)
    return U


# -- outer detection --------------------------------------------------------------

@dataclass(frozen=True)
class OuterReport:
    """Shift-span analysis of an analytic column symbol.

    theta0 isometrically identifies the constant coefficient subspace spanned
    by the columns; g_tilde is the reduced symbol with G = theta0 g_tilde.
    eta_fine is the Szego geometric-mean defect 1 - |det(0)| / gm(|det|) on
    the finer of the two grids shift_span reads.
    """

    verdict: str
    rank: int
    theta0: np.ndarray
    g_tilde: MatrixSymbol
    eta_fine: float


def _szego_eta(g_tilde: MatrixSymbol, K: int) -> float:
    vals = sample_symbol(g_tilde, K)
    dets = np.abs(_det(vals))
    if np.min(dets) <= 0:
        return 1.0
    gm = float(np.exp(np.mean(np.log(dets))))
    at0 = abs(_det(g_tilde.coeff(0)))
    return max(0.0, 1.0 - at0 / gm)


def shift_span(G: MatrixSymbol,
               config: ToleranceConfig = DEFAULT_CONFIG) -> OuterReport:
    """Analyze the closed shift-invariant span of the columns of G.

    The span equals H2 of a constant subspace exactly when the reduced square
    symbol is outer; that is decided by the ratio of |det| at 0 to its
    geometric boundary mean, measured at two resolutions so boundary zeros
    (which push the ratio below 1 at any finite grid) are recognized by their
    vanishing defect instead of a flat one.  theta0 is the orthonormal_basis
    of the coefficient columns; theta0^H G is an exact product.
    """
    if G.compress(1e-300).min_deg < 0:
        raise ValueError("shift_span needs an analytic symbol")
    m, r = G.rows, G.cols
    flat = np.concatenate(G.coeffs, axis=1)
    theta0 = orthonormal_basis(SubspaceBasis(m, 0, flat), config).matrix
    rank = theta0.shape[1]
    if rank == 0:
        return OuterReport("indeterminate", 0, theta0, G, 1.0)
    g_tilde = symbol_mul(MatrixSymbol.constant(np.conj(theta0.T)), G)
    if rank != r:
        return OuterReport("indeterminate", rank, theta0, g_tilde, 1.0)
    K = config.grid_size
    eta_c = _szego_eta(g_tilde, K)
    eta_f = _szego_eta(g_tilde, 2 * K)
    if eta_f <= 1e-10:
        verdict = "outer"
    elif eta_f < 0.05 and eta_f <= 0.75 * eta_c:
        verdict = "outer"
    elif eta_f >= 0.1 and eta_f >= 0.75 * eta_c:
        verdict = "not-outer"
    else:
        verdict = "indeterminate"
    return OuterReport(verdict, rank, theta0, g_tilde, eta_f)


# -- spectral factorization ---------------------------------------------------------

def _is_diagonal(phi: MatrixSymbol, tol: float = 1e-13) -> bool:
    if phi.rows != phi.cols:
        return False
    if phi.rows == 1:
        return True
    off = phi.coeffs.copy()
    for i in range(phi.rows):
        off[:, i, i] = 0.0
    return float(np.max(np.abs(off))) <= tol * max(1.0, phi.norm_l2())


def _scalar_exp_log_coeffs(samples: np.ndarray, N: int) -> np.ndarray:
    """Outer factor of a positive scalar density from its grid samples.

    The analytic completion keeps half of the leftover -K/2 band coefficient
    (folded to +K/2 via the offset-grid alias z^{-K/2} = -z^{K/2}), which
    makes Re h equal log(phi)/2 exactly at every sample point.
    """
    K = samples.shape[0]
    L = np.log(samples.real)
    lsym = symbol_from_samples(L[:, None, None], -(K // 2), K // 2 - 1)
    c = lsym.coeffs[:, 0, 0]
    h = np.zeros(K // 2 + 1, complex)
    h[0] = c[K // 2] / 2.0
    h[1:K // 2] = c[K // 2 + 1:]
    h[K // 2] = -c[0] / 2.0
    hsym = MatrixSymbol(1, 1, 0, h[:, None, None])
    avals = np.exp(sample_symbol(hsym, K)[:, 0, 0])
    return symbol_from_samples(avals[:, None, None], 0, N).coeffs[:, 0, 0]


def _fejer_riesz_scalar(entry: MatrixSymbol, N: int) -> np.ndarray | None:
    """Exact polynomial spectral factor of a scalar Laurent density.

    Roots of z^d phi(z) come in pairs (r, 1/conj(r)); the exterior half
    gives the outer factor, exact also for boundary zeros (double roots
    split evenly). Returns None when the root split fails to reconstruct
    the density, so callers can fall back to the exp-log route.
    """
    band = entry.compress(1e-300)
    d = max(band.max_deg, -band.min_deg)
    if band.max_deg != -band.min_deg and d > 0:
        return None
    c = band.window(-d, d)[:, 0, 0]
    if d == 0:
        val = c[0].real
        if val <= 0:
            return None
        out = np.zeros(N + 1, complex)
        out[0] = np.sqrt(val)
        return out
    if d > N:
        return None
    roots = np.roots(c[::-1])
    # interior/exterior roots pair as (r, 1/conj(r)); boundary zeros have even
    # multiplicity and surface as tight clusters on the circle, split by the
    # companion matrix at ~eps^(1/2). Cluster those and keep half of each
    # cluster at its circular centroid; a wrong split fails the
    # reconstruction check below and falls back to the exp-log route.
    mod = np.abs(roots)
    take = list(roots[mod >= 1.0 + 1e-6])
    boundary = list(roots[np.abs(mod - 1.0) < 1e-6])
    while boundary:
        seed = boundary.pop()
        cluster = [seed]
        rest = []
        for r in boundary:
            (cluster if abs(r - seed) < 1e-5 else rest).append(r)
        boundary = rest
        if len(cluster) % 2:
            return None
        centroid = np.sum(cluster)
        if abs(centroid) == 0:
            return None
        take.extend([centroid / abs(centroid)] * (len(cluster) // 2))
    if len(take) != d:
        return None
    p = np.poly(take)[::-1]
    K = ToleranceConfig(1024).with_degree(d).grid_size
    xi = grid_points(K)
    pv = np.abs(np.polyval(p[::-1], xi)) ** 2
    phv = sample_symbol(band, K)[:, 0, 0].real
    if np.min(pv) <= 0 or np.min(phv) < -1e-12:
        return None
    ratio = phv / pv
    scale = float(np.sqrt(np.median(ratio)))
    p = p * scale
    if np.max(np.abs(np.abs(np.polyval(p[::-1], xi)) ** 2 - phv)) \
            > 1e-8 * max(1.0, float(np.max(np.abs(phv)))):
        return None
    if abs(p[0]) > 0:
        p = p * (np.conj(p[0]) / abs(p[0]))
    out = np.zeros(N + 1, complex)
    out[:d + 1] = p
    return out


def outer_exp_log(phi: MatrixSymbol, N: int,
                  config: ToleranceConfig = DEFAULT_CONFIG) -> MatrixSymbol:
    """Outer factor of a diagonal positive density via exp of a Herglotz log.

    Exact (to roundoff) at the sample points; refused for non-diagonal input
    because the formula fails when the matrix values do not commute.
    """
    if not _is_diagonal(phi):
        raise ValueError("exp-log factorization is valid only for diagonal symbols")
    m = phi.rows
    # the log of a density with boundary zeros has a slowly decaying Fourier
    # tail; truncation error falls off like K^-2, so a large grid is cheap
    # insurance (scalar FFTs only)
    K = max(config.with_degree(N).grid_size, 1 << 17)
    vals = sample_symbol(phi, K)
    out = np.zeros((N + 1, m, m), complex)
    for i in range(m):
        d = vals[:, i, i]
        if float(np.max(np.abs(d.imag))) > 1e-9 * max(1.0, float(np.max(np.abs(d)))):
            raise PreconditionError("diagonal samples real", float(np.max(np.abs(d.imag))))
        if float(np.min(d.real)) <= 0.0:
            raise PreconditionError("diagonal samples positive", float(np.min(d.real)))
        out[:, i, i] = _scalar_exp_log_coeffs(d, N)
    return MatrixSymbol(m, m, 0, out)


def bauer_factorize(phi: MatrixSymbol, N: int,
                    config: ToleranceConfig = DEFAULT_CONFIG,
                    moment_rows: int | None = None) -> MatrixSymbol:
    """Outer spectral factor A with A(xi)^H A(xi) = phi(xi), deg A <= N.

    Diagonal densities use Fejer-Riesz roots, or the exp-log route when the
    roots fail (exact, boundary-zero safe).  Matricial densities use Bauer's
    method: Cholesky of the moment block Toeplitz matrix with M + 1 block
    rows (M = moment_rows, default max(4N, 256), at least N), reading A off
    the last block row, which converges geometrically for densities bounded
    away from zero.  Block (j, k) of the moment matrix is phi_{j-k}
    transposed, and it vanishes for j - k > d = deg phi.  Cut into panels of
    P >= d + 1 block rows, each panel couples only to its neighbours, so the
    Cholesky factor is a Schur-complement recursion over panels: every full
    panel has the same diagonal block D and coupling block E, read from one
    section of 2P block rows; the first panel takes the remaining
    (M + 1) mod P rows.  The recursion stops early once a Schur complement
    repeats bitwise, since every later panel would repeat it exactly.  At
    most (M + 1) / P panel steps of O((Pm)^3) work, in O((Pm)^2) memory.
    Gauge: A(0) is Hermitian positive definite.
    """
    if phi.rows != phi.cols:
        raise ValueError("density must be square")
    if moment_rows is not None and moment_rows < N:
        raise ValueError(f"moment_rows = {moment_rows} is below N = {N}: the "
                         f"factor's last block row has only moment_rows + 1 blocks")
    herm_dev = (phi - adjoint_flip(phi)).norm_l2()
    if herm_dev > 1e-8 * max(1.0, phi.norm_l2()):
        raise PreconditionError("density Hermitian on the circle", float(herm_dev))
    # trim coefficient dust so the effective band drives the factorization
    peak = float(np.max(np.linalg.norm(phi.coeffs, axis=(1, 2)))) if phi.coeffs.size else 0.0
    phi = phi.compress(1e-13 * max(peak, 1e-300))
    vals = sample_symbol(phi, config.grid_size)
    eigs = _eigvalsh((vals + np.conj(np.transpose(vals, (0, 2, 1)))) / 2)
    min_eig = float(np.min(eigs))
    if min_eig < -1e-9 * max(1.0, float(np.max(np.abs(eigs)))):
        raise PreconditionError("density positive semidefinite", min_eig)
    if _is_diagonal(phi):
        out = np.zeros((N + 1, phi.rows, phi.rows), complex)
        exact = True
        for i in range(phi.rows):
            entry = MatrixSymbol(1, 1, phi.min_deg, phi.coeffs[:, i:i + 1, i:i + 1])
            col = _fejer_riesz_scalar(entry, N)
            if col is None:
                exact = False
                break
            out[:, i, i] = col
        if exact:
            return MatrixSymbol(phi.rows, phi.rows, 0, out)
        return outer_exp_log(phi, N, config)
    if min_eig <= 0:
        raise PreconditionError("matricial density positive on the grid", min_eig)
    m = phi.rows
    M = moment_rows if moment_rows is not None else max(4 * N, 256)
    P = max(phi.max_deg + 1, 32 // m)
    n = P * m
    phi_t = MatrixSymbol(m, m, phi.min_deg, np.transpose(phi.coeffs, (0, 2, 1)))
    T = build_toeplitz(phi_t, 2 * P - 1).matrix
    D, E = T[:n, :n], T[n:, :n]
    k = ((M + 1) % P or P) * m  # rows of the first panel
    S = D[:k, :k]
    L = np.linalg.cholesky(S)
    X = np.zeros((k, 0), complex)
    for _ in range((M + 1) // P - (k == n)):
        X = np.conj(np.linalg.solve(L, np.conj(E[:, n - k:].T)).T)
        S_next = D - X @ np.conj(X.T)
        if np.array_equal(S_next, S):
            break  # L = cholesky(S_next) already, and every later panel repeats
        S, k = S_next, n
        L = np.linalg.cholesky(S)
    # row[a, s, b] is entry (a, b) of block (M, M - s) of the factor, read
    # off the last block row of [X | L]; A_s is that block transposed, zero
    # past the row's start
    row = np.concatenate([X, L], axis=1)[-m:].reshape(m, -1, m)[:, ::-1]
    t = min(N + 1, row.shape[1])
    coeffs = np.zeros((N + 1, m, m), complex)
    coeffs[:t] = np.transpose(row[:, :t], (1, 2, 0))
    u, _, vh = np.linalg.svd(coeffs[0])
    W = u @ vh  # unitary polar factor of A_0
    gauged = np.matmul(np.conj(W.T)[None], coeffs)
    return MatrixSymbol(m, m, 0, gauged)


# -- division by inner functions ------------------------------------------------------

@dataclass(frozen=True)
class DivisionResult:
    """Outcome of dividing B by an inner U on the left."""

    divisible: bool
    quotient: MatrixSymbol | None
    defect: float


def divide_inner(B: MatrixSymbol, U: MatrixSymbol,
                 config: ToleranceConfig = DEFAULT_CONFIG) -> DivisionResult:
    """Attempt B = U B0 for full-rank inner U; exact coefficient arithmetic.

    Success iff the anti-analytic mass of U^H B is at most residual_tol; the
    defect reported on failure is that mass.
    """
    cert = is_inner(U, config)
    if not cert.is_inner or cert.rank != U.cols:
        raise PreconditionError("divisor inner of full rank", cert.deviation)
    if U.rows != B.rows:
        raise ValueError("shape mismatch in inner division")
    prod = symbol_mul(adjoint_flip(U), B)
    defect = riesz_project(prod, "minus").norm_l2()
    if defect > config.residual_tol:
        return DivisionResult(False, None, float(defect))
    return DivisionResult(True, riesz_project(prod, "plus"), float(defect))
