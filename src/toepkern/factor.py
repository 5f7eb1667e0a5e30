"""Inner certification, outer detection, spectral factorization, inner division.

Outer factorization runs two routes. Diagonal symbols go through the scalar
exp-of-Herglotz-of-log formula, which is pointwise exact on the sample grid
and tolerates boundary zeros (the offset grid never lands on them). Genuinely
matricial symbols go through Bauer's method: Cholesky of a large block
Toeplitz moment matrix, reading the factor off the last block row. The
exp-log formula is kept for diagonal cross-checks only, since for
non-commuting values it does not reproduce the factor; exp_log_defect
measures that discrepancy instead of asserting either side.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .symbols import (
    DEFAULT_CONFIG,
    MatrixSymbol,
    ToleranceConfig,
    _pow2_at_least,
    adjoint_flip,
    riesz_project,
    sample_symbol,
    symbol_from_samples,
    symbol_mul,
)


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

    domain_projector is the constant value of U(xi)^H U(xi), range_projector
    the constant value of U(xi) U(xi)^H; deviation is the worst grid sample's
    distance from that behavior.
    """

    is_inner: bool
    rank: int
    domain_projector: np.ndarray
    range_projector: np.ndarray
    deviation: float


def is_inner(U: MatrixSymbol,
             config: ToleranceConfig = DEFAULT_CONFIG) -> InnerCertificate:
    """Certify that boundary values are partial isometries of constant rank."""
    if U.rows != U.cols:
        raise ValueError("inner certification needs a square symbol")
    eff = U.compress(1e-300)
    if eff.min_deg < 0:
        raise ValueError("inner certification needs an analytic symbol")
    K = max(config.grid_size, _pow2_at_least(4 * (U.coeffs.shape[0] + 1)))
    vals = sample_symbol(U, K)
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
    return InnerCertificate(dev <= 10 * config.residual_tol, rank, Pm, Qm, dev)


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
    eta values are Szego geometric-mean defects 1 - |det(0)| / gm(|det|) at
    two grid resolutions.
    """

    verdict: str
    rank: int
    theta0: np.ndarray
    g_tilde: MatrixSymbol
    eta_coarse: float
    eta_fine: float


def _phase_column_gauge(mat: np.ndarray) -> np.ndarray:
    out = mat.copy()
    for j in range(out.shape[1]):
        idx = int(np.argmax(np.abs(out[:, j])))
        peak = out[idx, j]
        if abs(peak) > 0:
            out[:, j] *= np.conj(peak) / abs(peak)
    return out


def _szego_eta(g_tilde: MatrixSymbol, K: int) -> float:
    vals = sample_symbol(g_tilde, K)
    dets = np.abs(np.linalg.det(vals))
    if np.min(dets) <= 0:
        return 1.0
    gm = float(np.exp(np.mean(np.log(dets))))
    at0 = abs(np.linalg.det(g_tilde.coeff(0)))
    return max(0.0, 1.0 - at0 / gm)


def shift_span(G: MatrixSymbol, N: int,
               config: ToleranceConfig = DEFAULT_CONFIG) -> OuterReport:
    """Analyze the closed shift-invariant span of the columns of G.

    The span equals H2 of a constant subspace exactly when the reduced square
    symbol is outer; that is decided by the ratio of |det| at 0 to its
    geometric boundary mean, measured at two resolutions so boundary zeros
    (which push the ratio below 1 at any finite grid) are recognized by their
    vanishing defect instead of a flat one.  N is unused: the verdict reads
    only the grid samples of G.
    """
    if G.compress(1e-300).min_deg < 0:
        raise ValueError("shift_span needs an analytic symbol")
    m, r = G.rows, G.cols
    flat = np.concatenate([G.coeffs[k] for k in range(G.coeffs.shape[0])], axis=1)
    u, s, _ = np.linalg.svd(flat, full_matrices=False)
    rank = int(np.sum(s > config.rank_tol * s[0])) if s.size and s[0] > 0 else 0
    if rank == 0:
        return OuterReport("indeterminate", 0, np.zeros((m, 0)), G, 1.0, 1.0)
    theta0 = _phase_column_gauge(u[:, :rank])
    g_tilde = symbol_from_samples(
        np.matmul(np.conj(theta0.T)[None], sample_symbol(G, config.grid_size)),
        G.min_deg, G.max_deg)
    if rank != r:
        return OuterReport("indeterminate", rank, theta0, g_tilde, 1.0, 1.0)
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
    return OuterReport(verdict, rank, theta0, g_tilde, eta_c, eta_f)


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
    c = np.array([band.coeff(k)[0, 0] for k in range(-d, d + 1)])
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
    K = 1 << max(10, (4 * (d + 1) - 1).bit_length())
    xi = np.exp(2j * np.pi * (np.arange(K) + 0.5) / K)
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
    K = max(config.grid_size, _pow2_at_least(4 * (N + 1)), 1 << 17)
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

    Diagonal densities use the exp-log route (exact, boundary-zero safe).
    Matricial densities use Bauer's method: Cholesky of the moment block
    Toeplitz matrix with M block rows, reading A off the last row, which
    converges geometrically for densities bounded away from zero. Gauge: A(0)
    is Hermitian positive definite.
    """
    if phi.rows != phi.cols:
        raise ValueError("density must be square")
    herm_dev = (phi - adjoint_flip(phi)).norm_l2()
    if herm_dev > 1e-8 * max(1.0, phi.norm_l2()):
        raise PreconditionError("density Hermitian on the circle", float(herm_dev))
    # trim coefficient dust so the effective band drives the factorization
    peak = float(np.max(np.linalg.norm(phi.coeffs, axis=(1, 2)))) if phi.coeffs.size else 0.0
    phi = phi.compress(1e-13 * max(peak, 1e-300))
    vals = sample_symbol(phi, config.grid_size)
    eigs = np.linalg.eigvalsh((vals + np.conj(np.transpose(vals, (0, 2, 1)))) / 2)
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
    band = max(phi.max_deg, -phi.min_deg)
    T = np.zeros(((M + 1) * m, (M + 1) * m), complex)
    for d in range(-min(band, M), min(band, M) + 1):
        c = phi.coeff(d).T
        for j in range(max(d, 0), min(M, M + d) + 1):
            T[j * m:(j + 1) * m, (j - d) * m:(j - d + 1) * m] = c
    C = np.linalg.cholesky(T)
    blocks = []
    for s in range(N + 1):
        X = C[M * m:(M + 1) * m, (M - s) * m:(M - s + 1) * m]
        blocks.append(X.T.copy())
    A = MatrixSymbol(m, m, 0, np.array(blocks))
    W, _ = scipy.linalg.polar(A.coeff(0))
    gauged = np.matmul(np.conj(W.T)[None], A.coeffs)
    return MatrixSymbol(m, m, 0, gauged)


def exp_log_defect(phi: MatrixSymbol, N: int,
                   config: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Reconstruction error of the matrix exp-log formula on a density.

    Builds exp(Herglotz(log phi)/2) samplewise with principal matrix logs and
    reports max ||A^H A - phi|| over the grid. Zero (to tolerance) exactly
    when the samples commute; a diagnostic for the matricial case.
    """
    K = max(config.grid_size, _pow2_at_least(4 * (N + 1)))
    vals = sample_symbol(phi, K)
    w, v = np.linalg.eigh(vals)
    if np.min(w) <= 0:
        raise PreconditionError("density positive on the grid", float(np.min(w)))
    logs = np.einsum("kij,kj,klj->kil", v, np.log(w), np.conj(v))
    m = phi.rows
    lsym = symbol_from_samples(logs, -(K // 2), K // 2 - 1)
    h = np.zeros((K // 2, m, m), complex)
    h[0] = lsym.coeff(0) / 2.0
    for k in range(1, K // 2):
        h[k] = lsym.coeff(k)
    hvals = sample_symbol(MatrixSymbol(m, m, 0, h), K)
    avals = np.array([scipy.linalg.expm(x) for x in hvals])
    rec = np.matmul(np.conj(np.transpose(avals, (0, 2, 1))), avals)
    return float(np.max(np.abs(rec - vals)))


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
