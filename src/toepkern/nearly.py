"""Nearly backward-shift-invariant subspaces and the Sarason construction.

Model spaces K_U, extraction of the isometric multiplier W = F cap (F cap
zH2)^perp, the Herglotz/Cayley construction of the contraction B attached to
an orthonormal-columned G, de Branges-Rovnyak reproducing kernels, and the
equivalence tests tying divisibility of B by U to T_G acting isometrically
on K_U.  Every truncating step takes the degree N as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symbols import (DEFAULT_CONFIG, MatrixSymbol, SubspaceBasis,
                      ToleranceConfig, _norm2, adjoint_flip, apply_symbol,
                      cayley, herglotz_taylor, riesz_project, sample_symbol,
                      symbol_mul)
from .toeplitz import (build_toeplitz, kernel_basis, numerical_rank,
                       orthonormal_basis, phase_gauge)
from .factor import PreconditionError, divide_inner, garcia_inner, is_inner
from .fixtures import twisted_contraction


# -- model spaces -------------------------------------------------------------------

def model_space_basis(U: MatrixSymbol, N: int,
                      config: ToleranceConfig = DEFAULT_CONFIG) -> SubspaceBasis:
    """Orthonormal basis of K_U = H2 ominus U H2 within degrees <= N - deg U.

    Parameters
    ----------
    U : MatrixSymbol
        Square inner symbol (certified by the memoized is_inner).
    N : int
        Truncation degree; the basis lives in degrees <= N - deg U.

    Notes
    -----
    A polynomial f of degree <= W pairs to zero with every column U z^k e
    of degree > W automatically, so restricting the constraints to k <= W
    keeps the orthogonality conditions exact and the window free of
    truncation ghosts.  For inner U of full rank and degree d,
    z^d I = U (z^d U*) with z^d U* a polynomial, so z^d H2 lies in U H2
    and the whole model space sits in degrees < d.  The constraints are
    therefore solved on the window W = min(N - deg U, d): they are the rows
    of the section of T_{U*} at degree W, whose null space kernel_basis
    returns, and the basis is read at degree N - deg U, its columns
    zero-padded beyond W; any N >= 2 deg U returns all of K_U.  A
    rank-deficient U keeps the full window, since its model space reaches
    every degree.
    """
    cert = is_inner(U, config)
    if not cert.is_inner:
        raise PreconditionError("U inner", cert.deviation)
    d = U.max_deg
    M = N - d
    if M < 0:
        raise ValueError("N too small: need N >= deg U")
    W = min(M, d) if cert.rank == U.rows else M
    # the rows of the section of T_{U*} are the pairings with the columns U z^k e
    ker = kernel_basis(build_toeplitz(adjoint_flip(U), W), config)
    padded = np.pad(ker.matrix, ((0, U.rows * (M - W)), (0, 0)))
    return SubspaceBasis(U.rows, M, padded)


def is_nearly_invariant(F: SubspaceBasis,
                        config: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """True iff S* maps {f in span F : f(0) = 0} back into span F.

    The columns of F may be any spanning set: they are orthonormalized with
    the shared rank cut (orthonormal_basis) first.  The zero-at-origin slice
    is the null space of the evaluation-at-0 map on that basis; each null
    direction is backward-shifted and tested for containment within
    rank_tol.
    """
    q = orthonormal_basis(F, config).matrix
    _, s, vh = np.linalg.svd(q[:F.dim])
    vanishing = q @ vh[numerical_rank(s, config.rank_tol):].conj().T
    shifted = np.zeros_like(vanishing)  # S* f = (f - f(0)) / z
    shifted[:-F.dim] = vanishing[F.dim:]
    resid = np.linalg.norm(shifted - q @ (np.conj(q.T) @ shifted), axis=0)
    bound = 10 * config.rank_tol * np.maximum(1.0, np.linalg.norm(shifted, axis=0))
    return bool(np.all(resid <= bound))


def extract_W(F: SubspaceBasis,
              config: ToleranceConfig = DEFAULT_CONFIG) -> tuple[MatrixSymbol, int]:
    """Isometric-multiplier columns: orthonormal basis of F cap (F cap zH2)^perp.

    Returns the columns assembled as an analytic m x r symbol G together
    with r.  Each column has unit H2 norm.  The columns of F may be any
    spanning set: they are orthonormalized with the shared rank cut
    (orthonormal_basis) before the values at 0 are read.
    """
    q = orthonormal_basis(F, config).matrix
    if q.shape[1] == 0:
        raise ValueError("F is trivial")
    _, s, vh = np.linalg.svd(q[:F.dim])
    if s[0] <= config.rank_tol:
        raise ValueError("every element of F vanishes at 0: W is trivial")
    r = numerical_rank(s, config.rank_tol)
    W = SubspaceBasis(F.dim, F.degree, phase_gauge(q @ vh[:r].conj().T))
    return W.as_symbol().compress(1e-14), r


# -- the Sarason construction -------------------------------------------------------

def sarason_B(G: MatrixSymbol, N: int,
              config: ToleranceConfig = DEFAULT_CONFIG) -> MatrixSymbol:
    """Contraction B attached to an isometric multiplier G.

    Parameters
    ----------
    G : MatrixSymbol
        Analytic m x r symbol with orthonormal columns in H2.
    N : int
        Taylor truncation degree for F and B.

    Returns
    -------
    MatrixSymbol
        B = cayley(F), an r x r contraction with B(0) = 0, where F is the
        degree-N Herglotz transform of G*G, so F(0) = I.
    """
    # unit-norm columns bound every entry by 1; checked before G*G can overflow
    peak = float(np.max(np.abs(G.coeffs)))
    if peak > 1 + 10 * config.residual_tol:
        raise PreconditionError("columns of G orthonormal in H2", peak - 1.0)
    density = symbol_mul(adjoint_flip(G), G)
    gram_dev = float(np.linalg.norm(density.coeff(0) - np.eye(G.cols), 2))
    if gram_dev > 10 * config.residual_tol:
        raise PreconditionError("columns of G orthonormal in H2", gram_dev)
    return cayley(herglotz_taylor(density, N))


def _szego_element(lam: complex, u: np.ndarray, N: int) -> SubspaceBasis:
    u = np.asarray(u, complex)
    pows = np.power(np.conj(complex(lam)), np.arange(N + 1))
    return SubspaceBasis(u.size, N, (pows[:, None] * u[None, :]).reshape(-1, 1))


def verify_lemma31(G: MatrixSymbol, B: MatrixSymbol, points, N: int) -> float:
    """Max deviation between <G k_w u, G k_z v> and its H(B) closed form.

    points is an iterable of (w, u, z, v) with w, z in the disc.  The left
    side is computed with degree-N truncated Szego kernels; the right side
    uses the evaluated kernel (I - B(z)B(w)*)/(1 - conj(w) z) exactly, so
    the return value decreases to the truncation floor as N grows.
    """
    m = G.cols
    eye = np.eye(m)
    worst = 0.0
    for w, u, zz, v in points:
        u = np.asarray(u, complex).reshape(m)
        v = np.asarray(v, complex).reshape(m)
        fu = apply_symbol(G, _szego_element(w, u, N), N).matrix[:, 0]
        fv = apply_symbol(G, _szego_element(zz, v, N), N).matrix[:, 0]
        lhs = complex(np.sum(fu * np.conj(fv)))
        a = np.linalg.solve(eye - B.eval_at(w).conj().T, u)
        b = np.linalg.solve(eye - B.eval_at(zz).conj().T, v)
        kernel = (eye - B.eval_at(zz) @ B.eval_at(w).conj().T) \
            / (1.0 - np.conj(complex(w)) * complex(zz))
        rhs = complex(np.vdot(b, kernel @ a))
        worst = max(worst, abs(lhs - rhs))
    return worst


# -- the isometry criterion ---------------------------------------------------------

def isometry_defect(G: MatrixSymbol, U: MatrixSymbol, N: int,
                    config: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Spectral-norm distance from I of the Gram of {p_+(G k) : k basis K_U}.

    Products are exact polynomials (no tail is discarded), so the value
    measures the operator rather than the truncation.
    """
    return _gram_defect(G, model_space_basis(U, N, config))


def _gram_defect(G: MatrixSymbol, basis: SubspaceBasis) -> float:
    """isometry_defect on a model-space basis already built."""
    if basis.size == 0:
        return 0.0
    images = apply_symbol(G, basis, max(G.max_deg, 0) + basis.degree).matrix
    return float(np.linalg.norm(images.conj().T @ images - np.eye(basis.size), 2))


@dataclass(frozen=True)
class SarasonReport:
    """Three routes to the same verdict, and the verdict they give together.

    isometry_defect: Gram deviation of T_G on K_U; divisibility_defect:
    anti-analytic mass of U*B; annihilation_defect: max of ||T_{B*} h||
    over the K_U basis.  verdict is "holds" when all three sit below the
    small band, "fails" when all three sit above the large band, and
    "indeterminate, raise N" otherwise (never majority-resolved).
    """

    isometry_defect: float
    divisibility_defect: float
    annihilation_defect: float
    verdict: str


def sarason_equivalence(G: MatrixSymbol, U: MatrixSymbol, N: int,
                        config: ToleranceConfig = DEFAULT_CONFIG) -> SarasonReport:
    """Test the equivalence: T_G isometric on K_U iff U divides B.

    Computes the isometry defect, the division defect of B by U, and the
    annihilation defect max ||T_{B*} h|| over the model-space basis, then
    checks the three agree on which side of the tolerance they fall.
    """
    B = sarason_B(G, N, config)
    basis = model_space_basis(U, N, config)
    iso = _gram_defect(G, basis)
    div = divide_inner(B, U, config).defect
    images = apply_symbol(adjoint_flip(B), basis, basis.degree).matrix
    ann = float(np.linalg.norm(images, axis=0).max(initial=0.0))
    lo = 10 * config.residual_tol
    hi = 1000 * config.residual_tol
    vals = (iso, div, ann)
    if all(v <= lo for v in vals):
        verdict = "holds"
    elif all(v >= hi for v in vals):
        verdict = "fails"
    else:
        verdict = "indeterminate, raise N"
    return SarasonReport(iso, div, ann, verdict)


def section_defect(G: MatrixSymbol, B: MatrixSymbol, n: int) -> float:
    """Theorem 3.4 on degree-n sections: the spectral norm of
    S S* - (I - T_B T_B*) with S = T_{I-B} T_{G*}.

    Only the first B.rows (n//2 + 1) columns are read, the inputs of degree
    <= n/2: a section truncates the products at degree n, so near that edge
    the identity fails by truncation, not by the operators.
    """
    ident = MatrixSymbol.identity(B.rows)
    S = (build_toeplitz(ident - B, n).matrix
         @ build_toeplitz(adjoint_flip(G), n).matrix)
    tb = build_toeplitz(B, n).matrix
    diff = S @ S.conj().T - (np.eye(tb.shape[0]) - tb @ tb.conj().T)
    return float(np.linalg.norm(diff[:, :B.rows * (n // 2 + 1)], 2))


def divide_by_G(f: SubspaceBasis, G: MatrixSymbol, B: MatrixSymbol, N: int,
                config: ToleranceConfig = DEFAULT_CONFIG) -> SubspaceBasis:
    """Division inside F = G K_U: the h with G h = f, computed as T_{I-B} T_{G*} f.

    f and h are one-column bases.  T_{G*} f is formed to degree 2N and
    h = p_+((I - B) T_{G*} f) is kept to degree N.  Raises when the
    reconstruction residual ||p_+(G h) - f|| shows f is outside the
    expected range at this truncation.
    """
    step = apply_symbol(adjoint_flip(G), f, 2 * N)
    h = apply_symbol(MatrixSymbol.identity(B.rows) - B, step, N)
    back = apply_symbol(G, h, max(f.degree, N)).matrix
    back[:len(f.matrix)] -= f.matrix
    resid = float(np.linalg.norm(back))
    if resid > 1000 * config.residual_tol * max(1.0, np.linalg.norm(f.matrix)):
        raise ValueError(f"f is not in G K_U at this truncation: residual {resid:.3e}")
    return h


# -- the model-space non-invariance example -----------------------------------------

def counterexample_UBU(theta: MatrixSymbol, b1: MatrixSymbol, b2: MatrixSymbol,
                       config: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Anti-analytic mass of U* B U for the twisted contraction B.

    U is the 2x2 inner completion of theta with a = (1 + theta)/2 and
    b = -i(1 - theta)/2; B = [[b1, b2], [-b2, -b1]].  A nonzero return
    value certifies that T_{B*} does not map K_U into itself even though
    B is a pointwise contraction.
    """
    one = MatrixSymbol.identity(1)
    a = (one + theta).scale(0.5)
    b = (one - theta).scale(-0.5j)
    U = garcia_inner(theta, a, b, config)
    B = twisted_contraction(b1, b2)
    samples = sample_symbol(B, config.grid_size)
    top = float(np.max(_norm2(samples)))
    if top > 1.0 + 10 * config.residual_tol:
        raise PreconditionError("B contraction on the circle", top)
    product = symbol_mul(adjoint_flip(U), symbol_mul(B, U))
    return riesz_project(product, "minus").norm_l2()
