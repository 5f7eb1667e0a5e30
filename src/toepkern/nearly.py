"""Nearly backward-shift-invariant subspaces and the Sarason construction.

Model spaces K_U, extraction of the isometric multiplier W = F cap (F cap
zH2)^perp, the Herglotz/Cayley construction of the contraction B attached to
an orthonormal-columned G, de Branges-Rovnyak reproducing kernels, and the
equivalence tests tying divisibility of B by U to T_G acting isometrically
on K_U.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symbols import (DEFAULT_CONFIG, HardyElement, MatrixSymbol,
                      ToleranceConfig, adjoint_flip, apply_symbol, cayley,
                      hardy_inner, herglotz_taylor, riesz_project,
                      sample_symbol, symbol_mul)
from .toeplitz import SubspaceBasis, basis_from_matrix, build_toeplitz
from .factor import PreconditionError, divide_inner, garcia_inner, is_inner


# -- model spaces -------------------------------------------------------------------

def model_space_basis(U: MatrixSymbol, N: int,
                      config: ToleranceConfig = DEFAULT_CONFIG) -> SubspaceBasis:
    """Orthonormal basis of K_U = H2 ominus U H2 within degrees <= N - deg U.

    Parameters
    ----------
    U : MatrixSymbol
        Square inner symbol (certified internally).
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
    therefore solved on the window W = min(N - deg U, d) and the null
    vectors zero-padded to degree N - deg U; any N >= 2 deg U returns all
    of K_U.  A rank-deficient U keeps the full window, since its model
    space reaches every degree.
    """
    cert = is_inner(U, config)
    if not cert.is_inner:
        raise PreconditionError("U inner", cert.deviation)
    d = U.max_deg
    M = N - d
    if M < 0:
        raise ValueError("N too small: need N >= deg U")
    m = U.rows
    W = min(M, d) if cert.rank == m else M
    dim = m * (W + 1)
    shifts = np.zeros((dim, dim), complex)
    for k in range(W + 1):
        for t in range(U.coeffs.shape[0]):
            deg = U.min_deg + t + k
            if 0 <= deg <= W:
                shifts[deg * m:(deg + 1) * m, k * m:(k + 1) * m] = U.coeffs[t]
    constraints = shifts.conj().T
    _, s, vh = np.linalg.svd(constraints)
    rank = int(np.sum(s > config.rank_tol * s[0])) if s.size and s[0] > 0 else 0
    null = np.zeros((m * (M + 1), dim - rank), complex)
    null[:dim] = vh[rank:].conj().T
    return basis_from_matrix(null, m, M)


def is_nearly_invariant(F: SubspaceBasis,
                        config: ToleranceConfig = DEFAULT_CONFIG) -> bool:
    """True iff S* maps {f in span F : f(0) = 0} back into span F.

    The zero-at-origin slice is the null space of the evaluation-at-0 map
    on the span; each null direction is backward-shifted and tested for
    containment within rank_tol.
    """
    if F.size == 0:
        return True
    mat = F.matrix()
    q, _ = np.linalg.qr(mat)
    evals = np.stack([e.coeffs[0] for e in F.elements], axis=1)
    _, s, vh = np.linalg.svd(evals)
    rank = int(np.sum(s > config.rank_tol * s[0])) if s.size and s[0] > 0 else 0
    null = vh[rank:].conj().T
    for j in range(null.shape[1]):
        f = HardyElement.from_vector(mat @ null[:, j], F.dim)
        shifted = f.backward_shift().to_vector(F.degree)
        resid = shifted - q @ (np.conj(q.T) @ shifted)
        if np.linalg.norm(resid) > 10 * config.rank_tol * max(1.0, np.linalg.norm(shifted)):
            return False
    return True


def extract_W(F: SubspaceBasis,
              config: ToleranceConfig = DEFAULT_CONFIG) -> tuple[MatrixSymbol, int]:
    """Isometric-multiplier columns: orthonormal basis of F cap (F cap zH2)^perp.

    Returns the columns assembled as an analytic m x r symbol G together
    with r.  Each column has unit H2 norm.
    """
    if F.size == 0:
        raise ValueError("F is trivial")
    mat = F.matrix()
    gram = np.conj(mat.T) @ mat
    if np.linalg.norm(gram - np.eye(F.size)) > 1e-8:
        mat, _ = np.linalg.qr(mat)
    evals = np.stack([e.coeffs[0] for e in F.elements], axis=1)
    _, s, vh = np.linalg.svd(evals)
    if s.size == 0 or s[0] <= config.rank_tol:
        raise ValueError("every element of F vanishes at 0: W is trivial")
    r = int(np.sum(s > config.rank_tol * s[0]))
    w_cols = mat @ vh[:r].conj().T
    coeffs = np.zeros((F.degree + 1, F.dim, r), complex)
    for j in range(r):
        col = w_cols[:, j]
        peak = col[np.argmax(np.abs(col))]
        col = col * (np.conj(peak) / abs(peak))
        coeffs[:, :, j] = col.reshape(F.degree + 1, F.dim)
    return MatrixSymbol(F.dim, r, 0, coeffs).compress(1e-14), r


# -- the Sarason construction -------------------------------------------------------

@dataclass(frozen=True)
class HerglotzData:
    """Analytic Herglotz transform F of a boundary density.

    V is the Hermitian imaginary part of F(0); f0_deviation records the
    spectral-norm distance of F(0) - iV from the identity (zero exactly
    when the source columns are orthonormal).
    """

    F: MatrixSymbol
    density: MatrixSymbol
    V: np.ndarray = field(repr=False)
    f0_deviation: float = 0.0


def sarason_B(G: MatrixSymbol, N: int,
              config: ToleranceConfig = DEFAULT_CONFIG
              ) -> tuple[HerglotzData, MatrixSymbol]:
    """Contraction B attached to an isometric multiplier G.

    Parameters
    ----------
    G : MatrixSymbol
        Analytic m x r symbol with orthonormal columns in H2.
    N : int
        Taylor truncation degree for F and B.

    Returns
    -------
    (HerglotzData, MatrixSymbol)
        F = Herglotz transform of G*G with F(0) = I, and B = cayley(F),
        an r x r contraction with B(0) = 0.
    """
    density = symbol_mul(adjoint_flip(G), G)
    gram_dev = float(np.linalg.norm(density.coeff(0) - np.eye(G.cols), 2))
    if gram_dev > 10 * config.residual_tol:
        raise PreconditionError("columns of G orthonormal in H2", gram_dev)
    F = herglotz_taylor(density, N, config)
    f0 = F.coeff(0)
    V = (f0 - f0.conj().T) / 2j
    dev = float(np.linalg.norm(f0 - 1j * V - np.eye(G.cols), 2))
    return HerglotzData(F, density, V, dev), cayley(F)


def dbr_kernel(B: MatrixSymbol, lam: complex, u: np.ndarray,
               config: ToleranceConfig = DEFAULT_CONFIG) -> HardyElement:
    """Reproducing kernel of H(B) at lam applied to u.

    Degree-N truncation of (I - B(z) B(lam)*) u / (1 - conj(lam) z).
    """
    if abs(lam) >= 1:
        raise ValueError("lam must lie in the open unit disc")
    N = config.trunc_degree
    m = B.rows
    u = np.asarray(u, complex).reshape(m)
    core = np.zeros((N + 1, m), complex)
    core[0] = u
    w = B.eval_at(lam).conj().T @ u
    for t in range(B.coeffs.shape[0]):
        d = B.min_deg + t
        if 0 <= d <= N:
            core[d] -= B.coeffs[t] @ w
    szego = np.power(np.conj(complex(lam)), np.arange(N + 1))
    out = np.stack([np.convolve(core[:, c], szego)[:N + 1] for c in range(m)],
                   axis=1)
    return HardyElement(m, out)


def _szego_element(lam: complex, u: np.ndarray, N: int) -> HardyElement:
    u = np.asarray(u, complex)
    pows = np.power(np.conj(complex(lam)), np.arange(N + 1))
    return HardyElement(u.size, pows[:, None] * u[None, :])


def verify_lemma31(G: MatrixSymbol, B: MatrixSymbol, points,
                   config: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Max deviation between <G k_w u, G k_z v> and its H(B) closed form.

    points is an iterable of (w, u, z, v) with w, z in the disc.  The left
    side is computed with degree-N truncated Szego kernels; the right side
    uses the evaluated kernel (I - B(z)B(w)*)/(1 - conj(w) z) exactly, so
    the return value decreases to the truncation floor as N grows.
    """
    N = config.trunc_degree
    m = G.cols
    eye = np.eye(m)
    worst = 0.0
    for w, u, zz, v in points:
        u = np.asarray(u, complex).reshape(m)
        v = np.asarray(v, complex).reshape(m)
        fu = apply_symbol(G, _szego_element(w, u, N), N)
        fv = apply_symbol(G, _szego_element(zz, v, N), N)
        lhs = hardy_inner(fu, fv)
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
    basis = model_space_basis(U, N, config)
    if basis.size == 0:
        return 0.0
    deg = max(G.max_deg, 0) + basis.degree
    images = [apply_symbol(G, f, deg) for f in basis.elements]
    gram = np.array([[hardy_inner(fj, fi) for fj in images] for fi in images])
    return float(np.linalg.norm(gram - np.eye(basis.size), 2))


@dataclass(frozen=True)
class SarasonReport:
    """Three routes to the same verdict, with a consistency flag.

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

    @property
    def passed(self) -> bool:
        return self.verdict == "holds"


def sarason_equivalence(G: MatrixSymbol, U: MatrixSymbol, N: int,
                        config: ToleranceConfig = DEFAULT_CONFIG) -> SarasonReport:
    """Test the equivalence: T_G isometric on K_U iff U divides B.

    Computes the isometry defect, the division defect of B by U, and the
    annihilation defect max ||T_{B*} h|| over the model-space basis, then
    checks the three agree on which side of the tolerance they fall.
    """
    _, B = sarason_B(G, N, config)
    iso = isometry_defect(G, U, N, config)
    div = divide_inner(B, U, config).defect
    basis = model_space_basis(U, N, config)
    bstar = adjoint_flip(B)
    ann = 0.0
    for f in basis.elements:
        ann = max(ann, apply_symbol(bstar, f, f.degree).norm())
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


@dataclass(frozen=True)
class DbrContext:
    """The division operator T_{I-B} T_{G*} at a fixed truncation degree."""

    B: MatrixSymbol
    G: MatrixSymbol
    degree: int
    section: np.ndarray = field(repr=False)

    @staticmethod
    def build(G: MatrixSymbol, B: MatrixSymbol, degree: int) -> "DbrContext":
        left = build_toeplitz(MatrixSymbol.identity(B.rows) - B, degree).matrix
        right = build_toeplitz(adjoint_flip(G), degree).matrix
        return DbrContext(B, G, degree, left @ right)

    def divide(self, f: HardyElement) -> HardyElement:
        step = apply_symbol(adjoint_flip(self.G), f, self.degree)
        out = apply_symbol(MatrixSymbol.identity(self.B.rows) - self.B,
                           step, self.degree)
        return out


def divide_by_G(f: HardyElement, G: MatrixSymbol, B: MatrixSymbol,
                config: ToleranceConfig = DEFAULT_CONFIG) -> HardyElement:
    """Division inside F = G K_U: the h with G h = f, computed as T_{I-B} T_{G*} f.

    Raises when the reconstruction residual ||p_+(G h) - f|| shows f is
    outside the expected range at this truncation.
    """
    N = config.trunc_degree
    ctx = DbrContext.build(G, B, 2 * N)
    h = ctx.divide(f)
    h = HardyElement(h.dim, h.coeffs[:N + 1])
    back = apply_symbol(G, h, max(f.degree, N))
    resid = float(np.linalg.norm(back.to_vector(max(f.degree, N))
                                 - f.to_vector(max(f.degree, N))))
    if resid > 1000 * config.residual_tol * max(1.0, f.norm()):
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
    B = MatrixSymbol.from_blocks([[b1, b2],
                                  [b2.scale(-1.0), b1.scale(-1.0)]])
    samples = sample_symbol(B, config.grid_size)
    top = float(np.max(np.linalg.norm(samples, 2, axis=(1, 2))))
    if top > 1.0 + 10 * config.residual_tol:
        raise PreconditionError("B contraction on the circle", top)
    product = symbol_mul(adjoint_flip(U), symbol_mul(B, U))
    return riesz_project(product, "minus").norm_l2()
