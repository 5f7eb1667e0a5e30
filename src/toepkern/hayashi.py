"""Pairs, special pairs, rigidity, and the kernel classification.

A nearly S*-invariant subspace F = G K_U is the kernel of a Toeplitz
operator exactly when three sub-verdicts align: the contraction B attached
to G is divisible by U, the quotient pair (B0, A') is special (no singular
mass), and the square of G0' = (I - B0)^{-1} A' is rigid.  This module
implements the sub-tests, the classification pipeline, the constructive
recipe that runs the argument backwards, and the rectangular embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .symbols import (DEFAULT_CONFIG, MatrixSymbol, SubspaceBasis,
                      ToleranceConfig, adjoint_flip, apply_symbol, cayley,
                      herglotz_taylor, sample_symbol, series_inverse,
                      symbol_from_samples, symbol_mul)
from .toeplitz import (basis_from_matrix, build_toeplitz, numerical_rank,
                       orthonormal_basis, phase_gauge, singular_values)
from .factor import (PreconditionError, bauer_factorize, divide_inner,
                     is_inner, shift_span)
from .nearly import _model_space, model_space_basis, sarason_B

DEFAULT_LADDER = (16, 32, 64)
RIGIDITY_FLOOR = 1e-4
ANGLE_TOL = 1e-5
KERNEL_GAP_FACTOR = 1e3


# -- pairs --------------------------------------------------------------------------

@dataclass(frozen=True)
class Pair:
    """Corona pair (B, A): analytic unit-ball B with outer A, A*A + B*B = I a.e."""

    B: MatrixSymbol
    A: MatrixSymbol
    mass_gap: float
    special: str


def pair_identity_defect(B: MatrixSymbol, A: MatrixSymbol,
                         config: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Max over grid samples of ||A*A + B*B - I|| in spectral norm."""
    K = config.grid_size
    sa = sample_symbol(A, K)
    sb = sample_symbol(B, K)
    acc = np.einsum("kij,kil->kjl", sa.conj(), sa) \
        + np.einsum("kij,kil->kjl", sb.conj(), sb)
    acc -= np.eye(B.cols)[None]
    return float(np.max(np.linalg.norm(acc, 2, axis=(1, 2))))


def pair_from_B(B: MatrixSymbol, N: int | None = None,
                config: ToleranceConfig = DEFAULT_CONFIG) -> Pair:
    """Complete a unit-ball analytic B to a pair by factoring I - B*B.

    A is the outer spectral factor normalized with A(0) Hermitian positive
    definite; the mass gap and special verdict are filled in by
    special_test when I - B(0) is invertible.
    """
    if B.rows != B.cols:
        raise ValueError("B must be square")
    N = config.trunc_degree if N is None else N
    m = B.rows
    samples = sample_symbol(B, config.grid_size)
    top = float(np.max(np.linalg.norm(samples, 2, axis=(1, 2))))
    if top > 1.0 + 10 * config.residual_tol:
        raise PreconditionError("B in the unit ball on the circle", top)
    density = MatrixSymbol.identity(m) - symbol_mul(adjoint_flip(B), B)
    dens_samples = sample_symbol(density, config.grid_size)
    min_eig = float(np.min(np.linalg.eigvalsh(
        (dens_samples + dens_samples.conj().transpose(0, 2, 1)) / 2)))
    if min_eig < 1e-12:
        raise PreconditionError("I - B*B positive on grid samples", min_eig)
    A = bauer_factorize(density, N, config)
    a0 = np.linalg.eigvalsh((A.coeff(0) + A.coeff(0).conj().T) / 2)
    if a0.min() <= 0:
        raise PreconditionError("A(0) positive definite", float(a0.min()))
    gap, verdict = _special_or_undecided(special_test, B, A, N, config)
    return Pair(B, A, gap, verdict)


def _g0_prime(B0: MatrixSymbol, A_prime: MatrixSymbol, N: int) -> MatrixSymbol:
    """G0' = (I - B0)^{-1} A' to degree 2N, the depth the mass-gap Gram reads."""
    cond = float(np.linalg.cond(np.eye(B0.rows) - B0.coeff(0)))
    if cond > 1e12:
        raise PreconditionError("I - B0(0) invertible", cond)
    inv = series_inverse(MatrixSymbol.identity(B0.rows) - B0, 2 * N)
    return symbol_mul(inv, A_prime)


def special_test(B0: MatrixSymbol, A_prime: MatrixSymbol, N: int | None = None,
                 config: ToleranceConfig = DEFAULT_CONFIG) -> tuple[float, str]:
    """Total-mass criterion for specialness of the pair (B0, A').

    mass_gap = || Re[(I + B0(0))(I - B0(0))^{-1}] - Gram(G0') || with
    G0' = (I - B0)^{-1} A'.  The Hermitian part of the Herglotz value at 0
    carries the full measure; the Gram carries only its absolutely
    continuous part, so a gap certifies singular mass.  The Gram is formed
    at two truncation depths and drift between them yields "indeterminate"
    (divergence cannot be ruled out at this N).
    """
    N = config.trunc_degree if N is None else N
    return _mass_gap(B0, A_prime, _g0_prime(B0, A_prime, N), N, config)


def _mass_gap(B0: MatrixSymbol, A_prime: MatrixSymbol, g0p: MatrixSymbol,
              N: int, config: ToleranceConfig) -> tuple[float, str]:
    """special_test on a G0' already built by _g0_prime."""
    ident = pair_identity_defect(B0, A_prime, config)
    if ident > 100 * config.residual_tol:
        raise PreconditionError("pair boundary identity A*A + B*B = I", ident)
    eye = np.eye(B0.rows)
    b00 = B0.coeff(0)
    X = (eye + b00) @ np.linalg.inv(eye - b00)
    herm = (X + X.conj().T) / 2
    gram_lo, gram_hi = _gram(g0p, N), _gram(g0p, 2 * N)
    drift = float(np.linalg.norm(gram_hi - gram_lo, 2))
    gap = float(np.linalg.norm(herm - gram_hi, 2))
    if drift > max(100 * config.residual_tol, 1e-3 * np.linalg.norm(gram_hi, 2)):
        return gap, "indeterminate"
    if gap <= 10 * config.residual_tol:
        return gap, "special"
    if gap >= RIGIDITY_FLOOR:
        return gap, "not-special"
    return gap, "indeterminate"


def _special_or_undecided(test, *args) -> tuple[float, str]:
    """special_test or _mass_gap, a failed precondition read as undecided."""
    try:
        return test(*args)
    except (PreconditionError, np.linalg.LinAlgError):
        return float("nan"), "indeterminate"


def _gram(g: MatrixSymbol, depth: int) -> np.ndarray:
    """Column Gram sum_{d <= depth} g_d^H g_d of an analytic symbol."""
    c = g.window(0, depth)
    return np.einsum("dji,djk->ik", c.conj(), c)


# -- rigidity -----------------------------------------------------------------------

@dataclass(frozen=True)
class RigidityReport:
    """sigma_min ladder of the finite sections of F* F^{-1}.

    verdict "non-rigid" always carries a certified witness (a kernel
    vector v with ||T v|| <= 10 rank_tol ||v||, one column of dimension
    F.rows at the ladder degree where it was found); "rigid" requires the
    ladder to stay above the floor without decay; anything else is
    "indeterminate" since finite sections cannot prove an infinite kernel
    trivial.
    """

    verdict: str
    sigma_ladder: tuple
    ladder: tuple
    witness: SubspaceBasis | None = None
    witness_residual: float = float("inf")


def rigidity_test(F: MatrixSymbol, ladder=DEFAULT_LADDER,
                  config: ToleranceConfig = DEFAULT_CONFIG) -> RigidityReport:
    """Three-valued rigidity verdict for the square of an outer F."""
    span = shift_span(F, config)
    if span.verdict != "outer":
        raise PreconditionError("F outer", span.eta_fine)
    phi = toeplitz_symbol(F, MatrixSymbol.identity(F.rows), config)

    sigmas = []
    witness = None
    witness_residual = float("inf")
    for n in ladder:
        T = build_toeplitz(phi, n)
        u, s, vh = np.linalg.svd(T.matrix)
        smin = float(s[-1])
        sigmas.append(smin)
        if witness is None and smin <= 10 * config.rank_tol * max(float(s[0]), 1.0):
            gap_ok = s.size < 2 or s[-2] >= KERNEL_GAP_FACTOR * max(smin, 1e-300)
            if gap_ok:
                v = vh[-1].conj()
                resid = float(np.linalg.norm(T.matrix @ v))
                if resid <= 10 * config.rank_tol:
                    witness = basis_from_matrix(v[:, None], F.rows, n)
                    witness_residual = resid
    if witness is not None:
        verdict = "non-rigid"
    elif min(sigmas) >= RIGIDITY_FLOOR and sigmas[-1] >= 0.5 * sigmas[0]:
        verdict = "rigid"
    else:
        verdict = "indeterminate"
    return RigidityReport(verdict, tuple(sigmas), tuple(ladder),
                          witness, witness_residual)


# -- the Toeplitz symbol ------------------------------------------------------------

def toeplitz_symbol(G: MatrixSymbol, U: MatrixSymbol,
                    config: ToleranceConfig = DEFAULT_CONFIG) -> MatrixSymbol:
    """Boundary symbol G* U* G^{-1} whose Toeplitz kernel is G K_U.

    G must be square (a rectangular G goes through embed_rect); the symbol
    is formed on the boundary samples and read back as Fourier coefficients.
    The real and imaginary part of every coefficient entry are read
    separately: a part of modulus below 1e-13 is roundoff dust and is set
    to zero before the band is compressed at the same tolerance.  Dust in
    an interior degree would couple pieces of a section that the exact
    symbol splits, imaginary dust on a real symbol would send every
    section to complex arithmetic (singular_values), and either moves T by
    at most about band * 1e-13 in norm.
    """
    if G.rows != G.cols:
        raise ValueError("rectangular G: use embed_rect")
    K = config.grid_size
    sg = sample_symbol(G, K)
    smin = float(np.min(np.linalg.svd(sg, compute_uv=False)))
    if smin < 1e-12:
        raise PreconditionError("G invertible on grid samples", smin)
    core = np.einsum("kji,kjl->kil", sg.conj(),
                     np.einsum("kji,kjl->kil", sample_symbol(U, K).conj(),
                               np.linalg.inv(sg)))
    if not np.all(np.isfinite(core)):
        raise PreconditionError("bounded boundary samples", float("inf"))
    phi = symbol_from_samples(core, -(K // 2), K // 2 - 1)
    re, im = (np.where(np.abs(part) < 1e-13, 0.0, part)
              for part in (phi.coeffs.real, phi.coeffs.imag))
    return MatrixSymbol(phi.rows, phi.cols, phi.min_deg, re + 1j * im).compress(1e-13)


# -- classification -----------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    """Pipeline record: three sub-verdicts, the symbol, and the cross-check.

    final is "is-kernel" only when divisibility, specialness, and rigidity
    all pass and the kernel of the constructed symbol agrees with G K_U
    within the angle tolerance at both truncation depths.
    """

    divisibility: str
    divisibility_defect: float
    special: str
    mass_gap: float
    rigidity: str
    sigma_ladder: tuple
    final: str
    symbol: MatrixSymbol | None
    cross_check_angle: float
    ladder: tuple

    def to_json_dict(self, symbol_ref: str = "inline") -> dict:
        def clean(x):
            if x is None or (isinstance(x, float) and not np.isfinite(x)):
                return None
            return x
        return {
            "divisibility": {"verdict": self.divisibility,
                             "defect": clean(self.divisibility_defect)},
            "special": {"verdict": self.special, "mass_gap": clean(self.mass_gap)},
            "rigidity": {"verdict": self.rigidity,
                         "sigma_min": [clean(s) for s in self.sigma_ladder]},
            "final": self.final,
            "symbol_ref": symbol_ref if self.symbol is not None else None,
            "cross_check_angle": clean(self.cross_check_angle),
            "ladder": {"N": list(self.ladder)},
        }


def _gk_basis(G: MatrixSymbol, U: MatrixSymbol, M: int,
              config: ToleranceConfig) -> SubspaceBasis:
    """Orthonormal basis of G K_U at degree M, U certified inner of full rank."""
    images = apply_symbol(G, _model_space(U, M, U.rows, config), M)
    return orthonormal_basis(images.matrix, G.rows, M, config.rank_tol)


def kernel_angle(phi: MatrixSymbol, G: MatrixSymbol, U: MatrixSymbol, M: int,
                 config: ToleranceConfig = DEFAULT_CONFIG) -> float:
    """Upper bound on the largest principal angle between ker T_phi and G K_U.

    At degree M, with Q an orthonormal basis of G K_U of size k and s the
    singular values of the section (values only, no vectors): pi/2 when the
    numerical kernel (the values below the rank cut) does not have
    dimension k, 0 when k = 0, and otherwise Wedin's sin-theta bound
    arcsin(min(1, ||T_phi Q||_2 / s[cut - 1])).  For a unit x in span Q,
    ||T x|| >= s[cut - 1] times the part of x outside the numerical kernel,
    so the value is never below the principal angle, up to roundoff.
    T_phi Q is formed from the symbol, O(M * band * k).  U is certified
    inner here (model_space_basis); the pipelines, which certify U once up
    front, pass their own G K_U basis to _angle.
    """
    images = apply_symbol(G, model_space_basis(U, M, config), M)
    return _angle(phi, orthonormal_basis(images.matrix, G.rows, M, config.rank_tol),
                  M, config)


def _angle(phi: MatrixSymbol, q: SubspaceBasis, M: int,
           config: ToleranceConfig) -> float:
    """kernel_angle against an orthonormal basis q of G K_U at degree M."""
    s = singular_values(build_toeplitz(phi, M))
    cut = numerical_rank(s, config.rank_tol)
    if s.size - cut != q.size:
        return float(np.pi / 2)
    if q.size == 0:
        return 0.0
    tq = apply_symbol(phi, q, M).matrix
    return float(np.arcsin(min(1.0, np.linalg.norm(tq, 2) / s[cut - 1])))


def _require_inner_U(U: MatrixSymbol, config: ToleranceConfig) -> None:
    """U inner of full rank with U(0) = 0, as classify and construct need."""
    cert = is_inner(U, config)
    if not cert.is_inner or cert.rank != U.rows:
        raise PreconditionError("U inner of full rank", cert.deviation)
    if np.linalg.norm(U.coeff(0)) > 1e-10:
        raise PreconditionError("U(0) = 0", float(np.linalg.norm(U.coeff(0))))


def classify_kernel(G: MatrixSymbol, U: MatrixSymbol, N: int,
                    config: ToleranceConfig = DEFAULT_CONFIG,
                    ladder=DEFAULT_LADDER) -> ClassificationReport:
    """Decide whether F = G K_U is the kernel of a Toeplitz operator.

    Pipeline: B from the Sarason construction; division B = U B0;
    specialness of (B0, A') with A' = (I - B0 U) G; rigidity of the square
    of G0' = (I - B0)^{-1} A', formed once to depth 2N for the specialness
    Gram and read to degree N by the rigidity ladder (a singular I - B0(0),
    for which G0' does not exist, raises).  The constructed symbol and the
    bound on the subspace angle between its Toeplitz kernel and G K_U
    (kernel_angle) are reported whenever the samples allow, whatever the
    verdicts.  Indeterminate sub-verdicts propagate; they are never
    resolved by majority.  A specialness test whose precondition fails at
    this truncation reads as indeterminate.
    """
    if G.rows != G.cols:
        raise ValueError("rectangular G: use embed_rect")
    _require_inner_U(U, config)

    B = sarason_B(G, N, config)
    div = divide_inner(B, U, config)
    if div.divisible:
        div_verdict = "divisible"
    elif div.defect >= RIGIDITY_FLOOR:
        div_verdict = "not-divisible"
    else:
        div_verdict = "indeterminate"

    special_verdict, gap = "skipped", float("nan")
    rig_verdict, sigmas = "skipped", ()
    if div.divisible:
        B0 = div.quotient
        A_prime = symbol_mul(MatrixSymbol.identity(G.rows) - symbol_mul(B0, U), G)
        g0p = _g0_prime(B0, A_prime, N)
        gap, special_verdict = _special_or_undecided(_mass_gap, B0, A_prime,
                                                     g0p, N, config)
        rig = rigidity_test(g0p.truncate(0, N), ladder, config)
        rig_verdict, sigmas = rig.verdict, rig.sigma_ladder

    phi = None
    angle = float("nan")
    try:
        phi = toeplitz_symbol(G, U, config)
        angle = max(_angle(phi, _gk_basis(G, U, M, config), M, config)
                    for M in (N, 2 * N))
    except PreconditionError:
        pass

    verdicts = (div_verdict, special_verdict, rig_verdict)
    if verdicts == ("divisible", "special", "rigid"):
        final = "is-kernel" if angle <= ANGLE_TOL else "indeterminate"
    elif any(v in ("not-divisible", "not-special", "non-rigid") for v in verdicts):
        final = "not-kernel"
    else:
        final = "indeterminate"
    return ClassificationReport(div_verdict, float(div.defect),
                                special_verdict, gap,
                                rig_verdict, sigmas,
                                final, phi, angle, tuple(ladder))


# -- the constructive recipe --------------------------------------------------------

def _inv_sqrt_hermitian(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    if w.min() <= 0:
        raise PreconditionError("Gram positive definite", float(w.min()))
    return v @ np.diag(w ** -0.5) @ v.conj().T


@dataclass(frozen=True)
class ConstructionResult:
    """Output of the recipe: G with orthonormal columns, F = G K_U, the symbol."""

    G: MatrixSymbol
    F: SubspaceBasis
    phi: MatrixSymbol
    scale: np.ndarray = field(repr=False)
    pair: Pair | None = None
    B: MatrixSymbol | None = None
    angle_N: float = float("nan")
    angle_2N: float = float("nan")
    rigidity: RigidityReport | None = None


def construct_kernel(G0p: MatrixSymbol, U: MatrixSymbol, N: int,
                     config: ToleranceConfig = DEFAULT_CONFIG,
                     ladder=DEFAULT_LADDER) -> ConstructionResult:
    """Run the classification backwards from a rigid G0'.

    F0 = Herglotz of G0'* G0', B0 = cayley(F0), A' from bauer_factorize of
    I - B0*B0 (the recovered pair must be special), B = U B0, and
    G = (I - B0 U)^{-1} A' rescaled on the right so its column Gram is the
    identity.  Returns G, the orthonormalized F = {p_+(G k)}, the symbol,
    and the bounds on the kernel agreement angles at N and 2N.
    """
    if G0p.rows != G0p.cols:
        raise ValueError("G0' must be square")
    r = G0p.rows
    rig = rigidity_test(G0p, ladder, config)
    if rig.verdict != "rigid":
        raise PreconditionError("G0' square rigid", rig.sigma_ladder[-1]
                                if rig.sigma_ladder else float("nan"))
    _require_inner_U(U, config)

    density = symbol_mul(adjoint_flip(G0p), G0p)
    F0 = herglotz_taylor(density, N)
    B0 = cayley(F0)
    eye = MatrixSymbol.identity(r)
    complement = eye - symbol_mul(adjoint_flip(B0), B0)
    A_prime = bauer_factorize(complement, N, config)
    gap, verdict = special_test(B0, A_prime, N, config)
    if verdict != "special":
        raise PreconditionError("recovered pair (B0, A') special", gap)

    B = symbol_mul(U, B0)
    g_raw = symbol_mul(series_inverse(eye - symbol_mul(B0, U), N),
                       A_prime).truncate(0, N)
    scale = _inv_sqrt_hermitian(_gram(g_raw, N))
    G = symbol_mul(g_raw, MatrixSymbol.constant(scale))

    phi = toeplitz_symbol(G, U, config)
    F = _gk_basis(G, U, N, config)
    F2 = _gk_basis(G, U, 2 * N, config)
    return ConstructionResult(G, F, phi, scale,
                              Pair(B0, A_prime, gap, verdict), B,
                              _angle(phi, F, N, config), _angle(phi, F2, 2 * N, config),
                              rig)


# -- rectangular embedding ----------------------------------------------------------

@dataclass(frozen=True)
class EmbedResult:
    """Ambient m x m symbol for a flat r-dimensional shift span, r < m."""

    theta: np.ndarray = field(repr=False)
    phi: MatrixSymbol | None = None
    classification: ClassificationReport | None = None
    ambient_angle: float = float("nan")


def embed_rect(G: MatrixSymbol, U: MatrixSymbol, N: int,
               config: ToleranceConfig = DEFAULT_CONFIG,
               ladder=DEFAULT_LADDER) -> EmbedResult:
    """Classify a rectangular G (r < m) and return the full-size symbol.

    The shift span of G is rotated onto the first r coordinates by a
    constant unitary Theta = [Theta0, completion], and the reduced r x r
    problem G~ = Theta0^H G goes through classify_kernel.  The returned
    symbol is Theta (phi~ (+) I_{m-r}) Theta^H, built from the reduced
    symbol phi~ that classify_kernel returned: it acts as phi~ on the span
    and as the identity on its complement.  The kernel of the ambient
    symbol is cross-checked against G K_U directly.
    """
    m, r = G.rows, G.cols
    if r >= m:
        raise ValueError("square input: use classify_kernel")
    span = shift_span(G, config)
    if span.verdict != "outer":
        raise PreconditionError("G outer", span.eta_fine)
    if span.rank != r or U.rows != r:
        raise PreconditionError("shift span dimension equals r", float(span.rank))

    t0 = span.theta0
    gt = symbol_mul(MatrixSymbol.constant(t0.conj().T), G).compress(1e-14)
    classification = classify_kernel(gt, U, N, config, ladder)
    reduced = classification.symbol
    if reduced is None:
        raise PreconditionError("reduced symbol from bounded G~ samples",
                                float("nan"))
    comp = phase_gauge(scipy.linalg.null_space(t0.conj().T))
    # Theta (phi~ (+) I) Theta^H = Theta0 phi~ Theta0^H + comp comp^H
    rotated = np.einsum("ij,kjl,ml->kim", t0, reduced.coeffs, t0.conj())
    phi = (MatrixSymbol(m, m, reduced.min_deg, rotated)
           + MatrixSymbol.constant(comp @ comp.conj().T)).compress(1e-13)

    worst = max(_angle(phi, _gk_basis(G, U, M, config), M, config)
                for M in (N, 2 * N))
    return EmbedResult(np.hstack([t0, comp]), phi, classification, worst)


# -- the H(B) inner product ---------------------------------------------------------

def hb_inner(h1: SubspaceBasis, h2: SubspaceBasis, pair: Pair,
             config: ToleranceConfig = DEFAULT_CONFIG) -> complex:
    """<h1, h2> + <h1+, h2+> where T_{A*} h+ = T_{B*} h at degree N.

    h1 and h2 are one-column bases.  The companion h+ is found by least
    squares on the finite sections; a large solve residual means h is not
    in H(B) at this truncation.
    """
    N = config.trunc_degree
    TA = build_toeplitz(adjoint_flip(pair.A), N).matrix
    TB = build_toeplitz(adjoint_flip(pair.B), N).matrix

    def vector(h: SubspaceBasis, n: int) -> np.ndarray:
        return h.as_symbol().window(0, n).reshape(-1)

    def companion(h: SubspaceBasis) -> np.ndarray:
        rhs = TB @ vector(h, N)
        sol, *_ = np.linalg.lstsq(TA, rhs, rcond=None)
        resid = float(np.linalg.norm(TA @ sol - rhs))
        if resid > 10 * config.residual_tol * max(1.0, np.linalg.norm(h.matrix)):
            raise ValueError(
                f"not in H(B) at this truncation: solve residual {resid:.3e}")
        return sol

    n = max(h1.degree, h2.degree)
    p1, p2 = companion(h1), companion(h2)
    return complex(np.vdot(vector(h2, n), vector(h1, n)) + np.vdot(p2, p1))
