"""Pairs, special pairs, rigidity, and the kernel classification.

A nearly S*-invariant subspace F = G K_U is the kernel of a Toeplitz
operator exactly when three sub-verdicts align: the contraction B attached
to G is divisible by U, the quotient pair (B0, A') is special (no singular
mass), and the square of G0' = A' (I - B0)^{-1} is rigid.  G is m x r and
B, B0 and U act on K_U in H2(C^r), so every product puts them on the right
of G: B = U B0 (divide_inner divides on the left), A' = G (I - U B0) from
Sarason's G = A' (I - B)^{-1}, and G0' = A' (I - B0)^{-1}.  This module
implements the sub-tests, the classification pipeline, the constructive
recipe that runs the argument backwards, and the rectangular embedding.
Every step reads U through the public model_space_basis and gk_basis, which
toeplitz.kernel_angle(phi, Q) compares with ker T_phi without building a
section; the memoized is_inner certifies U once per pipeline call.  N is
an argument of every step; the three pipelines, pair_from_B and
special_test run on config.with_degree(N), the config's own grid when it
is valid at N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symbols import (DEFAULT_CONFIG, MatrixSymbol, SubspaceBasis,
                      ToleranceConfig, _eigvalsh, _inv, _norm2, adjoint_flip,
                      apply_symbol, cayley, herglotz_taylor, sample_symbol,
                      series_inverse, symbol_from_samples, symbol_mul)
from .toeplitz import (build_toeplitz, kernel_angle, kernel_basis,
                       numerical_rank, orthonormal_basis, singular_values)
from .factor import (PreconditionError, bauer_factorize, divide_inner,
                     is_inner, shift_span)
from .nearly import model_space_basis, sarason_B

DEFAULT_LADDER = (16, 32, 64)
RIGIDITY_FLOOR = 1e-4
ANGLE_TOL = 1e-5


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
    return _hermitian_norm(acc)


def pair_from_B(B: MatrixSymbol, N: int,
                config: ToleranceConfig = DEFAULT_CONFIG) -> Pair:
    """Complete a unit-ball analytic B to a pair by factoring I - B*B.

    A is the outer spectral factor normalized with A(0) Hermitian positive
    definite; the mass gap and special verdict are filled in by
    special_test when I - B(0) is invertible.
    """
    config = config.with_degree(N)
    if B.rows != B.cols:
        raise ValueError("B must be square")
    m = B.rows
    samples = sample_symbol(B, config.grid_size)
    top = float(np.max(_norm2(samples)))
    if top > 1.0 + 10 * config.residual_tol:
        raise PreconditionError("B in the unit ball on the circle", top)
    density = MatrixSymbol.identity(m) - symbol_mul(adjoint_flip(B), B)
    dens_samples = sample_symbol(density, config.grid_size)
    min_eig = float(np.min(_eigvalsh(
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
    """G0' = A' (I - B0)^{-1} to degree 2N, the depth the mass-gap Gram reads."""
    cond = float(np.linalg.cond(np.eye(B0.rows) - B0.coeff(0)))
    if cond > 1e12:
        raise PreconditionError("I - B0(0) invertible", cond)
    inv = series_inverse(MatrixSymbol.identity(B0.rows) - B0, 2 * N)
    return symbol_mul(A_prime, inv)


def special_test(B0: MatrixSymbol, A_prime: MatrixSymbol, N: int,
                 config: ToleranceConfig = DEFAULT_CONFIG) -> tuple[float, str]:
    """Total-mass criterion for specialness of the pair (B0, A').

    mass_gap = || Re[(I + B0(0))(I - B0(0))^{-1}] - Gram(G0') || with
    G0' = A' (I - B0)^{-1}.  The Hermitian part of the Herglotz value at 0
    carries the full measure; the Gram carries only its absolutely
    continuous part, so a gap certifies singular mass.  The Gram is formed
    at two truncation depths and drift between them yields "indeterminate"
    (divergence cannot be ruled out at this N).
    """
    return _mass_gap(B0, A_prime, _g0_prime(B0, A_prime, N), N,
                     config.with_degree(N))


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
    drift = _hermitian_norm(gram_hi - gram_lo)
    gap = _hermitian_norm(herm - gram_hi)
    if drift > max(100 * config.residual_tol, 1e-3 * _hermitian_norm(gram_hi)):
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


def _hermitian_norm(h: np.ndarray) -> float:
    """Largest spectral norm over a Hermitian matrix, or a stack of them:
    the largest eigenvalue modulus."""
    return float(np.max(np.abs(_eigvalsh(h))))


def _gram(g: MatrixSymbol, depth: int) -> np.ndarray:
    """Column Gram sum_{d <= depth} g_d^H g_d of an analytic symbol."""
    c = g.window(0, depth)
    return np.einsum("dji,djk->ik", c.conj(), c)


# -- rigidity -----------------------------------------------------------------------

@dataclass(frozen=True)
class RigidityReport:
    """sigma_min ladder of the finite sections of F* F^{-1}.

    sigma_ladder holds the smallest singular value of the section at each
    ladder degree (singular_values, values only).  verdict "non-rigid"
    always carries a witness: the numerical kernel of the section at the
    first ladder degree whose values fall below the rank cut (kernel_basis,
    orthonormal columns in the phase gauge, ||T v|| <= rank_tol sigma_max
    per column), with as many columns as that kernel has dimensions.
    "rigid" requires the ladder to stay above the floor without decay;
    anything else is "indeterminate" since finite sections cannot prove an
    infinite kernel trivial.
    """

    verdict: str
    sigma_ladder: tuple
    witness: SubspaceBasis | None = None


def rigidity_test(F: MatrixSymbol, ladder=DEFAULT_LADDER,
                  config: ToleranceConfig = DEFAULT_CONFIG) -> RigidityReport:
    """Three-valued rigidity verdict for the square of an outer F.

    Each ladder degree n reads the singular values of the section of
    F* F^{-1} (singular_values splits lacunary and diagonal symbols); at the
    first n where numerical_rank counts fewer than all of them, the
    section is built and its kernel_basis is the witness.  A kernel that
    comes back empty there leaves the ladder climbing.
    """
    span = shift_span(F, config)
    if span.verdict != "outer":
        raise PreconditionError("F outer", span.eta_fine)
    phi = toeplitz_symbol(F, MatrixSymbol.identity(F.rows), config)

    sigmas = []
    witness = None
    for n in ladder:
        s = singular_values(phi, n)
        sigmas.append(float(s[-1]))
        if witness is None and numerical_rank(s, config.rank_tol) < s.size:
            kernel = kernel_basis(build_toeplitz(phi, n), config)
            if kernel.size:
                witness = kernel
    if witness is not None:
        verdict = "non-rigid"
    elif min(sigmas) >= RIGIDITY_FLOOR and sigmas[-1] >= 0.5 * sigmas[0]:
        verdict = "rigid"
    else:
        verdict = "indeterminate"
    return RigidityReport(verdict, tuple(sigmas), witness)


# -- the Toeplitz symbol ------------------------------------------------------------

def toeplitz_symbol(G: MatrixSymbol, U: MatrixSymbol,
                    config: ToleranceConfig = DEFAULT_CONFIG) -> MatrixSymbol:
    """Boundary symbol G* U* G^{-1} whose Toeplitz kernel is G K_U.

    G must be square (a rectangular G goes through embed_rect); the symbol
    is formed on the boundary samples and read back as Fourier coefficients.
    G^{-1} is taken once per sample, and G counts as invertible there when
    smin = 1 / max ||G(xi)^{-1}||_2, its smallest singular value over the
    grid, is at least 1e-12; an exactly singular sample reads smin = 0.
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
    try:
        inv = _inv(sg)
    except np.linalg.LinAlgError:
        raise PreconditionError("G invertible on grid samples", 0.0) from None
    inv_norm = float(np.max(_norm2(inv)))  # 1 / smin
    if not inv_norm <= 1e12:  # a nan norm fails too
        raise PreconditionError("G invertible on grid samples", 1 / inv_norm)
    core = np.einsum("kji,kjl->kil", sg.conj(),
                     np.einsum("kji,kjl->kil", sample_symbol(U, K).conj(), inv))
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


def gk_basis(G: MatrixSymbol, U: MatrixSymbol, M: int,
             config: ToleranceConfig = DEFAULT_CONFIG) -> SubspaceBasis:
    """Orthonormal basis of G K_U at degree M, as kernel_angle reads it."""
    return orthonormal_basis(apply_symbol(G, model_space_basis(U, M, config), M),
                             config)


def _require_U_shape(name: str, G: MatrixSymbol, U: MatrixSymbol) -> None:
    """U acts on K_U in H2(C^r) with r = G.cols, so it must be r x r."""
    r = G.cols
    if (U.rows, U.cols) != (r, r):
        raise ValueError(f"U is {U.rows} x {U.cols} but {name} is "
                         f"{G.rows} x {G.cols}: U must be {r} x {r}")


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
    specialness of (B0, A') with A' = G (I - U B0); rigidity of the square
    of G0' = A' (I - B0)^{-1}, formed once to depth 2N for the specialness
    Gram and read to degree N by the rigidity ladder (a singular I - B0(0),
    for which G0' does not exist, raises).  The constructed symbol and the
    bound on the subspace angle between its Toeplitz kernel and G K_U
    (kernel_angle) are reported whenever the samples allow, whatever the
    verdicts.  Indeterminate sub-verdicts propagate; they are never
    resolved by majority.  A specialness test whose precondition fails at
    this truncation reads as indeterminate.
    """
    config = config.with_degree(N)
    if G.rows != G.cols:
        raise ValueError("rectangular G: use embed_rect")
    _require_U_shape("G", G, U)
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
        A_prime = symbol_mul(G, MatrixSymbol.identity(G.cols) - symbol_mul(U, B0))
        g0p = _g0_prime(B0, A_prime, N)
        gap, special_verdict = _special_or_undecided(_mass_gap, B0, A_prime,
                                                     g0p, N, config)
        rig = rigidity_test(g0p.truncate(0, N), ladder, config)
        rig_verdict, sigmas = rig.verdict, rig.sigma_ladder

    phi = None
    angle = float("nan")
    try:
        phi = toeplitz_symbol(G, U, config)
        angle = max(kernel_angle(phi, gk_basis(G, U, M, config), config)
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
                                final, phi, angle)


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
    pair: Pair
    angle_N: float
    angle_2N: float
    rigidity: RigidityReport


def construct_kernel(G0p: MatrixSymbol, U: MatrixSymbol, N: int,
                     config: ToleranceConfig = DEFAULT_CONFIG,
                     ladder=DEFAULT_LADDER) -> ConstructionResult:
    """Run the classification backwards from a rigid G0'.

    F0 = Herglotz of G0'* G0', B0 = cayley(F0), A' from pair_from_B(B0)
    (the recovered pair must be special), and G = A' (I - U B0)^{-1},
    whose Sarason B is U B0 (U inner keeps A'* A' + (U B0)* (U B0) = I),
    rescaled on the right so its column Gram is the identity.  Returns G,
    the orthonormalized F = {p_+(G k)}, the symbol, and the bounds on the
    kernel agreement angles at N and 2N.
    """
    config = config.with_degree(N)
    if G0p.rows != G0p.cols:
        raise ValueError("G0' must be square")
    _require_U_shape("G0'", G0p, U)
    rig = rigidity_test(G0p, ladder, config)
    if rig.verdict != "rigid":
        raise PreconditionError("G0' square rigid", rig.sigma_ladder[-1]
                                if rig.sigma_ladder else float("nan"))
    _require_inner_U(U, config)

    density = symbol_mul(adjoint_flip(G0p), G0p)
    B0 = cayley(herglotz_taylor(density, N))
    pair = pair_from_B(B0, N, config)
    if pair.special != "special":
        raise PreconditionError("recovered pair (B0, A') special", pair.mass_gap)

    eye = MatrixSymbol.identity(G0p.rows)
    g_raw = symbol_mul(pair.A, series_inverse(eye - symbol_mul(U, B0), N)
                       ).truncate(0, N)
    scale = _inv_sqrt_hermitian(_gram(g_raw, N))
    G = symbol_mul(g_raw, MatrixSymbol.constant(scale))

    phi = toeplitz_symbol(G, U, config)
    F = gk_basis(G, U, N, config)
    angle_N = kernel_angle(phi, F, config)
    angle_2N = kernel_angle(phi, gk_basis(G, U, 2 * N, config), config)
    return ConstructionResult(G, F, phi, scale, pair, angle_N, angle_2N, rig)


# -- rectangular embedding ----------------------------------------------------------

@dataclass(frozen=True)
class EmbedResult:
    """Ambient m x m symbol for a flat r-dimensional shift span, r < m."""

    phi: MatrixSymbol
    classification: ClassificationReport
    ambient_angle: float


def embed_rect(G: MatrixSymbol, U: MatrixSymbol, N: int,
               config: ToleranceConfig = DEFAULT_CONFIG,
               ladder=DEFAULT_LADDER) -> EmbedResult:
    """Classify a rectangular G (r < m) and return the full-size symbol.

    The shift span of G is rotated onto the first r coordinates by a
    constant unitary Theta = [Theta0, completion], and the reduced r x r
    problem G~ = Theta0^H G from shift_span goes through classify_kernel;
    the completion is the kernel_basis of Theta0^H.  The returned
    symbol is Theta (phi~ (+) I_{m-r}) Theta^H, built from the reduced
    symbol phi~ that classify_kernel returned: it acts as phi~ on the span
    and as the identity on its complement.  The kernel of the ambient
    symbol is cross-checked against G K_U directly.
    """
    config = config.with_degree(N)
    m, r = G.rows, G.cols
    if r >= m:
        raise ValueError("square input: use classify_kernel")
    _require_U_shape("G", G, U)
    span = shift_span(G, config)
    if span.verdict != "outer":
        raise PreconditionError("G outer", span.eta_fine)
    if span.rank != r:
        raise PreconditionError("shift span dimension equals r", float(span.rank))

    t0 = span.theta0
    classification = classify_kernel(span.g_tilde.compress(1e-14), U, N, config,
                                     ladder)
    reduced = classification.symbol
    if reduced is None:
        raise PreconditionError("reduced symbol from bounded G~ samples",
                                float("nan"))
    comp = kernel_basis(build_toeplitz(MatrixSymbol.constant(t0.conj().T), 0),
                        config).matrix
    # Theta (phi~ (+) I) Theta^H = Theta0 phi~ Theta0^H + comp comp^H
    rotated = np.einsum("ij,kjl,ml->kim", t0, reduced.coeffs, t0.conj())
    phi = (MatrixSymbol(m, m, reduced.min_deg, rotated)
           + MatrixSymbol.constant(comp @ comp.conj().T)).compress(1e-13)

    worst = max(kernel_angle(phi, gk_basis(G, U, M, config), config)
                for M in (N, 2 * N))
    return EmbedResult(phi, classification, worst)
