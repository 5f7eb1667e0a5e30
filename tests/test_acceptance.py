"""Acceptance gate: thirteen end-to-end criteria, one test per criterion.

Each test states its tolerance inline and exercises the public API the way a
user would; run with -v to get one pass/fail line per criterion.
"""

import numpy as np

from toepkern import (MatrixSymbol, ToleranceConfig,
                      adjoint_flip, series_inverse, symbol_mul)
from toepkern.factor import bauer_factorize
from toepkern.fixtures import (column_G, g_one_plus_z, g_poisson,
                               g_poisson_double, half_signature, lin_diag_G,
                               matrix_recipe, sarason_B_closed_form,
                               twisted_contraction)
from toepkern.hayashi import (DEFAULT_LADDER, classify_kernel,
                              construct_kernel, embed_rect, pair_from_B,
                              pair_identity_defect, rigidity_test,
                              special_test)
from toepkern.nearly import (counterexample_UBU, isometry_defect, sarason_B,
                             sarason_equivalence, section_defect)
from toepkern.toeplitz import (basis_from_matrix, build_toeplitz, kernel_basis,
                               subspace_angle)

CFG = ToleranceConfig()
N = 64
ROOT3 = np.sqrt(3.0)


def span_const_and_shift(dim: int, degree: int):
    """Basis of {(a + b z, 0, ...)} as column vectors."""
    cols = np.zeros((dim * (degree + 1), 2))
    cols[0, 0] = 1.0
    cols[dim, 1] = 1.0
    return basis_from_matrix(cols, dim, degree)


def test_01_diagonal_symbol_kernel_is_constant_plus_shift():
    phi = MatrixSymbol.diag(MatrixSymbol.monomial(-2), MatrixSymbol.identity(1))
    ker = kernel_basis(build_toeplitz(phi, 8), CFG)
    assert ker.size == 2
    angle = subspace_angle(ker, span_const_and_shift(2, 8))
    assert angle <= 1e-10


def test_02_linear_diagonal_is_not_a_kernel():
    rep = classify_kernel(lin_diag_G(), MatrixSymbol.monomial(1, 2), N, CFG)
    assert rep.final == "not-kernel"
    assert rep.cross_check_angle >= 0.5


def test_03_sarason_function_matches_closed_form():
    g = MatrixSymbol.scalar(np.array([1.0, 1.0]) / np.sqrt(2.0))
    B = sarason_B(g, N, CFG)
    C = sarason_B_closed_form(N)
    lo = min(B.min_deg, C.min_deg)
    hi = max(B.max_deg, C.max_deg)
    dev = max(np.max(np.abs(B.coeff(k) - C.coeff(k))) for k in range(lo, hi + 1))
    assert dev <= 1e-10


def test_04_section_identity_residual_converges():
    b_flat = symbol_mul(MatrixSymbol.monomial(1),
                        series_inverse(MatrixSymbol.scalar([2.0, 1.0]), 4 * N))
    res16 = section_defect(g_one_plus_z(), b_flat, 16)
    res64 = section_defect(g_one_plus_z(), b_flat, 64)
    assert res64 <= 1e-6
    # banded case is exact at every section size, so the decrease saturates
    # at machine dust; accept either a genuine decrease or dust level
    assert res64 <= res16 or res64 <= 1e-12
    d16 = section_defect(g_poisson(4 * N), MatrixSymbol.scalar([0.0, 0.5]), 16)
    d64 = section_defect(g_poisson(4 * N), MatrixSymbol.scalar([0.0, 0.5]), 64)
    assert d64 <= 1e-6 < d16
    assert d64 < d16


def test_05_equivalence_criteria_agree():
    positives = [(g_one_plus_z(), MatrixSymbol.monomial(1)),
                 (MatrixSymbol.identity(2), MatrixSymbol.monomial(1, 2))]
    for G, U in positives:
        rep = sarason_equivalence(G, U, N, CFG)
        assert rep.verdict == "holds"
        assert max(rep.isometry_defect, rep.divisibility_defect,
                   rep.annihilation_defect) <= 1e-8
    neg = sarason_equivalence(g_one_plus_z(), MatrixSymbol.monomial(2), N, CFG)
    assert neg.verdict != "holds"
    defects = (neg.isometry_defect, neg.divisibility_defect,
               neg.annihilation_defect)
    assert max(defects) <= 10.0 * min(defects)
    assert abs(neg.isometry_defect - 0.5) <= 1e-6


def test_06_twisted_image_mass():
    theta = MatrixSymbol.monomial(1)
    m_const = counterexample_UBU(theta, MatrixSymbol.scalar([0.5]),
                                 MatrixSymbol.scalar([0.0]), CFG)
    assert abs(m_const - 0.5) <= 1e-10
    m_shift = counterexample_UBU(theta, MatrixSymbol.scalar([0.0, 0.5]),
                                 MatrixSymbol.scalar([0.0]), CFG)
    assert m_shift <= 1e-10


def test_07_rigidity_verdicts_and_witness():
    soft = rigidity_test(MatrixSymbol.scalar([1.0, 1.0]), DEFAULT_LADDER, CFG)
    assert soft.verdict == "non-rigid"
    assert min(soft.sigma_ladder) <= 1e-4 / 1e3
    w = soft.witness
    assert abs(abs(w.matrix[0, 0]) - 1.0) <= 1e-8
    assert np.linalg.norm(w.matrix[w.dim:]) <= 1e-8
    for G in (MatrixSymbol.constant([[2.0]]), g_poisson(N)):
        rep = rigidity_test(G, DEFAULT_LADDER, CFG)
        assert rep.verdict == "rigid"
        sig = np.array(rep.sigma_ladder)
        assert np.min(sig) >= 1e-2
        assert np.ptp(sig) <= 1e-3


def test_08_specialness_gaps():
    gap, verdict = special_test(MatrixSymbol.scalar([0.0, 0.5]),
                                MatrixSymbol.constant([[ROOT3 / 2.0]]), N, CFG)
    assert verdict == "special" and gap <= 1e-8
    b0 = series_inverse(MatrixSymbol.scalar([2.0, 1.0]), N)
    a = symbol_mul(MatrixSymbol.scalar([np.sqrt(2.0), np.sqrt(2.0)]), b0)
    gap, verdict = special_test(b0, a, N, CFG)
    assert verdict == "not-special"
    assert abs(gap - 1.0) <= 1e-6


def test_09_recipe_reproduces_double_poisson_kernel():
    res = construct_kernel(g_poisson(N), MatrixSymbol.monomial(1), N, CFG)
    target = g_poisson_double(N)
    assert np.max(np.abs(res.G.coeffs - target.coeffs)) <= 1e-8
    for M in (64, 128):
        ker = kernel_basis(build_toeplitz(res.phi, M), CFG)
        assert ker.size == 1
        g_vec = g_poisson_double(M).window(0, M).reshape(-1)
        line = basis_from_matrix(g_vec[:, None], 1, M)
        assert subspace_angle(ker, line) <= 1e-6


def test_10_flat_outer_passes_equivalence_but_fails_specialness():
    g = MatrixSymbol.scalar(np.array([1.0, 1.0]) / np.sqrt(2.0))
    u = MatrixSymbol.monomial(1)
    assert sarason_equivalence(g, u, N, CFG).verdict == "holds"
    rep = classify_kernel(g, u, N, CFG)
    assert rep.divisibility == "divisible"
    assert rep.special == "not-special"
    assert rep.final == "not-kernel"


def test_11_matrix_recipe_dimension_matches_kernel():
    seed, U = matrix_recipe()
    res = construct_kernel(seed, U, N, CFG)
    assert res.F.size == 3
    ker = kernel_basis(build_toeplitz(res.phi, N), CFG)
    assert ker.size == 3
    assert max(res.angle_N, res.angle_2N) <= 1e-5
    # U does not commute with B0: the round trip needs them right of G
    assert classify_kernel(res.G, U, N, CFG).final == "is-kernel"
    assert isometry_defect(res.G, U, N, CFG) <= 1e-12


def test_12_column_embedding_reproduces_ambient_symbol():
    emb = embed_rect(column_G(), MatrixSymbol.monomial(2), N, CFG)
    target = MatrixSymbol.diag(MatrixSymbol.monomial(-2),
                               MatrixSymbol.identity(1))
    lo = min(emb.phi.min_deg, target.min_deg)
    hi = max(emb.phi.max_deg, target.max_deg)
    dev = max(np.max(np.abs(emb.phi.coeff(k) - target.coeff(k)))
              for k in range(lo, hi + 1))
    assert dev <= 1e-10
    assert emb.classification.final == "is-kernel"
    ker = kernel_basis(build_toeplitz(emb.phi, 8), CFG)
    assert subspace_angle(ker, span_const_and_shift(2, 8)) <= 1e-10


def test_13_pair_identities_gauge_stability_and_rebuilt_gaps():
    pair_sources = [MatrixSymbol.scalar([0.0, 0.0, 0.5]), half_signature(),
                    twisted_contraction(MatrixSymbol.scalar([0.0, 0.5]),
                                        MatrixSymbol.scalar([0.0, 0.0, 0.25]))]
    for B in pair_sources:
        pair = pair_from_B(B, N, CFG)
        assert pair_identity_defect(pair.B, pair.A, CFG) <= 1e-8
    twist = pair_sources[2]
    dens = (MatrixSymbol.identity(2)
            - symbol_mul(adjoint_flip(twist), twist)).compress(1e-14)
    a256 = bauer_factorize(dens, N, CFG, moment_rows=256)
    a384 = bauer_factorize(dens, N, CFG, moment_rows=384)
    assert (a256 - a384).norm_l2() <= 1e-6
    u = MatrixSymbol.monomial(1)
    gap, _ = special_test(symbol_mul(u, MatrixSymbol.scalar([0.0, 0.5])),
                          MatrixSymbol.constant([[ROOT3 / 2.0]]), N, CFG)
    assert gap <= 1e-7
    gap, _ = special_test(symbol_mul(matrix_recipe()[1], half_signature()),
                          MatrixSymbol.constant(ROOT3 / 2.0 * np.eye(2)), N, CFG)
    assert gap <= 1e-7
