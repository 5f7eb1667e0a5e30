"""Pair completion, rigidity, classification, recipe, and embedding tests.

Oracle values come from closed-form expansions: geometric series for the
Poisson-kernel fixtures, exact rational algebra for the quotient pairs, and
hand-computed images of the contracted isometry for the probe tests.
"""
import dataclasses
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toepkern import (
    MatrixSymbol,
    SubspaceBasis,
    ToleranceConfig,
    adjoint_flip,
    apply_symbol,
    sample_symbol,
    series_inverse,
    symbol_from_samples,
    symbol_mul,
)
from toepkern.factor import (PreconditionError, bauer_factorize, garcia_inner,
                             shift_span)
from toepkern.fixtures import (
    column_G,
    g_one_plus_z,
    g_poisson,
    g_poisson_double,
    half_signature,
    lin_diag_G,
    matrix_recipe,
    sarason_B_closed_form,
    twisted_contraction,
)
from toepkern import toeplitz
from toepkern.cli import _pair_fixtures, main
from toepkern.hayashi import (
    ANGLE_TOL,
    _g0_prime,
    classify_kernel,
    construct_kernel,
    embed_rect,
    gk_basis,
    outer_complement,
    pair_from_B,
    pair_identity_defect,
    rigidity_test,
    special_test,
    toeplitz_symbol,
)
from toepkern.nearly import counterexample_UBU, isometry_defect
from toepkern.toeplitz import (apply_symbol, build_toeplitz, kernel_angle,
                               kernel_angles, kernel_basis, numerical_rank,
                               singular_values, subspace_angle)

from helpers import component_pieces, phi_poisson_double, section_pieces

CFG = ToleranceConfig()
N = 64
ROOT3 = np.sqrt(3.0)


def toeplitz_action(phi, vec, dim, degree):
    """p_+(phi f) on the degree window by direct coefficient sums."""
    f = np.asarray(vec, complex).reshape(degree + 1, dim)
    out = np.zeros((degree + 1, phi.rows), complex)
    for j in range(degree + 1):
        for k in range(degree + 1):
            out[j] += phi.coeff(j - k) @ f[k]
    return out.reshape(-1)


def column_gram(sym):
    """Sum of coeff(d)^H coeff(d) over analytic degrees."""
    acc = np.zeros((sym.cols, sym.cols), complex)
    for d in range(max(sym.min_deg, 0), sym.max_deg + 1):
        c = sym.coeff(d)
        acc += c.conj().T @ c
    return acc


def quotient_pair():
    """b0 = 1/(2+z), a' = sqrt(2)(1+z)/(2+z) as truncated exact series."""
    inv = series_inverse(MatrixSymbol.scalar([2.0, 1.0]), N)
    a = symbol_mul(MatrixSymbol.scalar([np.sqrt(2), np.sqrt(2)]), inv)
    return inv, a


def column(coeffs, dim=1):
    """One-column basis from degree-major coefficients, dim per degree."""
    arr = np.asarray(coeffs, complex).reshape(-1, 1)
    return SubspaceBasis(dim, len(arr) // dim - 1, arr)


def window(f, n):
    """The column of f on degrees 0..n, zero-padded or cut."""
    return f.as_symbol().window(0, n).reshape(-1)


def contracted_lambda(G, B, f, depth):
    """T_{I-B} T_{G*} f with exact products before truncation."""
    t = apply_symbol(adjoint_flip(G), f, depth)
    return apply_symbol(MatrixSymbol.identity(G.cols) - B, t, depth)


@lru_cache(maxsize=None)
def flagship_report():
    return classify_kernel(g_poisson_double(N), MatrixSymbol.monomial(1), N, CFG)


@lru_cache(maxsize=None)
def flagship_construction():
    return construct_kernel(g_poisson(N), MatrixSymbol.monomial(1), N, CFG)


# -- pair completion ----------------------------------------------------------------


class TestPairCompletion:
    def test_zero_contraction(self):
        pair = pair_from_B(MatrixSymbol.zero(2, 2), N)
        assert (pair.A - MatrixSymbol.identity(2)).norm_l2() < 1e-12
        assert pair.special == "special"
        assert pair.mass_gap < 1e-12

    def test_scalar_quadratic(self):
        pair = pair_from_B(MatrixSymbol.scalar([0, 0, 0.5]), N)
        assert (pair.A - MatrixSymbol.constant(np.array([[ROOT3 / 2]]))).norm_l2() < 1e-10
        assert pair.special == "special"
        assert pair.mass_gap < 1e-10

    def test_constant_signature(self):
        pair = pair_from_B(half_signature(), N)
        want = MatrixSymbol.constant(ROOT3 / 2 * np.eye(2))
        assert (pair.A - want).norm_l2() < 1e-12
        assert pair.special == "special"

    def test_boundary_zero_density(self):
        # b = z/(2+z): the complement vanishes at -1; the outer factor is
        # sqrt(2)(1+z)/(2+z), not any reflected twin of the same modulus
        pair = pair_from_B(sarason_B_closed_form(N), N)
        _, a_exact = quotient_pair()
        assert (pair.A - a_exact).norm_l2() < 1e-10
        assert shift_span(pair.A, CFG).verdict == "outer"
        assert pair.special == "special"
        assert pair.mass_gap < 1e-10

    def test_twisted_matricial_identity(self):
        B = twisted_contraction(MatrixSymbol.scalar([0, 0.5]),
                                MatrixSymbol.scalar([0, 0, 0.25]))
        pair = pair_from_B(B, N)
        assert pair_identity_defect(pair.B, pair.A, CFG) < 1e-10

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("name,B", _pair_fixtures())
    def test_pair_outer_factor_is_the_outer_complement(self, name, B, n):
        assert np.array_equal(pair_from_B(B, n, CFG).A.coeffs,
                              outer_complement(B, n, CFG).coeffs)

    def test_expansive_rejected(self):
        with pytest.raises(PreconditionError):
            pair_from_B(MatrixSymbol.constant(np.array([[1.5]])), N)

    def test_inner_rejected(self):
        with pytest.raises(PreconditionError):
            pair_from_B(MatrixSymbol.monomial(1), N)

    @settings(deadline=None, max_examples=12)
    @given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                    min_size=1, max_size=4))
    def test_identity_holds_for_random_contractions(self, coeffs):
        arr = np.array([re + 1j * im for re, im in coeffs])
        b = MatrixSymbol.scalar(arr)
        sup = float(np.max(np.abs(sample_symbol(b, 256)[:, 0, 0])))
        if sup > 0.8:
            b = b.scale(0.8 / sup)
        pair = pair_from_B(b, 48)
        assert pair_identity_defect(pair.B, pair.A, CFG) < 1e-8
        assert not (pair.mass_gap < -1e-8)


# -- specialness --------------------------------------------------------------------


class TestSpecialness:
    def test_trivial_pair(self):
        gap, verdict = special_test(MatrixSymbol.zero(1, 1),
                                    MatrixSymbol.identity(1), N, CFG)
        assert verdict == "special" and gap < 1e-14

    def test_flagship_quotient(self):
        gap, verdict = special_test(MatrixSymbol.scalar([0, 0.5]),
                                    MatrixSymbol.constant(np.array([[ROOT3 / 2]])),
                                    N, CFG)
        assert verdict == "special" and gap < 1e-12

    def test_point_mass_detected(self):
        # Herglotz value 3 at 0 against Gram mass 2: a unit of singular mass
        b0, a = quotient_pair()
        gap, verdict = special_test(b0, a, N, CFG)
        assert verdict == "not-special"
        assert abs(gap - 1.0) < 1e-8

    def test_identity_precondition(self):
        with pytest.raises(PreconditionError):
            special_test(MatrixSymbol.scalar([0, 0.5]),
                         MatrixSymbol.identity(1), N, CFG)

    def test_singular_I_minus_B0_precondition(self):
        # B0 = 1, A' = 0 satisfies the pair identity; G0' cannot be formed
        with pytest.raises(PreconditionError, match="I - B0"):
            special_test(MatrixSymbol.identity(1), MatrixSymbol.zero(1, 1),
                         N, CFG)


# -- rigidity -----------------------------------------------------------------------


class TestRigidity:
    def test_constant_rigid(self):
        rep = rigidity_test(MatrixSymbol.constant(np.array([[2.0]])), config=CFG)
        assert rep.verdict == "rigid"
        assert np.allclose(rep.sigma_ladder, 1.0, atol=1e-10)

    def test_one_plus_z_witness(self):
        g = g_one_plus_z()
        rep = rigidity_test(g, config=CFG)
        assert rep.verdict == "non-rigid"
        w = rep.witness
        assert w is not None
        assert (w.dim, w.degree, w.size) == (1, 16, 1)
        phi = toeplitz_symbol(g, MatrixSymbol.identity(1), CFG)
        assert np.linalg.norm(build_toeplitz(phi, w.degree).matrix @ w.matrix) < 1e-10
        # boundary ratio is zbar, so the kernel is the constants
        assert np.linalg.norm(w.matrix[w.dim:]) < 1e-8
        assert abs(abs(w.matrix[0, 0]) - 1.0) < 1e-8

    def test_double_zero_witness(self):
        g = MatrixSymbol.scalar([1.0, 0.0, 1.0])
        rep = rigidity_test(g, config=CFG)
        assert rep.verdict == "non-rigid"
        w = rep.witness
        assert w is not None
        phi = toeplitz_symbol(g, MatrixSymbol.identity(1), CFG)
        assert np.linalg.norm(build_toeplitz(phi, w.degree).matrix @ w.matrix) < 1e-8
        assert np.linalg.norm(w.matrix[2 * w.dim:]) < 1e-8

    @pytest.mark.parametrize("ladder", [(4, 8, 16), (8, 16, 24), (16, 32, 64)])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_plus_zk_witness_is_the_whole_kernel(self, k, ladder):
        # F* F^{-1} = zbar^k, whose kernel is the polynomials of degree < k:
        # the witness is all of it, at the first ladder degree
        c = np.zeros(k + 1)
        c[0] = c[k] = 1 / np.sqrt(2)
        rep = rigidity_test(MatrixSymbol.scalar(c), ladder, CFG)
        assert rep.verdict == "non-rigid"
        w = rep.witness
        assert (w.dim, w.degree, w.size) == (1, ladder[0], k)
        assert np.max(np.abs(w.matrix[k:])) < 1e-12

    def test_flagship_rigid(self):
        rep = rigidity_test(g_poisson(N), config=CFG)
        assert rep.verdict == "rigid"
        assert len(rep.sigma_ladder) == 3  # one per degree of (16, 32, 64)
        assert np.allclose(rep.sigma_ladder, ROOT3 / 2, atol=1e-4)

    def test_non_outer_rejected(self):
        with pytest.raises(PreconditionError):
            rigidity_test(symbol_mul(MatrixSymbol.monomial(1), g_poisson(N)),
                          config=CFG)


# -- the boundary symbol ------------------------------------------------------------


class TestBoundarySymbol:
    def test_trivial_conjugate_shift(self):
        phi = toeplitz_symbol(MatrixSymbol.identity(1), MatrixSymbol.monomial(1),
                              config=CFG)
        want = MatrixSymbol.scalar([1.0], min_deg=-1)
        assert (phi.truncate(-4, 4) - want).norm_l2() < 1e-10

    def test_flagship_matches_closed_form(self):
        phi = toeplitz_symbol(g_poisson_double(N), MatrixSymbol.monomial(1),
                              config=CFG)
        assert (phi.truncate(-40, 1) - phi_poisson_double(40)).norm_l2() < 1e-12

    def test_flagship_annihilates_generator(self):
        phi = toeplitz_symbol(g_poisson_double(N), MatrixSymbol.monomial(1),
                              config=CFG)
        g = g_poisson_double(N).coeffs[:, :, 0]
        out = toeplitz_action(phi, g, 1, N)
        assert np.linalg.norm(out) < 1e-8

    def test_diagonal_quadratic(self):
        phi = toeplitz_symbol(lin_diag_G(), MatrixSymbol.monomial(1, m=2),
                              config=CFG)
        want = MatrixSymbol(2, 2, -2,
                            np.array([np.diag([1.0, -1.0])], dtype=complex))
        assert (phi.truncate(-6, 6) - want).norm_l2() < 1e-10

    def test_rectangular_needs_report(self):
        with pytest.raises(ValueError):
            toeplitz_symbol(column_G(), MatrixSymbol.monomial(2), config=CFG)

    def test_rectangular_with_report(self):
        # a rectangular G gets its ambient symbol from embed_rect
        phi = embed_rect(column_G(), MatrixSymbol.monomial(2), N, CFG).phi
        want_arr = np.zeros((3, 2, 2), complex)
        want_arr[0, 0, 0] = 1.0
        want_arr[2, 1, 1] = 1.0
        want = MatrixSymbol(2, 2, -2, want_arr)
        assert (phi.truncate(-6, 6) - want).norm_l2() < 1e-10

    def test_singular_sample_rejected(self):
        with pytest.raises(PreconditionError):
            toeplitz_symbol(MatrixSymbol.constant(np.diag([1.0, 0.0])),
                            MatrixSymbol.monomial(1, m=2), config=CFG)


# -- grid preconditions -------------------------------------------------------------

# G = [[1, z], [0, 0]] has orthonormal columns in H2(C^2) and a zero second
# row, so every boundary sample is singular
RANK_ONE_G = MatrixSymbol(2, 2, 0, np.array([[[1, 0], [0, 0]], [[0, 1], [0, 0]]],
                                            complex))


@pytest.mark.parametrize("run,check", [
    (lambda: toeplitz_symbol(MatrixSymbol.constant(np.ones((2, 2))),
                             MatrixSymbol.monomial(1, m=2), CFG),
     "G invertible on grid samples"),
    (lambda: toeplitz_symbol(RANK_ONE_G, MatrixSymbol.monomial(1, m=2), CFG),
     "G invertible on grid samples"),
    (lambda: pair_from_B(MatrixSymbol.constant(np.array([[1.5]])), N, CFG),
     "B in the unit ball on the circle"),
    (lambda: pair_from_B(twisted_contraction(MatrixSymbol.scalar([0.0, 1.0]),
                                             MatrixSymbol.scalar([0.5])), N, CFG),
     "B in the unit ball on the circle"),
    (lambda: pair_from_B(MatrixSymbol.monomial(1), N, CFG),
     "I - B*B positive on grid samples"),
    (lambda: pair_from_B(MatrixSymbol.monomial(1, m=2), N, CFG),
     "I - B*B positive on grid samples"),
    (lambda: counterexample_UBU(MatrixSymbol.monomial(1),
                                MatrixSymbol.scalar([0.0, 0.9]),
                                MatrixSymbol.scalar([0.5]), CFG),
     "B contraction on the circle"),
    (lambda: bauer_factorize(MatrixSymbol(2, 2, -1, np.array(
        [[[0, 0.5], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [0.5, 0]]])), 8, CFG),
     "density positive semidefinite"),
])
def test_grid_check_raises_by_name(run, check):
    with pytest.raises(PreconditionError) as info:
        run()
    assert info.value.check == check


def test_singular_G_leaves_no_symbol_in_the_report():
    # U = z^2 I does not divide B = [[0, z], [0, 0]], so nothing runs between
    # the division and the symbol, whose precondition fails
    rep = classify_kernel(RANK_ONE_G, MatrixSymbol.monomial(2, m=2), 16,
                          CFG.with_degree(16), ladder=(4, 8, 16))
    assert rep.divisibility == "not-divisible" and rep.final == "not-kernel"
    assert rep.symbol is None and np.isnan(rep.cross_check_angle)


# -- classification -----------------------------------------------------------------


class TestClassification:
    def test_flagship_full_pipeline(self):
        rep = flagship_report()
        assert rep.final == "is-kernel"
        assert rep.divisibility == "divisible"
        assert rep.divisibility_defect < 1e-12
        assert rep.special == "special" and rep.mass_gap < 1e-10
        assert rep.rigidity == "rigid"
        assert np.allclose(rep.sigma_ladder, ROOT3 / 2, atol=1e-4)
        assert rep.cross_check_angle < 1e-5

    def test_flagship_kernel_is_the_line_through_g(self):
        rep = flagship_report()
        ker = kernel_basis(build_toeplitz(rep.symbol, N), CFG)
        assert ker.size == 1
        gvec = g_poisson_double(N).window(0, N).reshape(-1)
        q = ker.matrix
        assert np.linalg.norm(gvec - q @ (q.conj().T @ gvec)) < 1e-6

    def test_singular_mass_blocks_kernel(self):
        rep = classify_kernel(g_one_plus_z(), MatrixSymbol.monomial(1), N, CFG)
        assert rep.final == "not-kernel"
        assert rep.divisibility == "divisible"
        assert rep.special == "not-special"
        assert abs(rep.mass_gap - 1.0) < 1e-6
        # the quotient square sqrt(2)^2 is rigid; mass alone blocks the verdict
        assert rep.rigidity == "rigid"
        assert rep.cross_check_angle > 0.5

    def test_diagonal_fixture_not_kernel(self):
        rep = classify_kernel(lin_diag_G(), MatrixSymbol.monomial(1, m=2), N, CFG)
        assert rep.final == "not-kernel"
        assert rep.divisibility == "divisible"
        assert rep.special == "not-special"
        assert abs(rep.mass_gap - 1.0) < 1e-6
        assert rep.rigidity == "non-rigid"
        assert rep.cross_check_angle > 0.5

    def test_diagonal_fixture_kernel_strictly_larger(self):
        # G K_U sits inside ker T_phi but the kernel has twice the dimension
        rep = classify_kernel(lin_diag_G(), MatrixSymbol.monomial(1, m=2), N, CFG)
        ker = kernel_basis(build_toeplitz(rep.symbol, 16), CFG)
        assert ker.size == 4
        q = ker.matrix
        for col in range(2):
            f = apply_symbol(lin_diag_G(), column(np.eye(2)[col], dim=2), 16)
            v = f.matrix[:, 0]
            assert np.linalg.norm(v - q @ (q.conj().T @ v)) < 1e-8

    def test_undivisible_contraction_shape(self):
        rep = classify_kernel(g_one_plus_z(), MatrixSymbol.monomial(2), N, CFG)
        assert rep.final == "not-kernel"
        assert rep.divisibility == "not-divisible"
        assert abs(rep.divisibility_defect - 0.5) < 1e-10
        assert rep.special == "skipped" and np.isnan(rep.mass_gap)
        assert rep.rigidity == "skipped" and rep.sigma_ladder == ()
        assert rep.cross_check_angle > 0.5

    def test_rectangular_redirected(self):
        with pytest.raises(ValueError):
            classify_kernel(column_G(), MatrixSymbol.monomial(2), 16, CFG)

    @pytest.mark.parametrize("run,shapes", [
        (lambda: classify_kernel(g_poisson_double(32), MatrixSymbol.monomial(1, 2),
                                 32, CFG.with_degree(32)), "G is 1 x 1"),
        (lambda: construct_kernel(g_poisson(32), MatrixSymbol.monomial(1, 2), 32,
                                  CFG.with_degree(32)), "G0' is 1 x 1"),
    ], ids=["classify", "construct"])
    def test_U_shape_gate_names_both_shapes(self, run, shapes):
        # U must be r x r with r = G.cols
        with pytest.raises(ValueError, match=f"U is 2 x 2 but {shapes}: "
                                             "U must be 1 x 1"):
            run()

    def test_inner_preconditions(self):
        with pytest.raises(PreconditionError):
            classify_kernel(g_poisson_double(N), g_one_plus_z(), N, CFG)
        with pytest.raises(PreconditionError):
            classify_kernel(g_poisson_double(N), MatrixSymbol.identity(1), N, CFG)

    def test_positive_fixture_confirmed_at_both_depths(self):
        # cross_check_angle is the worst of the N and 2N agreement angles
        rep = flagship_report()
        assert rep.final == "is-kernel" and rep.cross_check_angle < 1e-5

    def test_negative_fixtures_stay_apart(self):
        cases = [
            (g_one_plus_z(), MatrixSymbol.monomial(1)),
            (g_one_plus_z(), MatrixSymbol.monomial(2)),
            (lin_diag_G(), MatrixSymbol.monomial(1, m=2)),
        ]
        for G, U in cases:
            rep = classify_kernel(G, U, N, CFG)
            assert rep.final == "not-kernel"
            assert rep.cross_check_angle > 0.1


# -- the constructive recipe --------------------------------------------------------


class TestRecipe:
    def test_trivial_seed(self):
        res = construct_kernel(MatrixSymbol.identity(1), MatrixSymbol.monomial(1),
                               32, CFG)
        assert (res.G - MatrixSymbol.identity(1)).norm_l2() < 1e-12
        assert symbol_mul(MatrixSymbol.monomial(1), res.pair.B).norm_l2() < 1e-12
        assert res.F.size == 1
        assert (res.phi.truncate(-4, 4)
                - MatrixSymbol.scalar([1.0], min_deg=-1)).norm_l2() < 1e-10
        assert res.angle_N < 1e-8 and res.angle_2N < 1e-8

    def test_flagship_roundtrip(self):
        res = flagship_construction()
        assert (res.G - g_poisson_double(N)).norm_l2() < 1e-12
        assert abs(res.scale[0, 0] - 1.0) < 1e-10
        assert (res.pair.B - MatrixSymbol.scalar([0, 0.5])).norm_l2() < 1e-12
        assert (res.pair.A
                - MatrixSymbol.constant(np.array([[ROOT3 / 2]]))).norm_l2() < 1e-10
        assert (symbol_mul(MatrixSymbol.monomial(1), res.pair.B)
                - MatrixSymbol.scalar([0, 0, 0.5])).norm_l2() < 1e-12
        assert res.F.size == 1
        assert res.angle_N < 1e-8 and res.angle_2N < 1e-8
        assert res.rigidity.verdict == "rigid"

    def test_constructed_G_has_orthonormal_columns(self):
        res = flagship_construction()
        assert np.linalg.norm(column_gram(res.G) - np.eye(1)) < 1e-10

    def test_matrix_seed_three_dimensional(self):
        seed, U = matrix_recipe()
        res = construct_kernel(seed, U, N, CFG)
        assert res.F.size == 3
        assert (res.pair.B - MatrixSymbol.constant(np.diag([0.5, -0.5]))
                ).norm_l2() < 1e-12
        assert (res.pair.A
                - MatrixSymbol.constant(ROOT3 / 2 * np.eye(2))).norm_l2() < 1e-12
        assert res.angle_N < 1e-5 and res.angle_2N < 1e-5
        assert np.linalg.norm(column_gram(res.G) - np.eye(2)) < 1e-10

    def test_recipe_output_classifies_back(self):
        res = flagship_construction()
        rep = classify_kernel(res.G, MatrixSymbol.monomial(1), N, CFG)
        assert rep.final == "is-kernel"

    @pytest.mark.parametrize("n", [32, 128])
    def test_matrix_recipe_classifies_back(self, n):
        # U does not commute with B0 here, so the round trip holds only with
        # B0 and U on the right of G (acceptance test 11 covers N = 64)
        config = ToleranceConfig().with_degree(n)
        seed, U = matrix_recipe()
        res = construct_kernel(seed, U, n, config)
        assert classify_kernel(res.G, U, n, config).final == "is-kernel"
        assert isometry_defect(res.G, U, n, config) <= 1e-12

    @settings(deadline=None, max_examples=12)
    @given(st.lists(st.floats(-1, 1), min_size=4, max_size=4),
           st.floats(0.2, 1.35),
           st.lists(st.floats(-1, 1), min_size=8, max_size=8),
           st.floats(0, 0.7))
    def test_noncommuting_recipe_classifies_back(self, uv, t, cv, radius):
        # U = z garcia_inner(z, p + q z, r + s z) with (p, r) = cos t u and
        # (q, s) = sin t u_perp, and the constant seed
        # (I - C)^{-1} (I - C^H C)^{1/2} with ||C|| <= 0.7.  The constructed
        # symbol G* U* G^{-1} has a geometric tail, and its band above 1e-13
        # grows with ||C||: from ||C|| = 0.6 on it passes degree 64.  With
        # U = z I2 and C = 0.625 I the band reads 66 at N = 64, the degree-64
        # section keeps a singular value of 5e-8 above the rank cut, and the
        # cross-check reads pi/2; at N = 128 the same draw is a kernel with
        # angle 3e-14, and 320 draws with ||C|| in [0.55, 0.7] all pass.
        n = 128
        u = np.array([uv[0] + 1j * uv[1], uv[2] + 1j * uv[3]])
        assume(np.linalg.norm(u) > 0.1)
        u /= np.linalg.norm(u)
        perp = np.array([-np.conj(u[1]), np.conj(u[0])])
        (p, r), (q, s) = np.cos(t) * u, np.sin(t) * perp
        core = garcia_inner(MatrixSymbol.monomial(1), MatrixSymbol.scalar([p, q]),
                            MatrixSymbol.scalar([r, s]))
        U = symbol_mul(MatrixSymbol.monomial(1, 2), core)
        C = (np.array(cv[:4]) + 1j * np.array(cv[4:])).reshape(2, 2)
        assume(np.linalg.norm(C, 2) > 0.1)
        C *= radius / np.linalg.norm(C, 2)
        w, v = np.linalg.eigh(np.eye(2) - C.conj().T @ C)
        seed = np.linalg.solve(np.eye(2) - C, v @ np.diag(np.sqrt(w)) @ v.conj().T)
        res = construct_kernel(MatrixSymbol.constant(seed), U, n, CFG)
        assert classify_kernel(res.G, U, n, CFG).final == "is-kernel"

    def test_nonrigid_seed_rejected(self):
        with pytest.raises(PreconditionError):
            construct_kernel(g_one_plus_z(), MatrixSymbol.monomial(1), 32, CFG)

    def test_unit_at_origin_rejected(self):
        with pytest.raises(PreconditionError):
            construct_kernel(MatrixSymbol.identity(1), MatrixSymbol.identity(1),
                             32, CFG)


@lru_cache(maxsize=None)
def cross_check_case(name, n):
    """(phi, G, U, config) of a constructed kernel at degree n."""
    config = ToleranceConfig().with_degree(n)
    if name == "flagship":
        seed, U = g_poisson(n), MatrixSymbol.monomial(1)
    else:
        seed, U = matrix_recipe()
    res = construct_kernel(seed, U, n, config)
    return res.phi, res.G, U, config


def oracle_angle(phi, G, U, M, config):
    """The exact principal angle: full kernel vectors of the section."""
    return subspace_angle(kernel_basis(build_toeplitz(phi, M), config),
                          gk_basis(G, U, M, config))


def dense_angle(phi, Q, config):
    """kernel_angle's dense route: every singular value of the section."""
    s = singular_values(phi, Q.degree)
    cut = numerical_rank(s, config.rank_tol)
    if s.size - cut != Q.size:
        return np.pi / 2
    tq = apply_symbol(phi, Q, Q.degree).matrix
    return float(np.arcsin(min(1.0, np.linalg.norm(tq, 2) / s[cut - 1])))


@pytest.fixture
def count_route(monkeypatch):
    """What each call of kernel_angle's count route returned."""
    seen = []
    certify = toeplitz._certified_angle

    def spy(*args):
        seen.append(certify(*args))
        return seen[-1]

    monkeypatch.setattr(toeplitz, "_certified_angle", spy)
    return seen


@pytest.fixture
def products(monkeypatch):
    """The degree of each product T_phi Q that kernel_angle forms."""
    seen = []

    def spy(*args):
        seen.append(args[2])
        return apply_symbol(*args)

    monkeypatch.setattr(toeplitz, "apply_symbol", spy)
    return seen


class TestCrossCheck:
    @pytest.mark.parametrize("name", ["flagship", "matrix-recipe"])
    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("frac", [0.25, 0.5, 1, 2])
    def test_bound_never_below_the_angle(self, name, n, frac):
        phi, G, U, config = cross_check_case(name, n)
        M = int(n * frac)
        bound = kernel_angle(phi, gk_basis(G, U, M, config), config)
        assert 0 <= bound <= np.pi / 2
        angle = oracle_angle(phi, G, U, M, config)
        assert angle <= bound * (1 + 1e-10) + 1e-13
        if angle > 1e-8:  # a resolved angle: the bound is tight on these
            assert bound <= angle * (1 + 1e-6)

    def test_dimension_mismatch_reads_right_angle(self, products):
        G, U = lin_diag_G(), MatrixSymbol.monomial(1, m=2)
        phi = toeplitz_symbol(G, U, config=CFG)
        for M in (N, 2 * N):
            assert kernel_angle(phi, gk_basis(G, U, M, CFG), CFG) == np.pi / 2
            assert oracle_angle(phi, G, U, M, CFG) == np.pi / 2
        assert products == []  # the pi/2 reading never forms T_phi Q

    @pytest.mark.parametrize("name", ["flagship", "matrix-recipe"])
    @pytest.mark.parametrize("M", [512, 1024])
    def test_large_sections_are_certified_by_counts(self, name, M, count_route):
        phi, G, U, config = cross_check_case(name, M // 2)
        Q = gk_basis(G, U, M, config)
        count_route.clear()  # the construction's own cross-checks
        angle = kernel_angle(phi, Q, config)
        assert len(count_route) == 1 and count_route[0] == angle
        dense = dense_angle(phi, Q, config)
        assert 0 < dense < np.pi / 2
        assert dense <= angle <= 2.25 * dense

    def test_declined_count_forms_the_product_once(self, count_route, products):
        # e0 lies far from the flagship kernel at M = 1024, so the count
        # certifies nothing and the dense route reads the same ||T_phi Q||
        phi, _, _, config = cross_check_case("flagship", 512)
        Q = SubspaceBasis(1, 1024, np.eye(1025, 1))
        count_route.clear()
        products.clear()  # the construction's own cross-checks
        angle = kernel_angle(phi, Q, config)
        assert count_route == [None] and products == [1024]
        assert angle == dense_angle(phi, Q, config) > 0.1

    @pytest.mark.parametrize("name, n, degrees, counted", [
        ("flagship", 512, (512, 1024), 2),
        ("matrix-recipe", 256, (256, 512), 2),
        # the recipe's band spans 66 degrees, past the low rungs' sections:
        # those take the dense route, the high rungs count
        ("matrix-recipe", 256, (16, 32, 64, 128, 256, 512), 2),
        # one-column pieces: every degree takes the dense route
        ("lin-diag", 512, (512, 1024), 0),
    ])
    def test_joint_angles_are_the_single_calls(self, name, n, degrees, counted,
                                               count_route):
        if name == "lin-diag":
            config = ToleranceConfig().with_degree(n)
            G, U = lin_diag_G(), MatrixSymbol.monomial(1, m=2)
            phi = toeplitz_symbol(G, U, config)
        else:
            phi, G, U, config = cross_check_case(name, n)
        bases = [gk_basis(G, U, M, config) for M in degrees]
        count_route.clear()  # the construction's own cross-checks
        joint = kernel_angles(phi, bases, config)
        assert len(count_route) == counted
        single = [kernel_angles(phi, (Q,), config)[0] for Q in bases]
        assert np.array(joint).tobytes() == np.array(single).tobytes()
        # deepest first: a shallower section's runs are shorter than the
        # walks its deeper neighbours left
        backward = kernel_angles(phi, bases[::-1], config)
        assert np.array(backward).tobytes() == np.array(single[::-1]).tobytes()

    def test_joint_count_factors_shared_pivots_once(self, monkeypatch):
        # the flagship's sections at 512 and 1024 share their leading Gram
        # blocks, so the pivots over them are factored once for both
        phi, G, U, config = cross_check_case("flagship", 512)
        bases = [gk_basis(G, U, M, config) for M in (512, 1024)]
        solves = []
        solve = np.linalg.solve

        def spy(a, b):
            solves.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        kernel_angles(phi, bases, config)
        joint = len(solves)
        for Q in bases:
            kernel_angles(phi, (Q,), config)
        assert 0 < joint < len(solves) - joint

    def test_small_and_split_sections_take_the_dense_route(self, count_route, capsys):
        classify_kernel(lin_diag_G(), MatrixSymbol.monomial(1, m=2), 512,
                        ToleranceConfig().with_degree(512))
        embed_rect(column_G(), MatrixSymbol.monomial(2), 256,
                   ToleranceConfig().with_degree(256))
        assert main(["examples", "--degree", "64"]) == 0
        assert capsys.readouterr().out
        assert count_route == []

    @pytest.mark.parametrize("M", [64, 1024])
    def test_dense_route_reads_the_pieces_once(self, M, count_route, monkeypatch):
        G, U = lin_diag_G(), MatrixSymbol.monomial(1, m=2)
        phi = toeplitz_symbol(G, U, CFG)
        Q = gk_basis(G, U, M, CFG)
        calls = []
        pieces = toeplitz._pieces

        def spy(phi, n):
            calls.append(n)
            return pieces(phi, n)

        monkeypatch.setattr(toeplitz, "_pieces", spy)
        kernel_angle(phi, Q, CFG)
        assert calls == [M] and count_route == []

    def test_count_route_fills_no_section(self):
        # flagship at M = 4096: the dense section is 134 MB, the Gram blocks
        # the count reads about 6 MB
        phi, G, U, config = cross_check_case("flagship", 256)
        Q = gk_basis(G, U, 4096, config)
        tracemalloc.start()
        try:
            angle = kernel_angle(phi, Q, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert angle < ANGLE_TOL
        assert peak < 20e6

    @pytest.mark.parametrize("n", [128, 256])
    def test_construct_symbol_carries_no_dust(self, n):
        # the recipe's symbol keeps exactly the degrees of the classified
        # one, so its sections split into the same two halves
        config = ToleranceConfig().with_degree(n)
        U = MatrixSymbol.monomial(1)
        built = construct_kernel(g_poisson(n), U, n, config).phi
        classified = classify_kernel(g_poisson_double(n), U, n, config).symbol

        def degrees(phi):
            live = np.any(phi.coeffs != 0, axis=(1, 2))
            return set((phi.min_deg + np.flatnonzero(live)).tolist())

        assert degrees(built) == degrees(classified)
        assert len(section_pieces(built, 2 * n)) == 2

    def test_pipeline_pieces_are_the_components(self, monkeypatch):
        # on every symbol the pipelines read, the pieces read from the
        # symbol's degrees are exactly the components of the section's
        # nonzero entries: no piece is a coarser direct sum, so no SVD grows
        seen = {}
        pieces = toeplitz._pieces

        def spy(phi, n):
            seen[phi.min_deg, phi.coeffs.tobytes(), n] = phi, n
            return pieces(phi, n)

        monkeypatch.setattr(toeplitz, "_pieces", spy)
        z = MatrixSymbol.monomial(1)
        for n in (64, 128, 256, 512):
            config = ToleranceConfig().with_degree(n)
            classify_kernel(g_poisson_double(n), z, n, config)
            construct_kernel(g_poisson(n), z, n, config)
        config = ToleranceConfig().with_degree(64)
        construct_kernel(*matrix_recipe(), 64, config)
        lin = classify_kernel(lin_diag_G(), MatrixSymbol.monomial(1, m=2), 64, config)
        embed_rect(column_G(), MatrixSymbol.monomial(2), 64, config)
        monkeypatch.undo()
        degrees = {n for _, n in seen.values()}
        assert {16, 32, 64, 128, 512, 1024} <= degrees  # ladder, N and 2N
        cases = [*seen.values(), (adjoint_flip(lin.symbol), 64),
                 (adjoint_flip(lin.symbol), 128)]
        for phi, n in cases:
            want = component_pieces(build_toeplitz(phi, n).matrix)
            assert set(section_pieces(phi, n)) == want

    def test_recipe_angle_holds_no_edge_arrays(self):
        # the recipe's section at M = 2048 is one piece; telling so takes
        # no per-entry arrays, and the count route reads band-wide blocks
        phi, G, U, config = cross_check_case("matrix-recipe", 256)
        Q = gk_basis(G, U, 2048, config)
        tracemalloc.start()
        try:
            kernel_angle(phi, Q, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_cross_check_fills_no_section(self):
        # linear-diagonal at N = 512: one dense section at 2N is 67 MB, but
        # the cross-check reads its singular values from the symbol
        n = 512
        tracemalloc.start()
        try:
            rep = classify_kernel(lin_diag_G(), MatrixSymbol.monomial(1, m=2), n,
                                  ToleranceConfig().with_degree(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.final == "not-kernel"
        assert peak < 20e6


class TestRebuiltPairs:
    def test_scalar_rebuild_stays_special(self):
        b0 = MatrixSymbol.scalar([0, 0.5])
        rebuilt = pair_from_B(symbol_mul(MatrixSymbol.monomial(1), b0), N)
        assert rebuilt.special == "special"
        assert rebuilt.mass_gap < 1e-7
        assert (rebuilt.A
                - MatrixSymbol.constant(np.array([[ROOT3 / 2]]))).norm_l2() < 1e-8

    def test_g0_prime_prefix_is_the_degree_N_build(self):
        # the rigidity ladder reads degrees <= N of the depth-2N G0'
        b0 = MatrixSymbol.scalar([0.0, 0.5, 0.25])
        a = MatrixSymbol.scalar([0.6, -0.2, 0.1])
        deep = _g0_prime(b0, a, N).truncate(0, N)
        eye = MatrixSymbol.identity(1)
        direct = symbol_mul(a, series_inverse(eye - b0, N)).truncate(0, N)
        assert deep.min_deg == direct.min_deg
        assert np.array_equal(deep.coeffs, direct.coeffs)

    def test_matrix_rebuild_stays_special(self):
        B = symbol_mul(matrix_recipe()[1], half_signature())
        rebuilt = pair_from_B(B, N)
        assert rebuilt.special == "special"
        assert rebuilt.mass_gap < 1e-7
        gap, verdict = special_test(B,
                                    MatrixSymbol.constant(ROOT3 / 2 * np.eye(2)),
                                    N, CFG)
        assert verdict == "special" and gap < 1e-7


def _assert_same(a, b):
    """a and b carry the same verdicts, bitwise-equal floats and arrays."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, (float, np.ndarray)):
        assert np.array_equal(a, b, equal_nan=True)
    else:
        assert a == b


@pytest.mark.parametrize("n", [200, 600])
@pytest.mark.parametrize("run", [
    lambda n, cfg: classify_kernel(g_poisson_double(n), MatrixSymbol.monomial(1),
                                   n, cfg),
    lambda n, cfg: construct_kernel(g_poisson(n), MatrixSymbol.monomial(1), n,
                                    cfg),
    lambda n, cfg: embed_rect(column_G(), MatrixSymbol.monomial(2), n, cfg),
], ids=["classify", "construct", "embed"])
def test_pipelines_fit_the_grid_to_the_degree(run, n):
    # the default grid (512) resolves degrees up to 127; past that the
    # pipelines run on the smallest power of two >= 4(n+1)
    K = {200: 1024, 600: 4096}[n]
    _assert_same(run(n, CFG), run(n, ToleranceConfig(grid_size=K)))


@pytest.mark.parametrize("run", [
    lambda cfg: classify_kernel(g_poisson_double(600), MatrixSymbol.monomial(1),
                                16, cfg, (4, 8, 16)),
    lambda cfg: construct_kernel(g_poisson(600), MatrixSymbol.monomial(1), 16,
                                 cfg, (4, 8, 16)),
], ids=["classify", "construct"])
def test_pipelines_fit_the_grid_to_an_input_above_N(run):
    # a degree-600 input needs 4096 points at N = 16, where with_degree(16)
    # alone would keep the default 512
    _assert_same(run(CFG), run(ToleranceConfig(grid_size=4096)))


@pytest.mark.parametrize("name", [name for name, _ in _pair_fixtures()])
def test_pair_steps_fit_the_grid_to_the_degree(name):
    # A has degree 600, which the default grid (512) cannot sample
    B = dict(_pair_fixtures())[name]
    fitted = ToleranceConfig(grid_size=4096)
    pair = pair_from_B(B, 600, CFG)
    _assert_same(pair, pair_from_B(B, 600, fitted))
    _assert_same(special_test(B, pair.A, 600, CFG),
                 special_test(B, pair.A, 600, fitted))


def _verdicts(rep):
    return rep.final, rep.divisibility, rep.special, rep.rigidity


@pytest.mark.parametrize("n", [32, 64, 128])
def test_grid_sets_resolution_not_the_verdict(n):
    # a grid finer than the smallest alias-free one changes the sampling,
    # not the truncation, so every sub-verdict must stay where it was
    K = ToleranceConfig(8).with_degree(n).grid_size
    grids = [ToleranceConfig(grid_size=k) for k in (K, 2 * K, 4 * K)]
    ladder = (n // 4, n // 2, n)
    recipe = construct_kernel(*matrix_recipe(), n, grids[0], ladder)
    cases = [(g_poisson_double(n), MatrixSymbol.monomial(1)),
             (lin_diag_G(), MatrixSymbol.monomial(1, 2)),
             (recipe.G, matrix_recipe()[1])]
    for G, U in cases:
        seen = {_verdicts(classify_kernel(G, U, n, cfg, ladder)) for cfg in grids}
        assert len(seen) == 1, seen
    seen = {_verdicts(embed_rect(column_G(), MatrixSymbol.monomial(2), n, cfg,
                                 ladder).classification) for cfg in grids}
    assert len(seen) == 1, seen


def _haar(rng, m):
    """Haar-random m x m unitary: QR of a complex Gaussian, R's phases moved to Q."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("n", [32, 64, 128])
def test_verdict_belongs_to_the_subspace(n):
    # for a constant unitary V, (G, U) -> (G V, V^H U V) leaves F = G K_U
    # as it is, since K_{V^H U V} = V^H K_U.  Rigidity is not compared: it
    # reads the square (G0' V)* (G0' V)^{-1}, not a unitary conjugate of
    # G0'* G0'^{-1}
    rng = np.random.default_rng(0)
    ladder = (n // 4, n // 2, n)
    seed, U_recipe = matrix_recipe()
    cases = [(lin_diag_G(), MatrixSymbol.monomial(1, 2)),
             (g_poisson_double(n), MatrixSymbol.monomial(1)),
             (construct_kernel(seed, U_recipe, n, CFG, ladder).G, U_recipe)]
    for G, U in cases:
        want = _verdicts(classify_kernel(G, U, n, CFG, ladder))[:3]
        for _ in range(5):
            V = _haar(rng, G.cols)
            GV = symbol_mul(G, MatrixSymbol.constant(V))
            UV = symbol_mul(MatrixSymbol.constant(V.conj().T),
                            symbol_mul(U, MatrixSymbol.constant(V)))
            assert _verdicts(classify_kernel(GV, UV, n, CFG, ladder))[:3] == want


# -- rectangular embedding ----------------------------------------------------------


def _off_span_defect(phi, theta0):
    """How far phi is from the identity on the orthogonal complement of
    theta0's range: phi P = P phi = P, with P the projector onto it."""
    P = MatrixSymbol.constant(np.eye(theta0.shape[0]) - theta0 @ theta0.conj().T)
    return max((symbol_mul(phi, P) - P).norm_l2(), (symbol_mul(P, phi) - P).norm_l2())


class TestEmbedding:
    def test_column_fixture(self):
        emb = embed_rect(column_G(), MatrixSymbol.monomial(2), N, CFG)
        assert emb.classification.final == "is-kernel"
        assert emb.ambient_angle < 1e-8
        t0 = shift_span(column_G(), CFG).theta0
        assert np.linalg.norm(t0 - np.eye(2)[:, :1]) < 1e-12
        assert _off_span_defect(emb.phi, t0) < 1e-12
        want_arr = np.zeros((3, 2, 2), complex)
        want_arr[0, 0, 0] = 1.0
        want_arr[2, 1, 1] = 1.0
        assert (emb.phi.truncate(-6, 6)
                - MatrixSymbol(2, 2, -2, want_arr)).norm_l2() < 1e-10

    def test_column_fixture_kernel_shape(self):
        # ambient kernel is {(a + b z, 0)}: first channel up to degree 1
        emb = embed_rect(column_G(), MatrixSymbol.monomial(2), N, CFG)
        ker = kernel_basis(build_toeplitz(emb.phi, 16), CFG)
        assert ker.size == 2
        vec = ker.matrix.reshape(17, 2, ker.size)  # (degree, channel, element)
        assert np.max(np.abs(vec[:, 1])) < 1e-8
        assert np.max(np.abs(vec[2:, 0])) < 1e-8

    def test_flagship_channel(self):
        arr = np.zeros((N + 1, 2, 1), complex)
        arr[:, 0, 0] = g_poisson_double(N).coeffs[:, 0, 0]
        emb = embed_rect(MatrixSymbol(2, 1, 0, arr), MatrixSymbol.monomial(1),
                         N, CFG)
        assert emb.classification.final == "is-kernel"
        assert emb.ambient_angle < 1e-5
        ker = kernel_basis(build_toeplitz(emb.phi, N), CFG)
        assert ker.size == 1

    def test_rotated_column_symbol(self):
        # G = Q (1, 0)^T: the ambient symbol is Q diag(zbar^2, 1) Q^H
        c, s = np.cos(0.7), np.sin(0.7) * np.exp(0.3j)
        Q = np.array([[c, -np.conj(s)], [s, c]])
        G = symbol_mul(MatrixSymbol.constant(Q), column_G())
        emb = embed_rect(G, MatrixSymbol.monomial(2), N, CFG)
        assert emb.classification.final == "is-kernel"
        assert emb.ambient_angle < 1e-8
        want = np.zeros((3, 2, 2), complex)
        want[0] = Q @ np.diag([1.0, 0.0]) @ Q.conj().T
        want[2] = Q @ np.diag([0.0, 1.0]) @ Q.conj().T
        assert (emb.phi.truncate(-6, 6)
                - MatrixSymbol(2, 2, -2, want)).norm_l2() < 1e-10

    @pytest.mark.parametrize("r", [1, 2])
    def test_constant_columns_in_three_channels(self, r):
        # G = first r columns of a random unitary: F is the constants G C^r,
        # the kernel of the ambient symbol Theta0 zbar Theta0^H + P_complement
        rng = np.random.default_rng(5 + r)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        G = MatrixSymbol.constant(Q[:, :r])
        emb = embed_rect(G, MatrixSymbol.monomial(1, m=r), 16, CFG)
        assert emb.classification.final == "is-kernel"
        assert emb.ambient_angle <= 1e-12
        t0 = shift_span(G, CFG).theta0
        assert np.linalg.norm(t0.conj().T @ t0 - np.eye(r)) < 1e-12
        # Theta0 spans the columns of G, so its complement is orthogonal to them
        assert np.linalg.norm(Q[:, :r] - t0 @ (t0.conj().T @ Q[:, :r])) < 1e-12
        assert _off_span_defect(emb.phi, t0) < 1e-12

    def test_square_rejected(self):
        with pytest.raises(ValueError):
            embed_rect(lin_diag_G(), MatrixSymbol.monomial(1, m=2), 16, CFG)

    def test_rank_mismatch_rejected(self):
        # U must be r x r with r = G.cols
        with pytest.raises(ValueError, match="U is 2 x 2 but G is 2 x 1: "
                                             "U must be 1 x 1"):
            embed_rect(column_G(), MatrixSymbol.monomial(2, m=2), 16, CFG)

    def test_rank_deficient_span_is_not_outer(self):
        # both columns of G are e_1, so its shift span has rank 1 < r = 2 and
        # shift_span reads indeterminate, which "G outer" already rejects
        G = MatrixSymbol.constant(np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(PreconditionError) as info:
            embed_rect(G, MatrixSymbol.monomial(1, m=2), 16, CFG, ladder=(4, 8, 16))
        assert info.value.check == "G outer"


# -- probes of the contracted isometry ----------------------------------------------


class TestIsometryProbes:
    def test_targets_rebuilt_from_image_columns(self):
        # images of G z^j under T_{I-B} T_{G*} span enough to hit every A p
        G = g_poisson_double(N)
        B = MatrixSymbol.scalar([0, 0, 0.5])
        A = MatrixSymbol.constant(np.array([[ROOT3 / 2]]))
        cols = []
        for j in range(9):
            gj = apply_symbol(G, column([0.0] * j + [1.0]), 2 * N)
            cols.append(window(contracted_lambda(G, B, gj, 2 * N), N))
        M = np.stack(cols, axis=1)
        rng = np.random.default_rng(11)
        targets = [column([0.0] * k + [1.0]) for k in range(5)]
        targets += [column(rng.standard_normal(6) + 1j * rng.standard_normal(6))
                    for _ in range(4)]
        for p in targets:
            t = apply_symbol(A, p, N).matrix[:, 0]
            sol, *_ = np.linalg.lstsq(M, t, rcond=None)
            assert np.linalg.norm(M @ sol - t) < 1e-8 * max(1.0, np.linalg.norm(t))

    def test_quadratic_target_coefficients(self):
        # hand solve: Lambda(G) = 1, Lambda(Gz) = z, Lambda(Gz^2) = 1/2 + 3z^2/4
        G = g_poisson_double(N)
        B = MatrixSymbol.scalar([0, 0, 0.5])
        cols = []
        for j in range(3):
            gj = apply_symbol(G, column([0.0] * j + [1.0]), 2 * N)
            cols.append(window(contracted_lambda(G, B, gj, 2 * N), N))
        M = np.stack(cols, axis=1)
        target = np.zeros(N + 1, complex)
        target[2] = ROOT3 / 2
        sol, *_ = np.linalg.lstsq(M, target, rcond=None)
        want = np.array([-1 / ROOT3, 0.0, 2 / ROOT3])
        assert np.max(np.abs(sol - want)) < 1e-8

    def test_shifted_range_lands_in_shifted_image(self):
        # probes through G*^{-1} U G map into U A' H^2 = z H^2
        G = g_poisson_double(N)
        B = MatrixSymbol.scalar([0, 0, 0.5])
        sg = sample_symbol(G, 512)
        su = sample_symbol(MatrixSymbol.monomial(1), 512)
        psi_samples = np.einsum(
            "kij,kjl->kil", np.linalg.inv(sg.conj().transpose(0, 2, 1)),
            np.einsum("kij,kjl->kil", su, sg))
        psi = symbol_from_samples(psi_samples, -256, 255).compress(1e-13)
        rng = np.random.default_rng(3)
        probes = [column([1.0]), column([0, 1.0]), column([0, 0, 1.0]),
                  column(rng.standard_normal(5))]
        for p in probes:
            tp = apply_symbol(psi, p, 2 * N)
            x = contracted_lambda(G, B, tp, 2 * N)
            assert abs(x.matrix[0, 0]) < 1e-7 * max(1.0, np.linalg.norm(x.matrix))

    def test_unit_probe_image_value(self):
        G = g_poisson_double(N)
        B = MatrixSymbol.scalar([0, 0, 0.5])
        sg = sample_symbol(G, 512)
        su = sample_symbol(MatrixSymbol.monomial(1), 512)
        psi = symbol_from_samples(np.einsum(
            "kij,kjl->kil", np.linalg.inv(sg.conj().transpose(0, 2, 1)),
            np.einsum("kij,kjl->kil", su, sg)), -256, 255).compress(1e-13)
        x = contracted_lambda(G, B, apply_symbol(psi, column([1.0]), 2 * N), 2 * N)
        v = window(x, 8)
        assert abs(v[1] - ROOT3 / 2) < 1e-6
        v[1] = 0.0
        assert np.linalg.norm(v) < 1e-6
