"""Model spaces, the Sarason construction, and the isometry criterion.

Oracle values are computed first by independent means (closed-form series,
direct substitution, exact coefficient arithmetic) and frozen into the
assertions.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toepkern.symbols import (DEFAULT_CONFIG, HardyElement, MatrixSymbol,
                              ToleranceConfig, adjoint_flip, apply_symbol,
                              hardy_inner, riesz_project, symbol_mul)
from toepkern.toeplitz import SubspaceBasis, subspace_angle
from toepkern.factor import PreconditionError
from toepkern.fixtures import (g_one_plus_z, g_poisson, model_inner_det_z,
                               sarason_B_closed_form, sqrt_diag_G)
from toepkern.nearly import (DbrContext, HerglotzData, counterexample_UBU,
                             dbr_kernel, divide_by_G, extract_W,
                             is_nearly_invariant, isometry_defect,
                             model_space_basis, sarason_B,
                             sarason_equivalence, verify_lemma31)


# -- oracles -----------------------------------------------------------------------

def szego_inner_oracle(w, u, zz, v, B_at):
    """Closed-form right side of the kernel identity, no truncation."""
    m = len(u)
    eye = np.eye(m)
    a = np.linalg.solve(eye - B_at(w).conj().T, np.asarray(u, complex))
    b = np.linalg.solve(eye - B_at(zz).conj().T, np.asarray(v, complex))
    kern = (eye - B_at(zz) @ B_at(w).conj().T) / (1 - np.conj(w) * zz)
    return complex(np.vdot(b, kern @ a))


def det2_degree(U: MatrixSymbol) -> int:
    """Degree of the determinant of a 2x2 polynomial symbol (exact arithmetic)."""
    def entry(i, j):
        return MatrixSymbol(1, 1, U.min_deg, U.coeffs[:, i:i + 1, j:j + 1])
    det = symbol_mul(entry(0, 0), entry(1, 1)) - symbol_mul(entry(0, 1), entry(1, 0))
    return det.compress(1e-12).max_deg


def normalized_columns(G: MatrixSymbol) -> MatrixSymbol:
    arr = np.array(G.coeffs)
    for j in range(G.cols):
        arr[:, :, j] /= np.linalg.norm(arr[:, :, j])
    return MatrixSymbol(G.rows, G.cols, G.min_deg, arr)


def columns_as_basis(G: MatrixSymbol) -> SubspaceBasis:
    els = tuple(HardyElement(G.rows, np.array(G.coeffs[:, :, j]))
                for j in range(G.cols))
    return SubspaceBasis(G.rows, G.max_deg, els)


def membership_defect(U: MatrixSymbol, basis: SubspaceBasis) -> float:
    """max over basis elements of the analytic mass of U* f (0 inside K_U)."""
    worst = 0.0
    for f in basis.elements:
        prod = symbol_mul(adjoint_flip(U), f.as_symbol())
        worst = max(worst, riesz_project(prod, "plus").norm_l2())
    return worst


# -- model spaces -------------------------------------------------------------------

class TestModelSpace:
    def test_scalar_z2_is_low_monomials(self):
        basis = model_space_basis(MatrixSymbol.monomial(2), 16)
        assert basis.size == 2
        monos = SubspaceBasis(1, basis.degree, (
            HardyElement.scalar([1.0] + [0.0] * basis.degree),
            HardyElement.scalar([0.0, 1.0] + [0.0] * (basis.degree - 1))))
        assert subspace_angle(basis, monos) < 1e-12

    def test_z_times_identity(self):
        basis = model_space_basis(MatrixSymbol.monomial(1, m=2), 12)
        assert basis.size == 2
        evals = np.stack([e.coeffs[0] for e in basis.elements], axis=1)
        assert np.linalg.norm(evals.conj().T @ evals - np.eye(2)) < 1e-12
        assert all(np.linalg.norm(e.coeffs[1:]) < 1e-12 for e in basis.elements)

    def test_garcia_model_space_dimension_three(self):
        U = symbol_mul(MatrixSymbol.monomial(1, m=2), model_inner_det_z())
        assert det2_degree(U) == 3
        basis = model_space_basis(U, 24)
        assert basis.size == 3
        assert np.linalg.norm(basis.gram() - np.eye(3)) < 1e-10
        assert membership_defect(U, basis) < 1e-10

    def test_small_degree_raises(self):
        with pytest.raises(ValueError):
            model_space_basis(MatrixSymbol.monomial(3), 2)

    def test_non_inner_rejected(self):
        with pytest.raises(PreconditionError):
            model_space_basis(MatrixSymbol.scalar([0.5, 0.5]), 8)

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_monomial_dimension_matches_winding(self, d):
        basis = model_space_basis(MatrixSymbol.monomial(d), 12)
        assert basis.size == d
        assert membership_defect(MatrixSymbol.monomial(d), basis) < 1e-10


def model_space_oracle(U: MatrixSymbol, N: int) -> SubspaceBasis:
    """K_U within degrees <= N - deg U from the SVD over the whole window."""
    m, M = U.rows, N - U.max_deg
    dim = m * (M + 1)
    shifts = np.zeros((dim, dim), complex)
    for k in range(M + 1):
        for t in range(U.coeffs.shape[0]):
            deg = U.min_deg + t + k
            if 0 <= deg <= M:
                shifts[deg * m:(deg + 1) * m, k * m:(k + 1) * m] = U.coeffs[t]
    _, s, vh = np.linalg.svd(shifts.conj().T)
    rank = int(np.sum(s > DEFAULT_CONFIG.rank_tol * s[0]))
    null = vh[rank:].conj().T
    return SubspaceBasis(m, M, tuple(HardyElement.from_vector(null[:, j], m)
                                     for j in range(null.shape[1])))


def span_distance(A: SubspaceBasis, B: SubspaceBasis) -> float:
    """Sine of the largest principal angle; free of the arccos floor near 0."""
    qa, qb = A.matrix(), B.matrix()
    return float(np.linalg.norm(qb - qa @ (qa.conj().T @ qb), 2))


@pytest.mark.parametrize("U", [
    MatrixSymbol.monomial(1), MatrixSymbol.monomial(2),
    MatrixSymbol.monomial(3), MatrixSymbol.monomial(1, m=2),
    MatrixSymbol.diag(MatrixSymbol.monomial(1), MatrixSymbol.monomial(3)),
    symbol_mul(MatrixSymbol.monomial(1, m=2), model_inner_det_z()),
    MatrixSymbol.diag(MatrixSymbol.monomial(1), MatrixSymbol.scalar([0.0])),
], ids=["z", "z2", "z3", "zI2", "diag-z-z3", "z-garcia", "rank-deficient"])
def test_windowed_model_space_matches_full_window(U):
    d = U.max_deg
    for N in range(d, 4 * d + 1):
        basis, oracle = model_space_basis(U, N), model_space_oracle(U, N)
        assert (basis.size, basis.degree) == (oracle.size, oracle.degree)
        assert span_distance(basis, oracle) < 1e-12


class TestNearlyInvariant:
    def test_shifted_line_is_not(self):
        f = HardyElement(2, np.array([[0, 0], [1, 0]], complex))
        assert not is_nearly_invariant(SubspaceBasis(2, 1, (f,)))

    def test_half_power_span_is(self):
        F = columns_as_basis(normalized_columns(sqrt_diag_G(32)))
        assert is_nearly_invariant(F)

    def test_g_times_model_space_is(self):
        g = g_one_plus_z()
        basis = model_space_basis(MatrixSymbol.monomial(2), 16)
        deg = basis.degree + 1
        images = [apply_symbol(g, f, deg) for f in basis.elements]
        cols = np.stack([f.to_vector(deg) for f in images], axis=1)
        q, _ = np.linalg.qr(cols)
        span = SubspaceBasis(1, deg, tuple(
            HardyElement.from_vector(q[:, j], 1) for j in range(q.shape[1])))
        assert is_nearly_invariant(span)

    def test_model_space_itself_is(self):
        basis = model_space_basis(MatrixSymbol.monomial(3), 16)
        assert is_nearly_invariant(basis)


class TestExtractW:
    def test_column_plus_shift(self):
        els = (HardyElement(2, np.array([[1, 0], [0, 0]], complex)),
               HardyElement(2, np.array([[0, 0], [1, 0]], complex)))
        G, r = extract_W(SubspaceBasis(2, 1, els))
        assert r == 1
        assert G.rows == 2 and G.cols == 1
        assert np.allclose(G.coeff(0), [[1], [0]])
        assert G.max_deg == 0

    def test_scalar_model_space_gives_constants(self):
        basis = model_space_basis(MatrixSymbol.monomial(2), 12)
        G, r = extract_W(basis)
        assert r == 1
        assert abs(abs(G.coeff(0)[0, 0]) - 1.0) < 1e-12
        assert G.compress(1e-12).max_deg == 0

    def test_half_power_space_recovers_both_columns(self):
        Gn = normalized_columns(sqrt_diag_G(32))
        W, r = extract_W(columns_as_basis(Gn))
        assert r == 2
        off = np.linalg.norm(W.coeffs[:, 0, 1]) + np.linalg.norm(W.coeffs[:, 1, 0])
        assert off < 1e-10
        for j in range(2):
            got = W.coeffs[:, j, j]
            want = Gn.coeffs[:W.coeffs.shape[0], j, j]
            assert abs(abs(np.vdot(got, want)) - 1.0) < 1e-10

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            extract_W(SubspaceBasis(1, 0, ()))


# -- the Sarason construction -------------------------------------------------------

class TestSarasonB:
    def test_identity_gives_zero(self):
        data, B = sarason_B(MatrixSymbol.identity(2), 16)
        assert B.norm_l2() < 1e-14
        assert np.linalg.norm(data.F.coeff(0) - np.eye(2)) < 1e-14
        assert np.linalg.norm(data.V) < 1e-14

    def test_one_plus_z_dyadic_series(self):
        data, B = sarason_B(g_one_plus_z(), 40)
        want = sarason_B_closed_form(40)
        diff = (B - want).norm_l2()
        assert diff < 1e-12
        assert np.linalg.norm(data.F.coeff(1) - np.array([[1.0]])) < 1e-14
        assert data.f0_deviation < 1e-14

    def test_b_vanishes_at_zero(self):
        _, B = sarason_B(g_poisson(64), 48)
        assert np.linalg.norm(B.coeff(0)) < 1e-12

    def test_inner_factor_invisible(self):
        g = g_one_plus_z()
        shifted = symbol_mul(MatrixSymbol.monomial(1), g)
        data_a, B_a = sarason_B(g, 32)
        data_b, B_b = sarason_B(shifted, 32)
        assert (B_a - B_b).norm_l2() < 1e-13
        assert (data_a.F - data_b.F).norm_l2() < 1e-13

    def test_matrix_inner_times_identity(self):
        U = model_inner_det_z()
        data, B = sarason_B(U, 24)
        assert B.norm_l2() < 1e-12
        assert np.linalg.norm(data.F.coeff(0) - np.eye(2)) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(PreconditionError):
            sarason_B(MatrixSymbol.scalar([1.0, 1.0]), 16)

    def test_herglotz_data_hermitian_split(self):
        data, _ = sarason_B(g_poisson(64), 32)
        f0 = data.F.coeff(0)
        assert np.linalg.norm((f0 - 1j * data.V) - (f0 - 1j * data.V).conj().T) < 1e-13


class TestDbrKernel:
    def test_zero_symbol_is_szego(self):
        cfg = ToleranceConfig(trunc_degree=24)
        k = dbr_kernel(MatrixSymbol.zero(1, 1), 0.3, [1.0], cfg)
        want = np.power(0.3, np.arange(25))
        assert np.allclose(k.coeffs[:, 0], want)

    def test_lambda_zero_constant(self):
        _, B = sarason_B(g_one_plus_z(), 32)
        k = dbr_kernel(B, 0.0, [1.0])
        assert abs(k.coeffs[0, 0] - 1.0) < 1e-12
        assert np.linalg.norm(k.coeffs[1:]) < 1e-12

    def test_dyadic_fixture_at_half(self):
        # B(1/2) = (1/2)/(2 + 1/2) = 1/5 by direct substitution
        B = sarason_B_closed_form(80)
        assert abs(B.eval_at(0.5)[0, 0] - 0.2) < 1e-14
        cfg = ToleranceConfig(trunc_degree=80)
        k = dbr_kernel(B, 0.5, [1.0], cfg)
        zs = [0.1, -0.3, 0.25j]
        for z in zs:
            want = (1 - B.eval_at(z)[0, 0] * np.conj(0.2)) / (1 - 0.5 * z)
            assert abs(k.eval_at(z)[0] - want) < 1e-12

    def test_disc_boundary_rejected(self):
        with pytest.raises(ValueError):
            dbr_kernel(MatrixSymbol.zero(1, 1), 1.0, [1.0])

    @given(st.integers(min_value=0, max_value=6),
           st.floats(min_value=-0.6, max_value=0.6),
           st.floats(min_value=-0.6, max_value=0.6))
    @settings(max_examples=25, deadline=None)
    def test_reproducing_property_b_zero(self, power, lr, li):
        lam = complex(lr, li)
        if abs(lam) >= 0.85:
            lam = 0.5 * lam
        cfg = ToleranceConfig(trunc_degree=64)
        k = dbr_kernel(MatrixSymbol.zero(1, 1), lam, [1.0], cfg)
        f = HardyElement.scalar([0.0] * power + [1.0])
        lhs = hardy_inner(f, k)
        assert abs(lhs - lam ** power) < 1e-10


class TestKernelIdentity:
    def test_identity_symbol_exact(self):
        rng = np.random.default_rng(11)
        pts = [(0.4 * rng.standard_normal() + 0.4j * rng.standard_normal(),
                rng.standard_normal(2),
                0.4 * rng.standard_normal() + 0.4j * rng.standard_normal(),
                rng.standard_normal(2)) for _ in range(8)]
        pts = [(w / max(1.0, 2 * abs(w)), u, z / max(1.0, 2 * abs(z)), v)
               for w, u, z, v in pts]
        res = verify_lemma31(MatrixSymbol.identity(2), MatrixSymbol.zero(2, 2), pts)
        assert res < 1e-12

    def test_one_plus_z_fixture(self):
        rng = np.random.default_rng(5)
        g = g_one_plus_z()
        cfg64 = ToleranceConfig(trunc_degree=64)
        _, B = sarason_B(g, 64, cfg64)
        pts = []
        for _ in range(16):
            w = 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
            z = 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
            pts.append((w, [1.0], z, [1.0]))
        res64 = verify_lemma31(g, B, pts, cfg64)
        assert res64 <= 1e-8
        cfg16 = ToleranceConfig(trunc_degree=16)
        res16 = verify_lemma31(g, B, pts, cfg16)
        assert res16 >= res64

    def test_matches_closed_form_oracle(self):
        g = g_one_plus_z()
        _, B = sarason_B(g, 64)
        w, zz = 0.2 + 0.1j, -0.15 + 0.05j
        pts = [(w, [1.0], zz, [1.0])]
        res = verify_lemma31(g, B, pts)
        lhs_direct = szego_inner_oracle(w, [1.0], zz, [1.0],
                                        lambda p: B.eval_at(p))
        kw = apply_symbol(g, HardyElement.scalar(
            np.power(np.conj(w), np.arange(65))), 64)
        kz = apply_symbol(g, HardyElement.scalar(
            np.power(np.conj(zz), np.arange(65))), 64)
        assert abs(abs(hardy_inner(kw, kz) - lhs_direct) - res) < 1e-12


# -- isometry and equivalence -------------------------------------------------------

class TestIsometry:
    def test_unit_fixture_isometric(self):
        assert isometry_defect(g_one_plus_z(), MatrixSymbol.monomial(1), 32) < 1e-10

    def test_gram_defect_half(self):
        d = isometry_defect(g_one_plus_z(), MatrixSymbol.monomial(2), 32)
        assert abs(d - 0.5) < 1e-12

    def test_identity_on_matrix_shift(self):
        d = isometry_defect(MatrixSymbol.identity(2),
                            MatrixSymbol.monomial(1, m=2), 16)
        assert d < 1e-13

    def test_explicit_gram_oracle(self):
        # images {g, gz} have Gram [[1, 1/2], [1/2, 1]]: <g, gz> = 1/2
        g = g_one_plus_z()
        f0 = apply_symbol(g, HardyElement.scalar([1.0]), 3)
        f1 = apply_symbol(g, HardyElement.scalar([0.0, 1.0]), 3)
        assert abs(hardy_inner(f0, f1) - 0.5) < 1e-14


class TestSarasonEquivalence:
    def test_divisible_case_holds(self):
        rep = sarason_equivalence(g_one_plus_z(), MatrixSymbol.monomial(1), 64)
        assert rep.verdict == "holds" and rep.passed
        assert rep.isometry_defect < 1e-10
        assert rep.divisibility_defect < 1e-10
        assert rep.annihilation_defect < 1e-10

    def test_square_shift_fails_all_three(self):
        rep = sarason_equivalence(g_one_plus_z(), MatrixSymbol.monomial(2), 64)
        assert rep.verdict == "fails" and not rep.passed
        assert rep.isometry_defect >= 0.1
        assert abs(rep.divisibility_defect - 0.5) < 1e-10
        assert abs(rep.annihilation_defect - 0.5) < 1e-10

    def test_trivial_matrix_case(self):
        rep = sarason_equivalence(MatrixSymbol.identity(2),
                                  MatrixSymbol.monomial(1, m=2), 32)
        assert rep.verdict == "holds"

    def test_poisson_fixture_both_polarities(self):
        g = g_poisson(64)
        assert sarason_equivalence(g, MatrixSymbol.monomial(1), 64).passed
        rep = sarason_equivalence(g, MatrixSymbol.monomial(2), 64)
        assert rep.verdict == "fails"


class TestDivision:
    def test_scalar_unit(self):
        g = g_one_plus_z()
        _, B = sarason_B(g, 64)
        f = apply_symbol(g, HardyElement.scalar([1.0]), 64)
        h = divide_by_G(f, g, B)
        assert abs(h.coeffs[0, 0] - 1.0) < 1e-12
        assert np.linalg.norm(h.coeffs[1:]) < 1e-12
        assert abs(h.norm() - f.norm()) < 1e-8

    def test_half_power_column(self):
        G = normalized_columns(sqrt_diag_G(48))
        _, B = sarason_B(G, 64)
        e2 = HardyElement(2, np.array([[0.0, 1.0]], complex))
        f = apply_symbol(G, e2, 64)
        h = divide_by_G(f, G, B)
        assert np.linalg.norm(h.coeffs[0] - np.array([0.0, 1.0])) < 1e-10
        assert np.linalg.norm(h.coeffs[1:]) < 1e-8

    def test_identity_is_identity_map(self):
        f = HardyElement(2, np.array([[1.0, 2.0], [0.5, 0.0]], complex))
        h = divide_by_G(f, MatrixSymbol.identity(2), MatrixSymbol.zero(2, 2))
        assert np.linalg.norm(h.to_vector(4) - f.to_vector(4)) < 1e-13

    def test_outside_range_raises(self):
        g = g_one_plus_z()
        _, B = sarason_B(g, 64)
        bad = HardyElement.scalar([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            divide_by_G(bad, g, B)

    def test_norm_preserved_on_model_combination(self):
        # |g|^2 = 1 + (z^2 + zbar^2)/2 gives B = z^2/(2 + z^2), divisible by
        # z^2, so division applies on all of g K_{z^2}
        g = MatrixSymbol.scalar(np.array([1.0, 0.0, 1.0]) / np.sqrt(2))
        _, B = sarason_B(g, 64)
        rep = sarason_equivalence(g, MatrixSymbol.monomial(2), 64)
        assert rep.passed
        k = HardyElement.scalar([0.6, 0.8])
        f = apply_symbol(g, k, 64)
        h = divide_by_G(f, g, B)
        assert np.linalg.norm(h.to_vector(1) - k.to_vector(1)) < 1e-10
        assert abs(h.norm() - f.norm()) < 1e-8

    def test_context_section_shape(self):
        g = g_one_plus_z()
        _, B = sarason_B(g, 16)
        ctx = DbrContext.build(g, B, 8)
        assert ctx.section.shape == (9, 9)


class TestCounterexample:
    def test_constant_half_mass(self):
        mass = counterexample_UBU(MatrixSymbol.monomial(1),
                                  MatrixSymbol.scalar([0.5]),
                                  MatrixSymbol.zero(1, 1))
        assert abs(mass - 0.5) < 1e-12

    def test_zero_contraction(self):
        mass = counterexample_UBU(MatrixSymbol.monomial(1),
                                  MatrixSymbol.zero(1, 1),
                                  MatrixSymbol.zero(1, 1))
        assert mass < 1e-14

    def test_analytic_twist_cancels(self):
        mass = counterexample_UBU(MatrixSymbol.monomial(1),
                                  MatrixSymbol.scalar([0.0, 0.5]),
                                  MatrixSymbol.zero(1, 1))
        assert mass < 1e-12

    def test_expansion_oracle(self):
        # U* B U for b1 = 1/2 is (1/2)[[Re z, Im z], [Im z, -Re z]]: each
        # entry carries a zbar coefficient of modulus 1/4, total mass 1/2
        U = model_inner_det_z()
        theta = MatrixSymbol.monomial(1)
        one = MatrixSymbol.identity(1)
        a = (one + theta).scale(0.5)
        b = (one - theta).scale(-0.5j)
        from toepkern.factor import garcia_inner
        Ug = garcia_inner(theta, a, b)
        B = MatrixSymbol.from_blocks(
            [[MatrixSymbol.scalar([0.5]), MatrixSymbol.zero(1, 1)],
             [MatrixSymbol.zero(1, 1), MatrixSymbol.scalar([-0.5])]])
        prod = symbol_mul(adjoint_flip(Ug), symbol_mul(B, Ug))
        neg = riesz_project(prod, "minus")
        assert abs(neg.norm_l2() - 0.5) < 1e-12
        assert np.allclose(np.abs(neg.coeff(-1)), 0.25 * np.ones((2, 2)))

    def test_expansion_rejected_above_one(self):
        with pytest.raises(PreconditionError):
            counterexample_UBU(MatrixSymbol.monomial(1),
                               MatrixSymbol.scalar([1.5]),
                               MatrixSymbol.zero(1, 1))
