"""Symbol-layer tests.

Independent oracles come first: exact Fraction convolution, long-division
series for the Cayley transform, and high-order quadrature for the Herglotz
integral. Library results are checked against these, never against
themselves.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toepkern
from toepkern import (
    MatrixSymbol,
    SubspaceBasis,
    ToleranceConfig,
    adjoint_flip,
    apply_symbol,
    cayley,
    grid_points,
    herglotz_taylor,
    riesz_project,
    sample_symbol,
    series_inverse,
    symbol_from_samples,
    symbol_mul,
)
from toepkern.symbols import _det, _eigvalsh, _inv, _norm2

from helpers import symbols_allclose


# -- independent oracles -----------------------------------------------------

def convolve_fraction_oracle(a_coeffs, b_coeffs):
    """Matrix Cauchy product over exact rationals; coeff lists of 2D tuples."""
    na, nb = len(a_coeffs), len(b_coeffs)
    p, q = len(a_coeffs[0]), len(b_coeffs[0][0])
    out = [[[Fraction(0) for _ in range(q)] for _ in range(p)]
           for _ in range(na + nb - 1)]
    for i in range(na):
        for j in range(nb):
            for r in range(p):
                for c in range(q):
                    s = Fraction(0)
                    for t in range(len(b_coeffs[0])):
                        s += a_coeffs[i][r][t] * b_coeffs[j][t][c]
                    out[i + j][r][c] += s
    return out


def cayley_long_division_oracle(num, den, n):
    """Taylor coefficients of num/den by long division over Fractions."""
    num = list(num) + [Fraction(0)] * n
    out = []
    for _ in range(n + 1):
        c = num[0] / den[0]
        out.append(c)
        num = [num[i] - c * (den[i] if i < len(den) else Fraction(0))
               for i in range(len(num))][1:] + [Fraction(0)]
    return out


def symbol_mul_loop_reference(a: MatrixSymbol, b: MatrixSymbol) -> np.ndarray:
    """The Cauchy product one degree of a at a time, each against all of b."""
    na, nb = a.coeffs.shape[0], b.coeffs.shape[0]
    out = np.zeros((na + nb - 1, a.rows, b.cols), complex)
    for i in range(na):
        out[i:i + nb] += np.matmul(a.coeffs[i], b.coeffs)
    return out


def moduli_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The loop-reference product of the entry moduli of two coefficient
    stacks: each output entry is the sum of the moduli of its terms."""
    return symbol_mul_loop_reference(MatrixSymbol(*a.shape[1:], 0, np.abs(a)),
                                     MatrixSymbol(*b.shape[1:], 0, np.abs(b))).real


def within_per_degree(got, want, scale, rtol):
    """Each degree's largest entry error is at most rtol times that degree's
    largest entry of scale, plus the smallest normal float: below it,
    gradual underflow rounds in absolute terms, and a geometric series
    decays into subnormals within a few hundred degrees."""
    err = np.abs(got - want).max(axis=(1, 2))
    return bool(np.all(err <= rtol * scale.max(axis=(1, 2)) + np.finfo(float).tiny))


def herglotz_quadrature_oracle(density: MatrixSymbol, z: complex, K: int = 4096):
    """F(z) = int (xi+z)/(xi-z) rho(xi) dm(xi) by offset-grid quadrature."""
    xi = grid_points(K)
    vals = sample_symbol(density, K)
    kernel = (xi + z) / (xi - z)
    return np.einsum("k,kij->ij", kernel, vals) / K


# -- strategies ---------------------------------------------------------------

small_int = st.integers(min_value=-3, max_value=3)


@st.composite
def int_symbols(draw, rows=None, cols=None, max_band=4):
    p = rows if rows is not None else draw(st.integers(1, 3))
    q = cols if cols is not None else draw(st.integers(1, 3))
    n = draw(st.integers(1, max_band))
    lo = draw(st.integers(-3, 2))
    re = draw(st.lists(st.lists(st.lists(small_int, min_size=q, max_size=q),
                                min_size=p, max_size=p), min_size=n, max_size=n))
    im = draw(st.lists(st.lists(st.lists(small_int, min_size=q, max_size=q),
                                min_size=p, max_size=p), min_size=n, max_size=n))
    arr = np.array(re, dtype=complex) + 1j * np.array(im, dtype=complex)
    return MatrixSymbol(p, q, lo, arr)


@st.composite
def chained_pair(draw):
    p, q, r = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return draw(int_symbols(rows=p, cols=q)), draw(int_symbols(rows=q, cols=r))


# -- convolution against the Fraction oracle ----------------------------------

def test_symbol_mul_matches_fraction_oracle():
    a = MatrixSymbol(2, 2, -1, np.array([[[1, 2], [0, -1]],
                                         [[3, 0], [1, 1]],
                                         [[0, 1], [-2, 2]]], dtype=complex))
    b = MatrixSymbol(2, 2, 1, np.array([[[2, -1], [1, 0]],
                                        [[0, 3], [1, -2]]], dtype=complex))
    prod = symbol_mul(a, b)
    a_frac = [[[Fraction(int(v.real)) for v in row] for row in mat] for mat in a.coeffs]
    b_frac = [[[Fraction(int(v.real)) for v in row] for row in mat] for mat in b.coeffs]
    want = convolve_fraction_oracle(a_frac, b_frac)
    assert prod.min_deg == 0
    for i, mat in enumerate(want):
        got = prod.coeffs[i]
        for r in range(2):
            for c in range(2):
                assert got[r, c] == complex(mat[r][c])


@given(chained_pair())
@settings(max_examples=60, deadline=None)
def test_symbol_mul_agrees_with_pointwise_product(pair):
    a, b = pair
    prod = symbol_mul(a, b)
    K = 64
    want = np.matmul(sample_symbol(a, K), sample_symbol(b, K))
    got = sample_symbol(prod, K)
    assert np.max(np.abs(want - got)) < 1e-10 * (1 + a.norm_l2() * b.norm_l2())


@st.composite
def long_band_pair(draw):
    # p x r times r x q with random complex bands of 1..300 degrees that
    # decay over nine decades, some entries identically zero
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p, r, q = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def band(rows, cols):
        n = draw(st.one_of(st.just(1), st.integers(1, 300)))
        c = rng.standard_normal((n, rows, cols, 2)) @ [1, 1j]
        c *= 10.0 ** (-9 * np.linspace(0, 1, n))[:, None, None]
        c *= rng.random((1, rows, cols)) < 0.8
        return MatrixSymbol(rows, cols, draw(st.integers(-300, 5)), c)

    return band(p, r), band(r, q)


@given(long_band_pair())
@settings(max_examples=60, deadline=None)
def test_symbol_mul_matches_loop_reference(pair):
    # per-degree error against the sum of the moduli of that degree's
    # terms: an FFT product fails this on the decayed tail
    a, b = pair
    prod = symbol_mul(a, b)
    assert prod.min_deg == a.min_deg + b.min_deg
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    ref = symbol_mul_loop_reference(a, b)
    assert prod.coeffs.shape == ref.shape
    assert within_per_degree(prod.coeffs, ref, moduli_product(a.coeffs, b.coeffs), 1e-12)


# -- adjoint flip --------------------------------------------------------------

@given(int_symbols())
@settings(max_examples=50, deadline=None)
def test_adjoint_flip_involution(a):
    assert symbols_allclose(adjoint_flip(adjoint_flip(a)), a, 0.0)


@given(chained_pair())
@settings(max_examples=50, deadline=None)
def test_adjoint_flip_antihomomorphism(pair):
    a, b = pair
    lhs = adjoint_flip(symbol_mul(a, b))
    rhs = symbol_mul(adjoint_flip(b), adjoint_flip(a))
    assert symbols_allclose(lhs, rhs, 1e-12)


@given(int_symbols())
@settings(max_examples=50, deadline=None)
def test_adjoint_flip_is_pointwise_adjoint(a):
    K = 64
    want = np.conj(np.transpose(sample_symbol(a, K), (0, 2, 1)))
    got = sample_symbol(adjoint_flip(a), K)
    assert np.max(np.abs(want - got)) < 1e-10 * (1 + a.norm_l2())


# -- Riesz projections ---------------------------------------------------------

@given(int_symbols())
@settings(max_examples=50, deadline=None)
def test_riesz_projections_split(a):
    plus, minus = riesz_project(a, "plus"), riesz_project(a, "minus")
    assert symbols_allclose(plus + minus, a, 0.0)
    assert riesz_project(plus, "minus").norm_l2() == 0.0
    assert riesz_project(minus, "plus").norm_l2() == 0.0


# -- sampling and interpolation -------------------------------------------------

@given(int_symbols())
@settings(max_examples=50, deadline=None)
def test_sample_roundtrip(a):
    K = 64
    back = symbol_from_samples(sample_symbol(a, K), a.min_deg, a.max_deg)
    assert symbols_allclose(back, a, 1e-11 * (1 + a.norm_l2()))


@given(int_symbols())
@settings(max_examples=30, deadline=None)
def test_samples_match_pointwise_evaluation(a):
    K = 16
    xi = grid_points(K)
    vals = sample_symbol(a, K)
    for j in (0, 5, K - 1):
        direct = a.eval_at(xi[j])
        assert np.max(np.abs(direct - vals[j])) < 1e-10 * (1 + a.norm_l2())


def test_offset_grid_avoids_minus_one():
    xi = grid_points(512)
    assert np.min(np.abs(xi + 1.0)) > 1e-3
    assert np.min(np.abs(xi - 1.0)) > 1e-3


# -- JSON interchange ------------------------------------------------------------

@st.composite
def symbol_and_range(draw):
    a = draw(int_symbols())
    lo_band, hi_band = a.min_deg, a.max_deg
    kind = draw(st.sampled_from(["inside", "straddle", "below", "above", "empty"]))
    if kind == "inside":
        lo = draw(st.integers(lo_band, hi_band))
        hi = draw(st.integers(lo, hi_band))
    elif kind == "straddle":  # past one end of the band or both
        lo = draw(st.integers(lo_band - 4, hi_band))
        hi = draw(st.integers(max(lo, lo_band), hi_band + 4))
        assume(lo < lo_band or hi > hi_band)
    elif kind == "below":
        hi = lo_band - draw(st.integers(1, 4))
        lo = hi - draw(st.integers(0, 4))
    elif kind == "above":
        lo = hi_band + draw(st.integers(1, 4))
        hi = lo + draw(st.integers(0, 4))
    else:
        lo = draw(st.integers(lo_band - 4, hi_band + 4))
        hi = lo - 1
    return a, lo, hi


@given(symbol_and_range())
@settings(max_examples=200, deadline=None)
def test_window_matches_per_degree_coeff(case):
    a, lo, hi = case
    w = a.window(lo, hi)
    assert w.shape == (max(hi - lo + 1, 0), a.rows, a.cols)
    for k in range(lo, hi + 1):
        assert np.array_equal(w[k - lo], a.coeff(k))
    # a new array: writing to it leaves the symbol alone
    assert w.flags.writeable and not np.shares_memory(w, a.coeffs)


@given(int_symbols())
@settings(max_examples=50, deadline=None)
def test_json_roundtrip(a):
    back = MatrixSymbol.from_json_dict(a.to_json_dict())
    assert back.min_deg == a.min_deg
    assert symbols_allclose(back, a, 0.0)


def test_json_shape_validation():
    d = {"rows": 2, "cols": 2, "min_deg": 0, "max_deg": 1,
         "coeffs": [[[1.0, 0.0]] * 4]}
    with pytest.raises(ValueError):
        MatrixSymbol.from_json_dict(d)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_json_rejects_non_finite(bad):
    d = MatrixSymbol.identity(2).to_json_dict()
    d["coeffs"][0][2] = [0.0, bad]
    with pytest.raises(ValueError, match=r"degree 0, entry \(1, 0\)"):
        MatrixSymbol.from_json_dict(d)


# -- Herglotz transform -----------------------------------------------------------

def test_herglotz_of_one_plus_cos_is_one_plus_z():
    g = MatrixSymbol.scalar([1 / np.sqrt(2), 1 / np.sqrt(2)])
    density = symbol_mul(adjoint_flip(g), g)
    F = herglotz_taylor(density, 8)
    want = MatrixSymbol.scalar([1.0, 1.0])
    assert (F.compress(1e-14) - want).norm_l2() < 1e-14


@given(st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False))
@settings(max_examples=40, deadline=None)
def test_herglotz_matches_quadrature_oracle(z):
    a = MatrixSymbol(2, 2, 0, np.array([[[1, 0.5], [0, 1]],
                                        [[0.25, -0.5j], [0.5, 0]]], dtype=complex))
    density = symbol_mul(adjoint_flip(a), a)
    got = herglotz_taylor(density, density.max_deg).eval_at(z)
    want = herglotz_quadrature_oracle(density, z)
    assert np.max(np.abs(got - want)) < 1e-10


@given(int_symbols(rows=2, cols=2), st.complex_numbers(max_magnitude=0.9,
                                                       allow_nan=False,
                                                       allow_infinity=False))
@settings(max_examples=40, deadline=None)
def test_herglotz_real_part_psd(a, z):
    density = symbol_mul(adjoint_flip(a), a)
    F = herglotz_taylor(density, density.max_deg).eval_at(z)
    re = (F + np.conj(F.T)) / 2
    assert np.min(np.linalg.eigvalsh(re)) > -1e-9 * (1 + a.norm_l2() ** 2)


# -- Cayley transform ---------------------------------------------------------------

def test_cayley_matches_long_division_oracle():
    # F = 1 + z gives B = z/(2 + z); oracle divides the rationals exactly.
    F = MatrixSymbol.scalar([1.0, 1.0])
    B = cayley(herglotz_taylor(symbol_mul(adjoint_flip(
        MatrixSymbol.scalar([1 / np.sqrt(2), 1 / np.sqrt(2)])),
        MatrixSymbol.scalar([1 / np.sqrt(2), 1 / np.sqrt(2)])), 12))
    want = cayley_long_division_oracle([Fraction(0), Fraction(1)],
                                       [Fraction(2), Fraction(1)], 12)
    assert B.min_deg == 0
    for k in range(13):
        assert abs(B.coeff(k)[0, 0] - float(want[k])) < 1e-13
    B2 = cayley(F)
    assert abs(B2.coeff(0)[0, 0]) < 1e-15
    assert abs(B2.coeff(1)[0, 0] - 0.5) < 1e-15


def test_cayley_of_identity_is_zero():
    F = MatrixSymbol.identity(3)
    assert cayley(F).norm_l2() < 1e-15


@given(int_symbols(rows=2, cols=2, max_band=3),
       st.complex_numbers(max_magnitude=0.4, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=40, deadline=None)
def test_cayley_contractive_inside_disc(a, z):
    density = symbol_mul(adjoint_flip(a), a)
    F = herglotz_taylor(density, 24) + MatrixSymbol.identity(2)
    B = cayley(F)
    val = B.eval_at(z)
    # Schur-class tail at |z| <= 0.4 is dominated by the geometric series.
    assert np.linalg.norm(val, 2) <= 1.0 + 2 * 0.4 ** 25 / 0.6 + 1e-9


def test_series_inverse():
    a = MatrixSymbol.scalar([2.0, 1.0])
    inv = series_inverse(a, 10)
    prod = symbol_mul(a, inv).truncate(0, 10)
    assert symbols_allclose(prod, MatrixSymbol.identity(1).truncate(0, 0), 1e-13)


def series_inverse_loop_reference(a: MatrixSymbol, N: int) -> np.ndarray:
    """The coefficient recurrence one degree and one band term at a time."""
    s0_inv = np.linalg.inv(a.coeff(0))
    out = np.zeros((N + 1, a.rows, a.rows), complex)
    out[0] = s0_inv
    for k in range(1, N + 1):
        acc = np.zeros((a.rows, a.rows), complex)
        for j in range(1, min(k, a.max_deg) + 1):
            acc += a.coeff(j) @ out[k - j]
        out[k] = -s0_inv @ acc
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("band", [0, 3, 40])
def test_series_inverse_matches_loop_reference(m, band):
    N = 24
    rng = np.random.default_rng(10 * m + band)
    c = rng.standard_normal((band + 1, m, m)) + 1j * rng.standard_normal((band + 1, m, m))
    c *= 0.5 / (m * (1.0 + np.arange(band + 1)) ** 2)[:, None, None]
    c[0] += np.eye(m)
    a = MatrixSymbol(m, m, 0, c)
    inv = series_inverse(a, N)
    ref = series_inverse_loop_reference(a, N)
    assert np.max(np.abs(inv.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))
    prod = symbol_mul(a, inv).truncate(0, N)
    assert symbols_allclose(prod, MatrixSymbol.identity(m), 1e-12)


@st.composite
def invertible_series(draw):
    # a(0) = I + small, band of 0..300 degrees decaying like 1/j^2
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m, band = draw(st.integers(1, 3)), draw(st.integers(0, 300))
    c = rng.standard_normal((band + 1, m, m, 2)) @ [1, 1j]
    c *= 0.3 / (m * (1.0 + np.arange(band + 1)) ** 2)[:, None, None]
    c[0] += np.eye(m)
    return MatrixSymbol(m, m, 0, c)


@given(invertible_series(), st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_series_inverse_doubling_matches_loop_reference(a, N):
    # N from 0 to 300 crosses up to nine doubling boundaries, below and
    # above the band; each degree's error is read against the moduli of
    # the terms the recurrence sums at that degree
    inv = series_inverse(a, N)
    ref = series_inverse_loop_reference(a, N)
    assert inv.min_deg == 0 and inv.coeffs.shape == ref.shape
    moduli = np.abs(ref[0]) @ moduli_product(a.coeffs, ref)[:N + 1]
    assert within_per_degree(inv.coeffs, ref, moduli, 1e-12)


def test_series_inverse_of_singular_constant_raises():
    with pytest.raises(np.linalg.LinAlgError):
        series_inverse(MatrixSymbol.scalar([0.0, 1.0]), 8)
    with pytest.raises(np.linalg.LinAlgError):
        series_inverse(MatrixSymbol(2, 2, 0, np.array([[[1.0, 1.0], [1.0, 1.0]],
                                                       [[1.0, 0.0], [0.0, 1.0]]])), 8)


# -- pointwise kernels on sample stacks -----------------------------------------------

EPS = np.finfo(float).eps


def complex_stack(rng, shape, K=32):
    return rng.standard_normal((K, *shape)) + 1j * rng.standard_normal((K, *shape))


def unitary_stack(rng, m, K):
    q, _ = np.linalg.qr(complex_stack(rng, (m, m), K))
    return q


def with_singular_values(rng, s):
    """U diag(s) V^H for each row of s, U and V seeded random unitaries."""
    K, m = s.shape
    return unitary_stack(rng, m, K) @ (s[:, :, None] * unitary_stack(rng, m, K))


def exact_abs_det2(a):
    """|det| of each 2 x 2 matrix of a stack, from exact rational products."""
    out = []
    for (p, q), (r, s) in a:
        p, q, r, s = ((Fraction(v.real), Fraction(v.imag)) for v in (p, q, r, s))
        re = p[0] * s[0] - p[1] * s[1] - q[0] * r[0] + q[1] * r[1]
        im = p[0] * s[1] + p[1] * s[0] - q[0] * r[1] - q[1] * r[0]
        out.append(np.hypot(float(re), float(im)))
    return np.array(out)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_eigvalsh_reads_the_lower_triangle_as_lapack(m):
    rng = np.random.default_rng(m)
    a = complex_stack(rng, (m, m))
    h = 1e-2 * (a + a.conj().transpose(0, 2, 1)) + 1e-17 * complex_stack(rng, (m, m))
    assert np.any(h != h.conj().transpose(0, 2, 1))  # the roundoff survives
    want = np.linalg.eigvalsh(h)
    got = _eigvalsh(h)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 8 * EPS * np.abs(want).max(axis=1, keepdims=True))
    assert np.all(np.diff(got, axis=1) >= 0)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (1, 3), (3, 1), (2, 3),
                                   (3, 2), (0, 2)])
@pytest.mark.parametrize("real", [False, True])
def test_norm2_matches_the_svd(shape, real):
    a = complex_stack(np.random.default_rng(sum(shape)), shape)
    if real:
        a = a.real
    want = np.linalg.norm(a, 2, axis=(1, 2)) if min(shape) else np.zeros(len(a))
    assert np.allclose(_norm2(a), want, rtol=8 * EPS, atol=0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_det_and_inverse_match_lapack_up_to_conditioning(m):
    # both are forward stable: each carries an error of about eps * cond
    rng = np.random.default_rng(10 + m)
    s = np.exp(rng.uniform(np.log(1e-6), 0.0, (64, m)))
    s[:, 0] = 1.0  # cond <= 1e6
    a = with_singular_values(rng, s)
    cond = 1 / s.min(axis=1)
    want = np.linalg.det(a)
    assert np.all(np.abs(_det(a) - want) <= 10 * EPS * cond * np.abs(want))
    want = np.linalg.inv(a)
    err = np.linalg.norm(_inv(a) - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
    assert np.all(err <= 10 * EPS * cond)
    assert np.all(err[cond <= 1e3] <= 1e-12)


def test_near_singular_inverse_reads_the_smallest_singular_value():
    # sigma_min = 1e-13 is read as 1 / ||G^{-1}||_2, as toeplitz_symbol reads
    # it.  The SVD's own error there is about eps sigma_max / sigma_min =
    # 2e-3 relative, so the reference is exact: |det| / sigma_max
    rng = np.random.default_rng(3)
    a = with_singular_values(rng, np.tile([1.0, 1e-13], (32, 1)))
    s = np.linalg.svd(a, compute_uv=False)
    exact = exact_abs_det2(a) / s[:, 0]
    smin = 1 / _norm2(_inv(a))
    assert np.all(np.abs(smin - exact) <= 1e-3 * exact)
    assert np.all(np.abs(smin - s[:, 1]) <= 1e-2 * s[:, 1])


@pytest.mark.parametrize("a", [np.zeros((4, 1, 1)),
                               np.array([[[1.0, 2.0], [0.5, 1.0]]] * 3),
                               np.ones((2, 3, 3))])
def test_inverse_of_an_exactly_singular_sample_raises(a):
    stack = np.concatenate([np.eye(a.shape[1])[None], a])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(stack)
    with pytest.raises(np.linalg.LinAlgError):
        _inv(stack)


# -- analytic columns -----------------------------------------------------------------

def test_hardy_norm_is_stacked_euclidean():
    # degree-major rows: f = (1, 2) + (0, 2) z
    f = SubspaceBasis(2, 1, np.array([[1.0], [2.0], [0.0], [2.0]], dtype=complex))
    assert abs(np.linalg.norm(f.matrix) - 3.0) < 1e-15
    assert np.array_equal(f.as_symbol().coeffs[:, :, 0], [[1.0, 2.0], [0.0, 2.0]])


def test_apply_symbol_truncates_analytic_part():
    phi = MatrixSymbol.scalar([1.0, 1.0], min_deg=-1)  # zbar + 1
    f = SubspaceBasis(1, 1, np.array([[0.0], [1.0]], dtype=complex))  # z
    out = apply_symbol(phi, f, 4)
    # p_+((zbar + 1) z) = 1 + z
    assert (out.dim, out.degree, out.size) == (1, 4, 1)
    assert np.allclose(out.matrix[:, 0], [1.0, 1.0, 0.0, 0.0, 0.0])


# -- config ------------------------------------------------------------------------------

def test_config_validation():
    for bad in (200, 4, 0, -8):
        with pytest.raises(ValueError, match="grid_size"):
            ToleranceConfig(grid_size=bad)
    for bad in (-1.0, 0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match="rank_tol"):
            ToleranceConfig(rank_tol=bad)
    for bad in (-1e-8, 0.0, float("nan")):
        with pytest.raises(ValueError, match="residual_tol"):
            ToleranceConfig(residual_tol=bad)
    cfg = ToleranceConfig().with_degree(16)
    assert cfg.grid_size >= 4 * 17
    assert cfg.grid_size & (cfg.grid_size - 1) == 0


def test_with_degree_keeps_a_valid_grid_and_raises_a_small_one():
    cfg = ToleranceConfig(1024, rank_tol=1e-9, residual_tol=1e-7)
    assert cfg.with_degree(64) is cfg
    assert cfg.with_degree(255) is cfg  # 4 * 256 = 1024 points
    assert cfg.with_degree(256) == ToleranceConfig(2048, 1e-9, 1e-7)
    for n, k in ((0, 8), (1, 8), (2, 16), (16, 128), (127, 512), (128, 1024),
                 (600, 4096)):
        assert ToleranceConfig(8).with_degree(n).grid_size == k


# -- package exports ---------------------------------------------------------------------

def test_exports_resolve_once_in_order():
    names = toepkern.__all__
    assert [n for n in names if not hasattr(toepkern, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
