"""Toeplitz-section tests: structure, kernels, angles, residual windows."""
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from toepkern import (MatrixSymbol, SubspaceBasis, ToleranceConfig, adjoint_flip,
                      apply_symbol)
from toepkern.fixtures import g_poisson, lin_diag_G
from toepkern.hayashi import toeplitz_symbol
from toepkern.nearly import model_space_basis
from toepkern.toeplitz import (
    _count_below,
    _gram_blocks,
    _pieces,
    _section,
    basis_from_matrix,
    build_toeplitz,
    kernel_basis,
    numerical_rank,
    orthonormal_basis,
    singular_values,
    subspace_angle,
)

CFG = ToleranceConfig()


# -- section structure ---------------------------------------------------------

def test_backward_shift_section():
    T = build_toeplitz(MatrixSymbol.monomial(-1), 2)
    want = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    assert np.array_equal(T.matrix, want)


def test_block_diag_symbol_section():
    phi = MatrixSymbol.diag(MatrixSymbol.monomial(-2), MatrixSymbol.scalar([1.0]))
    T = build_toeplitz(phi, 3)
    f = SubspaceBasis(2, 3, np.array([[1, 5, 2, 6, 3, 7, 4, 8]], dtype=complex).T)
    out = (T.matrix @ f.matrix).reshape(4, 2)
    assert np.array_equal(out, apply_symbol(phi, f, 3).matrix.reshape(4, 2))
    # first channel shifts down by two, second channel passes through
    assert np.allclose(out[:, 0], [3, 4, 0, 0])
    assert np.allclose(out[:, 1], [5, 6, 7, 8])


def test_constant_symbol_section_is_block_diagonal():
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    T = build_toeplitz(MatrixSymbol.constant(c), 2)
    want = np.kron(np.eye(3), c)
    assert np.array_equal(T.matrix, want)


def test_toeplitz_blocks_constant_on_diagonals():
    phi = MatrixSymbol(2, 2, -1, np.arange(12, dtype=float).reshape(3, 2, 2))
    T = build_toeplitz(phi, 4)
    p = q = 2
    for j in range(5):
        for k in range(5):
            blk = T.matrix[j * p:(j + 1) * p, k * q:(k + 1) * q]
            assert np.array_equal(blk, phi.coeff(j - k))


def loop_fill(phi, N):
    """Reference block-by-block fill: block (j, k) is the coefficient at j - k."""
    p, q = phi.rows, phi.cols
    mat = np.zeros(((N + 1) * p, (N + 1) * q), complex)
    for d in range(max(phi.min_deg, -N), min(phi.max_deg, N) + 1):
        for j in range(max(d, 0), min(N, N + d) + 1):
            mat[j * p:(j + 1) * p, (j - d) * q:(j - d + 1) * q] = phi.coeff(d)
    return mat


@pytest.mark.parametrize("p,q,lo,hi,N", [
    (1, 1, -3, 2, 6),
    (2, 2, -9, 9, 4),     # band wider than N on both sides
    (2, 3, -7, 1, 3),     # wider than N below, p != q
    (3, 1, 0, 11, 5),     # wider than N above, p != q
    (1, 2, 4, 6, 2),      # band entirely beyond N
    (2, 1, -2, -2, 0),
])
def test_build_toeplitz_matches_loop_fill(p, q, lo, hi, N):
    rng = np.random.default_rng(p * 100 + q * 10 + N)
    coeffs = (rng.standard_normal((hi - lo + 1, p, q))
              + 1j * rng.standard_normal((hi - lo + 1, p, q)))
    phi = MatrixSymbol(p, q, lo, coeffs)
    assert np.array_equal(build_toeplitz(phi, N).matrix, loop_fill(phi, N))


@pytest.mark.parametrize("p,q,lo,hi,N", [
    (1, 1, -3, 2, 6),
    (2, 3, -7, 1, 3),
    (1, 2, 4, 6, 2),
])
def test_section_is_a_read_only_view(p, q, lo, hi, N):
    rng = np.random.default_rng(p + q + N)
    phi = MatrixSymbol(p, q, lo, rng.standard_normal((hi - lo + 1, p, q)))
    view = _section(phi, N)
    assert view.shape == (N + 1, p, N + 1, q)
    assert not view.flags.writeable
    assert not np.shares_memory(view, phi.coeffs)
    with pytest.raises(ValueError):
        view[0, 0, 0, 0] = 1.0
    assert np.array_equal(view.reshape((N + 1) * p, (N + 1) * q), loop_fill(phi, N))


def test_build_toeplitz_allocates_its_section_once():
    # a 1025 x 1025 complex section is 16.8 MB; a second copy would double it
    phi = MatrixSymbol.scalar(np.arange(1, 9) * 0.1, min_deg=-3)
    tracemalloc.start()
    try:
        T = build_toeplitz(phi, 1024)
        mat = T.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * mat.nbytes
    assert not mat.flags.writeable
    assert T.matrix is mat


@st.composite
def analytic_symbol_and_poly(draw):
    p = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    deg = draw(st.integers(0, 3))
    ints = st.integers(min_value=-3, max_value=3)
    coeffs = np.array(draw(st.lists(
        st.lists(st.lists(ints, min_size=q, max_size=q), min_size=p, max_size=p),
        min_size=deg + 1, max_size=deg + 1)), dtype=complex)
    phi = MatrixSymbol(p, q, 0, coeffs)
    d = draw(st.integers(0, 3))
    fc = np.array(draw(st.lists(st.lists(ints, min_size=q, max_size=q),
                                min_size=d + 1, max_size=d + 1)), dtype=complex)
    return phi, SubspaceBasis(q, d, fc.reshape(-1, 1))


@given(analytic_symbol_and_poly())
@settings(max_examples=60, deadline=None)
def test_finite_section_consistency(data):
    # analytic symbol acting on a low-degree polynomial: section is exact
    phi, f = data
    N = 8
    T = build_toeplitz(phi, N)
    got = T.matrix @ np.pad(f.matrix, ((0, f.dim * (N - f.degree)), (0, 0)))
    assert np.array_equal(got, apply_symbol(phi, f, N).matrix)


# -- kernels ---------------------------------------------------------------------

def test_kernel_of_double_backward_shift():
    T = build_toeplitz(MatrixSymbol.monomial(-2), 4)
    basis = kernel_basis(T, CFG)
    assert basis.size == 2
    # independent brute-force oracle on the raw matrix
    _, s, vh = np.linalg.svd(T.matrix)
    oracle = basis_from_matrix(np.conj(vh[-2:].T), 1, 4)
    assert subspace_angle(basis, oracle) < 1e-12
    # span must be {1, z}: every element has no degree >= 2 component
    assert np.max(np.abs(basis.matrix[2:])) < 1e-12


def test_kernel_of_mixed_block_symbol():
    phi = MatrixSymbol.diag(MatrixSymbol.monomial(-2), MatrixSymbol.scalar([1.0]))
    basis = kernel_basis(build_toeplitz(phi, 4), CFG)
    assert basis.size == 2
    vec = basis.matrix.reshape(5, 2, basis.size)  # (degree, channel, element)
    assert np.max(np.abs(vec[:, 1])) < 1e-12  # second channel zero
    assert np.max(np.abs(vec[2:, 0])) < 1e-12  # first channel degree <= 1


def test_identity_has_empty_kernel():
    basis = kernel_basis(build_toeplitz(MatrixSymbol.identity(2), 3), CFG)
    assert basis.size == 0


def test_rank_cut_splits_close_values():
    # 1e-7 stays above the 1e-8 cut and 1e-9 falls below it, a gap of only
    # 100: the kernel is the third channel at each of the three degrees
    T = build_toeplitz(MatrixSymbol.constant(np.diag([1.0, 1e-7, 1e-9])), 2)
    basis = kernel_basis(T, CFG)
    assert basis.size == 3


@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_kernel_dimension_of_coanalytic_monomial(j, q):
    # T_{C zbar^j} with invertible C has kernel = polynomials of degree < j
    rng = np.random.default_rng(q * 10 + j)
    C = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)) + 3 * np.eye(q)
    phi = MatrixSymbol(q, q, -j, C[None])
    N = 6
    T = build_toeplitz(phi, N)
    basis = kernel_basis(T, CFG)
    assert basis.size == q * j
    nrm = np.linalg.norm(T.matrix, 2)
    residuals = np.linalg.norm(T.matrix @ basis.matrix, axis=0)
    assert np.all(residuals <= 10 * CFG.rank_tol * nrm)


def test_kernel_dimension_stable_under_degree_doubling():
    phi = MatrixSymbol.monomial(-2)
    d1 = kernel_basis(build_toeplitz(phi, 8), CFG).size
    d2 = kernel_basis(build_toeplitz(phi, 16), CFG).size
    assert d1 == d2 == 2


def test_kernel_basis_orthonormal():
    basis = kernel_basis(build_toeplitz(MatrixSymbol.monomial(-3), 6), CFG)
    q = basis.matrix
    dev = np.conj(q.T) @ q - np.eye(basis.size)
    assert np.max(np.abs(dev)) < 1e-12


# -- sections that split into pieces ---------------------------------------------

def dense_kernel(T, config):
    """Oracle: the kernel rule on one dense SVD of the whole section.

    Returns the zero-padded singular values, the cut and the null vectors."""
    _, s, vh = np.linalg.svd(T.matrix)
    n = T.matrix.shape[1]
    s = np.concatenate([s, np.zeros(n - s.size)])
    cut = numerical_rank(s, config.rank_tol)
    return s, cut, np.conj(vh[cut:].T)


def _band(rng, shape, lo, hi):
    n = hi - lo + 1
    return rng.standard_normal((n,) + shape) + 1j * rng.standard_normal((n,) + shape)


@st.composite
def lacunary_symbols(draw):
    # z^r psi(z^g): the section splits by residue mod g
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g, r = draw(st.integers(2, 4)), draw(st.integers(-5, 5))
    lo, hi = draw(st.integers(-2, 0)), draw(st.integers(0, 2))
    psi = _band(rng, (1, 1), lo, hi)
    coeffs = np.zeros((g * (hi - lo) + 1, 1, 1), complex)
    coeffs[::g] = psi
    return MatrixSymbol(1, 1, r + g * lo, coeffs), CFG


@st.composite
def diagonal_symbols(draw):
    # channels 1e6 apart in scale; rank_tol 1e-4 puts the small channels
    # wholly below the section's cut, which a per-piece cut would not
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    chans = []
    for k in range(draw(st.integers(2, 3))):
        lo, hi = draw(st.integers(-2, 0)), draw(st.integers(0, 2))
        c = _band(rng, (1, 1), lo, hi)
        c[-lo] += 4 * np.sum(np.abs(c))  # dominant constant: no near-kernel
        chans.append(MatrixSymbol(1, 1, lo, c * 1e-6 ** (k % 2)))
    tol = draw(st.sampled_from([1e-8, 1e-4]))
    return MatrixSymbol.diag(*chans), ToleranceConfig(rank_tol=tol)


@st.composite
def rectangular_symbols(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p, q = draw(st.sampled_from([(1, 2), (2, 3), (2, 1), (3, 1), (1, 3)]))
    lo, hi = draw(st.integers(-2, 0)), draw(st.integers(0, 2))
    return MatrixSymbol(p, q, lo, _band(rng, (p, q), lo, hi)), CFG


@st.composite
def zero_symbols(draw):
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return MatrixSymbol.zero(p, q), CFG


@given(st.one_of(lacunary_symbols(), diagonal_symbols(), rectangular_symbols(),
                 zero_symbols()),
       st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_split_kernel_matches_dense_svd(case, N):
    phi, config = case
    T = build_toeplitz(phi, N)
    basis = kernel_basis(T, config)
    s, cut, null = dense_kernel(T, config)
    n = s.size
    assert basis.size == n - cut
    if basis.size:
        q = basis.matrix
        assert np.linalg.norm(null - q @ (np.conj(q.T) @ null), 2) < 1e-12
    # each oracle value carries an absolute error of order n eps s[0]
    err = 10 * n * np.finfo(float).eps * s[0]
    values = singular_values(phi, N)
    assert values.shape == (n,) and np.all(np.diff(values) <= 0)
    assert np.allclose(values, s, rtol=1e-10, atol=err)


def dense_pieces(T):
    """Oracle: components of the nonzero entries of the dense section, each
    labelled by its smallest node index (rows first, then columns)."""
    A = T.matrix
    r, n = A.shape
    adj = np.zeros((r + n, r + n), bool)
    adj[:r, r:] = A != 0
    count, lab = connected_components(adj, directed=False)
    least = np.full(count, r + n)
    np.minimum.at(least, lab, np.arange(r + n))
    return least[lab[:r]], least[lab[r:]]


@st.composite
def sparse_symbols(draw):
    # random band with most entries zeroed: pieces of every shape
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lo, hi = draw(st.integers(-9, 3)), draw(st.integers(-3, 9))
    lo, hi = min(lo, hi), max(lo, hi)
    coeffs = _band(rng, (p, q), lo, hi) * (rng.random((hi - lo + 1, p, q)) < 0.2)
    return MatrixSymbol(p, q, lo, coeffs), CFG


@given(st.one_of(sparse_symbols(), lacunary_symbols(), diagonal_symbols(),
                 rectangular_symbols(), zero_symbols()),
       st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_pieces_from_symbol_match_dense_nonzeros(case, N):
    phi, _ = case
    rows, cols = _pieces(phi, N)
    want_rows, want_cols = dense_pieces(build_toeplitz(phi, N))
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)


def test_split_section_is_never_filled():
    # a 2x2 diagonal symbol at one degree, as linear-diagonal's phi: the
    # 2050 x 2050 section (67 MB dense) splits into one-column pieces
    phi = MatrixSymbol(2, 2, -2, np.diag([1.0, -1.0])[None])
    tracemalloc.start()
    try:
        values = singular_values(phi, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 16 * 2050 ** 2
    # each channel shifts down by two: columns of degree >= 2 map isometrically
    assert np.array_equal(values, np.r_[np.ones(2046), np.zeros(4)])


@st.composite
def real_symbols(draw):
    # real coefficients, either a full band or a diagonal one that splits
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo, hi = draw(st.integers(-4, 0)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return MatrixSymbol(p, q, lo, rng.standard_normal((hi - lo + 1, p, q)))
    chans = rng.standard_normal((draw(st.integers(2, 3)), hi - lo + 1, 1, 1))
    return MatrixSymbol.diag(*(MatrixSymbol(1, 1, lo, c) for c in chans))


@given(real_symbols(), st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_real_symbol_values_match_complex_dense_svd(phi, N):
    T = build_toeplitz(phi, N)
    s = np.linalg.svd(T.matrix, compute_uv=False)  # complex dtype
    want = np.concatenate([s, np.zeros(T.matrix.shape[1] - s.size)])
    values = singular_values(phi, N)
    assert np.allclose(values, want, rtol=1e-12, atol=1e-12 * want[0])


@pytest.mark.parametrize("phi", [
    MatrixSymbol(2, 2, -1, np.arange(12.0).reshape(3, 2, 2)),  # does not split
    MatrixSymbol.diag(MatrixSymbol.scalar([1.0, -2.0], -1),
                      MatrixSymbol.scalar([0.5, 3.0])),  # splits
])
def test_real_symbol_gets_real_svd(phi, monkeypatch):
    dtypes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    singular_values(phi, 16)
    assert dtypes and all(d == np.float64 for d in dtypes)
    dtypes.clear()
    singular_values(phi.scale(1j), 16)
    assert dtypes and all(d == np.complex128 for d in dtypes)


LIN_DIAG_PHI = toeplitz_symbol(lin_diag_G(), MatrixSymbol.monomial(1, m=2),
                               ToleranceConfig().with_degree(64))


@pytest.mark.parametrize("phi", [
    LIN_DIAG_PHI,  # one column per piece
    adjoint_flip(LIN_DIAG_PHI),  # one column per piece, two with no row
    MatrixSymbol(1, 2, 1, np.array([[[1.0, 2.0j]], [[0.0, 0.0]], [[0.0, 0.0]]])),
    MatrixSymbol(2, 1, -1, np.array([[[0.5], [-3.0]]])),  # one column, two rows
], ids=["lin-diag", "lin-diag-adjoint", "one-row", "one-column"])
def test_row_and_column_pieces_match_dense_svd_without_one(phi, monkeypatch):
    N = 64
    T = build_toeplitz(phi, N).matrix
    s = np.linalg.svd(T, compute_uv=False)
    want = np.concatenate([s, np.zeros(T.shape[1] - s.size)])

    def no_svd(*args, **kwargs):
        raise AssertionError("a one-row or one-column piece was sent to the SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    values = singular_values(phi, N)
    assert np.allclose(values, want, rtol=0, atol=4 * np.finfo(float).eps * want[0])


def test_real_kernel_symbol_carries_no_imaginary_dust():
    # G* U* G^{-1} is real for the real flagship G and U = z; the sampled
    # symbol's imaginary roundoff is dropped part by part
    phi = toeplitz_symbol(g_poisson(64), MatrixSymbol.monomial(1),
                          ToleranceConfig().with_degree(64))
    assert phi.coeffs.shape[0] > 1 and np.abs(phi.coeffs.real).max() > 0.1
    assert not phi.coeffs.imag.any()


# -- inertia counts -------------------------------------------------------------

@st.composite
def banded_sections(draw):
    # a band of at most 12 degrees, real or complex, at degree <= 96, with
    # the Gram cut at any width that keeps it block tridiagonal
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n_deg = draw(st.integers(1, 12))
    coeffs = rng.standard_normal((n_deg, p, q))
    if draw(st.booleans()):
        coeffs = coeffs + 1j * rng.standard_normal((n_deg, p, q))
    phi = MatrixSymbol(p, q, draw(st.integers(-11, 11)), coeffs)
    width = draw(st.integers(max(n_deg - 1, 1), n_deg + 8))
    return phi, draw(st.integers(0, 96)), width


def coeff_norm_sum(phi):
    return float(np.linalg.norm(phi.coeffs, 2, axis=(1, 2)).sum())


@given(banded_sections(), st.data())
@settings(max_examples=100, deadline=None)
def test_inertia_count_matches_dense_svd(case, data):
    phi, M, width = case
    mat = build_toeplitz(phi, M).matrix
    s = np.linalg.svd(mat, compute_uv=False)
    s = np.sort(np.concatenate([s, np.zeros(mat.shape[1] - s.size)]))
    # a section with two nonzero values can be a 2 x 2 triangular Toeplitz
    # block [[a, b], [0, a]] padded by zero columns: s_1 s_2 = |a|^2 is the
    # squared norm of its first column, so the geometric midpoint below
    # falls on a zero pivot, where the count declines by design
    assume(np.count_nonzero(s) > 2)
    beta = coeff_norm_sum(phi)
    # tau at the geometric midpoint of a relative gap >= 1e-3, well above
    # the pivot floor 1e-10 beta^2
    gaps = [i for i in range(s.size - 1)
            if s[i + 1] - s[i] >= 1e-3 * s[i + 1] and s[i] * s[i + 1] >= 1e-6 * beta ** 2]
    assume(gaps)
    i = data.draw(st.sampled_from(gaps))
    tau = float(np.sqrt(s[i] * s[i + 1]))
    assert _count_below(_gram_blocks(phi, M, width), tau, 1e-10 * beta ** 2) == i + 1


@pytest.mark.parametrize("k", [-2, 0, 3])
@pytest.mark.parametrize("width", [1, 64])
def test_monomial_count_at_one_reads_no_count(k, width):
    # every singular value of a shift section is 0 or 1: at tau = 1 a pivot
    # is singular, and the count declines without a warning
    phi = MatrixSymbol.monomial(k, m=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _count_below(_gram_blocks(phi, 64, width), 1.0,
                            1e-10 * coeff_norm_sum(phi) ** 2) is None


# -- principal angles ---------------------------------------------------------------

def test_angle_identical_bases_zero():
    b = kernel_basis(build_toeplitz(MatrixSymbol.monomial(-2), 4), CFG)
    assert subspace_angle(b, b) == 0.0


def test_angle_orthogonal_directions():
    e0 = np.zeros((4, 1), complex)
    e0[0] = 1.0
    e1 = np.zeros((4, 1), complex)
    e1[1] = 1.0
    a = basis_from_matrix(e0, 2, 1)
    b = basis_from_matrix(e1, 2, 1)
    assert abs(subspace_angle(a, b) - np.pi / 2) < 1e-15


def test_angle_same_span_different_frames():
    # {1, z} against {(1+z)/sqrt2, (1-z)/sqrt2}: same span, QR oracle
    m1 = np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)
    m2 = np.array([[1, 1], [1, -1], [0, 0]], dtype=complex) / np.sqrt(2)
    q1, _ = np.linalg.qr(m1)
    q2, _ = np.linalg.qr(m2)
    oracle = np.linalg.svd(np.conj(q1.T) @ q2, compute_uv=False)
    assert np.min(oracle) > 1 - 1e-12
    a = basis_from_matrix(m1, 1, 2)
    b = basis_from_matrix(m2, 1, 2)
    assert subspace_angle(a, b) < 1e-7


def test_angle_rotated_frames_read_roundoff():
    # the arccos of the smallest cosine read up to ~4e-8 here
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        q, _ = np.linalg.qr(m)
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3))
                              + 1j * rng.standard_normal((3, 3)))
        a = basis_from_matrix(q, 3, 3)
        b = basis_from_matrix(q @ rot, 3, 3)
        assert subspace_angle(a, b) < 1e-14


@pytest.mark.parametrize("theta", [1e-6, 1e-3, 0.5, 1.2])
def test_angle_known_single_vector_angles(theta):
    rng = np.random.default_rng(3)
    frame, _ = np.linalg.qr(rng.standard_normal((8, 2))
                            + 1j * rng.standard_normal((8, 2)))
    a = basis_from_matrix(frame[:, :1], 2, 3)
    b = basis_from_matrix(frame @ np.array([[np.cos(theta)], [np.sin(theta)]]),
                          2, 3)
    assert abs(subspace_angle(a, b) - theta) < 1e-14


def test_angle_dimension_mismatch_is_right_angle():
    a = basis_from_matrix(np.eye(3, 2, dtype=complex), 1, 2)
    b = basis_from_matrix(np.eye(3, 1, dtype=complex), 1, 2)
    assert subspace_angle(a, b) == pytest.approx(np.pi / 2)


def test_angle_requires_matching_ambient():
    a = basis_from_matrix(np.eye(3, 1, dtype=complex), 1, 2)
    b = basis_from_matrix(np.eye(4, 1, dtype=complex), 1, 3)
    with pytest.raises(ValueError):
        subspace_angle(a, b)


def test_angle_rejects_non_orthonormal_columns():
    # the sine formula assumes unit columns: 2 e0 against itself read pi/2
    a = basis_from_matrix(2 * np.eye(3, 1, dtype=complex), 1, 2)
    with pytest.raises(ValueError, match="orthonormal"):
        subspace_angle(a, a)


def test_orthonormal_basis_collapses_dependent_columns():
    cols = np.array([[1, 2], [1, 2], [0, 0]], dtype=complex)
    b = orthonormal_basis(SubspaceBasis(1, 2, cols))
    assert b.size == 1


def test_basis_matrix_rows_must_match_the_degree_range():
    with pytest.raises(ValueError):
        SubspaceBasis(2, 3, np.zeros((7, 1), complex))


# -- a symbol acting on a whole basis ----------------------------------------------

def image_by_columns(phi, basis, degree):
    """Oracle: p_+(phi q) column by column, one np.convolve per channel pair."""
    cols = basis.matrix.reshape(basis.degree + 1, basis.dim, basis.size)
    out = np.zeros((degree + 1, phi.rows, basis.size), complex)
    for j in range(basis.size):
        for a in range(phi.rows):
            for b in range(basis.dim):
                full = np.convolve(phi.coeffs[:, a, b], cols[:, b, j])
                for k, c in enumerate(full):  # entry k sits at degree min_deg + k
                    if 0 <= phi.min_deg + k <= degree:
                        out[phi.min_deg + k, a, j] += c
    return out.reshape(-1, basis.size)


@st.composite
def symbol_and_basis(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lo = draw(st.integers(-4, 2))
    hi = draw(st.integers(lo, 4))
    deg, size = draw(st.integers(0, 5)), draw(st.integers(1, 3))
    # zero margins at both ends of the basis band, as in a padded model space
    live = draw(st.integers(0, deg))
    cols = np.zeros((deg + 1, q, size), complex)
    cols[live:] = _band(rng, (q, size), live, deg) * (rng.random((deg + 1 - live, 1, 1)) < 0.7)
    basis = SubspaceBasis(q, deg, cols.reshape(-1, size))
    return MatrixSymbol(p, q, lo, _band(rng, (p, q), lo, hi)), basis, draw(st.integers(0, 8))


@given(symbol_and_basis())
@settings(max_examples=100, deadline=None)
def test_basis_image_matches_column_loop(case):
    phi, basis, degree = case
    got = apply_symbol(phi, basis, degree).matrix
    assert got.shape == (phi.rows * (degree + 1), basis.size)
    assert np.allclose(got, image_by_columns(phi, basis, degree), rtol=0, atol=1e-12)


@pytest.mark.parametrize("U", [
    MatrixSymbol.monomial(2), MatrixSymbol.monomial(1, 2),
    MatrixSymbol.diag(MatrixSymbol.monomial(1), MatrixSymbol.monomial(3)),
], ids=["z2", "zI2", "diag-z-z3"])
def test_basis_image_of_padded_model_space(U):
    # K_U sits in degrees < deg U; the basis is solved on degrees <= deg U
    # and zero-padded to 40 - deg U
    basis = model_space_basis(U, 40)
    assert np.max(np.abs(basis.matrix[U.rows * U.max_deg:])) < 1e-14
    assert not np.any(basis.matrix[U.rows * (U.max_deg + 1):])
    phi = MatrixSymbol(U.rows, U.rows, -2, np.arange(1, 4 * U.rows ** 2 + 1)
                       .reshape(4, U.rows, U.rows) / 7)
    for degree in (0, 3, basis.degree, basis.degree + 2):
        assert np.allclose(apply_symbol(phi, basis, degree).matrix,
                           image_by_columns(phi, basis, degree), rtol=0, atol=1e-13)


def test_basis_image_of_empty_model_space():
    # a constant unitary U has K_U = {0}: the image has no columns
    U = MatrixSymbol.constant(np.array([[0, 1], [1, 0]]))
    basis = model_space_basis(U, 6)
    assert basis.size == 0 and basis.matrix.shape == (14, 0)
    phi = MatrixSymbol(3, 2, -1, np.ones((3, 3, 2)))
    assert apply_symbol(phi, basis, 4).matrix.shape == (15, 0)
