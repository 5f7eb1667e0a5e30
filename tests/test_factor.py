"""Inner certification, outer detection, factorization and division tests.

Oracles: binomial/geometric series expansions (fixtures module), quadrature
boundary moduli, and exact rational long division for quotients.
"""
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from toepkern import (
    MatrixSymbol,
    ToleranceConfig,
    adjoint_flip,
    grid_points,
    sample_symbol,
    symbol_mul,
)
from toepkern import factor
from toepkern.factor import (
    DivisionResult,
    PreconditionError,
    bauer_factorize,
    divide_inner,
    garcia_inner,
    is_inner,
    outer_exp_log,
    shift_span,
)
from toepkern.cli import _pair_fixtures
from toepkern.fixtures import (
    g_one_plus_z,
    g_poisson,
    lin_diag_G,
    sarason_B_closed_form,
    sqrt_binomial,
    sqrt_diag_G,
)
from toepkern.toeplitz import build_toeplitz

from helpers import (conjugation_inner, model_inner_det_z, rank2_partial_isometry,
                     symbols_allclose)

CFG = ToleranceConfig()
SRC = Path(__file__).resolve().parents[1] / "src"


# -- inner certification -------------------------------------------------------

def test_z_times_identity_is_inner():
    cert = is_inner(MatrixSymbol.monomial(1, 2), CFG)
    assert cert.is_inner
    assert cert.rank == 2


def test_rank2_partial_isometry_certified():
    cert = is_inner(rank2_partial_isometry(), CFG)
    assert cert.is_inner
    assert cert.rank == 2


def test_outer_diagonal_rejected_by_is_inner():
    cert = is_inner(lin_diag_G(), CFG)
    assert not cert.is_inner
    assert cert.deviation > 0.1  # |1+e^{it}|/sqrt2 is far from 1 off t=0


def test_is_inner_requires_square():
    with pytest.raises(ValueError):
        is_inner(MatrixSymbol(2, 1, 0, np.ones((1, 2, 1))), CFG)


def test_is_inner_requires_analytic():
    with pytest.raises(ValueError):
        is_inner(MatrixSymbol.monomial(-1), CFG)


def test_is_inner_returns_the_cached_certificate():
    U = MatrixSymbol.monomial(1, 2)
    assert is_inner(U, CFG) is is_inner(U, CFG)
    # ToleranceConfig hashes by value: an equal new config hits
    assert is_inner(U, ToleranceConfig()) is is_inner(U, CFG)


def test_is_inner_recomputes_for_a_new_tolerance_or_symbol():
    U = MatrixSymbol.monomial(1, 2)
    is_inner.cache_clear()
    is_inner(U, CFG)
    is_inner(U, ToleranceConfig(residual_tol=1e-9))
    assert is_inner.cache_info().misses == 2
    # a MatrixSymbol hashes by identity: equal values, new object, new entry
    is_inner(MatrixSymbol.monomial(1, 2), CFG)
    assert is_inner.cache_info().misses == 3
    assert is_inner.cache_info().hits == 0


def test_is_inner_shares_a_certificate_across_degrees_on_one_grid():
    # the config carries no degree: degrees 16 and 20 both fit a 128-point grid
    U = MatrixSymbol.monomial(1, 2)
    is_inner.cache_clear()
    cert = is_inner(U, ToleranceConfig(8).with_degree(16))
    assert is_inner(U, ToleranceConfig(8).with_degree(20)) is cert
    assert is_inner.cache_info().misses == 1


# -- inner completion ------------------------------------------------------------

def test_garcia_trivial_completion():
    U = garcia_inner(MatrixSymbol.monomial(1), MatrixSymbol.scalar([1.0]),
                     MatrixSymbol.scalar([0.0]), CFG)
    want = MatrixSymbol.diag(MatrixSymbol.scalar([1.0]), MatrixSymbol.monomial(1))
    assert symbols_allclose(U.compress(1e-14), want, 1e-12)


def test_garcia_reproduces_det_z_inner():
    a = MatrixSymbol.scalar([0.5, 0.5])
    b = MatrixSymbol.scalar([0.5, -0.5])
    U = garcia_inner(MatrixSymbol.monomial(1), a, b, CFG)
    assert symbols_allclose(U, model_inner_det_z(), 1e-12)
    cert = is_inner(U, CFG)
    assert cert.is_inner and cert.rank == 2


def test_garcia_reproduces_conjugation_inner():
    a = MatrixSymbol.scalar([0.5, 0.5])
    b = MatrixSymbol.scalar([-0.5j, 0.5j])
    U = garcia_inner(MatrixSymbol.monomial(1), a, b, CFG)
    assert symbols_allclose(U, conjugation_inner(), 1e-12)


def _entry(U, i, j):
    return MatrixSymbol(1, 1, U.min_deg, U.coeffs[:, i:i + 1, j:j + 1])


def test_garcia_determinant_is_theta():
    # a = (1+z^2)/2, b = (1-z^2)/2 satisfy |a|^2+|b|^2 = 1 and live in K_{z^3}
    theta = MatrixSymbol.monomial(2)
    a = MatrixSymbol.scalar([0.5, 0.0, 0.5])
    b = MatrixSymbol.scalar([0.5, 0.0, -0.5])
    U = garcia_inner(theta, a, b, CFG)
    det = symbol_mul(_entry(U, 0, 0), _entry(U, 1, 1)) \
        - symbol_mul(_entry(U, 0, 1), _entry(U, 1, 0))
    assert symbols_allclose(det.compress(1e-12), theta, 1e-10)


def test_garcia_rejects_non_unimodular_pair():
    a = MatrixSymbol.scalar([0.9, 0.0])
    b = MatrixSymbol.scalar([0.1])
    with pytest.raises(PreconditionError) as err:
        garcia_inner(MatrixSymbol.monomial(1), a, b, CFG)
    assert "|a|^2" in err.value.check


def test_garcia_rejects_outside_model_space():
    # b = z^2 is orthogonal to nothing useful: z^2 not in span{1, z}
    a = MatrixSymbol.scalar([1.0])
    b = MatrixSymbol.scalar([0.0, 0.0, 1.0])
    with pytest.raises(PreconditionError) as err:
        garcia_inner(MatrixSymbol.monomial(1), a, b, CFG)
    assert "model space" in err.value.check or "|a|^2" in err.value.check


def test_garcia_rejects_b_outside_the_model_space_of_z_theta():
    # |a|^2 + |b|^2 = 1 holds, but b = z^2 / sqrt(2) is not in K_{z^2}; the
    # model-space check also bounds the negative-degree tail of theta * conj(b)
    a = MatrixSymbol.scalar([1 / np.sqrt(2)])
    b = MatrixSymbol.scalar([0.0, 0.0, 1 / np.sqrt(2)])
    with pytest.raises(PreconditionError) as err:
        garcia_inner(MatrixSymbol.monomial(1), a, b, CFG)
    assert err.value.check == "b in model space of z*theta"


# -- outer detection ----------------------------------------------------------------

@pytest.mark.parametrize("N", [64, 512])
@pytest.mark.parametrize("sign", [1, -1])
def test_sqrt_binomial_matches_exact_recurrence(sign, N):
    exact = [Fraction(1)]
    for k in range(1, N + 1):
        exact.append(exact[-1] * Fraction(sign * (3 - 2 * k), 2 * k))
    want = np.array([float(c) for c in exact])
    got = sqrt_binomial(sign, N).coeffs[:, 0, 0]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / np.abs(want)) <= 4e-15


def test_sqrt_diag_outer_with_identity_carrier():
    rep = shift_span(sqrt_diag_G(48), CFG)
    assert rep.verdict == "outer"
    assert rep.rank == 2
    assert np.allclose(np.abs(rep.theta0), np.eye(2), atol=1e-12)


def test_monomial_not_outer():
    rep = shift_span(MatrixSymbol.monomial(1), CFG)
    assert rep.verdict == "not-outer"


def test_blaschke_factor_not_outer():
    # (z - 1/2)/(1 - z/2) = -1/2 + (3/4) sum z^k/2^(k-1), truncated
    N = 48
    coeffs = np.zeros(N + 1)
    coeffs[0] = -0.5
    coeffs[1:] = 0.75 * 0.5 ** np.arange(N)
    rep = shift_span(MatrixSymbol.scalar(coeffs), CFG)
    assert rep.verdict == "not-outer"
    assert abs(rep.eta_fine - 0.5) < 1e-3


def test_column_symbol_outer_reduced_to_one():
    G = MatrixSymbol(2, 1, 0, np.array([[[1.0], [0.0]]], dtype=complex))
    rep = shift_span(G, CFG)
    assert rep.verdict == "outer"
    assert rep.rank == 1
    assert np.allclose(rep.theta0, [[1.0], [0.0]])
    assert symbols_allclose(rep.g_tilde.compress(1e-14),
                            MatrixSymbol.scalar([1.0]), 1e-12)


def test_poisson_symbol_outer():
    rep = shift_span(g_poisson(64), CFG)
    assert rep.verdict == "outer"
    assert rep.eta_fine <= 1e-12


def test_one_plus_z_outer_despite_boundary_zero():
    g = g_one_plus_z()
    rep = shift_span(g, CFG)
    assert rep.verdict == "outer"
    # the boundary zero keeps eta_fine above 1e-10, so "outer" comes from the
    # halving rule (a vanishing, halving eta), not from a flat defect
    assert rep.eta_fine > 1e-10


@given(st.integers(1, 4))
@settings(max_examples=10, deadline=None)
def test_shifted_outer_loses_verdict(k):
    g = symbol_mul(MatrixSymbol.monomial(k), g_poisson(32))
    rep = shift_span(g, CFG)
    assert rep.verdict == "not-outer"


# -- spectral factorization -------------------------------------------------------------

def test_constant_density_root(monkeypatch):
    # a degree-0 channel has no roots: the root split's empty product times
    # sqrt(c0) is the factor, bitwise, and exp-log is never asked
    def refused(*args):
        raise AssertionError("exp-log route taken")

    monkeypatch.setattr(factor, "outer_exp_log", refused)
    A = bauer_factorize(MatrixSymbol.constant(np.diag([0.75, 0.25])), 8, CFG)
    want = np.zeros((9, 2, 2), complex)
    want[0] = np.diag(np.sqrt([0.75, 0.25]))
    assert A.min_deg == 0 and np.array_equal(A.coeffs, want)


def test_zero_constant_channel_is_refused_by_exp_log():
    with pytest.raises(PreconditionError, match="diagonal samples positive"):
        bauer_factorize(MatrixSymbol.constant(np.diag([0.75, 0.0])), 8, CFG)


def test_density_wider_than_the_grid_factors():
    # half-band 40 needs 81 samples; the checks run on with_degree(40)'s
    # 256 points whatever grid the config holds
    k = np.arange(-40, 41)
    phi = MatrixSymbol.scalar(np.where(k == 0, 1.0, 0.5 / (1 + np.abs(k)) ** 2),
                              min_deg=-40)
    A = bauer_factorize(phi, 48, ToleranceConfig(64))
    assert np.array_equal(A.coeffs, bauer_factorize(phi, 48, ToleranceConfig(256)).coeffs)
    av = sample_symbol(A, 256)[:, 0, 0]
    assert np.max(np.abs(np.abs(av) ** 2 - sample_symbol(phi, 256)[:, 0, 0])) < 1e-10


def test_one_plus_cos_factors_to_one_plus_z():
    g = g_one_plus_z()
    density = symbol_mul(adjoint_flip(g), g)  # 1 + cos t
    A = bauer_factorize(density, 16, CFG)
    want = g.coeffs[:, 0, 0]
    assert np.max(np.abs(A.coeffs[:2, 0, 0] - want)) < 1e-9
    assert np.max(np.abs(A.coeffs[2:, 0, 0])) < 1e-9


def test_offcircle_roots_give_outer_factor():
    # |2-z|^2 = 5 - 2z - 2zbar factors as (2-z), not the reflected (1-2z)
    band = MatrixSymbol.scalar([-2, 5, -2], min_deg=-1)
    A = bauer_factorize(band, 8, CFG)
    assert np.max(np.abs(A.coeffs[:2, 0, 0] - np.array([2.0, -1.0]))) < 1e-10
    assert np.max(np.abs(A.coeffs[2:, 0, 0])) < 1e-10
    assert shift_span(A, CFG).verdict == "outer"


def test_truncated_rational_band_recovers_outer_factor():
    # band of 3/|2-z|^2 from the truncated series of sqrt(3)/(2-z)
    g = np.sqrt(3) / 2.0 * 0.5 ** np.arange(65)
    band = MatrixSymbol.scalar(np.convolve(g, g[::-1]), min_deg=-64)
    A = bauer_factorize(band, 64, CFG)
    assert np.max(np.abs(A.coeffs[:, 0, 0] - g)) < 1e-10
    assert shift_span(A, CFG).verdict == "outer"


def test_one_plus_cos_boundary_modulus():
    g = g_one_plus_z()
    density = symbol_mul(adjoint_flip(g), g)
    A = outer_exp_log(density, 16, CFG)
    K = 512
    xi = grid_points(K)
    want = np.sqrt(np.abs(1.0 + np.cos(np.angle(xi))))
    got = np.abs(sample_symbol(A, K)[:, 0, 0])
    assert np.max(np.abs(got - want)) < 1e-8


def test_exp_log_trivial_cases():
    one = outer_exp_log(MatrixSymbol.scalar([1.0]), 8, CFG)
    assert symbols_allclose(one.compress(1e-13), MatrixSymbol.scalar([1.0]), 1e-12)
    threequarter = outer_exp_log(MatrixSymbol.scalar([0.75]), 8, CFG)
    assert abs(threequarter.coeff(0)[0, 0] - np.sqrt(3) / 2) < 1e-12


def test_exp_log_refuses_nondiagonal():
    phi = MatrixSymbol.constant(np.array([[2.0, 0.5], [0.5, 2.0]]))
    with pytest.raises(ValueError):
        outer_exp_log(phi, 8, CFG)


def test_diagonal_density_past_N_takes_exp_log(monkeypatch):
    # a*a has degree 6 > N = 4 in both channels, so the Fejer-Riesz roots are
    # refused and each channel falls back to exp-log on its own, bitwise as
    # the whole-symbol exp-log; the result is the degree-8 Fejer-Riesz
    # factor (a itself) truncated to degree 4
    a = np.zeros((7, 2, 2))
    a[0] = np.eye(2)
    a[1, 0, 0], a[6, 0, 0] = 0.5, 0.25
    a[3, 1, 1], a[6, 1, 1] = -0.3, 0.1
    a = MatrixSymbol(2, 2, 0, a)
    density = symbol_mul(adjoint_flip(a), a)
    routes = []

    def counted(*args):
        routes.append("exp_log")
        return outer_exp_log(*args)

    monkeypatch.setattr(factor, "outer_exp_log", counted)
    fallback = bauer_factorize(density, 4, CFG)
    assert routes == ["exp_log", "exp_log"]
    exact = bauer_factorize(density, 8, CFG)
    assert routes == ["exp_log", "exp_log"]
    assert np.array_equal(fallback.coeffs, outer_exp_log(density, 4, CFG).coeffs)
    assert np.max(np.abs(exact.coeffs[:7] - a.coeffs)) < 1e-14
    assert np.max(np.abs(fallback.coeffs - exact.truncate(0, 4).coeffs)) < 1e-14


def test_diagonal_fallback_is_per_channel():
    # diag(1 + cos t, |b|^2) at N = 2: channel 0 has degree 1 and its
    # Fejer-Riesz factor (1+z)/sqrt2 is exact, while |b|^2 has degree 3 > N
    # and goes through exp-log alone; exp-log on channel 0 would land about
    # 4e-6 off, slowed by its boundary zero at -1
    b = MatrixSymbol.scalar([1.0, 0.4, 0.0, 0.2])
    d1 = symbol_mul(adjoint_flip(b), b)
    phi = MatrixSymbol.diag(MatrixSymbol.scalar([0.5, 1.0, 0.5], min_deg=-1), d1)
    A = bauer_factorize(phi, 2, CFG)
    assert np.max(np.abs(A.coeffs[:, 0, 0] - np.array([1, 1, 0]) / np.sqrt(2))) < 1e-14
    assert np.array_equal(A.coeffs[:, 1, 1], outer_exp_log(d1, 2, CFG).coeffs[:, 0, 0])
    assert not A.coeffs[:, 0, 1].any() and not A.coeffs[:, 1, 0].any()


def _noncommuting_density():
    A0 = MatrixSymbol(2, 2, 0, np.array([[[1, 0.5], [0, 1]],
                                         [[0, 0.5], [0.2, 0]]], dtype=complex))
    return symbol_mul(adjoint_flip(A0), A0)


def test_bauer_matricial_reconstruction():
    phi = _noncommuting_density()
    A = bauer_factorize(phi, 24, CFG)
    K = 512
    av = sample_symbol(A, K)
    rec = np.matmul(np.conj(np.transpose(av, (0, 2, 1))), av)
    assert np.max(np.abs(rec - sample_symbol(phi, K))) < CFG.residual_tol
    # gauge: A(0) Hermitian positive definite
    a0 = A.coeff(0)
    assert np.max(np.abs(a0 - np.conj(a0.T))) < 1e-10
    assert np.min(np.linalg.eigvalsh((a0 + np.conj(a0.T)) / 2)) > 0


def test_bauer_factor_is_outer():
    A = bauer_factorize(_noncommuting_density(), 24, CFG)
    assert shift_span(A, CFG).verdict == "outer"


def test_bauer_gauge_stable_across_moment_sizes():
    phi = _noncommuting_density()
    A1 = bauer_factorize(phi, 24, CFG, moment_rows=256)
    A2 = bauer_factorize(phi, 24, CFG, moment_rows=384)
    assert (A1 - A2).norm_l2() <= 1e-6


def dense_bauer(phi, N, M):
    """Reference route: dense Cholesky of the whole moment block Toeplitz
    matrix (block (j, k) = phi_{j-k} transposed), A_s read off block
    (M, M - s) of the factor, gauged so that A(0) is Hermitian positive."""
    m = phi.rows
    phi_t = MatrixSymbol(m, m, phi.min_deg, np.transpose(phi.coeffs, (0, 2, 1)))
    C = np.linalg.cholesky(build_toeplitz(phi_t, M).matrix)
    blocks = np.array([C[M * m:(M + 1) * m, (M - s) * m:(M - s + 1) * m].T
                       for s in range(N + 1)])
    W, _ = scipy.linalg.polar(blocks[0])
    return np.matmul(np.conj(W.T)[None], blocks)


def _twisted_density():
    B = dict(_pair_fixtures())["twisted"]
    return MatrixSymbol.identity(2) - symbol_mul(adjoint_flip(B), B)


def _random_density(m, band, seed):
    """phi = A*A for a seeded random m x m polynomial A of degree `band`
    whose constant term dominates, so A(xi) is invertible and phi > 0."""
    rng = np.random.default_rng(seed)
    coeffs = (rng.standard_normal((band + 1, m, m))
              + 1j * rng.standard_normal((band + 1, m, m)))
    coeffs[0] += (1.0 + np.sum(np.linalg.norm(coeffs[1:], 2, axis=(1, 2)))) * np.eye(m)
    A = MatrixSymbol(m, m, 0, coeffs)
    return symbol_mul(adjoint_flip(A), A)


@st.composite
def matricial_density_case(draw):
    """A random density of degree 2 band; moment rows M from a partial
    first panel to several panels (16 block rows for m = 2, 10 for m = 3),
    N <= M."""
    m = draw(st.sampled_from([2, 3]))
    band = draw(st.integers(1, 6))
    phi = _random_density(m, band, draw(st.integers(0, 2 ** 32 - 1)))
    M = draw(st.integers(0, 80))
    N = draw(st.integers(0, M))
    return phi, N, M


@settings(max_examples=150, deadline=None)
@given(matricial_density_case())
def test_banded_bauer_matches_dense_cholesky(case):
    phi, N, M = case
    want = dense_bauer(phi, N, M)
    got = bauer_factorize(phi, N, CFG, moment_rows=M).coeffs
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("N", [16, 64, 512])
def test_banded_bauer_matches_dense_cholesky_twisted(N):
    # default moment rows max(4N, 256): up to 2049 block rows
    dens = _twisted_density()
    want = dense_bauer(dens, N, max(4 * N, 256))
    got = bauer_factorize(dens, N, CFG.with_degree(N)).coeffs
    assert np.max(np.abs(got - want)) <= 1e-14 * np.linalg.norm(want)


def _panel_rows(phi):
    return max(phi.max_deg + 1, 32 // phi.rows)


def _cholesky_calls(monkeypatch, phi, N, M):
    """bauer_factorize's coefficients and how many panels it factored."""
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", counted)
        got = bauer_factorize(phi, N, CFG, moment_rows=M).coeffs
    return got, len(calls)


@pytest.mark.parametrize("density", ["noncommuting", "degree11"])
@pytest.mark.parametrize("panels,extra", [(1, -1), (1, 0), (1, 1), (3, 0), (3, 1)],
                         ids=["P-1", "P", "P+1", "3P", "3P+1"])
def test_bauer_panel_boundaries_match_dense_cholesky(monkeypatch, density, panels,
                                                     extra):
    # M + 1 = panels * P + extra block rows; P = 16 for the 2 x 2 degree-1
    # density, and P = d + 1 = 12 (above 32 // m = 10) for the 3 x 3
    # degree-11 one
    phi = (_noncommuting_density() if density == "noncommuting"
           else _random_density(3, 11, seed=7))
    P = _panel_rows(phi)
    M = panels * P + extra - 1
    N = min(M, 20)
    got, calls = _cholesky_calls(monkeypatch, phi, N, M)
    want = dense_bauer(phi, N, M)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.linalg.norm(want)
    assert 1 <= calls <= -(-(M + 1) // P)


def test_bauer_without_a_fixed_point_runs_every_panel(monkeypatch):
    # det A0 has a zero at |z| ≈ 1.05, so the Schur complements converge
    # too slowly to repeat bitwise within 16 panels
    A0 = MatrixSymbol(2, 2, 0, np.array([[[1, 0.3], [0, 1]],
                                         [[0.995, 0], [0.2, -0.4]]], dtype=complex))
    phi = symbol_mul(adjoint_flip(A0), A0)
    M = 16 * _panel_rows(phi) - 1
    got, calls = _cholesky_calls(monkeypatch, phi, 24, M)
    assert calls == 16
    want = dense_bauer(phi, 24, M)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.linalg.norm(want)


def test_bauer_stops_at_a_bitwise_fixed_point(monkeypatch):
    # twisted density, 2049 block rows: a first panel of one block row, then
    # 128 full ones, and the second full panel's Schur complement already
    # repeats the first's.  The stop is exact: other moment sizes, with
    # other first panels, give the same factor bit for bit
    dens = _twisted_density()
    got, calls = _cholesky_calls(monkeypatch, dens, 64, 2048)
    assert calls == 3
    for M in (64, 4095):
        assert np.array_equal(got, bauer_factorize(dens, 64, CFG, moment_rows=M).coeffs)


@pytest.mark.parametrize("M", [0, 2, 4, 7])
def test_bauer_rejects_moment_rows_below_degree(M):
    with pytest.raises(ValueError, match=f"moment_rows = {M} is below N = 8"):
        bauer_factorize(_twisted_density(), 8, CFG, moment_rows=M)


def test_bauer_memory_stays_in_the_band():
    # twisted density, N = 512, 2049 block rows: the dense moment matrix
    # alone is 268 MB and its Cholesky peaked at 538 MB
    tracemalloc.start()
    try:
        bauer_factorize(_twisted_density(), 512, CFG.with_degree(512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_bauer_rejects_indefinite():
    phi = MatrixSymbol.constant(np.diag([1.0, -1.0]))
    with pytest.raises(PreconditionError):
        bauer_factorize(phi, 8, CFG)


def run_fresh(code):
    """Run code in a fresh interpreter importing the library from src/; this
    process has scipy loaded already, so only a new one can see what loads it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def test_scipy_stays_unloaded_off_the_matricial_bauer_route():
    out = run_fresh("""
        import sys
        import toepkern, toepkern.cli, toepkern.fixtures
        from toepkern import MatrixSymbol, ToleranceConfig, classify_kernel
        from toepkern.fixtures import column_G, g_poisson_double, lin_diag_G
        from toepkern.hayashi import embed_rect
        cfg = ToleranceConfig().with_degree(64)
        print(classify_kernel(g_poisson_double(64), MatrixSymbol.monomial(1), 64, cfg).final)
        print(classify_kernel(lin_diag_G(), MatrixSymbol.monomial(1, 2), 64, cfg).final)
        embed_rect(column_G(), MatrixSymbol.monomial(2), 64, cfg)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert out == ["is-kernel", "not-kernel", "[]"]


def test_matricial_routes_and_cli_load_no_scipy():
    out = run_fresh("""
        import contextlib, io, sys
        from toepkern import ToleranceConfig, construct_kernel
        from toepkern.cli import VERIFY_CHECKS, _pair_fixtures, main
        from toepkern.fixtures import matrix_recipe
        from toepkern.hayashi import pair_from_B, pair_identity_defect
        cfg = ToleranceConfig().with_degree(16)
        pair = pair_from_B(dict(_pair_fixtures())["twisted"], 16, cfg)
        print(pair_identity_defect(pair.B, pair.A, cfg))
        res = construct_kernel(*matrix_recipe(), 64, ToleranceConfig().with_degree(64))
        print(res.F.size)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(["examples", "--degree", "64"])]
            codes += [main(["verify", check]) for check in VERIFY_CHECKS]
        print(*codes, sep=",")
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert float(out[0]) <= 1e-8
    assert out[1:] == ["3", "0,0,0,0,0,0,0", "[]"]


# -- division by inner functions -----------------------------------------------------------

def test_divide_monomials():
    res = divide_inner(MatrixSymbol.scalar([0.0, 0.0, 0.5]),
                       MatrixSymbol.monomial(1), CFG)
    assert res.divisible
    assert symbols_allclose(res.quotient.compress(1e-14),
                            MatrixSymbol.scalar([0.0, 0.5]), 1e-13)


def test_divide_sarason_series_by_z():
    B = sarason_B_closed_form(64)
    res = divide_inner(B, MatrixSymbol.monomial(1), CFG)
    assert res.divisible
    # quotient must be 1/(2+z) = sum (-1)^k z^k / 2^(k+1)
    want = (-1.0) ** np.arange(64) * 0.5 ** (np.arange(64) + 1)
    assert np.max(np.abs(res.quotient.coeffs[:64, 0, 0] - want)) < 1e-12


def test_divide_failure_reports_mass():
    B = sarason_B_closed_form(64)
    res = divide_inner(B, MatrixSymbol.monomial(2), CFG)
    assert not res.divisible
    assert res.quotient is None
    assert abs(res.defect - 0.5) < 1e-10


def test_divide_then_remultiply():
    B = sarason_B_closed_form(64)
    U = model_inner_det_z()
    UB = symbol_mul(U, MatrixSymbol.diag(B, B))
    res = divide_inner(UB, U, CFG)
    assert res.divisible
    K = 512
    dev = sample_symbol(symbol_mul(U, res.quotient).truncate(0, 65), K) \
        - sample_symbol(UB, K)
    assert np.max(np.abs(dev)) <= 10 * CFG.residual_tol


def test_divide_requires_inner_divisor():
    with pytest.raises(PreconditionError):
        divide_inner(MatrixSymbol.scalar([0.0, 1.0]), lin_diag_G(), CFG)
