"""Closed-form fixtures shared by the test suite, scripts and the CLI.

Every builder returns exact coefficient data (binomial or geometric series),
so tests can compare library output against independent expansions.
"""
from __future__ import annotations

import numpy as np

from .factor import garcia_inner
from .symbols import MatrixSymbol, symbol_mul


def g_one_plus_z() -> MatrixSymbol:
    """Scalar outer g = (1+z)/sqrt(2); |g|^2 = 1 + cos t, vanishing at -1."""
    return MatrixSymbol.scalar([1 / np.sqrt(2), 1 / np.sqrt(2)])


def g_poisson(N: int) -> MatrixSymbol:
    """Scalar outer g = sqrt(3)/(2 - z); |g|^2 is the Poisson kernel at 1/2."""
    coeffs = np.sqrt(3) / 2.0 * (0.5 ** np.arange(N + 1))
    return MatrixSymbol.scalar(coeffs)


def g_poisson_double(N: int) -> MatrixSymbol:
    """Scalar outer sqrt(3)/(2 - z^2), unit H2 norm."""
    coeffs = np.zeros(N + 1)
    coeffs[0::2] = np.sqrt(3) / 2.0 * (0.5 ** np.arange(len(coeffs[0::2])))
    return MatrixSymbol.scalar(coeffs)


def sqrt_binomial(sign: int, N: int) -> MatrixSymbol:
    """(1 + sign z)^(1/2) by the binomial series, truncated at N.

    binom(1/2, k) = binom(1/2, k - 1) (3/2 - k) / k, one running product.
    """
    k = np.arange(1, N + 1)
    return MatrixSymbol.scalar(np.concatenate([[1.0], np.cumprod(sign * (1.5 - k) / k)]))


def sqrt_diag_G(N: int) -> MatrixSymbol:
    """Diagonal outer (1/2) diag((1+z)^(1/2), (1-z)^(1/2))."""
    return MatrixSymbol.diag(sqrt_binomial(+1, N).scale(0.5),
                             sqrt_binomial(-1, N).scale(0.5))


def lin_diag_G() -> MatrixSymbol:
    """Diagonal outer (1/sqrt2) diag(1+z, 1-z)."""
    s = 1 / np.sqrt(2)
    return MatrixSymbol.diag(MatrixSymbol.scalar([s, s]),
                             MatrixSymbol.scalar([s, -s]))


def column_G() -> MatrixSymbol:
    """Rectangular outer column (1, 0)^T."""
    return MatrixSymbol(2, 1, 0, np.array([[[1.0], [0.0]]], dtype=complex))


def matrix_recipe() -> tuple[MatrixSymbol, MatrixSymbol]:
    """Seed and inner U of the matricial recipe, with dim G K_U = 3.

    The constant seed (I - C)^{-1} diag(sqrt(1 - c_k^2)) for C =
    diag(1/2, -1/2) recovers the pair (B, A) = (C, (sqrt3/2) I);
    U = z garcia_inner(z, (1+z)/2, (1-z)/2) has determinant z^3 up to a
    unimodular constant.
    """
    C = np.diag([0.5, -0.5])
    seed = MatrixSymbol.constant(
        np.linalg.inv(np.eye(2) - C) @ np.diag(np.sqrt(1.0 - np.diag(C) ** 2)))
    core = garcia_inner(MatrixSymbol.monomial(1),
                        MatrixSymbol.scalar([0.5, 0.5]),
                        MatrixSymbol.scalar([0.5, -0.5]))
    return seed, symbol_mul(MatrixSymbol.monomial(1, 2), core)


def half_signature() -> MatrixSymbol:
    """Constant contraction (1/2) diag(1, -1)."""
    return MatrixSymbol.constant(np.diag([0.5, -0.5]))


def twisted_contraction(b1: MatrixSymbol, b2: MatrixSymbol) -> MatrixSymbol:
    """2x2 symbol [[b1, b2], [-b2, -b1]] from scalar entries."""
    return MatrixSymbol.from_blocks([[b1, b2], [b2.scale(-1), b1.scale(-1)]])


def sarason_B_closed_form(N: int) -> MatrixSymbol:
    """Taylor series of z/(2+z): (-1)^(k+1) z^k / 2^k for k >= 1."""
    coeffs = np.zeros(N + 1)
    k = np.arange(1, N + 1)
    coeffs[1:] = (-1.0) ** (k + 1) * 0.5 ** k
    return MatrixSymbol.scalar(coeffs)
