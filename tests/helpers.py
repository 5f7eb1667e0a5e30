"""Assertions and oracles shared by the test modules."""
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from toepkern import MatrixSymbol
from toepkern.symbols import adjoint_flip, riesz_project, symbol_mul
from toepkern.toeplitz import _pieces


def symbols_allclose(a: MatrixSymbol, b: MatrixSymbol, tol: float = 1e-12) -> bool:
    """True when the L2 norm of a - b is at most tol."""
    return (a - b).norm_l2() <= tol


def section_pieces(phi: MatrixSymbol, N: int) -> list:
    """toeplitz._pieces unstacked: one (rows, cols) pair of index tuples per
    piece of the degree-N section."""
    return [(tuple(a.tolist()), tuple(b.tolist()))
            for rows, cols in _pieces(phi, N) for a, b in zip(rows, cols)]


def section_components(A: np.ndarray) -> tuple[int, np.ndarray]:
    """Oracle: connected components of the nonzero entries of the dense
    section A, rows joined to columns; the count and each node's label, the
    rows' labels first, then the columns'."""
    r, n = A.shape
    i, k = np.nonzero(A)
    adj = coo_matrix((np.ones(i.size), (i, k + r)), shape=(r + n, r + n))
    return connected_components(adj, directed=False)


def component_pieces(A: np.ndarray) -> set:
    """The components of section_components that hold a column, as
    (rows, cols) pairs of ascending index tuples: what section_pieces reads
    when its pieces are exactly the components."""
    r = A.shape[0]
    _, lab = section_components(A)
    nodes = np.argsort(lab, kind="stable")
    out = set()
    for comp in np.split(nodes, np.flatnonzero(np.diff(lab[nodes])) + 1):
        rows, cols = comp[comp < r], comp[comp >= r] - r
        if cols.size:
            out.add((tuple(rows.tolist()), tuple(cols.tolist())))
    return out


# -- closed-form symbols only the tests read ------------------------------------

def phi_poisson_double(N: int) -> MatrixSymbol:
    """Laurent band of zbar (2 - z^2) / (2 - zbar^2).

    Exact expansion: coefficient -1/2 at degree +1, 3/4 at degree -1, and
    3/2^(k+2) at degree -(2k+1) for k >= 1; even degrees vanish.
    """
    arr = np.zeros(N + 2, dtype=complex)  # degrees -N..1
    arr[-1] = -0.5  # degree +1
    arr[N - 1] = 0.75  # degree -1
    k = 1
    while 2 * k + 1 <= N:
        arr[N - (2 * k + 1)] = 3.0 * 2.0 ** (-k - 2)
        k += 1
    return MatrixSymbol.scalar(arr, min_deg=-N)


def model_inner_det_z() -> MatrixSymbol:
    """2x2 inner (1/2)[[1+z, -(1-z)], [z-1, 1+z]] with determinant z."""
    return MatrixSymbol(2, 2, 0, 0.5 * np.array(
        [[[1, -1], [-1, 1]], [[1, 1], [1, 1]]], dtype=complex))


def conjugation_inner() -> MatrixSymbol:
    """2x2 inner (1/2)[[1+z, i(1-z)], [-i(1-z), 1+z]] for theta = z."""
    return MatrixSymbol(2, 2, 0, 0.5 * np.array(
        [[[1, 1j], [-1j, 1]], [[1, -1j], [1j, 1]]], dtype=complex))


def rank2_partial_isometry() -> MatrixSymbol:
    """3x3 analytic partial isometry of rank 2 built from theta = z.

    Columns: a = (1+z)/2, b = -(1-z)/2 wired as [[a,0,-b],[th fb,0,th fa],[0,0,0]];
    boundary values satisfy T^H T = diag(1,0,1), T T^H = diag(1,1,0).
    """
    a = MatrixSymbol.scalar([0.5, 0.5])
    b = MatrixSymbol.scalar([-0.5, 0.5])
    theta = MatrixSymbol.monomial(1)

    def tf(s):
        return riesz_project(symbol_mul(theta, adjoint_flip(s)), "plus")

    zero = MatrixSymbol.scalar([0.0])
    return MatrixSymbol.from_blocks([
        [a, zero, b.scale(-1)],
        [tf(b), zero, tf(a)],
        [zero, zero, zero],
    ])
