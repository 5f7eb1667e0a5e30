"""Assertions and oracles shared by the test modules."""
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from toepkern import MatrixSymbol
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
