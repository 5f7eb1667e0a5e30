"""Assertions shared by the test modules."""
from toepkern import MatrixSymbol


def symbols_allclose(a: MatrixSymbol, b: MatrixSymbol, tol: float = 1e-12) -> bool:
    """True when the L2 norm of a - b is at most tol."""
    return (a - b).norm_l2() <= tol
