"""Finite-section residual ladders for the defect identity (I - T_B T_B*).

Prints the spectral-norm residual of the factored section against the direct
one over a degree ladder, for a banded outer function (exact at every size),
a geometric-series outer function, and its double-argument variant.  The
banded row saturates at machine dust; the others decay with the section size.

Usage: python3 scripts/residual_ladders.py [--ladder 8,16,32,64,128]
"""

import argparse

from toepkern import MatrixSymbol
from toepkern.cli import _parse_ladder
from toepkern.fixtures import (g_one_plus_z, g_poisson, g_poisson_double,
                               sarason_B_closed_form)
from toepkern.nearly import section_defect


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ladder", type=str, default="8,16,32,64,128")
    args = ap.parse_args()
    try:
        ladder = _parse_ladder(args.ladder)
    except ValueError as exc:
        ap.error(str(exc))
    top = ladder[-1]

    fixtures = [
        ("one-plus-z", g_one_plus_z(), sarason_B_closed_form(4 * top + 1).compress()),
        ("poisson", g_poisson(4 * top), MatrixSymbol.scalar([0.0, 0.5])),
        ("poisson-double", g_poisson_double(4 * top),
         MatrixSymbol.scalar([0.0, 0.0, 0.5])),
    ]
    head = "fixture".ljust(16) + "".join(f"N={n}".rjust(12) for n in ladder)
    print(head)
    for name, G, B in fixtures:
        cells = "".join(f"{section_defect(G, B, n):12.3e}" for n in ladder)
        print(name.ljust(16) + cells)


if __name__ == "__main__":
    main()
