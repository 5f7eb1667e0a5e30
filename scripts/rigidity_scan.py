"""Rigidity margin along a family interpolating toward a boundary zero.

g_t = (1 - t) + t (1 + z) / 2 stays outer for t < 1 and acquires a zero at
z = -1 when t = 1; the smallest ladder singular value collapses there and the
verdict flips to non-rigid.  Prints sigma_min per ladder degree and the
verdict for each t.

Usage: python3 scripts/rigidity_scan.py [--steps 11] [--ladder 16,32,64]
"""

import argparse

from toepkern import MatrixSymbol, ToleranceConfig
from toepkern.cli import _parse_ladder
from toepkern.hayashi import rigidity_test


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=11)
    ap.add_argument("--ladder", type=str, default="16,32,64")
    args = ap.parse_args()
    if args.steps < 2:
        ap.error("--steps must be at least 2: the family runs from t = 0 to t = 1")
    try:
        ladder = _parse_ladder(args.ladder)
    except ValueError as exc:
        ap.error(str(exc))
    cfg = ToleranceConfig()

    head = "t".rjust(6) + "".join(f"sigma@{n}".rjust(13) for n in ladder)
    print(head + "  verdict")
    for i in range(args.steps):
        t = i / (args.steps - 1)
        g = MatrixSymbol.scalar([1.0 - t + t / 2.0, t / 2.0])
        rep = rigidity_test(g, ladder, cfg)
        cells = "".join(f"{s:13.3e}" for s in rep.sigma_ladder)
        print(f"{t:6.2f}" + cells + f"  {rep.verdict}")


if __name__ == "__main__":
    main()
