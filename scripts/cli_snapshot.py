"""Record the CLI's observable behaviour on a fixed command set, one file each.

Writes the fixture symbol files into OUTDIR, then runs every command in a
fresh `python3 -m toepkern.cli` with PYTHONPATH=TREE/src and OUTDIR as the
working directory.  Each command leaves <name>.out, <name>.err and
<name>.rc, and any file it writes with --out lands next to them.  Two
snapshots of different trees compare with `diff -r`.

Usage: python3 scripts/cli_snapshot.py TREE OUTDIR
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from toepkern import MatrixSymbol  # noqa: E402
from toepkern.fixtures import (g_one_plus_z, g_poisson, g_poisson_double,  # noqa: E402
                               lin_diag_G, matrix_recipe)


def fixture_files() -> dict:
    """Input symbols by file name; the same bytes whichever TREE runs."""
    seed, U = matrix_recipe()
    return {
        "flagship-G.json": g_poisson_double(64),
        "flagship-G16.json": g_poisson_double(16),
        "flagship-seed.json": g_poisson(64),
        "z.json": MatrixSymbol.monomial(1),
        "z2.json": MatrixSymbol.monomial(1, 2),
        "one-plus-z.json": g_one_plus_z(),
        "lindiag-G.json": lin_diag_G(),
        "recipe-seed.json": seed,
        "recipe-U.json": U,
    }


FLAGSHIP = ["flagship-G.json", "z.json"]

COMMANDS = [
    ("examples-32", ["examples", "--degree", "32", "--ladder", "8,16,32"]),
    ("examples-64", ["examples", "--degree", "64"]),
    ("examples-128", ["examples", "--degree", "128"]),
    # an explicit grid above the smallest valid one is kept as given
    ("examples-64-grid-1024", ["examples", "--degree", "64", "--grid", "1024"]),
    *[(f"verify-{check}", ["verify", check])
      for check in ("lemma31", "thm34", "thm35", "pair-identity", "cor53",
                    "prop52", "kernel-identity")],
    ("verify-pair-600", ["verify", "pair-identity", "--degree", "600",
                         "--ladder", "150,300,600"]),
    ("classify-flagship", ["classify", *FLAGSHIP]),
    ("classify-flagship-out", ["classify", *FLAGSHIP, "--out", "flagship.report"]),
    ("classify-flagship-16", ["classify", "flagship-G16.json", "z.json",
                              "--degree", "16", "--ladder", "4,8,16"]),
    ("classify-lindiag", ["classify", "lindiag-G.json", "z2.json"]),
    # degree 512 reads lin-diag's one-column pieces and the flagship's two
    # lacunary residue classes
    ("classify-lindiag-512", ["classify", "lindiag-G.json", "z2.json",
                              "--degree", "512"]),
    ("classify-flagship-512", ["classify", *FLAGSHIP, "--degree", "512"]),
    ("construct-flagship", ["construct", "flagship-seed.json", "z.json"]),
    ("construct-recipe-out", ["construct", "recipe-seed.json", "recipe-U.json",
                              "--out", "recipe"]),
    ("construct-flagship-json", ["construct", "flagship-seed.json", "z.json",
                                 "--json"]),
    # degree 256 certifies the cross-check angle by inertia counts
    ("construct-flagship-256", ["construct", "flagship-seed.json", "z.json",
                                "--degree", "256"]),
    ("construct-recipe-256", ["construct", "recipe-seed.json", "recipe-U.json",
                              "--degree", "256"]),
    # invalid input (exit 2) and truncations too coarse to decide
    ("err-non-inner-U", ["classify", "flagship-G.json", "one-plus-z.json"]),
    ("err-classify-shapes", ["classify", "flagship-G.json", "z2.json"]),
    ("err-construct-shapes", ["construct", "flagship-seed.json", "z2.json"]),
    ("examples-3", ["examples", "--degree", "3", "--ladder", "1,2,3"]),
    ("examples-4", ["examples", "--degree", "4", "--ladder", "1,2,4"]),
    ("examples-8", ["examples", "--degree", "8", "--ladder", "2,4,8"]),
    ("err-verify-thm35", ["verify", "thm35", "--degree", "8", "--ladder", "0,1"]),
    ("err-unknown-check", ["verify", "nope"]),
    ("err-missing-file", ["classify", "absent.json", "z.json"]),
    ("err-grid", ["verify", "pair-identity", "--grid", "100"]),
    # a power-of-two grid one step below 4*(N+1), at two degrees
    ("err-grid-256", ["verify", "pair-identity", "--grid", "256"]),
    ("err-grid-512-128", ["verify", "pair-identity", "--grid", "512",
                          "--degree", "128", "--ladder", "32,64,128"]),
    ("err-degree", ["verify", "lemma31", "--degree", "0"]),
    ("err-ladder", ["verify", "pair-identity", "--ladder", "64,16"]),
]


def snapshot(tree, outdir, commands=COMMANDS) -> None:
    """Write the fixtures and run each (name, argv) of commands in outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, sym in fixture_files().items():
        (outdir / name).write_text(json.dumps(sym.to_json_dict(), sort_keys=True))
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    for name, argv in commands:
        res = subprocess.run([sys.executable, "-m", "toepkern.cli", *argv],
                             cwd=outdir, env=env, capture_output=True, text=True)
        (outdir / f"{name}.out").write_text(res.stdout)
        (outdir / f"{name}.err").write_text(res.stderr)
        (outdir / f"{name}.rc").write_text(f"{res.returncode}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("tree", help="repository checkout whose src/ is run")
    ap.add_argument("outdir", help="directory for the fixtures and the records")
    args = ap.parse_args()
    snapshot(args.tree, args.outdir)


if __name__ == "__main__":
    main()
