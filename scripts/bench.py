"""Large-degree rows of the kernel cross-check, one source tree against another.

Each row runs in a fresh interpreter, with the library imported from the
`src` directory of the tree being measured, and records the wall time of its
timed call and the peak resident memory of the whole process (ru_maxrss).
A row is named `<call>:<fixture>:<degree>`:

- `kernel_angle:flagship:M` and `kernel_angle:recipe:M` time one
  kernel_angle call at degree M.  Its symbol and G K_U come from the
  construction at degree min(256, M // 2), which runs first, untimed;
- `construct:flagship:N` and `construct:recipe:N` time construct_kernel at
  degree N, cross-checks at N and 2N included, and record `dim_F` and both
  cross-check angles; they run at N = 64, 128, 256 and 512 and at one large
  N;
- `classify:flagship:N`, `classify:flagship-phase:N`, `classify:lindiag:N`
  and `classify:recipe:N` time classify_kernel at degree N and record its
  `final` verdict and `cross_check_angle`; flagship and lindiag run at
  N = 64, 128, 256 and 512 and at one large N, flagship-phase at N = 512
  and 2048.  Flagship-phase classifies the flagship's G times e^{i pi/3}, a
  constant phase that leaves G K_U as it is and turns the symbol by a
  unimodular constant.  The recipe row classifies the G that the
  construction at degree N returns; that construction runs first, untimed,
  and leaves U's memoized is_inner certificate in place;
- `singular_values:flagship:N` and `singular_values:lindiag:N` time one
  singular_values call at degree N on the fixture's toeplitz_symbol, built
  first, untimed, and record the value count, the smallest value and a
  digest of the values' bytes; they run at N = 64 and 1024;
- `startup:flagship:N` and `startup:recipe:N` time a cold start: from
  before `import toepkern` (numpy is not loaded yet) to a finished flagship
  classify_kernel, or matrix-recipe construct_kernel, at degree N.  They
  record `final` (flagship) or `dim_F` (recipe), and `scipy_loaded`,
  whether any scipy module was loaded by then;
- `bauer:twisted:N` times bauer_factorize at degree N on the density
  I - B^H B of the twisted contraction B that `verify pair-identity` reads,
  with the default moment rows.  One untimed call runs first, so the timed
  one pays no first-use import; the peak memory still includes it.  The
  row records `defect`, the largest entry of A^H A - phi on the configured
  sample grid;
- `examples:all:N`, `verify:pair-identity:N` and `verify:prop52:N` time one
  in-process `cli.main` call of that command at `--degree N` with the
  default ladder, stdout captured, after one untimed equal call that pays
  the first-use costs, and record its `exit` code and the sha256 `digest`
  of its stdout; examples run at N = 64, 128, 256 and 512, the two verify
  checks at N = 64.

The flagship is the seed g_poisson(N) with U = z, and its classify row reads
g_poisson_double(N), the G that seed constructs; the recipe is the constant
seed and inner U of fixtures.matrix_recipe(); lindiag is
fixtures.lin_diag_G() with U = z I2, a G whose span is not a kernel.

    python3 scripts/bench.py --tree parent=../parent --tree change=. \\
        --repeat 3 --out BENCH_<n>.json
    python3 scripts/bench.py --row construct:flagship:32

The first form runs every default row on each tree, alternating which tree
goes first, and writes the JSON document that `validate` checks; a parent
tree is any checkout of the parent commit (git archive or git clone).  The
second runs one row in this process against the importable library and
prints its record as JSON.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SCHEMA = "toepkern-bench/1"
ROWS = (
    "kernel_angle:flagship:1024",
    "kernel_angle:flagship:4096",
    "kernel_angle:recipe:512",
    "kernel_angle:recipe:2048",
    "construct:flagship:2048",
    "construct:recipe:1024",
    "construct:recipe:4096",
    "classify:lindiag:4096",
    "classify:flagship:2048",
    "classify:recipe:512",
    *(f"classify:{fixture}:{n}" for fixture in ("flagship", "lindiag")
      for n in (64, 128, 256, 512)),
    "classify:flagship-phase:512",
    "classify:flagship-phase:2048",
    *(f"construct:{fixture}:{n}" for fixture in ("flagship", "recipe")
      for n in (64, 128, 256, 512)),
    *(f"singular_values:{fixture}:{n}" for fixture in ("flagship", "lindiag")
      for n in (64, 1024)),
    "startup:flagship:64",
    "startup:recipe:64",
    "bauer:twisted:512",
    *(f"examples:all:{n}" for n in (64, 128, 256, 512)),
    "verify:pair-identity:64",
    "verify:prop52:64",
)
ROW_TIMEOUT_S = 600.0  # every row takes about a second; this only stops a hung one
FIXTURES = {"kernel_angle": ("flagship", "recipe"),
            "construct": ("flagship", "recipe"),
            "classify": ("flagship", "flagship-phase", "lindiag", "recipe"),
            "singular_values": ("flagship", "lindiag"),
            "startup": ("flagship", "recipe"),
            "bauer": ("twisted",),
            "examples": ("all",),
            "verify": ("pair-identity", "prop52")}


def parse_row(name: str) -> tuple[str, str, int]:
    call, fixture, degree = name.split(":")
    if fixture not in FIXTURES.get(call, ()):
        raise ValueError(f"unknown row {name!r}")
    return call, fixture, int(degree)


def run_row(name: str) -> dict:
    """Run one row in this process and return its record."""
    call, fixture, degree = parse_row(name)
    cold = time.perf_counter()  # a --row interpreter has not loaded numpy yet
    import numpy as np

    from toepkern import (MatrixSymbol, ToleranceConfig, adjoint_flip,
                          classify_kernel, construct_kernel, sample_symbol,
                          symbol_mul)
    from toepkern.factor import bauer_factorize
    from toepkern.fixtures import (g_poisson, g_poisson_double, lin_diag_G,
                                   matrix_recipe)
    from toepkern.hayashi import gk_basis, toeplitz_symbol
    from toepkern.toeplitz import kernel_angle, singular_values

    def inputs(n):
        if fixture == "flagship":
            return g_poisson(n), MatrixSymbol.monomial(1)
        return matrix_recipe()

    if call == "startup":
        config = ToleranceConfig().with_degree(degree)
        if fixture == "flagship":
            rep = classify_kernel(g_poisson_double(degree), MatrixSymbol.monomial(1),
                                  degree, config)
            result = {"final": rep.final}
        else:
            result = {"dim_F": construct_kernel(*inputs(degree), degree, config).F.size}
        wall = time.perf_counter() - cold
        result["scipy_loaded"] = "scipy" in sys.modules
    elif call == "bauer":
        from toepkern.cli import _pair_fixtures  # off the startup rows' clock

        config = ToleranceConfig().with_degree(degree)
        B = dict(_pair_fixtures())["twisted"]
        phi = MatrixSymbol.identity(2) - symbol_mul(adjoint_flip(B), B)
        bauer_factorize(phi, degree, config)
        start = time.perf_counter()
        A = bauer_factorize(phi, degree, config)
        wall = time.perf_counter() - start
        av = sample_symbol(A, config.grid_size)
        rec = np.conj(np.transpose(av, (0, 2, 1))) @ av
        result = {"defect": float(np.max(np.abs(rec - sample_symbol(phi, config.grid_size))))}
    elif call in ("examples", "verify"):
        import contextlib
        import io

        from toepkern.cli import main

        argv = [call, "--degree", str(degree)]
        if call == "verify":
            argv.insert(1, fixture)
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        wall = time.perf_counter() - start
        result = {"exit": code,
                  "digest": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    elif call == "construct":
        config = ToleranceConfig().with_degree(degree)
        seed, U = inputs(degree)
        start = time.perf_counter()
        res = construct_kernel(seed, U, degree, config)
        wall = time.perf_counter() - start
        result = {"dim_F": res.F.size, "angle_N": res.angle_N, "angle_2N": res.angle_2N}
    elif call == "classify":
        config = ToleranceConfig().with_degree(degree)
        if fixture == "flagship":
            G, U = g_poisson_double(degree), MatrixSymbol.monomial(1)
        elif fixture == "flagship-phase":
            G = g_poisson_double(degree).scale(np.exp(1j * np.pi / 3))
            U = MatrixSymbol.monomial(1)
        elif fixture == "lindiag":
            G, U = lin_diag_G(), MatrixSymbol.monomial(1, 2)
        else:
            seed, U = inputs(degree)
            G = construct_kernel(seed, U, degree, config).G
        start = time.perf_counter()
        rep = classify_kernel(G, U, degree, config)
        wall = time.perf_counter() - start
        result = {"final": rep.final, "cross_check_angle": rep.cross_check_angle}
    elif call == "singular_values":
        config = ToleranceConfig().with_degree(degree)
        if fixture == "flagship":
            G, U = g_poisson_double(degree), MatrixSymbol.monomial(1)
        else:
            G, U = lin_diag_G(), MatrixSymbol.monomial(1, 2)
        phi = toeplitz_symbol(G, U, config)
        start = time.perf_counter()
        s = singular_values(phi, degree)
        wall = time.perf_counter() - start
        result = {"count": s.size, "smallest": float(s[-1]),
                  "digest": hashlib.sha256(s.tobytes()).hexdigest()}
    else:
        n = min(256, degree // 2)
        config = ToleranceConfig().with_degree(n)
        seed, U = inputs(n)
        res = construct_kernel(seed, U, n, config)
        Q = gk_basis(res.G, U, degree, config)
        start = time.perf_counter()
        angle = kernel_angle(res.phi, Q, config)
        wall = time.perf_counter() - start
        result = {"angle": angle}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": wall, "max_rss_mb": rss_mb, "result": result,
            "numpy": np.__version__}


def run_in_tree(name: str, tree: Path) -> dict:
    """One row in a fresh interpreter that imports the library from tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    threads = str(max(1, min(2, len(os.sched_getaffinity(0)))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    out = subprocess.run([sys.executable, __file__, "--row", name], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=ROW_TIMEOUT_S)
    return json.loads(out.stdout.strip().splitlines()[-1])


def collect(rows, trees: dict, repeat: int) -> dict:
    """Every row on every tree, `repeat` times, alternating the tree order."""
    runs = {(row, label): [] for row in rows for label in trees}
    for r in range(repeat):
        order = list(trees.items())
        if r % 2:
            order.reverse()
        for row in rows:
            for label, tree in order:
                runs[row, label].append(run_in_tree(row, tree))
    records = []
    first = runs[rows[0], next(iter(trees))][0]
    for (row, label), done in runs.items():
        walls = [d["wall_s"] for d in done]
        rss = [d["max_rss_mb"] for d in done]
        records.append({"row": row, "tree": label, "wall_s": walls,
                        "max_rss_mb": rss,
                        "wall_s_median": statistics.median(walls),
                        "max_rss_mb_median": statistics.median(rss),
                        "result": done[-1]["result"]})
    return {
        "schema": SCHEMA,
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(),
                    "numpy": first["numpy"],
                    "cpus": len(os.sched_getaffinity(0))},
        "trees": list(trees),
        "repeat": repeat,
        "rows": records,
    }


def validate(doc: dict) -> None:
    """Raise ValueError unless doc is a complete bench document."""
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"schema is {doc.get('schema')!r}, not {SCHEMA!r}")
    trees, repeat = doc["trees"], doc["repeat"]
    if not trees or repeat < 1:
        raise ValueError("no trees or no repeats")
    seen = set()
    for rec in doc["rows"]:
        call, _, _ = parse_row(rec["row"])
        if call == "startup" and not isinstance(rec["result"].get("scipy_loaded"), bool):
            raise ValueError(f"{rec['row']} {rec['tree']}: no scipy_loaded flag")
        if call == "bauer" and not isinstance(rec["result"].get("defect"), float):
            raise ValueError(f"{rec['row']} {rec['tree']}: no defect")
        if call == "classify" and not isinstance(rec["result"].get("final"), str):
            raise ValueError(f"{rec['row']} {rec['tree']}: no final verdict")
        if (call in ("singular_values", "examples", "verify")
                and not isinstance(rec["result"].get("digest"), str)):
            raise ValueError(f"{rec['row']} {rec['tree']}: no digest")
        if rec["tree"] not in trees:
            raise ValueError(f"row {rec['row']} from unknown tree {rec['tree']!r}")
        for key in ("wall_s", "max_rss_mb"):
            values = rec[key]
            if len(values) != repeat or not all(v > 0 for v in values):
                raise ValueError(f"{rec['row']} {rec['tree']}: bad {key} {values}")
            if rec[f"{key}_median"] != statistics.median(values):
                raise ValueError(f"{rec['row']} {rec['tree']}: {key}_median is stale")
        seen.add((rec["row"], rec["tree"]))
    rows = {rec["row"] for rec in doc["rows"]}
    missing = {(row, tree) for row in rows for tree in trees} - seen
    if missing:
        raise ValueError(f"rows missing on a tree: {sorted(missing)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--row", help="run this one row here and print its record")
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=PATH",
                    help="a source tree to measure; repeat for each tree")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--out", help="write the document here instead of stdout")
    args = ap.parse_args()
    if args.row:
        print(json.dumps(run_row(args.row)))
        return 0
    if not args.tree:
        ap.error("give --row, or at least one --tree")
    trees = {}
    for spec in args.tree:
        label, _, path = spec.partition("=")
        if not label or not path:
            ap.error(f"--tree takes LABEL=PATH, not {spec!r}")
        trees[label] = Path(path).resolve()
    doc = collect(ROWS, trees, args.repeat)
    validate(doc)
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
