"""Command-line front end: symbol files in, JSON reports and CSV ladders out.

Four commands. ``examples`` runs the bundled worked examples and prints one
JSON entry per example. ``classify`` reads two symbol files (G, U) and runs
the kernel classification pipeline. ``construct`` reads a seed outer function
and an inner U and runs the constructive recipe, optionally writing the
artifacts. ``verify`` re-checks one of the named operator identities over the
degree ladder and emits CSV.

Exit codes: 0 on success (mathematical verdicts such as "not-kernel" are
results, not failures), 2 on invalid input (bad files, bad flags, violated
preconditions, unknown verify name), 3 when the classification is still
indeterminate at the top of the ladder, including a truncation too coarse
to decide.  Output is deterministic: JSON is emitted with sorted keys and
CSV floats use a fixed format, so repeat runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .factor import PreconditionError
from .fixtures import (column_G, g_one_plus_z, g_poisson, g_poisson_double,
                       half_signature, lin_diag_G, matrix_recipe, sqrt_diag_G,
                       twisted_contraction)
from .hayashi import (DEFAULT_LADDER, classify_kernel, construct_kernel,
                      embed_rect, gk_basis, pair_from_B,
                      pair_identity_defect, special_test)
from .nearly import (counterexample_UBU, is_nearly_invariant,
                     sarason_equivalence, section_defect, verify_lemma31)
from .symbols import (DEFAULT_CONFIG, MatrixSymbol, ToleranceConfig,
                      adjoint_flip, grid_points, series_inverse, symbol_mul)
from .toeplitz import (basis_from_matrix, build_toeplitz, kernel_angle,
                       kernel_basis, subspace_angle)


class CliError(Exception):
    """Invocation-level failure carrying the process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: numerical policy plus ladder and output routing."""

    tolerance: ToleranceConfig
    ladder: tuple
    out: str | None
    compact: bool


# ---------------------------------------------------------------------------
# plumbing


def _parse_ladder(text: str) -> tuple:
    try:
        vals = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CliError(2, f"ladder must be comma-separated integers: {text!r}")
    if len(vals) < 2 or vals[0] < 0 or any(b <= a for a, b in zip(vals, vals[1:])):
        raise CliError(2, "ladder needs at least two strictly increasing "
                          "non-negative degrees")
    return vals


def _run_config(args) -> RunConfig:
    try:
        grid = args.grid
        if grid is None:
            grid = DEFAULT_CONFIG.with_degree(args.degree).grid_size
        tol = ToleranceConfig(args.degree, grid, args.rank_tol,
                              args.residual_tol)
    except ValueError as exc:
        raise CliError(2, str(exc))
    ladder = _parse_ladder(args.ladder)
    if ladder[-1] > tol.trunc_degree:
        raise CliError(2, "ladder top exceeds the working degree")
    return RunConfig(tol, ladder, args.out, args.compact)


def _load_symbol(path: str) -> MatrixSymbol:
    try:
        with open(path) as fh:
            return MatrixSymbol.from_json_dict(json.load(fh))
    except FileNotFoundError:
        raise CliError(2, f"no such file: {path}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(2, f"bad symbol file {path}: {exc}")


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        v = float(x)
        return v if np.isfinite(v) else None
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    return x


def _render_json(doc, compact: bool) -> str:
    doc = _jsonable(doc)
    if compact:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_symbol(path: str, sym: MatrixSymbol) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(sym.to_json_dict(), sort_keys=True, indent=2) + "\n")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# classify / construct


def cmd_classify(args, run: RunConfig) -> int:
    G = _load_symbol(args.G)
    U = _load_symbol(args.U)
    try:
        rep = classify_kernel(G, U, run.tolerance.trunc_degree, run.tolerance,
                              run.ladder)
    except (PreconditionError, ValueError) as exc:
        raise CliError(2, str(exc))
    symbol_ref = None
    if rep.symbol is not None and run.out is not None:
        side = run.out + ".symbol.json"
        _write_symbol(side, rep.symbol)
        symbol_ref = side
    doc = rep.to_json_dict(symbol_ref)
    _emit(_render_json(doc, run.compact), run.out)
    return 3 if rep.final == "indeterminate" else 0


def cmd_construct(args, run: RunConfig) -> int:
    G0p = _load_symbol(args.G0prime)
    U = _load_symbol(args.U)
    tol = run.tolerance
    try:
        res = construct_kernel(G0p, U, tol.trunc_degree, tol, run.ladder)
        angles = {str(n): kernel_angle(res.phi, gk_basis(res.G, U, n, tol), tol)
                  for n in run.ladder}
    except (PreconditionError, ValueError) as exc:
        raise CliError(2, str(exc))
    doc = {
        "dim_F": res.F.size,
        "cross_check_angle": {"per_N": angles, "refined": res.angle_2N},
        "pair": {"special": res.pair.special, "mass_gap": res.pair.mass_gap},
        "rigidity": {"verdict": res.rigidity.verdict,
                     "sigma_min": list(res.rigidity.sigma_ladder)},
        "scale": MatrixSymbol.constant(res.scale).to_json_dict(),
        "ladder": {"N": list(run.ladder)},
    }
    if run.out is not None:
        _write_symbol(run.out + ".G.json", res.G)
        _write_symbol(run.out + ".phi.json", res.phi)
        basis_doc = {
            "dim": res.F.dim,
            "degree": res.F.degree,
            "elements": [[[float(v.real), float(v.imag)] for v in col]
                         for col in res.F.matrix.T],
        }
        with open(run.out + ".basis.json", "w") as fh:
            fh.write(json.dumps(basis_doc, sort_keys=True, indent=2) + "\n")
        doc["artifacts"] = {
            "G": run.out + ".G.json",
            "phi": run.out + ".phi.json",
            "basis": run.out + ".basis.json",
        }
        _emit(_render_json(doc, run.compact), run.out + ".report.json")
    else:
        _emit(_render_json(doc, run.compact), None)
    return 0


# ---------------------------------------------------------------------------
# verify checks: each returns rows (fixture, N, residual, tolerance)


def _lemma31_points(m: int):
    e0 = np.zeros(m)
    e0[0] = 1.0
    u = e0
    v = e0 if m == 1 else np.roll(e0, 1)
    return [(0.30, u, -0.45, u), (0.20j, u, 0.50, v),
            (-0.35, v, 0.15 + 0.25j, u)]


def _check_kernel_identity(run: RunConfig):
    n_top = run.ladder[-1]
    fixtures = [
        ("unit-disc", MatrixSymbol.identity(1), MatrixSymbol.zero(1, 1)),
        ("one-plus-z", g_one_plus_z(),
         symbol_mul(MatrixSymbol.monomial(1),
                    series_inverse(MatrixSymbol.scalar([2.0, 1.0]), n_top))),
        ("poisson-double", g_poisson_double(n_top),
         MatrixSymbol.scalar([0.0, 0.0, 0.5])),
    ]
    rows = []
    for name, G, B in fixtures:
        pts = _lemma31_points(G.rows)
        for n in run.ladder:
            res = verify_lemma31(G, B, pts, run.tolerance.with_degree(n))
            rows.append((name, n, res, 1e-6))
    return rows


def _check_section_identity(run: RunConfig):
    n_top = run.ladder[-1]
    fixtures = [
        ("one-plus-z", g_one_plus_z(),
         symbol_mul(MatrixSymbol.monomial(1),
                    series_inverse(MatrixSymbol.scalar([2.0, 1.0]), 4 * n_top))),
        ("poisson", g_poisson(4 * n_top), MatrixSymbol.scalar([0.0, 0.5])),
    ]
    rows = []
    for name, G, B in fixtures:
        for n in run.ladder:
            rows.append((name, n, section_defect(G, B, n), 1e-6))
    return rows


def _check_equivalence(run: RunConfig):
    """Positive fixtures: the three criteria agree near zero.  The negative
    fixture pins the isometry defect at exactly one half."""
    fixtures = [
        ("one-plus-z:shift", g_one_plus_z(), MatrixSymbol.monomial(1), None),
        ("identity-pair", MatrixSymbol.identity(2), MatrixSymbol.monomial(1, 2),
         None),
        ("one-plus-z:double-shift", g_one_plus_z(), MatrixSymbol.monomial(2),
         0.5),
    ]
    rows = []
    for name, G, U, pinned in fixtures:
        for n in run.ladder:
            rep = sarason_equivalence(G, U, n, run.tolerance)
            if pinned is None:
                defects = (rep.isometry_defect, rep.divisibility_defect,
                           rep.annihilation_defect)
                rows.append((name, n, max(defects) - min(defects), 1e-6))
            else:
                rows.append((name, n, abs(rep.isometry_defect - pinned), 1e-6))
    return rows


def _pair_fixtures():
    return [
        ("quadratic", MatrixSymbol.scalar([0.0, 0.0, 0.5])),
        ("signature", half_signature()),
        ("twisted", twisted_contraction(
            MatrixSymbol.scalar([0.0, 0.5]),
            MatrixSymbol.scalar([0.0, 0.0, 0.25]))),
    ]


def _check_pair_identity(run: RunConfig):
    rows = []
    for n in run.ladder:
        for name, B in _pair_fixtures():
            pair = pair_from_B(B, n, run.tolerance)
            rows.append((name, n, pair_identity_defect(pair.B, pair.A,
                                                       run.tolerance), 1e-8))
    return rows


def _check_rebuilt_pair(run: RunConfig):
    fixtures = [
        ("scalar-shift", MatrixSymbol.monomial(1),
         MatrixSymbol.scalar([0.0, 0.5]),
         MatrixSymbol.constant([[np.sqrt(3) / 2]])),
        ("garcia-signature", matrix_recipe()[1], half_signature(),
         MatrixSymbol.constant(np.sqrt(3) / 2 * np.eye(2))),
    ]
    rows = []
    for name, U, B0, A in fixtures:
        for n in run.ladder:
            gap, _ = special_test(symbol_mul(U, B0), A, n, run.tolerance)
            rows.append((name, n, gap, 1e-7))
    return rows


def _check_outer_image(run: RunConfig):
    fixtures = [
        ("quadratic", MatrixSymbol.scalar([0.0, 0.0, 0.5])),
        ("signature", half_signature()),
        ("one-plus-z", None),
    ]
    rows = []
    for name, B in fixtures:
        for n in run.ladder:
            if B is None:
                b0 = series_inverse(MatrixSymbol.scalar([2.0, 1.0]), n)
                pair_B = symbol_mul(MatrixSymbol.monomial(1), b0)
                pair = pair_from_B(pair_B, n, run.tolerance)
            else:
                pair = pair_from_B(B, n, run.tolerance)
            m = pair.A.rows
            ta = build_toeplitz(adjoint_flip(pair.A), n).matrix
            tb = build_toeplitz(adjoint_flip(pair.B), n).matrix
            rng = np.random.default_rng(5)
            # eight test polynomials of degree min(5, n), as the columns of
            # an m x 8 symbol
            c = np.stack([rng.standard_normal((6, m))
                          + 1j * rng.standard_normal((6, m)) for _ in range(8)],
                         axis=2)
            h = symbol_mul(pair.A, MatrixSymbol(m, 8, 0, c[:n + 1])).window(0, n)
            rhs = tb @ h.reshape(-1, 8)
            sol = np.linalg.lstsq(ta, rhs, rcond=run.tolerance.rank_tol)[0]
            worst = float(np.max(np.linalg.norm(ta @ sol - rhs, axis=0)))
            rows.append((name, n, worst, 1e-8))
    return rows


VERIFY_CHECKS = {
    "lemma31": _check_kernel_identity,
    "thm34": _check_section_identity,
    "thm35": _check_equivalence,
    "pair-identity": _check_pair_identity,
    "cor53": _check_rebuilt_pair,
    "prop52": _check_outer_image,
}

VERIFY_ALIASES = {
    "kernel-identity": "lemma31",
    "section-identity": "thm34",
    "equivalence": "thm35",
    "rebuilt-pair": "cor53",
    "outer-image": "prop52",
}


def cmd_verify(args, run: RunConfig) -> int:
    name = VERIFY_ALIASES.get(args.check, args.check)
    if name not in VERIFY_CHECKS:
        known = ", ".join(sorted(set(VERIFY_CHECKS) | set(VERIFY_ALIASES)))
        raise CliError(2, f"unknown check {args.check!r}; choose from: {known}")
    try:
        rows = VERIFY_CHECKS[name](run)
    except (PreconditionError, ValueError) as exc:
        raise CliError(2, str(exc))
    lines = ["fixture,N,residual,tolerance,pass"]
    for fixture, n, residual, tol in rows:
        ok = "true" if residual <= tol else "false"
        lines.append(f"{fixture},{n},{residual:.12e},{tol:.12e},{ok}")
    _emit("\n".join(lines) + "\n", run.out)
    return 0


# ---------------------------------------------------------------------------
# bundled examples


def _halfpower_containment(K: int) -> float:
    """Sampled-boundary analytic mass of phi G e for the half-power diagonal.

    The diagonal entries are branch powers with no finite expansion, so the
    kernel containment is checked on boundary samples: for f = G e the image
    phi f equals conj(U G) e, whose analytic Fourier modes must vanish.  The
    sampled means approximate those modes; the defect decays as the grid is
    refined.
    """
    xi = grid_points(K)
    gbar = np.stack([np.conj(0.5 * np.sqrt(1.0 + xi)),
                     np.conj(0.5 * np.sqrt(1.0 - xi))])
    worst = 0.0
    for e in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        img = np.conj(xi) * gbar * np.array(e)[:, None]
        coef = np.stack([
            np.array([np.mean(ch * xi ** (-m)) for m in range(8)])
            for ch in img])
        worst = max(worst, float(np.linalg.norm(coef)))
    return worst


def _entry_halfpower(run: RunConfig) -> dict:
    K = run.tolerance.grid_size
    coarse = _halfpower_containment(K)
    fine = _halfpower_containment(2 * K)
    n = run.tolerance.trunc_degree
    basis = basis_from_matrix(sqrt_diag_G(n).window(0, n).reshape(-1, 2), 2, n)
    nearly = is_nearly_invariant(basis, run.tolerance)
    ok = bool(nearly) and coarse <= 1e-4 and fine <= coarse
    return {"name": "halfpower-diagonal", "nearly_invariant": bool(nearly),
            "containment_residual": coarse, "containment_refined": fine,
            "tolerance": 1e-4, "pass": ok}


def _entry_linear_diagonal(run: RunConfig) -> dict:
    rep = classify_kernel(lin_diag_G(), MatrixSymbol.monomial(1, 2),
                          run.tolerance.trunc_degree, run.tolerance,
                          run.ladder)
    ok = rep.final == "not-kernel" and rep.cross_check_angle > 0.5
    return {"name": "linear-diagonal", "final": rep.final,
            "divisibility": rep.divisibility, "mass_gap": rep.mass_gap,
            "cross_check_angle": rep.cross_check_angle, "pass": bool(ok)}


def _entry_column_embedding(run: RunConfig) -> dict:
    emb = embed_rect(column_G(), MatrixSymbol.monomial(2),
                     run.tolerance.trunc_degree, run.tolerance, run.ladder)
    ker = kernel_basis(build_toeplitz(emb.phi, 8), run.tolerance)
    target = np.zeros((18, 2))
    target[0, 0] = 1.0
    target[2, 1] = 1.0
    angle = subspace_angle(ker, basis_from_matrix(target, 2, 8))
    ok = (emb.classification.final == "is-kernel" and angle <= 1e-10
          and emb.ambient_angle <= 1e-6)
    return {"name": "column-embedding", "final": emb.classification.final,
            "kernel_angle": angle, "ambient_angle": emb.ambient_angle,
            "pass": bool(ok)}


def _entry_twisted(run: RunConfig) -> dict:
    theta = MatrixSymbol.monomial(1)
    mass_const = counterexample_UBU(theta, MatrixSymbol.scalar([0.5]),
                                    MatrixSymbol.scalar([0.0]), run.tolerance)
    mass_shift = counterexample_UBU(theta, MatrixSymbol.scalar([0.0, 0.5]),
                                    MatrixSymbol.scalar([0.0]), run.tolerance)
    ok = abs(mass_const - 0.5) <= 1e-10 and mass_shift <= 1e-10
    return {"name": "twisted-counterexample", "mass_constant": mass_const,
            "mass_shifted": mass_shift, "pass": bool(ok)}


def _entry_flagship(run: RunConfig) -> dict:
    n = run.tolerance.trunc_degree
    try:
        rep = classify_kernel(g_poisson_double(n), MatrixSymbol.monomial(1), n,
                              run.tolerance, run.ladder)
        final, gap = rep.final, rep.mass_gap
    except PreconditionError:
        # below degree ~24 the truncated G is not orthonormal enough to test
        final, gap = "indeterminate", float("nan")
    res = construct_kernel(g_poisson(n), MatrixSymbol.monomial(1), n,
                           run.tolerance, run.ladder)
    g_err = (res.G - g_poisson_double(n)).norm_l2()
    angle = max(res.angle_N, res.angle_2N)
    ok = (final == "is-kernel" and g_err <= 1e-8 and angle <= 1e-5)
    return {"name": "poisson-flagship", "final": final,
            "mass_gap": gap, "construction_error": g_err,
            "cross_check_angle": angle, "pass": bool(ok)}


def _entry_matrix_recipe(run: RunConfig) -> dict:
    seed, U = matrix_recipe()
    res = construct_kernel(seed, U, run.tolerance.trunc_degree, run.tolerance,
                           run.ladder)
    angle = max(res.angle_N, res.angle_2N)
    ok = res.F.size == 3 and angle <= 1e-5
    return {"name": "matrix-recipe", "dim_F": res.F.size,
            "cross_check_angle": angle, "pass": bool(ok)}


def cmd_examples(args, run: RunConfig) -> int:
    try:
        entries = [
            _entry_halfpower(run),
            _entry_linear_diagonal(run),
            _entry_column_embedding(run),
            _entry_twisted(run),
            _entry_flagship(run),
            _entry_matrix_recipe(run),
        ]
    except (PreconditionError, ValueError) as exc:
        raise CliError(2, str(exc))
    doc = {"degree": run.tolerance.trunc_degree, "entries": entries}
    _emit(_render_json(doc, run.compact), run.out)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toepkern",
        description="Toeplitz kernels, nearly invariant subspaces, and "
                    "inner-outer certification.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--degree", type=int,
                        default=DEFAULT_CONFIG.trunc_degree,
                        help="working truncation degree N")
        sp.add_argument("--grid", type=int, default=None,
                        help="boundary sample count (power of two; default: "
                             "the smallest valid grid for --degree)")
        sp.add_argument("--rank-tol", type=float,
                        default=DEFAULT_CONFIG.rank_tol)
        sp.add_argument("--residual-tol", type=float,
                        default=DEFAULT_CONFIG.residual_tol)
        sp.add_argument("--ladder", type=str,
                        default=",".join(map(str, DEFAULT_LADDER)),
                        help="comma-separated increasing degrees")
        sp.add_argument("--out", type=str, default=None,
                        help="write output to this path (construct: prefix)")
        sp.add_argument("--json", action="store_true", dest="compact",
                        help="compact single-line JSON")

    sp = sub.add_parser("examples", help="run the bundled worked examples")
    common(sp)
    sp = sub.add_parser("classify", help="classify F = G K_U")
    sp.add_argument("G", help="symbol file for the outer factor G")
    sp.add_argument("U", help="symbol file for the inner function U")
    common(sp)
    sp = sub.add_parser("construct", help="build a kernel from a seed")
    sp.add_argument("G0prime", help="symbol file for the reduced outer seed")
    sp.add_argument("U", help="symbol file for the inner function U")
    common(sp)
    sp = sub.add_parser("verify", help="re-check a named identity over the ladder")
    sp.add_argument("check", help="lemma31 | thm34 | thm35 | pair-identity | "
                                  "cor53 | prop52 (descriptive aliases accepted)")
    common(sp)
    return p


_COMMANDS = {
    "examples": cmd_examples,
    "classify": cmd_classify,
    "construct": cmd_construct,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        run = _run_config(args)
        return _COMMANDS[args.command](args, run)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # tool failure, not a mathematical verdict
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
