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
to decide.  Exit 2 is decided once, in main: every invalid input surfaces
as a ValueError (PreconditionError and LinAlgError are subclasses) and any
other exception is a tool failure, exit 1.  Output is deterministic: every
JSON document and file goes through _render_json (sorted keys) and CSV
floats use a fixed format, so repeat runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .factor import PreconditionError
from .fixtures import (column_G, g_one_plus_z, g_poisson, g_poisson_double,
                       half_signature, lin_diag_G, matrix_recipe,
                       sarason_B_closed_form, sqrt_diag_G, twisted_contraction)
from .hayashi import (DEFAULT_LADDER, classify_kernel, construct_kernel,
                      embed_rect, gk_basis, pair_from_B,
                      pair_identity_defect, special_test)
from .nearly import (counterexample_UBU, is_nearly_invariant,
                     sarason_equivalence, section_defect, verify_lemma31)
from .symbols import (DEFAULT_CONFIG, MatrixSymbol, ToleranceConfig,
                      adjoint_flip, grid_points, symbol_mul)
from .toeplitz import (basis_from_matrix, build_toeplitz, kernel_angles,
                       kernel_basis, phase_gauge, subspace_angle)

PIVOT_COND = 1e6
DEFAULT_DEGREE = 64


# ---------------------------------------------------------------------------
# plumbing


def _parse_ladder(text: str) -> tuple:
    try:
        vals = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"ladder must be comma-separated integers: {text!r}")
    if len(vals) < 2 or vals[0] < 0 or any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("ladder needs at least two strictly increasing "
                         "non-negative degrees")
    return vals


def _run_config(args) -> None:
    """Replace args.ladder by its parsed degrees and add args.tolerance."""
    if args.degree < 1:
        raise ValueError("--degree must be positive")
    grid = args.grid
    if grid is not None and (grid & (grid - 1) or grid < 4 * (args.degree + 1)):
        raise ValueError("grid_size must be a power of two >= 4*(N+1)")
    # no --grid: 8, the smallest grid allowed, fitted to the degree
    args.tolerance = ToleranceConfig(grid or 8, args.rank_tol,
                                     args.residual_tol).with_degree(args.degree)
    args.ladder = _parse_ladder(args.ladder)
    if args.ladder[-1] > args.degree:
        raise ValueError("ladder top exceeds the working degree")


def _load_symbol(path: str) -> MatrixSymbol:
    try:
        with open(path) as fh:
            return MatrixSymbol.from_json_dict(json.load(fh))
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad symbol file {path}: {exc}")


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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _span_frame(F: np.ndarray) -> np.ndarray:
    """Orthonormal frame fixed by the span of F's columns, not by F itself.

    Pivot rows I are taken in coefficient order, skipping any row that
    would lift the condition number of F[I] above PIVOT_COND.  B = F F[I]^-1
    is the same for every basis of the span (B[I] is the identity), and its
    QR factor in the phase gauge is the frame, so roundoff that rotates F
    inside its span moves the frame only by roundoff times cond(F[I]).
    """
    piv = []
    for i in range(len(F)):
        if len(piv) == F.shape[1]:
            break
        s = np.linalg.svd(F[piv + [i]], compute_uv=False)
        if s[-1] * PIVOT_COND > s[0]:
            piv.append(i)
    q, _ = np.linalg.qr(F @ np.linalg.inv(F[piv]))
    return phase_gauge(q)


# ---------------------------------------------------------------------------
# classify / construct


def cmd_classify(args) -> int:
    G = _load_symbol(args.G)
    U = _load_symbol(args.U)
    rep = classify_kernel(G, U, args.degree, args.tolerance, args.ladder)
    symbol_ref = None
    if rep.symbol is not None and args.out is not None:
        symbol_ref = args.out + ".symbol.json"
        _emit(_render_json(rep.symbol.to_json_dict(), False), symbol_ref)
    doc = {
        "divisibility": {"verdict": rep.divisibility,
                         "defect": rep.divisibility_defect},
        "special": {"verdict": rep.special, "mass_gap": rep.mass_gap},
        "rigidity": {"verdict": rep.rigidity, "sigma_min": rep.sigma_ladder},
        "final": rep.final,
        "symbol_ref": symbol_ref,
        "cross_check_angle": rep.cross_check_angle,
        "ladder": {"N": args.ladder},
    }
    _emit(_render_json(doc, args.compact), args.out)
    return 3 if rep.final == "indeterminate" else 0


def cmd_construct(args) -> int:
    G0p = _load_symbol(args.G0prime)
    U = _load_symbol(args.U)
    tol = args.tolerance
    res = construct_kernel(G0p, U, args.degree, tol, args.ladder)
    angles = dict(zip(map(str, args.ladder), kernel_angles(
        res.phi, [gk_basis(res.G, U, n, tol) for n in args.ladder], tol)))
    doc = {
        "dim_F": res.F.size,
        "cross_check_angle": {"per_N": angles, "refined": res.angle_2N},
        "pair": {"special": res.pair.special, "mass_gap": res.pair.mass_gap},
        "rigidity": {"verdict": res.rigidity.verdict,
                     "sigma_min": list(res.rigidity.sigma_ladder)},
        "scale": MatrixSymbol.constant(res.scale).to_json_dict(),
        "ladder": {"N": args.ladder},
    }
    report = None
    if args.out is not None:
        files = {
            "G": res.G.to_json_dict(),
            "phi": res.phi.to_json_dict(),
            "basis": {"dim": res.F.dim, "degree": res.F.degree,
                      "elements": [[[v.real, v.imag] for v in col]
                                   for col in _span_frame(res.F.matrix).T]},
        }
        doc["artifacts"] = {key: f"{args.out}.{key}.json" for key in files}
        for key, part in files.items():
            _emit(_render_json(part, False), doc["artifacts"][key])
        report = args.out + ".report.json"
    _emit(_render_json(doc, args.compact), report)
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


def _check_kernel_identity(args):
    n_top = args.ladder[-1]
    fixtures = [
        ("unit-disc", MatrixSymbol.identity(1), MatrixSymbol.zero(1, 1)),
        ("one-plus-z", g_one_plus_z(), sarason_B_closed_form(n_top + 1).compress()),
        ("poisson-double", g_poisson_double(n_top),
         MatrixSymbol.scalar([0.0, 0.0, 0.5])),
    ]
    rows = []
    for name, G, B in fixtures:
        pts = _lemma31_points(G.rows)
        for n in args.ladder:
            rows.append((name, n, verify_lemma31(G, B, pts, n), 1e-6))
    return rows


def _check_section_identity(args):
    n_top = args.ladder[-1]
    fixtures = [
        ("one-plus-z", g_one_plus_z(),
         sarason_B_closed_form(4 * n_top + 1).compress()),
        ("poisson", g_poisson(4 * n_top), MatrixSymbol.scalar([0.0, 0.5])),
    ]
    rows = []
    for name, G, B in fixtures:
        for n in args.ladder:
            rows.append((name, n, section_defect(G, B, n), 1e-6))
    return rows


def _check_equivalence(args):
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
        for n in args.ladder:
            rep = sarason_equivalence(G, U, n, args.tolerance)
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


def _check_pair_identity(args):
    rows = []
    for n in args.ladder:
        for name, B in _pair_fixtures():
            pair = pair_from_B(B, n, args.tolerance)
            rows.append((name, n, pair_identity_defect(pair.B, pair.A,
                                                       args.tolerance), 1e-8))
    return rows


def _check_rebuilt_pair(args):
    fixtures = [
        ("scalar-shift", MatrixSymbol.monomial(1),
         MatrixSymbol.scalar([0.0, 0.5]),
         MatrixSymbol.constant([[np.sqrt(3) / 2]])),
        ("garcia-signature", matrix_recipe()[1], half_signature(),
         MatrixSymbol.constant(np.sqrt(3) / 2 * np.eye(2))),
    ]
    rows = []
    for name, U, B0, A in fixtures:
        for n in args.ladder:
            gap, _ = special_test(symbol_mul(U, B0), A, n, args.tolerance)
            rows.append((name, n, gap, 1e-7))
    return rows


def _check_outer_image(args):
    fixtures = [  # B at ladder degree n
        ("quadratic", lambda n: MatrixSymbol.scalar([0.0, 0.0, 0.5])),
        ("signature", lambda n: half_signature()),
        ("one-plus-z", lambda n: sarason_B_closed_form(n + 1).compress()),
    ]
    rows = []
    for name, B in fixtures:
        for n in args.ladder:
            pair = pair_from_B(B(n), n, args.tolerance)
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
            sol = np.linalg.lstsq(ta, rhs, rcond=args.tolerance.rank_tol)[0]
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


def cmd_verify(args) -> int:
    name = VERIFY_ALIASES.get(args.check, args.check)
    if name not in VERIFY_CHECKS:
        known = ", ".join(sorted(set(VERIFY_CHECKS) | set(VERIFY_ALIASES)))
        raise ValueError(f"unknown check {args.check!r}; choose from: {known}")
    rows = VERIFY_CHECKS[name](args)
    lines = ["fixture,N,residual,tolerance,pass"]
    for fixture, n, residual, tol in rows:
        ok = "true" if residual <= tol else "false"
        lines.append(f"{fixture},{n},{residual:.12e},{tol:.12e},{ok}")
    _emit("\n".join(lines) + "\n", args.out)
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


def _entry_halfpower(args) -> dict:
    K = args.tolerance.grid_size
    coarse = _halfpower_containment(K)
    fine = _halfpower_containment(2 * K)
    n = args.degree
    basis = basis_from_matrix(sqrt_diag_G(n).window(0, n).reshape(-1, 2), 2, n)
    nearly = is_nearly_invariant(basis, args.tolerance)
    ok = bool(nearly) and coarse <= 1e-4 and fine <= coarse
    return {"name": "halfpower-diagonal", "nearly_invariant": bool(nearly),
            "containment_residual": coarse, "containment_refined": fine,
            "tolerance": 1e-4, "pass": ok}


def _entry_linear_diagonal(args) -> dict:
    rep = classify_kernel(lin_diag_G(), MatrixSymbol.monomial(1, 2),
                          args.degree, args.tolerance, args.ladder)
    ok = rep.final == "not-kernel" and rep.cross_check_angle > 0.5
    return {"name": "linear-diagonal", "final": rep.final,
            "divisibility": rep.divisibility, "mass_gap": rep.mass_gap,
            "cross_check_angle": rep.cross_check_angle, "pass": bool(ok)}


def _entry_column_embedding(args) -> dict:
    emb = embed_rect(column_G(), MatrixSymbol.monomial(2), args.degree,
                     args.tolerance, args.ladder)
    ker = kernel_basis(build_toeplitz(emb.phi, 8), args.tolerance)
    target = np.zeros((18, 2))
    target[0, 0] = 1.0
    target[2, 1] = 1.0
    angle = subspace_angle(ker, basis_from_matrix(target, 2, 8))
    ok = (emb.classification.final == "is-kernel" and angle <= 1e-10
          and emb.ambient_angle <= 1e-6)
    return {"name": "column-embedding", "final": emb.classification.final,
            "kernel_angle": angle, "ambient_angle": emb.ambient_angle,
            "pass": bool(ok)}


def _entry_twisted(args) -> dict:
    theta = MatrixSymbol.monomial(1)
    mass_const = counterexample_UBU(theta, MatrixSymbol.scalar([0.5]),
                                    MatrixSymbol.scalar([0.0]), args.tolerance)
    mass_shift = counterexample_UBU(theta, MatrixSymbol.scalar([0.0, 0.5]),
                                    MatrixSymbol.scalar([0.0]), args.tolerance)
    ok = abs(mass_const - 0.5) <= 1e-10 and mass_shift <= 1e-10
    return {"name": "twisted-counterexample", "mass_constant": mass_const,
            "mass_shifted": mass_shift, "pass": bool(ok)}


def _entry_flagship(args) -> dict:
    n = args.degree
    try:
        rep = classify_kernel(g_poisson_double(n), MatrixSymbol.monomial(1), n,
                              args.tolerance, args.ladder)
        final, gap = rep.final, rep.mass_gap
    except PreconditionError:
        # below degree ~24 the truncated G is not orthonormal enough to test
        final, gap = "indeterminate", float("nan")
    res = construct_kernel(g_poisson(n), MatrixSymbol.monomial(1), n,
                           args.tolerance, args.ladder)
    g_err = (res.G - g_poisson_double(n)).norm_l2()
    angle = max(res.angle_N, res.angle_2N)
    ok = (final == "is-kernel" and g_err <= 1e-8 and angle <= 1e-5)
    return {"name": "poisson-flagship", "final": final,
            "mass_gap": gap, "construction_error": g_err,
            "cross_check_angle": angle, "pass": bool(ok)}


def _entry_matrix_recipe(args) -> dict:
    seed, U = matrix_recipe()
    res = construct_kernel(seed, U, args.degree, args.tolerance, args.ladder)
    angle = max(res.angle_N, res.angle_2N)
    ok = res.F.size == 3 and angle <= 1e-5
    return {"name": "matrix-recipe", "dim_F": res.F.size,
            "cross_check_angle": angle, "pass": bool(ok)}


def cmd_examples(args) -> int:
    entries = [
        _entry_halfpower(args),
        _entry_linear_diagonal(args),
        _entry_column_embedding(args),
        _entry_twisted(args),
        _entry_flagship(args),
        _entry_matrix_recipe(args),
    ]
    doc = {"degree": args.degree, "entries": entries}
    _emit(_render_json(doc, args.compact), args.out)
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
        sp.add_argument("--degree", type=int, default=DEFAULT_DEGREE,
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
        _run_config(args)
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # invalid input or a violated precondition
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # tool failure, not a mathematical verdict
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
