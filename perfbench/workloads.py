"""Benchmark workloads: inputs made from a seed, the timed calls, their checks.

Every workload is a fixed list of calls into ``toepkern``.  A call has a
timed part (library calls only) and an untimed check of what it returned;
the check yields the failure reasons that feed ``pass_rate``.  Library
functions are looked up on the module at call time so that the traced run
sees them through its wrappers.

The seed picks unimodular diagonal phases D (G -> D G for classify and
embed, G0' -> D G0' for construct) and the order of the calls within each
pass.  Only diagonal phases are used: a non-diagonal constant unitary V
breaks the pair identity of G -> V G and changes the verdicts.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import toepkern
import toepkern.cli
from toepkern import fixtures
from toepkern.hayashi import ANGLE_TOL
from toepkern.symbols import MatrixSymbol, ToleranceConfig

CONSTRUCT_ANGLE_TOL = 1e-5
PAIR_DEFECT_TOL = 1e-8
SPECIAL_VERDICTS = ("special", "not-special", "indeterminate")

# pass column of each `toepkern verify` check at the default ladder
# 16,32,64, as printed by the library this benchmark was written against
VERIFY_PASS = {
    "lemma31": "ttt ttt ftt",
    "thm34": "ttt fft",
    "thm35": "ttt ttt ttt",
    "pair-identity": "ttt ttt ttt",
    "cor53": "ttt ttt",
    "prop52": "ttt ttt ttt",
}


@dataclass
class Call:
    """One timed library call and the untimed check of its result."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    verdict: Callable[[Any], Any]


def _cfg(n):
    return ToleranceConfig().with_degree(n)


def _phases(rng, m):
    return np.diag(np.exp(2j * np.pi * rng.random(m)))


def _rotate(D, G):
    return MatrixSymbol(G.rows, G.cols, G.min_deg, np.matmul(D[None], G.coeffs))


def _expect(label, got, want):
    return [] if got == want else [f"{label}: {got!r}, expected {want!r}"]


def _at_most(label, value, limit):
    return [] if value <= limit else [f"{label}: {value!r} > {limit!r}"]


# -- classify-deep ------------------------------------------------------------

def _classify_verdict(rep):
    return (rep.final, rep.divisibility, rep.special, rep.rigidity)


def _classify_deep(rng):
    n, n_embed = 512, 256
    lin = _rotate(_phases(rng, 2), fixtures.lin_diag_G())
    flag = _rotate(_phases(rng, 1), fixtures.g_poisson_double(n))
    col = _rotate(_phases(rng, 2), fixtures.column_G())
    z, z2, zI2 = (MatrixSymbol.monomial(1), MatrixSymbol.monomial(2),
                  MatrixSymbol.monomial(1, 2))

    def check_lin(rep):
        return _expect("verdicts", _classify_verdict(rep),
                       ("not-kernel", "divisible", "not-special", "non-rigid"))

    def check_flag(rep):
        return (_expect("final", rep.final, "is-kernel")
                + _at_most("cross-check angle", rep.cross_check_angle, ANGLE_TOL))

    def check_embed(emb):
        return (_expect("final", emb.classification.final, "is-kernel")
                + _at_most("ambient angle", emb.ambient_angle, 1e-6))

    return [
        Call("classify.linear-diagonal",
             lambda: toepkern.classify_kernel(lin, zI2, n, _cfg(n)),
             check_lin, _classify_verdict),
        Call("classify.flagship",
             lambda: toepkern.classify_kernel(flag, z, n, _cfg(n)),
             check_flag, _classify_verdict),
        Call("embed.column",
             lambda: toepkern.embed_rect(col, z2, n_embed, _cfg(n_embed)),
             check_embed, lambda emb: _classify_verdict(emb.classification)),
    ]


# -- construct-deep -----------------------------------------------------------

def _construct_verdict(res):
    return (res.F.size, res.pair.special, res.rigidity.verdict)


def _recipe_inputs():
    """Constant seed and z * garcia_inner U of the CLI's matrix-recipe example."""
    C = np.diag([0.5, -0.5])
    scale = np.linalg.inv(np.eye(2) - C) @ np.diag(np.sqrt(1.0 - np.diag(C) ** 2))
    core = toepkern.garcia_inner(MatrixSymbol.monomial(1),
                                 MatrixSymbol.scalar([0.5, 0.5]),
                                 MatrixSymbol.scalar([0.5, -0.5]))
    return scale, toepkern.symbol_mul(MatrixSymbol.monomial(1, 2), core)


def _construct_deep(rng):
    n, n_recipe = 512, 256
    seed = _rotate(_phases(rng, 1), fixtures.g_poisson(n))
    target = fixtures.g_poisson_double(n)
    scale, U = _recipe_inputs()
    recipe_seed = MatrixSymbol.constant(_phases(rng, 2) @ scale)
    twisted = dict(toepkern.cli._pair_fixtures())["twisted"]
    z = MatrixSymbol.monomial(1)

    def angles(res):
        return (_at_most("angle N", res.angle_N, CONSTRUCT_ANGLE_TOL)
                + _at_most("angle 2N", res.angle_2N, CONSTRUCT_ANGLE_TOL))

    def check_flagship(res):
        return _at_most("|G - G_double|", (res.G - target).norm_l2(), 1e-8) + angles(res)

    def check_recipe(res):
        return _expect("dim F", res.F.size, 3) + angles(res)

    def run_pair():
        pair = toepkern.pair_from_B(twisted, n, _cfg(n))
        return pair, toepkern.pair_identity_defect(pair.B, pair.A, _cfg(n))

    def check_pair(out):
        pair, defect = out
        a0 = pair.A.coeff(0)
        herm = float(np.linalg.norm(a0 - a0.conj().T))
        low = float(np.min(np.linalg.eigvalsh((a0 + a0.conj().T) / 2)))
        # the special verdict is not pinned: only the invariants that hold
        # whichever way special_test forms G0'
        fails = _at_most("pair identity defect", defect, PAIR_DEFECT_TOL)
        fails += _at_most("A(0) non-Hermitian part", herm, 1e-10 * np.linalg.norm(a0))
        fails += [] if low > 0 else [f"A(0) not positive definite: {low!r}"]
        if pair.special not in SPECIAL_VERDICTS:
            fails.append(f"unknown special verdict {pair.special!r}")
        return fails

    return [
        Call("construct.flagship",
             lambda: toepkern.construct_kernel(seed, z, n, _cfg(n)),
             check_flagship, _construct_verdict),
        Call("construct.matrix-recipe",
             lambda: toepkern.construct_kernel(recipe_seed, U, n_recipe,
                                               _cfg(n_recipe)),
             check_recipe, _construct_verdict),
        Call("pair.twisted", run_pair, check_pair,
             lambda out: (out[0].special,)),
    ]


# -- cli-small ----------------------------------------------------------------

def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = toepkern.cli.main(argv)
    return code, buf.getvalue()


def _cli_small(rng):
    reference = {}

    def deterministic(key, out):
        first = reference.setdefault(key, out)
        return [] if out == first else ["output differs from the first call"]

    def check_examples(res):
        code, out = res
        fails = _expect("exit code", code, 0) + deterministic("examples", out)
        entries = json.loads(out)["entries"] if code == 0 else []
        fails += [f"{e['name']}: pass false" for e in entries if not e["pass"]]
        return fails

    def examples_verdict(res):
        return tuple(e["pass"] for e in json.loads(res[1])["entries"])

    def verify_call(check):
        want = VERIFY_PASS[check].replace(" ", "")

        def rows(out):
            lines = out.strip().splitlines()[1:]
            return "".join(line.rsplit(",", 1)[1][0] for line in lines)

        def check_rows(res):
            code, out = res
            return (_expect("exit code", code, 0) + deterministic(check, out)
                    + _expect("pass column", rows(out), want))

        return Call(f"verify.{check}", lambda: _cli(["verify", check]),
                    check_rows, lambda res: rows(res[1]))

    examples = ["examples", "--degree", "64"]
    return [
        Call("examples.1", lambda: _cli(examples), check_examples, examples_verdict),
        # a second identical call: its output must match the first byte for byte
        Call("examples.2", lambda: _cli(examples), check_examples, examples_verdict),
    ] + [verify_call(check) for check in VERIFY_PASS]


_WORKLOADS = {
    "classify-deep": _classify_deep,
    "construct-deep": _construct_deep,
    "cli-small": _cli_small,
}


def build(workload: str, rng: np.random.Generator) -> list:
    """Inputs and calls of one workload; the phases come from rng."""
    return _WORKLOADS[workload](rng)
