"""Command-line behaviour: exit codes, CSV/JSON shapes, determinism.

All invocations go through cli.main(argv) directly; stdout and stderr are
captured with capsys.  Symbol inputs are written to tmp_path as JSON.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from toepkern import MatrixSymbol
from toepkern.cli import main
from toepkern.factor import is_inner
from toepkern.fixtures import (column_G, g_poisson, g_poisson_double, lin_diag_G,
                               matrix_recipe)
from toepkern.hayashi import ClassificationReport


def dump(tmp_path, name, sym):
    p = tmp_path / name
    p.write_text(json.dumps(sym.to_json_dict()))
    return str(p)


def rows_of(csv_text):
    lines = csv_text.strip().splitlines()
    assert lines[0] == "fixture,N,residual,tolerance,pass"
    out = []
    for line in lines[1:]:
        fixture, n, res, tol, ok = line.split(",")
        out.append((fixture, int(n), float(res), float(tol), ok == "true"))
    return out


# ---------------------------------------------------------------------------
# verify


def test_verify_pair_identity_rows(capsys):
    assert main(["verify", "pair-identity"]) == 0
    rows = rows_of(capsys.readouterr().out)
    assert len(rows) == 9
    assert all(ok for *_, ok in rows)
    assert all(res <= 1e-10 for _, _, res, _, _ in rows)


def test_verify_alias_matches_token(capsys):
    assert main(["verify", "cor53"]) == 0
    via_token = capsys.readouterr().out
    assert main(["verify", "rebuilt-pair"]) == 0
    assert capsys.readouterr().out == via_token


def test_verify_section_identity_converges(capsys):
    assert main(["verify", "thm34"]) == 0
    rows = rows_of(capsys.readouterr().out)
    flat = [r for r in rows if r[0] == "one-plus-z"]
    assert all(res <= 1e-12 for _, _, res, _, _ in flat)
    decay = [res for name, _, res, _, _ in rows if name == "poisson"]
    assert decay[0] > decay[1] > decay[2]
    assert rows[-1][4]


def test_verify_kernel_identity_rows(capsys):
    assert main(["verify", "kernel-identity"]) == 0
    rows = rows_of(capsys.readouterr().out)
    assert len(rows) == 9
    top = [r for r in rows if r[1] == 64]
    assert all(ok for *_, ok in top)


def test_verify_equivalence_all_pass(capsys):
    assert main(["verify", "thm35"]) == 0
    rows = rows_of(capsys.readouterr().out)
    names = {name for name, *_ in rows}
    assert "one-plus-z:double-shift" in names
    assert all(ok for *_, ok in rows)


def test_verify_outer_image_all_pass(capsys):
    assert main(["verify", "prop52"]) == 0
    assert all(ok for *_, ok in rows_of(capsys.readouterr().out))


def test_verify_outer_image_below_degree_5(capsys):
    # the test polynomial is cut to degree min(5, N); N >= 5 rows keep it
    assert main(["verify", "prop52", "--degree", "8", "--ladder", "4,6"]) == 0
    low = rows_of(capsys.readouterr().out)
    assert [n for _, n, *_ in low] == [4, 6] * 3
    assert all(ok for *_, ok in low)
    assert main(["verify", "prop52", "--degree", "8", "--ladder", "6,8"]) == 0
    high = rows_of(capsys.readouterr().out)
    assert [r for r in low if r[1] == 6] == [r for r in high if r[1] == 6]


def test_verify_failed_precondition_exits_2(capsys):
    # U = z^2 needs N >= 2
    assert main(["verify", "thm35", "--degree", "4", "--ladder", "0,2"]) == 2
    assert "N too small" in capsys.readouterr().err


def test_verify_unknown_name_exits_2(capsys):
    assert main(["verify", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown check" in err and "lemma31" in err


def test_verify_writes_file(tmp_path, capsys):
    out = tmp_path / "ladder.csv"
    assert main(["verify", "pair-identity", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert rows_of(out.read_text())


def test_verify_custom_ladder(capsys):
    assert main(["verify", "pair-identity", "--ladder", "8,24"]) == 0
    rows = rows_of(capsys.readouterr().out)
    assert sorted({n for _, n, *_ in rows}) == [8, 24]


# ---------------------------------------------------------------------------
# classify / construct


def test_classify_flagship(tmp_path, capsys):
    g = dump(tmp_path, "g.json", g_poisson_double(64))
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    assert main(["classify", g, u]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["final"] == "is-kernel"
    assert doc["symbol_ref"] is None
    assert doc["ladder"] == {"N": [16, 32, 64]}
    assert doc["special"]["mass_gap"] <= 1e-8


def test_classify_compact_json_deterministic(tmp_path, capsys):
    g = dump(tmp_path, "g.json", g_poisson_double(64))
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    assert main(["classify", g, u, "--json"]) == 0
    first = capsys.readouterr().out
    assert first.count("\n") == 1
    assert main(["classify", g, u, "--json"]) == 0
    assert capsys.readouterr().out == first


def test_classify_not_kernel_still_exit_0(tmp_path, capsys):
    g = dump(tmp_path, "g.json", lin_diag_G())
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1, 2))
    assert main(["classify", g, u]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["final"] == "not-kernel"
    assert doc["divisibility"]["verdict"] == "divisible"
    assert doc["cross_check_angle"] > 0.5


def test_classify_out_writes_report_and_sidecar(tmp_path, capsys):
    g = dump(tmp_path, "g.json", g_poisson_double(64))
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    out = tmp_path / "report.json"
    assert main(["classify", g, u, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    side = str(out) + ".symbol.json"
    assert doc["symbol_ref"] == side
    phi = MatrixSymbol.from_json_dict(json.loads(Path(side).read_text()))
    assert phi.min_deg < 0 <= phi.max_deg


def test_classify_rank_deficient_U_exits_2(tmp_path, capsys):
    g = dump(tmp_path, "g.json", lin_diag_G())
    u = dump(tmp_path, "u.json",
             MatrixSymbol.constant([[1.0, 0.0], [0.0, 0.0]]))
    assert main(["classify", g, u]) == 2
    assert "full rank" in capsys.readouterr().err


def test_classify_rectangular_redirects(tmp_path, capsys):
    g = dump(tmp_path, "g.json", column_G())
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(2))
    assert main(["classify", g, u]) == 2
    assert "embed_rect" in capsys.readouterr().err


def test_classify_missing_file_exits_2(tmp_path, capsys):
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    assert main(["classify", str(tmp_path / "absent.json"), u]) == 2
    assert "no such file" in capsys.readouterr().err


def test_classify_corrupt_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    assert main(["classify", str(bad), u]) == 2
    assert "bad symbol file" in capsys.readouterr().err


def test_indeterminate_final_exits_3(tmp_path, capsys, monkeypatch):
    rep = ClassificationReport("divisible", 1e-12, "indeterminate", 5e-6,
                               "skipped", (), "indeterminate", None,
                               float("nan"), (16, 32, 64))
    monkeypatch.setattr("toepkern.cli.classify_kernel", lambda *a, **k: rep)
    g = dump(tmp_path, "g.json", g_poisson_double(16))
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    assert main(["classify", g, u]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["final"] == "indeterminate"
    assert doc["cross_check_angle"] is None


def test_classify_coarse_truncation_exits_3(tmp_path, capsys):
    # at degree 32 the truncated G breaks the pair identity behind the
    # specialness test; at degree 48 the same input decides
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    g = dump(tmp_path, "g32.json", g_poisson_double(32))
    assert main(["classify", g, u, "--degree", "32",
                 "--ladder", "8,16,32"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["final"] == "indeterminate"
    assert doc["special"]["verdict"] == "indeterminate"
    g = dump(tmp_path, "g48.json", g_poisson_double(48))
    assert main(["classify", g, u, "--degree", "48",
                 "--ladder", "8,16,32"]) == 0
    assert json.loads(capsys.readouterr().out)["final"] == "is-kernel"


def test_examples_coarse_degree_reports_indeterminate(capsys):
    assert main(["examples", "--degree", "32", "--ladder", "8,16,32"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    flagship = [e for e in entries if e["name"] == "poisson-flagship"]
    assert flagship[0]["final"] == "indeterminate"


def test_examples_below_degree_24_exit_0(capsys):
    # the truncated g_poisson_double is not orthonormal enough to classify
    assert main(["examples", "--degree", "16", "--ladder", "4,8,16"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    flagship = [e for e in entries if e["name"] == "poisson-flagship"][0]
    assert flagship["final"] == "indeterminate"
    assert flagship["pass"] is False
    assert flagship["mass_gap"] is None


COARSE_RUNS = ([("examples", d, f"0,{d}") for d in range(1, 9)]
               + [("construct", 8, ladder) for ladder in ("0,8", "1,8", "2,8")])


@pytest.mark.parametrize("command,degree,ladder", COARSE_RUNS)
def test_coarse_degree_never_exits_1(tmp_path, capsys, command, degree, ladder):
    # a truncation too coarse for the input is refused (2) or left
    # undecided (3), never reported as a tool failure (1)
    argv = [command, "--degree", str(degree), "--ladder", ladder]
    if command == "construct":
        seed, U = matrix_recipe()
        argv += [dump(tmp_path, "seed.json", seed), dump(tmp_path, "u.json", U)]
    assert main(argv) in (0, 2, 3)


def test_construct_writes_artifacts(tmp_path, capsys):
    seed = dump(tmp_path, "seed.json", g_poisson(64))
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    pre = str(tmp_path / "art")
    assert main(["construct", seed, u, "--out", pre]) == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(Path(pre + ".report.json").read_text())
    assert rep["dim_F"] == 1
    assert rep["cross_check_angle"]["per_N"]["64"] <= 1e-6
    assert rep["pair"]["special"] == "special"
    assert rep["rigidity"]["verdict"] == "rigid"
    G = MatrixSymbol.from_json_dict(json.loads(Path(pre + ".G.json").read_text()))
    assert (G - g_poisson_double(64)).norm_l2() <= 1e-10
    phi = MatrixSymbol.from_json_dict(json.loads(Path(pre + ".phi.json").read_text()))
    assert phi.min_deg < 0
    basis = json.loads(Path(pre + ".basis.json").read_text())
    assert basis["dim"] == 1 and len(basis["elements"]) == 1


def test_construct_certifies_U_once(tmp_path, capsys):
    # construct_kernel, its G K_U bases and the per-N angles all read U
    seed = dump(tmp_path, "seed.json", g_poisson(64))
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    is_inner.cache_clear()
    assert main(["construct", seed, u, "--degree", "64"]) == 0
    assert is_inner.cache_info().misses == 1


def test_construct_stdout_without_out(tmp_path, capsys):
    seed = dump(tmp_path, "seed.json", MatrixSymbol.identity(1))
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    assert main(["construct", seed, u]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim_F"] == 1
    assert "artifacts" not in doc
    assert max(doc["cross_check_angle"]["per_N"].values()) <= 1e-8


def test_construct_rejects_non_rigid_seed(tmp_path, capsys):
    seed = dump(tmp_path, "seed.json", MatrixSymbol.scalar([1.0, 1.0]))
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    assert main(["construct", seed, u]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# examples and flag validation


def test_examples_bundle(capsys):
    assert main(["examples"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = [e["name"] for e in doc["entries"]]
    assert names == ["halfpower-diagonal", "linear-diagonal",
                     "column-embedding", "twisted-counterexample",
                     "poisson-flagship", "matrix-recipe"]
    assert all(e["pass"] for e in doc["entries"])
    half = doc["entries"][0]
    assert half["containment_refined"] <= half["containment_residual"]
    twisted = doc["entries"][3]
    assert abs(twisted["mass_constant"] - 0.5) <= 1e-10
    assert twisted["mass_shifted"] <= 1e-10
    assert doc["entries"][5]["dim_F"] == 3


def test_examples_deterministic(capsys):
    assert main(["examples", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["examples", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_bad_ladder_exits_2(capsys):
    assert main(["verify", "pair-identity", "--ladder", "64,16"]) == 2
    assert main(["verify", "pair-identity", "--ladder", "32"]) == 2
    assert main(["verify", "pair-identity", "--ladder", "a,b"]) == 2
    assert "ladder" in capsys.readouterr().err


def test_negative_ladder_exits_2(tmp_path, capsys):
    g = dump(tmp_path, "g.json", g_poisson_double(64))
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    assert main(["classify", g, u, "--ladder=-1,64"]) == 2
    assert "non-negative" in capsys.readouterr().err
    assert main(["verify", "lemma31", "--degree", "4", "--ladder=-2,1"]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_ladder_above_degree_exits_2(tmp_path, capsys):
    g = dump(tmp_path, "g.json", g_poisson_double(16))
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    assert main(["classify", g, u, "--degree", "32",
                 "--grid", "256", "--ladder", "16,64"]) == 2
    assert "ladder top" in capsys.readouterr().err


def test_bad_grid_exits_2(capsys):
    assert main(["verify", "pair-identity", "--grid", "100"]) == 2
    assert "grid" in capsys.readouterr().err


def test_grid_defaults_to_smallest_valid_for_degree(capsys):
    assert main(["verify", "pair-identity", "--degree", "128"]) == 0
    implicit = capsys.readouterr().out
    assert main(["verify", "pair-identity", "--degree", "128",
                 "--grid", "1024"]) == 0
    assert capsys.readouterr().out == implicit
    assert main(["verify", "pair-identity", "--degree", "128",
                 "--grid", "512"]) == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--rank-tol", "-1"], ["--rank-tol", "1"],
                                  ["--residual-tol", "0"]])
def test_vacuous_tolerance_exits_2(tmp_path, capsys, flag):
    g = dump(tmp_path, "g.json", g_poisson_double(64))
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    assert main(["classify", g, u] + flag) == 2
    assert flag[0][2:].replace("-", "_") in capsys.readouterr().err


def test_classify_non_finite_coefficient_exits_2(tmp_path, capsys):
    d = g_poisson_double(64).to_json_dict()
    d["coeffs"][3][0] = [float("nan"), 0.0]
    g = tmp_path / "g.json"
    g.write_text(json.dumps(d))
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    assert main(["classify", str(g), u]) == 2
    err = capsys.readouterr().err
    assert "bad symbol file" in err and "non-finite" in err


def test_classify_huge_coefficient_exits_2(tmp_path, capsys):
    # rejected by the coefficient bound before G*G can overflow
    d = g_poisson_double(64).to_json_dict()
    d["coeffs"][3][0] = [1e200, 0.0]
    g = tmp_path / "g.json"
    g.write_text(json.dumps(d))
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    assert main(["classify", str(g), u]) == 2
    assert "columns of G orthonormal in H2" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_verdicts_never_gate_exit(tmp_path, capsys):
    g = dump(tmp_path, "g.json",
             MatrixSymbol.scalar(np.array([1.0, 1.0]) / np.sqrt(2)))
    u = dump(tmp_path, "u.json", MatrixSymbol.monomial(1))
    assert main(["classify", g, u]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["final"] == "not-kernel"
    assert doc["special"]["verdict"] == "not-special"
