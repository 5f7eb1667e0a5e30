"""Smoke tests: the experiment scripts under scripts/ run to completion."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("name,args", [
    ("residual_ladders.py", ["--ladder", "8,16"]),
    ("rigidity_scan.py", ["--steps", "2"]),
    ("run_examples.py", []),
    ("run_examples.py", ["--degree", "32"]),
])
def test_script_runs(name, args):
    res = run_script(name, *args)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_paths():
    """Committed bench documents, oldest first (BENCH_<n>.json by n)."""
    return sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))


def test_committed_bench_documents_are_complete():
    # rows only ever join ROWS, so an older document holds a subset of them
    # and the newest holds every one
    bench = load_bench()
    paths = bench_paths()
    assert paths
    for path in paths:
        doc = json.loads(path.read_text())
        bench.validate(doc)
        rows = {rec["row"] for rec in doc["rows"]}
        assert rows <= set(bench.ROWS), path.name
    assert rows == set(bench.ROWS), path.name


def test_bench_validate_rejects_a_missing_tree_row():
    bench = load_bench()
    doc = json.loads(bench_paths()[-1].read_text())
    doc["rows"] = doc["rows"][1:]
    with pytest.raises(ValueError, match="missing"):
        bench.validate(doc)


def test_bench_row_runs():
    res = run_script("bench.py", "--row", "kernel_angle:flagship:64")
    assert res.returncode == 0, res.stderr
    record = json.loads(res.stdout)
    assert record["wall_s"] > 0 and record["max_rss_mb"] > 0
    assert 0 <= record["result"]["angle"] < 1e-5


def test_bench_classify_row_runs():
    res = run_script("bench.py", "--row", "classify:lindiag:32")
    assert res.returncode == 0, res.stderr
    record = json.loads(res.stdout)
    assert record["wall_s"] > 0 and record["max_rss_mb"] > 0
    assert record["result"]["final"] == "not-kernel"


def test_bench_startup_row_runs():
    res = run_script("bench.py", "--row", "startup:flagship:64")
    assert res.returncode == 0, res.stderr
    record = json.loads(res.stdout)
    assert record["wall_s"] > 0 and record["max_rss_mb"] > 0
    assert record["result"] == {"final": "is-kernel", "scipy_loaded": False}


def test_bench_validate_rejects_a_startup_row_without_scipy_flag():
    bench = load_bench()
    doc = json.loads(bench_paths()[-1].read_text())
    rec = next(r for r in doc["rows"] if r["row"].startswith("startup:"))
    del rec["result"]["scipy_loaded"]
    with pytest.raises(ValueError, match="scipy_loaded"):
        bench.validate(doc)


@pytest.mark.parametrize("row,check", [
    ("startup:recipe:32", lambda r: r == {"dim_F": 3, "scipy_loaded": False}),
    ("bauer:twisted:16", lambda r: 0 <= r["defect"] <= 1e-12),
    ("classify:flagship:64", lambda r: r["final"] == "is-kernel"
     and 0 <= r["cross_check_angle"] < 1e-5),
])
def test_bench_recipe_startup_and_bauer_rows_run(row, check):
    res = run_script("bench.py", "--row", row)
    assert res.returncode == 0, res.stderr
    record = json.loads(res.stdout)
    assert record["wall_s"] > 0 and record["max_rss_mb"] > 0
    assert check(record["result"]), record["result"]


@pytest.mark.parametrize("prefix,key", [("startup:recipe:", "scipy_loaded"),
                                        ("bauer:twisted:", "defect"),
                                        ("classify:flagship:", "final")])
def test_bench_validate_rejects_a_row_without_its_result_field(prefix, key):
    bench = load_bench()
    doc = json.loads(bench_paths()[-1].read_text())
    rec = next(r for r in doc["rows"] if r["row"].startswith(prefix))
    del rec["result"][key]
    with pytest.raises(ValueError, match=key):
        bench.validate(doc)


def test_cli_snapshot_records_each_command(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "cli_snapshot", ROOT / "scripts" / "cli_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.snapshot(ROOT, tmp_path, [
        ("ok", ["verify", "pair-identity", "--degree", "16", "--ladder", "4,8",
                "--out", "ok.csv"]),
        ("bad", ["verify", "nope"]),
    ])
    assert (tmp_path / "ok.rc").read_text() == "0\n"
    assert (tmp_path / "ok.out").read_text() == ""
    assert (tmp_path / "ok.csv").read_text().startswith("fixture,N,residual")
    assert (tmp_path / "bad.rc").read_text() == "2\n"
    assert (tmp_path / "bad.err").read_text().startswith("error: unknown check")
    assert (tmp_path / "z.json").exists()
