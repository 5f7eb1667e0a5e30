#!/usr/bin/env python3
"""Run one toepkern benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload classify-deep --seed 1 --seconds 20 --trace 0

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json:
set-up time over fresh interpreters, and the wall time, peak memory and pass
rate of the workload, run in this process after the set-up probes.  With --trace 1 it reports
the per-layer metrics from a traced run instead.  The last line of standard
output is the result object; the line before it holds the details (quartiles,
sample counts, verdicts, environment).  The library is imported from the
``src`` directory beside this one, never from an installed copy.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60.0  # a probe takes about a second; this only stops a hung one


def blas_threads() -> int:
    """BLAS threads for every benchmark process: 2, or fewer if fewer CPUs."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def set_blas_threads() -> None:
    """Fix the BLAS thread count of this process and of those it starts.

    Takes effect only before numpy is first imported.
    """
    n = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def declared() -> dict:
    """Workload names and metric units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# -- measuring, in this process or in a set-up probe ----------------------------

def import_library():
    """Import toepkern from ROOT/src; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import toepkern

    where = Path(toepkern.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"toepkern imported from {where}, not from {SRC}")
    return toepkern


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": blas_threads(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_pass(calls, rng):
    """One pass over the calls in a seeded order.

    Returns (wall seconds of the timed calls, failed calls, failure
    messages, verdict per call).  Checks run outside the timed region.
    """
    wall, failed, messages, verdicts = 0.0, 0, [], {}
    for i in rng.permutation(len(calls)):
        call = calls[i]
        t0 = time.perf_counter()
        try:
            out = call.run()
        except Exception as exc:  # a raising call is a failed call
            wall += time.perf_counter() - t0
            failed += 1
            messages.append(f"{call.name}: {type(exc).__name__}: {exc}")
            continue
        wall += time.perf_counter() - t0
        try:
            problems = call.check(out)
            verdicts[call.name] = call.verdict(out)
        except Exception as exc:  # a result the check cannot read fails too
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        del out  # the next call runs without this result alive
        if problems:
            failed += 1
            messages.extend(f"{call.name}: {p}" for p in problems)
    return wall, failed, messages, verdicts


def run_passes(calls, rng, seconds):
    """Passes until `seconds` have elapsed, at least one."""
    start = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(calls, rng))
    return passes


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import resource

    import numpy as np

    import_library()
    import tracer
    import workloads

    rng = np.random.default_rng(seed)
    calls = workloads.build(workload, rng)
    out = {"env": environment(seed)}
    layers = None
    if trace:
        # untraced and traced passes alternate, so drift hits both alike
        recorder = tracer.Recorder()
        plain, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            plain.append(run_pass(calls, rng))
            with tracer.installed(recorder):
                traced.append(run_pass(calls, rng))
        layers, top_s, gap = recorder.summary(len(traced))
        plain_wall = statistics.median(p[0] for p in plain)
        traced_wall = statistics.median(p[0] for p in traced)
        layers["trace_overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        layers["trace.uncovered_s"] = sum(p[0] for p in traced) / len(traced) - top_s
        out["self_time_gap_s"] = gap
        out["spans"] = len(recorder.spans)
        out["traced_wall_s"] = [p[0] for p in traced]
        passes = plain + traced
    else:
        passes = run_passes(calls, rng, seconds)
    out.update({
        "passes": len(passes),
        "attempted": len(passes) * len(calls),
        "failed": sum(p[1] for p in passes),
        "messages": [m for p in passes for m in p[2]][:20],
        "verdicts": passes[0][3],
        "wall_s": [p[0] for p in (plain if trace else passes)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    })
    return out


def probe(workload: str, seed: int, spawned: float) -> None:
    """Fresh-interpreter set-up: import the library and build the inputs.

    Prints the seconds from `spawned` (the parent's monotonic clock just
    before it started this interpreter) to ready.
    """
    import numpy as np

    import_library()
    import workloads

    workloads.build(workload, np.random.default_rng(seed))
    print(repr(time.monotonic() - spawned))


# -- set-up probes and the command line -----------------------------------------

def setup_times(workload, seed):
    """Seconds from starting a fresh interpreter to ready, per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--role", "probe",
               "--workload", workload, "--seed", str(seed),
               "--spawned", repr(time.monotonic())]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=str(ROOT), timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "probe"),
                   default="main", help=argparse.SUPPRESS)
    p.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "toepkern" / "__init__.py").is_file():
        print(f"error: no toepkern sources under {SRC}", file=sys.stderr)
        return 2
    if args.role == "probe":
        probe(args.workload, args.seed, args.spawned)
        return 0

    spec = declared()
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(spec['workloads'])}", file=sys.stderr)
        return 2
    set_blas_threads()
    # the probes run first, so that this process imports numpy only to
    # measure and its peak memory is that of the workload alone
    setup = [] if args.trace else setup_times(args.workload, args.seed)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    walls = res["wall_s"]
    correct = res["failed"] == 0
    if args.trace:
        correct = correct and res["self_time_gap_s"] <= 1e-6
        values = res["layers"]
        units = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_rate": 1.0 - res["failed"] / res["attempted"],
        }
        units = spec["end_to_end"]
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    q1, q3 = quartiles(walls)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": dict(res["env"], passes=res["passes"]),
        "wall_s": {"median": statistics.median(walls), "q1": q1, "q3": q3,
                   "samples": len(walls), "passes": walls},
        "setup_s": {"samples": setup},
        "fail_rate": res["failed"] / res["attempted"],
        "failures": res["messages"],
        "verdicts": res["verdicts"],
    }
    if args.trace:
        detail.update(self_time_gap_s=res["self_time_gap_s"], spans=res["spans"],
                      traced_wall_s=res["traced_wall_s"])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
