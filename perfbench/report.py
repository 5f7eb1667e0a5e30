#!/usr/bin/env python3
"""Print every benchmark metric by name and unit, for every workload.

    python3 perfbench/report.py

Runs perfbench/run.py on each workload of BENCHMARK.json with seed 1 and the
declared run_seconds, once untraced (end-to-end metrics) and once traced
(per-layer metrics), and prints one line per metric: workload, name, value,
unit.  fail_rate, the failed share
of attempted calls, is printed with the end-to-end metrics.
"""
from __future__ import annotations

import json
import subprocess
import sys

import run


SEED = 1


def main() -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for workload in run.declared()["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", str(seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=str(run.ROOT))
            if proc.returncode != 0:
                print(f"{workload}: run.py exited {proc.returncode}")
                status = 1
                continue
            lines = proc.stdout.strip().splitlines()
            detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
            status |= not result["correct"]
            print(f"{workload}  trace={trace}  correct={result['correct']}  "
                  f"attempted={result['attempted']}  failed={result['failed']}")
            if not trace:
                w = detail["wall_s"]
                print(f"  {'fail_rate':44s} {detail['fail_rate']:<14.6g} fraction")
                print(f"  {'wall_s quartiles':44s} {w['q1']:.6g}..{w['q3']:.6g} s "
                      f"over {w['samples']} passes")
            for name, m in result["metrics"].items():
                print(f"  {name:44s} {m['value']:<14.6g} {m['unit']}")
            for failure in detail["failures"]:
                print(f"  FAILED {failure}")
    return status


if __name__ == "__main__":
    sys.exit(main())
