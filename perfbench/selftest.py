#!/usr/bin/env python3
"""Seed self-test: two seeds must give the same verdicts and call counts.

    python3 perfbench/selftest.py

Runs one traced pass of each workload for seeds 1 and 2 in this process.
The seed only rotates the inputs by diagonal phases and reorders the calls,
so every verdict and every ``<layer>.<fn>.calls`` count must repeat exactly.  Exits 1
on any difference or failed call.
"""
from __future__ import annotations

import sys

import run

SEEDS = (1, 2)


def traced_pass(workload, seed):
    import numpy as np

    import tracer
    import workloads

    rng = np.random.default_rng(seed)
    calls = workloads.build(workload, rng)
    recorder = tracer.Recorder()
    with tracer.installed(recorder):
        (_, failed, messages, verdicts), = run.run_passes(calls, rng, 0)
    layers, _, _ = recorder.summary(1)
    counts = {k: v for k, v in layers.items() if k.endswith(".calls")}
    return verdicts, counts, failed, messages


def main() -> int:
    run.set_blas_threads()
    run.import_library()

    ok = True
    for workload in run.declared()["workloads"]:
        (v1, c1, f1, m1), (v2, c2, f2, m2) = (traced_pass(workload, s)
                                              for s in SEEDS)
        problems = [f"failed call: {m}" for m in m1 + m2]
        problems += [f"verdict of {k}: {v1.get(k)!r} vs {v2.get(k)!r}"
                     for k in sorted(set(v1) | set(v2)) if v1.get(k) != v2.get(k)]
        problems += [f"{k}: {c1[k]:g} vs {c2[k]:g}" for k in c1 if c1[k] != c2[k]]
        ok = ok and not problems
        print(f"{workload}: {'ok' if not problems else 'MISMATCH'} "
              f"({len(v1)} verdicts, {sum(c1.values()):g} calls per pass)")
        for line in problems:
            print(f"  {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
