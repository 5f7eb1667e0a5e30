"""Run the bundled worked examples and every verify check, print a summary.

Usage: python3 scripts/run_examples.py [--degree N]
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stdout

from toepkern.cli import VERIFY_CHECKS, main as cli_main


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, buf.getvalue()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degree", type=int, default=64)
    args = ap.parse_args()

    n = args.degree
    rc, out = run(["examples", "--degree", str(n),
                   "--ladder", f"{n // 4},{n // 2},{n}"])
    if rc != 0:
        print("examples command failed", file=sys.stderr)
        return rc
    doc = json.loads(out)
    print(f"worked examples at degree {doc['degree']}")
    for e in doc["entries"]:
        flag = "ok " if e["pass"] else "FAIL"
        detail = {k: v for k, v in e.items() if k not in ("name", "pass")}
        print(f"  [{flag}] {e['name']:24s} {detail}")

    print("\nverify checks (rows failing their tolerance, if any)")
    worst_rc = 0
    for name in sorted(VERIFY_CHECKS):
        rc, out = run(["verify", name])
        worst_rc = max(worst_rc, rc)
        rows = out.strip().splitlines()[1:]
        bad = [r for r in rows if r.endswith(",false")]
        print(f"  {name:14s} {len(rows)} rows, {len(bad)} below tolerance")
        for r in bad:
            print(f"    {r}")
    return worst_rc


if __name__ == "__main__":
    sys.exit(main())
