#!/usr/bin/env python
"""Report gie-corpus pass/fail/unsupported/skipped status for the current
engine; skipped cases name a grid, model or TIN file absent on this host.

Usage: python tools/gie_report.py [--fails N] [--ops]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from proj_ray.gie import load_cases, run_cases  # noqa: E402

CASES = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                     "gie_cases.json")


def main():
    cases = load_cases(CASES)
    res = run_cases(cases)
    print(f"total   : {res.total}")
    print(f"passed  : {res.passed}")
    print(f"failed  : {res.failed}")
    print(f"unsupp. : {res.unsupported}")
    print(f"skipped : {res.skipped} "
          f"({len(res.skipped_files)} missing files)")
    for name, n in sorted(res.skipped_files.items()):
        print(f"  missing {name}: {n} cases")
    print(f"pass rate (supported): {res.pass_rate:.4%}")
    if "--ops" in sys.argv:
        for op, n in sorted(res.unsupported_ops.items(),
                            key=lambda kv: -kv[1]):
            print(f"  unsupported {op}: {n}")
    nfails = 20
    if "--fails" in sys.argv:
        nfails = int(sys.argv[sys.argv.index("--fails") + 1])
    for fc in res.fail_cases[:nfails]:
        print(f"FAIL {fc['case']} [{fc['op']}] {fc['detail']}")


if __name__ == "__main__":
    main()
