"""Rewrite the golden text reports of the pinned runs from this tree.

    PYTHONPATH=src python tests/rewrite_golden.py [NAME ...]

Each NAME is a key of `test_report_cli.GOLDEN_RUNS` (default: every
one).  For each golden file that changes, the script prints the
`golden_diff` of its check lines -- status, mode, cases and witness --
and the sha256 of the run's JSON report, the pin to put beside it in
tests/test_report_cli.py.  A re-pin is that diff.
"""

from __future__ import annotations

import hashlib
import sys

from hopfbench.report import render, run_suite
from test_report_cli import GOLDEN, GOLDEN_RUNS, golden_diff


def main(names: list) -> int:
    for name in names or GOLDEN_RUNS:
        rep = run_suite(GOLDEN_RUNS[name])
        path = GOLDEN / f"{name}.txt"
        new = render(rep, "text")
        old = path.read_bytes() if path.exists() else b""
        if new == old:
            continue
        print(f"{name}: sha256 "
              f"{hashlib.sha256(render(rep, 'json')).hexdigest()}")
        for line in golden_diff(old.decode(), new.decode()):
            print(f"  {line}")
        path.write_bytes(new)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
