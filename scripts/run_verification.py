#!/usr/bin/env python3
"""Run the verification suites over a range of p and collect reports.

Writes one canonical JSON report per p into --out-dir and prints the
text rendering as it goes.

Exit codes: 0 every selected check passed, 1 at least one check failed,
2 usage error (an unknown suite, p < 2, ...), 3 engine crash (an
unexpected exception; the traceback goes to stderr).
"""

import argparse
import pathlib
import sys
import traceback

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hopfbench.report import (  # noqa: E402
    ConfigError, SuiteConfig, render, run_suite,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, nargs="+", default=[2, 3],
                    help="values of p to run (default: 2 3)")
    ap.add_argument("--suite", default="all")
    ap.add_argument("--mode", default=None,
                    choices=("exhaustive", "generators", "sample"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sample-size", type=int, default=10_000)
    ap.add_argument("--out-dir", default="reports")
    args = ap.parse_args()

    configs = [SuiteConfig(p=p, suite=args.suite, mode=args.mode,
                           seed=args.seed, sample_size=args.sample_size)
               for p in args.p]
    for cfg in configs:
        try:
            cfg.validate()
        except ConfigError as exc:
            ap.error(str(exc))
    failed = False
    try:
        out_dir = pathlib.Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for cfg in configs:
            report = run_suite(cfg)
            sys.stdout.write(render(report, "text").decode())
            sys.stdout.write("\n")
            path = out_dir / f"report_p{cfg.p}.json"
            path.write_bytes(render(report, "json"))
            print(f"wrote {path}")
            failed = failed or not report.ok
    except Exception:
        # An engine crash must not read as "a check failed" (exit 1).
        traceback.print_exc()
        return 3
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
