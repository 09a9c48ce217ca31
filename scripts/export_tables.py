#!/usr/bin/env python3
"""Dump structure-constant tables for the standard objects to a directory.

Each object lands in <out-dir>/<name>_p<p>.json in the canonical export
format (sorted entries, exact rational coefficient vectors).

Exit codes: 0 every table written, 2 usage error (an unknown object
name or p < 2), 3 engine crash (an unexpected exception; the traceback
goes to stderr).
"""

import argparse
import pathlib
import sys
import traceback

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hopfbench.cli import check_export_name, export_bytes  # noqa: E402

DEFAULT_OBJECTS = ["taft", "taft-dual", "uqsl2", "hqsl2", "cqzd", "chain(2)"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, nargs="+", default=[2],
                    help="values of p to export (default: 2)")
    ap.add_argument("--objects", nargs="+", default=DEFAULT_OBJECTS,
                    help="object names; the full doubles (ddouble, hdouble) "
                         "are large and only exported when asked for")
    ap.add_argument("--out-dir", default="tables")
    args = ap.parse_args()

    if min(args.p) < 2:
        ap.error("p must be an integer >= 2")
    for name in args.objects:
        try:
            check_export_name(name)
        except ValueError as exc:
            ap.error(str(exc))
    try:
        out_dir = pathlib.Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for p in args.p:
            for name in args.objects:
                payload = export_bytes(name, p)
                fname = name.replace("(", "").replace(")", "")
                path = out_dir / f"{fname}_p{p}.json"
                path.write_bytes(payload)
                print(f"wrote {path} ({len(payload)} bytes)")
    except Exception:
        # An engine crash must not read as "a check failed" (exit 1).
        traceback.print_exc()
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
