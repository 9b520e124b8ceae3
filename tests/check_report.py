"""Check one ``--json`` report written by the installed ``prodgeo`` command.

usage: python tests/check_report.py REPORT CODE [EXPECTED] [--warnings-allowed] [--conformal-null]

REPORT is the file the command wrote, CODE its process exit code and
EXPECTED the code it should have exited with (omit it to accept any).  The
report must be strict JSON (no NaN or Infinity token), and the exit status
it states must equal CODE and re-derive from its checks.  It must carry no
``warning:`` note unless ``--warnings-allowed`` is given.  With
``--conformal-null``, its five conformal checks must be null and fail.
"""

from __future__ import annotations

import argparse
import json
import sys

from prodgeo.report import report_from_dict


def reject(token):
    raise ValueError(f"non-standard JSON token {token}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Check one --json report of the installed command.")
    parser.add_argument("report")
    parser.add_argument("code", type=int)
    parser.add_argument("expected", type=int, nargs="?")
    parser.add_argument("--warnings-allowed", action="store_true")
    parser.add_argument("--conformal-null", action="store_true")
    args = parser.parse_args(argv)

    def require(ok: bool, message) -> None:
        if not ok:
            sys.exit(f"{args.report}: {message}")

    with open(args.report) as f:
        data = json.load(f, parse_constant=reject)
    stated = data["exit_status"]
    derived = report_from_dict(data).exit_status
    require(derived == stated == args.code, f"exit {args.code}, stated {stated}, re-derived {derived}")
    require(args.expected in (None, args.code), f"exit {args.code}, expected {args.expected}")
    if not args.warnings_allowed:
        require(not [n for n in data["notes"] if n.startswith("warning: ")], data["notes"])
    if args.conformal_null:
        conformal = [
            c for c in data["checks"] if c["name"].startswith("conformal_") and c["name"] != "conformal_class_membership"
        ]
        require(len(conformal) == 5, [c["name"] for c in conformal])
        require(not [c for c in conformal if c["pass"] or c["defect"] is not None], conformal)
    print(f"{args.report}: exit {args.code} re-derived from {len(data['checks'])} checks")


if __name__ == "__main__":
    main()
