"""Command-line entry points.

Exit codes: 0 all checks passed, 1 usage or configuration error,
2 a counterexample was found, 3 an internal invariant was violated.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

from . import selftest
from .classnumber import class_number
from .criteria import Certificate, check_prime, proof_trace
from .curve import curve_order
from .decompose import eight_decomposition, two_squares
from .errors import InvariantViolation
from .harness import ScanConfig, scan, write_scan_csv, write_scan_json
from .modular import Prime

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this tool reserves 2 for
    # counterexamples, so usage errors are remapped to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cm-octic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify every criterion at a single prime")
    check.add_argument("p", type=int)
    check.add_argument("--class-number", action="store_true", help="also compute h(-4p)")
    check.add_argument("--trace", action="store_true", help="attach a structural proof trace")
    check.add_argument("--seed", type=int, default=0, help="point-sampling seed for --trace")

    scan_p = sub.add_parser("scan", help="verify a whole range of primes = 1 (mod 8)")
    scan_p.add_argument("--from", dest="lo", type=int, required=True)
    scan_p.add_argument("--to", dest="hi", type=int, required=True)
    scan_p.add_argument("--class-number-cap", type=int, default=0,
                        help="compute h(-4p) for p up to this bound (0 = never)")
    scan_p.add_argument("--jobs", type=int, default=1)
    scan_p.add_argument("--format", choices=("csv", "json"), default="csv")
    scan_p.add_argument("--out", default=None, help="output path (default: stdout)")

    decompose_p = sub.add_parser("decompose", help="print p = a^2+b^2 and p = c^2+8d^2")
    decompose_p.add_argument("p", type=int)

    classno = sub.add_parser("classno", help="print the class number h(-4p), p <= 10^10")
    classno.add_argument("p", type=int)

    order = sub.add_parser("curve-order", help="print #E(F_p) for y^2 = x^3 - x")
    order.add_argument("p", type=int)

    sub.add_parser("selftest", help="run the exhaustive small-prime invariant suite")
    return parser


def _cmd_check(args: argparse.Namespace) -> int:
    p = Prime(args.p)
    cert = check_prime(p, with_class_number=args.class_number)
    if not isinstance(cert, Certificate):
        print(json.dumps(dataclasses.asdict(cert), indent=2))
        return EXIT_INVARIANT
    doc = dataclasses.asdict(cert)
    status = EXIT_OK if cert.all_hold else EXIT_COUNTEREXAMPLE
    if args.trace:
        trace = proof_trace(p, seed=args.seed)
        doc["trace"] = dataclasses.asdict(trace)
        if not trace.consistent:
            status = EXIT_COUNTEREXAMPLE
    print(json.dumps(doc, indent=2))
    return status


def _cmd_scan(args: argparse.Namespace) -> int:
    config = ScanConfig(
        lo=args.lo,
        hi=args.hi,
        class_number_cap=args.class_number_cap,
        jobs=args.jobs,
    )
    report = scan(config)
    # Certified rows are written even when some prime broke an invariant.
    if args.out is None:
        _write_report(report, args.format, sys.stdout)
    else:
        with open(args.out, "w") as fh:
            _write_report(report, args.format, fh)
    if report.errors:
        for err in report.errors:
            print(f"invariant violation at p={err.p} [{err.stage}]: {err.message}",
                  file=sys.stderr)
        return EXIT_INVARIANT
    print(
        f"checked {report.primes_checked} primes in [{config.lo}, {config.hi}) "
        f"in {report.timing:.2f}s; counterexamples: {len(report.counterexamples)}",
        file=sys.stderr,
    )
    return EXIT_COUNTEREXAMPLE if report.counterexamples else EXIT_OK


def _write_report(report, fmt: str, fh) -> None:
    if fmt == "csv":
        write_scan_csv(report.certificates, fh)
    else:
        write_scan_json(report, fh)


def _cmd_decompose(args: argparse.Namespace) -> int:
    p = Prime(args.p)
    a, b = two_squares(p)
    doc: dict = {"p": p.value, "a": a, "b": b}
    if p.value % 8 == 1:
        doc["c"], doc["d"] = eight_decomposition(p)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_classno(args: argparse.Namespace) -> int:
    print(class_number(Prime(args.p)))
    return EXIT_OK


def _cmd_curve_order(args: argparse.Namespace) -> int:
    print(curve_order(Prime(args.p)))
    return EXIT_OK


def _cmd_selftest(_args: argparse.Namespace) -> int:
    return EXIT_OK if selftest.run_all() else EXIT_INVARIANT


_COMMANDS = {
    "check": _cmd_check,
    "scan": _cmd_scan,
    "decompose": _cmd_decompose,
    "classno": _cmd_classno,
    "curve-order": _cmd_curve_order,
    "selftest": _cmd_selftest,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"cm-octic: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"cm-octic: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
