"""Command-line entry points.

Exit codes: 0 all checks passed, 1 usage, configuration or output-file
error, 2 a counterexample was found, 3 an internal invariant was violated,
130 interrupted by SIGINT, 141 the reader of standard output closed it
early.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import stat
import sys
import time
from collections.abc import Sequence
from functools import cache

from .classnumber import class_number
from .criteria import Certificate, check_prime, proof_trace
from .curve import curve_order
from .decompose import eight_decomposition, two_squares
from .errors import InvariantViolation
from .harness import ScanConfig, write_scan_csv, write_scan_json
from .modular import Prime, canonical_i, canonical_sqrt2

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_INVARIANT = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, what a shell reports for Ctrl-C
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `... | head`


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this tool reserves 2 for
    # counterexamples, so usage errors are remapped to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# Built once per process: parse_args keeps no state between calls, and each
# call starts from a fresh Namespace, so no argument leaks into the next.
@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="cm-octic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify every criterion at a single prime")
    check.add_argument("p", type=int)
    check.add_argument("--class-number", action="store_true", help="also compute h(-4p)")
    check.add_argument("--trace", action="store_true", help="attach a structural proof trace")
    check.add_argument("--seed", type=int, default=0,
                       help="point-sampling seed for --trace; the walk starts at x = SEED, so "
                            "nearby seeds share most samples: retry a miss with a distant one")

    scan_p = sub.add_parser("scan", help="verify a whole range of primes = 1 (mod 8)")
    scan_p.add_argument("--from", dest="lo", type=int, required=True)
    scan_p.add_argument("--to", dest="hi", type=int, required=True)
    scan_p.add_argument("--class-number-cap", type=int, default=0,
                        help="compute h(-4p) for p up to this bound (0 = never)")
    scan_p.add_argument("--jobs", type=int, default=1,
                        help="worker processes, capped at the CPUs this process may run on "
                             "and the segment count; one worker runs in-process")
    scan_p.add_argument("--format", choices=("csv", "json"), default="csv")
    scan_p.add_argument("--out", default=None,
                        help="output path (default: stdout); a new or regular file is written "
                             "as OUT.partial and renamed to OUT when the scan is done")

    decompose_p = sub.add_parser("decompose", help="print p = a^2+b^2 and p = c^2+8d^2")
    decompose_p.add_argument("p", type=int)

    classno = sub.add_parser("classno", help="print the class number h(-4p), p <= 10^10")
    classno.add_argument("p", type=int)

    order = sub.add_parser("curve-order", help="print #E(F_p) for y^2 = x^3 - x")
    order.add_argument("p", type=int)

    trace = sub.add_parser("trace", help="print the proof trace at one prime in readable form")
    trace.add_argument("p", type=int)

    sub.add_parser("selftest", help="run the exhaustive small-prime invariant suite")
    return parser


def _json(value: object, pad: str = "\n") -> str:
    """json.dumps(value, indent=2) without json's pure-Python encoder; pad is the newline and
    indent of value.  Keys need no escaping; leaves besides ints, bools and None use json.dumps,
    imported only then: a Certificate and its trace hold no other leaf."""
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f'"{k}": {int.__repr__(v) if type(v) is int else _json(v, inner)}'
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [int.__repr__(v) if type(v) is int else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(value, int):
        return int.__repr__(value)
    import json

    return json.dumps(value)


def _cmd_check(args: argparse.Namespace) -> int:
    cert = check_prime(args.p, with_class_number=args.class_number)
    # Shallow copies of the fields: every value is an int, a bool, None or
    # a tuple of them, so a deep copy would change no byte.
    doc = dict(vars(cert))
    if not isinstance(cert, Certificate):
        print(_json(doc))
        return EXIT_INVARIANT
    status = EXIT_OK if cert.all_hold else EXIT_COUNTEREXAMPLE
    if args.trace:
        trace = proof_trace(cert, seed=args.seed)
        doc["trace"] = {**vars(trace), "fibers": [vars(f) for f in trace.fibers]}
        if not trace.consistent:
            status = EXIT_COUNTEREXAMPLE
    print(_json(doc))
    return status


def _open_out(path: str | None) -> tuple[contextlib.AbstractContextManager, str | None]:
    """The sink for scan's --out PATH, and the partial file to rename onto PATH, if any.

    A new PATH, or a regular file with one link, is written as PATH.partial
    with PATH's permission bits and renamed onto it once the writer returns,
    so PATH never holds a scan cut short.  PATH.partial must not exist: it may
    hold the rows of an earlier scan that was cut short.  Anything else (stdout,
    a device, a FIFO, a symlink, a hard link) is written in place, as a rename
    would replace what it is; a directory fails to open.  All of it happens
    before the scan, so a bad path costs no work."""
    if path is None:
        return contextlib.nullcontext(sys.stdout), None
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        return open(path, "w"), None
    if st is not None and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    partial = path + ".partial"
    sink = open(partial, "x")
    if st is not None:
        os.chmod(partial, stat.S_IMODE(st.st_mode))
    return sink, partial


def _cmd_scan(args: argparse.Namespace) -> int:
    config = ScanConfig(
        lo=args.lo,
        hi=args.hi,
        class_number_cap=args.class_number_cap,
        jobs=args.jobs,
    )
    write = write_scan_csv if args.format == "csv" else write_scan_json
    sink, partial = _open_out(args.out)
    t0 = time.perf_counter()
    try:
        with sink as fh:
            # Certified rows are written even when some prime broke an invariant.
            report = write(config, fh)
    except KeyboardInterrupt as exc:
        exc.args = (partial,)  # main's one line names the partial file, if any
        raise
    if partial is not None:
        os.replace(partial, args.out)
    elapsed = time.perf_counter() - t0
    if report.errors:
        for err in report.errors:
            print(f"invariant violation at p={err.p} [{err.stage}]: {err.message}",
                  file=sys.stderr)
        return EXIT_INVARIANT
    print(
        f"checked {report.primes_checked} primes in [{config.lo}, {config.hi}) "
        f"in {elapsed:.2f}s; counterexamples: {len(report.counterexamples)}",
        file=sys.stderr,
    )
    # h(-4p) mod 8 by character: h = 0 (mod 8) exactly when chi = +1.
    tally = report.h_mod_8
    if tally:
        for chi in (1, -1):
            rows = ", ".join(f"h%8={r}: {tally[chi, r]}" for r in range(8) if tally[chi, r])
            print(f"  chi = {chi:+d}:  {rows or 'none'}", file=sys.stderr)
    return EXIT_COUNTEREXAMPLE if report.counterexamples else EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    n = Prime(args.p).value
    i = canonical_i(n)
    a, b = two_squares(n, i)
    doc: dict = {"p": n, "a": a, "b": b}
    if n % 8 == 1:
        doc["c"], doc["d"] = eight_decomposition(n, i, canonical_sqrt2(n))
    print(_json(doc))
    return EXIT_OK


def _cmd_classno(args: argparse.Namespace) -> int:
    print(class_number(args.p))
    return EXIT_OK


def _cmd_curve_order(args: argparse.Namespace) -> int:
    n = Prime(args.p).value
    print(curve_order(n, canonical_i(n)))
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    # proof_trace of check_prime's certificate, at seed 0, as prose: the characters,
    # #E, the eta-preimage counts above x = +-1 +- sqrt2 and the order-8 eta-orbit.
    cert = check_prime(args.p)
    if not isinstance(cert, Certificate):
        raise InvariantViolation(cert.message)
    tr = proof_trace(cert)
    print(f"p = {tr.p}:  chi(1+sqrt2) = {tr.chi:+d}, conjugate symbol = "
          f"{tr.chi_conjugate:+d}, product = {tr.chi * tr.chi_conjugate:+d} "
          f"(must be +1)")
    print(f"#E(F_p) = {tr.n} = {tr.n_mod_32} (mod 32)")
    print(f"level-4 x candidates (+-1 +- sqrt2): {list(tr.level4_x)}")
    for fib in tr.fibers:
        tag = "square" if fib.x_is_square else "non-square"
        pts = ", ".join(f"({x},{y})#{c}" for (x, y), c in zip(fib.points, fib.preimage_counts))
        print(f"  x = {fib.x:>6} [{tag}]  points and preimage counts: {pts}")
    if not tr.order8_applicable:
        print("32 does not divide #E, so no order-8 orbit step applies")
    elif tr.order8_point is None:
        print("order-8 point: none found in the samples, so the orbit step did not run")
    else:
        landed = ("the orbit missed the level-4 set" if tr.orbit_landed_x is None else
                  f"landed on {tr.orbit_landed_x} "
                  f"({'square' if tr.orbit_landed_is_square else 'non-square'})")
        print(f"order-8 point: {tr.order8_point}; orbit x-coordinates under 1+i: "
              f"{tr.orbit_x}; {landed}")
    print(f"trace consistent: {tr.consistent}")
    return EXIT_OK if tr.consistent else EXIT_COUNTEREXAMPLE


def _cmd_selftest(_args: argparse.Namespace) -> int:
    from . import selftest  # its checks and oracles are loaded for this command alone

    return EXIT_OK if selftest.run_all() else EXIT_INVARIANT


_COMMANDS = {
    "check": _cmd_check,
    "scan": _cmd_scan,
    "decompose": _cmd_decompose,
    "classno": _cmd_classno,
    "curve-order": _cmd_curve_order,
    "trace": _cmd_trace,
    "selftest": _cmd_selftest,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        # Flushed here, so that a closed pipe raises inside this handler and
        # not at interpreter exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Point fd 1 at /dev/null, so the interpreter's final flush of what
        # is still buffered cannot raise a second time.
        with contextlib.suppress(OSError):  # no real fd, as under capture
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"cm-octic: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"cm-octic: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except KeyboardInterrupt as exc:
        # Pool workers ignore SIGINT, so this is the only report of it.  A
        # scan cut short puts its partial file, if any, in the exception.
        partial = exc.args[0] if exc.args else None
        kept = f"; the rows written so far are in {partial}" if partial else ""
        print(f"cm-octic: interrupted{kept}", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
