"""Command-line verification harness and table emitter.

Subcommands:

  verify [--all | --check ID [--check ID ...]] [--n K] [--format text|json]
         [--timings]
      Run every check, or the given ids in the order given.  Exit status
      is the number of failing checks (capped at 125); unknown ids and bad
      usage exit with 126 before any check runs.  --timings adds each
      check's wall time, `elapsed_s`, in seconds; without it the output is
      deterministic.
  compute OBJECT --n K [--format text|json|csv]
      Print Q, R, B (polynomials), E, S (integers) or Eq (q-polynomials)
      for indices 0..K in canonical order, byte-for-byte deterministic.
      Every table takes a polynomial-time route: Q and R by the operators
      (D + UDU)^n 1 and (D + DUU)^n 1, kept as q-rows from each step to the
      printed text, B by the Corteel J-fraction, E by the Seidel
      boustrophedon, S by (D + UDU)^n 1 at q = 1 on integer coefficient
      lists, Eq by one q-secant and one q-tangent S-fraction.
  list-checks
      Print the catalog of check ids with default ceilings.

A reader that closes standard output early ends the command quietly, with
exit status 141 and no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TYPE_CHECKING, Callable, Sequence

from snakelab import eulerians
from snakelab.algebra import _text, jfraction_series

if TYPE_CHECKING:
    from snakelab.checks import CheckResult

USAGE_EXIT = 126
MAX_FAILURE_EXIT = 125
CLOSED_PIPE_EXIT = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

COMPUTE_OBJECTS = ("Q", "R", "B", "E", "Eq", "S")
COMPUTE_FORMATS = ("text", "json", "csv")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="snakelab")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run identity checks")
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="run every check")
    group.add_argument("--check", metavar="ID", action="append",
                       help="run a check by id (repeatable)")
    verify.add_argument("--n", type=int, default=None, metavar="K",
                        help="override the size ceiling")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--timings", action="store_true", help="add each check's wall time")

    compute = sub.add_parser("compute", help="print a table of objects")
    compute.add_argument("object", choices=COMPUTE_OBJECTS)
    compute.add_argument("--n", type=int, required=True, metavar="K",
                         help="largest index")
    compute.add_argument("--format", choices=COMPUTE_FORMATS, default="text")

    sub.add_parser("list-checks", help="print the check catalog")
    return parser


def _row_value(obj: str, n: int):
    """Value of object n, for the objects computed index by index: Q and R,
    printed straight from their cached rows (steps D + UDU and D + DUU)."""
    if obj not in ("Q", "R"):
        raise ValueError(f"unknown object {obj!r}")
    return _text(eulerians._qr_rows(1 if obj == "Q" else 2, n))


def _table(obj: str, n_max: int) -> list:
    """Values of objects 0..n_max; B, E, Eq and S are built in one pass."""
    if obj == "Eq":
        return [str(p) for p in eulerians.q_euler_numbers(n_max)]
    if obj == "B":
        from snakelab import permstats
        return [str(p) for p in jfraction_series(permstats.corteel_schedule(), n_max)]
    if obj == "E":
        return eulerians.seidel_numbers(n_max)
    if obj == "S":
        return eulerians.springer_numbers(n_max)
    return [_row_value(obj, n) for n in range(n_max + 1)]


def _row_label(obj: str, n: int) -> str:
    if obj == "Eq":
        return f"E_{n}(q)"
    return f"{obj}_{n}"


def emit_table(obj: str, n_max: int, fmt: str) -> str:
    """Render objects 0..n_max; identical inputs give identical bytes."""
    if n_max < 0:
        raise ValueError("n must be >= 0")
    if fmt not in COMPUTE_FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    rows = list(enumerate(_table(obj, n_max)))
    if fmt == "csv":
        return "\n".join(f"{n},{value}" for n, value in rows)
    if fmt == "json":
        import json
        return json.dumps(
            {"object": obj, "rows": [[n, value] for n, value in rows]},
            sort_keys=True,
            separators=(",", ":"),
        )
    return "\n".join(f"{_row_label(obj, n)} = {value}" for n, value in rows)


def _print_results(results: list[CheckResult], fmt: str, out: Callable[[str], None]) -> int:
    failures = sum(1 for r in results if r.status == "fail")
    if fmt == "json":
        import json
        payload = {
            "checks": [
                {
                    "id": r.id,
                    "n": r.n_max,
                    "status": r.status,
                    "witness": r.witness,
                    "note": r.note,
                    **({} if r.elapsed_s is None else {"elapsed_s": r.elapsed_s}),
                }
                for r in results
            ],
            "failures": failures,
        }
        out(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return failures
    for r in results:
        out(f"{r.status:<5}  {r.id}  (n <= {r.n_max})" + ("" if r.elapsed_s is None else f"  {r.elapsed_s:.3f} s"))
        if r.witness:
            out(f"       counterexample: {r.witness}")
        if r.note:
            out(f"       note: {r.note}")
    passed = sum(1 for r in results if r.status == "pass")
    skipped = sum(1 for r in results if r.status == "skipped")
    tail = f", {skipped} skipped" if skipped else ""
    out(f"{len(results)} checks: {passed} passed, {failures} failed{tail}")
    return failures


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse help or usage error
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT

    if args.command == "list-checks":
        from snakelab import checks as checklib
        for check in checklib.CHECKS:
            ceiling = f"n<={check.default_n}" if check.scalable else "fixed"
            print(f"{check.id:<24} {ceiling:<8} {check.description}")
        return 0

    if args.n is not None and args.n < 0:
        print(f"error: --n must be >= 0, got {args.n}", file=sys.stderr)
        return USAGE_EXIT

    if args.command == "compute":
        print(emit_table(args.object, args.n, args.format))
        return 0

    from snakelab import checks as checklib  # verify
    if args.check is not None:
        unknown = [i for i in args.check if i not in checklib.CHECKS_BY_ID]
        if unknown:
            for check_id in unknown:
                print(f"error: unknown check id {check_id!r}", file=sys.stderr)
            print("valid ids:", file=sys.stderr)
            for check in checklib.CHECKS:
                print(f"  {check.id}", file=sys.stderr)
            return USAGE_EXIT
        ids = args.check
    else:
        ids = [check.id for check in checklib.CHECKS]
    results = []
    for check_id in ids:
        began = time.perf_counter()
        result = checklib.run_check(check_id, args.n)
        results.append(result._replace(elapsed_s=round(time.perf_counter() - began, 6)) if args.timings else result)
    failures = _print_results(results, args.format, print)
    return min(failures, MAX_FAILURE_EXIT)


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`snakelab list-checks | head`); the exit-time
        # flush would fail again, so it goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = CLOSED_PIPE_EXIT
    sys.exit(code)


if __name__ == "__main__":
    console_main()
