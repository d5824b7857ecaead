"""Command-line surface: every capability behind stable canonical-JSON I/O.

stdout carries exactly one JSON document per invocation; anything meant for
humans goes to stderr.  Exit codes: Ok 0, WitnessFound 1, Unproved 2,
InvalidInput 64, InternalError 70 (a self-check failed: a bug, not a
verdict).  Rational arguments accept integer or "p/q" strings only; decimals
are refused because they are not exactly what they look like.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .certificates import UnprovedError, certify_upper
from .checker import certificate_from_json, certificate_stats, check_certificate, points_used
from .equations import (
    ProblemSpec,
    formula_continuous,
    formula_degenerate_k1,
    formula_discrete,
)
from .intervals import (
    boundary_witnesses,
    coloring_as_json,
    coloring_from_json,
    lower_bound_coloring,
    verify_coloring,
)
from .search import compute_rado
from .serialize import canonical_json, format_rational, parse_rational
from . import suite

EXIT_CODES = {"Ok": 0, "WitnessFound": 1, "Unproved": 2, "InvalidInput": 64, "InternalError": 70}


class _CliError(ValueError):
    """Bad flags or bad input files; maps to InvalidInput."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2), which Unproved owns
        raise _CliError(message)


def _result(command: str, spec, payload, status: str) -> dict:
    return {"command": command, "spec": spec, "payload": payload, "status": status}


def _spec_json(k: int, l: int, gamma: Fraction = Fraction(1)) -> dict:
    return {"k": k, "l": l, "gamma": format_rational(gamma)}


def _write_out(path: str, payload: dict) -> str:
    try:
        Path(path).write_text(canonical_json(payload) + "\n", encoding="ascii")
    except OSError as exc:  # uncaught it would exit 1, which means WitnessFound
        raise _CliError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def _read_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise _CliError(f"no such file: {path}") from None
    except OSError as exc:  # a directory, no permission, ...
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path} is not JSON: {exc}") from None
    except RecursionError:  # uncaught it would exit 1, which means WitnessFound
        raise _CliError(f"{path} nests too deeply to read") from None


def cmd_formula(args) -> dict:
    gamma = parse_rational(args.gamma) if args.gamma is not None else None
    if args.mode == "discrete":
        if gamma is not None:
            raise _CliError("--gamma does not apply to the discrete formula")
        value, kind = formula_discrete(args.k, args.l), "discrete-formula"
        spec = _spec_json(args.k, args.l)
    elif args.mode == "continuous":
        gamma = Fraction(1) if gamma is None else gamma
        value, kind = formula_continuous(args.k, args.l, gamma), "continuous-formula"
        spec = _spec_json(args.k, args.l, gamma)
    else:  # k1
        if args.k != 1:
            raise _CliError("--mode k1 requires k = 1")
        if gamma is not None:
            raise _CliError("--gamma does not apply to the degenerate k=1 oracle")
        value, kind = formula_degenerate_k1(args.l), "continuous-formula"
        spec = _spec_json(args.k, args.l)
    payload = {"value": format_rational(value), "kind": kind}
    return _result("formula", spec, payload, "Ok")


def cmd_discrete(args) -> dict:
    spec = ProblemSpec(args.k, args.l)
    report = compute_rado(
        spec, max_n=args.max_n, propagation=not args.no_propagation, scan=args.scan
    )
    payload = report.as_json()
    status = "Ok" if report.value is not None else "Unproved"
    return _result("discrete", spec.as_json(), payload, status)


def cmd_lower_bound(args) -> dict:
    gamma = parse_rational(args.gamma) if args.gamma is not None else Fraction(1)
    spec = ProblemSpec(args.k, args.l, gamma)
    coloring = lower_bound_coloring(spec)
    verdict = verify_coloring(coloring, spec)
    if not verdict.is_valid:
        # correctness tripwire: the construction is supposed to be unconditionally valid
        raise RuntimeError(f"lower-bound coloring failed self-verification: {verdict}")
    red_w, blue_w = boundary_witnesses(spec)
    doc = coloring_as_json(coloring)
    payload = {
        "file": _write_out(args.out, doc) if args.out else None,
        "coloring": doc,
        "verdict": "Valid",
        "boundary_witnesses": {"red": red_w.as_json(), "blue": blue_w.as_json()},
    }
    return _result("lower-bound", spec.as_json(), payload, "Ok")


def cmd_verify_coloring(args) -> dict:
    coloring = coloring_from_json(_read_json(args.file))
    spec = ProblemSpec(args.k, args.l, coloring.domain.lo)
    verdict = verify_coloring(coloring, spec)
    payload = verdict.as_json()
    status = "Ok" if verdict.is_valid else "WitnessFound"
    return _result("verify-coloring", spec.as_json(), payload, status)


def cmd_certify_upper(args) -> dict:
    spec = ProblemSpec(args.k, args.l)
    doc, nodes = certify_upper(spec, args.grid_denominator, args.max_depth)
    payload = {
        "file": _write_out(args.out, doc) if args.out else None,
        "domain_end": doc["domain_end"],
        **certificate_stats(nodes),
        "points_used": points_used(nodes),
    }
    return _result("certify-upper", spec.as_json(), payload, "Ok")


def cmd_verify_certificate(args) -> dict:
    # The read path builds only acyclic tuples, so the cyclic collector would
    # only re-walk the whole decoded document each time allocations trigger it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        spec, domain_end, nodes = certificate_from_json(_read_json(args.file))
        check = check_certificate(spec, domain_end, nodes)
    finally:
        if collecting:
            gc.enable()
    spec_json = spec.as_json()
    if check.ok:
        payload = {
            "verified": True,
            "domain_end": format_rational(domain_end),
            **certificate_stats(nodes),
        }
        return _result("verify-certificate", spec_json, payload, "Ok")
    payload = {
        "verified": False,
        "failure": {**check.failure._asdict(), "path": list(check.failure.path)},
    }
    return _result("verify-certificate", spec_json, payload, "WitnessFound")


def cmd_reproduce(args) -> dict:
    results = suite.run_all(full=args.full)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name}: {r.detail}", file=sys.stderr)
    all_ok = all(r.ok for r in results)
    payload = {
        "full": args.full,
        "all_ok": all_ok,
        "checks": [r.as_json() for r in results],
    }
    return _result("reproduce", None, payload, "Ok" if all_ok else "WitnessFound")


def build_parser() -> _Parser:
    parser = _Parser(prog="offrado", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formula", help="closed-form values")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--gamma", help="domain left endpoint (continuous mode only)")
    p.add_argument("--mode", choices=("discrete", "continuous", "k1"), default="continuous")
    p.set_defaults(handler=cmd_formula)

    p = sub.add_parser("discrete", help="exact search over {1..n}")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--max-n", type=int, default=None, help="hard search cap (default formula+5)")
    p.add_argument("--no-propagation", action="store_true", help="2^n brute-force oracle mode")
    p.add_argument("--scan", action="store_true", help="record colorability for every n up to the cap")
    p.set_defaults(handler=cmd_discrete)

    p = sub.add_parser("lower-bound", help="emit and self-verify the extremal coloring")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--gamma", help="domain left endpoint (default 1)")
    p.add_argument("--out", help="write the coloring file here")
    p.set_defaults(handler=cmd_lower_bound)

    p = sub.add_parser("verify-coloring", help="check a coloring file")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--file", required=True)
    p.set_defaults(handler=cmd_verify_coloring)

    p = sub.add_parser("certify-upper", help="build and verify an upper-bound certificate")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--out", help="write the certificate file here")
    p.add_argument(
        "--grid-denominator", type=int, default=None,
        help="search every branch automatically on the 1/d grid instead of using built chains",
    )
    p.add_argument("--max-depth", type=int, default=64, help="branch depth cap for the prover")
    p.set_defaults(handler=cmd_certify_upper)

    p = sub.add_parser("verify-certificate", help="re-verify a certificate file")
    p.add_argument("--file", required=True)
    p.set_defaults(handler=cmd_verify_certificate)

    p = sub.add_parser("reproduce", help="run the whole verification suite")
    p.add_argument(
        "--full", action="store_true",
        help="wider ranges: formula table to (5,5), lower bounds to kl=10, certificates "
        "to (2,10) and (5,5), search oracle to n=18, 500 sumset-oracle instances, each "
        "judging every sum of m member samples",
    )
    p.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result = args.handler(args)
    except UnprovedError as exc:
        spec = exc.spec.as_json()
        payload = {
            "error": str(exc),
            "branch": exc.branch,
            "grid_denominator": exc.denominator,
            "max_depth": exc.depth,
            "colorable": exc.colorable,
        }
        result = _result("certify-upper", spec, payload, "Unproved")
    except ValueError as exc:
        result = _result("invalid", None, {"error": str(exc)}, "InvalidInput")
    except (OverflowError, MemoryError) as exc:  # 10^20 points; exit 1 means WitnessFound
        error = f"an argument is too large: {str(exc) or 'out of memory'}"
        result = _result("invalid", None, {"error": error}, "InvalidInput")
    except RuntimeError as exc:  # uncaught it would exit 1, which means WitnessFound
        import traceback  # only on this path, so no command pays for the import

        traceback.print_exc()
        result = _result("internal", None, {"error": str(exc)}, "InternalError")
    try:
        print(canonical_json(result), flush=True)
    except OSError as exc:  # a closed pipe, a full disk; uncaught it would exit 1
        try:
            print(f"offrado: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        except OSError:  # stderr is gone too; the exit code still says why
            pass
        # the interpreter flushes stdout again at exit; let that write go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return EXIT_CODES["InvalidInput"]
    return EXIT_CODES[result["status"]]
