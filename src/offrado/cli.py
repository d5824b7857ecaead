"""Command-line surface: every capability behind stable canonical-JSON I/O.

stdout carries exactly one JSON document per invocation, except for -h, which
prints help there instead; anything else meant for humans goes to stderr.
Exit codes: Ok 0, WitnessFound 1, Unproved 2, InvalidInput 64, InternalError
70 (a self-check failed: a bug, not a verdict).  Rational arguments accept
integer or "p/q" strings only; decimals are refused because they are not
exactly what they look like.
"""

from __future__ import annotations

import errno
import gc
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

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


def _result(command: str, spec, payload, status: str) -> dict:
    return {"command": command, "spec": spec, "payload": payload, "status": status}


def _spec_json(k: int, l: int, gamma: Fraction = Fraction(1)) -> dict:
    return {"k": k, "l": l, "gamma": format_rational(gamma)}


def _write_out(path: str, payload: dict) -> str:
    try:
        # str.encode("ascii") imports no codec module, where write_text's
        # encoding="ascii" would import encodings.ascii on every --out
        Path(path).write_bytes((canonical_json(payload) + "\n").encode("ascii"))
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
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path} is not UTF-8 text: {exc}") from None
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
    doc, tree = certify_upper(spec, args.grid_denominator, args.max_depth)
    payload = {
        "file": _write_out(args.out, doc) if args.out else None,
        "domain_end": doc["domain_end"],
        **certificate_stats(tree),
        "points_used": points_used(tree),
    }
    return _result("certify-upper", spec.as_json(), payload, "Ok")


def cmd_verify_certificate(args) -> dict:
    # The read path builds only acyclic tuples, so the cyclic collector would
    # only re-walk the whole decoded document each time allocations trigger it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        spec, domain_end, tree = certificate_from_json(_read_json(args.file))
        check = check_certificate(spec, domain_end, tree)
    finally:
        if collecting:
            gc.enable()
    spec_json = spec.as_json()
    if check.ok:
        payload = {
            "verified": True,
            "domain_end": format_rational(domain_end),
            **certificate_stats(tree),
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


def _arg(*flags: str, **options) -> tuple:
    return flags, options


_K_L = (_arg("k", type=int), _arg("l", type=int))

# name -> (help line, handler, add_argument specs): the one place a command
# and its flags are declared.  Both routes in parse_args build from it.
COMMANDS = {
    "formula": ("closed-form values", cmd_formula, (
        *_K_L,
        _arg("--gamma", help="domain left endpoint (continuous mode only)"),
        _arg("--mode", choices=("discrete", "continuous", "k1"), default="continuous"),
    )),
    "discrete": ("exact search over {1..n}", cmd_discrete, (
        *_K_L,
        _arg("--max-n", type=int, default=None, help="hard search cap (default formula+5)"),
        _arg("--no-propagation", action="store_true", help="2^n brute-force oracle mode"),
        _arg("--scan", action="store_true", help="record colorability for every n up to the cap"),
    )),
    "lower-bound": ("emit and self-verify the extremal coloring", cmd_lower_bound, (
        *_K_L,
        _arg("--gamma", help="domain left endpoint (default 1)"),
        _arg("--out", help="write the coloring file here"),
    )),
    "verify-coloring": ("check a coloring file", cmd_verify_coloring, (
        *_K_L,
        _arg("--file", required=True),
    )),
    "certify-upper": ("build and verify an upper-bound certificate", cmd_certify_upper, (
        *_K_L,
        _arg("--out", help="write the certificate file here"),
        _arg(
            "--grid-denominator", type=int, default=None,
            help="search every branch automatically on the 1/d grid instead of using built chains",
        ),
        _arg("--max-depth", type=int, default=64, help="branch depth cap for the prover"),
    )),
    "verify-certificate": ("re-verify a certificate file", cmd_verify_certificate, (
        _arg("--file", required=True),
    )),
    "reproduce": ("run the whole verification suite", cmd_reproduce, (
        _arg(
            "--full", action="store_true",
            help="wider ranges: formula table to (5,5), lower bounds to kl=10, certificates "
            "to (2,10) and (5,5), search oracle to n=18, 500 sumset-oracle instances, each "
            "judging every sum of m member samples",
        ),
    )),
}


def build_parser():
    """Every command's parser: help, errors and every spelling _plain leaves
    to argparse.  The one place argparse is imported."""
    import argparse

    class Parser(argparse.ArgumentParser):  # add_subparsers gives subparsers this class too
        def error(self, message):  # argparse would exit(2), which Unproved owns
            raise _CliError(message)

        def print_help(self, file=None):
            # argparse drops a failed write (3.11+) or lets it escape as exit 1
            # (3.10); a closed stdout keeps argparse's fallback to stderr
            if file is not None or sys.stdout is None:
                return super().print_help(file)
            try:
                sys.stdout.write(self.format_help())
                sys.stdout.flush()
            except OSError as exc:
                raise SystemExit(_stdout_lost(exc)) from None

    parser = Parser(prog="offrado", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flags, options in arguments:
            command.add_argument(*flags, **options)
        command.set_defaults(handler=handler)
    return parser


def _value(options: dict, token):
    """token as argparse would store it, when it is plainly valid; else None."""
    if options.get("type") is int:
        if token is None or not (token.isascii() and token.isdigit()):
            return None
        try:
            token = int(token)
        except ValueError:  # more digits than int() converts
            return None
    elif token is None or "type" in options or token[:1] in ("", "-"):
        return None
    return token if token in options.get("choices", (token,)) else None


def _plain(argv):
    """The namespace build_parser().parse_args(argv) gives, read straight from
    COMMANDS, when argv is canonical: a command name, exactly its positionals,
    then exact long flags, each at most once, every required one present.
    Anything else is None, for argparse to parse, refuse or answer with help."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, handler, arguments = COMMANDS[argv[0]]
    found = {"command": argv[0], "handler": handler}
    flags = {}
    tokens = iter(argv[1:])
    for (name,), options in arguments:
        dest = name.lstrip("-").replace("-", "_")
        if name.startswith("-"):
            flags[name] = dest, options
            found[dest] = options.get("default", False if options.get("action") == "store_true" else None)
            continue
        found[dest] = _value(options, next(tokens, None))
        if found[dest] is None:
            return None
    seen = set()
    for flag in tokens:
        if flag not in flags or flag in seen:
            return None
        seen.add(flag)
        dest, options = flags[flag]
        if options.get("action") == "store_true":
            found[dest] = True
            continue
        found[dest] = _value(options, next(tokens, None))
        if found[dest] is None:
            return None
    if any(options.get("required") and flag not in seen for flag, (_, options) in flags.items()):
        return None
    return SimpleNamespace(**found)


def parse_args(argv):
    """Parse argv as build_parser() would."""
    # Canonical argv is read from COMMANDS alone, so a well-formed command
    # never imports argparse, whose first parser costs more than a small
    # command (gettext, locale, regexes).  Help, every error and every other
    # spelling argparse accepts go through argparse, with its own messages.
    plain = _plain(argv)
    return plain if plain is not None else build_parser().parse_args(argv)


def _stdout_lost(exc: OSError) -> int:
    """A closed pipe, a full disk: say so on stderr and exit InvalidInput, not
    the 1 of WitnessFound an uncaught error would give."""
    try:
        print(f"offrado: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
    except OSError:  # stderr is gone too; the exit code still says why
        pass
    # the interpreter flushes stdout again at exit; let that write go nowhere
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    return EXIT_CODES["InvalidInput"]


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
        if sys.stdout is None:  # started with stdout closed; print would drop the document
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        print(canonical_json(result), flush=True)
    except OSError as exc:
        return _stdout_lost(exc)
    return EXIT_CODES[result["status"]]
