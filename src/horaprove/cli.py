"""Command-line front end: verification runs, certificates, fuzz reports.

Exit codes: 0 when every identity is PROVED (or every fuzz trial passes),
1 when any identity is REFUTED (or any counterexample is found), 2 on
errors: unreadable files, parse failures, bad flags, a closed stdout, an
order-cap abort, or an unexpected error in one identity (the run goes on).
A run that meets more than one outcome exits with the highest code.

Input files are read as UTF-8; a leading byte-order mark is dropped.
Each certificate is the bytes of Certificate.json_text, which is one
line of ASCII JSON, and a line feed (LF on every platform).

main turns the cyclic garbage collector off for the run and restores its
prior state on return.  Reference counting frees every proof, certificate
and oracle trial; the only cyclic garbage a run leaves is argparse's
parser, the same whatever the input.  So a collector pass, which the
run's allocations would start at every threshold's worth of new
container objects, could free nothing else, and no threshold would bound
anything: the collector is off, not tuned.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .lang import ParseError, parse_file
from .prover import (
    ABORTED,
    DEFAULT_MAX_ORDER,
    PROVED,
    REFUTED,
    EliminationOrderError,
    fuzz,
    prove,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_ERROR = 2


def _load(path: str):
    """The identities of one input file, or None after reporting why it has none."""
    try:
        # utf-8-sig drops a leading byte-order mark, as editors on Windows write
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None
    except UnicodeDecodeError as exc:
        # read_text decodes the whole file in one call, so exc.object is all of
        # it (less a byte-order mark, which holds no line break)
        line = exc.object.count(b"\n", 0, exc.start) + 1
        print(
            f"error: {path}:{line}: not UTF-8: byte 0x{exc.object[exc.start]:02x}",
            file=sys.stderr,
        )
        return None
    try:
        return parse_file(text).identities
    except ParseError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        return None


def _cert_stem(path: str, used: set) -> str:
    stem = Path(path).stem or "certs"
    candidate, k = stem, 1
    while candidate in used:
        k += 1
        candidate = f"{stem}-{k}"
    used.add(candidate)
    return candidate


def _run(args, check, total) -> int:
    """Check each identity of each file, print the report, return the highest exit code.

    check(where, identity, cert_name) gets the identity's `path:line` and
    certificate file name and returns its report line (or None) and exit
    code; a crash in one identity is reported and the run goes on.
    """
    lines, code, used_stems = [], EXIT_OK, set()
    for path in args.paths:
        identities = _load(path)
        if identities is None:
            code = EXIT_ERROR
            continue
        stem = _cert_stem(path, used_stems)
        for i, identity in enumerate(identities, start=1):
            where = f"{path}:{identity.line}"
            try:
                line, status = check(where, identity, f"{stem}-{i:03d}.json")
            except Exception as exc:  # one identity's crash must not end the run
                print(f"error: {where}: {type(exc).__name__}: {exc}", file=sys.stderr)
                line, status = None, EXIT_ERROR
            if line is not None:
                lines.append(line)
            code = max(code, status)
    print("\n".join([*lines, total()]))
    return code


def cmd_verify(args) -> int:
    cert_dir = None
    if args.cert_out:
        cert_dir = Path(args.cert_out)
        try:
            cert_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: {args.cert_out}: {exc}", file=sys.stderr)
            return EXIT_ERROR
    counts = dict.fromkeys((PROVED, REFUTED, ABORTED), 0)

    def check(where, identity, cert_name):
        try:
            cert = prove(identity, elimination_order=args.elim_order, max_order=args.max_order)
        except EliminationOrderError as exc:
            print(f"error: {where}: {exc}", file=sys.stderr)
            return None, EXIT_ERROR
        line = f"{where}: {cert.verdict} ({cert.ms} ms)"
        if cert_dir is not None:
            cert_path = cert_dir / cert_name
            try:
                cert_path.write_bytes(cert.json_text().encode() + b"\n")
            except OSError as exc:
                print(f"error: {where}: {cert_path}: {exc}", file=sys.stderr)
                return None, EXIT_ERROR
            line += f" -> {cert_path}"
        counts[cert.verdict] += 1
        if cert.verdict == ABORTED:
            return f"{line} ({cert.reason})", EXIT_ERROR
        if cert.verdict == REFUTED:
            return line, EXIT_FALSIFIED
        if not args.fuzz_after:
            return line, EXIT_OK
        try:
            result = fuzz(identity, args.trials, args.seed, args.range)
        except Exception as exc:  # the oracle's crash keeps the verdict line
            print(f"error: {where}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return line, EXIT_ERROR
        if result.ok:
            return f"{line} fuzz=PASS({args.trials})", EXIT_OK
        print(
            f"error: {where}: oracle disagrees with PROVED verdict: "
            f"{result.counterexample.describe()}",
            file=sys.stderr,
        )
        return line, EXIT_ERROR

    return _run(args, check, lambda: (
        f"total: {sum(counts.values())} identities, {counts[PROVED]} proved, "
        f"{counts[REFUTED]} refuted, {counts[ABORTED]} aborted"
    ))


def cmd_fuzz(args) -> int:
    tried = 0

    def check(where, identity, _cert_name):
        nonlocal tried
        tried += 1
        result = fuzz(identity, args.trials, args.seed, args.range)
        if result.ok:
            return f"{where}: PASS ({args.trials} trials)", EXIT_OK
        return f"{where}: COUNTEREXAMPLE {result.counterexample.describe()}", EXIT_FALSIFIED

    return _run(args, check, lambda: f"total: {tried} identities fuzzed")


def _at_least_one(text: str) -> int:
    """argparse type of --trials, --range and --max-order: an int, at least 1."""
    try:
        value = int(text)
    except ValueError:  # worded as argparse words a bad type=int value
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _index_names(text: str) -> list:
    """argparse type of --elim-order: comma-separated names, at least one."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise argparse.ArgumentTypeError("names no index variable")
    return names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horaprove",
        description="Prove or refute identities among generalized Fibonacci sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument("--seed", type=int, default=0, help="oracle seed (default 0)")
    oracle.add_argument("--trials", type=_at_least_one, default=200,
                        help="oracle trials (default 200)")
    oracle.add_argument("--range", type=_at_least_one, default=9,
                        help="oracle bound for scalars and indices (default 9)")

    verify = sub.add_parser(
        "verify", parents=[oracle], help="decide every identity in the given files"
    )
    verify.add_argument("paths", nargs="+", help="identity files")
    verify.add_argument("--cert-out", metavar="DIR", help="write one JSON certificate per identity")
    verify.add_argument(
        "--elim-order",
        type=_index_names,
        metavar="m,n,k",
        help="index elimination order (extra names are ignored per identity)",
    )
    verify.add_argument("--max-order", type=_at_least_one, default=DEFAULT_MAX_ORDER,
                        metavar="K", help="abort when an annihilator order exceeds K "
                        f"(default {DEFAULT_MAX_ORDER})")
    verify.add_argument("--fuzz-after", action="store_true",
                        help="run the numeric oracle on every PROVED identity")

    fuzz_cmd = sub.add_parser(
        "fuzz", parents=[oracle], help="numerically test every identity in the given files"
    )
    fuzz_cmd.add_argument("paths", nargs="+", help="identity files")
    return parser


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # a run leaves no cyclic garbage but argparse's (module docstring)
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
            return int(exc.code or 0)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_fuzz(args)
    finally:
        if enabled:
            gc.enable()


def entrypoint():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout, as `| head` may: an error, not a verdict
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # exit's flush cannot fail
        code = EXIT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
