"""The functions of horaprove that no command-line run enters.

Run from the root of a checkout:

    PYTHONPATH=src python tests/reachability.py

It installs a profile hook, then imports horaprove, so that import-time
calls count too.  It runs `cli.main` in process over the shipped corpora
(`verify --cert-out --fuzz-after`, and `fuzz --seed 3 --trials 20`), an
order cap, an elimination order, a law with rational pins, and a fixture
for each error, bound and crash path, checking each run's exit code and
report.  Then it prints every `def` of the package that no run entered,
one per line as `module.py:first-last qualified.name`, and a total.

A function is keyed by its code object's (file, first line), which for a
decorated function is the line of its first decorator; `ast` gives the
same line for each `def` in the source.  tests/test_reachability.py runs
this script in a fresh interpreter, so the package's caches start empty,
and compares the list with its allowlist.  Standard library only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

CORPORA = ("paper.fib", "mutations.fib", "horadam_extra.fib")

# Two q^(...) atoms in one monomial merge through LinForm.plus.
TWO_Q_ATOMS = "forall n: q^(n)*q^(2*n)*W(n) == q^(3*n)*W(n)\n"
# A side that is a pure scalar is lifted to a normal form.
ZERO_SIDE = "forall n: W(n+2) - p*W(n+1) + q*W(n) == 0\n"
# Two q powers in the ring's range whose product is not: ABORTED, naming q.
Q_PRODUCT_OVERFLOW = "forall n: q^(1000000000)*q^(1000000000)*W(n) == W(n)\n"
FAR_INDEX = "forall n: W(n+3000000000) == W(n)\n"
# The oracle values a constant q power once per trial, however often it occurs.
CONSTANT_Q = "forall n: q^(2)*W(n+2) == q^(2)*p*W(n+1) - q^(3)*W(n)\n"
# Rational pins make the oracle's window base more than |q| (TermWindow._pair).
RATIONAL_PIN = "forall n: W(n+2) == p*W(n+1) - q*W(n) with p := 1/2, q := -3/2\n"
PARSE_ERROR = "forall n: W(n+1 == W(n)\n"


def _crashing_fuzz(*_args, **_kwargs):
    raise RuntimeError("oracle crashed")


def _run(cli, argv, code: int, *fragments: str):
    """Run cli.main(argv); its exit code and report must be the ones given."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        got = cli.main(argv)
    report = out.getvalue()
    if got != code or not all(f in report for f in fragments):
        raise AssertionError(f"{argv}: exit {got}, expected {code} with {fragments}:\n{report}")


def exercise(package: Path, work: Path):
    """Every run the trace covers; fixtures are written under work."""
    from horaprove import cli

    corpora = [str(package / "corpus" / name) for name in CORPORA]
    paper = corpora[0]
    fixtures = {}
    for name, text in (
        ("two_q_atoms", TWO_Q_ATOMS),
        ("zero_side", ZERO_SIDE),
        ("q_overflow", Q_PRODUCT_OVERFLOW),
        ("far_index", FAR_INDEX),
        ("constant_q", CONSTANT_Q),
        ("rational_pin", RATIONAL_PIN),
        ("parse_error", PARSE_ERROR),
    ):
        fixtures[name] = path = work / f"{name}.fib"
        path.write_text(text, encoding="utf-8")

    certs = str(work / "certs")
    _run(cli, ["verify", "--cert-out", certs, "--fuzz-after", "--trials", "5", *corpora], 1,
         "total: 57 identities, 19 proved, 38 refuted, 0 aborted")
    _run(cli, ["fuzz", "--seed", "3", "--trials", "20", *corpora], 1, "COUNTEREXAMPLE")
    _run(cli, ["verify", "--max-order", "2", paper], 2, "ABORTED")
    _run(cli, ["verify", "--elim-order", "k,m,n", paper], 2, "does not cover")
    _run(cli, ["verify", str(work / "missing.fib")], 2, "missing.fib")
    _run(cli, ["verify", str(fixtures["parse_error"])], 2, "parse_error.fib:1:")
    _run(cli, ["verify", str(fixtures["far_index"])], 2, "ABORTED", "of p is outside")
    _run(cli, ["verify", str(fixtures["q_overflow"])], 2,
         "ABORTED", "exponent 2000000000 of q is outside")
    _run(cli, ["verify", str(fixtures["two_q_atoms"]), str(fixtures["zero_side"])], 0,
         "total: 2 identities, 2 proved")
    _run(cli, ["fuzz", "--trials", "3", str(fixtures["constant_q"]), str(fixtures["rational_pin"])],
         0, "PASS (3 trials)", "total: 2 identities fuzzed")

    # the console script: main's exit code becomes the process's
    argv = sys.argv
    sys.argv = ["horaprove", "verify", corpora[2]]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.entrypoint()
    except SystemExit as exc:
        if exc.code != 0:
            raise AssertionError(f"entrypoint exited {exc.code}") from None
    else:
        raise AssertionError("entrypoint did not exit")
    finally:
        sys.argv = argv

    # a crash in one identity's oracle is reported, and the run goes on
    fuzz = cli.fuzz
    cli.fuzz = _crashing_fuzz
    try:
        _run(cli, ["fuzz", str(fixtures["zero_side"])], 2, "RuntimeError: oracle crashed")
    finally:
        cli.fuzz = fuzz


def package_defs(package: Path) -> list:
    """(module file, qualified name, first line, last line) of every def, in source order.

    The first line is that of the first decorator, if any, as in the code object.
    """
    found = []

    def visit(node, module: str, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((module, name, first, child.end_lineno))
                visit(child, module, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".")
            else:
                visit(child, module, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return found


def trace(run=exercise) -> tuple:
    """(every def of the imported package, the defs that run(package, work) does not enter)."""
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        import horaprove  # traced: its module-level calls count

        package = Path(horaprove.__file__).resolve().parent
        with tempfile.TemporaryDirectory() as work:
            run(package, Path(work))
    finally:
        sys.setprofile(None)
    entered = set()
    for code in codes:
        path = Path(code.co_filename).resolve()
        if path.parent == package:
            entered.add((path.name, code.co_firstlineno))
    defs = package_defs(package)
    return defs, [d for d in defs if (d[0], d[2]) not in entered]


def main() -> int:
    defs, missed = trace()
    for module, name, first, last in missed:
        print(f"{module}:{first}-{last} {name}")
    lines = sum(last - first + 1 for _module, _name, first, last in missed)
    print(f"total: {len(missed)} of {len(defs)} defs never entered, {lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
