"""Whether other Python interpreters give the running one's certificates and reports.

Run from the root of a checkout, naming each interpreter to compare:

    python tests/python_versions.py /path/to/python3.10 /path/to/python3.13

For the running interpreter and for each one named, in a fresh process
with src/ on PYTHONPATH, it runs

    python -m horaprove verify --cert-out DIR <the three corpora> multi_index.fib
    python -m horaprove fuzz --seed 5 --trials 50 paper.fib mutations.fib

Then it prints one line per named interpreter: whether its certificates
(less their "ms" member), both stdouts (less each `(N ms)` and the
certificate directory) and both exit codes equal the running
interpreter's, or that it did not run, when it cannot start or print its
version.  It exits 1 on any difference or interpreter that did not run,
and 0 when all match.
pyproject.toml promises Python >= 3.10, and this is how that promise is
checked.  Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "horaprove" / "corpus"
SHIPPED = [str(CORPUS / name) for name in ("paper.fib", "mutations.fib")]
VERIFIED = [*SHIPPED, str(CORPUS / "horadam_extra.fib"),
            str(ROOT / "perfbench" / "workloads" / "multi_index.fib")]

_MS_TEXT = re.compile(r"\(\d+ ms\)")
_MS_MEMBER = re.compile(rb'"ms": \d+')


def _horaprove(python: str, args: list) -> tuple:
    """(exit code, stdout) of `python -m horaprove args` with src/ on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([python, "-m", "horaprove", *args], env=env, capture_output=True,
                          text=True, timeout=600)
    return proc.returncode, _MS_TEXT.sub("(N ms)", proc.stdout)


def outputs(python: str) -> dict:
    """What one interpreter writes: each certificate less ms, and each command's result."""
    with tempfile.TemporaryDirectory() as work:
        certs = Path(work) / "certs"
        code, out = _horaprove(python, ["verify", "--cert-out", str(certs), *VERIFIED])
        found = {
            path.name: _MS_MEMBER.sub(b'"ms": 0', path.read_bytes())
            for path in sorted(certs.glob("*.json"))
        }
        found["verify"] = code, out.replace(str(certs), "DIR")
    found["fuzz"] = _horaprove(python, ["fuzz", "--seed", "5", "--trials", "50", *SHIPPED])
    return found


def differences(reference: dict, other: dict) -> list:
    """The names of the outputs that the two interpreters do not share or that differ."""
    return sorted(name for name in reference.keys() | other.keys()
                  if reference.get(name) != other.get(name))


def version(python: str) -> tuple:
    """(True, the version) when the interpreter runs, else (False, why it did not)."""
    try:
        proc = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                              capture_output=True, text=True, timeout=60)
    except OSError as exc:
        return False, str(exc)
    if proc.returncode:
        return False, f"exit {proc.returncode}"
    return True, proc.stdout.strip()


def main(pythons: list) -> int:
    if not pythons:
        print("usage: python tests/python_versions.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    reference = outputs(sys.executable)
    certificates = len(reference) - 2
    print(f"reference: {sys.executable} ({version(sys.executable)[1]}), "
          f"{certificates} certificates, verify exit {reference['verify'][0]}, "
          f"fuzz exit {reference['fuzz'][0]}")
    failed = False
    for python in pythons:
        ran, found = version(python)
        if not ran:
            failed = True
            print(f"{python}: did not run ({found})")
            continue
        diff = differences(reference, outputs(python))
        if diff:
            failed = True
            print(f"{python} ({found}): DIFFERS in {', '.join(diff)}")
        else:
            print(f"{python} ({found}): equal "
                  f"({certificates} certificates, verify and fuzz stdout)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
