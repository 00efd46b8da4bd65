"""Every certificate's bytes, pinned by digest.

tests/golden/certificates.sha256 holds one line per identity, the SHA-256
of its certificate's document, with `ms` dropped, written as
json.dumps(doc, indent=2) and a line feed, then a label.  The digest is
of that re-indented text, not of the file `verify --cert-out` writes, so
a change to the file's whitespace alone keeps every digest.  It covers the shipped corpora, the 3-index u-basis law,
whose elimination tree reaches equal subgoals along different paths, a
refuted law with two pins, one not an integer, whose leaf is scaled, the
paper's form (3.5) of Theorem 3.1, whose certificate records a cancelled
factor, and a law whose factor is zero at its quotient's witness.  A
change to the prover that keeps its certificates must keep every digest.

To rewrite the file after a deliberate certificate change:

    PYTHONPATH=src python tests/test_golden_certificates.py > tests/golden/certificates.sha256
"""

import hashlib
import json
from pathlib import Path

from conftest import THEOREM_3_1, TWO_PINS, U_BASIS_3, U_FALLBACK
from horaprove import corpus_path, parse_file, parse_identity, prove

GOLDEN = Path(__file__).resolve().parent / "golden" / "certificates.sha256"
CORPORA = ("paper.fib", "mutations.fib", "horadam_extra.fib")


def certificate_digest(identity) -> str:
    doc = prove(identity).to_json_dict()
    doc.pop("ms")
    text = json.dumps(doc, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_lines() -> list:
    lines = []
    for name in CORPORA:
        source = parse_file(corpus_path(name).read_text(encoding="utf-8"))
        for identity in source.identities:
            lines.append(f"{certificate_digest(identity)}  {name}:{identity.line}")
    lines.append(f"{certificate_digest(parse_identity(U_BASIS_3))}  u-basis-3")
    lines.append(f"{certificate_digest(parse_identity(TWO_PINS))}  two-pins")
    lines.append(f"{certificate_digest(parse_identity(THEOREM_3_1))}  theorem-3-1")
    lines.append(f"{certificate_digest(parse_identity(U_FALLBACK))}  u-fallback")
    return lines


def test_certificates_match_the_golden_digests():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(expected) == 19 + 38 + 4
    assert digest_lines() == expected


if __name__ == "__main__":
    print("\n".join(digest_lines()))
